"""Zero rotation: the impairment, its template-correlation estimator, the
derotation by bin, and the experiment-level error metric.

A residual timing (or frequency) offset phase-modulates the received
coefficients, which rotates every zero counterclockwise by a common angle.
Because all codewords share one magnitude template, the rotation shows up as
a cyclic shift of the sampled magnitude |Y(e^{j omega})| and can be estimated
by correlating against the template over all N cyclic shifts.

`rotation_bins` runs that pipeline (N-point magnitude IFFT, then the
correlation by rfft, product with the template's conjugate spectrum, irfft
and argmax) over a coefficient stack in blocks of at most BLOCK_VALUES grid
values, or one row where a single row is larger.  A 4096-row stack at
N = 1024 would otherwise hold several 32-64 MB intermediates at once and
stream each through memory; a 64-row block keeps the working set of a few
MB in a core's L2 cache and bounds the peak memory of the call.  The
zero-padded input, the IFFT output and the magnitudes live in three buffers
allocated once per call, sized by the smaller of the stack and the block,
and filled in place for every block; the template's spectrum is computed
once per Template (`Template.conj_spectrum`).  A caller that repeats the
call may pass the three buffers' memory as `work`.  FFTs treat each row on
its own, so the bins do not depend on the block size or the buffers.

A bin m stands for the angle 2 pi m/N, so a receiver derotates with
`correct_bins(coeffs, bins, N)`, which looks each row's phase ramp up in a
cached read-only (N, L) table instead of evaluating L complex exponentials
per row; the table holds exactly the values
`apply_rotation(coeffs, -2 pi m/N)` multiplies by.

Both end in `_rotated`, np.multiply(ramps, coeffs) into the fresh ramps
where they have its shape: the order and memory of numpy 2's elided
`coeffs * ramps` from 256 KiB, kept at every size, since a complex
product (an FMA) is not bitwise commutative and a row's bits must not
depend on its stack.
"""

from __future__ import annotations

import functools

import numpy as np

from .buffers import checked_out, work_values
from .zeros import Template

BLOCK_VALUES = 2**16  # grid values (rows x N) estimated at once by rotation_bins


def apply_rotation(coeffs, angle) -> np.ndarray:
    """Multiply coefficient l by e^{-j*angle*l}; rotates every zero of the
    polynomial counterclockwise by `angle`.

    coeffs: (..., L).  angle: a scalar, or one angle per polynomial, of a
    shape that broadcasts against coeffs.shape[:-1].
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    return _rotated(_phase_ramp(angle, coeffs.shape[-1]), coeffs)


def _phase_ramp(angle, length: int) -> np.ndarray:
    """e^{-j*angle*l} for l in [length], along a new last axis."""
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.exp(-1j * angle * np.arange(length))


def _rotated(ramps, coeffs, out=None) -> np.ndarray:
    """ramps * coeffs in that order, into out or the ramps (module docstring)."""
    if out is None and ramps.shape == np.broadcast_shapes(ramps.shape, coeffs.shape):
        out = ramps
    return np.multiply(ramps, coeffs, out=out)


@functools.lru_cache(maxsize=8)
def _phase_table(n_bins: int, length: int) -> np.ndarray:
    """Row m: the ramp apply_rotation(·, -(2 pi m/N)) multiplies a length-L
    row by.  Read-only, since every caller shares it."""
    table = _phase_ramp(-(2.0 * np.pi * np.arange(n_bins) / n_bins), length)
    table.flags.writeable = False
    return table


def correct_bins(coeffs, bins, n_bins: int, out: np.ndarray = None) -> np.ndarray:
    """Undo a rotation by bins * 2 pi / n_bins: equal to
    apply_rotation(coeffs, -2 pi bins/n_bins), bit for bit.

    coeffs: (..., L).  bins: integers in [n_bins], a scalar or one bin per
    polynomial, of a shape that broadcasts against coeffs.shape[:-1] like
    apply_rotation's angle.  out: None, or a writeable, C-contiguous
    complex128 array of the result shape that the corrected rows are
    written into, and which is returned (any other array raises
    ValueError); it may be coeffs itself, to correct in place.  The
    numbers are the same either way.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    ramps = _phase_table(n_bins, coeffs.shape[-1]).take(bins, axis=0)
    if out is not None:
        checked_out(out, np.broadcast_shapes(coeffs.shape, ramps.shape))
    return _rotated(ramps, coeffs, out)


def oversampled_magnitudes(coeffs, n_samples: int) -> np.ndarray:
    """|Y(e^{j 2 pi n/N})| for n in [N], the sampled magnitude shape used
    by the rotation estimator (equals the time-domain magnitudes of the
    matching OFDM symbol)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return n_samples * np.abs(np.fft.ifft(coeffs, n=n_samples, axis=-1))


def _correlation_scores(magnitudes: np.ndarray, template: Template) -> np.ndarray:
    """score[s] = sum_n template[(n - s) mod N] * magnitudes[n], all s.

    Computed with the correlation theorem; equals the direct inner-product
    definition to within roundoff.
    """
    spec = np.fft.rfft(magnitudes, axis=-1)
    spec *= template.conj_spectrum
    return np.fft.irfft(spec, n=template.size, axis=-1)


def estimate_rotation_bins(magnitudes, template: Template) -> np.ndarray:
    """Estimate the rotation of each of (..., N) magnitude rows as a bin
    index in [N]; bin m stands for the angle 2*pi*m/N.

    Picks the cyclic shift of the template with the largest inner product
    against the magnitudes; ties break toward the smallest bin.  For a
    magnitude row that is a cyclically shifted template the answer is
    exact; for arbitrary angles the estimate quantizes to the nearest of
    the N bins.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    if magnitudes.shape[-1] != template.size:
        raise ValueError(
            f"expected {template.size} magnitude samples, got {magnitudes.shape[-1]}"
        )
    return np.argmax(_correlation_scores(magnitudes, template), axis=-1)


def rotation_bins(coeffs, template: Template, work: np.ndarray = None) -> np.ndarray:
    """Rotation bins of (..., L) received coefficients: the magnitudes of
    each row on the template's N-point grid, matched against the template.
    Correct the rows with correct_bins(coeffs, bins, N).

    Runs in blocks of at most BLOCK_VALUES grid values through buffers
    allocated once per call (see the module docstring); rows longer than N
    are cropped to N, as ifft(·, n=N) does.  A single (L,) row gives a
    scalar bin.  work: None, or a writeable, C-contiguous float64 array
    of at least 5 * min(rows, max(1, BLOCK_VALUES // N)) * N values, whose
    leading values hold the buffers instead (any other array raises
    ValueError); the bins are the same either way."""
    coeffs = np.asarray(coeffs)
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    n = template.size
    step = max(1, min(len(rows), BLOCK_VALUES // n))
    width = min(rows.shape[-1], n)
    values = work_values(np.empty(5 * step * n) if work is None else work, 5 * step * n)
    padded, evals = values[: 4 * step * n].view(complex).reshape(2, step, n)
    padded[:, width:] = 0.0  # stays zero; each block fills columns ..width
    magnitudes = values[4 * step * n :].reshape(step, n)
    bins = np.empty(len(rows), dtype=np.intp)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        h = len(block)
        padded[:h, :width] = block[:, :width]
        np.fft.ifft(padded[:h], axis=-1, out=evals[:h])
        np.abs(evals[:h], out=magnitudes[:h])
        magnitudes[:h] *= n  # oversampled_magnitudes' N * |ifft(·, n=N)|
        bins[start : start + h] = estimate_rotation_bins(magnitudes[:h], template)
    return bins.reshape(coeffs.shape[:-1])[()]


def rotation_mse(true_angles, est_angles) -> float:
    """Mean of min{(phi - phi_hat)^2, (phi - (2 pi - phi_hat))^2} over all
    estimate pairs.  The second term, (phi + phi_hat - 2 pi)^2, is the
    circular error only when phi_hat = 0, so it is not a circular distance:
    rotation_mse([pi + 0.1], [pi - 0.1]) returns 0.0 for an estimate 0.2 rad
    off, and rotation_mse([0.05], [2 pi - 0.05]) about 3e-32 for one 0.1 rad
    off."""
    true_angles = np.asarray(true_angles, dtype=float)
    est_angles = np.asarray(est_angles, dtype=float)
    if true_angles.shape != est_angles.shape:
        raise ValueError("angle vectors must have matching length")
    direct = (true_angles - est_angles) ** 2
    wrapped = (true_angles - (2.0 * np.pi - est_angles)) ** 2
    return float(np.mean(np.minimum(direct, wrapped)))
