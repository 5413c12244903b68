"""Zero rotation: the impairment, its template-correlation estimator, and
the experiment-level error metric.

A residual timing (or frequency) offset phase-modulates the received
coefficients, which rotates every zero counterclockwise by a common angle.
Because all codewords share one magnitude template, the rotation shows up as
a cyclic shift of the sampled magnitude |Y(e^{j omega})| and can be estimated
by correlating against the template over all N cyclic shifts.
"""

from __future__ import annotations

import numpy as np

from .zeros import Template


def apply_rotation(coeffs, angle) -> np.ndarray:
    """Multiply coefficient l by e^{-j*angle*l}; rotates every zero of the
    polynomial counterclockwise by `angle`.

    coeffs: (..., L).  angle: a scalar, or one angle per polynomial, of a
    shape that broadcasts against coeffs.shape[:-1].
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    angle = np.asarray(angle, dtype=float)[..., None]
    return coeffs * np.exp(-1j * angle * np.arange(coeffs.shape[-1]))


def correct_rotation(coeffs, angle) -> np.ndarray:
    """Undo apply_rotation(coeffs, angle), with the same angle shapes."""
    return apply_rotation(coeffs, -np.asarray(angle, dtype=float))


def oversampled_magnitudes(coeffs, n_samples: int) -> np.ndarray:
    """|Y(e^{j 2 pi n/N})| for n in [N], the sampled magnitude shape used
    by the rotation estimator (equals the time-domain magnitudes of the
    matching OFDM symbol)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return n_samples * np.abs(np.fft.ifft(coeffs, n=n_samples, axis=-1))


def _correlation_scores(magnitudes: np.ndarray, template: np.ndarray) -> np.ndarray:
    """score[s] = sum_n template[(n - s) mod N] * magnitudes[n], all s.

    Computed with the correlation theorem; equals the direct inner-product
    definition to within roundoff.
    """
    spec = np.fft.rfft(magnitudes, axis=-1) * np.conj(np.fft.rfft(template))
    return np.fft.irfft(spec, n=len(template), axis=-1)


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
    scores = _correlation_scores(magnitudes, template.samples)
    return np.argmax(scores, axis=-1)


def rotation_bins(coeffs, template: Template) -> np.ndarray:
    """Rotation bins of (..., L) received coefficients: the magnitudes of
    each row on the template's N-point grid, matched against the template.
    Correct a row with correct_rotation(coeffs, 2*pi*bin/N)."""
    return estimate_rotation_bins(oversampled_magnitudes(coeffs, template.size), template)


def rotation_mse(true_angles, est_angles) -> float:
    """Mean of min{(phi - phi_hat)^2, (phi - (2 pi - phi_hat))^2} over all
    estimate pairs; the second term credits wraparound estimates."""
    true_angles = np.asarray(true_angles, dtype=float)
    est_angles = np.asarray(est_angles, dtype=float)
    if true_angles.shape != est_angles.shape:
        raise ValueError("angle vectors must have matching length")
    direct = (true_angles - est_angles) ** 2
    wrapped = (true_angles - (2.0 * np.pi - est_angles)) ** 2
    return float(np.mean(np.minimum(direct, wrapped)))
