"""Capacity-based reliability metric for polynomial zeros.

Dividing a unit-norm polynomial X(z) by one of its root factors (z - alpha_k)
leaves the polynomial formed by the neighbouring zeros, which is read as a
frequency-selective channel.  Its parallel-channel capacity, evaluated on a
uniform unit-circle grid with unit noise power per bin, scores how robustly
that zero survives additive coefficient noise.  Averaging over zeros gives a
per-polynomial score, and averaging over messages a per-codebook score, which
drives the constellation parameter search.

`_codebook_messages` alone decides which messages a codebook score covers,
and `optimize_radius` draws them once and scores every radius on them.

The profile is computed by spectral division rather than by deflating X once
per zero.  On the grid w_n = e^{j 2 pi n/N} the deflated polynomial satisfies

    |H_k(w_n)|^2 = |X(w_n)|^2 / d_k[n],   d_k[n] = |w_n - alpha_k|^2,

so one FFT per codeword gives every zero's channel, and the score is
(1/N) * (sum_n log2(d_k[n] + |X(w_n)|^2) - sum_n log2 d_k[n]).  The second
sum has the closed form log2|alpha_k^N - 1|^2, because
prod_n (alpha - w_n) = alpha^N - 1; for |alpha| > 1 it is evaluated as
2N log2|alpha| + log2|1 - alpha^-N|^2 so that alpha^N cannot overflow.  A
root within ON_GRID_DISTANCE of a grid point makes the ratio 0/0 (the
Wilkinson reference has a root at z = 1); such roots are scored exactly, by
`deflate` and the FFT of the quotient.

Every zero of a codebook stack is one of the constellation's 2K points (a
66-message K=128 stack has 8448 (row, zero) pairs but 256 distinct roots),
so d[n] is built once per distinct root, not once per pair.  Each pair then
gathers its root's d and its row's |X(w_n)|^2, and its N values are reduced
by one log2 and one sum, the same arithmetic, bit for bit, as forming them
pair by pair.  The stack is scored BLOCK_VALUES // N rows at a time; in a
block, distances are built for BLOCK_VALUES // (3N) roots at a time and the
pairs, sorted by root, scored as many at a time.  So the power array, its
transform, the distance table and the gather buffers hold a few times
BLOCK_VALUES grid values, whatever the size of the stack, plus a few values
per pair.  Rows are scored on their own, so the blocks change no score.
"""

from __future__ import annotations

import warnings

import numpy as np

from .rotation import oversampled_magnitudes
from .zeros import ConstellationParams, coeffs_to_zeros, encode_bits, encode_coeffs

GRID_SIZE = 1024  # N, the unit-circle grid of the capacity
EXACT_LIMIT = 16  # full codebook enumeration refused above this many zeros
MIN_SAMPLE_COUNT = 64
EXTREMES = 2  # the all-outside and all-inside codewords that lead a sample
ROOT_TOL = 1e-6  # |X(alpha)| relative to sum_i |c_i||alpha|^i
ON_GRID_DISTANCE = 1e-4  # closer roots are scored by deflation
BLOCK_VALUES = 2**17  # grid values formed at once by reliability_profile
RADIUS_GRID = np.arange(1.001, 1.5, 0.001)  # the design curves' radius search
RADIUS_GRID.flags.writeable = False


def _check_roots(coeffs, roots) -> None:
    """Raise ArithmeticError unless every roots[..., j] is a root of the
    polynomial coeffs[...]: one Horner pass evaluates X(alpha) and the scale
    sum_i |c_i||alpha|^i for the whole stack."""
    shape = np.broadcast_shapes(coeffs.shape[:-1] + (1,), roots.shape)
    value = np.broadcast_to(coeffs[..., -1:], shape).copy()
    scale = np.abs(value)
    size = np.abs(roots)
    magnitude = np.abs(coeffs)
    for i in range(coeffs.shape[-1] - 2, -1, -1):
        value *= roots
        value += coeffs[..., i : i + 1]
        scale *= size
        scale += magnitude[..., i : i + 1]
    if np.any(np.abs(value) > ROOT_TOL * scale):
        raise ArithmeticError("given point is not a root of the polynomial")


def deflate(coeffs, root) -> np.ndarray:
    """Divide polynomials by (z - root) via synthetic division.

    coeffs: (..., K+1), root: scalar or (...,).  Returns the (..., K)
    quotient coefficients.  Raises if a Horner evaluation shows `root` is
    not a root of the polynomial within ROOT_TOL (relative to the
    evaluation scale).  The division runs from the leading coefficient down
    for |root| <= 1 and from the constant term up for |root| > 1, the direction
    in which rounding errors shrink by 1/|root| per step instead of growing
    by |root|.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    root = np.asarray(root, dtype=complex)
    _check_roots(coeffs, root[..., None])
    deg = coeffs.shape[-1] - 1
    shape = np.broadcast_shapes(coeffs.shape[:-1], root.shape) + (deg,)
    down = np.empty(shape, dtype=complex)
    down[..., deg - 1] = coeffs[..., deg]
    for i in range(deg - 1, 0, -1):
        down[..., i - 1] = coeffs[..., i] + root * down[..., i]
    outer = np.abs(root) > 1.0
    inverse = np.divide(1.0, root, out=np.ones_like(root), where=outer)
    up = np.empty(shape, dtype=complex)
    up[..., 0] = -coeffs[..., 0] * inverse
    for i in range(1, deg):
        up[..., i] = (up[..., i - 1] - coeffs[..., i]) * inverse
    return np.where(outer[..., None], up, down)


def _grid_log_distance(roots, grid_size: int) -> np.ndarray:
    """sum_n log2|w_n - alpha|^2 over the grid, as log2|alpha^N - 1|^2."""
    outer = np.abs(roots) > 1.0
    inner = np.divide(1.0, roots, out=roots.copy(), where=outer)
    growth = np.log2(np.abs(roots), out=np.zeros(roots.shape), where=outer)
    return 2 * grid_size * growth + np.log2(np.abs(1.0 - inner**grid_size) ** 2)


def reliability_profile(coeffs, roots) -> np.ndarray:
    """Per-zero reliability of a unit-norm polynomial.

    coeffs: (..., K+1), roots: (..., K).  Returns (..., K) scores
    (1/N) * sum_n log2(1 + |H_k(e^{j2pi n/N})|^2), where H_k is the
    polynomial deflated at roots[..., k].  Raises ArithmeticError if any
    root is not a root of its polynomial (the test `deflate` applies).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    roots = np.asarray(roots, dtype=complex)
    lead = np.broadcast_shapes(coeffs.shape[:-1], roots.shape[:-1])
    k = roots.shape[-1]
    coeffs = np.broadcast_to(coeffs, lead + coeffs.shape[-1:]).reshape(-1, coeffs.shape[-1])
    roots = np.broadcast_to(roots, lead + (k,)).reshape(-1, k)
    scores = np.empty(roots.shape)
    step = BLOCK_VALUES // GRID_SIZE
    for start in range(0, len(roots), step):
        rows = slice(start, start + step)
        scores[rows] = _block_profile(coeffs[rows], roots[rows])
    return scores.reshape(lead + (k,))


def _block_profile(coeffs, roots) -> np.ndarray:
    """reliability_profile of a (rows, K+1), (rows, K) block."""
    k = roots.shape[-1]
    _check_roots(coeffs, roots)
    grid = np.exp(2j * np.pi * np.arange(GRID_SIZE) / GRID_SIZE)
    nearest = np.rint(np.angle(roots) * GRID_SIZE / (2 * np.pi)).astype(int) % GRID_SIZE
    on_grid = np.abs(roots - grid[nearest]) < ON_GRID_DISTANCE
    spectral = np.where(on_grid, 0.0, roots)  # placeholder keeps the 0/0 out

    # d[n] once per distinct root, `step` roots at a time; the (row, zero)
    # pairs, sorted by root, gather it `step` at a time (module docstring)
    distinct, inverse = np.unique(spectral, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    sorted_inverse = inverse[order]
    power = oversampled_magnitudes(coeffs, GRID_SIZE) ** 2
    step = BLOCK_VALUES // (3 * GRID_SIZE)
    tables, values, powers = np.empty((3, step, GRID_SIZE))
    sums = np.empty(inverse.size)
    for start in range(0, distinct.size, step):
        block = distinct[start : start + step, None]
        table, scratch = tables[: block.size], powers[: block.size]
        np.square(np.subtract(grid.real, block.real, out=table), out=table)
        table += np.square(np.subtract(grid.imag, block.imag, out=scratch), out=scratch)
        lo, hi = np.searchsorted(sorted_inverse, (start, start + step))
        for first in range(lo, hi, step):
            pairs = order[first : first + step]
            chunk = values[: pairs.size]
            table.take(sorted_inverse[first : first + step] - start, axis=0, out=chunk,
                       mode="clip")
            chunk += power.take(pairs // k, axis=0, out=powers[: pairs.size], mode="clip")
            sums[pairs] = np.log2(chunk, out=chunk).sum(axis=-1)
    log_distance = _grid_log_distance(distinct, GRID_SIZE)[inverse]
    scores = ((sums - log_distance) / GRID_SIZE).reshape(roots.shape)

    rows, cols = np.nonzero(on_grid)
    if rows.size:
        quotients = deflate(coeffs[rows], roots[rows, cols])
        power = oversampled_magnitudes(quotients, GRID_SIZE) ** 2
        scores[rows, cols] = np.mean(np.log2(1.0 + power), axis=-1)
    return scores


def poly_stability(coeffs, roots=None) -> float:
    """Mean per-zero reliability of one unit-norm polynomial.

    If `roots` is omitted they are computed numerically; pass exact roots
    whenever they are known (ill-conditioned polynomials shift badly).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if roots is None:
        roots = coeffs_to_zeros(coeffs)
    return float(np.mean(reliability_profile(coeffs, roots)))


def _message_stabilities(messages, params: ConstellationParams) -> np.ndarray:
    zeros = encode_bits(messages, params)
    coeffs = encode_coeffs(messages, params, energy=1.0)
    return np.mean(reliability_profile(coeffs, zeros), axis=-1)


def _codebook_messages(k: int, samples: int, seed: int) -> np.ndarray:
    """The messages of codebook_stabilities; a seed's shorter draw is the
    first rows of its longer one."""
    if samples is None:
        if k > EXACT_LIMIT:
            raise ValueError(f"exact enumeration of 2^{k} codewords refused; sample instead")
        idx = np.arange(2**k, dtype=np.uint32)
        return (idx[:, None] >> np.arange(k)) & 1
    return np.vstack([np.ones((1, k), dtype=int), np.zeros((1, k), dtype=int),
                      np.random.default_rng(seed).integers(0, 2, (samples, k))])


def codebook_stabilities(params: ConstellationParams, samples: int = None,
                         seed: int = 0) -> np.ndarray:
    """Polynomial stability of each message a codebook score covers
    (`_codebook_messages`): all 2^K in message order for samples=None
    (refused for K > 16), else the EXTREMES, then `samples` messages drawn
    by default_rng(seed)."""
    return _message_stabilities(_codebook_messages(params.num_zeros, samples, seed), params)


def codebook_stability(
    params: ConstellationParams,
    samples: int = None,
    seed: int = 0,
) -> float:
    """Mean polynomial stability over the codebook, or over its `samples`
    seeded random messages (the EXTREMES left out)."""
    scores = codebook_stabilities(params, samples, seed)
    return float(np.mean(scores if samples is None else scores[EXTREMES:]))


def optimize_radius(
    num_zeros: int,
    asymmetry: float,
    radius_grid,
    samples: int = MIN_SAMPLE_COUNT,
    seed: int = 0,
) -> float:
    """Grid argmax of the minimum codebook stability over radii.

    Ties break toward the smaller radius (first maximum of the ascending
    grid).  An argmax on the first or last radius of a grid of more than
    one radius emits a RuntimeWarning naming K, zeta and the edge: the
    stability may still rise beyond it, so the grid did not bracket the
    optimum.
    """
    radius_grid = np.asarray(radius_grid, dtype=float)
    if radius_grid.size == 0:
        raise ValueError("radius grid is empty")
    # the messages every radius is scored on, drawn once
    messages = _codebook_messages(num_zeros, None if num_zeros <= EXACT_LIMIT else samples, seed)
    scores = [
        np.min(_message_stabilities(messages, ConstellationParams(num_zeros, float(r), asymmetry)))
        for r in radius_grid
    ]
    best = int(np.argmax(scores))
    if radius_grid.size > 1 and best in (0, radius_grid.size - 1):
        edge = "first" if best == 0 else "last"
        warnings.warn(
            f"optimize_radius: K={num_zeros}, zeta={asymmetry}: the best radius "
            f"{radius_grid[best]:.6g} is the {edge} radius of the grid "
            f"[{radius_grid[0]:.6g}, {radius_grid[-1]:.6g}], so the optimum may lie "
            "outside it", RuntimeWarning, stacklevel=2)
    return float(radius_grid[best])
