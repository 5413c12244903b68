"""Capacity-based reliability metric for polynomial zeros.

Dividing a unit-norm polynomial X(z) by one of its root factors (z - alpha_k)
leaves the polynomial formed by the neighbouring zeros, which is read as a
frequency-selective channel.  Its parallel-channel capacity, evaluated on a
uniform unit-circle grid with unit noise power per bin, scores how robustly
that zero survives additive coefficient noise.  Averaging over zeros gives a
per-polynomial score, and averaging over messages a per-codebook score, which
drives the constellation parameter search.

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
`deflate` and the FFT of the quotient.  The (rows, K, N) values are formed
in blocks of at most BLOCK_VALUES values, or one row where a single row is
larger, so the full broadcast over a message stack is never held at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .zeros import ConstellationParams, coeffs_to_zeros, encode_bits, encode_coeffs

DEFAULT_GRID = 1024
EXACT_LIMIT = 16  # full codebook enumeration refused above this many zeros
MIN_SAMPLE_COUNT = 64
ROOT_TOL = 1e-6  # |X(alpha)| relative to sum_i |c_i||alpha|^i
ON_GRID_DISTANCE = 1e-4  # closer roots are scored by deflation
BLOCK_VALUES = 2**17  # grid values formed at once by reliability_profile


def _check_roots(coeffs, roots, tol: float = ROOT_TOL) -> None:
    """Raise ArithmeticError unless every roots[..., j] is a root of the
    polynomial coeffs[...]: one Horner pass evaluates X(alpha) and the scale
    sum_i |c_i||alpha|^i for the whole stack."""
    value = coeffs[..., -1:]
    scale = np.abs(value)
    size = np.abs(roots)
    for i in range(coeffs.shape[-1] - 2, -1, -1):
        value = coeffs[..., i : i + 1] + roots * value
        scale = np.abs(coeffs[..., i : i + 1]) + size * scale
    if np.any(np.abs(value) > tol * scale):
        raise ArithmeticError("given point is not a root of the polynomial")


def deflate(coeffs, root, tol: float = ROOT_TOL) -> np.ndarray:
    """Divide polynomials by (z - root) via synthetic division.

    coeffs: (..., K+1), root: scalar or (...,).  Returns the (..., K)
    quotient coefficients.  Raises if a Horner evaluation shows `root` is
    not a root of the polynomial within `tol` (relative to the evaluation
    scale).  The division runs from the leading coefficient down for
    |root| <= 1 and from the constant term up for |root| > 1, the direction
    in which rounding errors shrink by 1/|root| per step instead of growing
    by |root|.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    root = np.asarray(root, dtype=complex)
    _check_roots(coeffs, root[..., None], tol)
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


def _grid_power(coeffs, grid_size: int) -> np.ndarray:
    """|P(e^{j 2 pi n/N})|^2 on the uniform grid, via zero-padded transform."""
    evals = grid_size * np.fft.ifft(coeffs, n=grid_size, axis=-1)
    return np.abs(evals) ** 2


def _grid_log_distance(roots, grid_size: int) -> np.ndarray:
    """sum_n log2|w_n - alpha|^2 over the grid, as log2|alpha^N - 1|^2."""
    outer = np.abs(roots) > 1.0
    inner = np.divide(1.0, roots, out=roots.copy(), where=outer)
    growth = np.log2(np.abs(roots), out=np.zeros(roots.shape), where=outer)
    return 2 * grid_size * growth + np.log2(np.abs(1.0 - inner**grid_size) ** 2)


def reliability_profile(coeffs, roots, grid_size: int = DEFAULT_GRID) -> np.ndarray:
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
    _check_roots(coeffs, roots)

    grid = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    nearest = np.rint(np.angle(roots) * grid_size / (2 * np.pi)).astype(int) % grid_size
    on_grid = np.abs(roots - grid[nearest]) < ON_GRID_DISTANCE
    spectral = np.where(on_grid, 0.0, roots)  # placeholder keeps the 0/0 out

    power = _grid_power(coeffs, grid_size)
    sums = np.empty(roots.shape)
    step = max(1, BLOCK_VALUES // (k * grid_size))
    for start in range(0, len(roots), step):
        block = spectral[start : start + step, :, None]
        values = (grid.real - block.real) ** 2
        values += (grid.imag - block.imag) ** 2
        values += power[start : start + step, None, :]
        sums[start : start + step] = np.log2(values).sum(axis=-1)
    scores = (sums - _grid_log_distance(spectral, grid_size)) / grid_size

    rows, cols = np.nonzero(on_grid)
    if rows.size:
        quotients = deflate(coeffs[rows], roots[rows, cols])
        scores[rows, cols] = np.mean(np.log2(1.0 + _grid_power(quotients, grid_size)), axis=-1)
    return scores.reshape(lead + (k,))


def poly_stability(coeffs, roots=None, grid_size: int = DEFAULT_GRID) -> float:
    """Mean per-zero reliability of one unit-norm polynomial.

    If `roots` is omitted they are computed numerically; pass exact roots
    whenever they are known (ill-conditioned polynomials shift badly).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if roots is None:
        roots = coeffs_to_zeros(coeffs)
    return float(np.mean(reliability_profile(coeffs, roots, grid_size)))


def _message_stabilities(messages, params: ConstellationParams, grid_size: int) -> np.ndarray:
    zeros = encode_bits(messages, params)
    coeffs = encode_coeffs(messages, params, energy=1.0)
    return np.mean(reliability_profile(coeffs, zeros, grid_size), axis=-1)


def _all_messages(num_zeros: int) -> np.ndarray:
    idx = np.arange(2**num_zeros, dtype=np.uint32)
    return (idx[:, None] >> np.arange(num_zeros)) & 1


def codebook_stability(
    params: ConstellationParams,
    grid_size: int = DEFAULT_GRID,
    samples: int = None,
    seed: int = 0,
) -> float:
    """Mean polynomial stability over the codebook.

    With samples=None the full 2^K codebook is enumerated (refused for
    K > 16); otherwise a seeded random subset of that many messages is used.
    """
    k = params.num_zeros
    if samples is None:
        if k > EXACT_LIMIT:
            raise ValueError(
                f"exact enumeration of 2^{k} codewords refused; pass samples="
            )
        messages = _all_messages(k)
    else:
        messages = np.random.default_rng(seed).integers(0, 2, (samples, k))
    return float(np.mean(_message_stabilities(messages, params, grid_size)))


def min_codebook_stability(
    params: ConstellationParams,
    grid_size: int = DEFAULT_GRID,
    samples: int = MIN_SAMPLE_COUNT,
    seed: int = 0,
    exact: bool = None,
) -> float:
    """Minimum polynomial stability over the codebook.

    Exact for K <= 16 by default.  Otherwise the all-outside and all-inside
    codewords (the consistent extremes) are checked alongside a seeded
    random sample, and the smallest value found is returned.  Pass `exact`
    to force either path.
    """
    k = params.num_zeros
    if exact is None:
        exact = k <= EXACT_LIMIT
    if exact:
        if k > EXACT_LIMIT:
            raise ValueError(f"exact enumeration of 2^{k} codewords refused")
        messages = _all_messages(k)
    else:
        rng = np.random.default_rng(seed)
        messages = np.vstack(
            [np.ones((1, k), dtype=int), np.zeros((1, k), dtype=int),
             rng.integers(0, 2, (samples, k))]
        )
    return float(np.min(_message_stabilities(messages, params, grid_size)))


def optimize_radius(
    num_zeros: int,
    asymmetry: float,
    radius_grid,
    grid_size: int = DEFAULT_GRID,
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
    scores = [
        min_codebook_stability(
            ConstellationParams(num_zeros, float(r), asymmetry),
            grid_size=grid_size, samples=samples, seed=seed,
        )
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


def default_radius_grid(num_zeros: int) -> np.ndarray:
    """Search grid for the radius: fine 1e-3 steps for long codewords,
    coarser and wider for short ones.

    For K < 32 the minimum codebook stability can fall monotonically in R
    (at K=8: 1.2017 at R=1.005, 0.8958 at R=1.3), so optimize_radius lands
    on the grid's lower edge, 1.005, and warns that the grid did not
    bracket an optimum."""
    if num_zeros >= 32:
        return np.arange(1.001, 1.5, 0.001)
    return np.arange(1.005, 2.0, 0.005)


@dataclass(frozen=True)
class StabilityReport:
    """Per-zero reliabilities of one codeword with their mean."""

    per_zero: np.ndarray
    poly: float
    params: ConstellationParams


def stability_report(bits, params: ConstellationParams,
                     grid_size: int = DEFAULT_GRID) -> StabilityReport:
    """Reliability profile of the codeword encoding `bits`."""
    zeros = encode_bits(np.asarray(bits), params)
    coeffs = encode_coeffs(bits, params, energy=1.0)
    per_zero = reliability_profile(coeffs, zeros, grid_size)
    return StabilityReport(per_zero=per_zero, poly=float(np.mean(per_zero)),
                           params=params)


@dataclass(frozen=True)
class DesignCurvePoint:
    """One row of the asymmetry/stability/peakiness trade-off curve."""

    asymmetry: float
    best_radius: float
    min_stability: float
    template_papr_db: float


def asymmetry_sweep(
    num_zeros: int,
    asymmetry_grid,
    radius_grid,
    grid_size: int = DEFAULT_GRID,
    samples: int = MIN_SAMPLE_COUNT,
    seed: int = 0,
) -> list[DesignCurvePoint]:
    """Sweep the asymmetry factor, optimizing the radius at each point and
    recording the achieved minimum stability and template peakiness."""
    from .phy import papr_fm  # local import: phy depends on zeros only

    asymmetry_grid = np.asarray(asymmetry_grid, dtype=float)
    if asymmetry_grid.size == 0:
        raise ValueError("asymmetry grid is empty")
    points = []
    for zeta in asymmetry_grid:
        r_star = optimize_radius(
            num_zeros, float(zeta), radius_grid,
            grid_size=grid_size, samples=samples, seed=seed,
        )
        params = ConstellationParams(num_zeros, r_star, float(zeta))
        stab = min_codebook_stability(
            params, grid_size=grid_size, samples=samples, seed=seed
        )
        papr_db, _ = papr_fm(params)
        points.append(DesignCurvePoint(float(zeta), r_star, stab, papr_db))
    return points
