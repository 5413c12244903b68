"""Zero-constellation construction and polynomial codeword machinery.

Bits are encoded as zeros of a polynomial: bit k selects between the two
points of a conjugate-reciprocal pair {rho_k e^{j psi_k}, rho_k^-1 e^{j psi_k}}
with uniformly spaced phases psi_k = 2*pi*k/K.  With asymmetry = 1 every pair
sits on the circles of radius R and 1/R (Huffman BMOCZ); with asymmetry > 1
the pair of the first bit is pushed out to radius zeta*R (jutted BMOCZ),
breaking the rotational symmetry of the constellation.

Coefficient vectors are ordered lowest power first: coeffs[i] multiplies z**i.
Most functions accept stacked inputs, operating on the last axis.

Codewords are synthesized from bits by `encode_coeffs` as the product
X(w_n) = prod_k (w_n - alpha_k) on the K+1 roots of unity
w_n = e^{j 2 pi n/(K+1)}, then a (K+1)-point FFT.  The zero phases are
fixed, so the bits are split into groups of g consecutive bits, and each
group j has a cached table with one row per bit pattern b,

    T_j[b, n] = prod_{k in group j} (w_n - point_k(bit_k of b)),

built by doubling: one zero at a time, T <- [T (w - inner_k); T (w - outer_k)].
A message stack becomes one table index per group, and X(w_n) is the
product of the gathered rows, formed SYNTHESIS_BLOCK_ROWS rows at a time.
g is the largest size up to 8 whose tables fit SYNTHESIS_TABLE_VALUES grid
values (8 at K=32, 6 at K=64, 3 at K=128, 2 past K=156).  The leading coefficient of the monic product is set to
exactly 1 before the rescale, rather than rephasing by the computed one:
at R=1.5, K=127 that coefficient is ~R^-K of the norm, below its rounding.
The tables are cached for the last SYNTHESIS_CACHE_SIZE constellations (a
bounded cache, since a radius search visits dozens).  `zeros_to_coeffs`
expands arbitrary zeros by the plain K-step product recurrence; it is the
reference for the identity, not a second synthesis path: no runner calls
it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .buffers import checked_out

SYNTHESIS_CACHE_SIZE = 3  # constellations whose synthesis tables are kept
SYNTHESIS_TABLE_VALUES = 2**16  # budget of one constellation's group tables
SYNTHESIS_BLOCK_ROWS = 256  # rows multiplied together while they stay in cache


def default_radius(num_zeros: int) -> float:
    """Conventional Huffman BMOCZ radius sqrt(1 + sin(pi/K))."""
    return float(np.sqrt(1.0 + np.sin(np.pi / num_zeros)))


@dataclass(frozen=True)
class ConstellationParams:
    """Zero constellation definition: K zero pairs on radius `radius`,
    with the pair of bit 0 jutted out by `asymmetry` (1.0 = Huffman)."""

    num_zeros: int
    radius: float
    asymmetry: float = 1.0

    def __post_init__(self):
        if self.num_zeros < 2:
            raise ValueError(f"need at least 2 zeros, got {self.num_zeros}")
        if not self.radius > 1.0:
            raise ValueError(f"radius must exceed 1, got {self.radius}")
        if not self.asymmetry >= 1.0:
            raise ValueError(f"asymmetry must be >= 1, got {self.asymmetry}")

    @property
    def is_huffman(self) -> bool:
        return self.asymmetry == 1.0

    @property
    def base_angle(self) -> float:
        """Angular spacing 2*pi/K between adjacent zero pairs."""
        return 2.0 * np.pi / self.num_zeros

    @property
    def zero_phases(self) -> np.ndarray:
        return self.base_angle * np.arange(self.num_zeros)

    @property
    def zero_radii(self) -> np.ndarray:
        """Outer radius of each pair: asymmetry*radius for pair 0, radius else."""
        rho = np.full(self.num_zeros, self.radius)
        rho[0] = self.asymmetry * self.radius
        return rho

    def outer_points(self) -> np.ndarray:
        """The K bit-1 constellation points rho_k e^{j psi_k}."""
        return self.zero_radii * np.exp(1j * self.zero_phases)

    def inner_points(self) -> np.ndarray:
        """The K bit-0 constellation points rho_k^-1 e^{j psi_k}."""
        return np.exp(1j * self.zero_phases) / self.zero_radii


def encode_bits(bits, params: ConstellationParams) -> np.ndarray:
    """Map binary messages to zero patterns.

    bits: (..., K) array of 0/1.  Returns (..., K) complex zeros where
    zero k is outer_points()[k] for bit 1 and inner_points()[k] for bit 0.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] != params.num_zeros:
        raise ValueError(
            f"expected {params.num_zeros} bits per message, got {bits.shape[-1]}"
        )
    return np.where(bits != 0, params.outer_points(), params.inner_points())


def _low_discrepancy_order(n: int) -> np.ndarray:
    """Indices 0..n-1 sorted by base-2 radical inverse.

    Multiplying root factors in this order keeps every partial product's
    roots spread around the circle, so its elementary symmetric functions
    stay small.  Index order walks an arc instead and its intermediates
    grow like binomial(i, i/2), wiping out the middle coefficients past
    K ~ 60.
    """
    bits = max(1, int(np.ceil(np.log2(n))))
    keys = np.zeros(n)
    k = np.arange(n)
    weight = 0.5
    for _ in range(bits + 1):
        keys += (k & 1) * weight
        k >>= 1
        weight *= 0.5
    return np.argsort(keys, kind="stable")


def zeros_to_coeffs(zeros, energy: float = None) -> np.ndarray:
    """Expand zero patterns into coefficient vectors of fixed energy.

    zeros: (..., K) complex.  Returns (..., K+1) coefficients of
    prod_k (z - zeros[k]), rescaled so the squared 2-norm equals `energy`
    (default K+1) with a real, positive leading coefficient.  The plain
    product recurrence, the reference `encode_coeffs` is checked against;
    not tuned for speed.
    """
    zeros = np.asarray(zeros, dtype=complex)
    k = zeros.shape[-1]
    if energy is None:
        energy = float(k + 1)
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    coeffs = np.zeros(zeros.shape[:-1] + (k + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    # multiply by (z - alpha): the current coefficients shifted up one
    # power, minus alpha times the current ones
    for i in _low_discrepancy_order(k):
        shifted = np.roll(coeffs, 1, axis=-1)
        shifted[..., 0] = 0.0
        coeffs = shifted - zeros[..., i, None] * coeffs
    return coeffs * (np.sqrt(energy) / np.linalg.norm(coeffs, axis=-1, keepdims=True))


def _group_size(num_zeros: int) -> int:
    """Bits per synthesis group: the largest g <= 8 whose tables, 2^g rows
    per full group of g bits and 2^r for a last group of r = K mod g, hold
    at most SYNTHESIS_TABLE_VALUES grid values.  g = 2 when none does
    (K > 180): its 2K(K+1) values are as few as any g can take."""
    k = num_zeros
    for g in range(8, 2, -1):
        full, rest = divmod(k, g)
        if (full * 2**g + (2**rest if rest else 0)) * (k + 1) <= SYNTHESIS_TABLE_VALUES:
            return g
    return 2


@functools.lru_cache(maxsize=SYNTHESIS_CACHE_SIZE)
def _synthesis_tables(params: ConstellationParams) -> tuple:
    """The group tables of the product synthesis, read-only: one
    (2^g, K+1) table per group of g consecutive bits (2^r rows for a last
    group of r < g), row b holding X_j(w_n) of the group's bit pattern b,
    first bit least significant.  Built by doubling, one zero at a time."""
    k = params.num_zeros
    g = _group_size(k)
    grid = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    inner, outer = params.inner_points(), params.outer_points()
    tables = []
    for first in range(0, k, g):
        table = np.ones((1, k + 1), dtype=complex)
        for i in range(first, min(first + g, k)):
            table = np.concatenate([table * (grid - inner[i]), table * (grid - outer[i])])
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def encode_coeffs(bits, params: ConstellationParams, energy: float = None,
                  out: np.ndarray = None) -> np.ndarray:
    """Coefficient vectors of binary messages, zeros_to_coeffs(encode_bits(
    bits, params), energy) computed as a product of group tables (module
    docstring).

    bits: (..., K) array, nonzero meaning 1.  Returns (..., K+1)
    coefficients with squared 2-norm `energy` (default K+1) and a real,
    positive leading coefficient.  Each row's numbers do not depend on the
    other rows of the stack.  out: None, or a writeable, C-contiguous
    complex128 array of the (..., K+1) result shape that the coefficients
    are synthesized in, and which is returned (any other array raises
    ValueError); the numbers are the same either way.
    """
    bits = np.asarray(bits)
    k = params.num_zeros
    if bits.shape[-1] != k:
        raise ValueError(f"expected {k} bits per message, got {bits.shape[-1]}")
    if energy is None:
        energy = float(k + 1)
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    tables = _synthesis_tables(params)
    g = _group_size(k)
    messages = bits.reshape(-1, k)
    n = len(messages)
    # each group's bit pattern as a table row index, one index row per group
    padded = np.zeros((n, len(tables) * g), dtype=bool)
    np.not_equal(messages, 0, out=padded[:, :k])
    index = np.packbits(padded.reshape(n, len(tables), g), axis=-1, bitorder="little")
    index = index.reshape(n, len(tables)).T.copy()
    del padded
    # X(w_n) as the product of the group factors, a block of rows at a
    # time; every index is in range, and take's "clip" mode skips the
    # buffered bounds check of "raise"
    shape = bits.shape[:-1] + (k + 1,)
    result = np.empty(shape, dtype=complex) if out is None else checked_out(out, shape)
    values = result.reshape(n, k + 1)
    factor = np.empty((min(n, SYNTHESIS_BLOCK_ROWS), k + 1), dtype=complex)
    for start in range(0, n, SYNTHESIS_BLOCK_ROWS):
        rows = slice(start, start + SYNTHESIS_BLOCK_ROWS)
        block = values[rows]
        np.take(tables[0], index[0, rows], axis=0, out=block, mode="clip")
        for table, column in zip(tables[1:], index[1:]):
            np.take(table, column[rows], axis=0, out=factor[: len(block)], mode="clip")
            block *= factor[: len(block)]
    # freed before the FFT and the rescale, which lowers the call's peak
    del factor
    coeffs = np.fft.fft(values, norm="forward", out=values)
    # the monic product's leading coefficient is 1; the computed one is
    # lost below rounding of the norm when R^K is large
    coeffs[:, -1] = 1.0
    flat = coeffs.view(float)
    scale = np.sqrt(energy / np.einsum("ij,ij->i", flat, flat))
    # scaled as floats: a complex-by-real product would buffer a complex cast
    flat *= scale[:, None]
    return result


def coeffs_to_zeros(coeffs) -> np.ndarray:
    """Roots of a single coefficient vector via the companion-matrix
    eigenvalue method.  Diagnostic/test plumbing, not on the decode path."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1:
        raise ValueError("coeffs_to_zeros takes a single coefficient vector")
    # guard only a vanishing leading coefficient: a tiny but exact value is
    # legitimate (unit-norm Wilkinson has |x_K| ~ 4e-20 and valid roots)
    if abs(coeffs[-1]) == 0.0 or abs(coeffs[-1]) < 1e-250 * np.linalg.norm(coeffs):
        raise ArithmeticError("leading coefficient is numerically zero")
    return np.roots(coeffs[::-1])


def aacf(coeffs) -> np.ndarray:
    """Aperiodic autocorrelation a_l = sum_i conj(x_i) x_{i+l} for
    l = -K..K, returned lowest lag first (length 2K+1)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    k = coeffs.shape[-1] - 1
    out = np.zeros(coeffs.shape[:-1] + (2 * k + 1,), dtype=complex)
    for lag in range(k + 1):
        val = np.sum(np.conj(coeffs[..., : k + 1 - lag]) * coeffs[..., lag:], axis=-1)
        out[..., k + lag] = val
        out[..., k - lag] = np.conj(val)
    return out


def aacf_edge_scale(params: ConstellationParams) -> float:
    """Closed-form scale of the codebook AACF, i.e. -a_K / (K+1).

    Reduces to 1/(R^K + R^-K) for a Huffman constellation, bit for bit:
    at zeta = 1 the middle term is exactly 0.
    """
    k, r, zeta = params.num_zeros, params.radius, params.asymmetry
    middle = (1.0 - zeta) * (1.0 - 1.0 / zeta)
    middle *= (r ** (k - 1) - r ** -(k - 1)) / (r - 1.0 / r)
    return 1.0 / (zeta * r**k + r**-k / zeta - middle)


def _one_sided_factor(num_zeros: int, radius: float, zeta: float) -> np.ndarray:
    """Coefficients of (z^K - R^K)/(z - R) * (z - zeta*R), lowest first."""
    k = num_zeros
    c = np.empty(k + 1)
    c[0] = -zeta * radius**k
    for i in range(1, k):
        c[i] = (1.0 - zeta) * radius ** (k - i)
    c[k] = 1.0
    return c


def aacf_closed_form(params: ConstellationParams) -> np.ndarray:
    """Codebook-common AACF coefficients (lags -K..K) from the constellation
    parameters alone, scaled to a_0 = K+1, the energy of every codeword."""
    k = params.num_zeros
    outer = _one_sided_factor(k, params.radius, params.asymmetry)
    inner = _one_sided_factor(k, 1.0 / params.radius, 1.0 / params.asymmetry)
    prod = np.convolve(outer, inner)
    return (-aacf_edge_scale(params) * (k + 1.0) * prod).astype(complex)


def power_spectrum(params: ConstellationParams, omega) -> np.ndarray:
    """Codebook-common power |X(e^{j omega})|^2 of a codeword, of energy K+1
    as every codeword; nonnegative for all omega.  At zeta = 1 the ratio
    and the scale factor are exactly 1, so a Huffman power is `base`."""
    k, r, zeta = params.num_zeros, params.radius, params.asymmetry
    omega = np.asarray(omega, dtype=float)
    eta_h = aacf_edge_scale(ConstellationParams(k, r))
    base = (k + 1.0) * (1.0 - 2.0 * eta_h * np.cos(k * omega))
    a = zeta * r + 1.0 / (zeta * r)
    b = r + 1.0 / r
    ratio = (2.0 * np.cos(omega) - a) / (2.0 * np.cos(omega) - b)
    return (aacf_edge_scale(params) / eta_h) * ratio * base


@dataclass(frozen=True)
class Template:
    """Codebook-common magnitude |X(e^{j omega})| sampled on a uniform grid.

    Identical for every codeword of the constellation, hence known at the
    receiver and usable as a matched shape for rotation estimation.
    """

    samples: np.ndarray

    @property
    def size(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def conj_spectrum(self) -> np.ndarray:
        """conj(rfft(samples)): the template side of the rotation
        estimator's correlation, computed once per template; read-only."""
        spectrum = np.conj(np.fft.rfft(self.samples))
        spectrum.flags.writeable = False
        return spectrum


def make_template(params: ConstellationParams, n_samples: int) -> Template:
    """Sample the codebook magnitude at omega = 2*pi*n/N for n in [N].

    Requires N >= 2K+2 so the underlying band-limited power spectrum is
    fully resolved.
    """
    if n_samples < 2 * params.num_zeros + 2:
        raise ValueError(
            f"need at least {2 * params.num_zeros + 2} samples, got {n_samples}"
        )
    omega = 2.0 * np.pi * np.arange(n_samples) / n_samples
    spec = power_spectrum(params, omega)
    return Template(samples=np.sqrt(np.maximum(spec, 0.0)))
