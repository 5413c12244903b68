"""Zero-constellation construction and polynomial codeword machinery.

Bits are encoded as zeros of a polynomial: bit k selects between the two
points of a conjugate-reciprocal pair {rho_k e^{j psi_k}, rho_k^-1 e^{j psi_k}}
with uniformly spaced phases psi_k = 2*pi*k/K.  With asymmetry = 1 every pair
sits on the circles of radius R and 1/R (Huffman BMOCZ); with asymmetry > 1
the pair of the first bit is pushed out to radius zeta*R (jutted BMOCZ),
breaking the rotational symmetry of the constellation.

Coefficient vectors are ordered lowest power first: coeffs[i] multiplies z**i.
Most functions accept stacked inputs, operating on the last axis.

Codewords are synthesized from bits by `encode_coeffs`.  Because the zero
phases are fixed, the log of the codeword at the K+1 roots of unity
w_n = e^{j 2 pi n/(K+1)} is linear in the bits:

    log X(w_n) = base_n + sum_k b_k delta[k, n],
    base_n = sum_k log(w_n - inner_k),
    delta[k, n] = log(w_n - outer_k) - log(w_n - inner_k),

so a stack of messages takes one real GEMM against the (K, 2(K+1)) table
of delta's real and imaginary parts, an exp, and a (K+1)-point FFT.  The
leading coefficient of the monic product is set to exactly 1 before the
rescale, rather than rephasing by the computed one: at R=1.5, K=127 that
coefficient is ~R^-K of the norm, below its rounding.  base and delta are
cached for the last SYNTHESIS_CACHE_SIZE constellations (a bounded cache,
since a radius search visits dozens).  `zeros_to_coeffs` expands arbitrary
zeros by the plain K-step product recurrence; it is the reference for the
identity, not a second synthesis path: no runner calls it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SYNTHESIS_CACHE_SIZE = 3  # constellations whose synthesis tables are kept


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


@functools.lru_cache(maxsize=SYNTHESIS_CACHE_SIZE)
def _synthesis_tables(params: ConstellationParams):
    """(base, delta) of the log-linear synthesis, read-only.

    base: (K+1,) complex, sum_k log(w_n - inner_k).  delta: (K, 2(K+1))
    float, row k the interleaved real and imaginary parts of
    log((w_n - outer_k) / (w_n - inner_k)) (delta up to 2 pi j, which exp
    ignores), so that bits @ delta viewed as complex is
    sum_k b_k delta[k, n].
    """
    k = params.num_zeros
    w = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    inner = w - params.inner_points()[:, None]
    base = np.log(inner).sum(axis=0)
    delta = np.log((w - params.outer_points()[:, None]) / inner).view(float)
    base.flags.writeable = delta.flags.writeable = False
    return base, delta


def encode_coeffs(bits, params: ConstellationParams, energy: float = None) -> np.ndarray:
    """Coefficient vectors of binary messages, zeros_to_coeffs(encode_bits(
    bits, params), energy) computed by the log-linear identity (module
    docstring).

    bits: (..., K) array of 0/1.  Returns (..., K+1) coefficients with
    squared 2-norm `energy` (default K+1) and a real, positive leading
    coefficient.
    """
    bits = np.asarray(bits)
    k = params.num_zeros
    if bits.shape[-1] != k:
        raise ValueError(f"expected {k} bits per message, got {bits.shape[-1]}")
    if energy is None:
        energy = float(k + 1)
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    base, delta = _synthesis_tables(params)
    rows = bits.reshape(-1, k) != 0
    # log X(w_n) for every row, then X(w_n), in one buffer
    values = np.matmul(rows, delta).view(complex)
    values += base
    np.exp(values, out=values)
    coeffs = np.fft.fft(values, norm="forward", out=values)
    # the monic product's leading coefficient is 1; the computed one is
    # lost below rounding of the norm when R^K is large
    coeffs[:, -1] = 1.0
    flat = coeffs.view(float)
    scale = np.sqrt(energy / np.einsum("ij,ij->i", flat, flat))
    coeffs *= scale[:, None]
    return coeffs.reshape(bits.shape[:-1] + (k + 1,))


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

    Reduces to 1/(R^K + R^-K) for a Huffman constellation.
    """
    k, r, zeta = params.num_zeros, params.radius, params.asymmetry
    if zeta == 1.0:
        return 1.0 / (r**k + r**-k)
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


def aacf_closed_form(params: ConstellationParams, energy: float = None) -> np.ndarray:
    """Codebook-common AACF coefficients (lags -K..K) from the constellation
    parameters alone, scaled to a_0 = energy (default K+1)."""
    k = params.num_zeros
    if energy is None:
        energy = float(k + 1)
    outer = _one_sided_factor(k, params.radius, params.asymmetry)
    inner = _one_sided_factor(k, 1.0 / params.radius, 1.0 / params.asymmetry)
    prod = np.convolve(outer, inner)
    return (-aacf_edge_scale(params) * energy * prod).astype(complex)


def power_spectrum(params: ConstellationParams, omega, energy: float = None) -> np.ndarray:
    """Codebook-common power |X(e^{j omega})|^2 of a codeword with the given
    energy (default K+1); nonnegative for all omega."""
    k, r, zeta = params.num_zeros, params.radius, params.asymmetry
    if energy is None:
        energy = float(k + 1)
    omega = np.asarray(omega, dtype=float)
    eta_h = aacf_edge_scale(ConstellationParams(k, r))
    base = energy * (1.0 - 2.0 * eta_h * np.cos(k * omega))
    if zeta == 1.0:
        return base
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
