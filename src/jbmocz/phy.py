"""OFDM framing and front-end processing.

Resource mapping follows two layouts: frequency mapping (FM) places one
codeword per OFDM symbol across K+1 subcarriers, so the time-domain symbol
is the codeword polynomial evaluated along the unit circle; time mapping
(TM) places one codeword per subcarrier across K+1 symbols, which trades
the flat per-symbol envelope for robustness to frequency selectivity.

Time-domain convention: symbol body sample n equals
sum_l d_l e^{j 2 pi l n / N}; data occupies subcarriers 0..S-1 of the
N-point transform with no DC null or centering.  The demodulator divides
by N so a modulate/demodulate round trip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dizet import dizet_hard
from .zeros import (ConstellationParams, _edge_scale_huffman, aacf_edge_scale, encode_coeffs,
                    power_spectrum)


@dataclass(frozen=True)
class OfdmConfig:
    idft_size: int
    cp_len: int
    sample_rate: float
    subcarriers: int
    symbols: int

    def __post_init__(self):
        if self.subcarriers > self.idft_size:
            raise ValueError("more active subcarriers than IDFT bins")
        if self.cp_len < 0:
            raise ValueError("negative CP length")
        if self.idft_size % 2:
            raise ValueError("IDFT size must be even for the repeated sync symbol")

    @property
    def symbol_len(self) -> int:
        return self.idft_size + self.cp_len

    @property
    def stream_len(self) -> int:
        return self.symbols * self.symbol_len

    @property
    def subcarrier_spacing(self) -> float:
        return self.sample_rate / self.idft_size


def map_fm(codewords) -> np.ndarray:
    """Frequency mapping: codeword p fills column p of a (K+1, P) grid."""
    codewords = np.atleast_2d(np.asarray(codewords, dtype=complex))
    return codewords.T.copy()


def demap_fm(grid) -> np.ndarray:
    return np.asarray(grid, dtype=complex).T.copy()


def ofdm_modulate(grid, config: OfdmConfig) -> np.ndarray:
    """Synthesize the sample stream for an (S, M) resource grid: per symbol,
    an N-point inverse transform of the zero-padded column with a cyclic
    prefix prepended."""
    grid = np.asarray(grid, dtype=complex)
    if grid.shape != (config.subcarriers, config.symbols):
        raise ValueError(
            f"grid shape {grid.shape} does not match config "
            f"({config.subcarriers}, {config.symbols})"
        )
    bodies = config.idft_size * np.fft.ifft(grid, n=config.idft_size, axis=0)
    with_cp = np.vstack([bodies[-config.cp_len :] if config.cp_len else bodies[:0], bodies])
    return with_cp.T.reshape(-1)


def ofdm_demodulate(samples, config: OfdmConfig) -> np.ndarray:
    """Strip prefixes, transform each body, return the (S, M) grid."""
    samples = np.asarray(samples, dtype=complex)
    if len(samples) != config.stream_len:
        raise ValueError(
            f"stream of {len(samples)} samples does not hold "
            f"{config.symbols} symbols of {config.symbol_len}"
        )
    sym = samples.reshape(config.symbols, config.symbol_len)
    bodies = sym[:, config.cp_len :]
    cells = np.fft.fft(bodies, axis=1) / config.idft_size
    return cells[:, : config.subcarriers].T.copy()


def build_sync_symbol(header_bits, sync_params: ConstellationParams,
                      num_subcarriers: int) -> np.ndarray:
    """Grid column for the repeated synchronization symbol.

    A Huffman codeword over floor(K/2) zeros lands on the even subcarriers,
    odd subcarriers stay empty, so the time-domain body repeats after
    N/2 samples and Schmidl-Cox detection applies.
    """
    header_bits = np.asarray(header_bits)
    if header_bits.shape[-1] != sync_params.num_zeros:
        raise ValueError(
            f"header of {header_bits.shape[-1]} bits does not match "
            f"{sync_params.num_zeros} sync zeros"
        )
    coeffs = encode_coeffs(header_bits, sync_params)
    if 2 * len(coeffs) - 1 > num_subcarriers:
        raise ValueError("sync codeword does not fit on the even subcarriers")
    column = np.zeros(num_subcarriers, dtype=complex)
    column[: 2 * len(coeffs) : 2] = coeffs
    return column


@dataclass(frozen=True)
class SyncResult:
    """Coarse timing/CFO estimate: tau_hat indexes the first body sample of
    the detected sync symbol."""

    tau_hat: int
    cfo_hat: float
    gamma_max: float


def sync_search(samples, config: OfdmConfig, threshold: float = 0.99) -> SyncResult:
    """Schmidl-Cox search for the half-repeated sync symbol.

    Gamma_tau = (|U_tau| / V_tau)^2, with U the first-half/second-half lag
    correlation and V the second-half energy (the squared normalization of
    the original detector, whose sharper roll-off keeps the lambda-band
    inside the cyclic-prefix plateau).  The timing estimate is the largest
    offset whose metric stays within `threshold` of the peak (the far edge
    of the plateau); the CFO follows from the phase of U there and is
    unambiguous for |cfo| below the subcarrier spacing.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    samples = np.asarray(samples, dtype=complex)
    half = config.idft_size // 2
    n_cand = len(samples) - config.idft_size + 1
    if n_cand < 1:
        raise ValueError("stream shorter than one OFDM symbol")
    first = samples[: n_cand + half - 1]
    second = samples[half : n_cand + config.idft_size - 1]
    prod = first * np.conj(second)
    kernel = np.ones(half)
    u = np.convolve(prod, kernel, mode="valid")[:n_cand]
    v = np.convolve(np.abs(second) ** 2, kernel, mode="valid")[:n_cand]
    valid = v > 0
    gamma = np.zeros(n_cand)
    gamma[valid] = (np.abs(u[valid]) / v[valid]) ** 2
    gamma_max = float(gamma.max())
    candidates = np.nonzero(gamma >= threshold * gamma_max)[0]
    tau = int(candidates.max())
    cfo = -np.angle(u[tau]) / (2.0 * np.pi * half) * config.sample_rate
    return SyncResult(tau_hat=tau, cfo_hat=float(cfo), gamma_max=gamma_max)


def correct_cfo(samples, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """Counter-rotate a stream by the estimated carrier frequency offset."""
    samples = np.asarray(samples, dtype=complex)
    n = np.arange(len(samples))
    return samples * np.exp(-2j * np.pi * cfo_hz * n / sample_rate)


def papr_fm_huffman(params: ConstellationParams) -> float:
    """Closed-form FM symbol PAPR 1 + 2 eta for a Huffman constellation,
    in dB; always below 10 log10(2)."""
    if not params.is_huffman:
        raise ValueError("closed form requires a Huffman constellation")
    return 10.0 * np.log10(1.0 + 2.0 * aacf_edge_scale(params))


def papr_peak_at_dc(params: ConstellationParams) -> bool:
    """Sufficient condition for the jutted FM power spectrum to peak at
    omega = 0, which makes the closed-form PAPR expression exact."""
    k, r, zeta = params.num_zeros, params.radius, params.asymmetry
    if not (zeta > 1.0 and r > 1.0 and k >= 2):
        raise ValueError("condition is posed for asymmetry > 1, radius > 1, K >= 2")
    eta_h = _edge_scale_huffman(k, r)
    a = zeta * r + 1.0 / (zeta * r)
    b = r + 1.0 / r
    c = 2.0 * np.cos(np.pi / k)
    bound = (a - b) * (1.0 - 2.0 * eta_h) / (eta_h * (a - c) * (b - c))
    return bool(k * k < bound)


def papr_fm(params: ConstellationParams, grid_size: int = 8192) -> tuple[float, str]:
    """FM symbol PAPR in dB plus the method used.

    Huffman constellations and jutted ones whose spectrum provably peaks at
    DC use the closed forms; otherwise the peak is located numerically on a
    dense frequency grid (grid_size >= 4096).
    """
    if params.is_huffman:
        return papr_fm_huffman(params), "closed_form"
    if grid_size < 4096:
        raise ValueError(f"grid too coarse ({grid_size}), need >= 4096")
    if papr_peak_at_dc(params):
        k, r, zeta = params.num_zeros, params.radius, params.asymmetry
        eta_h = _edge_scale_huffman(k, r)
        a = zeta * r + 1.0 / (zeta * r)
        b = r + 1.0 / r
        papr = (aacf_edge_scale(params) / eta_h) * (a - 2.0) / (b - 2.0) * (1.0 - 2.0 * eta_h)
        return 10.0 * np.log10(papr), "closed_form"
    omega = 2.0 * np.pi * np.arange(grid_size) / grid_size
    peak = power_spectrum(params, omega).max()
    return 10.0 * np.log10(peak / (params.num_zeros + 1)), "numeric"


def measured_papr_db(samples) -> float:
    """Sample PAPR max|s|^2 / mean|s|^2 of a waveform segment, in dB."""
    power = np.abs(np.asarray(samples)) ** 2
    return 10.0 * np.log10(power.max() / power.mean())


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-subcarrier complex gains with the matching MMSE equalizer; for
    stacked packets, gains and equalizer are (..., S) and noise_var (...)."""

    gains: np.ndarray
    noise_var: float | np.ndarray
    equalizer: np.ndarray


def estimate_noise_var(null_cells):
    """Noise power per resource cell, averaged over null-subcarrier cells.

    null_cells: the cells of one packet, of any shape, or (..., G, T) for
    stacked packets, averaged over their last two axes to one value per
    packet.
    """
    null_cells = np.asarray(null_cells)
    if null_cells.size == 0:
        raise ValueError("no null cells supplied")
    per_packet = null_cells.reshape(null_cells.shape[:-2] + (-1,))
    return np.mean(np.abs(per_packet) ** 2, axis=-1)


def estimate_channel_blind(received_tm_grid, params_tm: ConstellationParams,
                           noise_var) -> ChannelEstimate:
    """Decision-directed channel estimate from a TM preamble.

    Each subcarrier's K_tm+1 received coefficients are hard-decoded,
    re-encoded, and least-squares fitted to a single complex gain; the MMSE
    equalizer assumes unit re-encoded symbol power.  received_tm_grid is
    (S, K_tm + 1), or (..., S, K_tm + 1) for stacked packets with one
    noise_var per packet.
    """
    grid = np.asarray(received_tm_grid, dtype=complex)
    bits = dizet_hard(grid, params_tm)
    reencoded = encode_coeffs(bits, params_tm)
    gains = np.sum(np.conj(reencoded) * grid, axis=-1) / np.sum(
        np.abs(reencoded) ** 2, axis=-1
    )
    equalizer = np.conj(gains) / (np.abs(gains) ** 2 + np.expand_dims(noise_var, -1))
    return ChannelEstimate(gains=gains, noise_var=noise_var, equalizer=equalizer)


def write_iq(path, samples) -> None:
    """Interleaved little-endian float32 I/Q pairs."""
    samples = np.asarray(samples, dtype=np.complex128)
    flat = np.empty(2 * len(samples), dtype="<f4")
    flat[0::2] = samples.real
    flat[1::2] = samples.imag
    flat.tofile(path)


def read_iq(path) -> np.ndarray:
    flat = np.fromfile(path, dtype="<f4")
    if len(flat) % 2:
        raise ValueError("I/Q file holds an odd number of float32 values")
    return (flat[0::2] + 1j * flat[1::2]).astype(np.complex128)
