"""Impairment simulation: sequence-level convolutive channels and the
sample-level OFDM channel with timing and frequency offsets.

`draw_cir` and `complex_noise` take a shape, so one call draws a whole
stack of channel responses or noise.  `ImpairmentSpec` holds only the
sample-level impairments of `apply_ofdm_channel`; the zero rotation of the
sequence-level links is a key of their experiment configs.

All randomness flows through explicit numpy Generators so trials are
reproducible and can be parallelized from independently derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


PDP_PROFILES = ("uniform", "exp")  # the power-delay profiles draw_cir implements
EXP_PDP_DECAY = 3.0  # the "exp" profile's decay length, in taps


def _as_shape(shape) -> tuple:
    try:
        return tuple(shape)
    except TypeError:  # an int
        return (shape,)


def draw_cir(shape, rng: np.random.Generator, profile: str = "uniform") -> np.ndarray:
    """Draw channel impulse responses of complex Gaussian taps.

    shape: the number of taps, or a shape whose last axis is the taps (a
    stack of responses).  One normal draw of `shape` gives the real parts,
    a second the imaginary parts.
    profile "uniform": every tap has variance 1/num_taps.
    profile "exp": variances fall as exp(-l/EXP_PDP_DECAY), normalized to unit
    total power (the stand-in for standardized indoor multipath models).
    """
    shape = _as_shape(shape)
    num_taps = shape[-1] if shape else 0
    if num_taps < 1:
        raise ValueError(f"need at least one tap, got shape {shape}")
    if profile == "uniform":
        power = np.full(num_taps, 1.0 / num_taps)
    elif profile == "exp":
        power = np.exp(-np.arange(num_taps) / EXP_PDP_DECAY)
        power /= power.sum()
    else:
        raise ValueError(f"unknown power-delay profile {profile!r}")
    taps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return taps * np.sqrt(power / 2.0)


def complex_noise(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given variance.

    One normal draw of (2,) + shape gives the real parts, then the imaginary
    parts: the stream of two draws of `shape`, real parts first.
    """
    shape = _as_shape(shape)
    scale = np.sqrt(variance / 2.0)
    draws = rng.normal(size=(2,) + shape)
    noise = np.empty(shape, dtype=complex)
    np.multiply(draws[0], scale, out=noise.real)
    np.multiply(draws[1], scale, out=noise.imag)
    return noise


def convolve_channel(coeffs, taps, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Full linear convolution of codewords with channel taps plus AWGN.

    coeffs: (..., K+1), taps: (L_e,) or (..., L_e) matching the leading
    dims.  Returns (..., K + L_e) received coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    taps = np.asarray(taps, dtype=complex)
    out_len = coeffs.shape[-1] + taps.shape[-1] - 1
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], taps.shape[:-1]) + (out_len,),
                   dtype=complex)
    for l in range(taps.shape[-1]):
        out[..., l : l + coeffs.shape[-1]] += taps[..., l, None] * coeffs
    if noise_var > 0:
        out = out + complex_noise(out.shape, noise_var, rng)
    return out


def ebn0_to_noise_var(ebn0_db: float, info_bits: int, energy: float) -> float:
    """Per-sample complex noise variance for a target Eb/N0 in dB, given the
    transmit energy spent per `info_bits` information bits."""
    if info_bits <= 0:
        raise ValueError(f"info_bits must be positive, got {info_bits}")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    return energy / (info_bits * 10.0 ** (ebn0_db / 10.0))


@dataclass(frozen=True)
class ImpairmentSpec:
    """Sample-level impairments applied between transmitter and receiver."""

    timing_offset: int = 0
    cfo_hz: float = 0.0
    noise_var: float = 0.0

    def __post_init__(self):
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")


def apply_ofdm_channel(samples, taps, spec: ImpairmentSpec, sample_rate: float,
                       rng: np.random.Generator = None) -> np.ndarray:
    """Push a sample stream through delay + multipath + CFO + AWGN.

    The timing offset delays the stream by that many leading zero samples.
    The CFO multiplies output sample n by e^{j 2 pi cfo_hz n / sample_rate}.
    """
    samples = np.asarray(samples, dtype=complex)
    taps = np.asarray(taps, dtype=complex)
    out = np.concatenate([np.zeros(spec.timing_offset, dtype=complex),
                          np.convolve(samples, taps)])
    if spec.cfo_hz != 0.0:
        out = out * np.exp(2j * np.pi * spec.cfo_hz * np.arange(out.size) / sample_rate)
    if spec.noise_var > 0:
        if rng is None:
            raise ValueError("noise requested but no rng supplied")
        out = out + complex_noise(out.shape, spec.noise_var, rng)
    return out
