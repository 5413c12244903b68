"""Impairment simulation: sequence-level convolutive channels and the
sample-level OFDM channel with timing and frequency offsets.

`draw_cir` and `complex_noise` take a shape, so one call draws a whole
stack of channel responses or noise.  `ImpairmentSpec` holds only the
sample-level impairments of `apply_ofdm_channel`; the zero rotation of the
sequence-level links is a key of their experiment configs.

Every Gaussian draw is `standard_normal`, whose stream equals that of
`normal(0, 1)`.  Complex noise of a shape is two `standard_normal` draws
of that shape, real parts first (the stream of one draw of (2,) + shape),
each times sqrt(variance / 2).  `add_noise` adds that noise in place to a
C-contiguous complex128 array, so the link that owns an array adds its
noise without a full-size copy; `complex_noise` is `add_noise` on an
array of negative zeros, the additive identity, so its values are the
scaled draws, signed zeros included.

Both sequence-channel kernels work in blocks of at most BLOCK_VALUES
values, so their temporaries stay in a core's cache and the output is
their only full-size array.  `convolve_channel` walks the rows of the
stack, or one row where a single row is larger: each tap's product with
a block of codewords goes into one reused buffer and is added into the
output, taps in order.  `add_noise` fills one float buffer with the
draws of a block, scales it and adds it into that block's real parts,
then walks the imaginary parts the same way; consecutive draws continue
one stream, so the blocks' draws are those of the two whole-shape draws.
Blocks change no number: each output value sees the same products, draws
and sums, in the same order, as a whole-stack tap loop plus
`out + noise`.

All randomness flows through explicit numpy Generators so trials are
reproducible and can be parallelized from independently derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffers import checked_out


PDP_PROFILES = ("uniform", "exp")  # the power-delay profiles draw_cir implements
EXP_PDP_DECAY = 3.0  # the "exp" profile's decay length, in taps
BLOCK_VALUES = 2**14  # values convolve_channel and add_noise form at once


def _as_shape(shape) -> tuple:
    try:
        return tuple(shape)
    except TypeError:  # an int
        return (shape,)


def draw_cir(shape, rng: np.random.Generator, profile: str = "uniform") -> np.ndarray:
    """Draw channel impulse responses of complex Gaussian taps.

    shape: the number of taps, or a shape whose last axis is the taps (a
    stack of responses).  One standard normal draw of `shape` gives the
    real parts, a second the imaginary parts.
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
    taps = rng.standard_normal(size=shape) + 1j * rng.standard_normal(size=shape)
    return taps * np.sqrt(power / 2.0)


def add_noise(out: np.ndarray, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of the given variance
    to `out` in place, and return it.

    out: a writeable, C-contiguous complex128 array of any shape; any
    other array raises ValueError, since a copy would lose the add.  The
    noise is two standard normal draws of out.shape, real parts first,
    each times sqrt(variance / 2), drawn a block at a time (module
    docstring); the draws are made even at variance 0.
    """
    checked_out(out, np.shape(out))
    scale = np.sqrt(variance / 2.0)
    flat = out.reshape(-1)
    draws = np.empty(min(flat.size, BLOCK_VALUES))
    for half in (flat.real, flat.imag):
        for start in range(0, flat.size, BLOCK_VALUES):
            block = draws[: min(BLOCK_VALUES, flat.size - start)]
            rng.standard_normal(out=block)
            block *= scale
            half[start : start + len(block)] += block
    return out


def complex_noise(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given variance:
    `add_noise` on negative zeros, so each value is its scaled draw."""
    return add_noise(np.full(_as_shape(shape), complex(-0.0, -0.0)), variance, rng)


def convolve_channel(coeffs, taps, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Full linear convolution of codewords with channel taps plus AWGN.

    coeffs: (..., K+1), taps: (L_e,) or (..., L_e); the leading dims
    broadcast.  Returns (..., K + L_e) received coefficients, convolved in
    row blocks (module docstring); noise is added only when noise_var > 0.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    taps = np.asarray(taps, dtype=complex)
    length, num_taps = coeffs.shape[-1], taps.shape[-1]
    lead = np.broadcast_shapes(coeffs.shape[:-1], taps.shape[:-1])
    out = np.zeros(lead + (length + num_taps - 1,), dtype=complex)
    rows = out.reshape(-1, out.shape[-1])
    # views wherever the broadcast rows flatten without a copy
    coeff_rows = np.broadcast_to(coeffs, lead + (length,)).reshape(-1, length)
    tap_rows = np.broadcast_to(taps, lead + (num_taps,)).reshape(-1, num_taps)
    step = max(1, min(len(rows), BLOCK_VALUES // max(1, out.shape[-1])))
    product = np.empty((step, length), dtype=complex)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        h = len(block)
        for l in range(num_taps):
            np.multiply(tap_rows[start : start + h, l, None], coeff_rows[start : start + h],
                        out=product[:h])
            block[:, l : l + length] += product[:h]
    if noise_var > 0:
        add_noise(out, noise_var, rng)
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
        ramp = np.exp(2j * np.pi * spec.cfo_hz * np.arange(out.size) / sample_rate)
        out = np.multiply(out, ramp)  # out * ramp runs as ramp * out from 256 KiB
    if spec.noise_var > 0:
        if rng is None:
            raise ValueError("noise requested but no rng supplied")
        add_noise(out, spec.noise_var, rng)
    return out
