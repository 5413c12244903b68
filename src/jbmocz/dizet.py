"""Direct zero-testing: hard-decision decoding and pseudo-LLR soft output.

The received polynomial is evaluated at both candidate zeros of each pair.
Bit k compares |Y(outer_k)| with rho_k^(L_t - 1) |Y(inner_k)|; this balance
offsets the growth of |Y(z)| outside the unit circle.  The cached powers
carry it: the outer ones are divided by rho_k^(L_t - 1), so every power has
magnitude at most 1 and no channel length overflows them, and the balance
itself is applied only in pseudo_llrs.  A received sequence of length
L_t = K + L_e carries the K data zeros plus L_e - 1 channel zeros, so the
decoder needs the total length (i.e. the effective channel length).  The
soft output is the hard decision's two terms scaled by the balance and the
row's energy, so its sign is the hard decision.

pseudo_llrs reads a stack of any rank as (rows, L) matrices by one path, a
block of whole matrices at a time, at most BLOCK_VALUES evaluations per
block (one matrix where a single one is larger), and writes each block's
soft output into its result, which may be a caller's `out`; its temporaries
are then the block's.  Each matrix goes through the same product as in a
product of the whole stack, so the numbers do not depend on the blocks.
A block's temporaries stay in a core's 2 MiB L2 cache; blocks under 64
KiB made the 2-thread ofdm_k32 sweep about 15% slower, since their many
small calls hold the interpreter lock.
"""

from __future__ import annotations

import functools

import numpy as np

from .buffers import checked_out
from .zeros import ConstellationParams

BLOCK_VALUES = 2**14  # evaluations (256 KiB) pseudo_llrs forms at once


@functools.lru_cache(maxsize=8)
def _test_powers(params: ConstellationParams, length: int) -> tuple:
    """Powers 0..length-1 of the outer test points divided by the balance,
    rho^(l-L+1) e^{j psi l}, and of the inner ones, rho^-l e^{j psi l}, as
    two (L, K) matrices of magnitude at most 1; a product with one
    evaluates polynomials (..., L) there.  The radius and the phase factors
    are formed apart, as (rho e^{j psi})^l overflows on long channels.
    Read-only, since every caller shares them."""
    if length < params.num_zeros + 1:
        raise ValueError(
            f"received sequence of length {length} cannot carry "
            f"{params.num_zeros} zeros"
        )
    exponents = np.arange(length)[:, None]
    radii = params.zero_radii ** -np.stack([length - 1 - exponents, exponents])
    powers = radii * np.exp(1j * params.zero_phases * exponents)
    powers.flags.writeable = False
    return tuple(powers)


def _terms(received: np.ndarray, powers: tuple) -> tuple:
    """Squared magnitudes at the outer (bit-1) test points, divided by the
    balance squared, and at the inner (bit-0) ones."""
    return tuple(np.abs(received @ matrix) ** 2 for matrix in powers)


def dizet_hard(received, params: ConstellationParams) -> np.ndarray:
    """Hard-decision decode of received coefficients (..., K + L_e).

    Bit k is 1 iff |Y(outer_k)| < rho_k^(L_t-1) |Y(inner_k)|.
    """
    received = np.asarray(received, dtype=complex)
    outer, inner = _terms(received, _test_powers(params, received.shape[-1]))
    return (outer < inner).astype(int)


def pseudo_llrs(received, params: ConstellationParams, out: np.ndarray = None) -> np.ndarray:
    """Soft bit metrics from zero testing, positive meaning bit 1.

    With the coefficients normalized to unit energy,
    PLLR_k = rho_k^(L_t-1) |Y(inner_k)|^2 - rho_k^-(L_t-1) |Y(outer_k)|^2,
    the log-ratio of Gaussian pseudo-likelihoods of the two hypotheses.
    It is dizet_hard's two terms times rho_k^(L_t-1) and divided by the
    row's energy, so its sign is the hard decision.

    out: None, or a writeable, C-contiguous float64 array of the (..., K)
    result shape, which is filled in place of a new array and returned
    (any other array raises ValueError); the numbers are the same either
    way.
    """
    received = np.asarray(received, dtype=complex)
    energy = (np.einsum("...l,...l->...", received.real, received.real)
              + np.einsum("...l,...l->...", received.imag, received.imag))
    if np.any(energy == 0):
        raise ValueError("cannot normalize an all-zero received sequence")
    shape = received.shape[:-1] + (params.num_zeros,)
    out = np.empty(shape) if out is None else checked_out(out, shape, float)
    length = received.shape[-1]
    powers = _test_powers(params, length)
    scale = params.zero_radii ** (length - 1)
    # (count, rows, L), 1-D as (1, 1, L); no -1, as it fails where an axis is 0
    *lead, rows = (1, 1) + received.shape[:-1]
    count = int(np.prod(lead))
    matrices = received.reshape((count, rows, length))
    energies, dest = energy.reshape(count, rows), out.reshape(count, rows, params.num_zeros)
    step = max(1, BLOCK_VALUES // max(1, rows * params.num_zeros))
    for start in range(0, count, step):
        block = slice(start, start + step)
        outer, inner = _terms(matrices[block], powers)
        np.subtract(inner, outer, out=dest[block])
        dest[block] *= scale / energies[block, :, None]
    return out
