"""Direct zero-testing: hard-decision decoding and pseudo-LLR soft output.

The received polynomial is evaluated at both candidate zeros of each pair;
the evaluation at the inner point is scaled by rho^(L_t - 1) to balance the
growth of |Y(z)| outside the unit circle.  A received sequence of length
L_t = K + L_e carries the K data zeros plus L_e - 1 channel zeros, so the
decoder needs the total length (i.e. knowledge of the effective channel
length) for correct scaling.  The soft output is the hard decision's two
terms scaled by the balance and the row's energy, so its sign is the hard
decision.
"""

from __future__ import annotations

import numpy as np

from .zeros import ConstellationParams


def _eval_at_points(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate polynomials (..., L) at a shared set of points (P,)."""
    powers = points[None, :] ** np.arange(coeffs.shape[-1])[:, None]  # (L, P)
    return coeffs @ powers


def _decision_terms(received, params: ConstellationParams):
    """Scaled squared magnitudes at the inner (bit-0) and outer (bit-1)
    test points, and the balance rho^(L_t-1); the inner term already
    carries the balance, squared."""
    received = np.asarray(received, dtype=complex)
    length = received.shape[-1]
    if length < params.num_zeros + 1:
        raise ValueError(
            f"received sequence of length {length} cannot carry "
            f"{params.num_zeros} zeros"
        )
    rho = params.zero_radii
    scale = rho ** (length - 1)
    outer = np.abs(_eval_at_points(received, params.outer_points())) ** 2
    inner = np.abs(_eval_at_points(received, params.inner_points())) ** 2
    return scale**2 * inner, outer, scale


def dizet_hard(received, params: ConstellationParams) -> np.ndarray:
    """Hard-decision decode of received coefficients (..., K + L_e).

    Bit k is 1 iff |Y(outer_k)| < rho_k^(L_t-1) |Y(inner_k)|.
    """
    inner, outer, _ = _decision_terms(received, params)
    return (outer < inner).astype(int)


def pseudo_llrs(received, params: ConstellationParams) -> np.ndarray:
    """Soft bit metrics from zero testing, positive meaning bit 1.

    With the coefficients normalized to unit energy,
    PLLR_k = rho_k^(L_t-1) |Y(inner_k)|^2 - rho_k^-(L_t-1) |Y(outer_k)|^2,
    the log-ratio of Gaussian pseudo-likelihoods of the two hypotheses.
    It is dizet_hard's two terms divided by rho_k^(L_t-1) and by the row's
    energy, so its sign is the hard decision.
    """
    received = np.asarray(received, dtype=complex)
    energy = (np.einsum("...l,...l->...", received.real, received.real)
              + np.einsum("...l,...l->...", received.imag, received.imag))
    if np.any(energy == 0):
        raise ValueError("cannot normalize an all-zero received sequence")
    inner, outer, scale = _decision_terms(received, params)
    return (inner - outer) / (scale * energy[..., None])
