"""Zero-testing decoder tests: hard decisions and soft output."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbmocz.channel import complex_noise, convolve_channel
from jbmocz.dizet import _test_powers, dizet_hard, pseudo_llrs
from jbmocz.rotation import apply_rotation
from jbmocz.zeros import (
    ConstellationParams,
    default_radius,
    encode_bits,
    encode_coeffs,
    zeros_to_coeffs,
)


def make_codewords(rng, params, n):
    bits = rng.integers(0, 2, (n, params.num_zeros))
    return bits, zeros_to_coeffs(encode_bits(bits, params))


class TestHardDecisions:
    @pytest.mark.parametrize("k", [8, 31, 64])
    def test_noiseless_exact(self, k):
        rng = np.random.default_rng(k)
        params = ConstellationParams(k, default_radius(k), 1.05)
        bits, coeffs = make_codewords(rng, params, 50)
        np.testing.assert_array_equal(dizet_hard(coeffs, params), bits)

    def test_noiseless_through_multipath(self):
        rng = np.random.default_rng(1)
        params = ConstellationParams(16, default_radius(16))
        bits, coeffs = make_codewords(rng, params, 50)
        taps = (rng.normal(size=(50, 5)) + 1j * rng.normal(size=(50, 5))) / np.sqrt(10)
        received = np.stack([np.convolve(coeffs[i], taps[i]) for i in range(50)])
        np.testing.assert_array_equal(dizet_hard(received, params), bits)

    def test_pure_noise_is_coin_flip(self):
        rng = np.random.default_rng(2)
        params = ConstellationParams(8, 1.176)
        noise = complex_noise((10000, 9), 1.0, rng)
        rate = dizet_hard(noise, params).mean()
        assert rate == pytest.approx(0.5, abs=0.02)

    def test_too_short(self):
        with pytest.raises(ValueError):
            dizet_hard(np.ones(5, dtype=complex), ConstellationParams(8, 1.2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        params = ConstellationParams(12, 1.1, 1.1)
        _, coeffs = make_codewords(rng, params, 20)
        noisy = coeffs + complex_noise(coeffs.shape, 0.3, rng)
        base = dizet_hard(noisy, params)
        for c in (2.0, 1e-4, 3.7 * np.exp(1j * 0.9)):
            np.testing.assert_array_equal(dizet_hard(c * noisy, params), base)

    @pytest.mark.parametrize("zeta", [1.0, 1.15])
    def test_rotation_covariance(self, zeta):
        rng = np.random.default_rng(4)
        params = ConstellationParams(8, 1.176, zeta)
        bits, coeffs = make_codewords(rng, params, 30)
        for m in range(8):
            rotated = apply_rotation(coeffs, m * params.base_angle)
            np.testing.assert_array_equal(
                dizet_hard(rotated, params), np.roll(bits, m, axis=1)
            )


class TestPowersCache:
    def test_read_only_and_shared(self):
        params = ConstellationParams(16, 1.1, 1.2)
        powers = _test_powers(params, 20)
        assert [matrix.shape for matrix in powers] == [(20, 16), (20, 16)]
        for matrix in powers:
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        again = _test_powers(ConstellationParams(16, 1.1, 1.2), 20)
        assert all(a is b for a, b in zip(again, powers))
        assert _test_powers(params, 21)[0] is not powers[0]


class TestPseudoLlrs:
    def test_noiseless_signs(self):
        rng = np.random.default_rng(5)
        params = ConstellationParams(16, 1.09, 1.12)
        bits, coeffs = make_codewords(rng, params, 30)
        llrs = pseudo_llrs(coeffs, params)
        np.testing.assert_array_equal((llrs > 0).astype(int), bits)

    def test_sign_matches_hard_decisions(self):
        rng = np.random.default_rng(6)
        params = ConstellationParams(16, 1.09, 1.12)
        n = 100_000
        _, coeffs = make_codewords(rng, params, n)
        taps = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) / np.sqrt(6)
        received = convolve_channel(coeffs, taps, 0.4, rng)
        hard = dizet_hard(received, params)
        np.testing.assert_array_equal((pseudo_llrs(received, params) > 0).astype(int), hard)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(7)
        params = ConstellationParams(8, 1.176, 1.15)
        _, coeffs = make_codewords(rng, params, 10)
        noisy = coeffs + complex_noise(coeffs.shape, 0.5, rng)
        np.testing.assert_allclose(
            pseudo_llrs(17.3 * noisy, params), pseudo_llrs(noisy, params), rtol=1e-9
        )

    def test_all_zero_input_rejected(self):
        with pytest.raises(ValueError):
            pseudo_llrs(np.zeros(9, dtype=complex), ConstellationParams(8, 1.2))


def normalize_first_llrs(received, params):
    """The soft output as it was first written: each row normalized to unit
    energy, then evaluated at both test-point sets by a matrix product."""
    received = received / np.linalg.norm(received, axis=-1, keepdims=True)
    length = received.shape[-1]
    scale = params.zero_radii ** (length - 1)
    powers = np.arange(length)[:, None]
    inner = np.abs(received @ params.inner_points()[None, :] ** powers) ** 2
    outer = np.abs(received @ params.outer_points()[None, :] ** powers) ** 2
    return (scale**2 * inner - outer) / scale


class TestPseudoLlrsTerms:
    """pseudo_llrs scales dizet_hard's two terms: its sign is the hard
    decision bit for bit, and it equals the normalize-first formula up to
    rounding."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 127), jutted=st.booleans(),
           lead=st.sampled_from([(), (5,), (0,), (2, 3)]), data=st.data(),
           noise_var=st.sampled_from([0.0, 1e-3, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_sign_and_normalize_first_agreement(self, k, jutted, lead, data, noise_var, seed):
        taps = data.draw(st.integers(1, k + 8), label="taps")  # up to more than K
        params = ConstellationParams(k, default_radius(k), 1.05 if jutted else 1.0)
        rng = np.random.default_rng(seed)
        coeffs = encode_coeffs(rng.integers(0, 2, lead + (k,)), params)
        received = convolve_channel(coeffs, complex_noise(lead + (taps,), 1.0, rng), noise_var, rng)
        llrs = pseudo_llrs(received, params)
        assert llrs.shape == lead + (k,)
        assert np.array_equal((llrs > 0).astype(int), dizet_hard(received, params))
        reference = normalize_first_llrs(received, params)
        row_max = np.abs(reference).max(axis=-1, keepdims=True)
        assert np.all(np.abs(llrs - reference) <= 1e-11 * row_max)

    def test_peak_memory(self):
        # a normalized copy of the stack, or a conjugate product of it for
        # the norm, would take the peak to about 3x the input
        params = ConstellationParams(32, default_radius(32))
        rng = np.random.default_rng(8)
        coeffs = encode_coeffs(rng.integers(0, 2, (4096, 32)), params)
        received = coeffs + complex_noise(coeffs.shape, 0.1, rng)
        pseudo_llrs(received, params)
        tracemalloc.start()
        try:
            pseudo_llrs(received, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * received.nbytes, (peak, received.nbytes)
