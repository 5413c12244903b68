"""Zero-rotation impairment and template-correlation estimator tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbmocz.dizet import dizet_hard
from jbmocz.rotation import (
    BLOCK_VALUES,
    _correlation_scores,
    apply_rotation,
    correct_rotation,
    estimate_rotation_bins,
    oversampled_magnitudes,
    rotation_bins,
    rotation_mse,
)
from jbmocz.zeros import (
    ConstellationParams,
    coeffs_to_zeros,
    encode_bits,
    encode_coeffs,
    make_template,
    zeros_to_coeffs,
)

FIG2 = ConstellationParams(8, 1.176, 1.15)
FIG2_BITS = np.array([1, 0, 1, 1, 1, 0, 0, 1])


def fig2_codeword():
    return zeros_to_coeffs(encode_bits(FIG2_BITS, FIG2))


class TestApplyRotation:
    def test_zero_angle_identity(self):
        x = fig2_codeword()
        np.testing.assert_array_equal(apply_rotation(x, 0.0), x)

    def test_full_turn_identity(self):
        x = fig2_codeword()
        np.testing.assert_allclose(apply_rotation(x, 2 * np.pi), x, atol=1e-12)

    def test_roots_rotate(self):
        x = fig2_codeword()
        phi = (12 / 7) * FIG2.base_angle
        rotated_roots = coeffs_to_zeros(apply_rotation(x, phi))
        expected = np.exp(1j * phi) * coeffs_to_zeros(x)
        rotated_roots = rotated_roots[np.argsort(np.angle(rotated_roots))]
        expected = expected[np.argsort(np.angle(expected))]
        np.testing.assert_allclose(rotated_roots, expected, atol=1e-9)

    def test_correct_inverts(self):
        x = fig2_codeword()
        np.testing.assert_allclose(correct_rotation(apply_rotation(x, 1.234), 1.234), x,
                                   atol=1e-12)

    def test_per_row_angles_match_scalar_calls(self):
        rows = np.stack([fig2_codeword(), 2j * fig2_codeword(), -fig2_codeword()])
        angles = np.array([0.3, 2.0, 5.9])
        for fn in (apply_rotation, correct_rotation):
            stacked = fn(rows, angles)
            for i in range(3):
                np.testing.assert_array_equal(stacked[i], fn(rows[i], angles[i]))
        # one angle per packet across a (packets, symbols, L) stack
        packets = np.stack([rows, rows[::-1]])
        stacked = apply_rotation(packets, angles[:2, None])
        for p in range(2):
            np.testing.assert_array_equal(stacked[p], apply_rotation(packets[p], angles[p]))


class TestEstimator:
    def setup_method(self):
        self.params = ConstellationParams(16, 1.093, 1.15)
        rng = np.random.default_rng(0)
        self.coeffs = zeros_to_coeffs(encode_bits(rng.integers(0, 2, 16), self.params))
        self.template = make_template(self.params, 1024)

    def test_unrotated_is_bin_zero(self):
        assert rotation_bins(self.coeffs, self.template) == 0

    def test_exact_at_integer_bins(self):
        for m in (1, 63, 512, 1023):
            phi = 2 * np.pi * m / 1024
            assert rotation_bins(apply_rotation(self.coeffs, phi), self.template) == m

    def test_quantizes_to_nearest_bin(self):
        rng = np.random.default_rng(1)
        phis = rng.uniform(0, 2 * np.pi, 100)
        rotated = apply_rotation(np.tile(self.coeffs, (100, 1)), phis)
        err = np.abs(2 * np.pi * rotation_bins(rotated, self.template) / 1024 - phis)
        assert np.all(np.minimum(err, 2 * np.pi - err) <= np.pi / 1024 + 1e-12)

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(6)
        rotated = apply_rotation(np.tile(self.coeffs, (4, 3, 1)), rng.uniform(0, 6, (4, 3)))
        bins = rotation_bins(rotated, self.template)
        assert bins.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert rotation_bins(rotated[i, j], self.template) == bins[i, j]

    def test_shift_equivariance(self):
        mags = oversampled_magnitudes(apply_rotation(self.coeffs, 0.39), 1024)
        base = estimate_rotation_bins(mags, self.template)
        for m in (1, 100, 1000):
            shifted = estimate_rotation_bins(np.roll(mags, m), self.template)
            assert shifted == (base + m) % 1024

    def test_scale_invariance(self):
        mags = oversampled_magnitudes(apply_rotation(self.coeffs, 2.5), 1024)
        base = estimate_rotation_bins(mags, self.template)
        assert estimate_rotation_bins(123.4 * mags, self.template) == base

    def test_huffman_score_periodicity(self):
        params = ConstellationParams(8, 1.176)
        template = make_template(params, 1024)
        coeffs = zeros_to_coeffs(encode_bits(np.random.default_rng(2).integers(0, 2, 8), params))
        mags = oversampled_magnitudes(coeffs, 1024)
        scores = _correlation_scores(mags, template.samples)
        period = 1024 // 8
        for m in range(1, 8):
            np.testing.assert_allclose(scores, np.roll(scores, m * period),
                                       rtol=1e-9)

    def test_fft_equals_direct_definition(self):
        rng = np.random.default_rng(3)
        mags = rng.uniform(0, 3, 256)
        template = make_template(self.params, 256)
        direct = np.array([
            np.dot(np.roll(template.samples, s), mags) for s in range(256)
        ])
        np.testing.assert_allclose(_correlation_scores(mags, template.samples), direct,
                                   atol=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            estimate_rotation_bins(np.ones(512), self.template)
        with pytest.raises(ValueError):
            estimate_rotation_bins(np.ones((3, 512)), self.template)


def received_stack(params, shape, seed, noise_std=0.3):
    """Codewords of random bits, each rotated by a random angle, plus noise."""
    rng = np.random.default_rng(seed)
    coeffs = encode_coeffs(rng.integers(0, 2, shape + (params.num_zeros,)), params)
    rotated = apply_rotation(coeffs, rng.uniform(0, 2 * np.pi, shape))
    noise = rng.standard_normal(coeffs.shape) + 1j * rng.standard_normal(coeffs.shape)
    return rotated + noise_std * noise


def whole_stack_bins(coeffs, template):
    """The unblocked pipeline: one magnitude IFFT and correlation over the
    whole stack."""
    return estimate_rotation_bins(oversampled_magnitudes(coeffs, template.size), template)


class TestBlockedRotationBins:
    params = ConstellationParams(32, 1.05, 1.1)

    @pytest.mark.parametrize("n_bins", [66, 256, 1000, 1024])
    def test_row_counts_around_block(self, n_bins):
        template = make_template(self.params, n_bins)
        block = BLOCK_VALUES // n_bins
        for rows in (1, block - 1, block, block + 1, 4097):
            received = received_stack(self.params, (rows,), seed=rows)
            bins = rotation_bins(received, template)
            assert bins.shape == (rows,)
            assert np.array_equal(bins, whole_stack_bins(received, template)), rows

    @pytest.mark.parametrize("n_bins", [66, 256, 1000, 1024])
    def test_shapes(self, n_bins):
        template = make_template(self.params, n_bins)
        block = BLOCK_VALUES // n_bins
        row = received_stack(self.params, (), seed=7)
        single = rotation_bins(row, template)
        assert np.ndim(single) == 0
        assert single == whole_stack_bins(row, template)
        for shape in ((block + 3,), (3, block // 2 + 1), (2, 5, block // 3 + 2)):
            received = received_stack(self.params, shape, seed=len(shape))
            bins = rotation_bins(received, template)
            assert bins.shape == shape
            assert np.array_equal(bins, whole_stack_bins(received, template)), shape

    def test_empty_stack(self):
        template = make_template(self.params, 1024)
        bins = rotation_bins(np.zeros((0, 33), dtype=complex), template)
        assert bins.shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 127), radius=st.floats(1.001, 1.5), zeta=st.floats(1.0, 1.2),
           extra_bins=st.integers(0, 1024), rows=st.integers(1, 600),
           noise_std=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_whole_stack(self, k, radius, zeta, extra_bins, rows, noise_std, seed):
        params = ConstellationParams(k, radius, zeta)
        template = make_template(params, 2 * k + 2 + extra_bins)
        received = received_stack(params, (rows,), seed, noise_std)
        assert np.array_equal(rotation_bins(received, template),
                              whole_stack_bins(received, template))

    def test_peak_memory_bounded_by_block(self):
        # the whole-stack pipeline peaks near 96 MB on this call; blocks
        # hold a few block-sized intermediates, the largest BLOCK_VALUES
        # complex values, plus the (rows,) result
        template = make_template(self.params, 1024)
        received = received_stack(self.params, (4096,), seed=3)
        rotation_bins(received, template)
        bound = 4 * BLOCK_VALUES * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            rotation_bins(received, template)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestEndToEnd:
    def test_fig2_scenario(self):
        x = fig2_codeword()
        phi = (12 / 7) * FIG2.base_angle
        received = apply_rotation(x, phi)
        template = make_template(FIG2, 1024)
        angle = 2 * np.pi * rotation_bins(received, template) / 1024
        corrected = correct_rotation(received, angle)
        np.testing.assert_array_equal(dizet_hard(corrected, FIG2), FIG2_BITS)

    def test_one_bin_off_still_decodes(self):
        x = fig2_codeword()
        rng = np.random.default_rng(4)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            received = apply_rotation(x, phi)
            nearest = round(phi * 1024 / (2 * np.pi)) % 1024
            off = (nearest + rng.choice([-1, 1])) % 1024
            corrected = correct_rotation(received, 2 * np.pi * off / 1024)
            np.testing.assert_array_equal(dizet_hard(corrected, FIG2), FIG2_BITS)


class TestRotationMse:
    def test_perfect_estimates(self):
        assert rotation_mse([0.3, 1.2], [0.3, 1.2]) == 0.0

    def test_wraparound_credit(self):
        assert rotation_mse([0.1], [2 * np.pi - 0.1]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_quantization_floor(self):
        rng = np.random.default_rng(5)
        phis = rng.uniform(0, 2 * np.pi, 10000)
        bins = np.round(phis * 64 / (2 * np.pi)) % 64
        est = 2 * np.pi * bins / 64
        floor = (2 * np.pi / 64) ** 2 / 12
        assert rotation_mse(phis, est) == pytest.approx(floor, rel=0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rotation_mse([0.1, 0.2], [0.1])
