"""Zero-rotation impairment and template-correlation estimator tests."""

import concurrent.futures
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbmocz.dizet import dizet_hard
from jbmocz.rotation import (
    BLOCK_VALUES,
    _correlation_scores,
    _phase_table,
    apply_rotation,
    correct_bins,
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


def derotate(coeffs, angle):
    """Undo apply_rotation(coeffs, angle)."""
    return apply_rotation(coeffs, -np.asarray(angle, dtype=float))


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
        np.testing.assert_allclose(derotate(apply_rotation(x, 1.234), 1.234), x,
                                   atol=1e-12)

    def test_per_row_angles_match_scalar_calls(self):
        rows = np.stack([fig2_codeword(), 2j * fig2_codeword(), -fig2_codeword()])
        angles = np.array([0.3, 2.0, 5.9])
        stacked = apply_rotation(rows, angles)
        for i in range(3):
            np.testing.assert_array_equal(stacked[i], apply_rotation(rows[i], angles[i]))
        # one angle per packet across a (packets, symbols, L) stack
        packets = np.stack([rows, rows[::-1]])
        stacked = apply_rotation(packets, angles[:2, None])
        for p in range(2):
            np.testing.assert_array_equal(stacked[p], apply_rotation(packets[p], angles[p]))


class TestCorrectBins:
    @staticmethod
    def assert_matches_apply_rotation(k, n_bins, rows, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((rows, k + 1)) + 1j * rng.standard_normal((rows, k + 1))
        bins = rng.integers(0, n_bins, rows)
        assert np.array_equal(correct_bins(coeffs, bins, n_bins),
                              apply_rotation(coeffs, -2 * np.pi * bins / n_bins))
        # (P, M, S) with one bin per packet, as the OFDM FM receiver passes
        packets = coeffs * rng.standard_normal((3, 1, 1))
        per_packet = rng.integers(0, n_bins, (3, 1))
        assert np.array_equal(correct_bins(packets, per_packet, n_bins),
                              apply_rotation(packets, -2 * np.pi * per_packet / n_bins))
        # one scalar bin for every row, as the loopback receiver passes
        scalar = int(bins[0])
        assert np.array_equal(correct_bins(coeffs, scalar, n_bins),
                              apply_rotation(coeffs, -2 * np.pi * scalar / n_bins))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(2, 127), extra_bins=st.integers(0, 1024), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_apply_rotation(self, k, extra_bins, rows, seed):
        self.assert_matches_apply_rotation(k, 2 * k + 2 + extra_bins, rows, seed)

    @pytest.mark.parametrize("extra_bins", [0, 510, 1024])
    def test_matches_apply_rotation_k256(self, extra_bins):
        self.assert_matches_apply_rotation(256, 514 + extra_bins, 300, extra_bins)

    def test_every_bin_of_the_table(self):
        coeffs = np.tile(fig2_codeword(), (1024, 1))
        bins = np.arange(1024)
        assert np.array_equal(correct_bins(coeffs, bins, 1024),
                              apply_rotation(coeffs, -2 * np.pi * bins / 1024))

    def test_shapes_and_read_only_table(self):
        x = fig2_codeword()
        assert correct_bins(x, 5, 64).shape == x.shape
        assert correct_bins(np.tile(x, (4, 3, 1)), np.arange(4)[:, None], 64).shape == (4, 3, 9)
        with pytest.raises(ValueError):
            _phase_table(64, 9)[0, 0] = 1.0
        with pytest.raises(ValueError):
            make_template(FIG2, 64).conj_spectrum[0] = 1.0

    def test_threads_share_caches(self):
        # a fresh template and an empty table cache, so the pool threads race
        # to build Template.conj_spectrum and the table while they estimate
        params = ConstellationParams(32, 1.05, 1.1)
        template = make_template(params, 256)
        received = received_stack(params, (300,), seed=9)
        _phase_table.cache_clear()

        def receive():
            bins = rotation_bins(received, template)
            return bins, correct_bins(received, bins, 256)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(receive) for _ in range(16)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        expected = whole_stack_bins(received, template)
        for bins, corrected in results:
            assert np.array_equal(bins, expected)
            assert np.array_equal(corrected, apply_rotation(received, -2 * np.pi * expected / 256))


class TestRowIndependence:
    # a derotated row's bits do not depend on its stack: a (4096, 33) stack
    # of 2.2 MB against its 64-row blocks of 33 KiB and its single rows, on
    # both sides of the 256 KiB from which numpy 2 computes a product in a
    # temporary operand
    ROWS, L, N_BINS = 4096, 33, 1024

    @staticmethod
    def calls(rows, length, n_bins, seed):
        """name -> a derotation of the rows `index` selects of one stack."""
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
        angles = rng.uniform(0.0, 2.0 * np.pi, rows)
        bins = rng.integers(0, n_bins, rows)
        return {"apply_rotation": lambda index: apply_rotation(coeffs[index], angles[index]),
                "correct_bins": lambda index: correct_bins(coeffs[index], bins[index], n_bins)}

    @pytest.mark.parametrize("name", ["apply_rotation", "correct_bins"])
    def test_stack_equals_its_blocks_and_rows(self, name):
        call = self.calls(self.ROWS, self.L, self.N_BINS, seed=12)[name]
        whole = call(slice(None))
        assert whole.nbytes >= 256 * 1024 > whole[:64].nbytes
        blocks = [call(slice(start, start + 64)) for start in range(0, self.ROWS, 64)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert np.stack([call(row) for row in range(self.ROWS)]).tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 600), length=st.integers(2, 257), step=st.integers(1, 600),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_of_any_size(self, rows, length, step, seed):
        # stacks of 32 bytes to 2.4 MB, the larger ones past 256 KiB
        for call in self.calls(rows, length, 2 * length, seed).values():
            blocks = [call(slice(start, start + step)) for start in range(0, rows, step)]
            assert np.concatenate(blocks).tobytes() == call(slice(None)).tobytes()

    @pytest.mark.parametrize("name, bound", [("correct_bins", 1.05), ("apply_rotation", 2.05)])
    def test_peak_memory(self, name, bound):
        # the product goes into the fresh ramps, so correct_bins makes one
        # result-sized array and apply_rotation one more, the exponent
        call = self.calls(self.ROWS, self.L, self.N_BINS, seed=13)[name]
        call(slice(None))  # builds the cached table
        tracemalloc.start()
        try:
            result = call(slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * result.nbytes, (peak, result.nbytes)


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
        scores = _correlation_scores(mags, template)
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
        np.testing.assert_allclose(_correlation_scores(mags, template), direct,
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

    @pytest.mark.parametrize("n_bins", [514, 1024])
    def test_row_counts_around_block_k256(self, n_bins):
        params = ConstellationParams(256, 1.008, 1.05)
        template = make_template(params, n_bins)
        block = BLOCK_VALUES // n_bins
        for rows in (1, block - 1, block, block + 1, 3 * block + 5):
            received = received_stack(params, (rows,), seed=rows)
            bins = rotation_bins(received, template)
            assert bins.shape == (rows,)
            assert np.array_equal(bins, whole_stack_bins(received, template)), rows

    def test_rows_longer_than_grid_are_cropped(self):
        # ifft(·, n=N) crops (..., L) rows to their first N values when L > N
        template = make_template(ConstellationParams(8, 1.176, 1.15), 18)
        received = received_stack(self.params, (70,), seed=11)
        bins = rotation_bins(received, template)
        assert np.array_equal(bins, whole_stack_bins(received, template))
        assert np.array_equal(bins, rotation_bins(received[:, :18], template))

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

    def test_peak_memory_sized_by_stack(self):
        # the OFDM FM receiver's call: 24 rows at N = 256, where a block
        # holds 256 rows; buffers sized by the block would exceed the bound
        # on their own, one block's worth of complex values
        template = make_template(self.params, 256)
        received = received_stack(self.params, (24,), seed=5)
        rotation_bins(received, template)
        bound = BLOCK_VALUES * np.dtype(complex).itemsize
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
        corrected = derotate(received, angle)
        np.testing.assert_array_equal(dizet_hard(corrected, FIG2), FIG2_BITS)

    def test_one_bin_off_still_decodes(self):
        x = fig2_codeword()
        rng = np.random.default_rng(4)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            received = apply_rotation(x, phi)
            nearest = round(phi * 1024 / (2 * np.pi)) % 1024
            off = (nearest + rng.choice([-1, 1])) % 1024
            corrected = derotate(received, 2 * np.pi * off / 1024)
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
