"""Constellation, codeword expansion, autocorrelation and template tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbmocz.zeros import (
    SYNTHESIS_BLOCK_ROWS,
    SYNTHESIS_TABLE_VALUES,
    ConstellationParams,
    _group_size,
    _low_discrepancy_order,
    _synthesis_tables,
    aacf,
    aacf_closed_form,
    aacf_edge_scale,
    coeffs_to_zeros,
    default_radius,
    encode_bits,
    encode_coeffs,
    make_template,
    power_spectrum,
    zeros_to_coeffs,
)

FIG2 = ConstellationParams(8, 1.176, 1.15)
FIG2_BITS = np.array([1, 0, 1, 1, 1, 0, 0, 1])


def brute_force_aacf(coeffs):
    """Direct double-sum correlation, the independent oracle."""
    k = len(coeffs) - 1
    out = np.zeros(2 * k + 1, dtype=complex)
    for lag in range(-k, k + 1):
        acc = 0.0 + 0.0j
        for i in range(k + 1):
            j = i + lag
            if 0 <= j <= k:
                acc += np.conj(coeffs[i]) * coeffs[j]
        out[lag + k] = acc
    return out


def demap_zeros(zeros, params: ConstellationParams) -> np.ndarray:
    """Recover bits from an unordered set of K zeros by nearest-point
    assignment against the 2K constellation points."""
    zeros = np.asarray(zeros, dtype=complex)
    points = np.concatenate([params.outer_points(), params.inner_points()])
    nearest = np.argmin(np.abs(zeros[:, None] - points[None, :]), axis=1)
    k = params.num_zeros
    bits = np.zeros(k, dtype=int)
    seen = np.zeros(k, dtype=bool)
    for idx in nearest:
        pair, bit = idx % k, int(idx < k)
        if seen[pair]:
            raise ArithmeticError(f"two zeros both map to pair {pair}")
        seen[pair] = True
        bits[pair] = bit
    return bits


class TestConstellationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstellationParams(1, 1.1)
        with pytest.raises(ValueError):
            ConstellationParams(8, 1.0)
        with pytest.raises(ValueError):
            ConstellationParams(8, 1.1, 0.9)

    def test_derived_quantities(self):
        p = ConstellationParams(4, 1.5, 1.2)
        assert p.base_angle == pytest.approx(np.pi / 2)
        np.testing.assert_allclose(p.zero_radii, [1.8, 1.5, 1.5, 1.5])
        assert not p.is_huffman and ConstellationParams(4, 1.5).is_huffman


class TestEncodeBits:
    def test_fig2_jutted_zero(self):
        zeros = encode_bits(FIG2_BITS, FIG2)
        # first bit is 1: the jutted zero sits at 1.15*1.176 on the real axis
        assert zeros[0] == pytest.approx(1.15 * 1.176)
        assert zeros[0].imag == 0.0

    def test_huffman_all_outside(self):
        p = ConstellationParams(8, 1.3)
        zeros = encode_bits(np.ones(8, dtype=int), p)
        np.testing.assert_allclose(np.abs(zeros), 1.3, atol=1e-12)
        np.testing.assert_allclose(np.angle(zeros) % (2 * np.pi),
                                   2 * np.pi * np.arange(8) / 8, atol=1e-12)

    def test_k2_hand_case(self):
        zeros = encode_bits([0, 1], ConstellationParams(2, 1.5))
        np.testing.assert_allclose(zeros, [2 / 3, -1.5], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_bits([1, 0, 1], FIG2)


class TestZerosToCoeffs:
    def test_k2_hand_expansion(self):
        coeffs = zeros_to_coeffs(np.array([2 / 3, -1.5]), energy=3.0)
        ref = np.array([-1.0, 5 / 6, 1.0])
        ref *= np.sqrt(3.0) / np.linalg.norm(ref)
        np.testing.assert_allclose(coeffs, ref, atol=1e-12)

    def test_energy_contract(self):
        rng = np.random.default_rng(0)
        for k in (4, 16, 64):
            p = ConstellationParams(k, default_radius(k), 1.05)
            x = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
            assert np.sum(np.abs(x) ** 2) == pytest.approx(k + 1, rel=1e-9)
            assert x[-1].imag == 0.0 and x[-1].real > 0

    def test_huffman_aacf_closed_form(self):
        p = ConstellationParams(8, 1.176)
        x = zeros_to_coeffs(encode_bits(np.random.default_rng(1).integers(0, 2, 8), p))
        got = brute_force_aacf(x)
        expected = np.zeros(17, dtype=complex)
        eta = aacf_edge_scale(p)
        expected[8] = 9.0
        expected[0] = expected[16] = -eta * 9.0
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_bad_energy(self):
        with pytest.raises(ValueError):
            zeros_to_coeffs(np.array([1.0 + 0j]), energy=0.0)


def _roll_loop_coeffs(zeros, energy=None):
    """The shift-by-np.roll product recurrence, written out apart from
    zeros_to_coeffs."""
    zeros = np.asarray(zeros, dtype=complex)
    k = zeros.shape[-1]
    energy = float(k + 1) if energy is None else energy
    coeffs = np.zeros(zeros.shape[:-1] + (k + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for i in _low_discrepancy_order(k):
        shifted = np.roll(coeffs, 1, axis=-1)
        shifted[..., 0] = 0.0
        coeffs = shifted - zeros[..., i, None] * coeffs
    return coeffs * (np.sqrt(energy) / np.linalg.norm(coeffs, axis=-1, keepdims=True))


class TestInPlaceSynthesis:
    """zeros_to_coeffs is the plain recurrence.  An in-place rewrite of it
    was checked here bit for bit, and so must any later tuned one be."""

    @pytest.mark.parametrize("k", [2, 3, 4, 16, 31, 32, 63, 64, 127, 128, 256])
    def test_bit_identical_to_roll_loop(self, k):
        rng = np.random.default_rng(k)
        params = ConstellationParams(k, default_radius(k), 1.05)
        for shape in ((k,), (7, k), (3, 2, k)):
            zeros = encode_bits(rng.integers(0, 2, shape), params)
            assert np.array_equal(zeros_to_coeffs(zeros), _roll_loop_coeffs(zeros))
            assert np.array_equal(zeros_to_coeffs(zeros, 1.0), _roll_loop_coeffs(zeros, 1.0))


def _normwise_error(got, reference):
    return np.max(np.linalg.norm(got - reference, axis=-1)
                  / np.linalg.norm(reference, axis=-1))


class TestEncodeCoeffs:
    """encode_coeffs against the product recurrence zeros_to_coeffs.  The
    group-table product multiplies the same root factors on the grid
    instead of expanding them, so the match is norm-wise, at 1e-12.  Over
    402 rows each (all ones, all zeros, 400 random), the largest normwise
    difference was 6.3e-14 at (K, R, zeta) = (256, 1.5, 1.0), 3.3e-14 at
    (256, 1.001, 1.2) and 2.5e-14 at (127, 1.5, 1.2), and 8.7e-14 over 300
    random constellations with K in [2, 256], R in [1.001, 1.5], zeta in
    [1, 1.2]."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 256), radius=st.floats(1.001, 1.5), zeta=st.floats(1.0, 1.2),
           seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (5,), (2, 3)]),
           unit_energy=st.booleans())
    def test_matches_zeros_to_coeffs(self, k, radius, zeta, seed, lead, unit_energy):
        params = ConstellationParams(k, radius, zeta)
        bits = np.random.default_rng(seed).integers(0, 2, lead + (k,))
        energy = 1.0 if unit_energy else None
        got = encode_coeffs(bits, params, energy)
        assert got.shape == lead + (k + 1,)
        assert _normwise_error(got, zeros_to_coeffs(encode_bits(bits, params), energy)) <= 1e-12

    @pytest.mark.parametrize("k, radius, zeta", [(256, 1.5, 1.0), (256, 1.001, 1.2),
                                                 (127, 1.5, 1.2)])
    def test_worst_cases(self, k, radius, zeta):
        params = ConstellationParams(k, radius, zeta)
        bits = np.vstack([np.ones(k, dtype=int), np.zeros(k, dtype=int),
                          np.random.default_rng(k).integers(0, 2, (400, k))])
        assert _normwise_error(encode_coeffs(bits, params),
                               zeros_to_coeffs(encode_bits(bits, params))) <= 1e-12

    @pytest.mark.parametrize("k", [8, 33, 64])
    def test_nonzero_bits_are_ones(self, k):
        # bits != 0 as in encode_bits, whatever the dtype
        params = ConstellationParams(k, default_radius(k), 1.1)
        rng = np.random.default_rng(k)
        ones = rng.integers(0, 2, (9, k)).astype(bool)
        expected = encode_coeffs(ones.astype(int), params)
        levels = rng.choice([-3, 2, 7, 255], size=ones.shape)
        for bits in (ones, ones.astype(np.uint8), ones * levels, ones * levels.astype(float)):
            assert np.array_equal(encode_bits(bits, params), encode_bits(ones, params))
            assert np.array_equal(encode_coeffs(bits, params), expected)

    @pytest.mark.parametrize("k, radius, zeta", [
        (8, 1.176, 1.15), (64, 1.029, 1.072), (127, 1.5, 1.0), (127, 1.5, 1.2), (256, 1.5, 1.0),
    ])
    def test_energy_and_real_positive_leading_coefficient(self, k, radius, zeta):
        # at R=1.5, K=127 the leading coefficient is ~1e-22 of the norm
        params = ConstellationParams(k, radius, zeta)
        bits = np.vstack([np.ones(k, dtype=int), np.zeros(k, dtype=int),
                          np.random.default_rng(k).integers(0, 2, (6, k))])
        for energy, expected in ((None, k + 1.0), (1.0, 1.0), (3.5, 3.5)):
            coeffs = encode_coeffs(bits, params, energy)
            np.testing.assert_allclose(np.sum(np.abs(coeffs) ** 2, axis=-1), expected,
                                       rtol=1e-13)
            assert np.all(coeffs[:, -1].imag == 0.0)
            assert np.all(coeffs[:, -1].real > 0.0)

    def test_rejects_bit_count_mismatch_and_bad_energy(self):
        with pytest.raises(ValueError, match="expected 8 bits"):
            encode_coeffs(np.ones((3, 7), dtype=int), FIG2)
        with pytest.raises(ValueError, match="energy"):
            encode_coeffs(FIG2_BITS, FIG2, energy=0.0)


class TestSynthesisTables:
    """The group tables behind encode_coeffs: their size rule, and each row
    against the direct product of its pattern's root factors."""

    def test_group_size_rule(self):
        assert [_group_size(k) for k in (2, 32, 64, 127, 128, 156, 157, 180, 181, 256)] == \
            [8, 8, 6, 4, 3, 3, 2, 2, 2, 2]

    def test_tables_within_budget_and_read_only(self):
        # past K=180 no group size fits the budget, and g = 2 holds the
        # fewest values any size can: two rows per zero
        for k in range(2, 257):
            tables = _synthesis_tables(ConstellationParams(k, 1.2, 1.1))
            values = sum(table.size for table in tables)
            assert values <= SYNTHESIS_TABLE_VALUES or (k > 180 and values == 2 * k * (k + 1))
            assert sum(np.log2(len(table)) for table in tables) == k
            assert all(table.shape[1] == k + 1 and not table.flags.writeable
                       for table in tables)
            with pytest.raises(ValueError):
                tables[0][0, 0] = 0.0

    @pytest.mark.parametrize("k", [2, 3, 8, 9, 32, 64, 127, 128, 157, 256])
    def test_rows_equal_direct_products(self, k):
        params = ConstellationParams(k, default_radius(k), 1.2)
        grid = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
        inner, outer = params.inner_points(), params.outer_points()
        first = 0
        for table in _synthesis_tables(params):
            size = int(np.log2(len(table)))
            patterns = (np.arange(len(table))[:, None] >> np.arange(size)) & 1
            points = np.where(patterns, outer[first:first + size], inner[first:first + size])
            direct = np.prod(grid - points[..., None], axis=1)
            np.testing.assert_allclose(table, direct, rtol=1e-13, atol=0)
            first += size
        assert first == k


class TestRowIndependence:
    """Each row of a stack encodes to the numbers of that row encoded alone,
    bit for bit, whatever the stack's size and shape: experiments relies on
    it for a packet's numbers to equal a one-packet receiver's."""

    @pytest.mark.parametrize("k", [32, 64, 127])
    @pytest.mark.parametrize("rows", [0, 1, SYNTHESIS_BLOCK_ROWS - 1, SYNTHESIS_BLOCK_ROWS,
                                      SYNTHESIS_BLOCK_ROWS + 1, 4097])
    def test_stack_rows_equal_single_rows(self, k, rows):
        params = ConstellationParams(k, default_radius(k), 1.05)
        bits = np.random.default_rng(rows).integers(0, 2, (rows, k))
        stack = encode_coeffs(bits, params)
        assert stack.shape == (rows, k + 1)
        for row, coeffs in zip(bits, stack):
            assert np.array_equal(encode_coeffs(row, params), coeffs)

    @pytest.mark.parametrize("k", [32, 64, 127])
    def test_shapes(self, k):
        params = ConstellationParams(k, default_radius(k), 1.05)
        bits = np.random.default_rng(k).integers(0, 2, (3, 5, k))
        single = np.array([encode_coeffs(row, params) for row in bits.reshape(-1, k)])
        assert encode_coeffs(bits[0, 0], params).shape == (k + 1,)
        assert np.array_equal(encode_coeffs(bits, params), single.reshape(3, 5, k + 1))
        assert np.array_equal(encode_coeffs(bits[1], params), single[5:10])
        assert encode_coeffs(bits[:0], params).shape == (0, 5, k + 1)


class TestCoeffsToZeros:
    def test_hand_roots(self):
        roots = coeffs_to_zeros(np.array([6.0, -5.0, 1.0]))
        np.testing.assert_allclose(sorted(roots.real), [2, 3], atol=1e-9)
        np.testing.assert_allclose(roots.imag, 0, atol=1e-9)

    def test_round_trip_k16(self):
        p = ConstellationParams(16, 1.09, 1.1)
        bits = np.random.default_rng(2).integers(0, 2, 16)
        x = zeros_to_coeffs(encode_bits(bits, p))
        np.testing.assert_array_equal(demap_zeros(coeffs_to_zeros(x), p), bits)

    def test_wilkinson_roots_loose(self):
        # the ill-conditioned middle roots (condition ~5e13) wobble by ~1e-1
        # under double-precision rounding alone; the well-conditioned low
        # roots stay tight -- both facets of the classic instability
        coeffs = [1]
        for k in range(1, 21):
            coeffs = [0] + coeffs
            coeffs = [a - k * b for a, b in zip(coeffs, coeffs[1:] + [0])]
        w = np.array(coeffs, dtype=float)
        w /= np.linalg.norm(w)
        roots = np.sort(coeffs_to_zeros(w).real)
        np.testing.assert_allclose(roots, np.arange(1, 21), atol=0.25)
        np.testing.assert_allclose(roots[:6], np.arange(1, 7), atol=1e-3)

    def test_degenerate_leading(self):
        with pytest.raises(ArithmeticError):
            coeffs_to_zeros(np.array([1.0, 1.0, 0.0]))

    def test_stack_rejected(self):
        with pytest.raises(ValueError, match="takes a single coefficient vector"):
            coeffs_to_zeros(np.ones((2, 3)))


class TestAacf:
    def test_zero_lag_is_energy(self):
        p = ConstellationParams(12, 1.07, 1.2)
        x = zeros_to_coeffs(encode_bits(np.random.default_rng(3).integers(0, 2, 12), p))
        a = aacf(x)
        assert a[12] == pytest.approx(13.0, rel=1e-9)

    def test_huffman_impulsive(self):
        p = ConstellationParams(10, 1.12)
        x = zeros_to_coeffs(encode_bits(np.random.default_rng(4).integers(0, 2, 10), p))
        a = aacf(x)
        eta = 1.0 / (1.12**10 + 1.12**-10)
        assert abs(a[0] + eta * 11) < 1e-9 and abs(a[-1] + eta * 11) < 1e-9
        np.testing.assert_allclose(a[1:10], 0, atol=1e-9)

    def test_codebook_invariance_pairs(self):
        rng = np.random.default_rng(5)
        for k in (4, 8, 16):
            p = ConstellationParams(k, default_radius(k), 1.1)
            for _ in range(100):
                x1 = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
                x2 = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
                np.testing.assert_allclose(aacf(x1), aacf(x2), atol=1e-9)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for k in (4, 9, 16):
            p = ConstellationParams(k, default_radius(k), 1.15)
            x = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
            np.testing.assert_allclose(aacf(x), brute_force_aacf(x), atol=1e-9)

    def test_conjugate_symmetry(self):
        x = np.random.default_rng(7).normal(size=6) + 1j * np.random.default_rng(8).normal(size=6)
        a = aacf(x)
        np.testing.assert_allclose(a, np.conj(a[::-1]), atol=1e-12)


class TestEdgeScale:
    def test_huffman_value(self):
        # oracle: -a_K/(K+1) read off a Huffman codeword's autocorrelation
        assert aacf_edge_scale(ConstellationParams(8, 1.176)) == pytest.approx(
            0.2543565335093761, abs=1e-12
        )

    def test_k2_closed_form(self):
        assert aacf_edge_scale(ConstellationParams(2, 2.0)) == pytest.approx(4 / 17)

    def test_jutted_matches_aacf(self):
        p = ConstellationParams(8, 1.176, 1.15)
        x = zeros_to_coeffs(encode_bits(np.random.default_rng(9).integers(0, 2, 8), p))
        oracle = -aacf(x)[-1].real / 9.0
        assert aacf_edge_scale(p) == pytest.approx(oracle, abs=1e-9)

    def test_reduction_to_huffman(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(2, 65))
            r = float(rng.uniform(1.005, 1.8))
            got = aacf_edge_scale(ConstellationParams(k, r))
            ref = 1.0 / (r**k + r**-k)
            assert got == pytest.approx(ref, rel=1e-12)


class TestPowerSpectrum:
    def test_huffman_peak(self):
        p = ConstellationParams(8, 1.176)
        eta = aacf_edge_scale(p)
        assert power_spectrum(p, np.pi / 8) == pytest.approx(9 * (1 + 2 * eta), rel=1e-12)

    def test_mean_is_energy(self):
        omega = 2 * np.pi * np.arange(4096) / 4096
        for params in (FIG2, ConstellationParams(16, 1.093, 1.15)):
            mean = np.mean(power_spectrum(params, omega))
            assert mean == pytest.approx(params.num_zeros + 1, rel=1e-9)

    def test_matches_explicit_codeword(self):
        rng = np.random.default_rng(11)
        x = zeros_to_coeffs(encode_bits(rng.integers(0, 2, 8), FIG2))
        omega = np.linspace(0, 2 * np.pi, 501)
        direct = np.abs(x @ np.exp(1j * np.outer(np.arange(9), omega))) ** 2
        spec = power_spectrum(FIG2, omega)
        np.testing.assert_allclose(spec, direct, rtol=1e-8)

    def test_positive_on_dense_grid(self):
        omega = 2 * np.pi * np.arange(4096) / 4096
        for params in (FIG2, ConstellationParams(64, 1.029, 1.072),
                       ConstellationParams(127, 1.018, 1.03),
                       ConstellationParams(4, 1.6)):
            assert np.all(power_spectrum(params, omega) >= 0)

    def test_closed_form_aacf_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for k, r, zeta in [(8, 1.176, 1.15), (12, 1.1, 1.0), (16, 1.093, 1.3)]:
            p = ConstellationParams(k, r, zeta)
            x = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
            np.testing.assert_allclose(aacf_closed_form(p), brute_force_aacf(x), atol=1e-9)


class TestHuffmanClosedForms:
    """aacf_edge_scale and power_spectrum once kept a zeta == 1 branch each;
    their general formulas give those closed forms bit for bit."""

    @pytest.mark.parametrize("k, r, n", [(2, 1.0001, 64), (3, 5.0, 64), (8, 1.176, 1024),
                                         (31, 1.05, 1000), (64, 1.029, 1024),
                                         (127, 1.018, 8192), (500, 1.0001, 1024)])
    def test_general_formulas_equal_the_huffman_closed_forms(self, k, r, n):
        params = ConstellationParams(k, r)
        eta = 1.0 / (r**k + r**-k)
        assert aacf_edge_scale(params) == eta
        omega = 2.0 * np.pi * np.arange(n) / n
        power = float(k + 1) * (1.0 - 2.0 * eta * np.cos(k * omega))
        samples = make_template(params, n).samples
        assert samples.tobytes() == np.sqrt(np.maximum(power, 0.0)).tobytes()

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            aacf_edge_scale(ConstellationParams(500, 5.0))


class TestTemplate:
    def test_huffman_periodicity(self):
        t = make_template(ConstellationParams(8, 1.176), 1024)
        np.testing.assert_allclose(t.samples, np.roll(t.samples, 1024 // 8), atol=1e-9)

    def test_jutted_peak_at_origin(self):
        t = make_template(ConstellationParams(16, 1.093, 1.15), 1024)
        assert int(np.argmax(t.samples)) == 0
        assert t.samples[0] > 1.5 * np.median(t.samples)

    def test_matches_oversampled_codeword(self):
        p = ConstellationParams(8, 1.176, 1.15)
        x = zeros_to_coeffs(encode_bits(np.random.default_rng(13).integers(0, 2, 8), p))
        t = make_template(p, 512)
        mags = 512 * np.abs(np.fft.ifft(x, 512))
        np.testing.assert_allclose(t.samples, mags, atol=1e-9)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            make_template(FIG2, 17)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    def test_encode_expand_root_demap(self, k, seed):
        rng = np.random.default_rng(seed)
        p = ConstellationParams(k, default_radius(k), 1.0 if k % 2 else 1.08)
        bits = rng.integers(0, 2, k)
        x = zeros_to_coeffs(encode_bits(bits, p))
        np.testing.assert_array_equal(demap_zeros(coeffs_to_zeros(x), p), bits)
