"""Reliability metric and constellation parameter optimization tests."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbmocz import experiments
from jbmocz.experiments import DesignCurvesConfig, run_design_curves
from jbmocz.phy import papr_fm
from jbmocz.stability import (
    BLOCK_VALUES,
    ON_GRID_DISTANCE,
    _check_roots,
    _grid_log_distance,
    _grid_power,
    codebook_stability,
    deflate,
    min_codebook_stability,
    optimize_radius,
    poly_stability,
    reliability_profile,
)
from jbmocz.zeros import (
    ConstellationParams,
    default_radius,
    encode_bits,
    encode_coeffs,
    zeros_to_coeffs,
)


def wilkinson_unit_norm():
    coeffs = [1]
    for k in range(1, 21):
        coeffs = [0] + coeffs
        coeffs = [a - k * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    w = np.array(coeffs, dtype=float)
    return w / np.linalg.norm(w)


def unit_codeword(bits, params):
    zeros = encode_bits(np.asarray(bits), params)
    return zeros_to_coeffs(zeros, energy=1.0), zeros


def deflated_profile(coeffs, roots, grid=1024):
    """Reference profile: deflate at every root, then transform each
    quotient onto the grid."""
    quotients = deflate(np.asarray(coeffs)[..., None, :], roots)
    power = np.abs(grid * np.fft.ifft(quotients, n=grid, axis=-1)) ** 2
    return np.mean(np.log2(1.0 + power), axis=-1)


def row_block_profile(coeffs, roots, grid_size=1024):
    """Reference profile: |w_n - alpha|^2 + |X(w_n)|^2 formed anew for
    every (row, zero) pair, in blocks of whole rows, with the same
    arithmetic per value as reliability_profile."""
    coeffs = np.asarray(coeffs, dtype=complex)
    roots = np.asarray(roots, dtype=complex)
    lead = np.broadcast_shapes(coeffs.shape[:-1], roots.shape[:-1])
    k = roots.shape[-1]
    coeffs = np.broadcast_to(coeffs, lead + coeffs.shape[-1:]).reshape(-1, coeffs.shape[-1])
    roots = np.broadcast_to(roots, lead + (k,)).reshape(-1, k)
    _check_roots(coeffs, roots)

    grid = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    nearest = np.rint(np.angle(roots) * grid_size / (2 * np.pi)).astype(int) % grid_size
    on_grid = np.abs(roots - grid[nearest]) < ON_GRID_DISTANCE
    spectral = np.where(on_grid, 0.0, roots)

    power = _grid_power(coeffs, grid_size)
    sums = np.empty(roots.shape)
    step = max(1, BLOCK_VALUES // (k * grid_size))
    for start in range(0, len(roots), step):
        block = spectral[start : start + step, :, None]
        values = (grid.real - block.real) ** 2
        values += (grid.imag - block.imag) ** 2
        values += power[start : start + step, None, :]
        sums[start : start + step] = np.log2(values).sum(axis=-1)
    scores = (sums - _grid_log_distance(spectral, grid_size)) / grid_size

    rows, cols = np.nonzero(on_grid)
    if rows.size:
        quotients = deflate(coeffs[rows], roots[rows, cols])
        scores[rows, cols] = np.mean(np.log2(1.0 + _grid_power(quotients, grid_size)), axis=-1)
    return scores.reshape(lead + (k,))


def spread_zeros(rng, rows, k, radii, phases):
    """(rows, k) zeros at radius radii[row] or its inverse (random per
    zero), at phases 2 pi j/k + phases[row]."""
    flip = rng.choice([-1.0, 1.0], (rows, k))
    angles = 2 * np.pi * np.arange(k) / k + phases[:, None]
    return np.asarray(radii)[:, None] ** flip * np.exp(1j * angles)


@st.composite
def profile_stacks(draw):
    """(coeffs, roots) stacks of every layout reliability_profile accepts."""
    layout = draw(st.sampled_from(["codebook", "distinct", "grid", "broadcast", "single",
                                   "empty"]))
    k = draw(st.integers(1, 256))
    rows = draw(st.integers(2, max(2, 2048 // k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "empty":
        return np.zeros((0, k + 1), dtype=complex), np.zeros((0, k), dtype=complex)
    if layout == "single":
        zeros = spread_zeros(rng, 1, k, [draw(st.floats(1.001, 1.1))], np.zeros(1))[0]
        return zeros_to_coeffs(zeros, energy=1.0), zeros
    if layout == "codebook":
        # rows share the 2K constellation points
        params = ConstellationParams(max(k, 2), draw(st.floats(1.001, 1.1)),
                                     draw(st.floats(1.0, 1.2)))
        bits = rng.integers(0, 2, (rows, params.num_zeros))
        return encode_coeffs(bits, params, energy=1.0), encode_bits(bits, params)
    if layout == "distinct":
        # every row has its own radius and phase, so no two roots coincide
        zeros = spread_zeros(rng, rows, k, 1.001 + 0.1 * rng.random(rows),
                             rng.uniform(0, 2 * np.pi, rows))
        return zeros_to_coeffs(zeros, energy=1.0), zeros
    if layout == "grid":
        # zeros on, or within or just beyond ON_GRID_DISTANCE of, points of
        # the 1024-point grid, on a few shared phases
        k = min(k, 64)
        offsets = np.array([0.0, 1e-7, 5e-5, 2e-4, 1e-3])[rng.integers(0, 5, rows)]
        zeros = spread_zeros(rng, rows, k, 1.0 + offsets,
                             2 * np.pi * rng.integers(0, 4, rows) / 1024)
        return zeros_to_coeffs(zeros, energy=1.0), zeros
    # (a, 1, K+1) codewords against (a, b, K) orderings of their zeros
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = ConstellationParams(max(k, 2), draw(st.floats(1.001, 1.1)))
    bits = rng.integers(0, 2, (a, params.num_zeros))
    zeros = encode_bits(bits, params)
    orders = np.argsort(rng.random((a, b, params.num_zeros)), axis=-1)
    roots = np.take_along_axis(zeros[:, None, :], orders, axis=-1)
    return encode_coeffs(bits, params, energy=1.0)[:, None, :], roots


class TestDeflate:
    def test_hand_case(self):
        x = np.array([6.0, -5.0, 1.0])
        x = x / np.linalg.norm(x)
        h = deflate(x, 2.0)
        # quotient proportional to (z - 3)
        assert h[1] * -3.0 == pytest.approx(h[0], rel=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for k in (8, 32, 64):
            params = ConstellationParams(k, default_radius(k), 1.1)
            coeffs, zeros = unit_codeword(rng.integers(0, 2, k), params)
            for idx in (0, k // 2, k - 1):
                h = deflate(coeffs, zeros[idx])
                rebuilt = np.convolve(h, [-zeros[idx], 1.0])
                np.testing.assert_allclose(rebuilt, coeffs, atol=1e-8)

    def test_degree_bookkeeping(self):
        params = ConstellationParams(8, 1.176)
        coeffs, zeros = unit_codeword(np.ones(8, dtype=int), params)
        quotients = deflate(coeffs[None, :], zeros)
        assert quotients.shape == (8, 8)
        assert len({tuple(np.round(q, 9)) for q in quotients}) == 8

    def test_non_root_rejected(self):
        x = np.array([6.0, -5.0, 1.0]) / np.linalg.norm([6.0, -5.0, 1.0])
        with pytest.raises(ArithmeticError):
            deflate(x, 2.5)

    def test_outer_roots_stable_at_k256(self):
        # forward division by |root| = 1.5 amplified rounding by 1.5^256
        coeffs, zeros = unit_codeword(np.random.default_rng(1).integers(0, 2, 256),
                                      ConstellationParams(256, 1.5))
        quotients = deflate(coeffs[None, :], zeros)
        for root, h in zip(zeros, quotients):
            np.testing.assert_allclose(np.convolve(h, [-root, 1.0]), coeffs, atol=1e-12)
        assert np.mean(deflated_profile(coeffs, zeros)) == pytest.approx(0.9289, abs=1e-4)


class TestZeroReliability:
    def test_monomial_edge_case(self):
        # X(z) = z: deflating its single root leaves the constant 1
        assert reliability_profile(np.array([0.0, 1.0]), np.array([0.0]))[..., 0] == pytest.approx(1.0)

    def test_two_methods_agree(self):
        rng = np.random.default_rng(1)
        params = ConstellationParams(8, 1.176, 1.15)
        coeffs, zeros = unit_codeword(rng.integers(0, 2, 8), params)
        grid = 1024
        h = deflate(coeffs, zeros[3])
        direct = np.array([
            abs(np.sum(h * np.exp(2j * np.pi * n / grid) ** np.arange(8))) ** 2
            for n in range(grid)
        ])
        expected = np.mean(np.log2(1.0 + direct))
        assert reliability_profile(coeffs, zeros)[..., 3] == pytest.approx(expected, abs=1e-9)

    def test_jutted_zero_least_stable(self):
        params = ConstellationParams(8, 1.176, 1.15)
        coeffs, zeros = unit_codeword([1, 0, 1, 1, 1, 0, 0, 1], params)
        profile = reliability_profile(coeffs, zeros)
        assert int(np.argmin(profile)) == 0

    def test_phase_invariance(self):
        rng = np.random.default_rng(2)
        params = ConstellationParams(8, 1.176, 1.15)
        coeffs, zeros = unit_codeword(rng.integers(0, 2, 8), params)
        rotated = coeffs * np.exp(1j * 0.73)
        np.testing.assert_allclose(
            reliability_profile(rotated, zeros), reliability_profile(coeffs, zeros),
            atol=1e-9,
        )


class TestSpectralProfile:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 256), radius=st.floats(1.001, 1.1), zeta=st.floats(1.0, 1.2),
           seed=st.integers(0, 2**32 - 1), phase=st.floats(0.0, 2 * np.pi))
    def test_matches_stable_deflation(self, k, radius, zeta, seed, phase):
        # The synthesized coefficients leave |X(alpha_k)| near 2e-12 at large
        # K, so spectral division and deflation define values up to 2.5e-12
        # apart.  Each zero k is therefore scored on P_k = Q_k (z - alpha_k),
        # Q_k the stable quotient, which has alpha_k as a root to working
        # precision, and both paths see that one polynomial.
        bits = np.random.default_rng(seed).integers(0, 2, k)
        coeffs, zeros = unit_codeword(bits, ConstellationParams(k, radius, zeta))
        quotients = deflate(coeffs * np.exp(1j * phase), zeros)
        products = np.zeros((k, k + 1), dtype=complex)
        products[:, 1:] = quotients
        products[:, :-1] -= zeros[:, None] * quotients
        np.testing.assert_allclose(reliability_profile(products, zeros[:, None]),
                                   deflated_profile(products, zeros[:, None]),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stack=profile_stacks())
    def test_equals_row_block_reference(self, stack):
        coeffs, roots = stack
        profile = reliability_profile(coeffs, roots)
        expected = row_block_profile(coeffs, roots)
        assert profile.shape == expected.shape
        assert np.array_equal(profile, expected)

    @pytest.mark.parametrize("layout", ["codebook", "distinct"])
    def test_working_set_bounded(self, layout):
        # The distance table and chunk buffers hold BLOCK_VALUES values, the
        # per-pair indices and scores a few more; the zero-padded transform
        # briefly holds three times the (rows, N) power array.  The 300x32
        # stack's distinct roots would need a 78 MB table if built at once.
        rng = np.random.default_rng(6)
        if layout == "codebook":
            params = ConstellationParams(128, 1.015)
            bits = rng.integers(0, 2, (66, 128))
            coeffs, zeros = encode_coeffs(bits, params, energy=1.0), encode_bits(bits, params)
        else:
            zeros = spread_zeros(rng, 300, 32, 1.001 + 0.1 * rng.random(300),
                                 rng.uniform(0, 2 * np.pi, 300))
            coeffs = zeros_to_coeffs(zeros, energy=1.0)
        reliability_profile(coeffs, zeros)
        bound = 2 * BLOCK_VALUES * 8 + 3 * len(coeffs) * 1024 * 8
        tracemalloc.start()
        try:
            reliability_profile(coeffs, zeros)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("k, rows", [(8, 40), (200, 3)])
    def test_stack_equals_rows(self, k, rows):
        # K=8: 40 rows share 16 roots over several pair chunks; K=200: the
        # roots span several blocks of distinct roots
        bits = np.random.default_rng(4).integers(0, 2, (rows, k))
        coeffs, zeros = unit_codeword(bits, ConstellationParams(k, 1.02, 1.1))
        stacked = reliability_profile(coeffs, zeros)
        assert stacked.shape == (rows, k)
        for c, z, row in zip(coeffs, zeros, stacked):
            np.testing.assert_allclose(row, reliability_profile(c, z), rtol=0, atol=1e-15)

    def test_finite_at_k256_wide_radius(self):
        params = ConstellationParams(256, 1.5)
        bits = np.vstack([np.ones(256, dtype=int), np.zeros(256, dtype=int),
                          np.random.default_rng(5).integers(0, 2, (4, 256))])
        coeffs, zeros = unit_codeword(bits, params)
        assert np.all(np.isfinite(reliability_profile(coeffs, zeros)))

    @pytest.mark.parametrize("offset", [0.0, 1e-7, 5e-5, 2e-4, 1e-3])
    def test_roots_on_and_near_grid_match_deflation(self, offset):
        # zeros 0 and 1 sit on (or offset from) points of the 1024-point grid
        on_grid = np.exp(2j * np.pi * np.array([0, 37]) / 1024) * (1.0 + offset)
        zeros = np.concatenate([on_grid, [0.5j, 1.3 - 0.4j, -0.9]])
        coeffs = zeros_to_coeffs(zeros, energy=1.0)
        profile = reliability_profile(coeffs, zeros)
        assert np.all(np.isfinite(profile))
        np.testing.assert_allclose(profile, deflated_profile(coeffs, zeros), rtol=0, atol=1e-12)

    def test_wilkinson_matches_deflation(self):
        roots = np.arange(1, 21, dtype=complex)
        w = wilkinson_unit_norm()
        np.testing.assert_allclose(reliability_profile(w, roots), deflated_profile(w, roots),
                                   rtol=0, atol=1e-10)

    def test_non_root_rejected(self):
        coeffs, zeros = unit_codeword(np.ones(8, dtype=int), ConstellationParams(8, 1.176))
        wrong = zeros.copy()
        wrong[3] *= 1.01
        with pytest.raises(ArithmeticError):
            reliability_profile(coeffs, wrong)
        with pytest.raises(ArithmeticError):
            poly_stability(coeffs, wrong)
        stack = np.vstack([zeros, wrong])
        with pytest.raises(ArithmeticError):
            reliability_profile(np.vstack([coeffs, coeffs]), stack)


class TestPolyStability:
    def test_huffman_extremes(self):
        params = ConstellationParams(8, 1.176)
        inside, z_in = unit_codeword(np.zeros(8, dtype=int), params)
        outside, z_out = unit_codeword(np.ones(8, dtype=int), params)
        assert poly_stability(inside, z_in) == pytest.approx(1.250, abs=0.005)
        assert poly_stability(outside, z_out) == pytest.approx(1.048, abs=0.005)

    def test_wilkinson(self):
        value = poly_stability(wilkinson_unit_norm(), np.arange(1, 21, dtype=complex))
        assert value == pytest.approx(0.0381, abs=0.002)

    def test_roots_computed_when_missing(self):
        params = ConstellationParams(8, 1.176)
        coeffs, zeros = unit_codeword(np.ones(8, dtype=int), params)
        assert poly_stability(coeffs) == pytest.approx(poly_stability(coeffs, zeros), abs=1e-6)


class TestCodebookStability:
    def test_exact_enumeration_reference_value(self):
        value = codebook_stability(ConstellationParams(8, 1.176))
        assert value == pytest.approx(1.149, abs=0.005)

    def test_k64_jutted_vs_huffman(self):
        # 8.5 dB-template design trades a little stability for asymmetry
        huff = codebook_stability(ConstellationParams(64, default_radius(64)),
                                  samples=256, seed=7)
        jutted = codebook_stability(ConstellationParams(64, 1.029, 1.072),
                                    samples=256, seed=7)
        assert jutted < huff
        assert huff == pytest.approx(1.337, abs=0.01)
        assert jutted == pytest.approx(1.305, abs=0.01)

    def test_exhaustive_sample_equals_exact(self):
        params = ConstellationParams(6, 1.25, 1.1)
        exact = codebook_stability(params)
        sampled = codebook_stability(params, samples=4096, seed=1)
        assert sampled == pytest.approx(exact, abs=0.01)

    def test_exact_refused_for_large_k(self):
        with pytest.raises(ValueError):
            codebook_stability(ConstellationParams(17, 1.1))


class TestMinCodebookStability:
    def test_equals_all_outside(self):
        params = ConstellationParams(8, 1.176)
        outside, z_out = unit_codeword(np.ones(8, dtype=int), params)
        assert min_codebook_stability(params) == pytest.approx(
            poly_stability(outside, z_out), abs=1e-12
        )

    @pytest.mark.parametrize("k", [8, 10, 12])
    def test_fast_path_matches_exhaustive(self, k):
        params = ConstellationParams(k, default_radius(k), 1.08)
        exact = min_codebook_stability(params, exact=True)
        fast = min_codebook_stability(params, exact=False)
        assert fast == pytest.approx(exact, abs=1e-12)

    def test_extremes_bracket_codebook(self):
        # argmin/argmax over the exhaustive codebook are the all-outside and
        # all-inside codewords
        for k in (8, 10):
            params = ConstellationParams(k, default_radius(k))
            inside, z_in = unit_codeword(np.zeros(k, dtype=int), params)
            outside, z_out = unit_codeword(np.ones(k, dtype=int), params)
            lo, hi = poly_stability(outside, z_out), poly_stability(inside, z_in)
            assert min_codebook_stability(params, exact=True) == pytest.approx(lo, abs=1e-12)
            rng = np.random.default_rng(3)
            for _ in range(25):
                c, z = unit_codeword(rng.integers(0, 2, k), params)
                assert lo - 1e-12 <= poly_stability(c, z) <= hi + 1e-12


class TestOptimizeRadius:
    def test_grid_argmax_contract(self):
        grid = np.arange(1.1, 1.6, 0.02)
        with pytest.warns(RuntimeWarning, match=r"K=8, zeta=1\.0: .* first radius"):
            best = optimize_radius(8, 1.0, grid)
        scores = [min_codebook_stability(ConstellationParams(8, float(r))) for r in grid]
        assert best == grid[int(np.argmax(scores))]

    def test_tie_breaks_to_smaller(self):
        with pytest.warns(RuntimeWarning, match=r"K=8, zeta=1\.0: .* first radius"):
            assert optimize_radius(8, 1.0, [1.25, 1.25]) == 1.25

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            optimize_radius(8, 1.0, [])

    def test_grid_edge_warns(self):
        # at K=8 the minimum stability falls with R, so the grid's lower
        # edge wins; the result is unchanged, only reported
        grid = np.arange(1.005, 1.055, 0.005)
        with pytest.warns(RuntimeWarning, match=r"K=8, zeta=1\.0: .* first radius"):
            best = optimize_radius(8, 1.0, grid)
        assert best == grid[0]

    def test_interior_optimum_does_not_warn(self):
        # criterion 2's R*(128, 1) = 1.015 lies inside its grid
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            best = optimize_radius(128, 1.0, np.arange(1.005, 1.0305, 0.001))
        assert abs(best - 1.015) <= 0.003



class TestAsymmetrySweep:
    """The design-curve sweep over zeta: R* by optimize_radius, then the
    minimum codebook stability at R* and the template PAPR."""

    def test_monotone_trade_off(self):
        # K=32, where every R* lies inside the grid (1.036, 1.035, 1.044),
        # so the trade-off compares optima, not grid edges
        grid = np.arange(1.020, 1.0605, 0.001)
        stab, papr = [], []
        for zeta in (1.0, 1.06, 1.15):
            params = ConstellationParams(32, optimize_radius(32, zeta, grid), zeta)
            stab.append(min_codebook_stability(params))
            papr.append(papr_fm(params)[0])
        assert all(a >= b for a, b in zip(stab, stab[1:]))
        assert all(a <= b for a, b in zip(papr, papr[1:]))

    def test_single_point_matches_optimize(self, monkeypatch):
        # a short grid around R*(32, 1.15) = 1.044, searched once: the row
        # reports what optimize_radius returned
        searches = []

        def search(*args, **kwargs):
            searches.append(optimize_radius(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(experiments, "RADIUS_GRID", np.arange(1.040, 1.0485, 0.001))
        monkeypatch.setattr(experiments, "optimize_radius", search)
        rows = run_design_curves(DesignCurvesConfig(num_zeros=32, asymmetry=(1.15,), seed=0))
        by = {r.metric: r.value for r in rows}
        assert len(rows) == 3 and {r.param_value for r in rows} == {1.15}
        assert searches == [by["r_star"]] and by["r_star"] == pytest.approx(1.044)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            DesignCurvesConfig(asymmetry=())
        with pytest.raises(ValueError):
            optimize_radius(8, 1.1, [])
