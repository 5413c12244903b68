"""Polar construction, encoding and successive-cancellation decoding tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jbmocz.polar import (
    PolarSpec,
    _node_plan,
    _sc_decode,
    polar_construct,
    polar_decode_sc,
    polar_encode,
)


def generator_matrix(n):
    """F^{tensor m} with F = [[1, 0], [1, 1]]: x = u G over GF(2)."""
    g = np.ones((1, 1), dtype=int)
    while len(g) < n:
        g = np.kron(np.array([[1, 0], [1, 1]]), g)
    return g


def _sc_recurse(llrs: np.ndarray, frozen_mask: np.ndarray):
    """Min-sum successive cancellation on (..., m) LLR blocks, leaf by leaf:
    the reference the node decoder must match.

    Returns (u_bits, x_bits): the decided source bits and their re-encoded
    codeword bits for this subtree.
    """
    m = llrs.shape[-1]
    if m == 1:
        if frozen_mask[0]:
            u = np.zeros(llrs.shape[:-1] + (1,), dtype=int)
        else:
            u = (llrs > 0).astype(int)
        return u, u.copy()
    half = m // 2
    a, b = llrs[..., :half], llrs[..., half:]
    # check node: sign-min combine, negated for the positive-means-one
    # convention (the xor of two likely-one bits is likely zero)
    left_llrs = -np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    u_left, x_left = _sc_recurse(left_llrs, frozen_mask[:half])
    # bit node: combine under the known left codeword
    right_llrs = b + (1 - 2 * x_left) * a
    u_right, x_right = _sc_recurse(right_llrs, frozen_mask[half:])
    u = np.concatenate([u_left, u_right], axis=-1)
    x = np.concatenate([x_left ^ x_right, x_right], axis=-1)
    return u, x


@st.composite
def sc_cases(draw):
    """A random frozen set at block length 1-64 and an LLR stack rich in
    exact zeros of both signs, magnitude ties, and huge, tiny and infinite
    values."""
    n = 2 ** draw(st.integers(0, 6))
    mask = draw(arrays(bool, n))
    frozen = tuple(int(i) for i in np.nonzero(mask)[0])
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
                       st.floats(allow_nan=False))
    llrs = draw(arrays(float, (draw(st.integers(1, 6)), n), elements=values))
    return PolarSpec(n, n - len(frozen), frozen), llrs


@pytest.mark.parametrize("call, match", [
    (lambda: PolarSpec(8, 4, (0, 1, 2)), "frozen set size must be block_len - info_len"),
    (lambda: PolarSpec(8, 4, (0, 1, 2, 8)), "frozen indices out of range"),
    (lambda: polar_construct(8, 9), "info length 9 out of range for n=8"),
], ids=["frozen size", "frozen index", "info_len"])
def test_rejects(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestConstruction:
    def test_single_step_freezes_degraded_index(self):
        assert polar_construct(2, 1).frozen == (0,)

    def test_deterministic(self):
        a = polar_construct(32, 16)
        b = polar_construct(32, 16)
        assert a.frozen == b.frozen
        assert len(a.frozen) == 16

    def test_full_rate_identity(self):
        spec = polar_construct(8, 8)
        assert spec.frozen == ()
        msg = np.random.default_rng(0).integers(0, 2, 8)
        llrs = 9.0 * (2 * polar_encode(msg, spec) - 1)
        np.testing.assert_array_equal(polar_decode_sc(llrs, spec), msg)

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            polar_construct(12, 6)
        with pytest.raises(ValueError):
            PolarSpec(12, 6, (0,) * 6)


class TestEncode:
    def test_all_zero(self):
        spec = polar_construct(32, 16)
        np.testing.assert_array_equal(polar_encode(np.zeros(16, dtype=int), spec),
                                      np.zeros(32, dtype=int))

    def test_linearity(self):
        spec = polar_construct(32, 16)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.integers(0, 2, (2, 16))
            np.testing.assert_array_equal(
                polar_encode(a ^ b, spec),
                polar_encode(a, spec) ^ polar_encode(b, spec),
            )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            polar_encode(np.zeros(8, dtype=int), polar_construct(32, 16))

    @pytest.mark.parametrize("dtype", [int, np.uint8, bool])
    def test_generator_matrix_and_dtype(self, dtype):
        spec = polar_construct(32, 16)
        msgs = np.random.default_rng(5).integers(0, 2, (3, 40, 16))
        u = np.zeros((3, 40, 32), dtype=int)
        u[..., spec.info_positions] = msgs
        code = polar_encode(msgs.astype(dtype), spec)
        assert code.dtype == dtype
        np.testing.assert_array_equal(code.astype(int), u @ generator_matrix(32) % 2)


class TestDecode:
    def test_high_confidence_round_trip(self):
        spec = polar_construct(32, 16)
        rng = np.random.default_rng(2)
        msgs = rng.integers(0, 2, (1000, 16))
        llrs = 25.0 * (2 * polar_encode(msgs, spec) - 1)
        np.testing.assert_array_equal(polar_decode_sc(llrs, spec), msgs)

    def test_single_flip_correction(self):
        spec = polar_construct(32, 16)
        rng = np.random.default_rng(3)
        good = 0
        for _ in range(1000):
            msg = rng.integers(0, 2, 16)
            llrs = 20.0 * (2 * polar_encode(msg, spec) - 1)
            llrs[rng.integers(0, 32)] *= -1
            good += np.array_equal(polar_decode_sc(llrs, spec), msg)
        assert good / 1000 > 0.9

    def test_all_zero_llrs_tie_to_zero(self):
        spec = polar_construct(32, 16)
        np.testing.assert_array_equal(polar_decode_sc(np.zeros(32), spec),
                                      np.zeros(16, dtype=int))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            polar_decode_sc(np.zeros(16), polar_construct(32, 16))

    def test_scale_invariance(self):
        spec = polar_construct(32, 16)
        rng = np.random.default_rng(4)
        llrs = rng.normal(size=(200, 32))
        np.testing.assert_array_equal(polar_decode_sc(llrs, spec),
                                      polar_decode_sc(123.0 * llrs, spec))


class TestNodeShortcuts:
    @settings(max_examples=300, deadline=None)
    @given(sc_cases())
    def test_equals_leaf_recursion(self, case):
        # Rate-0, Rate-1 and repetition nodes must decide every bit as the
        # leaf-by-leaf recursion does, in u and in x
        spec, llrs = case
        with np.errstate(over="ignore", invalid="ignore"):
            u, x = _sc_decode(llrs, spec)
            u_ref, x_ref = _sc_recurse(llrs, spec.frozen_mask)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)

    def test_zero_llr_row_falls_back(self):
        # SC decodes (0, 1) to x = (1, 1), not to its hard decision (0, 1)
        rate1 = PolarSpec(2, 2, ())
        np.testing.assert_array_equal(polar_decode_sc([0.0, 1.0], rate1), [0, 1])
        llrs = np.array([[0.0, 1.0], [-3.0, 1.0], [2.0, -0.0]])
        u, x = _sc_decode(llrs, rate1)
        np.testing.assert_array_equal(x, [[1, 1], [0, 1], [1, 1]])
        np.testing.assert_array_equal(u, [[0, 1], [1, 1], [0, 1]])
        # a longer Rate-1 node, split down to its leaves only on tie rows
        rate1 = PolarSpec(8, 8, ())
        llrs = np.random.default_rng(6).normal(size=(6, 8))
        llrs[0, 0] = llrs[1, 7] = llrs[2, 3] = 0.0
        llrs[3, [1, 4]] = -0.0
        llrs[4] = 0.0
        u, x = _sc_decode(llrs, rate1)
        u_ref, x_ref = _sc_recurse(llrs, rate1.frozen_mask)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)
        assert not np.array_equal(x[:4], llrs[:4] > 0)  # the hard decision differs

    def test_node_plan_of_the_32_16_code(self):
        # FFFFFFF.FFF.F...FFF.F...F....... is walked in 19 nodes, not 63
        spec = polar_construct(32, 16)
        assert "".join("F" if f else "." for f in spec.frozen_mask) == \
            "FFFFFFF.FFF.F...FFF.F...F......."

        def count(plan):
            return 1 + (sum(map(count, plan)) if isinstance(plan, tuple) else 0)

        assert count(_node_plan(spec)) == 19
