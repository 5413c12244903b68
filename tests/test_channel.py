"""Impairment simulation tests: CIR draws, convolution, OFDM sample channel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from jbmocz.channel import (
    BLOCK_VALUES,
    ImpairmentSpec,
    add_noise,
    apply_ofdm_channel,
    complex_noise,
    convolve_channel,
    draw_cir,
    ebn0_to_noise_var,
)
from jbmocz.phy import OfdmConfig, ofdm_demodulate, ofdm_modulate
from jbmocz.zeros import ConstellationParams, encode_bits, zeros_to_coeffs


class TestDrawCir:
    def test_single_tap_unit_power(self):
        rng = np.random.default_rng(0)
        taps = np.array([draw_cir(1, rng)[0] for _ in range(10000)])
        assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_uniform_profile_tap_power(self):
        rng = np.random.default_rng(1)
        taps = np.stack([draw_cir(5, rng) for _ in range(10000)])
        np.testing.assert_allclose(np.mean(np.abs(taps) ** 2, axis=0), 0.2, rtol=0.05)

    def test_exponential_profile(self):
        rng = np.random.default_rng(2)
        taps = np.stack([draw_cir(6, rng, profile="exp") for _ in range(20000)])
        power = np.mean(np.abs(taps) ** 2, axis=0)
        assert np.sum(power) == pytest.approx(1.0, rel=0.05)
        assert np.all(np.diff(power) < 0)

    def test_seeded_reproducibility(self):
        a = draw_cir(4, np.random.default_rng(42))
        b = draw_cir(4, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            draw_cir(0, rng)
        with pytest.raises(ValueError):
            draw_cir((4, 0), rng)
        with pytest.raises(ValueError):
            draw_cir(3, rng, profile="bogus")

    @pytest.mark.parametrize("num_taps", range(1, 9))
    def test_stacked_equals_inline_draw(self, num_taps):
        # a (codewords, taps) stack is the equal-power draw the sequence
        # runner used to make inline, bit for bit
        rng = np.random.default_rng(num_taps)
        inline = rng.normal(size=(300, num_taps)) + 1j * rng.normal(size=(300, num_taps))
        inline *= np.sqrt(1.0 / (2 * num_taps))
        stacked = draw_cir((300, num_taps), np.random.default_rng(num_taps))
        assert stacked.shape == (300, num_taps)
        assert np.array_equal(stacked, inline)

    @pytest.mark.parametrize("profile", ["uniform", "exp"])
    def test_int_form_keeps_packet_stream(self, profile):
        # the OFDM runner draws one response per packet, between other
        # draws; the int form keeps the stream of the one-response draw
        num_taps = 5
        power = np.exp(-np.arange(num_taps) / 3.0) if profile == "exp" else np.ones(num_taps)
        power /= power.sum()
        rng, old = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(4):
            expected = old.normal(size=num_taps) + 1j * old.normal(size=num_taps)
            expected *= np.sqrt(power / 2.0)
            assert np.array_equal(draw_cir(num_taps, rng, profile=profile), expected)
            assert np.array_equal(rng.normal(size=3), old.normal(size=3))


class TestComplexNoise:
    @pytest.mark.parametrize("shape", [7, (33, 32), (3, 223, 5), (0, 4), ()])
    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_stream_of_two_draws(self, shape, seed):
        # the one draw of (2,) + shape keeps the numbers of the two draws it
        # replaced, real parts first
        rng = np.random.default_rng(seed)
        scale = np.sqrt(0.3 / 2.0)
        two_draws = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        one_draw = complex_noise(shape, 0.3, np.random.default_rng(seed))
        assert one_draw.shape == two_draws.shape and one_draw.dtype == complex
        assert np.array_equal(one_draw, two_draws)

    @settings(max_examples=100, deadline=None)
    @given(shape=array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=7),
           variance=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_unit_noise_scales_to_any_variance(self, shape, variance, seed, data):
        # the float view of the unit noise (variance 2, scale exactly 1)
        # times sqrt(v / 2) is the noise of variance v from the same stream,
        # bit for bit (signed zeros included); reshaped to another shape of
        # as many elements, it is that shape's noise (ber_ofdm's tm layout)
        unit = complex_noise(shape, 2.0, np.random.default_rng(seed)).reshape(-1)
        scaled = (unit.view(float) * np.sqrt(variance / 2.0)).view(complex)
        expected = complex_noise(shape, variance, np.random.default_rng(seed))
        assert scaled.tobytes() == expected.tobytes()
        size = expected.size
        side = data.draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0] or [0]))
        other = (side, size // side) if side else (0, 3)
        expected = complex_noise(other, variance, np.random.default_rng(seed))
        assert scaled.reshape(other).tobytes() == expected.tobytes()


class TestConvolveChannel:
    def test_identity_tap(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        np.testing.assert_allclose(convolve_channel(x, [1.0], 0.0, rng), x, atol=1e-12)

    def test_data_zeros_survive(self):
        rng = np.random.default_rng(5)
        params = ConstellationParams(16, 1.09, 1.1)
        zeros = encode_bits(rng.integers(0, 2, 16), params)
        x = zeros_to_coeffs(zeros)
        taps = draw_cir(4, rng)
        y = convolve_channel(x, taps, 0.0, rng)
        evals = y @ (zeros[None, :] ** np.arange(len(y))[:, None])
        scale = np.sum(np.abs(y)[:, None] * np.abs(zeros[None, :]) ** np.arange(len(y))[:, None], axis=0)
        np.testing.assert_allclose(np.abs(evals) / scale, 0.0, atol=1e-8)

    def test_noise_only_variance(self):
        rng = np.random.default_rng(6)
        y = convolve_channel(np.zeros((100, 9), dtype=complex), [1.0], 0.25, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.05)

    def test_energy_preserved_by_unit_tap(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=33) + 1j * rng.normal(size=33)
        y = convolve_channel(x, [1.0], 0.0, rng)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-10)

    def test_output_length(self):
        rng = np.random.default_rng(8)
        y = convolve_channel(np.ones((3, 9), dtype=complex), np.ones((3, 5)), 0.0, rng)
        assert y.shape == (3, 13)


def whole_stack_complex_noise(shape, variance, rng):
    """complex_noise before the row blocks: one normal draw of (2,) + shape,
    each half times sqrt(variance / 2)."""
    try:
        shape = tuple(shape)
    except TypeError:  # an int
        shape = (shape,)
    scale = np.sqrt(variance / 2.0)
    draws = rng.normal(size=(2,) + shape)
    noise = np.empty(shape, dtype=complex)
    np.multiply(draws[0], scale, out=noise.real)
    np.multiply(draws[1], scale, out=noise.imag)
    return noise


def whole_stack_convolve(coeffs, taps, noise_var, rng):
    """convolve_channel before the row blocks: each tap's product with the
    whole stack, then out + noise."""
    coeffs = np.asarray(coeffs, dtype=complex)
    taps = np.asarray(taps, dtype=complex)
    out_len = coeffs.shape[-1] + taps.shape[-1] - 1
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], taps.shape[:-1]) + (out_len,),
                   dtype=complex)
    for l in range(taps.shape[-1]):
        out[..., l : l + coeffs.shape[-1]] += taps[..., l, None] * coeffs
    if noise_var > 0:
        out = out + whole_stack_complex_noise(out.shape, noise_var, rng)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def block_edge_counts(block):
    """Counts of 0, 1 and either side of one and of several blocks."""
    return [0, 1, block - 1, block, block + 1, 3 * block + 7]


@st.composite
def split_rows(draw, rows, layout):
    """The leading dims of `rows` rows in a layout: (), (R,) or (a, b)."""
    if layout == 1:
        return ()
    if layout == 2 or rows == 0:
        return (rows,) if layout == 2 else draw(st.sampled_from([(0, 3), (2, 0)]))
    a = draw(st.sampled_from([d for d in range(1, min(rows, 64) + 1) if rows % d == 0]))
    return (a, rows // a)


class TestBlockedChannel:
    """The row-blocked channel against the whole-stack code it replaced,
    bit for bit, generator state included."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 256), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_convolve_matches_whole_stack(self, k, data, seed):
        num_taps = data.draw(st.one_of(st.integers(1, 6), st.integers(k + 2, k + 4)))
        block = max(1, BLOCK_VALUES // (k + num_taps))
        layout = data.draw(st.sampled_from([1, 2, 3]))
        rows = data.draw(st.sampled_from(block_edge_counts(block))) if layout > 1 else 1
        lead = data.draw(split_rows(rows, layout))
        shared = data.draw(st.sampled_from(["taps", "coeffs", "neither"]))
        noise_var = data.draw(st.sampled_from([0.0, 0.3, 7.5]))
        rng = np.random.default_rng(seed)
        coeff_shape = (k + 1,) if shared == "coeffs" else lead + (k + 1,)
        tap_shape = (num_taps,) if shared == "taps" else lead + (num_taps,)
        coeffs = rng.standard_normal(coeff_shape) + 1j * rng.standard_normal(coeff_shape)
        taps = rng.standard_normal(tap_shape) + 1j * rng.standard_normal(tap_shape)
        old, new = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = whole_stack_convolve(coeffs, taps, noise_var, old)
        assert same_bits(convolve_channel(coeffs, taps, noise_var, new), expected)
        assert new.bit_generator.state == old.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(block_edge_counts(BLOCK_VALUES) + [7, 33 * 32]),
           layout=st.sampled_from([2, 3]), variance=st.sampled_from([0.0, 0.3, 2.0, 1e6]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_add_noise_matches_whole_stack(self, size, layout, variance, seed, data):
        shape = data.draw(split_rows(size, layout)) + (2,)
        rng = np.random.default_rng(seed)
        out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        old, new = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = out + whole_stack_complex_noise(shape, variance, old)
        assert add_noise(out, variance, new) is out
        assert same_bits(out, expected)
        assert new.bit_generator.state == old.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(shape=array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=40),
           variance=st.sampled_from([0.0, 0.3, 2.0]), seed=st.integers(0, 2**32 - 1))
    def test_complex_noise_matches_whole_stack(self, shape, variance, seed):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = whole_stack_complex_noise(shape, variance, old)
        noise = complex_noise(shape, variance, new)
        assert noise.shape == expected.shape and np.array_equal(noise, expected)
        assert new.bit_generator.state == old.bit_generator.state

    def test_peak_memory_bound(self):
        # the output and block-sized buffers (1.11x); the whole-stack code
        # peaked at 3.00x the output's bytes
        rng = np.random.default_rng(13)
        coeffs = rng.standard_normal((4096, 65)) + 1j * rng.standard_normal((4096, 65))
        taps = (rng.standard_normal((4096, 5)) + 1j * rng.standard_normal((4096, 5))) / np.sqrt(10)
        tracemalloc.start()
        try:
            out = convolve_channel(coeffs, taps, 0.3, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("out", [
        np.zeros((4, 6), dtype=complex)[:, ::2],
        np.zeros((4, 6), dtype=complex).T,
        np.zeros((4, 6)),
        np.zeros((4, 6), dtype=np.complex64),
        np.zeros((4, 6), dtype=complex).tolist(),
    ], ids=["strided", "transposed", "float", "complex64", "list"])
    def test_add_noise_rejects_arrays_it_cannot_fill(self, out):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            add_noise(out, 0.1, np.random.default_rng(0))

    def test_add_noise_rejects_read_only(self):
        out = np.zeros(5, dtype=complex)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            add_noise(out, 0.1, np.random.default_rng(0))


class TestEbn0Conversion:
    def test_uncoded_rate_one(self):
        assert ebn0_to_noise_var(0.0, 64, 65.0) == pytest.approx(65 / 64)

    def test_ten_db_scales_by_ten(self):
        a = ebn0_to_noise_var(0.0, 16, 33.0)
        b = ebn0_to_noise_var(10.0, 16, 33.0)
        assert a / b == pytest.approx(10.0)

    def test_coded_formula(self):
        x = 7.0
        assert ebn0_to_noise_var(x, 16, 33.0) == pytest.approx(33 / (16 * 10 ** 0.7))

    def test_validation(self):
        with pytest.raises(ValueError):
            ebn0_to_noise_var(0.0, 0, 33.0)
        with pytest.raises(ValueError):
            ebn0_to_noise_var(0.0, 16, -1.0)


class TestApplyOfdmChannel:
    def test_identity_spec(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        y = apply_ofdm_channel(x, np.array([1.0]), ImpairmentSpec(), 1e6)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_integer_delay(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        y = apply_ofdm_channel(x, np.array([1.0]), ImpairmentSpec(timing_offset=5), 1e6)
        np.testing.assert_allclose(y[5:55], x, atol=1e-12)
        np.testing.assert_allclose(y[:5], 0, atol=1e-12)

    def test_subcarrier_gains_match_fft_of_taps(self):
        rng = np.random.default_rng(11)
        cfg = OfdmConfig(64, 8, 1e6, 40, 3)
        grid = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        stream = ofdm_modulate(grid, cfg)
        for _ in range(50):
            taps = draw_cir(5, rng)
            rx = apply_ofdm_channel(stream, taps, ImpairmentSpec(), cfg.sample_rate)
            got = ofdm_demodulate(rx[: cfg.stream_len], cfg)
            gains = np.fft.fft(taps, cfg.idft_size)[:40]
            np.testing.assert_allclose(got, gains[:, None] * grid, atol=1e-8)

    def test_cfo_ramp(self):
        x = np.ones(64, dtype=complex)
        y = apply_ofdm_channel(x, np.array([1.0]), ImpairmentSpec(cfo_hz=1000.0), 64000.0)
        expected = np.exp(2j * np.pi * 1000.0 * np.arange(64) / 64000.0)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_seeded_determinism(self):
        x = np.ones(200, dtype=complex)
        spec = ImpairmentSpec(timing_offset=3, noise_var=0.5)
        a = apply_ofdm_channel(x, np.array([1.0]), spec, 1e6, np.random.default_rng(77))
        b = apply_ofdm_channel(x, np.array([1.0]), spec, 1e6, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            apply_ofdm_channel(np.ones(10, dtype=complex), np.array([1.0]),
                               ImpairmentSpec(noise_var=0.1), 1e6)


class TestImpairmentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImpairmentSpec(noise_var=-1.0)
