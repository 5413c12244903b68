"""OFDM framing, synchronization, PAPR and channel-estimation tests."""

import numpy as np
import pytest

from jbmocz.channel import ImpairmentSpec, apply_ofdm_channel, complex_noise
from jbmocz.dizet import dizet_hard
from jbmocz.phy import (
    OfdmConfig,
    build_sync_symbol,
    correct_cfo,
    estimate_channel_blind,
    estimate_noise_var,
    map_fm,
    measured_papr_db,
    ofdm_demodulate,
    ofdm_modulate,
    papr_fm,
    papr_fm_huffman,
    papr_peak_at_dc,
    read_iq,
    sync_search,
    write_iq,
)
from jbmocz.zeros import (
    ConstellationParams,
    default_radius,
    encode_bits,
    power_spectrum,
    zeros_to_coeffs,
)

CFG = OfdmConfig(idft_size=256, cp_len=8, sample_rate=10e6, subcarriers=33, symbols=4)


def random_grid(rng, config=CFG):
    shape = (config.subcarriers, config.symbols)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_codewords(rng, params, n):
    bits = rng.integers(0, 2, (n, params.num_zeros))
    return zeros_to_coeffs(encode_bits(bits, params))


@pytest.mark.parametrize("call, match", [
    (lambda: OfdmConfig(32, 8, 10e6, 33, 4), "more active subcarriers than IDFT bins"),
    (lambda: OfdmConfig(256, -1, 10e6, 33, 4), "negative CP length"),
    (lambda: OfdmConfig(255, 8, 10e6, 33, 4), "IDFT size must be even"),
    (lambda: build_sync_symbol(np.ones(16, dtype=int), ConstellationParams(16, 1.09), 32),
     "sync codeword does not fit on the even subcarriers"),
    (lambda: sync_search(np.zeros(512, dtype=complex), CFG, threshold=1.5),
     r"threshold must be in \(0, 1\], got 1.5"),
    (lambda: papr_peak_at_dc(ConstellationParams(8, 1.1)),
     "condition is posed for asymmetry > 1"),
], ids=["subcarriers", "cp_len", "odd idft_size", "sync fit", "threshold", "papr domain"])
def test_rejects(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestResourceMapping:
    def test_fm_single_codeword(self):
        grid = map_fm(np.array([1.0, 2.0, 3.0]))
        assert grid.shape == (3, 1)
        np.testing.assert_array_equal(grid[:, 0], [1, 2, 3])

    def test_map_demap_identity(self):
        rng = np.random.default_rng(0)
        codewords = random_codewords(rng, ConstellationParams(8, 1.2), 5)
        np.testing.assert_array_equal(map_fm(codewords).T, codewords)

    def test_fm_symbol_evaluates_polynomial(self):
        rng = np.random.default_rng(1)
        params = ConstellationParams(32, 1.048)
        x = random_codewords(rng, params, 1)
        cfg = OfdmConfig(256, 8, 10e6, 33, 1)
        body = ofdm_modulate(map_fm(x), cfg)[cfg.cp_len:]
        direct = x[0] @ np.exp(2j * np.pi * np.outer(np.arange(33), np.arange(256)) / 256)
        np.testing.assert_allclose(body, direct, atol=1e-10)


class TestModulateDemodulate:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng)
        np.testing.assert_allclose(ofdm_demodulate(ofdm_modulate(grid, CFG), CFG),
                                   grid, atol=1e-10)

    def test_dc_tone_is_constant(self):
        cfg = OfdmConfig(64, 4, 1e6, 1, 1)
        stream = ofdm_modulate(np.array([[1.0 + 0j]]), cfg)
        np.testing.assert_allclose(stream, 1.0, atol=1e-12)

    def test_cp_copies_tail(self):
        rng = np.random.default_rng(3)
        stream = ofdm_modulate(random_grid(rng), CFG)
        for m in range(CFG.symbols):
            sym = stream[m * CFG.symbol_len : (m + 1) * CFG.symbol_len]
            np.testing.assert_allclose(sym[: CFG.cp_len], sym[-CFG.cp_len :], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros((5, 5)), CFG)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(100, dtype=complex), CFG)

    def test_timing_offset_phase_model(self):
        # delaying the stream by d <= CP len multiplies cell (l, m) by
        # e^{-j 2 pi l d / N} exactly
        rng = np.random.default_rng(4)
        grid = random_grid(rng)
        stream = ofdm_modulate(grid, CFG)
        for delay in (1, 3, CFG.cp_len):
            shifted = np.concatenate([np.zeros(delay, dtype=complex), stream])
            got = ofdm_demodulate(shifted[: CFG.stream_len], CFG)
            phase = np.exp(-2j * np.pi * np.arange(CFG.subcarriers) * delay / CFG.idft_size)
            np.testing.assert_allclose(got, phase[:, None] * grid, atol=1e-10)


class TestSyncSymbol:
    PARAMS = ConstellationParams(16, 1.09)

    def test_odd_subcarriers_empty(self):
        col = build_sync_symbol(np.ones(16, dtype=int), self.PARAMS, 33)
        assert np.all(col[1::2] == 0)

    def test_half_symbol_repetition(self):
        col = build_sync_symbol(np.random.default_rng(5).integers(0, 2, 16), self.PARAMS, 33)
        cfg = OfdmConfig(256, 8, 10e6, 33, 1)
        body = ofdm_modulate(col[:, None], cfg)[cfg.cp_len :]
        np.testing.assert_allclose(body[:128], body[128:], atol=1e-10)

    def test_header_round_trip(self):
        rng = np.random.default_rng(6)
        header = rng.integers(0, 2, 16)
        col = build_sync_symbol(header, self.PARAMS, 33)
        np.testing.assert_array_equal(dizet_hard(col[0:34:2], self.PARAMS), header)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            build_sync_symbol(np.ones(5, dtype=int), self.PARAMS, 33)


class TestSyncSearch:
    def build_stream(self, rng, cfg, sync_params, payload_params):
        header = rng.integers(0, 2, sync_params.num_zeros)
        col = build_sync_symbol(header, sync_params, cfg.subcarriers)
        payload = map_fm(random_codewords(rng, payload_params, cfg.symbols - 1))
        return ofdm_modulate(np.hstack([col[:, None], payload]), cfg)

    def test_plateau_and_cfo(self):
        rng = np.random.default_rng(7)
        cfg = OfdmConfig(64, 8, 10e6, 17, 4)
        tx = self.build_stream(rng, cfg, ConstellationParams(8, 1.18),
                               ConstellationParams(16, default_radius(16)))
        cfo = 0.3 * cfg.subcarrier_spacing
        rx = apply_ofdm_channel(tx, np.array([1.0]),
                                ImpairmentSpec(timing_offset=100, cfo_hz=cfo),
                                cfg.sample_rate)
        res = sync_search(rx, cfg, 0.99)
        assert 100 <= res.tau_hat <= 100 + cfg.cp_len
        assert abs(res.cfo_hat - cfo) / cfo < 1e-6

    def test_zero_cfo(self):
        rng = np.random.default_rng(8)
        cfg = OfdmConfig(64, 8, 10e6, 17, 4)
        tx = self.build_stream(rng, cfg, ConstellationParams(8, 1.18),
                               ConstellationParams(16, default_radius(16)))
        rx = apply_ofdm_channel(tx, np.array([1.0]),
                                ImpairmentSpec(timing_offset=50), cfg.sample_rate)
        res = sync_search(rx, cfg, 0.99)
        assert abs(res.cfo_hat) < 1e-6 * cfg.subcarrier_spacing

    def test_plateau_metric_flat(self):
        rng = np.random.default_rng(9)
        cfg = OfdmConfig(64, 8, 10e6, 17, 4)
        tx = self.build_stream(rng, cfg, ConstellationParams(8, 1.18),
                               ConstellationParams(16, default_radius(16)))
        rx = np.concatenate([np.zeros(40, dtype=complex), tx])
        half = cfg.idft_size // 2
        for tau in range(40, 40 + cfg.cp_len + 1):
            r1 = rx[tau : tau + half]
            r2 = rx[tau + half : tau + cfg.idft_size]
            gamma = (abs(np.sum(r1 * np.conj(r2))) / np.sum(np.abs(r2) ** 2)) ** 2
            assert gamma == pytest.approx(1.0, abs=1e-9)

    def test_short_stream_rejected(self):
        cfg = OfdmConfig(64, 8, 10e6, 17, 1)
        with pytest.raises(ValueError):
            sync_search(np.zeros(32, dtype=complex), cfg)

    def test_result_does_not_depend_on_the_stream_after_it(self):
        # the lag products of a 20,000-sample stream, past numpy's 256 KiB
        # temporary elision, have the bits of a 3,000-sample one
        rng = np.random.default_rng(10)
        cfg = OfdmConfig(256, 32, 1e6, 33, 4)
        stream = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        half = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        stream[1000:1256] += 5.0 * np.tile(half, 2)
        assert sync_search(stream, cfg, 0.99) == sync_search(stream[:3000], cfg, 0.99)


class TestCfoRamp:
    # a stream's first samples have the same bits in a 20,000-sample stream,
    # past numpy's 256 KiB temporary elision, as in a 1,000-sample one
    @pytest.mark.parametrize("ramp", [
        lambda x: correct_cfo(x, 1234.5, 1e6),
        lambda x: apply_ofdm_channel(x, np.array([1.0]), ImpairmentSpec(cfo_hz=1234.5), 1e6)],
        ids=["correct_cfo", "apply_ofdm_channel"])
    def test_samples_do_not_depend_on_the_stream_length(self, ramp):
        rng = np.random.default_rng(11)
        stream = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        assert ramp(stream)[:1000].tobytes() == ramp(stream[:1000]).tobytes()


class TestPapr:
    def test_huffman_values(self):
        assert papr_fm_huffman(ConstellationParams(63, 1.025)) == pytest.approx(1.50, abs=0.03)
        k127 = ConstellationParams(127, default_radius(127))
        assert papr_fm_huffman(k127) == pytest.approx(1.48, abs=0.02)

    def test_huffman_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            k = int(rng.integers(2, 65))
            r = float(rng.uniform(1.001, 2.0))
            assert papr_fm_huffman(ConstellationParams(k, r)) < 10 * np.log10(2)

    def test_huffman_requires_symmetric(self):
        with pytest.raises(ValueError):
            papr_fm_huffman(ConstellationParams(8, 1.2, 1.1))

    def test_peak_condition_cases(self):
        assert papr_peak_at_dc(ConstellationParams(16, 1.4, 1.05))
        assert not papr_peak_at_dc(ConstellationParams(127, 1.018, 1.03))

    def test_peak_condition_vanishing_asymmetry(self):
        # as the asymmetry shrinks toward 1, the bound collapses to zero
        for k in (2, 8, 32):
            assert not papr_peak_at_dc(ConstellationParams(k, 1.2, 1.0 + 1e-9))

    def test_jutted_numeric_value(self):
        papr, method = papr_fm(ConstellationParams(127, 1.018, 1.03))
        assert method == "numeric"
        assert papr == pytest.approx(7.27, abs=0.05)

    def test_closed_form_matches_numeric_when_condition_holds(self):
        params = ConstellationParams(16, 1.4, 1.05)
        closed, method = papr_fm(params)
        assert method == "closed_form"
        omega = 2 * np.pi * np.arange(8192) / 8192
        numeric = 10 * np.log10(power_spectrum(params, omega).max() / 17)
        assert closed == pytest.approx(numeric, abs=0.01)

    def test_message_independence(self):
        rng = np.random.default_rng(11)
        params = ConstellationParams(32, 1.044, 1.15)
        cfg = OfdmConfig(256, 8, 10e6, 33, 1)
        values = []
        for _ in range(100):
            x = random_codewords(rng, params, 1)
            body = ofdm_modulate(map_fm(x), cfg)[cfg.cp_len :]
            values.append(measured_papr_db(body))
        assert max(values) - min(values) < 0.001


class TestChannelEstimation:
    def test_flat_gain_recovered_exactly(self):
        rng = np.random.default_rng(12)
        params = ConstellationParams(4, 1.3066)
        codewords = random_codewords(rng, params, 33)
        gain = 0.8 * np.exp(1j * 1.1)
        est = estimate_channel_blind(gain * codewords, params, noise_var=0.0)
        np.testing.assert_allclose(est.gains, gain, atol=1e-12)

    def test_equalized_payload_matches(self):
        rng = np.random.default_rng(13)
        params = ConstellationParams(4, 1.3066)
        pre = random_codewords(rng, params, 33)
        gains = rng.normal(size=33) + 1j * rng.normal(size=33)
        est = estimate_channel_blind(gains[:, None] * pre, params, noise_var=0.0)
        payload = random_codewords(rng, ConstellationParams(32, 1.048), 1)[0]
        equalized = est.equalizer * (gains * payload)
        np.testing.assert_allclose(equalized, payload, atol=1e-8)

    def test_zero_forcing_limit(self):
        rng = np.random.default_rng(14)
        params = ConstellationParams(4, 1.3066)
        pre = random_codewords(rng, params, 8)
        gains = rng.normal(size=8) + 1j * rng.normal(size=8)
        est = estimate_channel_blind(gains[:, None] * pre, params, noise_var=0.0)
        np.testing.assert_allclose(est.equalizer, 1.0 / gains, atol=1e-9)

    def test_noise_estimate(self):
        rng = np.random.default_rng(15)
        cells = complex_noise(1000, 0.1, rng)
        assert estimate_noise_var(cells) == pytest.approx(0.1, abs=0.01)
        assert estimate_noise_var(np.zeros(5, dtype=complex)) == 0.0
        assert estimate_noise_var(np.array([2.0 + 0j])) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            estimate_noise_var(np.array([]))

    def test_stacked_packets_match_one_at_a_time(self):
        rng = np.random.default_rng(17)
        params = ConstellationParams(4, 1.3066)
        pre = np.stack([random_codewords(rng, params, 33) for _ in range(3)])
        gains = rng.normal(size=(3, 33)) + 1j * rng.normal(size=(3, 33))
        received = gains[..., None] * pre + complex_noise(pre.shape, 0.05, rng)
        guard = complex_noise((3, 223, 5), 0.05, rng)
        noise_vars = estimate_noise_var(guard)
        assert noise_vars.shape == (3,)
        est = estimate_channel_blind(received, params, noise_vars)
        for p in range(3):
            assert noise_vars[p] == estimate_noise_var(guard[p])
            one = estimate_channel_blind(received[p], params, estimate_noise_var(guard[p]))
            np.testing.assert_array_equal(est.gains[p], one.gains)
            np.testing.assert_array_equal(est.equalizer[p], one.equalizer)


class TestIqFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        samples = rng.normal(size=500) + 1j * rng.normal(size=500)
        path = tmp_path / "packet.iq"
        write_iq(path, samples)
        back = read_iq(path)
        assert back.dtype == np.complex128
        np.testing.assert_allclose(back, samples, atol=1e-6)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "pair.iq"
        write_iq(path, np.array([1.0 + 2.0j, -3.0 + 0.5j]))
        raw = np.fromfile(path, dtype="<f4")
        np.testing.assert_allclose(raw, [1.0, 2.0, -3.0, 0.5])

    def test_odd_length_rejected(self, tmp_path):
        path = tmp_path / "bad.iq"
        np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(path)
        with pytest.raises(ValueError):
            read_iq(path)
