"""Acceptance suite: each test reproduces one headline result at its stated
tolerance and prints a pass/fail line (run with -s to see them live)."""

import numpy as np
import pytest

from jbmocz.dizet import dizet_hard
from jbmocz.experiments import ExperimentConfig, run_ber_ofdm, run_ber_sequence, run_loopback, run_rotation_mse
from jbmocz.phy import papr_fm, papr_fm_huffman, papr_peak_at_dc
from jbmocz.polar import polar_construct, polar_decode_sc, polar_encode
from jbmocz.rotation import apply_rotation, correct_rotation, rotation_bins
from jbmocz.stability import codebook_stability, optimize_radius, poly_stability
from jbmocz.zeros import (
    ConstellationParams,
    aacf,
    aacf_closed_form,
    aacf_edge_scale,
    default_radius,
    encode_bits,
    make_template,
    power_spectrum,
    zeros_to_coeffs,
)

DESK_TRIALS = 200_000


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, detail


def interpolate_crossing(ebn0, ber, level):
    """Eb/N0 where the log-BER curve crosses `level` (linear in dB/log10)."""
    logs = np.log10(ber)
    target = np.log10(level)
    for i in range(len(ber) - 1):
        lo, hi = logs[i], logs[i + 1]
        if (lo - target) * (hi - target) <= 0:
            frac = (target - lo) / (hi - lo)
            return ebn0[i] + frac * (ebn0[i + 1] - ebn0[i])
    raise AssertionError("BER curve does not bracket the crossing level")


def test_criterion_1_stability_golden_values():
    p = ConstellationParams(8, 1.176)
    cbar = codebook_stability(p)
    inside_bits = np.zeros(8, dtype=int)
    outside_bits = np.ones(8, dtype=int)
    z_in, z_out = encode_bits(inside_bits, p), encode_bits(outside_bits, p)
    c_in = poly_stability(zeros_to_coeffs(z_in, 1.0), z_in)
    c_out = poly_stability(zeros_to_coeffs(z_out, 1.0), z_out)
    coeffs = [1]
    for k in range(1, 21):
        coeffs = [0] + coeffs
        coeffs = [a - k * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    w = np.array(coeffs, dtype=float)
    w /= np.linalg.norm(w)
    c_w = poly_stability(w, np.arange(1, 21, dtype=complex))
    ok = (abs(cbar - 1.149) <= 0.005 and abs(c_in - 1.250) <= 0.005
          and abs(c_out - 1.048) <= 0.005 and abs(c_w - 0.0381) <= 0.002)
    report(1, ok, f"codebook {cbar:.4f}, inside {c_in:.4f}, outside {c_out:.4f}, "
                  f"ill-conditioned reference {c_w:.4f}")


@pytest.mark.slow
def test_criterion_2_optimized_radii():
    r128 = optimize_radius(128, 1.0, np.arange(1.005, 1.0305, 0.001))
    r32 = optimize_radius(32, 1.15, np.arange(1.020, 1.0805, 0.001))
    r127 = optimize_radius(127, 1.03, np.arange(1.005, 1.0405, 0.001))
    ok = (abs(r128 - 1.015) <= 0.003 and abs(r32 - 1.044) <= 0.003
          and abs(r127 - 1.018) <= 0.003)
    report(2, ok, f"R*(128,1)={r128:.3f}, R*(32,1.15)={r32:.3f}, R*(127,1.03)={r127:.3f}")


def test_criterion_3_papr():
    rng = np.random.default_rng(0)
    bound = 10 * np.log10(2)
    closed_ok = True
    agree_ok = True
    omega = 2 * np.pi * np.arange(8192) / 8192
    for i in range(1000):
        k = int(rng.integers(2, 129))
        r = float(rng.uniform(1.001, 2.0))
        p = ConstellationParams(k, r)
        db = papr_fm_huffman(p)
        closed_ok &= db < bound
        if i < 50:  # dense-grid agreement on a subsample
            numeric = 10 * np.log10(power_spectrum(p, omega).max() / (k + 1))
            agree_ok &= abs(db - numeric) <= 0.01

    v63 = papr_fm_huffman(ConstellationParams(63, 1.025))
    v127 = papr_fm_huffman(ConstellationParams(127, default_radius(127)))
    vj, method = papr_fm(ConstellationParams(127, 1.018, 1.03), grid_size=8192)

    cond_ok = True
    n_cond = 0
    for k in (8, 16, 24, 32):
        for r in (1.2, 1.3, 1.4, 1.5):
            for zeta in (1.02, 1.05, 1.1):
                p = ConstellationParams(k, r, zeta)
                if papr_peak_at_dc(p):
                    n_cond += 1
                    closed, m = papr_fm(p, grid_size=8192)
                    numeric = 10 * np.log10(power_spectrum(p, omega).max() / (k + 1))
                    cond_ok &= (m == "closed_form" and abs(closed - numeric) <= 0.01)
    ok = (closed_ok and agree_ok and abs(v63 - 1.50) <= 0.03
          and abs(v127 - 1.48) <= 0.02 and method == "numeric"
          and abs(vj - 7.27) <= 0.1 and n_cond >= 10 and cond_ok)
    report(3, ok, f"63:{v63:.3f} dB, 127:{v127:.3f} dB, jutted:{vj:.3f} dB, "
                  f"{n_cond} peak-at-origin triples agree")


def test_criterion_4_algebraic_oracles():
    rng = np.random.default_rng(1)
    worst = 0.0
    a0_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        r = float(rng.uniform(1.02, 1.5))
        zeta = float(rng.choice([1.0, rng.uniform(1.0, 1.3)]))
        p = ConstellationParams(k, r, zeta)
        x = zeros_to_coeffs(encode_bits(rng.integers(0, 2, k), p))
        got = aacf(x)
        ref = aacf_closed_form(p)
        worst = max(worst, float(np.max(np.abs(got - ref))))
        a0_ok &= abs(got[k] - (k + 1)) < 1e-9 * (k + 1)
    eta_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 65))
        r = float(rng.uniform(1.005, 1.9))
        got = aacf_edge_scale(ConstellationParams(k, r))
        ref = 1.0 / (r**k + r**-k)
        eta_ok &= abs(got - ref) <= 1e-12 * ref
    ok = worst <= 1e-9 and a0_ok and eta_ok
    report(4, ok, f"worst closed-vs-correlation gap {worst:.2e}, "
                  f"zero-lag and symmetric-reduction checks {'ok' if a0_ok and eta_ok else 'bad'}")


def test_criterion_5_noiseless_correctness():
    rng = np.random.default_rng(2)
    exact = True
    for k in (8, 16, 32, 64):
        p = ConstellationParams(k, default_radius(k), 1.05)
        for taps in (1, 3, 8):
            bits = rng.integers(0, 2, (25, k))
            x = zeros_to_coeffs(encode_bits(bits, p))
            h = (rng.normal(size=(25, taps)) + 1j * rng.normal(size=(25, taps)))
            h /= np.sqrt(2 * taps)
            y = np.stack([np.convolve(x[i], h[i]) for i in range(25)])
            exact &= np.array_equal(dizet_hard(y, p), bits)

    fig2 = ConstellationParams(8, 1.176, 1.15)
    msg = np.array([1, 0, 1, 1, 1, 0, 0, 1])
    x = zeros_to_coeffs(encode_bits(msg, fig2))
    received = apply_rotation(x, (12 / 7) * fig2.base_angle)
    template = make_template(fig2, 1024)
    angle = 2 * np.pi * rotation_bins(received, template) / 1024
    decoded = dizet_hard(correct_rotation(received, angle), fig2)
    scenario = np.array_equal(decoded, msg)
    ok = exact and scenario
    report(5, ok, f"multipath exact decode {exact}, rotation scenario decode {scenario}")


@pytest.mark.slow
def test_criterion_6_uncoded_ber_reproduction():
    sweep = (14.0, 16.0, 18.0, 20.0)
    crossings = {}
    for scheme in ("huffman", "jutted"):
        cfg = ExperimentConfig(kind="ber_sequence", scheme=scheme, num_zeros=64,
                               channel="fading", channel_taps=5, ebn0_db=sweep,
                               trials=DESK_TRIALS, seed=20, threads=2)
        bers = [r.value for r in run_ber_sequence(cfg) if r.metric == "ber"]
        crossings[scheme] = interpolate_crossing(sweep, bers, 1e-2)
    gap = abs(crossings["jutted"] - crossings["huffman"])

    floor_cfg = ExperimentConfig(kind="ber_sequence", scheme="huffman", num_zeros=64,
                                 channel="fading", channel_taps=5, rotation="uniform",
                                 ebn0_db=(20.0,), trials=DESK_TRIALS, seed=21, threads=2)
    floor_ber = [r.value for r in run_ber_sequence(floor_cfg) if r.metric == "ber"][0]

    awgn_sweep = (0.0, 4.0, 8.0, 12.0)
    base = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=64,
                            channel="awgn", ebn0_db=awgn_sweep,
                            trials=DESK_TRIALS, seed=22, threads=2)
    plain = [r.value for r in run_ber_sequence(base) if r.metric == "ber"]
    rot = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=64,
                           channel="awgn", rotation="uniform", correct=True,
                           ebn0_db=awgn_sweep, trials=DESK_TRIALS, seed=22, threads=2)
    rotated = [r.value for r in run_ber_sequence(rot) if r.metric == "ber"]
    gaps = [b - a for a, b in zip(plain, rotated)]
    monotone = all(a >= b for a, b in zip(gaps, gaps[1:]))

    ok = gap <= 0.5 and floor_ber > 0.2 and monotone
    report(6, ok, f"crossing gap {gap:.2f} dB, rotation floor {floor_ber:.3f}, "
                  f"rotation penalty {['%.1e' % g for g in gaps]} monotone={monotone}")


@pytest.mark.slow
def test_criterion_7_rotation_mse():
    cfg = ExperimentConfig(kind="rotation_mse", scheme="jutted", num_zeros=31,
                           ebn0_db=(0.0, 5.0, 10.0, 15.0, float("inf")),
                           trials=10_000, seed=23, estimator_bins=(64, 1024), threads=2)
    rows = run_rotation_mse(cfg)
    curves = {}
    for r in rows:
        curves.setdefault(r.experiment, {})[r.param_value] = r.value
    coarse, fine = curves["rotation-mse-n64"], curves["rotation-mse-n1024"]
    dominated = all(fine[p] <= coarse[p] for p in coarse)
    floor_ok = True
    for n, curve in ((64, coarse), (1024, fine)):
        floor = (2 * np.pi / n) ** 2 / 12
        floor_ok &= curve[float("inf")] <= 1.01 * floor
    ok = dominated and floor_ok
    report(7, ok, f"fine-grid dominates at all points: {dominated}, "
                  f"noiseless floors within 1.01x: {floor_ok}")


@pytest.mark.slow
def test_criterion_8_ofdm_end_to_end():
    # (a) noiseless loopback decodes header and payload error-free
    rep = run_loopback(ExperimentConfig(kind="loopback", seed=24))
    loopback_ok = rep.header_errors == 0 and rep.payload_errors == 0

    # (b) coarse sync: 100-sample offset, CFO at 0.3 subcarrier spacings
    from jbmocz.channel import ImpairmentSpec, apply_ofdm_channel
    from jbmocz.phy import OfdmConfig, build_sync_symbol, map_fm, ofdm_modulate, sync_search

    rng = np.random.default_rng(25)
    sync_cfg = OfdmConfig(64, 8, 10e6, 17, 4)
    col = build_sync_symbol(rng.integers(0, 2, 8), ConstellationParams(8, 1.18), 17)
    payload = map_fm(zeros_to_coeffs(encode_bits(
        rng.integers(0, 2, (3, 16)), ConstellationParams(16, default_radius(16)))))
    tx = ofdm_modulate(np.hstack([col[:, None], payload]), sync_cfg)
    cfo = 0.3 * sync_cfg.subcarrier_spacing
    rx = apply_ofdm_channel(tx, np.array([1.0]),
                            ImpairmentSpec(timing_offset=100, cfo_hz=cfo),
                            sync_cfg.sample_rate)
    sync = sync_search(rx, sync_cfg, 0.99)
    sync_ok = (100 <= sync.tau_hat <= 108) and abs(sync.cfo_hat - cfo) / cfo < 1e-6

    # (c) TM BER invariant to every step-back in [6] at a fixed seed
    tm_bers = []
    for nb in range(6):
        cfg = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(6.0,),
                               trials=200, seed=26, ofdm_schemes=("tm",), step_back=nb)
        tm_bers.append([r.value for r in run_ber_ofdm(cfg) if r.metric == "ber"][0])
    tm_ok = len(set(tm_bers)) == 1

    # (d) FM at 30 dB over a flat channel with random step-back
    flat = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(30.0,),
                            trials=600, seed=27, ofdm_schemes=("fm",), channel="flat",
                            threads=2)
    fm_flat = [r.value for r in run_ber_ofdm(flat) if r.metric == "ber"][0]

    # (e) mid-SNR ordering under the 5-tap selective preset
    mid = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(14.0,),
                           trials=800, seed=28, threads=2)
    mid_ber = {r.experiment: r.value for r in run_ber_ofdm(mid) if r.metric == "ber"}
    order_ok = (mid_ber["ber-ofdm-tm"] <= mid_ber["ber-ofdm-fm_chest"]
                <= mid_ber["ber-ofdm-fm"])

    ok = loopback_ok and sync_ok and tm_ok and fm_flat < 1e-3 and order_ok
    report(8, ok, f"loopback 0-errors {loopback_ok}, sync tau={sync.tau_hat} ok={sync_ok}, "
                  f"TM invariant {tm_ok}, FM flat 30dB ber {fm_flat:.1e}, "
                  f"mid-SNR ordering {order_ok}")


@pytest.mark.slow
def test_criterion_9_coded_pipeline():
    spec = polar_construct(32, 16)
    rng = np.random.default_rng(29)
    msgs = rng.integers(0, 2, (10_000, 16))
    llrs = 30.0 * (2 * polar_encode(msgs, spec) - 1)
    round_trip = np.array_equal(polar_decode_sc(llrs, spec), msgs)

    uncoded = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=32,
                               channel="awgn", ebn0_db=(8.0,), trials=30_000,
                               seed=30, threads=2)
    ber_u = [r.value for r in run_ber_sequence(uncoded) if r.metric == "ber"][0]
    coded = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=32,
                             coding="polar", channel="awgn", ebn0_db=(8.0,),
                             trials=30_000, seed=30, threads=2)
    ber_c = [r.value for r in run_ber_sequence(coded) if r.metric == "ber"][0]

    rot = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=32,
                           coding="polar", channel="awgn", rotation="uniform",
                           correct=True, ebn0_db=(4.0, 6.0, 8.0, 10.0),
                           trials=30_000, seed=31, threads=2)
    blers = [r.value for r in run_ber_sequence(rot) if r.metric == "bler"]
    no_floor = all(a > b for a, b in zip(blers, blers[1:])) and blers[-1] < 1e-3

    ok = round_trip and ber_c < ber_u and no_floor
    report(9, ok, f"round trip {round_trip}, coded {ber_c:.2e} < uncoded {ber_u:.2e}, "
                  f"rotation BLER tail {blers[-1]:.1e} with no floor {no_floor}")
