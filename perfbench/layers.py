"""Fixed-shape layer timings: each layer function called on its own, on
inputs drawn from the workload seed, at the shapes of the ROADMAP baseline
table.  Each timing is the median of repeated calls after one warm call.

Every entry names the end-to-end metric (and workload) it should move, or
"none" where the layer feeds no workload at that shape.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import jbmocz.channel as chan
import jbmocz.dizet as dizet
import jbmocz.experiments as experiments
import jbmocz.phy as phy
import jbmocz.polar as polar
import jbmocz.rotation as rotation
import jbmocz.stability as stability
import jbmocz.zeros as zeros

ROWS = 4096

# metric name -> (end-to-end metric and workload it should move, repetitions)
FIXED = {
    "fixed.zeros_to_coeffs.k64_s": ("trials_per_s on seq_k64_fading", 5),
    "fixed.zeros_to_coeffs.k127_s": ("none", 3),
    "fixed.convolve_channel.k64_s": ("trials_per_s on seq_k64_fading", 7),
    "fixed.dizet_hard.k64_s": ("trials_per_s on seq_k64_fading", 7),
    "fixed.pseudo_llrs.k32_s": ("trials_per_s on seq_k32_polar_rot", 7),
    "fixed.polar_decode_sc.k32_s": ("trials_per_s on seq_k32_polar_rot", 7),
    "fixed.magnitudes_rotation_bins.n1024_s": ("trials_per_s on seq_k32_polar_rot", 5),
    "fixed.reliability_profile.k128_s": ("trials_per_s on design_k128", 15),
    "fixed.sync_search.k127_s": ("none", 15),
}


def _median_time(call, reps: int) -> float:
    call()
    times = []
    for _ in range(reps):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _loopback_stream(rng):
    """The K=127 loopback packet (sync symbol plus four FM payload symbols)
    after a 100-sample delay and a 0.05-subcarrier CFO, built as the
    loopback experiment builds it."""
    k, n_idft, fs = 127, 512, 20e6
    cfg = phy.OfdmConfig(n_idft, 8, fs, k + 1, 5)
    header = rng.integers(0, 2, k // 2)
    bits = rng.integers(0, 2, (4, k))
    coeffs = np.vstack([
        zeros.zeros_to_coeffs(zeros.encode_bits(bits[0], experiments.jutted_params(k))),
        zeros.zeros_to_coeffs(zeros.encode_bits(bits[1:], experiments.huffman_params(k))),
    ])
    sync = phy.build_sync_symbol(header, zeros.ConstellationParams(k // 2, 1.025), k + 1)
    tx = phy.ofdm_modulate(np.hstack([sync[:, None], phy.map_fm(coeffs)]), cfg)
    spec = chan.ImpairmentSpec(timing_offset=100, cfo_hz=0.05 * cfg.subcarrier_spacing)
    return chan.apply_ofdm_channel(tx, np.array([1.0]), spec, fs), cfg


def _calls(seed: int) -> dict:
    """metric name -> zero-argument call timed for it."""
    rng = np.random.default_rng(seed)
    p64, p127, p32 = (experiments.jutted_params(k) for k in (64, 127, 32))
    z64 = zeros.encode_bits(rng.integers(0, 2, (ROWS, 64)), p64)
    z127 = zeros.encode_bits(rng.integers(0, 2, (ROWS, 127)), p127)
    c64 = zeros.zeros_to_coeffs(z64)
    taps = (rng.normal(size=(ROWS, 5)) + 1j * rng.normal(size=(ROWS, 5))) / np.sqrt(10.0)
    nv64 = chan.ebn0_to_noise_var(16.0, 64, 65)
    rx64 = chan.convolve_channel(c64, taps, nv64, rng)
    spec = polar.polar_construct(32, 16)
    c32 = zeros.zeros_to_coeffs(zeros.encode_bits(
        polar.polar_encode(rng.integers(0, 2, (ROWS, 16)), spec), p32))
    rx32 = c32 + chan.complex_noise(c32.shape, chan.ebn0_to_noise_var(8.0, 16, 33), rng)
    llrs32 = dizet.pseudo_llrs(rx32, p32)
    template = zeros.make_template(p32, 1024)
    p128 = zeros.ConstellationParams(128, 1.015)
    z128 = zeros.encode_bits(rng.integers(0, 2, 128), p128)
    c128 = zeros.zeros_to_coeffs(z128, energy=1.0)
    stream, ofdm_cfg = _loopback_stream(rng)
    return {
        "fixed.zeros_to_coeffs.k64_s": lambda: zeros.zeros_to_coeffs(z64),
        "fixed.zeros_to_coeffs.k127_s": lambda: zeros.zeros_to_coeffs(z127),
        "fixed.convolve_channel.k64_s":
            lambda: chan.convolve_channel(c64, taps, nv64, np.random.default_rng(seed)),
        "fixed.dizet_hard.k64_s": lambda: dizet.dizet_hard(rx64, p64),
        "fixed.pseudo_llrs.k32_s": lambda: dizet.pseudo_llrs(rx32, p32),
        "fixed.polar_decode_sc.k32_s": lambda: polar.polar_decode_sc(llrs32, spec),
        "fixed.magnitudes_rotation_bins.n1024_s": lambda: rotation.estimate_rotation_bins(
            rotation.oversampled_magnitudes(rx32, 1024), template),
        "fixed.reliability_profile.k128_s": lambda: stability.reliability_profile(c128, z128),
        "fixed.sync_search.k127_s": lambda: phy.sync_search(stream, ofdm_cfg, 0.99),
    }


def fixed_shape_timings(seed: int) -> dict:
    """metric name -> (median seconds, tag)."""
    calls = _calls(seed)
    return {name: (_median_time(calls[name], reps), tag)
            for name, (tag, reps) in FIXED.items()}
