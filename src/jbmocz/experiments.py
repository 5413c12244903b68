"""Experiment harness: deterministic Monte-Carlo runs emitting CSV rows.

Every experiment consumes an ExperimentConfig and returns MetricRow records.
Per-trial randomness derives from the master seed via SeedSequence spawn
keys indexed by (sweep point, chunk), so results are byte-identical for a
given config regardless of thread count or scheduling.

Energy accounting: Eb multiplies the total transmitted energy per
information bit.  Sequence-level runs spend codeword energy K+1 on B info
bits; OFDM runs count cyclic prefixes and any preamble symbols against the
payload bits (the convention is echoed in the CSV header).
"""

from __future__ import annotations

import concurrent.futures
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .dizet import dizet_hard, pseudo_llrs
from .phy import (
    OfdmConfig,
    build_sync_symbol,
    correct_cfo,
    estimate_channel_blind,
    estimate_noise_var,
    measured_papr_db,
    map_fm,
    ofdm_demodulate,
    ofdm_modulate,
    papr_fm,
    read_iq,
    sync_search,
    write_iq,
)
from .polar import PolarSpec, polar_construct, polar_decode_sc, polar_encode
from .rotation import estimate_rotation_bins, rotation_mse
from .stability import (
    asymmetry_sweep,
    codebook_stability,
    default_radius_grid,
    min_codebook_stability,
)
from .zeros import ConstellationParams, default_radius, encode_bits, make_template, zeros_to_coeffs

# Reference jutted designs R*(K, zeta): radius optimized for the minimum
# codebook stability, asymmetry chosen for the target template peakiness
# (about 8.5 dB except for the long-codeword radio profile at 7.3 dB).
JUTTED_DESIGNS = {
    31: (1.044, 1.15),
    32: (1.044, 1.15),
    64: (1.029, 1.072),
    127: (1.018, 1.03),
}

CSV_COLUMNS = ("experiment", "param_name", "param_value", "metric", "value", "trials", "seed")

EXPERIMENT_KINDS = (
    "ber_sequence",
    "ber_ofdm",
    "rotation_mse",
    "design_curves",
    "papr_table",
    "stability_report",
    "loopback",
)

# channel models each kind implements; kinds not listed use no channel field
KIND_CHANNELS = {
    "ber_sequence": ("fading", "awgn"),
    "ber_ofdm": ("fading", "flat"),
    "rotation_mse": ("fading",),
}


def jutted_params(num_zeros: int) -> ConstellationParams:
    """Reference jutted constellation for a supported codeword length."""
    if num_zeros not in JUTTED_DESIGNS:
        raise ValueError(f"no pinned jutted design for K={num_zeros}")
    radius, zeta = JUTTED_DESIGNS[num_zeros]
    return ConstellationParams(num_zeros, radius, zeta)


def huffman_params(num_zeros: int) -> ConstellationParams:
    return ConstellationParams(num_zeros, default_radius(num_zeros))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; unused fields are ignored by
    kinds that do not need them."""

    kind: str
    seed: int = 0
    out: str = None
    threads: int = 1

    # constellation / scheme selection
    scheme: str = "jutted"            # jutted | huffman
    num_zeros: int = 64
    radius: float = None              # None -> scheme default
    asymmetry: float = None
    coding: str = "none"              # none | polar
    info_bits: int = None             # None -> K uncoded / 16 polar

    # channel / impairments
    channel: str = "fading"           # see KIND_CHANNELS
    channel_taps: int = 5
    pdp: str = "uniform"
    rotation: object = None           # None | "uniform" | angle (radians)
    correct: bool = False             # run the template estimator + correction

    # sweep and effort
    ebn0_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0)
    trials: int = 10000
    estimator_bins: tuple = (1024,)

    # OFDM settings
    idft_size: int = 256
    cp_len: int = 8
    sample_rate: float = 10e6
    payload_bits: int = 512
    ofdm_schemes: tuple = ("fm", "fm_chest", "tm")
    tm_preamble_zeros: int = 4
    step_back: object = "random"      # "random" (uniform over [6]) | int
    loopback_snr_db: float = None     # None -> noiseless
    loopback_step_back: int = 6

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials <= 0:
            raise ValueError("trial count must be positive")
        if self.kind in ("ber_sequence", "ber_ofdm", "rotation_mse") and not self.ebn0_db:
            raise ValueError("Eb/N0 sweep must be nonempty")
        channels = KIND_CHANNELS.get(self.kind)
        if channels is not None and self.channel not in channels:
            raise ValueError(f"channel={self.channel!r} is not implemented by {self.kind}; "
                             f"use one of {channels}")
        if self.kind == "ber_ofdm" and (self.payload_bits <= 0 or self.payload_bits % 16):
            raise ValueError(f"payload_bits={self.payload_bits} must be a positive multiple "
                             "of 16, the information bits of one polar block")

    def constellation(self) -> ConstellationParams:
        if self.radius is not None:
            zeta = self.asymmetry if self.asymmetry is not None else 1.0
            return ConstellationParams(self.num_zeros, self.radius, zeta)
        if self.scheme == "huffman":
            return huffman_params(self.num_zeros)
        if self.scheme == "jutted":
            return jutted_params(self.num_zeros)
        raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class MetricRow:
    experiment: str
    param_name: str
    param_value: float
    metric: str
    value: float
    trials: int
    seed: int


def write_csv(rows, path, header_note: str = None) -> None:
    """Fixed-format CSV with deterministic float text."""
    lines = []
    if header_note:
        for note in header_note.splitlines():
            lines.append(f"# {note}")
    lines.append(",".join(CSV_COLUMNS))
    for r in rows:
        lines.append(
            f"{r.experiment},{r.param_name},{r.param_value:.10g},"
            f"{r.metric},{r.value:.10g},{r.trials},{r.seed}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _chunk_sizes(total: int, chunk: int):
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def _point_rng(seed: int, point: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point, chunk)))


def _run_chunks(worker, n_trials, seed, point, threads, chunk=4096):
    """Accumulate worker(chunk_rng, chunk_size) tuples across a worker pool."""
    jobs = [(i, size) for i, size in enumerate(_chunk_sizes(n_trials, chunk))]
    totals = None

    def run(job):
        idx, size = job
        return worker(_point_rng(seed, point, idx), size)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    for res in results:
        if totals is None:
            totals = list(res)
        else:
            totals = [t + r for t, r in zip(totals, res)]
    return tuple(totals)


# ---------------------------------------------------------------------------
# sequence-level link: encode -> convolutive channel -> (rotate/correct)
# -> decode

def _sequence_chunk(rng, n, params, config: ExperimentConfig, polar_spec, noise_var,
                    template):
    k = params.num_zeros
    n_info = config.info_bits or (16 if config.coding == "polar" else k)
    messages = rng.integers(0, 2, (n, n_info))
    if config.coding == "polar":
        bits = polar_encode(messages, polar_spec)
    else:
        bits = messages
    coeffs = zeros_to_coeffs(encode_bits(bits, params))
    if config.channel == "awgn":
        received = coeffs + chan.complex_noise(coeffs.shape, noise_var, rng)
    else:
        taps = rng.normal(size=(n, config.channel_taps)) + 1j * rng.normal(
            size=(n, config.channel_taps)
        )
        taps *= np.sqrt(1.0 / (2 * config.channel_taps))
        received = chan.convolve_channel(coeffs, taps, noise_var, rng)
    if config.rotation is not None:
        spec = chan.ImpairmentSpec(rotation=config.rotation)
        phis = spec.draw_rotations(n, rng)
        ramp = np.arange(received.shape[-1])
        received = received * np.exp(-1j * phis[:, None] * ramp)
        if config.correct:
            n_bins = template.size
            mags = n_bins * np.abs(np.fft.ifft(received, n=n_bins, axis=-1))
            bins = estimate_rotation_bins(mags, template)
            angles = 2.0 * np.pi * bins / n_bins
            received = received * np.exp(1j * angles[:, None] * ramp)
    if config.coding == "polar":
        decoded = polar_decode_sc(pseudo_llrs(received, params), polar_spec)
    else:
        decoded = dizet_hard(received, params)
    errs = decoded != messages
    return int(errs.sum()), int(errs.any(axis=1).sum()), n * n_info, n


def run_ber_sequence(config: ExperimentConfig) -> list:
    """Codeword-level BER/BLER sweep for one scheme/coding/rotation setup."""
    params = config.constellation()
    k = params.num_zeros
    polar_spec = polar_construct(32, 16) if config.coding == "polar" else None
    n_info = config.info_bits or (16 if config.coding == "polar" else k)
    if config.coding == "polar" and k != 32:
        raise ValueError("polar-coded runs use K=32 codewords")
    template = make_template(params, 1024) if config.correct else None
    name = f"ber-seq-{config.scheme}"
    if config.coding == "polar":
        name += "-polar"
    if config.rotation is not None:
        name += "-rot" + ("corr" if config.correct else "")
    rows = []
    for point, ebn0 in enumerate(config.ebn0_db):
        noise_var = chan.ebn0_to_noise_var(ebn0, n_info, k + 1)
        bit_err, blk_err, bits, blocks = _run_chunks(
            lambda rng, n: _sequence_chunk(rng, n, params, config, polar_spec,
                                           noise_var, template),
            config.trials, config.seed, point, config.threads,
        )
        rows.append(MetricRow(name, "ebn0_db", ebn0, "ber", bit_err / bits,
                              config.trials, config.seed))
        rows.append(MetricRow(name, "ebn0_db", ebn0, "bler", blk_err / blocks,
                              config.trials, config.seed))
    return rows


def _rotation_mse_chunk(rng, n, params, noise_var, templates):
    k = params.num_zeros
    bits = rng.integers(0, 2, (n, k))
    coeffs = zeros_to_coeffs(encode_bits(bits, params))
    taps = (rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))) / np.sqrt(2.0)
    received = chan.convolve_channel(coeffs, taps, noise_var, rng)
    phis = rng.uniform(0.0, 2.0 * np.pi, n)
    received = received * np.exp(-1j * phis[:, None] * np.arange(received.shape[-1]))
    sums = []
    for template in templates:
        n_bins = template.size
        mags = n_bins * np.abs(np.fft.ifft(received, n=n_bins, axis=-1))
        est = 2.0 * np.pi * estimate_rotation_bins(mags, template) / n_bins
        sums.append(rotation_mse(phis, est) * n)
    return (*sums, n)


def run_rotation_mse(config: ExperimentConfig) -> list:
    """Rotation-estimator MSE sweep; all estimator sizes share each trial's
    channel, noise and rotation draw so their curves are directly
    comparable."""
    params = config.constellation()
    templates = [make_template(params, nb) for nb in config.estimator_bins]
    rows = []
    for point, ebn0 in enumerate(config.ebn0_db):
        noise_var = (
            0.0
            if np.isinf(ebn0)
            else chan.ebn0_to_noise_var(ebn0, params.num_zeros, params.num_zeros + 1)
        )
        *sums, total = _run_chunks(
            lambda rng, n: _rotation_mse_chunk(rng, n, params, noise_var, templates),
            config.trials, config.seed, point, config.threads,
        )
        for template, sq_sum in zip(templates, sums):
            rows.append(
                MetricRow(f"rotation-mse-n{template.size}", "ebn0_db", ebn0,
                          "mse", sq_sum / total, config.trials, config.seed)
            )
    return rows


# ---------------------------------------------------------------------------
# OFDM link on the demodulated resource grid
#
# With a cyclic prefix longer than the channel span, the sample-level link
# reduces exactly to per-subcarrier gains H_l, a residual-timing phase ramp
# e^{-j 2 pi l delta / N}, and white per-cell noise (the equivalences are
# asserted against the sample-level path in the test suite).  The phase ramp
# multiplies the noisy received cells, which keeps a common random stream
# exactly comparable across step-back values.

@dataclass
class _OfdmSetup:
    config: ExperimentConfig
    payload_params: ConstellationParams
    first_params: ConstellationParams
    tm_params: ConstellationParams
    preamble_params: ConstellationParams
    polar_spec: PolarSpec
    blocks: int
    template: object

    @classmethod
    def build(cls, config: ExperimentConfig):
        k = config.num_zeros
        blocks = config.payload_bits // 16
        return cls(
            config=config,
            payload_params=huffman_params(k),
            first_params=jutted_params(k),
            tm_params=huffman_params(k),
            preamble_params=huffman_params(config.tm_preamble_zeros),
            polar_spec=polar_construct(32, 16),
            blocks=blocks,
            template=make_template(jutted_params(k), config.idft_size),
        )


def _subcarrier_gains(rng, n_sub, idft_size, taps, profile, flat):
    if flat:
        return np.ones(n_sub, dtype=complex)
    cir = chan.draw_cir(taps, rng, profile=profile)
    return np.fft.fft(cir, idft_size)[:n_sub]


def _cell_noise_var(ebn0_db, cell_energy, info_bits, idft_size, cp_len):
    """Per-cell noise variance hitting a target Eb/N0.

    cell_energy: total squared grid magnitude of the packet.  Time-domain
    energy is (N + Ncp)/N * N * cell_energy and the demodulator scales
    noise variance by 1/N.
    """
    time_energy = (idft_size + cp_len) * cell_energy
    eb = time_energy / info_bits
    n0_time = eb / 10.0 ** (ebn0_db / 10.0)
    return n0_time / idft_size


def _ofdm_fm_chunk(rng, n_packets, setup: _OfdmSetup, ebn0_db, with_chest):
    cfg = setup.config
    k = cfg.num_zeros
    n_sub = k + 1
    n_idft = cfg.idft_size
    blocks = setup.blocks
    spec = setup.polar_spec
    ktm = cfg.tm_preamble_zeros

    cell_energy = blocks * (k + 1)
    if with_chest:
        cell_energy += n_sub * (ktm + 1)
    noise_var = _cell_noise_var(ebn0_db, cell_energy, cfg.payload_bits,
                                n_idft, cfg.cp_len)

    bit_errors = block_errors = 0
    for _ in range(n_packets):
        messages = rng.integers(0, 2, (blocks, 16))
        code_bits = polar_encode(messages, spec)
        coeffs = np.empty((blocks, k + 1), dtype=complex)
        coeffs[0] = zeros_to_coeffs(encode_bits(code_bits[0], setup.first_params))
        coeffs[1:] = zeros_to_coeffs(encode_bits(code_bits[1:], setup.payload_params))
        grid = map_fm(coeffs)  # (S, M)

        gains = _subcarrier_gains(rng, n_sub, n_idft, cfg.channel_taps, cfg.pdp,
                                  cfg.channel == "flat")
        received = gains[:, None] * grid + chan.complex_noise(grid.shape, noise_var, rng)

        if with_chest:
            pre_bits = rng.integers(0, 2, (n_sub, ktm))
            pre = zeros_to_coeffs(encode_bits(pre_bits, setup.preamble_params))
            pre_rx = gains[:, None] * pre + chan.complex_noise(pre.shape, noise_var, rng)
            guard = chan.complex_noise((n_idft - n_sub, ktm + 1), noise_var, rng)
        else:
            pre_rx = guard = None

        if cfg.step_back == "random":
            delta = int(rng.integers(0, 6))
        else:
            delta = int(cfg.step_back)
        ramp = np.exp(-2j * np.pi * np.arange(n_sub) * delta / n_idft)
        received = ramp[:, None] * received
        if with_chest:
            pre_rx = ramp[:, None] * pre_rx

        if with_chest:
            est = estimate_channel_blind(pre_rx, setup.preamble_params,
                                         estimate_noise_var(guard))
            received = est.equalizer[:, None] * received
        else:
            mags = n_idft * np.abs(np.fft.ifft(received[:, 0], n=n_idft))
            n_hat = int(estimate_rotation_bins(mags, setup.template))
            angle = 2.0 * np.pi * n_hat / n_idft
            received = received * np.exp(
                1j * angle * np.arange(n_sub)
            )[:, None]

        llrs = np.empty((blocks, k), dtype=float)
        llrs[0] = pseudo_llrs(received[:, 0], setup.first_params)
        llrs[1:] = pseudo_llrs(received[:, 1:].T, setup.payload_params)
        decoded = polar_decode_sc(llrs, spec)
        errs = decoded != messages
        bit_errors += int(errs.sum())
        block_errors += int(errs.any(axis=1).sum())
    return bit_errors, block_errors, n_packets * cfg.payload_bits, n_packets * blocks


def _ofdm_tm_chunk(rng, n_packets, setup: _OfdmSetup, ebn0_db):
    cfg = setup.config
    k = cfg.num_zeros
    blocks = setup.blocks  # subcarriers
    spec = setup.polar_spec

    cell_energy = blocks * (k + 1)
    noise_var = _cell_noise_var(ebn0_db, cell_energy, cfg.payload_bits,
                                cfg.idft_size, cfg.cp_len)

    bit_errors = block_errors = 0
    for _ in range(n_packets):
        messages = rng.integers(0, 2, (blocks, 16))
        code_bits = polar_encode(messages, setup.polar_spec)
        coeffs = zeros_to_coeffs(encode_bits(code_bits, setup.tm_params))  # (S, K+1)

        gains = _subcarrier_gains(rng, blocks, cfg.idft_size, cfg.channel_taps, cfg.pdp,
                                  cfg.channel == "flat")
        received = gains[:, None] * coeffs + chan.complex_noise(coeffs.shape, noise_var, rng)

        if cfg.step_back == "random":
            delta = int(rng.integers(0, 6))
        else:
            delta = int(cfg.step_back)
        # constant per-subcarrier phase: rotates nothing in time mapping
        received = received * np.exp(
            -2j * np.pi * np.arange(blocks) * delta / cfg.idft_size
        )[:, None]

        decoded = polar_decode_sc(pseudo_llrs(received, setup.tm_params), spec)
        errs = decoded != messages
        bit_errors += int(errs.sum())
        block_errors += int(errs.any(axis=1).sum())
    return bit_errors, block_errors, n_packets * cfg.payload_bits, n_packets * blocks


def _ofdm_worker(scheme, setup, ebn0):
    if scheme == "fm":
        return lambda rng, n: _ofdm_fm_chunk(rng, n, setup, ebn0, False)
    if scheme == "fm_chest":
        return lambda rng, n: _ofdm_fm_chunk(rng, n, setup, ebn0, True)
    if scheme == "tm":
        return lambda rng, n: _ofdm_tm_chunk(rng, n, setup, ebn0)
    raise ValueError(f"unknown OFDM scheme {scheme!r}")


def run_ber_ofdm(config: ExperimentConfig) -> list:
    """Packet-level BER/BLER for the configured OFDM schemes."""
    setup = _OfdmSetup.build(config)
    rows = []
    for scheme in config.ofdm_schemes:
        for point, ebn0 in enumerate(config.ebn0_db):
            bit_err, blk_err, bits, blocks = _run_chunks(
                _ofdm_worker(scheme, setup, ebn0),
                config.trials, config.seed, point, config.threads, chunk=256,
            )
            name = f"ber-ofdm-{scheme}"
            rows.append(MetricRow(name, "ebn0_db", ebn0, "ber", bit_err / bits,
                                  config.trials, config.seed))
            rows.append(MetricRow(name, "ebn0_db", ebn0, "bler", blk_err / blocks,
                                  config.trials, config.seed))
    return rows


# ---------------------------------------------------------------------------
# analysis-style experiments

def run_design_curves(config: ExperimentConfig) -> list:
    zetas = config.asymmetry if isinstance(config.asymmetry, (tuple, list)) else (
        1.0, 1.03, 1.06, 1.09, 1.12, 1.15)
    radius_grid = default_radius_grid(config.num_zeros)
    points = asymmetry_sweep(config.num_zeros, zetas, radius_grid, seed=config.seed)
    rows = []
    for pt in points:
        for metric, value in (("r_star", pt.best_radius),
                              ("c_min", pt.min_stability),
                              ("papr_db", pt.template_papr_db)):
            rows.append(MetricRow("design-curves", "asymmetry", pt.asymmetry,
                                  metric, value, 1, config.seed))
    return rows


def run_papr_table(config: ExperimentConfig) -> list:
    entries = [
        ("huffman", ConstellationParams(63, 1.025)),
        ("huffman", ConstellationParams(127, default_radius(127))),
        ("jutted", jutted_params(127)),
    ]
    rows = []
    for label, params in entries:
        papr_db, method = papr_fm(params)
        rows.append(MetricRow(f"papr-{label}-{method}", "num_zeros",
                              params.num_zeros, "papr_db", papr_db, 1, config.seed))
    return rows


SAMPLED_CODEBOOK_SIZE = 256


def run_stability_report(config: ExperimentConfig) -> list:
    params = config.constellation()
    k = params.num_zeros
    exact = k <= 16
    samples = None if exact else SAMPLED_CODEBOOK_SIZE
    cbar = codebook_stability(params, samples=samples, seed=config.seed)
    cmin = min_codebook_stability(params, seed=config.seed)
    n_eval = 2**k if exact else samples
    return [
        MetricRow("stability", "num_zeros", k, "c_bar", cbar, n_eval, config.seed),
        MetricRow("stability", "num_zeros", k, "c_min", cmin, n_eval, config.seed),
    ]


# ---------------------------------------------------------------------------
# software loopback of the full sample-level chain

@dataclass(frozen=True)
class LoopbackReport:
    header_bits: int
    header_errors: int
    payload_bits: int
    payload_errors: int
    payload_papr_db: float
    template_papr_db: float
    sync_tau: int
    residual_bin: int
    cfo_hat: float


def run_loopback(config: ExperimentConfig, iq_path: str = None) -> LoopbackReport:
    """Synthesize the hybrid multi-polynomial packet, write it to an I/Q
    file (`iq_path`, or a temporary file that is removed before returning),
    replay it through the sample-level channel, and run the full
    receive chain: coarse sync, CFO correction, step-back, residual timing
    estimation from the jutted symbol, and hard-decision decoding.

    Defaults follow the radio demo profile: K=127 zeros, 63 header bits,
    424 payload bits in 4 uncoded blocks of 106 bits.
    """
    rng = np.random.default_rng(config.seed)
    k = 127
    block_bits = 106
    payload_bits = 424
    blocks = -(-payload_bits // block_bits)
    header_len = k // 2

    sync_params = ConstellationParams(header_len, 1.025)
    first_params = jutted_params(k)
    payload_params = ConstellationParams(k, default_radius(k))

    n_idft, cp_len, fs = 512, 8, 20e6
    n_sub = k + 1
    cfg = OfdmConfig(n_idft, cp_len, fs, n_sub, blocks + 1)

    header = rng.integers(0, 2, header_len)
    payload = rng.integers(0, 2, payload_bits)
    padded = np.concatenate([payload, np.zeros(blocks * k - payload_bits, dtype=int)])
    # block b occupies zeros [b*106, b*106+106) of codeword b; filler zeros
    block_bits_matrix = padded.reshape(blocks, k)

    coeffs = np.empty((blocks, k + 1), dtype=complex)
    coeffs[0] = zeros_to_coeffs(encode_bits(block_bits_matrix[0], first_params))
    coeffs[1:] = zeros_to_coeffs(encode_bits(block_bits_matrix[1:], payload_params))
    grid = np.hstack([
        build_sync_symbol(header, sync_params, n_sub)[:, None],
        map_fm(coeffs),
    ])
    tx = ofdm_modulate(grid, cfg)

    with tempfile.TemporaryDirectory() as scratch:
        path = iq_path or os.path.join(scratch, "packet.iq")
        write_iq(path, tx)
        tx_replay = read_iq(path)

    noise_var = 0.0
    if config.loopback_snr_db is not None:
        signal_power = float(np.mean(np.abs(tx) ** 2))
        noise_var = signal_power / 10.0 ** (config.loopback_snr_db / 10.0)
    spec = chan.ImpairmentSpec(timing_offset=100, cfo_hz=0.05 * cfg.subcarrier_spacing,
                               noise_var=noise_var)
    rx = chan.apply_ofdm_channel(tx_replay, np.array([1.0]), spec, fs, rng)

    sync = sync_search(rx, cfg, threshold=0.99)
    rx = correct_cfo(rx, sync.cfo_hat, fs)
    start = sync.tau_hat - cfg.cp_len - config.loopback_step_back
    rx_grid = ofdm_demodulate(rx[start : start + cfg.stream_len], cfg)

    # residual timing from the raw samples of the jutted symbol's window
    window = slice(start + cfg.symbol_len + cfg.cp_len,
                   start + cfg.symbol_len + cfg.cp_len + n_idft)
    mags = np.abs(rx[window])
    template = make_template(first_params, n_idft)
    n_hat = int(estimate_rotation_bins(mags, template))
    angle = 2.0 * np.pi * n_hat / n_idft
    ramp = np.exp(1j * angle * np.arange(n_sub))
    rx_grid = rx_grid * ramp[:, None]

    header_hat = dizet_hard(rx_grid[0 : 2 * (header_len + 1) : 2, 0], sync_params)
    decoded = np.empty((blocks, k), dtype=int)
    decoded[0] = dizet_hard(rx_grid[:, 1], first_params)
    decoded[1:] = dizet_hard(rx_grid[:, 2:].T, payload_params)
    payload_hat = decoded.reshape(-1)[:payload_bits]

    body = tx[cfg.symbol_len + cfg.cp_len : cfg.symbol_len + cfg.cp_len + n_idft]
    template_papr = measured_papr_db(body)
    body2 = tx[2 * cfg.symbol_len + cfg.cp_len : 2 * cfg.symbol_len + cfg.cp_len + n_idft]
    payload_papr = measured_papr_db(body2)

    return LoopbackReport(
        header_bits=header_len,
        header_errors=int(np.sum(header_hat != header)),
        payload_bits=payload_bits,
        payload_errors=int(np.sum(payload_hat != payload)),
        payload_papr_db=payload_papr,
        template_papr_db=template_papr,
        sync_tau=sync.tau_hat,
        residual_bin=n_hat,
        cfo_hat=sync.cfo_hat,
    )


def loopback_rows(report: LoopbackReport, config: ExperimentConfig) -> list:
    return [
        MetricRow("loopback-header", "num_zeros", 127, "ber",
                  report.header_errors / report.header_bits, 1, config.seed),
        MetricRow("loopback-payload", "num_zeros", 127, "ber",
                  report.payload_errors / report.payload_bits, 1, config.seed),
        MetricRow("loopback-payload", "num_zeros", 127, "papr_db",
                  report.payload_papr_db, 1, config.seed),
        MetricRow("loopback-template", "num_zeros", 127, "papr_db",
                  report.template_papr_db, 1, config.seed),
    ]


def run_experiment(config: ExperimentConfig) -> list:
    """Dispatch a config to its runner, returning MetricRows."""
    if config.kind == "ber_sequence":
        return run_ber_sequence(config)
    if config.kind == "ber_ofdm":
        return run_ber_ofdm(config)
    if config.kind == "rotation_mse":
        return run_rotation_mse(config)
    if config.kind == "design_curves":
        return run_design_curves(config)
    if config.kind == "papr_table":
        return run_papr_table(config)
    if config.kind == "stability_report":
        return run_stability_report(config)
    if config.kind == "loopback":
        return loopback_rows(run_loopback(config), config)
    raise ValueError(f"unknown experiment kind {config.kind!r}")
