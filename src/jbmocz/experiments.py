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
from .rotation import (
    apply_rotation,
    correct_rotation,
    estimate_rotation_bins,
    rotation_bins,
    rotation_mse,
)
from .stability import (
    asymmetry_sweep,
    codebook_stability,
    default_radius_grid,
    min_codebook_stability,
)
from .zeros import ConstellationParams, default_radius, encode_coeffs, make_template

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

OFDM_SCHEMES = ("fm", "fm_chest", "tm")  # receivers ber_ofdm can run

# channel models each kind implements; kinds not listed use no channel field
KIND_CHANNELS = {
    "ber_sequence": ("fading", "awgn"),
    "ber_ofdm": ("fading", "flat"),
    "rotation_mse": ("fading",),
}

# fields a kind does not read, so they must keep their defaults, with what
# the kind runs instead
KIND_FIXED_FIELDS = {
    "ber_ofdm": (("scheme", "radius", "asymmetry", "coding", "rotation", "correct"),
                 "polar-coded packets of a jutted first symbol and Huffman payload, "
                 "rotated only by the step-back"),
    "rotation_mse": (("channel_taps", "pdp", "rotation"),
                     "one Rayleigh tap and a uniform rotation per trial"),
    "loopback": (("num_zeros", "payload_bits", "idft_size"),
                 "the fixed K=127, 424-bit, 512-point packet"),
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
    """Declarative experiment description.  A kind ignores the fields it
    does not read, except those in KIND_FIXED_FIELDS, which must keep their
    defaults."""

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
        if self.kind == "ber_ofdm" and self.num_zeros != 32:
            raise ValueError(f"num_zeros={self.num_zeros}: ber_ofdm carries (32,16) polar "
                             "blocks on K=32 codewords")
        if self.kind == "ber_ofdm" and (
                not self.ofdm_schemes or not set(self.ofdm_schemes) <= set(OFDM_SCHEMES)):
            raise ValueError(f"ofdm_schemes={self.ofdm_schemes!r} must be a nonempty list "
                             f"of {OFDM_SCHEMES}")
        if self.kind == "ber_sequence":
            self._check_sequence_coding()
        fixed_fields, runs = KIND_FIXED_FIELDS.get(self.kind, ((), ""))
        for name in fixed_fields:
            if getattr(self, name) != getattr(ExperimentConfig, name):
                raise ValueError(f"{name}={getattr(self, name)!r}: {self.kind} runs {runs}; "
                                 "leave it unset")
        if self.kind == "rotation_mse":
            if not self.estimator_bins:
                raise ValueError("estimator_bins=(): rotation_mse needs at least one "
                                 "estimator size")
            least = 2 * self.num_zeros + 2
            if any(bins < least for bins in self.estimator_bins):
                raise ValueError(f"estimator_bins={self.estimator_bins}: a K={self.num_zeros} "
                                 f"template needs at least {least} bins")
        if self.kind == "design_curves":
            if self.radius is not None:
                raise ValueError(f"radius={self.radius}: design_curves searches the radius "
                                 "for each asymmetry; leave it unset")
            if self.asymmetry is not None and not isinstance(self.asymmetry, (tuple, list)):
                raise ValueError(f"asymmetry={self.asymmetry!r}: design_curves sweeps a list "
                                 "of asymmetries")

    def _check_sequence_coding(self):
        if self.coding not in ("none", "polar"):
            raise ValueError(f"coding={self.coding!r} must be 'none' or 'polar'")
        if self.coding == "polar":
            if self.num_zeros != 32:
                raise ValueError(f"num_zeros={self.num_zeros}: polar-coded runs use "
                                 "K=32 codewords")
            if self.info_bits not in (None, 16):
                raise ValueError(f"info_bits={self.info_bits}: the (32,16) polar code "
                                 "carries 16 information bits")
        elif self.info_bits not in (None, self.num_zeros):
            raise ValueError(f"info_bits={self.info_bits}: an uncoded codeword carries "
                             f"num_zeros={self.num_zeros} bits")

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
    n_info = 16 if config.coding == "polar" else params.num_zeros
    messages = rng.integers(0, 2, (n, n_info))
    if config.coding == "polar":
        bits = polar_encode(messages, polar_spec)
    else:
        bits = messages
    coeffs = encode_coeffs(bits, params)
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
        received = apply_rotation(received, spec.draw_rotations(n, rng))
        if config.correct:
            bins = rotation_bins(received, template)
            received = correct_rotation(received, 2.0 * np.pi * bins / template.size)
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
    n_info = 16 if config.coding == "polar" else k
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
    coeffs = encode_coeffs(bits, params)
    taps = (rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))) / np.sqrt(2.0)
    received = chan.convolve_channel(coeffs, taps, noise_var, rng)
    phis = rng.uniform(0.0, 2.0 * np.pi, n)
    received = apply_rotation(received, phis)
    sums = []
    for template in templates:
        est = 2.0 * np.pi * rotation_bins(received, template) / template.size
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
#
# A chunk runs in blocks of OFDM_BLOCK_PACKETS packets, each in two phases.
# The draw loop makes the random draws packet by packet, in a fixed order:
# messages, channel taps, cell noise, then (fm_chest) preamble bits,
# preamble noise and guard noise, then the step-back.  The batched compute
# does everything else once per block, on (packets, codewords, K+1) stacks:
# polar encoding, synthesis, gains, the step-back ramp, the rotation or
# channel estimate, pseudo-LLRs, SC decoding and error counts.  So the
# random stream, and with it the CSV, does not depend on the block size.
# Each packet also keeps its own matrix shapes in the zero-testing products
# (the packet axis is a stack axis), so every packet's numbers are those of
# a receiver that decodes one packet at a time, bit for bit.
#
# Throughput grows with the block but so does memory: at K=32 with 512
# payload bits a block peaks near 100 KB per packet in each worker thread.
# On the 2-thread ofdm_k32 benchmark (2-vCPU Xeon VM), blocks of 8, 12 and
# 16 packets raised peak RSS by 6%, 8% and 10% over the one-packet receiver
# and ran 1150-1360, 1475-1550 and 1650-1750 packets/s (each packet through
# all three schemes).  12 is the largest block that stays clearly inside a
# 10% memory budget.

OFDM_BLOCK_PACKETS = 12


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


def _draw_packets(rng, count, setup: _OfdmSetup, noise_shape, noise_var, with_chest):
    """The random draws of `count` packets, made one packet at a time into
    arrays with a leading packet axis.  "cirs" is absent on a flat channel,
    and the preamble draws are present only with_chest."""
    cfg = setup.config
    n_sub, ktm = cfg.num_zeros + 1, cfg.tm_preamble_zeros
    shapes = {"messages": ((setup.blocks, 16), int), "noise": (noise_shape, complex),
              "step_backs": ((), int)}
    if cfg.channel != "flat":
        shapes["cirs"] = ((cfg.channel_taps,), complex)
    if with_chest:
        shapes.update(pre_bits=((n_sub, ktm), int), pre_noise=((n_sub, ktm + 1), complex),
                      guard_noise=((cfg.idft_size - n_sub, ktm + 1), complex))
    draws = {name: np.empty((count,) + shape, dtype) for name, (shape, dtype) in shapes.items()}
    for p in range(count):
        draws["messages"][p] = rng.integers(0, 2, (setup.blocks, 16))
        if "cirs" in draws:
            draws["cirs"][p] = chan.draw_cir(cfg.channel_taps, rng, profile=cfg.pdp)
        draws["noise"][p] = chan.complex_noise(noise_shape, noise_var, rng)
        if with_chest:
            draws["pre_bits"][p] = rng.integers(0, 2, (n_sub, ktm))
            for name in ("pre_noise", "guard_noise"):
                draws[name][p] = chan.complex_noise(shapes[name][0], noise_var, rng)
        draws["step_backs"][p] = (rng.integers(0, 6) if cfg.step_back == "random"
                                  else int(cfg.step_back))
    return draws


def _subcarrier_gains(draws, n_sub, idft_size):
    """(P, n_sub) gains: the transform of each packet's taps, or ones on a
    flat channel."""
    if "cirs" not in draws:
        return np.ones((len(draws["messages"]), n_sub), dtype=complex)
    return np.fft.fft(draws["cirs"], idft_size, axis=-1)[:, :n_sub]


def _step_back_ramp(step_backs, n_sub, idft_size):
    """(P, n_sub) residual-timing phase e^{-j 2 pi l delta / N} per packet."""
    return np.exp(-2j * np.pi * np.arange(n_sub) * step_backs[:, None] / idft_size)


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


def _packet_errors(rng, n_packets, setup: _OfdmSetup, decode, noise_shape, noise_var,
                   with_chest=False):
    """Error counts of a chunk, run block by block: the draw loop, then
    decode(draws) -> (P, blocks, 16) decoded messages."""
    bit_errors = block_errors = 0
    for start in range(0, n_packets, OFDM_BLOCK_PACKETS):
        count = min(OFDM_BLOCK_PACKETS, n_packets - start)
        draws = _draw_packets(rng, count, setup, noise_shape, noise_var, with_chest)
        errs = decode(draws) != draws["messages"]
        bit_errors += int(errs.sum())
        block_errors += int(errs.any(axis=-1).sum())
    cfg = setup.config
    return bit_errors, block_errors, n_packets * cfg.payload_bits, n_packets * setup.blocks


def _fm_coeffs(messages, setup: _OfdmSetup):
    """(P, M, K+1) codewords of each packet's FM symbols: a jutted first
    codeword, then Huffman payload codewords."""
    code_bits = polar_encode(messages, setup.polar_spec)
    coeffs = encode_coeffs(code_bits, setup.payload_params)
    coeffs[:, 0] = encode_coeffs(code_bits[:, 0], setup.first_params)
    return coeffs


def _ofdm_fm_chunk(rng, n_packets, setup: _OfdmSetup, ebn0_db, with_chest):
    cfg = setup.config
    k = cfg.num_zeros
    n_sub = k + 1
    n_idft = cfg.idft_size
    ktm = cfg.tm_preamble_zeros

    cell_energy = setup.blocks * (k + 1)
    if with_chest:
        cell_energy += n_sub * (ktm + 1)
    noise_var = _cell_noise_var(ebn0_db, cell_energy, cfg.payload_bits,
                                n_idft, cfg.cp_len)

    def decode(draws):
        gains = _subcarrier_gains(draws, n_sub, n_idft)
        ramp = _step_back_ramp(draws["step_backs"], n_sub, n_idft)
        if with_chest:
            # estimated first, so the preamble and guard cells are freed
            # before the payload stack exists
            pre = encode_coeffs(draws.pop("pre_bits"), setup.preamble_params)
            pre_rx = ramp[..., None] * (gains[..., None] * pre + draws.pop("pre_noise"))
            equalizer = estimate_channel_blind(
                pre_rx, setup.preamble_params,
                estimate_noise_var(draws.pop("guard_noise"))).equalizer

        # (P, M, S): FM symbol m of packet p carries codeword m on its S
        # subcarriers; the received stack is built in place
        received = _fm_coeffs(draws["messages"], setup)
        received *= gains[:, None]
        received += draws.pop("noise").transpose(0, 2, 1)
        received *= ramp[:, None]

        if with_chest:
            received *= equalizer[:, None]
        else:
            bins = rotation_bins(received[:, 0], setup.template)
            received = correct_rotation(received,
                                        (2.0 * np.pi * bins / setup.template.size)[:, None])

        # received[:, :1] keeps the jutted symbol a one-row product per packet
        llrs = np.empty(received.shape[:-1] + (k,), dtype=float)
        llrs[:, :1] = pseudo_llrs(received[:, :1], setup.first_params)
        llrs[:, 1:] = pseudo_llrs(received[:, 1:], setup.payload_params)
        return polar_decode_sc(llrs, setup.polar_spec)

    return _packet_errors(rng, n_packets, setup, decode, (n_sub, setup.blocks), noise_var,
                          with_chest)


def _ofdm_tm_chunk(rng, n_packets, setup: _OfdmSetup, ebn0_db):
    cfg = setup.config
    k = cfg.num_zeros
    blocks = setup.blocks  # subcarriers

    cell_energy = blocks * (k + 1)
    noise_var = _cell_noise_var(ebn0_db, cell_energy, cfg.payload_bits,
                                cfg.idft_size, cfg.cp_len)

    def decode(draws):
        # (P, S, K+1): subcarrier s of packet p carries codeword s
        code_bits = polar_encode(draws["messages"], setup.polar_spec)
        received = encode_coeffs(code_bits, setup.tm_params)
        received *= _subcarrier_gains(draws, blocks, cfg.idft_size)[..., None]
        received += draws.pop("noise")
        # constant per-subcarrier phase: rotates nothing in time mapping
        received *= _step_back_ramp(draws["step_backs"], blocks, cfg.idft_size)[..., None]
        return polar_decode_sc(pseudo_llrs(received, setup.tm_params), setup.polar_spec)

    return _packet_errors(rng, n_packets, setup, decode, (blocks, k + 1), noise_var)


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
    coeffs[0] = encode_coeffs(block_bits_matrix[0], first_params)
    coeffs[1:] = encode_coeffs(block_bits_matrix[1:], payload_params)
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
    template = make_template(first_params, n_idft)
    n_hat = int(estimate_rotation_bins(np.abs(rx[window]), template))
    rx_grid = correct_rotation(rx_grid.T, 2.0 * np.pi * n_hat / n_idft).T

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
