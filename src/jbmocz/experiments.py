"""Experiment harness: deterministic Monte-Carlo runs emitting CSV rows.

Every experiment consumes its kind's config (see EXPERIMENTS) and returns
MetricRow records.
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
    EXACT_LIMIT,
    MIN_SAMPLE_COUNT,
    codebook_stabilities,
    codebook_stability,
    default_radius_grid,
    min_codebook_stability,
    optimize_radius,
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

OFDM_SCHEMES = ("fm", "fm_chest", "tm")  # receivers ber_ofdm can run
OFDM_RANDOM_STEP_BACK = 5  # step_back "random" draws uniformly from 0..5 samples


def jutted_params(num_zeros: int) -> ConstellationParams:
    """Reference jutted constellation for a supported codeword length."""
    if num_zeros not in JUTTED_DESIGNS:
        raise ValueError(f"no pinned jutted design for K={num_zeros}")
    radius, zeta = JUTTED_DESIGNS[num_zeros]
    return ConstellationParams(num_zeros, radius, zeta)


def huffman_params(num_zeros: int) -> ConstellationParams:
    return ConstellationParams(num_zeros, default_radius(num_zeros))


# ---------------------------------------------------------------------------
# one frozen config class per experiment kind (see EXPERIMENTS), holding
# only the keys its runner reads, with that kind's defaults

@dataclass(frozen=True)
class _Config:
    """The keys of every kind.  `choices`, a class attribute and not a key,
    maps a key to the values the kind runs."""

    choices = {}
    seed: int = 0
    out: str = None

    def __post_init__(self):
        for name, allowed in self.choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name}={getattr(self, name)!r} is not one of {allowed}")


def _check_sweep(config, *counts):
    """The Monte-Carlo keys: a nonempty Eb/N0 sweep of numbers or +inf
    (noiseless), and positive trials and `counts`."""
    if not config.ebn0_db:
        raise ValueError("ebn0_db=(): the Eb/N0 sweep must be nonempty")
    if any(np.isnan(e) or e == -np.inf for e in config.ebn0_db):
        raise ValueError(f"ebn0_db={config.ebn0_db}: NaN and -inf are not Eb/N0 values")
    for name in ("trials",) + counts:
        if getattr(config, name) < 1:
            raise ValueError(f"{name}={getattr(config, name)} must be positive")


@dataclass(frozen=True)
class _ConstellationConfig(_Config):
    """A scheme's reference design, or an explicit radius and asymmetry."""

    scheme: str = "jutted"            # jutted | huffman
    num_zeros: int = 64
    radius: float = None              # None -> the scheme's design
    asymmetry: float = None           # only with a radius: > 1 if jutted, None -> 1

    def __post_init__(self):
        super().__post_init__()
        if self.scheme not in ("jutted", "huffman"):
            raise ValueError(f"scheme={self.scheme!r} must be 'jutted' or 'huffman'")
        if self.asymmetry is not None and self.radius is None:
            raise ValueError(f"asymmetry={self.asymmetry}: give it only with a radius")
        if self.scheme == "huffman" and self.asymmetry not in (None, 1.0):
            raise ValueError(f"asymmetry={self.asymmetry}: a huffman constellation is symmetric")
        if self.scheme == "jutted" and self.radius is not None and not (self.asymmetry or 0) > 1:
            raise ValueError(f"asymmetry={self.asymmetry}: a jutted constellation with a radius "
                             "needs asymmetry > 1")
        self.constellation()  # an unpinned jutted K fails here, not mid-run

    def constellation(self) -> ConstellationParams:
        if self.radius is not None:
            zeta = self.asymmetry if self.asymmetry is not None else 1.0
            return ConstellationParams(self.num_zeros, self.radius, zeta)
        if self.scheme == "huffman":
            return huffman_params(self.num_zeros)
        return jutted_params(self.num_zeros)


@dataclass(frozen=True)
class BerSequenceConfig(_ConstellationConfig):
    """Codewords through fading or AWGN, decoded hard or by polar SC.
    ofdm_schemes is unread: the benchmark's warm-up sets it on every kind."""

    choices = {"coding": ("none", "polar"), "channel": ("fading", "awgn"),
               "pdp": ("uniform",)}
    threads: int = 1
    coding: str = "none"              # polar: the (32,16) code, K=32
    channel: str = "fading"
    channel_taps: int = 5
    pdp: str = "uniform"              # the profile of its equal-power taps
    rotation: object = None           # None | "uniform" | angle (radians)
    correct: bool = False             # run the template estimator + correction
    ebn0_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0)
    trials: int = 20000
    ofdm_schemes: tuple = OFDM_SCHEMES

    def __post_init__(self):
        super().__post_init__()
        _check_sweep(self, "channel_taps")
        if self.coding == "polar" and self.num_zeros != 32:
            raise ValueError(f"num_zeros={self.num_zeros}: polar-coded runs use K=32")
        if self.channel == "awgn" and self.channel_taps != BerSequenceConfig.channel_taps:
            raise ValueError(f"channel_taps={self.channel_taps}: an awgn channel has no taps")
        chan.ImpairmentSpec(rotation=self.rotation)  # rejects a bad rotation spec
        if self.correct and self.rotation is None:
            raise ValueError("correct=True: there is no rotation to correct; set rotation")


@dataclass(frozen=True)
class BerOfdmConfig(_Config):
    """Polar-coded OFDM packets through each receiver of ofdm_schemes."""

    choices = {"num_zeros": (32,), "channel": ("fading", "flat"), "pdp": chan.PDP_PROFILES}
    threads: int = 1
    num_zeros: int = 32
    channel: str = "fading"
    channel_taps: int = 5
    pdp: str = "uniform"
    ebn0_db: tuple = (8.0, 12.0, 16.0, 20.0)
    trials: int = 1000
    idft_size: int = 256
    cp_len: int = 8
    payload_bits: int = 512
    ofdm_schemes: tuple = OFDM_SCHEMES
    tm_preamble_zeros: int = 4
    step_back: object = "random"      # "random" (uniform over 0..5) | int

    def __post_init__(self):
        super().__post_init__()
        _check_sweep(self, "channel_taps")
        if self.payload_bits <= 0 or self.payload_bits % 16:  # 16 bits per polar block
            raise ValueError(f"payload_bits={self.payload_bits}: not a positive multiple of 16")
        if not self.ofdm_schemes or not set(self.ofdm_schemes) <= set(OFDM_SCHEMES):
            raise ValueError(f"ofdm_schemes={self.ofdm_schemes!r}: need a nonempty subset "
                             f"of {OFDM_SCHEMES}")
        if self.idft_size < 2 * self.num_zeros + 2:
            raise ValueError(f"idft_size={self.idft_size}: the template needs 2K+2 bins")
        if self.cp_len < 0:
            raise ValueError(f"cp_len={self.cp_len} must not be negative")
        if self.step_back != "random" and type(self.step_back) is not int:
            raise ValueError(f"step_back={self.step_back!r} must be 'random' or an integer")
        # the grid-level link needs the prefix to cover step-back and span
        if self.step_back == "random" and self.cp_len < OFDM_RANDOM_STEP_BACK:
            raise ValueError(f"step_back='random' draws up to {OFDM_RANDOM_STEP_BACK} samples, "
                             f"beyond cp_len={self.cp_len}")
        if self.step_back != "random" and not 0 <= self.step_back <= self.cp_len:
            raise ValueError(f"step_back={self.step_back}: not in 0..cp_len={self.cp_len}")
        if self.channel == "fading" and self.channel_taps - 1 > self.cp_len:
            raise ValueError(f"channel_taps={self.channel_taps}: a span of "
                             f"{self.channel_taps - 1} samples exceeds cp_len={self.cp_len}")
        if self.tm_preamble_zeros < 2:
            raise ValueError(f"tm_preamble_zeros={self.tm_preamble_zeros}: the preamble "
                             "codeword needs at least 2 zeros")


@dataclass(frozen=True)
class RotationMseConfig(_ConstellationConfig):
    """Rotation-estimator MSE of every estimator size on shared trials."""

    num_zeros: int = 31
    threads: int = 1
    ebn0_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0)
    trials: int = 10000
    estimator_bins: tuple = (64, 1024)

    def __post_init__(self):
        super().__post_init__()
        _check_sweep(self)
        if not self.estimator_bins or min(self.estimator_bins) < 2 * self.num_zeros + 2:
            raise ValueError(f"estimator_bins={self.estimator_bins}: a K={self.num_zeros} "
                             f"template needs sizes of at least {2 * self.num_zeros + 2}")


@dataclass(frozen=True)
class DesignCurvesConfig(_Config):
    """The serial radius search R*(K, zeta) for each asymmetry of a list."""

    num_zeros: int = 8
    asymmetry: tuple = (1.0, 1.03, 1.06, 1.09, 1.12, 1.15)

    def __post_init__(self):
        if not isinstance(self.asymmetry, (tuple, list)) or not self.asymmetry:
            raise ValueError(f"asymmetry={self.asymmetry!r}: not a nonempty list")


@dataclass(frozen=True)
class PaprTableConfig(_Config):
    """The fixed table of K=63 and K=127 Huffman and K=127 jutted PAPRs."""


@dataclass(frozen=True)
class StabilityReportConfig(_ConstellationConfig):
    """Mean and minimum noiseless codebook stability of one constellation."""

    scheme: str = "huffman"
    num_zeros: int = 8
    radius: float = 1.176
    asymmetry: float = 1.0


@dataclass(frozen=True)
class LoopbackConfig(_Config):
    """The fixed K=127, 424-bit, 512-point packet through the I/Q loopback."""

    loopback_snr_db: float = None     # None -> noiseless
    loopback_step_back: int = 6       # samples into the 8-sample cyclic prefix

    def __post_init__(self):
        super().__post_init__()
        if type(self.loopback_step_back) is not int or not 0 <= self.loopback_step_back <= 8:
            raise ValueError(f"loopback_step_back={self.loopback_step_back!r}: not an "
                             "integer in 0..8, the packet's cyclic prefix")


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

def _sequence_chunk(rng, n, params, config: BerSequenceConfig, polar_spec, noise_var,
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


def run_ber_sequence(config: BerSequenceConfig) -> list:
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


def run_rotation_mse(config: RotationMseConfig) -> list:
    """Rotation-estimator MSE sweep; all estimator sizes share each trial's
    channel, noise and rotation draw so their curves are directly
    comparable."""
    params = config.constellation()
    templates = [make_template(params, nb) for nb in config.estimator_bins]
    rows = []
    for point, ebn0 in enumerate(config.ebn0_db):
        noise_var = chan.ebn0_to_noise_var(ebn0, params.num_zeros, params.num_zeros + 1)
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
# Throughput grows with the block but so does memory.  Bits are carried as
# uint8 and each stack is freed once used.  At K=32 with 512 payload bits a
# 24-packet block peaks at 71-74 KB per packet in each worker thread under
# tracemalloc, most of it pseudo_llrs' temporaries.  On the 2-thread
# ofdm_k32 benchmark (2-vCPU Xeon VM), 24-packet blocks ran 3310 packets/s
# (each packet through all three schemes) at 45.4 MB peak RSS, against
# 1763 packets/s and 44.0 MB for 12-packet blocks (medians of 10 runs
# each); single runs at 32 and 48 packets reached 46.4-48.4 and 48.8-50.9
# MB.  24 is the largest block that stays clearly inside a 5% memory
# budget.  Those runs took pseudo_llrs on 12-packet slices; on the whole
# block the peak RSS read 46.1-46.5 MB against 45.3-46.6 MB (6 pairs).

OFDM_BLOCK_PACKETS = 24


@dataclass
class _OfdmSetup:
    config: BerOfdmConfig
    payload_params: ConstellationParams
    first_params: ConstellationParams
    preamble_params: ConstellationParams
    polar_spec: PolarSpec
    blocks: int
    template: object

    @classmethod
    def build(cls, config: BerOfdmConfig):
        k = config.num_zeros
        blocks = config.payload_bits // 16
        return cls(
            config=config,
            payload_params=huffman_params(k),
            first_params=jutted_params(k),
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
    shapes = {"messages": ((setup.blocks, 16), np.uint8), "noise": (noise_shape, complex),
              "step_backs": ((), int)}
    if cfg.channel != "flat":
        shapes["cirs"] = ((cfg.channel_taps,), complex)
    if with_chest:
        shapes.update(pre_bits=((n_sub, ktm), np.uint8), pre_noise=((n_sub, ktm + 1), complex),
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
        draws["step_backs"][p] = (rng.integers(0, OFDM_RANDOM_STEP_BACK + 1)
                                  if cfg.step_back == "random" else int(cfg.step_back))
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
            pre_rx = encode_coeffs(draws.pop("pre_bits"), setup.preamble_params)
            pre_rx *= gains[..., None]
            pre_rx += draws.pop("pre_noise")
            pre_rx *= ramp[..., None]
            equalizer = estimate_channel_blind(
                pre_rx, setup.preamble_params,
                estimate_noise_var(draws.pop("guard_noise"))).equalizer
            del pre_rx

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
        llrs = np.concatenate([pseudo_llrs(received[:, :1], setup.first_params),
                               pseudo_llrs(received[:, 1:], setup.payload_params)], axis=1)
        del received
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
        received = encode_coeffs(code_bits, setup.payload_params)
        received *= _subcarrier_gains(draws, blocks, cfg.idft_size)[..., None]
        received += draws.pop("noise")
        # constant per-subcarrier phase: rotates nothing in time mapping
        received *= _step_back_ramp(draws["step_backs"], blocks, cfg.idft_size)[..., None]
        llrs = pseudo_llrs(received, setup.payload_params)
        del received
        return polar_decode_sc(llrs, setup.polar_spec)

    return _packet_errors(rng, n_packets, setup, decode, (blocks, k + 1), noise_var)


def _ofdm_worker(scheme, setup, ebn0):
    """The chunk worker of one receiver; BerOfdmConfig has checked the scheme."""
    if scheme == "tm":
        return lambda rng, n: _ofdm_tm_chunk(rng, n, setup, ebn0)
    return lambda rng, n: _ofdm_fm_chunk(rng, n, setup, ebn0, scheme == "fm_chest")


def run_ber_ofdm(config: BerOfdmConfig) -> list:
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

def run_design_curves(config: DesignCurvesConfig) -> list:
    """R*(K, zeta) over the default radius grid for each asymmetry, with the
    minimum codebook stability there and the template PAPR."""
    radius_grid = default_radius_grid(config.num_zeros)
    rows = []
    for zeta in map(float, config.asymmetry):
        r_star = optimize_radius(config.num_zeros, zeta, radius_grid, seed=config.seed)
        params = ConstellationParams(config.num_zeros, r_star, zeta)
        c_min = min_codebook_stability(params, seed=config.seed)
        papr_db, _ = papr_fm(params)
        for metric, value in (("r_star", r_star), ("c_min", c_min), ("papr_db", papr_db)):
            rows.append(MetricRow("design-curves", "asymmetry", zeta, metric, value, 1,
                                  config.seed))
    return rows


def run_papr_table(config: PaprTableConfig) -> list:
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


def run_stability_report(config: StabilityReportConfig) -> list:
    params = config.constellation()
    k = params.num_zeros
    if k <= EXACT_LIMIT:
        # one scoring of the whole codebook gives both the mean and the minimum
        scores = codebook_stabilities(params)
        cbar, cmin = float(np.mean(scores)), float(np.min(scores))
        n_eval = n_min = 2**k
    else:
        cbar = codebook_stability(params, samples=SAMPLED_CODEBOOK_SIZE, seed=config.seed)
        cmin = min_codebook_stability(params, seed=config.seed)
        # the two extreme codewords and the random sample
        n_eval, n_min = SAMPLED_CODEBOOK_SIZE, MIN_SAMPLE_COUNT + 2
    return [
        MetricRow("stability", "num_zeros", k, "c_bar", cbar, n_eval, config.seed),
        MetricRow("stability", "num_zeros", k, "c_min", cmin, n_min, config.seed),
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


def run_loopback(config: LoopbackConfig, iq_path: str = None) -> LoopbackReport:
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


def loopback_rows(report: LoopbackReport, config: LoopbackConfig) -> list:
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


# kind -> (config class, runner); cli.load_config builds the class
EXPERIMENTS = {
    "ber_sequence": (BerSequenceConfig, run_ber_sequence),
    "ber_ofdm": (BerOfdmConfig, run_ber_ofdm),
    "rotation_mse": (RotationMseConfig, run_rotation_mse),
    "design_curves": (DesignCurvesConfig, run_design_curves),
    "papr_table": (PaprTableConfig, run_papr_table),
    "stability_report": (StabilityReportConfig, run_stability_report),
    "loopback": (LoopbackConfig, lambda config: loopback_rows(run_loopback(config), config)),
}


def run_experiment(config) -> list:
    """Dispatch a config to its kind's runner, returning MetricRows."""
    runners = dict(EXPERIMENTS.values())  # config class -> runner
    return runners[type(config)](config)
