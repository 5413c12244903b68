"""Experiment harness: deterministic Monte-Carlo runs emitting CSV rows.

Every experiment consumes its kind's config (see EXPERIMENTS) and returns
MetricRow records.
The Monte-Carlo runners (ber_sequence, rotation_mse, ber_ofdm) go through
one sweep driver, `_sweep`, which runs every (Eb/N0 point, chunk) job of a
run on one thread pool.  Per-trial randomness derives from the master seed
via SeedSequence spawn keys indexed by (sweep point, chunk), and each
point's counts are summed in chunk order, so results are byte-identical for
a given config regardless of thread count or scheduling.
ber_sequence and rotation_mse share one sequence-level link: synthesis,
fading taps from `channel.draw_cir`, noise, then the zero rotation; every
ber_ofdm receiver shares one resource-grid link, `_grid_link`.

Energy accounting: Eb multiplies the total transmitted energy per
information bit.  Sequence-level runs spend codeword energy K+1 on B info
bits; OFDM runs count cyclic prefixes and any preamble symbols against the
payload bits (the convention is echoed in the CSV header).
"""

from __future__ import annotations

import concurrent.futures
import math
import mmap
import numbers
import os
import tempfile
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from . import channel as chan
from .dizet import dizet_hard, pseudo_llrs
from .phy import (
    OfdmConfig,
    build_sync_symbol,
    correct_cfo,
    estimate_channel_blind,
    measured_papr_db,
    map_fm,
    ofdm_demodulate,
    ofdm_modulate,
    papr_fm,
    read_iq,
    sync_search,
    write_iq,
)
from .polar import polar_construct, polar_decode_sc, polar_encode
from .rotation import (
    apply_rotation,
    correct_bins,
    estimate_rotation_bins,
    rotation_bins,
    rotation_mse,
)
from .stability import (
    EXACT_LIMIT,
    EXTREMES,
    MIN_SAMPLE_COUNT,
    RADIUS_GRID,
    codebook_stabilities,
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

OFDM_SCHEMES = ("fm", "fm_chest", "tm")  # receivers ber_ofdm can run
OFDM_RANDOM_STEP_BACK = 5  # step_back "random" draws uniformly from 0..5 samples
LOOPBACK_CP_LEN = 8  # the cyclic prefix of the loopback packet
SEQUENCE_TEMPLATE_BINS = 1024  # the grid of ber-seq's rotation estimator (correct=True)


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

# a rule's kind -> (the type of its values, its name in messages)
_KINDS = {"int": (numbers.Integral, "an integer"), "number": (numbers.Real, "a finite number"),
          "level": (numbers.Real, "a level (dB, or +inf for no noise)"),
          "bool": ((bool, np.bool_), "true or false"), "path": (str, "a path")}


@dataclass(frozen=True)
class _Key:
    """The rule of one config key: a value of its kind (see _KINDS; None
    for `values` only) in least..most, one of `values`, or None if
    `optional`.  With `many`, a nonempty list of distinct such values."""

    kind: str = None
    least: float = -math.inf
    most: float = math.inf
    values: tuple = ()
    optional: bool = False
    many: bool = False

    def accepts(self, value) -> bool:
        if self.many:
            return (isinstance(value, (tuple, list)) and len(value) > 0
                    and all(map(self._fits, value)) and len(set(value)) == len(value))
        return value is None and self.optional or self._fits(value)

    def _fits(self, value) -> bool:
        if value in self.values or self.kind is None:
            return value in self.values
        if not isinstance(value, _KINDS[self.kind][0]):
            return False
        # a number is no bool, NaN or -inf, and +inf only if a level
        return (self.kind in ("bool", "path") or not isinstance(value, bool) and -math.inf < value
                and self.least <= value <= self.most and (value < math.inf or self.kind == "level"))

    def __str__(self) -> str:
        each = ["null"] * self.optional + [repr(value) for value in self.values]
        if self.kind:
            each.append(_KINDS[self.kind][1] + (
                "" if self.least == -math.inf else f" of at least {self.least}"
                if self.most == math.inf else f" in {self.least}..{self.most}"))
        text = " or ".join(filter(None, [", ".join(each[:-1]), each[-1]]))
        return f"a nonempty list of distinct entries, each {text}" if self.many else text


_COUNT = _Key("int", least=1)      # trials, threads, taps, sizes
_SWEEP = _Key("level", many=True)  # the Eb/N0 points
_SCHEME = _Key(values=("jutted", "huffman"))
_NUM_ZEROS = _Key("int", least=2)
_NUMBER_OR_NULL = _Key("number", optional=True)


def _key(default, rule: _Key):
    """A config key: a field with this default that carries its rule."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class _Config:
    """The keys of every kind; each field carries its rule (see _key)."""

    seed: int = _key(0, _Key("int", least=0))
    out: str = _key(None, _Key("path", optional=True))

    def __post_init__(self):
        for key in fields(self):
            value, rule = getattr(self, key.name), key.metadata["rule"]
            if not rule.accepts(value):
                raise ValueError(f"{key.name}={value!r} must be {rule}")


@dataclass(frozen=True)
class _ConstellationConfig(_Config):
    """A scheme's reference design, or an explicit radius and asymmetry."""

    scheme: str = _key("jutted", _SCHEME)
    num_zeros: int = _key(64, _NUM_ZEROS)
    radius: float = _key(None, _NUMBER_OR_NULL)     # None -> the scheme's design
    asymmetry: float = _key(None, _NUMBER_OR_NULL)  # only with a radius: > 1 if jutted, None -> 1

    def __post_init__(self):
        super().__post_init__()
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

    threads: int = _key(1, _COUNT)
    coding: str = _key("none", _Key(values=("none", "polar")))  # polar: the (32,16) code, K=32
    channel: str = _key("fading", _Key(values=("fading", "awgn")))
    channel_taps: int = _key(5, _COUNT)
    pdp: str = _key("uniform", _Key(values=("uniform",)))  # the profile of its equal-power taps
    # None | "uniform" | angle (radians)
    rotation: object = _key(None, _Key("number", values=("uniform",), optional=True))
    correct: bool = _key(False, _Key("bool"))  # run the template estimator + correction
    ebn0_db: tuple = _key((0.0, 4.0, 8.0, 12.0, 16.0), _SWEEP)
    trials: int = _key(20000, _COUNT)
    ofdm_schemes: tuple = _key(OFDM_SCHEMES, _Key(values=OFDM_SCHEMES, many=True))

    def __post_init__(self):
        super().__post_init__()
        if self.coding == "polar" and self.num_zeros != 32:
            raise ValueError(f"num_zeros={self.num_zeros}: polar-coded runs use K=32")
        if self.channel == "awgn" and self.channel_taps != BerSequenceConfig.channel_taps:
            raise ValueError(f"channel_taps={self.channel_taps}: an awgn channel has no taps")
        if self.correct and self.rotation is None:
            raise ValueError("correct=True: there is no rotation to correct; set rotation")
        if self.correct and 2 * self.num_zeros + 2 > SEQUENCE_TEMPLATE_BINS:
            raise ValueError(f"num_zeros={self.num_zeros}: correct=True needs 2K+2 <= "
                             f"{SEQUENCE_TEMPLATE_BINS}, the bins of its template")


@dataclass(frozen=True)
class BerOfdmConfig(_Config):
    """Polar-coded OFDM packets through each receiver of ofdm_schemes."""

    threads: int = _key(1, _COUNT)
    num_zeros: int = _key(32, _Key("int", least=32, most=32))
    channel: str = _key("fading", _Key(values=("fading", "flat")))
    channel_taps: int = _key(5, _COUNT)
    pdp: str = _key("uniform", _Key(values=chan.PDP_PROFILES))
    ebn0_db: tuple = _key((8.0, 12.0, 16.0, 20.0), _SWEEP)
    trials: int = _key(1000, _COUNT)
    idft_size: int = _key(256, _COUNT)
    cp_len: int = _key(9, _Key("int", least=0))
    payload_bits: int = _key(512, _COUNT)
    ofdm_schemes: tuple = _key(OFDM_SCHEMES, _Key(values=OFDM_SCHEMES, many=True))
    tm_preamble_zeros: int = _key(4, _Key("int", least=2))  # the preamble codeword's zeros
    # "random" (uniform over 0..5) | int
    step_back: object = _key("random", _Key("int", least=0, values=("random",)))

    def __post_init__(self):
        super().__post_init__()
        if self.payload_bits % 16:  # 16 bits per polar block
            raise ValueError(f"payload_bits={self.payload_bits}: not a positive multiple of 16")
        if self.idft_size < 2 * self.num_zeros + 2:
            raise ValueError(f"idft_size={self.idft_size}: the template needs 2K+2 bins")
        if "tm" in self.ofdm_schemes and self.payload_bits > 16 * self.idft_size:
            raise ValueError(f"payload_bits={self.payload_bits}: tm's {self.payload_bits // 16} "
                             f"codewords, one per subcarrier, exceed idft_size={self.idft_size}")
        if self.channel == "flat" and self.channel_taps != BerOfdmConfig.channel_taps:
            raise ValueError(f"channel_taps={self.channel_taps}: a flat channel has no taps")
        if self.channel == "flat" and self.pdp != BerOfdmConfig.pdp:
            raise ValueError(f"pdp={self.pdp!r}: a flat channel has no power delay profile")
        # the prefix rule: the grid link is exact only if the deepest
        # step-back plus the channel span stays inside the cyclic prefix
        deepest = OFDM_RANDOM_STEP_BACK if self.step_back == "random" else self.step_back
        span = self.channel_taps - 1 if self.channel == "fading" else 0
        if deepest + span > self.cp_len:
            raise ValueError(f"step_back={self.step_back!r} (up to {deepest} samples) plus the "
                             f"span of channel_taps={self.channel_taps} on a {self.channel} "
                             f"channel ({span}) exceeds cp_len={self.cp_len}")


@dataclass(frozen=True)
class RotationMseConfig(_ConstellationConfig):
    """Rotation-estimator MSE of every estimator size on shared trials."""

    num_zeros: int = _key(31, _NUM_ZEROS)
    threads: int = _key(1, _COUNT)
    ebn0_db: tuple = _key((0.0, 4.0, 8.0, 12.0, 16.0), _SWEEP)
    trials: int = _key(10000, _COUNT)
    estimator_bins: tuple = _key((64, 1024), _Key("int", least=1, many=True))

    def __post_init__(self):
        super().__post_init__()
        if min(self.estimator_bins) < 2 * self.num_zeros + 2:
            raise ValueError(f"estimator_bins={self.estimator_bins!r}: a K={self.num_zeros} "
                             f"template needs at least {2 * self.num_zeros + 2} bins")


@dataclass(frozen=True)
class DesignCurvesConfig(_Config):
    """The serial radius search R*(K, zeta) for each asymmetry of a list."""

    # below K=32 the minimum stability can fall monotonically in R
    num_zeros: int = _key(32, _Key("int", least=32))
    asymmetry: tuple = _key((1.0, 1.03, 1.06, 1.09, 1.12, 1.15), _Key("number", least=1, many=True))

    def __post_init__(self):
        super().__post_init__()
        # as R^K grows, the extremes' synthesized zeros fail their root check
        # first, and a K that fails on the grid fails at its last radius
        for zeta in self.asymmetry:
            try:
                codebook_stabilities(ConstellationParams(self.num_zeros, RADIUS_GRID[-1], zeta), 0)
            except ArithmeticError as error:
                raise ValueError(f"num_zeros={self.num_zeros}, asymmetry={zeta}: at the grid's "
                                 f"last radius {RADIUS_GRID[-1]:.6g}, R^K is too large for the "
                                 f"synthesized codewords to keep their zeros ({error})") from None


@dataclass(frozen=True)
class PaprTableConfig(_Config):
    """The fixed table of K=63 and K=127 Huffman and K=127 jutted PAPRs."""


@dataclass(frozen=True)
class StabilityReportConfig(_ConstellationConfig):
    """Mean and minimum noiseless codebook stability of one constellation."""

    scheme: str = _key("huffman", _SCHEME)
    num_zeros: int = _key(8, _NUM_ZEROS)
    radius: float = _key(1.176, _NUMBER_OR_NULL)
    asymmetry: float = _key(1.0, _NUMBER_OR_NULL)

    def __post_init__(self):
        super().__post_init__()
        # as for design-curves: the extremes fail first where R^K is large
        params = self.constellation()
        try:
            codebook_stabilities(params, 0)
        except ArithmeticError as error:
            raise ValueError(f"num_zeros={self.num_zeros}, radius={params.radius}: R^K is too "
                             "large for the synthesized codewords to keep their zeros "
                             f"({error})") from None


@dataclass(frozen=True)
class LoopbackConfig(_Config):
    """The fixed K=127, 424-bit, 512-point packet through the I/Q loopback."""

    loopback_snr_db: float = _key(None, _Key("level", optional=True))  # None -> noiseless
    # samples into the packet's cyclic prefix; at most its length keeps the
    # prefix rule on the one-tap channel, of span 0
    loopback_step_back: int = _key(6, _Key("int", least=0, most=LOOPBACK_CP_LEN))


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
    lines.append(",".join(column.name for column in fields(MetricRow)))
    for r in rows:
        lines.append(
            f"{r.experiment},{r.param_name},{r.param_value:.10g},"
            f"{r.metric},{r.value:.10g},{r.trials},{r.seed}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _mapped_slots(slots, count) -> dict:
    """`count` trials of each slot of {name: (shape per trial, dtype)}, on
    whole cache lines of one anonymous mapping, unmapped with its last view."""
    sizes = [count * math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in slots.values()]
    starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes])  # whole cache lines
    memory = np.frombuffer(mmap.mmap(-1, int(starts[-1])), np.uint8)
    return {name: memory[start : start + size].view(dtype).reshape((count,) + shape)
            for (name, (shape, dtype)), start, size in zip(slots.items(), starts, sizes)}


def _sweep(config, worker, chunk=4096, slots=None) -> list:
    """Each Eb/N0 point's counts: worker(ebn0, rng, n, buffers) returns a
    tuple of counts for one chunk of n trials drawn from rng, the generator
    of SeedSequence(config.seed, spawn_key=(point, chunk)), and `buffers`
    holds the worker's `slots` as the leading n rows of the largest chunk's
    `_mapped_slots`, which _sweep makes on each thread's first job and frees
    when it returns.  Every job goes on one pool of config.threads threads,
    and each point's counts are summed in chunk order, so the sums do not
    depend on the pool."""
    full, rest = divmod(config.trials, chunk)
    sizes = [chunk] * full + [rest] * (rest > 0)
    made = threading.local()  # this thread's slots, made on its first job

    def job(key):
        (point, i), n = key, sizes[key[1]]
        if not hasattr(made, "slots"):
            made.slots = _mapped_slots(slots, sizes[0]) if slots else {}
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))
        return worker(config.ebn0_db[point], rng, n,
                      {name: whole[:n] for name, whole in made.slots.items()})

    keys = [(point, i) for point in range(len(config.ebn0_db)) for i in range(len(sizes))]
    # one thread runs the jobs on this one, and the pool starts no thread
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
        results = list((pool.map if config.threads > 1 else map)(job, keys))
    return [[sum(column) for column in zip(*results[first:first + len(sizes)])]
            for first in range(0, len(keys), len(sizes))]


def _rate_rows(config, names, counts) -> list:
    """BER and BLER rows of each curve of `names` over the Eb/N0 points;
    counts[point] holds (bit errors, block errors, bits, blocks) per curve,
    in the order of `names`."""
    rows = []
    for i, name in enumerate(names):
        for ebn0, point in zip(config.ebn0_db, counts):
            bit_err, blk_err, bits, blocks = point[4 * i : 4 * i + 4]
            rows.append(MetricRow(name, "ebn0_db", ebn0, "ber", bit_err / bits,
                                  config.trials, config.seed))
            rows.append(MetricRow(name, "ebn0_db", ebn0, "bler", blk_err / blocks,
                                  config.trials, config.seed))
    return rows


# ---------------------------------------------------------------------------
# sequence-level link: encode -> convolutive channel -> rotate -> (correct)
# -> decode

def _sequence_link(rng, coeffs, channel_taps, noise_var, rotation):
    """Codewords through `channel_taps` equal-power fading taps each (None:
    AWGN alone), noise, then the zero rotation of BerSequenceConfig.rotation.
    Returns the received coefficients and each codeword's angle.

    Takes ownership of `coeffs` (a fresh encode_coeffs stack): the AWGN
    link adds its noise to it in place and returns it."""
    n = len(coeffs)
    if channel_taps is None:
        # draws its noise even at noise_var 0, where convolve_channel draws none
        received = chan.add_noise(coeffs, noise_var, rng)
    else:
        taps = chan.draw_cir((n, channel_taps), rng)
        received = chan.convolve_channel(coeffs, taps, noise_var, rng)
    if rotation is None:
        return received, np.zeros(n)
    if rotation == "uniform":
        angles = rng.uniform(0.0, 2.0 * np.pi, n)
    else:
        angles = np.full(n, float(rotation))
    return apply_rotation(received, angles), angles


def run_ber_sequence(config: BerSequenceConfig) -> list:
    """Codeword-level BER/BLER sweep for one scheme/coding/rotation setup."""
    params = config.constellation()
    k = params.num_zeros
    polar_spec = polar_construct(32, 16) if config.coding == "polar" else None
    n_info = 16 if config.coding == "polar" else k
    channel_taps = config.channel_taps if config.channel == "fading" else None
    template = make_template(params, SEQUENCE_TEMPLATE_BINS) if config.correct else None
    name = f"ber-seq-{config.scheme}"
    if config.coding == "polar":
        name += "-polar"
    if config.rotation is not None:
        name += "-rot" + ("corr" if config.correct else "")

    def worker(ebn0, rng, n, _):
        messages = rng.integers(0, 2, (n, n_info))
        bits = polar_encode(messages, polar_spec) if config.coding == "polar" else messages
        noise_var = chan.ebn0_to_noise_var(ebn0, n_info, k + 1)
        received, _ = _sequence_link(rng, encode_coeffs(bits, params), channel_taps,
                                     noise_var, config.rotation)
        if config.correct:
            received = correct_bins(received, rotation_bins(received, template), template.size)
        if config.coding == "polar":
            decoded = polar_decode_sc(pseudo_llrs(received, params), polar_spec)
        else:
            decoded = dizet_hard(received, params)
        errs = decoded != messages
        return int(errs.sum()), int(errs.any(axis=1).sum()), n * n_info, n

    return _rate_rows(config, [name], _sweep(config, worker))


def run_rotation_mse(config: RotationMseConfig) -> list:
    """Rotation-estimator MSE sweep over one-tap fading and uniform
    rotation; all estimator sizes share each trial's channel, noise and
    rotation draw so their curves are directly comparable."""
    params = config.constellation()
    k = params.num_zeros
    templates = [make_template(params, nb) for nb in config.estimator_bins]

    def worker(ebn0, rng, n, _):
        coeffs = encode_coeffs(rng.integers(0, 2, (n, k)), params)
        noise_var = chan.ebn0_to_noise_var(ebn0, k, k + 1)
        received, angles = _sequence_link(rng, coeffs, 1, noise_var, "uniform")
        return tuple(rotation_mse(angles, 2.0 * np.pi * rotation_bins(received, t) / t.size) * n
                     for t in templates)

    rows = []
    for ebn0, sums in zip(config.ebn0_db, _sweep(config, worker)):
        for template, sq_sum in zip(templates, sums):
            rows.append(MetricRow(f"rotation-mse-n{template.size}", "ebn0_db", ebn0,
                                  "mse", sq_sum / config.trials, config.trials, config.seed))
    return rows


# ---------------------------------------------------------------------------
# OFDM link on the demodulated resource grid
#
# Every receiver's cells go through one grid link, `_grid_link`: the
# packet's per-subcarrier gains H_l (the N-point transform of its taps),
# white per-cell noise, then the residual-timing phase ramp
# e^{-j 2 pi l delta / N} of a window stepped back delta samples into the
# cyclic prefix.  The ramp multiplies the noisy cells, which keeps a common
# random stream exactly comparable across step-back values.  Without noise
# the link equals the sample-level chain (ofdm_modulate, apply_ofdm_channel,
# the stepped-back window, ofdm_demodulate) cell for cell whenever
# step_back + channel_taps - 1 <= cp_len, and is off once the window reads
# a sample of the previous symbol, as
# tests/test_experiments.py::TestGridLink::test_matches_sample_level_chain
# asserts.  BerOfdmConfig rejects every config outside that prefix rule.
#
# Each chunk of OFDM_CHUNK_PACKETS packets is drawn and synthesized once for
# all its schemes.  `_draw_packets` makes the fields they share, one
# generator call per field: messages, channel taps, then the payload cell
# noise.  From the generator state those leave, `_draw_scheme` makes each
# scheme's own: fm_chest's preamble bits, preamble noise and noise
# estimate, then the step-backs.  The step-backs come last, so a fixed
# step-back, which draws nothing, leaves every other field as a random one
# does.  fm_chest's receiver reads its G*T guard cells (G null subcarriers
# by T preamble symbols) only through their mean power, which for white
# noise of variance noise_var is exactly noise_var * Gamma(G*T, 1/(G*T)),
# so that mean is drawn directly, one Gamma draw per packet.  Both noises
# are drawn at unit scale (`complex_noise` at variance 2, whose scale is
# exactly 1), and the link adds them times sqrt(noise_var / 2) on the
# float view, the multiply `complex_noise` makes, GRID_BLOCK_VALUES values
# at a time, so no scaled copy of a whole noise is made; tm's payload noise
# is fm's reshaped, so every scheme sees, bit for bit, the random stream it
# would in a sweep of its own.  Polar encoding, the payload and jutted
# synthesis and the taps' transform run once per chunk, on stacks with a
# leading packet axis.  Each scheme then decodes the chunk (the link, the
# rotation or channel estimate, pseudo-LLRs, SC decoding) on its own copy
# of the codewords, since the link works in place.  Each packet keeps its
# own matrix shapes in the zero-testing products (the packet axis is a
# stack axis), so every packet's numbers are those of a receiver that
# decodes one packet at a time, bit for bit.
#
# Each worker thread decodes its chunks in one set of buffers: the slots
# run_ber_ofdm declares per packet (below), which `_sweep`, not the runner,
# makes on the thread's first chunk and frees when it returns.  They are
# views of one anonymous mapping per thread, not heap arrays, so that
# freeing them returns their pages: heap arrays freed at the end of a
# 1-thread run stay behind later small allocations as a hole the next
# 2-thread sweep does not use, which read 48.65 against 47.00 MB of ofdm_k32
# peak RSS (medians of four 10-s runs).  Per packet, at K=32 with 512
# payload bits and N=256:
#   noise      (K+1, blocks) complex, 16.9 KB: the unit payload noise, read
#              by every scheme's link;
#   codewords  (blocks, K+1) complex, 16.9 KB: the payload codewords;
#   gains      (N,) complex, 4.1 KB: the taps' transform (none if flat);
#   cells      (blocks, K+1) complex, 16.9 KB: a scheme's copy of the
#              codewords through the link, derotated or equalized in place,
#              then, once pseudo_llrs has read it, SC's bit-major copy of
#              the LLRs;
#   work       max(K * blocks, 5N) floats, 10.2 KB: rotation_bins' three
#              block buffers (fm), then the LLR stack both pseudo_llrs calls
#              write into (each packet's first codeword, then the payload).
# That is 65 KB per packet, 1.56 MB per thread at 24 packets.  A chunk's
# temporaries peak at 0.62 MB more (tracemalloc), 2.18 MB (91 KB per
# packet) in all; the largest are blocks of at most 256 KiB, reused from
# the heap chunk after chunk.  With new arrays for every chunk, each chunk
# freed about 3.7 MB, glibc trimmed its heap and the next chunk faulted the
# pages in again: 18,228 minor faults per 1-thread ofdm_k32 sweep, against
# about 380 now, the buffers' own pages (ROADMAP).  256-packet chunks would
# hold 16.6 MB of buffers per thread.

OFDM_CHUNK_PACKETS = 24
GRID_BLOCK_VALUES = 2**14  # unit noise values (256 KiB) `_grid_link` scales at once


def _draw_packets(rng, count, config: BerOfdmConfig, noise):
    """The draws every scheme shares for `count` packets, one generator call
    per field, each with a leading packet axis: the messages, the taps
    ("cirs", absent on a flat channel), then the payload cell noise at unit
    scale, as fm's (S, T) = (K+1, blocks) grid (tm's is the same stream
    reshaped), drawn into `noise`, a C-contiguous complex128 array of that
    (count, S, T) shape."""
    blocks = config.payload_bits // 16
    draws = {"messages": rng.integers(0, 2, (count, blocks, 16), dtype=np.uint8)}
    if config.channel != "flat":
        draws["cirs"] = chan.draw_cir((count, config.channel_taps), rng, profile=config.pdp)
    # complex_noise's values: add_noise on negative zeros, the additive identity
    noise.fill(complex(-0.0, -0.0))
    draws["noise"] = chan.add_noise(noise, 2.0, rng)
    return draws


def _draw_scheme(rng, count, config: BerOfdmConfig, noise_var, with_chest):
    """A scheme's own draws for `count` packets, one generator call per
    field: the fm_chest preamble bits, preamble noise at unit scale (the
    link scales it) and noise estimate (only with_chest), then the
    step-backs.  A fixed step-back draws nothing.  The noise estimate is
    `phy.estimate_noise_var` of a packet's G*T guard cells drawn from its
    exact law: the mean of G*T Exp(noise_var) cell powers,
    noise_var * Gamma(G*T, 1/(G*T)), exactly 0.0 at noise_var 0."""
    draws = {}
    if with_chest:
        n_sub, ktm = config.num_zeros + 1, config.tm_preamble_zeros
        guard_cells = (config.idft_size - n_sub) * (ktm + 1)
        draws["pre_bits"] = rng.integers(0, 2, (count, n_sub, ktm), dtype=np.uint8)
        draws["pre_noise"] = chan.complex_noise((count, n_sub, ktm + 1), 2.0, rng)
        draws["noise_estimate"] = rng.gamma(guard_cells, noise_var / guard_cells, count)
    draws["step_backs"] = (rng.integers(0, OFDM_RANDOM_STEP_BACK + 1, count)
                           if config.step_back == "random" else np.full(count, config.step_back))
    return draws


def _scaled(unit, noise_var):
    """complex_noise(shape, noise_var, rng) from the unit noise
    complex_noise(shape, 2.0, rng) of the same stream: its multiply by
    sqrt(noise_var / 2), on the float view."""
    return (unit.view(float) * np.sqrt(noise_var / 2.0)).view(complex)


def _grid_link(cells, noise, gains, step_backs, idft_size, noise_var):
    """(P, S, T) cells, P packets of S subcarriers by T symbols, through
    each packet's gains (the (P, idft_size) transform of its taps; None on
    a flat channel), the unit noise `noise` `_scaled` to noise_var
    GRID_BLOCK_VALUES values at a time, then its step-back ramp, in place."""
    n_sub = cells.shape[1]
    if gains is not None:
        cells *= gains[:, :n_sub, None]
    step = max(1, GRID_BLOCK_VALUES // math.prod(cells.shape[1:]))
    for start in range(0, len(cells), step):
        cells[start : start + step] += _scaled(noise[start : start + step], noise_var)
    cells *= np.exp(-2j * np.pi * np.arange(n_sub) * step_backs[:, None] / idft_size)[..., None]
    return cells


def run_ber_ofdm(config: BerOfdmConfig) -> list:
    """Packet-level BER/BLER for the configured OFDM schemes.  The schemes
    of a chunk share its draws and synthesis, and each sees the random
    stream it would in a sweep of its own."""
    k, n_idft, ktm = config.num_zeros, config.idft_size, config.tm_preamble_zeros
    blocks = config.payload_bits // 16
    payload, first = huffman_params(k), jutted_params(k)
    preamble = huffman_params(ktm)
    polar_spec = polar_construct(32, 16)
    template = make_template(first, n_idft)
    # each buffer's shape per packet (comment block above OFDM_CHUNK_PACKETS)
    shapes = {"noise": ((k + 1, blocks), complex), "codewords": ((blocks, k + 1), complex),
              "cells": ((blocks, k + 1), complex), "work": ((max(k * blocks, 5 * n_idft),), float)}
    if config.channel != "flat":
        shapes["gains"] = ((n_idft,), complex)

    def decode(scheme, chunk, own, noise_var, slots):
        """(P, blocks, 16) decoded messages of a chunk of packets, sent on the
        scheme's own copy of the chunk's (P, blocks, K+1) payload codewords
        (fm and fm_chest send each packet's first codeword jutted), decoded
        in the thread's buffers `slots`."""
        gains, step_backs = chunk["gains"], own["step_backs"]
        if scheme == "fm_chest":
            # estimated first, so the preamble cells are freed before the
            # payload is linked
            pre_rx = _grid_link(encode_coeffs(own.pop("pre_bits"), preamble),
                                own.pop("pre_noise"), gains, step_backs, n_idft, noise_var)
            equalizer = estimate_channel_blind(pre_rx, preamble,
                                               own.pop("noise_estimate")).equalizer
            del pre_rx
        cells, work = slots["cells"], slots["work"]
        np.copyto(cells, chunk["codewords"])
        n = len(cells)
        if scheme == "tm":
            # (P, S, K+1): subcarrier s carries codeword s, and the ramp is a
            # constant phase per codeword, which rotates no zero
            grid = cells
        else:
            # (P, M, S): FM symbol m carries codeword m on its S subcarriers,
            # a jutted first codeword, then Huffman payload codewords
            cells[:, 0] = chunk["jutted"]
            grid = cells.transpose(0, 2, 1)
        _grid_link(grid, chunk["noise"].reshape(grid.shape), gains, step_backs, n_idft,
                   noise_var)
        # the LLR stack's rows: fm's and fm_chest's first codeword of each
        # packet, then the payload codewords, packet by packet
        llrs = work.reshape(-1)[: n * blocks * k]
        if scheme == "tm":
            pseudo_llrs(cells, payload, out=llrs.reshape(n, blocks, k))
        else:
            if scheme == "fm_chest":
                cells *= equalizer[:, None]
            else:
                bins = rotation_bins(cells[:, 0], template, work=work)
                correct_bins(cells, bins[:, None], template.size, out=cells)
            # cells[:, :1] keeps the jutted symbol a one-row product per packet
            pseudo_llrs(cells[:, :1], first, out=llrs[: n * k].reshape(n, 1, k))
            pseudo_llrs(cells[:, 1:], payload, out=llrs[n * k :].reshape(n, blocks - 1, k))
        decoded = polar_decode_sc(llrs.reshape(-1, k), polar_spec, work=cells.view(float))
        if scheme == "tm":
            return decoded.reshape(n, blocks, -1)
        return np.concatenate([decoded[:n, None], decoded[n:].reshape(n, blocks - 1, 16)], axis=1)

    def worker(ebn0, rng, n, slots):
        chunk = _draw_packets(rng, n, config, slots["noise"])
        after_shared = rng.bit_generator.state
        chunk["gains"] = (np.fft.fft(chunk.pop("cirs"), n_idft, out=slots["gains"])
                          if "cirs" in chunk else None)
        code_bits = polar_encode(chunk["messages"], polar_spec)
        chunk["codewords"] = encode_coeffs(code_bits, payload, out=slots["codewords"])
        chunk["jutted"] = encode_coeffs(code_bits[:, 0], first)
        del code_bits
        counts = ()
        for scheme in config.ofdm_schemes:  # BerOfdmConfig has checked each
            with_chest = scheme == "fm_chest"
            # cells, the packet's total squared grid magnitude, takes (N + Ncp)
            # * cells in time, and the demodulator scales noise variance by 1/N
            cells = blocks * (k + 1) + with_chest * (k + 1) * (ktm + 1)
            noise_var = chan.ebn0_to_noise_var(ebn0, config.payload_bits,
                                               (n_idft + config.cp_len) * cells) / n_idft
            rng.bit_generator.state = after_shared
            own = _draw_scheme(rng, n, config, noise_var, with_chest)
            errs = decode(scheme, chunk, own, noise_var, slots) != chunk["messages"]
            # count_nonzero: a bool sum would buffer its cast to int
            counts += (np.count_nonzero(errs), np.count_nonzero(errs.any(axis=-1)),
                       n * config.payload_bits, n * blocks)
        return counts

    names = [f"ber-ofdm-{scheme}" for scheme in config.ofdm_schemes]
    return _rate_rows(config, names, _sweep(config, worker, OFDM_CHUNK_PACKETS, shapes))


# ---------------------------------------------------------------------------
# analysis-style experiments

def run_design_curves(config: DesignCurvesConfig) -> list:
    """R*(K, zeta) over RADIUS_GRID for each asymmetry, with the minimum
    codebook stability there and the template PAPR.  Raises if R* is an
    edge of the grid, which then did not bracket the optimum."""
    rows = []
    for zeta in map(float, config.asymmetry):
        r_star = optimize_radius(config.num_zeros, zeta, RADIUS_GRID, seed=config.seed)
        if r_star in (RADIUS_GRID[0], RADIUS_GRID[-1]):
            raise ValueError(f"num_zeros={config.num_zeros}, asymmetry={zeta}: R*={r_star:.6g} "
                             f"is an edge of the radius grid [{RADIUS_GRID[0]:.6g}, "
                             f"{RADIUS_GRID[-1]:.6g}]")
        params = ConstellationParams(config.num_zeros, r_star, zeta)
        c_min = float(np.min(codebook_stabilities(params, MIN_SAMPLE_COUNT, config.seed)))
        papr_db, _ = papr_fm(params)
        for metric, value in (("r_star", r_star), ("c_min", c_min), ("papr_db", papr_db)):
            rows.append(MetricRow("design-curves", "asymmetry", zeta, metric, value, 1,
                                  config.seed))
    return rows


def run_papr_table(config: PaprTableConfig) -> list:
    entries = [
        ("huffman", ConstellationParams(63, 1.025)),
        ("huffman", huffman_params(127)),
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
    # one scoring gives both rows; a sampled minimum covers the extremes
    # and MIN_SAMPLE_COUNT more, the messages a radius search scores
    if k <= EXACT_LIMIT:
        mean_part = min_part = codebook_stabilities(params)
    else:
        scores = codebook_stabilities(params, SAMPLED_CODEBOOK_SIZE, config.seed)
        mean_part, min_part = scores[EXTREMES:], scores[: EXTREMES + MIN_SAMPLE_COUNT]
    return [
        MetricRow("stability", "num_zeros", k, "c_bar", float(np.mean(mean_part)),
                  len(mean_part), config.seed),
        MetricRow("stability", "num_zeros", k, "c_min", float(np.min(min_part)),
                  len(min_part), config.seed),
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
    424 payload bits, uncoded, in 4 codewords of 127 bits each (the last
    holds 43 payload bits and 84 filler zeros).
    """
    rng = np.random.default_rng(config.seed)
    k = 127
    payload_bits = 424
    blocks = -(-payload_bits // k)
    header_len = k // 2

    sync_params = ConstellationParams(header_len, 1.025)
    first_params = jutted_params(k)
    payload_params = huffman_params(k)

    n_idft, fs = 512, 20e6
    n_sub = k + 1
    cfg = OfdmConfig(n_idft, LOOPBACK_CP_LEN, fs, n_sub, blocks + 1)

    header = rng.integers(0, 2, header_len)
    payload = rng.integers(0, 2, payload_bits)
    padded = np.concatenate([payload, np.zeros(blocks * k - payload_bits, dtype=int)])
    # codeword b carries payload bits [b*k, b*k + k); the last ends in filler zeros
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
    # padded by a packet on each side, so a sync miss shows as bit errors
    rx = np.pad(correct_cfo(rx, sync.cfo_hat, fs), cfg.stream_len)
    start = cfg.stream_len + sync.tau_hat - cfg.cp_len - config.loopback_step_back
    rx_grid = ofdm_demodulate(rx[start : start + cfg.stream_len], cfg)

    # residual timing from the raw samples of the jutted symbol's window
    window = slice(start + cfg.symbol_len + cfg.cp_len,
                   start + cfg.symbol_len + cfg.cp_len + n_idft)
    template = make_template(first_params, n_idft)
    n_hat = int(estimate_rotation_bins(np.abs(rx[window]), template))
    rx_grid = correct_bins(rx_grid.T, n_hat, n_idft).T

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
    values = [("loopback-header", "ber", report.header_errors / report.header_bits),
              ("loopback-payload", "ber", report.payload_errors / report.payload_bits),
              ("loopback-payload", "papr_db", report.payload_papr_db),
              ("loopback-template", "papr_db", report.template_papr_db)]
    return [MetricRow(name, "num_zeros", 127, metric, value, 1, config.seed)
            for name, metric, value in values]


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
