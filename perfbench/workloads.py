"""The benchmark's workloads: one sweep at a given thread count, and the
checks on its output.

A sweep is a closed batch: the program runs it to completion before the
next starts, and inside it a new chunk starts only when a pool thread is
free.  Throughput is the work a sweep completes divided by its wall time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from jbmocz.cli import ENERGY_NOTE, load_config
from jbmocz.experiments import run_experiment, write_csv
from jbmocz.stability import MIN_SAMPLE_COUNT, optimize_radius

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# Band on each BER/BLER point: the mean of the reference sweeps +- SIGMAS
# times their standard deviation.  record_reference.py runs those sweeps at
# the benchmark's own trial count, each on its own seed, so the deviation is
# the measured sweep-to-sweep spread of the point; sqrt(1 + 1/n) adds the
# uncertainty of a mean over n reference sweeps.
SIGMAS = 7.0


def band_half_width(sd: float, sweeps: int) -> float:
    return SIGMAS * sd * math.sqrt(1.0 + 1.0 / sweeps)


def point_rates(rows) -> dict:
    """Map "experiment,Eb/N0,metric" to the value of every BER/BLER row."""
    return {f"{r.experiment},{r.param_value:g},{r.metric}": r.value
            for r in rows if r.metric in ("ber", "bler")}


@dataclass
class Sweep:
    items: int
    wall_s: float
    text: str  # the sweep's output, compared byte for byte across thread counts
    checks: list  # (label, passed)


class ExperimentWorkload:
    """A YAML config run through jbmocz.cli.load_config and
    jbmocz.experiments.run_experiment, at threads=1 and on the pool."""

    serial = False

    def __init__(self, name: str, kind: str, item: str):
        self.name, self.kind, self.item = name, kind, item
        self._reference = None

    def config(self, seed: int, threads: int, **overrides):
        return load_config(self.kind, str(CONFIGS / f"{self.name}.yaml"),
                           dict(seed=seed, threads=threads, **overrides))

    def items(self, config) -> int:
        schemes = len(config.ofdm_schemes) if self.kind == "ber_ofdm" else 1
        return config.trials * len(config.ebn0_db) * schemes

    def warm_up(self, threads: int, trials: int = None) -> None:
        """Run the first sweep point (and first OFDM scheme); at the full
        trial count by default, so that every pool thread has run a chunk."""
        config = self.config(0, threads)
        run_experiment(self.config(0, threads, trials=trials, ebn0_db=config.ebn0_db[:1],
                                   ofdm_schemes=config.ofdm_schemes[:1]))

    def sweep(self, seed: int, threads: int) -> Sweep:
        config = self.config(seed, threads)
        start = perf_counter()
        rows = run_experiment(config)
        wall = perf_counter() - start
        path = OUT / f"{self.name}-t{threads}.csv"
        write_csv(rows, path, header_note=ENERGY_NOTE)
        return Sweep(self.items(config), wall, path.read_text(), self.band_checks(rows))

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text())[self.name]
        return self._reference

    def band_checks(self, rows) -> list:
        """One check per recorded BER/BLER point; a point the sweep no longer
        produces fails."""
        ref = self.reference()
        values = point_rates(rows)
        checks = []
        for key in sorted(set(ref["points"]) | set(values)):
            point, value = ref["points"].get(key), values.get(key)
            if point is None or value is None:
                checks.append((f"{key}: {'no reference' if point is None else 'missing'}", False))
                continue
            half = band_half_width(point["sd"], ref["sweeps"])
            checks.append((f"{key}={value:.4g} within {point['mean']:.4g}+-{half:.2g}",
                           abs(value - point["mean"]) <= half))
        return checks

    def sizes(self) -> dict:
        c = self.config(0, 1)
        sizes = dict(kind=self.kind, num_zeros=c.num_zeros, ebn0_db=list(c.ebn0_db),
                     trials_per_point=c.trials, items_per_sweep=self.items(c), item=self.item)
        if self.kind == "ber_ofdm":
            sizes.update(ofdm_schemes=list(c.ofdm_schemes), payload_bits=c.payload_bits,
                         idft_size=c.idft_size)
        else:
            sizes.update(coding=c.coding, channel=c.channel, rotation=c.rotation,
                         correct=c.correct)
        return sizes


class DesignWorkload:
    """Criterion 2's radius search R*(128, 1) through
    jbmocz.stability.optimize_radius.  A sweep is one search with its own
    sampled codebook.  optimize_radius has no threads setting and the
    program runs its searches one after another, so the sweep runs serially
    whatever thread count it is given."""

    NUM_ZEROS = 128
    ASYMMETRY = 1.0
    GRID = np.arange(1.005, 1.0305, 0.001)  # 26 radii
    R_STAR, R_TOL = 1.015, 0.003
    serial = True

    def __init__(self, name: str):
        self.name, self.item = name, "radii"

    def warm_up(self, threads: int, trials: int = None) -> None:
        optimize_radius(self.NUM_ZEROS, self.ASYMMETRY, self.GRID[:1], samples=1)

    def sweep(self, seed: int, threads: int) -> Sweep:
        start = perf_counter()
        radius = optimize_radius(self.NUM_ZEROS, self.ASYMMETRY, self.GRID, seed=seed)
        wall = perf_counter() - start
        check = (f"R*(128,1) sample seed {seed} = {radius:.3f} within {self.R_STAR}+-{self.R_TOL}",
                 abs(radius - self.R_STAR) <= self.R_TOL)
        return Sweep(len(self.GRID), wall, f"{seed},{radius:.10g}\n", [check])

    def sizes(self) -> dict:
        return dict(num_zeros=self.NUM_ZEROS, asymmetry=self.ASYMMETRY,
                    radii=len(self.GRID), radius_range=[float(self.GRID[0]), float(self.GRID[-1])],
                    sampled_messages=MIN_SAMPLE_COUNT + 2, searches_per_sweep=1,
                    items_per_sweep=len(self.GRID), item=self.item)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    ExperimentWorkload("seq_k64_fading", "ber_sequence", "codewords"),
    ExperimentWorkload("seq_k32_polar_rot", "ber_sequence", "codewords"),
    ExperimentWorkload("ofdm_k32", "ber_ofdm", "packets"),
    DesignWorkload("design_k128"),
)}
