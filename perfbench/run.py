"""Benchmark for the jbmocz Monte-Carlo harness: end-to-end throughput per
workload, and an outside-in per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload seq_k64_fading --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

    seq_k64_fading     ber_sequence, jutted K=64, 5-tap fading, uncoded, 14-20 dB
    seq_k32_polar_rot  ber_sequence, jutted K=32, polar (32,16), AWGN, uniform
                       rotation with template correction, 4-10 dB
    ofdm_k32           ber_ofdm, K=32, schemes fm/fm_chest/tm, 5-tap, 14 dB
    design_k128        optimize_radius(128, 1.0) over 26 radii (criterion 2)

The load is batch and closed: one sweep at a time, each run to completion
before the next starts.  The benchmark drives the program only through its
public entry points (jbmocz.cli.load_config with the YAML files in configs/,
then jbmocz.experiments.run_experiment; jbmocz.stability.optimize_radius),
with a pool of 2 threads and BLAS held to one thread.

--trace 0 measures for --seconds, in rounds that each run a sweep at
threads=1 and at threads=2 on the same inputs (the order flips every round);
a new round starts only if it is expected to end within --seconds.
design_k128 is timed only as the program runs it, serially: its rounds hold
one sweep (one search), and both throughputs below report that serial rate.
It reports

    setup_s          median, over SETUP_REPS fresh processes (half started
                     before the sweeps, half after), of the time from
                     process start to the end of a one-trial warm-up run
                     (import, config loading, constellations, templates, the
                     polar spec and any cache built on first use)
    trials_per_s     median of the faster half of the run's per-sweep
                     throughputs at threads=2 (see faster_half_median), where
                     a trial is a codeword (seq_*), a packet over all three
                     schemes (ofdm_k32) or a radius scored (design_k128)
    trials_per_s_1t  the same at threads=1
    peak_rss_mb      peak resident memory of the measuring process

The report lines before the result also print these under the names
codewords_per_s, packets_per_s and radii_per_s, and failed_frac.

--trace 1 runs a fixed amount of work (one sweep untraced at threads=1, then
one traced at threads=1 and at threads=2, all on the same inputs, so calls
and rows repeat exactly at a fixed seed; design_k128 is traced only at
threads=1, so its busy_inflation_2t is 1) plus the fixed-shape layer timings
of layers.py, and reports per-layer metrics:
<layer>.<function>.self_s/.calls/.rows at threads=1, experiments.self_s
(traced wall time not covered by a layer function), trace.wall_s,
trace.overhead_s (traced minus untraced wall time at threads=1) and
layers.busy_inflation_2t (summed layer self time at threads=2 over the same
sum at threads=1).

Every run checks its output: each BER/BLER point against a band of
SIGMAS (workloads.py) standard deviations of that point's spread over the
reference sweeps in reference.json (record_reference.py rebuilds it), at the
run's own trial count; byte-identical CSV at threads=1 and threads=2; and
R* = 1.015 +- 0.003 for design_k128.  Failed
checks count against attempted ones; none is dropped.

Out of scope: the workloads use only valid configs (payload_bits a multiple
of 16, known channel names), so the config defects of ROADMAP item 4 are not
tested here; sync_search and synthesis at K>=127 are timed only at fixed
shapes and move no end-to-end metric.

The last line of stdout is the result JSON; a fuller record with run facts,
per-sweep samples and every check goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pool threads plus BLAS threads must not exceed the two cores, so BLAS is
# held at one thread.  This must happen before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS setting above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = 2
SETUP_REPS = 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def pair_seed(seed: int, index: int) -> int:
    """Experiment seed of the index-th sweep pair of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {line!r}")
    return ready


def faster_half_median(rates: list) -> float:
    """Median of the faster half of a run's per-sweep rates.  On a shared
    host, interference from outside the process (mostly CPU time stolen by
    the hypervisor, which hits two busy threads hardest) only ever slows a
    sweep, so the faster sweeps estimate the program's own speed more
    steadily than the median of all of them."""
    return statistics.median(sorted(rates)[len(rates) // 2:])


def thread_counts(workload) -> tuple:
    return (1,) if workload.serial else (1, THREADS)


def run_end_to_end(workload, seed: int, seconds: float):
    setup_probe(workload.name, seed)  # unmeasured: compiles the bytecode caches
    # half the probes before the sweeps and half after, so that set-up time
    # samples the machine over the whole run
    setup = [setup_probe(workload.name, seed) for _ in range(SETUP_REPS // 2)]
    counts = thread_counts(workload)
    for threads in counts:
        workload.warm_up(threads)
    rates = {t: [] for t in counts}
    checks = []
    start = perf_counter()
    index = 0
    while True:
        round_start = perf_counter()
        order = counts if index % 2 == 0 else counts[::-1]
        sweeps = {t: workload.sweep(pair_seed(seed, index), t) for t in order}
        for threads, sweep in sweeps.items():
            rates[threads].append(sweep.items / sweep.wall_s)
            checks += sweep.checks
        if len(counts) > 1:
            checks.append((f"round {index}: output identical at threads=1 and threads={THREADS}",
                           sweeps[1].text == sweeps[THREADS].text))
        index += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    measured_s = perf_counter() - start
    setup += [setup_probe(workload.name, seed) for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": faster_half_median(rates[counts[-1]]),
        "trials_per_s_1t": faster_half_median(rates[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": setup, "rates": rates, "rounds": index, "measured_s": measured_s}
    return metrics, checks, samples


def run_traced(workload, seed: int):
    from layers import fixed_shape_timings
    from tracing import LAYER_NAMES, Tracer
    from workloads import OUT

    sweep_seed = pair_seed(seed, 0)
    counts = thread_counts(workload)
    for threads in counts:
        workload.warm_up(threads)
    untraced = workload.sweep(sweep_seed, 1)
    traced, totals = {}, {}
    for threads in counts:
        with Tracer() as tracer:
            traced[threads] = workload.sweep(sweep_seed, threads)
        totals[threads] = tracer.layer_totals()
        tracer.write_spans(OUT / f"spans-{workload.name}-s{seed}-t{threads}.csv")

    sweeps = [untraced, *traced.values()]
    checks = [c for sweep in sweeps for c in sweep.checks]
    checks.append((f"output identical untraced at threads=1 and traced at threads={counts}",
                   len({sweep.text for sweep in sweeps}) == 1))
    if len(counts) > 1:
        calls = {t: {n: (v["calls"], v["rows"]) for n, v in totals[t].items()} for t in totals}
        checks.append((f"layer calls and rows identical at threads=1 and threads={THREADS}",
                       calls[1] == calls[THREADS]))

    busy = {t: sum(v["self_s"] for v in totals[t].values()) for t in totals}
    metrics = {}
    for name in LAYER_NAMES:
        for key in ("self_s", "calls", "rows"):
            metrics[f"{name}.{key}"] = totals[1][name][key]
    metrics["experiments.self_s"] = traced[1].wall_s - busy[1]
    metrics["layers.busy_inflation_2t"] = busy[counts[-1]] / busy[1]
    metrics["trace.wall_s"] = traced[1].wall_s
    metrics["trace.overhead_s"] = traced[1].wall_s - untraced.wall_s
    fixed = fixed_shape_timings(seed)
    metrics.update({name: value for name, (value, _) in fixed.items()})
    samples = {"untraced_wall_s": untraced.wall_s,
               "traced_wall_s": {t: s.wall_s for t, s in traced.items()},
               "busy_s": busy, "fixed_shape_tags": {n: tag for n, (_, tag) in fixed.items()}}
    return metrics, checks, samples


# ---------------------------------------------------------------------------
# run facts

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_facts(args, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                         "runtime": _blas_runtime_threads()},
        "pool_threads": thread_counts(workload)[-1],
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": workload.sizes(),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jbmocz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jbmocz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import OUT, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        workload.warm_up(1, trials=1)
        print("ready", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    facts = run_facts(args, workload)
    if args.trace:
        metrics, checks, samples = run_traced(workload, args.seed)
    else:
        metrics, checks, samples = run_end_to_end(workload, args.seed, args.seconds)
    failed = [label for label, ok in checks if not ok]

    print("facts " + json.dumps(facts))
    for label in failed:
        print(f"FAILED {label}")
    if not args.trace:
        item = workload.item
        print(f"{item}_per_s {metrics['trials_per_s']:.6g} 1/s "
              f"(threads={thread_counts(workload)[-1]})")
        print(f"{item}_per_s_1t {metrics['trials_per_s_1t']:.6g} 1/s (threads=1)")
    print(f"failed_frac {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")
    tags = samples.get("fixed_shape_tags", {})
    for name, unit in units.items():
        tag = f" (should move: {tags[name]})" if name in tags else ""
        print(f"{name} {metrics[name]:.6g} {unit}{tag}")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, facts=facts, samples=samples, checks=checks)
    (OUT / f"result-{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
