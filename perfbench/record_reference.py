"""Record the BER/BLER reference points behind the benchmark's band checks.

    python3 perfbench/record_reference.py

Each experiment workload runs SWEEPS sweeps at its own per-sweep trial
count, each on its own seed drawn from SEED; the mean and standard
deviation of every point go to reference.json.  Re-record only when the
expected error rates change on purpose, and say so.
"""

from __future__ import annotations

import json
import statistics
import sys

import run  # holds BLAS at one thread before numpy is imported

SWEEPS = 32
SEED = 20261017


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from jbmocz.experiments import run_experiment
    from workloads import REFERENCE, WORKLOADS, ExperimentWorkload, point_rates

    reference = {}
    for workload in WORKLOADS.values():
        if not isinstance(workload, ExperimentWorkload):
            continue
        rates = {}
        for index in range(SWEEPS):
            config = workload.config(run.pair_seed(SEED, index), run.THREADS)
            for key, value in point_rates(run_experiment(config)).items():
                rates.setdefault(key, []).append(value)
        points = {key: {"mean": statistics.mean(v), "sd": statistics.stdev(v)}
                  for key, v in sorted(rates.items())}
        flat = [key for key, point in points.items() if point["sd"] == 0.0]
        if flat:
            sys.exit(f"{workload.name}: no spread to set a band on at {flat}")
        reference[workload.name] = {"trials": config.trials, "seed": SEED,
                                    "sweeps": SWEEPS, "points": points}
        print(workload.name, json.dumps(reference[workload.name]), flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
