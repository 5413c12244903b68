"""Command-line front end for the experiment harness.

Each subcommand maps to one experiment kind, and each kind to its frozen
config class in jbmocz.experiments.EXPERIMENTS.  Settings come from an
optional YAML config file (flat keys matching that class's fields,
documented in the README) over the class's defaults; --seed, --out and,
where the kind has threads, --threads override the file.  Results land in
the fixed-schema CSV; the loopback additionally writes the packet I/Q file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import yaml

from .experiments import EXPERIMENTS, loopback_rows, run_experiment, run_loopback, write_csv

COMMANDS = {
    "ber-seq": "ber_sequence",
    "ber-ofdm": "ber_ofdm",
    "rotation-mse": "rotation_mse",
    "design-curves": "design_curves",
    "papr-table": "papr_table",
    "stability": "stability_report",
    "loopback": "loopback",
}

ENERGY_NOTE = (
    "Eb counts total transmitted energy (codeword, or packet incl. CP and "
    "preambles) per payload information bit"
)


def config_keys(kind: str) -> set:
    """The keys a kind's config accepts: the fields of its class."""
    return {field.name for field in dataclasses.fields(EXPERIMENTS[kind][0])}


def load_config(kind: str, path: str = None, overrides: dict = None):
    """Build a kind's config from a YAML config file and CLI overrides over
    its class defaults, rejecting any key the kind does not have."""
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    settings = {}
    if path:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a key-value mapping")
        settings.update(loaded)
    for key, value in (overrides or {}).items():
        if value is not None:
            settings[key] = value
    unknown = set(settings) - config_keys(kind)
    if unknown:
        raise ValueError(f"unknown config keys for {kind}: {sorted(unknown)}")
    settings = {key: tuple(value) if isinstance(value, list) else value
                for key, value in settings.items()}
    return EXPERIMENTS[kind][0](**settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jbmocz",
        description="Zero-constellation modulation experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in COMMANDS.items():
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", help="YAML config file")
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--out", help="output CSV path")
        if "threads" in config_keys(kind):
            cmd.add_argument("--threads", type=int, help="worker threads")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = COMMANDS[args.command]
    overrides = {"seed": args.seed, "out": args.out,
                 "threads": getattr(args, "threads", None)}
    config = load_config(kind, args.config, overrides)

    if kind == "loopback":
        iq_path = (config.out or "loopback") + ".iq"
        report = run_loopback(config, iq_path=iq_path)
        rows = loopback_rows(report, config)
        print(f"loopback: header errors {report.header_errors}/{report.header_bits}, "
              f"payload errors {report.payload_errors}/{report.payload_bits}, "
              f"payload papr {report.payload_papr_db:.2f} dB, "
              f"template papr {report.template_papr_db:.2f} dB")
        print(f"I/Q packet written to {iq_path}")
    else:
        rows = run_experiment(config)

    out = config.out or f"{args.command}.csv"
    write_csv(rows, out, header_note=ENERGY_NOTE)
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
