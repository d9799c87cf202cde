"""Command-line front end: one subcommand per experiment kind.

Usage::

    kdvlab <experiment> [--config cfg.json]

The configuration is a JSON document following the schema of
:func:`kdvlab.experiments.default_config`: a field it leaves out takes the
chosen experiment's default, an unknown field is an error, and an
``experiment`` it names must be the subcommand.  The document is the only
way to set a field.  The exit status is 0 exactly when every assertion in
the emitted summary passed, 1 when one failed and 2 for an invalid
configuration or command line; :func:`main` returns it (0 after ``--help``)
and raises no ``SystemExit``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)

_HELP = {
    "kdv": "evolve one limit model and check dispersion/conservation",
    "micro": "one microscopic run with chart and structure diagnostics",
    "converge": "micro-vs-limit error sweep over a decreasing eps list",
    "soliton": "solitary-wave propagation with conservation and shape checks",
    "miura": "modified-flow crosscheck and the two-component condition test",
    "hyperbolic": "zero-dispersion steepening against the characteristics time",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvlab",
        description="Reproducible numerical experiments for long-wave limits.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=_HELP[kind])
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config; a field left out takes the experiment default")
    return parser


def load_config(args) -> ExperimentConfig:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 text ({exc.reason})") from None
        if not isinstance(document, dict):
            raise ConfigError(f"{args.config}: must be a JSON object, got {type(document).__name__}")
        cfg = document
    experiment = cfg.setdefault("experiment", args.experiment)
    if experiment != args.experiment:
        raise ConfigError(f"experiment: the document names {experiment!r}, "
                          f"the subcommand {args.experiment!r}")
    return ExperimentConfig.from_dict(cfg)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a bad command line
        return exc.code
    try:
        cfg = load_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"kdvlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"kdvlab: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
