"""Command-line front end: one subcommand per experiment kind.

Usage::

    kdvlab <experiment> [--config cfg.json] [--eps E] [--n N] [--t-final T]

The configuration is a JSON document following the schema of
:func:`kdvlab.experiments.default_config`: a field it leaves out takes the
chosen experiment's default, an unknown field is an error, and an
``experiment`` it names must be the subcommand.  The targeted flags override
the file.  The exit status is 0 exactly when every assertion in the emitted
summary passed, 1 when one failed and 2 for an invalid configuration.
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
        sp.add_argument("--eps", type=float,
                        help="override eps (micro; for converge: run this single "
                             "eps against the next smaller half; an error elsewhere)")
        sp.add_argument("--n", type=int, help="override the grid size")
        sp.add_argument("--t-final", type=float, dest="t_final",
                        help="override the final time")
    return parser


def _section(cfg: dict, name: str) -> dict:
    """The section ``name`` of ``cfg``, which a flag is about to override."""
    if not isinstance(cfg.setdefault(name, {}), dict):
        raise ConfigError(f"{name}: must be a mapping, got {cfg[name]!r}")
    return cfg[name]


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
    if args.eps is not None:
        if args.experiment == "converge":
            cfg["eps_list"] = [args.eps, 0.5 * args.eps]
        else:
            cfg["eps"] = args.eps
    if args.n is not None:
        _section(cfg, "grid")["n"] = args.n
    if args.t_final is not None:
        _section(cfg, "time")["t_final"] = args.t_final
    return ExperimentConfig.from_dict(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
