"""The benchmark's workloads: experiment configs, expected work counters and
the accuracy figure read back from each ``summary.json``.

Standard library only, so the parent process can use it without importing
numpy.  Configs are plain dicts overlaid on
``kdvlab.experiments.default_config``; the child validates them with
``ExperimentConfig.from_dict``.
"""

from __future__ import annotations

import random

# Each entry: (experiment kind, overlay on its default config, expected
# counters in summary["timings"]).  The step counts depend only on grid, eps
# and time settings, never on the initial amplitude or width, so the same
# expectations hold for every seed.
WORKLOADS = {
    # Limit equations only: time goes to kdv.evolve_kdv and the grid IFRK4
    # step; no micro work.
    "limit-suite": [
        ("kdv", {}, {"kdv_steps": 1000}),
        ("kdv", {"preset": "gp_coupled"}, {"kdv_steps": 1000}),
        ("soliton", {}, {"kdv_steps": 2000}),
        ("miura", {}, {"kdv_steps": 500, "mkdv_steps": 500}),
        ("hyperbolic", {}, {"kdv_steps": 5000}),
    ],
    # Spin chains: time goes to grid.rk4_step and the micro RHS.
    "spin-sweep": [
        ("converge", {"preset": "ll_easy_plane", "eps_list": [0.2, 0.1]},
         {"micro_steps": {"0.2": 4160, "0.1": 11520}}),
        ("micro", {"preset": "af_chain"}, {"micro_steps": 4500}),
        ("micro", {"preset": "ll_easy_cone", "params": {"alpha": 1, "theta0": 1}},
         {"micro_steps": 3910}),
    ],
    # Condensates: cheap split steps, dense snapshots, so hydro diagnostics
    # and artifact emission take a large share.
    "condensate-sweep": [
        ("converge", {}, {"micro_steps": {"0.2": 2780, "0.1": 9150, "0.05": 36580}}),
        ("micro", {"time": {"snapshots": 2001}}, {"micro_steps": 4000}),
        ("micro", {"preset": "gp_coupled", "time": {"snapshots": 2001}},
         {"micro_steps": 4000}),
    ],
}

# Seeds other than 0 scale the initial amplitude and width by a factor within
# this band.  Twice this band still passed every assertion on seeds 1-10; this
# one keeps the seed-to-seed spread of tolerance_use_max well inside its bound.
PERTURBATION = 0.01

# Assertions that are flags (completion, chart membership, detection), not
# error tolerances; they are left out of tolerance_use_max.
FLAG_ASSERTIONS = frozenset({
    "run_completed",
    "all_runs_completed",
    "stayed_in_chart",
    "phase_within_chart",
    "breakdown_detected",
    "no_breakdown",
})


def _merge(base: dict, overlay: dict) -> dict:
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def experiment_dicts(workload: str, seed: int, defaults) -> list[dict]:
    """Raw config dicts of one workload at one seed.

    ``defaults`` is ``kdvlab.experiments.default_config``.  Seed 0 gives the
    configs exactly as listed; another seed scales each experiment's initial
    amplitude and width by its own factor in [1 - PERTURBATION,
    1 + PERTURBATION].  The soliton run is never perturbed: its data come from
    the speed, which stays fixed.
    """
    rng = random.Random(seed)
    out = []
    for kind, overlay, _ in WORKLOADS[workload]:
        raw = _merge(defaults(kind), overlay)
        a = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
        w = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
        if seed != 0 and kind != "soliton":
            raw["initial"]["amplitude"] *= a
            raw["initial"]["width"] *= w
        raw["workers"] = 1
        out.append(raw)
    return out


def expected_counters(workload: str) -> list[dict]:
    return [expected for _, _, expected in WORKLOADS[workload]]


def counter_mismatches(summary: dict, expected: dict) -> list[str]:
    """One line per expected counter that differs in a summary's ``timings``."""
    got = summary.get("timings", {})
    return [f"{key}={got.get(key)!r} (expected {value!r})"
            for key, value in expected.items() if got.get(key) != value]


def tolerance_use(summary: dict) -> float:
    """Largest value/threshold over a summary's error-tolerance assertions."""
    ratios = [a["value"] / a["threshold"] for a in summary["assertions"]
              if a["name"] not in FLAG_ASSERTIONS and a["threshold"] > 0]
    return max(ratios, default=0.0)
