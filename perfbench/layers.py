"""Per-layer metrics computed from the spans of one traced pass.

Conventions:
- ``<layer>.<function>_s`` is self time credited to that function: the self
  time of its own spans plus that of same-layer helpers running under it
  (see ``tracer.credit``).  FFT time is never in a self time; it is
  ``grid.fft_s``.
- ``*_us`` and ``us_per_*`` are inclusive: span durations, FFTs and nested
  layers included, divided by the count named.
- Step, evaluation and abort counts are the ones the program reports on the
  trajectories it returns.
"""

from __future__ import annotations

from tracer import Tracer, credit, self_times, subtree_sums


def _trajectory_counts(traj) -> dict:
    return {
        "steps": int(traj.meta.get("steps", 0)),
        "rhs_evals": int(traj.meta.get("rhs_evals", 0)),
        "aborts": int(bool(traj.aborted)),
    }


def _series_counts(series) -> dict:
    return {"snapshots": len(series),
            "out_of_chart": sum(1 for h in series if not h.valid)}


# Return-value counters, by span name.
COUNTERS = {
    "kdv.evolve_kdv": _trajectory_counts,
    "micro.evolve_micro": _trajectory_counts,
    "hydro.extract_series": _series_counts,
}

# Functions that own the self time of their layer's helpers.
CREDITED = (
    "grid.spectral_derivative",
    "kdv.evolve_kdv",
    "kdv.conserved_quantities",
    "models.chart_extract",
    "micro.evolve_micro",
    "hydro.extract_series",
    "hydro.observables",
    "hydro.almost_hamiltonian",
    "hydro.limit_error",
    "analysis.miura_crosscheck",
    "analysis.find_fixed_point",
    "analysis.shift_minimized_error",
    "experiments.run_experiment",
    "experiments.emit_series",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics (``trace.overhead_s`` is added by the caller)."""
    names, parents = tracer.names, tracer.parents
    own = self_times(tracer)
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    fft_in = subtree_sums(tracer, tracer.fft_calls)
    owner = credit(tracer, CREDITED)

    credited = dict.fromkeys(CREDITED, 0.0)
    for sid, o in enumerate(owner):
        if o >= 0:
            credited[names[o]] += own[sid]

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    fft_under: dict[str, int] = {}
    counts: dict[str, dict] = {}
    for sid, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        # outermost spans of a name only, so recursion is not counted twice
        cur = parents[sid]
        while cur >= 0 and names[cur] != name:
            cur = parents[cur]
        if cur < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration[sid]
            fft_under[name] = fft_under.get(name, 0) + fft_in[sid]
        for key, value in tracer.counts.get(sid, {}).items():
            per = counts.setdefault(name, {})
            per[key] = per.get(key, 0) + value

    hydro_outer = sum(
        duration[sid] for sid, name in enumerate(names)
        if name.startswith("hydro.") and not _has_layer_ancestor(tracer, sid, "hydro.")
    )
    kdv = counts.get("kdv.evolve_kdv", {})
    micro = counts.get("micro.evolve_micro", {})
    series = counts.get("hydro.extract_series", {})
    kdv_steps = kdv.get("steps", 0)
    micro_steps = micro.get("steps", 0)
    snapshots = series.get("snapshots", 0)

    return {
        "grid.fft_calls": sum(tracer.fft_calls),
        "grid.fft_points": sum(tracer.fft_points),
        "grid.fft_s": sum(tracer.fft_s),
        "grid.ifrk4_step_us": 1e6 * _ratio(inclusive.get("grid.ifrk4_step", 0.0),
                                           calls.get("grid.ifrk4_step", 0)),
        "grid.rk4_step_us": 1e6 * _ratio(inclusive.get("grid.rk4_step", 0.0),
                                         calls.get("grid.rk4_step", 0)),
        "grid.spectral_derivative_calls": calls.get("grid.spectral_derivative", 0),
        "grid.spectral_derivative_s": credited["grid.spectral_derivative"],
        "kdv.evolve_calls": calls.get("kdv.evolve_kdv", 0),
        "kdv.steps": kdv_steps,
        "kdv.evolve_s": credited["kdv.evolve_kdv"],
        "kdv.us_per_step": 1e6 * _ratio(inclusive.get("kdv.evolve_kdv", 0.0), kdv_steps),
        "kdv.fft_calls_per_step": _ratio(fft_under.get("kdv.evolve_kdv", 0), kdv_steps),
        "kdv.conserved_quantities_s": credited["kdv.conserved_quantities"],
        "kdv.aborts": kdv.get("aborts", 0),
        "models.chart_extract_calls": calls.get("models.chart_extract", 0),
        "models.chart_extract_s": credited["models.chart_extract"],
        "micro.evolve_calls": calls.get("micro.evolve_micro", 0),
        "micro.steps": micro_steps,
        "micro.rhs_evals": micro.get("rhs_evals", 0),
        "micro.evolve_s": credited["micro.evolve_micro"],
        "micro.us_per_step": 1e6 * _ratio(inclusive.get("micro.evolve_micro", 0.0),
                                          micro_steps),
        "micro.fft_calls_per_step": _ratio(fft_under.get("micro.evolve_micro", 0),
                                           micro_steps),
        "micro.aborts": micro.get("aborts", 0),
        "hydro.snapshots": snapshots,
        "hydro.extract_series_s": credited["hydro.extract_series"],
        "hydro.observables_s": credited["hydro.observables"],
        "hydro.almost_hamiltonian_s": credited["hydro.almost_hamiltonian"],
        "hydro.limit_error_s": credited["hydro.limit_error"],
        "hydro.us_per_snapshot": 1e6 * _ratio(hydro_outer, snapshots),
        "hydro.out_of_chart": series.get("out_of_chart", 0),
        "analysis.miura_crosscheck_s": credited["analysis.miura_crosscheck"],
        "analysis.find_fixed_point_s": credited["analysis.find_fixed_point"],
        "analysis.shift_minimized_error_s": credited["analysis.shift_minimized_error"],
        "experiments.runs": calls.get("experiments.run_experiment", 0),
        "experiments.self_s": credited["experiments.run_experiment"],
        "experiments.emit_s": credited["experiments.emit_series"],
    }


def _has_layer_ancestor(tracer: Tracer, sid: int, prefix: str) -> bool:
    cur = tracer.parents[sid]
    while cur >= 0:
        if tracer.names[cur].startswith(prefix):
            return True
        cur = tracer.parents[cur]
    return False
