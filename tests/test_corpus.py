"""A seeded corpus of random configurations through the command line.

Every configuration must end in a scored summary (exit 0 or 1) or in a named
configuration error (exit 2, no traceback, no summary); a passing run has
finite assertion values and no aborts, and a rerun writes the same
``summary.json`` bytes.  The corpus draws every experiment with every
preset, spin ``micro`` and ``converge`` runs on each domain length and 60
configurations of random experiment and preset, on grids of at most 64
points.  ``KDVLAB_CORPUS_EXTRA=K`` makes that K random configurations
instead (a longer opt-in run draws from the same generator).  A fixed
config's test id is its name and a drawn config's its index in the corpus,
the NN of its ``corpus/NN-…`` run in ``tools/artifact_hashes.py``; a fixed
config added later goes after the random draws, so no draw's id moves.
"""

import json
import math
import os
import random

import pytest

from kdvlab.cli import main
from kdvlab.experiments import EXPERIMENT_KINDS

SEED = 0
EXTRA = int(os.environ.get("KDVLAB_CORPUS_EXTRA", "60"))
LENGTHS = (1.0, 2.0 * math.pi, 8.0 * math.pi, 50.0)
SPINS = ("ll_easy_plane", "ll_easy_cone", "af_chain")
PARAMS = {
    "gp_scalar": [{}],
    "gp_coupled": [{}, {"lam": 1.5, "gamma": 0.2}],
    "ll_easy_plane": [{}, {"k": 2.0}],
    "ll_easy_cone": [{"alpha": 1.0, "theta0": 1.0}, {"alpha": 0.5, "theta0": 0.3},
                     {"alpha": 0.8, "theta0": 1.1, "beta": 0.2}],
    "af_chain": [{}],
}
# the converge config whose limit run blows up at t = 0.0175; it once
# crashed in hydro.limit_error with a traceback and no summary
ABORTED_LIMIT_RUN = {
    "experiment": "converge", "preset": "ll_easy_cone", "params": {"alpha": 0.5, "theta0": 0.3},
    "grid": {"n": 32, "length": 1.0},
    "time": {"t_final": 0.05, "dt": 0.0025, "snapshots": 3},
    "initial": {"shape": "mode", "amplitude": 1.0, "width": 0.3},
    "eps_list": [0.9, 0.5],
}
# a soliton too fast for its step: its run blows up on the first step
FAST_SOLITON = {"experiment": "soliton", "preset": "gp_scalar",
                "grid": {"n": 128, "length": 4.0 * math.pi},
                "time": {"t_final": 0.5, "dt": 0.01, "snapshots": 3}, "speed": 64.0}
# the default converge config (the rest comes from the defaults the command
# line overlays) with t_final/dt = 0.4: the limit run takes one step, which
# 11 snapshots cannot divide; it once passed validation and crashed in
# hydro.limit_error with a traceback and no summary
SUB_STEP_RUN = {"experiment": "converge", "preset": "gp_scalar",
                "time": {"t_final": 0.0004, "dt": 0.001, "snapshots": 11}}
# the hyperbolic soliton control: a dispersive run from the solitary wave
# that records max|dx u| on every step and reports no breakdown
HYPERBOLIC_SOLITON = {"experiment": "hyperbolic", "preset": "gp_scalar", "delta": 1,
                      "grid": {"n": 64, "length": 16.0 * math.pi},
                      "time": {"t_final": 0.05, "dt": 1e-3, "snapshots": 3},
                      "initial": {"shape": "soliton"}}
# a soliton start on a linear preset: its Q is zero, so there is no
# solitary wave; it once crashed in analysis.find_fixed_point with a
# traceback instead of a config error naming the preset
HYPERBOLIC_LINEAR_SOLITON = {"experiment": "hyperbolic", "preset": "ll_easy_plane", "delta": 1,
                             "grid": {"n": 16, "length": 8.0 * math.pi},
                             "time": {"t_final": 0.01, "dt": 1e-3, "snapshots": 2},
                             "initial": {"shape": "soliton"}}
# the fixed configs by test id: the first three sit between the spin runs
# and the random draws, where the draws' ids were first recorded, and any
# later one after the random draws
FIXED = {"aborted-limit-run": ABORTED_LIMIT_RUN, "sub-step-run": SUB_STEP_RUN,
         "hyperbolic-soliton": HYPERBOLIC_SOLITON,
         "hyperbolic-linear-soliton": HYPERBOLIC_LINEAR_SOLITON}


def draw_config(rng, experiment, preset, length=None):
    """One random configuration of ``experiment`` on ``preset``: the grid,
    time, initial data (which ``soliton`` has none of) and the experiment's
    own fields drawn from ``rng``."""
    snapshots = rng.choice([2, 3, 5])
    raw = {
        "experiment": experiment,
        "preset": preset,
        "params": dict(rng.choice(PARAMS[preset])),
        "grid": {"n": rng.choice([16, 32, 64]),
                 "length": length if length is not None else rng.choice(LENGTHS)},
        "time": {"t_final": rng.choice([0.01, 0.05]), "dt": rng.choice([1e-3, 2.5e-3]),
                 "snapshots": snapshots},
        "initial": {"shape": rng.choice(["bump", "mode", "sine"]),
                    "amplitude": 10.0 ** rng.uniform(-2.0, math.log10(3.0)),
                    "width": 10.0 ** rng.uniform(math.log10(0.3), 1.0),
                    "mode": rng.choice([1, 2, 3])},
    }
    if experiment == "micro":
        raw["eps"] = rng.uniform(0.3, 0.9)
    elif experiment == "converge":
        eps = rng.uniform(0.4, 0.9)
        raw["eps_list"] = [eps, eps * rng.uniform(0.5, 0.9)]
    elif experiment == "soliton":
        del raw["initial"]  # drawn all the same, so the draws after it stay put
        raw["speed"] = 10.0 ** rng.uniform(math.log10(0.5), math.log10(20.0))
    elif experiment == "miura":
        raw["d2_alpha"] = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        raw["d2_beta"] = rng.uniform(0.2, 2.0)
    elif experiment == "hyperbolic":
        raw["delta"] = rng.choice([0, 1])
        raw["speed"] = rng.uniform(0.5, 20.0)
    return raw


def corpus(seed=SEED, extra=EXTRA):
    """Every experiment with every preset, spin micro and converge runs on
    each domain length, the aborted-limit-run and sub-step converge configs
    and the hyperbolic soliton control, then ``extra`` configurations of
    random experiment and preset, then the fixed configs added after those
    three (the hyperbolic soliton start on a linear preset)."""
    rng = random.Random(seed)
    configs = [draw_config(rng, experiment, preset)
               for experiment in EXPERIMENT_KINDS for preset in PARAMS]
    configs += [draw_config(rng, experiment, rng.choice(SPINS), length)
                for experiment in ("micro", "converge") for length in LENGTHS]
    fixed = list(FIXED.values())
    configs += fixed[:3]
    configs += [draw_config(rng, rng.choice(EXPERIMENT_KINDS), rng.choice(list(PARAMS)))
                for _ in range(extra)]
    configs += fixed[3:]
    return configs


def corpus_ids(configs):
    """The test id of each config of ``configs``: its name in FIXED, or
    else its index in ``configs``."""
    names = {id(raw): name for name, raw in FIXED.items()}
    return [names.get(id(raw), str(i)) for i, raw in enumerate(configs)]


def _run(raw, path, capsys):
    """Exit status, stderr and summary.json bytes (None if absent) of one
    command-line run of ``raw`` with output under ``path``."""
    out = path / "out"
    cfg = dict(raw, output_dir=str(out))
    experiment = cfg.pop("experiment")
    path.mkdir()
    (path / "cfg.json").write_text(json.dumps(cfg))
    status = main([experiment, "--config", str(path / "cfg.json")])
    summary = out / "summary.json"
    return status, capsys.readouterr().err, summary.read_bytes() if summary.exists() else None


def test_corpus_covers_the_spin_runs_on_every_length():
    spin_runs = {(c["experiment"], c["grid"]["length"]) for c in corpus()
                 if c["preset"] in SPINS and c["experiment"] in ("micro", "converge")}
    assert spin_runs >= {(e, length) for e in ("micro", "converge") for length in LENGTHS}
    assert max(c.get("eps", 0.0) for c in corpus()) > 0.85


CORPUS = corpus()


@pytest.mark.parametrize("raw", CORPUS, ids=corpus_ids(CORPUS))
def test_every_config_ends_in_a_summary_or_a_named_config_error(tmp_path, capsys, raw):
    status, err, summary = _run(raw, tmp_path / "first", capsys)
    assert status in (0, 1, 2), raw
    assert "Traceback" not in err, raw
    if status == 2:
        assert err.startswith("kdvlab: invalid configuration: ") and summary is None, raw
        return
    assert summary is not None, raw
    parsed = json.loads(summary)
    if status == 0:
        assert all(math.isfinite(a["value"]) for a in parsed["assertions"]), raw
        assert "aborts" not in parsed["timings"], raw
    again = _run(raw, tmp_path / "again", capsys)
    assert again == (status, err, summary), raw


def test_the_aborted_limit_run_stops_on_its_step(tmp_path, capsys):
    # the gradient guard compares max|dx u| with its initial value, a ratio
    # that the amplitude of the canonical limit run cancels: the limit run
    # of ABORTED_LIMIT_RUN stops on step 7 of its 20
    status, err, summary = _run(ABORTED_LIMIT_RUN, tmp_path / "run", capsys)
    assert status == 1 and "Traceback" not in err
    timings = json.loads(summary)["timings"]
    assert timings["kdv_steps"] == 20
    assert timings["aborts"] == {"kdv": {"abort_reason": "gradient blow-up", "steps_taken": 7}}


def test_the_hyperbolic_soliton_control_passes_and_records_every_step(tmp_path, capsys):
    # the one corpus run of the recording gradient guard: max|dx u| at the
    # start and after each of its 50 steps, and no breakdown
    status, err, summary = _run(HYPERBOLIC_SOLITON, tmp_path / "run", capsys)
    assert status == 0 and "Traceback" not in err
    assert json.loads(summary)["timings"] == {"gradient_checks": 51, "kdv_steps": 50,
                                             "kdv_steps_taken": 50}


@pytest.mark.parametrize("raw,steps,taken", [
    ({**{k: v for k, v in ABORTED_LIMIT_RUN.items() if k != "eps_list"}, "experiment": "kdv"},
     20, 7),
    (FAST_SOLITON, 50, 1),
], ids=["kdv", "soliton"])
def test_an_aborted_limit_run_names_its_abort_in_the_summary(tmp_path, capsys, raw, steps, taken):
    # a kdv or soliton run that aborts reports the reason and the step, as
    # the limit run of converge does: the kdv run of ABORTED_LIMIT_RUN's
    # settings stops on the same step 7
    status, err, summary = _run(raw, tmp_path / "run", capsys)
    assert status == 1 and "Traceback" not in err
    assert json.loads(summary)["timings"] == {
        "kdv_steps": steps, "snapshots": 2,
        "aborts": {"kdv": {"abort_reason": "gradient blow-up", "steps_taken": taken}}}


@pytest.mark.parametrize("raw", [
    HYPERBOLIC_LINEAR_SOLITON,
    {**{k: v for k, v in HYPERBOLIC_LINEAR_SOLITON.items() if k not in ("delta", "initial")},
     "experiment": "soliton"},
], ids=["hyperbolic", "soliton"])
def test_a_soliton_on_a_linear_preset_is_a_preset_error(tmp_path, capsys, raw):
    # one check serves both runners that build a soliton
    status, err, summary = _run(raw, tmp_path / "run", capsys)
    assert (status, summary) == (2, None)
    assert err.startswith("kdvlab: invalid configuration: preset: a soliton needs a nonzero")


def test_the_limit_run_step_count_must_divide_into_the_snapshots(tmp_path, capsys):
    # the check counts the steps the limit run takes (at least one), so the
    # sub-step config is a time.dt error, and with two snapshots it runs
    status, err, summary = _run(SUB_STEP_RUN, tmp_path / "eleven", capsys)
    assert (status, summary) == (2, None)
    assert err.startswith("kdvlab: invalid configuration: time.dt: the limit run's 1 steps")
    two = dict(SUB_STEP_RUN, time=dict(SUB_STEP_RUN["time"], snapshots=2))
    status, err, summary = _run(two, tmp_path / "two", capsys)
    assert status in (0, 1) and "Traceback" not in err
    assert json.loads(summary)["assertions"]
