"""Tests for the experiment runner and command line: config validation,
artifact formats, per-experiment summaries, and determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kdvlab import experiments
from kdvlab.cli import build_parser, main
from kdvlab.experiments import (
    ConfigError,
    ExperimentConfig,
    default_config,
    emit_series,
    run_experiment,
)
from kdvlab.grid import fourier_shift

TOL = {
    "dispersion": 1e-10,
    "oracle_window": 0.2,
}


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_import_loads_numpy_and_stdlib_only():
    # every CLI call and benchmark sample starts by importing the package:
    # besides numpy it may load only the standard library, and not
    # multiprocessing, which no run needs (every run is serial)
    src = Path(__file__).resolve().parent.parent / "src"
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "before = set(sys.modules)",
        "import kdvlab.cli",
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}",
        "print(sorted(tops - set(sys.stdlib_module_names) - {'numpy', 'kdvlab'}))",
        "print(sorted(m for m in tops if m == 'multiprocessing'))",
    ])
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_soliton_run_loads_no_numpy_random(tmp_path):
    # the fixed-point multistart takes its start points from a Kronecker
    # sequence: a limit run must not load numpy.random, which brings in
    # hashlib, secrets and OpenSSL and sets the run's peak memory
    src = Path(__file__).resolve().parent.parent / "src"
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "from kdvlab.experiments import ExperimentConfig, default_config, run_experiment",
        "raw = default_config('soliton')",
        f"raw['output_dir'] = {str(tmp_path)!r}",
        "print(run_experiment(ExperimentConfig.from_dict(raw)))",
        "print(sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))",
    ])
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[:2] == ["0", "[]"]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_default_configs_validate():
    for kind in ("kdv", "micro", "converge", "soliton", "miura", "hyperbolic"):
        cfg = ExperimentConfig.from_dict(default_config(kind))
        assert cfg.experiment == kind


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        default_config("dance")


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"grid": {"n": 100}}, "grid.n"),
        ({"grid": {"length": -2.0}}, "grid.length"),
        ({"time": {"t_final": 0.0}}, "time.t_final"),
        ({"time": {"snapshots": 1}}, "time.snapshots"),
        ({"preset": "unknown_model"}, "preset"),
        ({"initial": {"shape": "triangle"}}, "initial.shape"),
        ({"initial": {"spin": 3}}, "initial.spin"),
        ({"seed": 0}, "seed"),  # unknown: no run draws random numbers
        ({"workers": 0}, "workers"),
        ({"frobnicate": 1}, "frobnicate"),
        # booleans are ints to Python; a config must not smuggle them in
        ({"workers": True}, "workers"),
        ({"initial": {"mode": True}}, "initial.mode"),
        ({"delta": True}, "delta"),
        # the blocks are mappings, and d2_* a number or two
        ({"grid": 5}, "grid"),
        ({"time": []}, "time"),
        ({"initial": "bump"}, "initial"),
        ({"d2_alpha": ["a", 1]}, "d2_alpha"),
        # every number is finite: JSON reads 1e400 as inf (and NaN as nan)
        ({"speed": float("inf")}, "speed"),
        ({"time": {"t_final": float("inf")}}, "time.t_final"),
        ({"initial": {"width": float("inf")}}, "initial.width"),
        ({"params": {"k": float("nan")}}, "params.k"),
        ({"d2_beta": [1.0, float("inf")]}, "d2_beta"),
        ({"initial": {"mode": 10**400}}, "initial.mode"),
        # an unknown key is an error at any depth
        ({"grid": {"points": 64}}, "grid.points"),
        ({"time": {"steps": 5}}, "time.steps"),
        # every run is serial: a config that asks for a worker pool is an error
        ({"workers": 2}, "workers"),
    ],
)
def test_validation_names_the_offending_field(patch, field):
    cfg = default_config("kdv")
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        ExperimentConfig.from_dict(cfg)


# explicit ids, so the test ids stay stable for test selection
@pytest.mark.parametrize("experiment", ["micro", "converge"], ids=["micro-1", "converge-1"])
def test_data_outside_the_chart_exit_2_without_traceback(tmp_path, experiment):
    # well-prepared data of amplitude 80 leave the model chart: a config
    # error naming the field; a converge prepares every eps-run before it
    # steps any, so no eps-run writes its series
    cfg = {"output_dir": str(tmp_path / "out"), "initial": {"amplitude": 80.0}}
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "kdvlab.cli", experiment,
         "--config", _write_config(tmp_path, "cfg.json", cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert "initial.amplitude" in out.stderr and "Traceback" not in out.stderr
    assert not list((tmp_path / "out").glob("converge_eps_*.csv"))


@pytest.mark.parametrize("preset,params", [
    ("gp_coupled", {"lam": 1e-300, "gamma": 1e300}),
    ("ll_easy_cone", {"alpha": 1e-300, "beta": 1e300, "theta0": 1.0}),
])
def test_parameters_whose_limit_overflows_exit_2(tmp_path, capsys, preset, params):
    # finite parameters whose limit tensor G overflows have no canonical
    # limit model: a config error naming params, and no summary
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", {"output_dir": str(out), "preset": preset, "params": params})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["kdv", "--config", cfg]) == 2
    assert "invalid configuration: params: " in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("experiment", ["kdv", "micro", "converge"])
def test_non_finite_initial_data_exit_2_without_traceback(tmp_path, experiment):
    # a bump of amplitude 1.7e308 overflows in its mean: a config error
    # naming the field, not a traceback and no summary
    cfg = {"output_dir": str(tmp_path / "out"), "initial": {"shape": "bump", "amplitude": 1.7e308}}
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "kdvlab.cli", experiment,
         "--config", _write_config(tmp_path, "cfg.json", cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert "initial.amplitude" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("document,message", [
    (b"[1, 2]", "JSON object"),
    (b'"x"', "JSON object"),
    (b'{"grid": 5}', "grid: must be a mapping"),
    (b'{"time": [1]}', "time: must be a mapping"),
    (b"\xff\xfe", "not UTF-8"),
])
def test_malformed_config_document_exit_2_without_traceback(tmp_path, document, message):
    # a document that is not an object, a section that is not a mapping,
    # or a file that does not decode is an invalid configuration: exit 2,
    # no traceback and no summary (in the default output directory,
    # relative to the working directory)
    path = tmp_path / "cfg.json"
    path.write_bytes(document)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "kdvlab.cli", "kdv", "--config", str(path)],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert message in out.stderr and "Traceback" not in out.stderr
    assert not list(tmp_path.rglob("summary.json"))


def test_a_field_left_out_takes_the_experiments_default():
    # from_dict reads a dict over the experiment's defaults, as the command
    # line does
    for kind in experiments.EXPERIMENT_KINDS:
        full = ExperimentConfig.from_dict(default_config(kind))
        assert ExperimentConfig.from_dict({"experiment": kind}).echo() == full.echo()


def test_a_document_naming_another_experiment_exits_2(tmp_path, capsys):
    # `kdvlab kdv` with a micro document used to run the micro experiment
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", {"experiment": "micro", "output_dir": str(out)})
    assert main(["kdv", "--config", cfg]) == 2
    assert "invalid configuration: experiment: " in capsys.readouterr().err
    assert not out.exists()


def test_eps_list_must_strictly_decrease():
    cfg = default_config("converge")
    cfg["eps_list"] = [0.1, 0.2]
    with pytest.raises(ConfigError, match="eps_list"):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("experiment,field,value", [
    ("kdv", "eps", 0.2),
    ("converge", "eps", 0.2),
    ("micro", "eps_list", [0.2, 0.1]),
    ("kdv", "speed", 4.0),
    ("miura", "speed", 4.0),
    ("soliton", "delta", 0),
    ("kdv", "d2_alpha", 1.0),
    ("hyperbolic", "d2_beta", [1.0, 0.0]),
    ("soliton", "initial", {"amplitude": 0.5}),
])
def test_a_field_the_experiment_does_not_read_exits_2(tmp_path, capsys, experiment, field, value):
    # an experiment-specific field given to another experiment would be
    # dropped (it reaches neither the run nor the summary): a config error
    # naming the field, with no artifacts
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", {"output_dir": str(out), field: value})
    assert main([experiment, "--config", cfg]) == 2
    assert f"invalid configuration: {field}: " in capsys.readouterr().err
    assert not out.exists()


# the (experiment, field) pairs a config accepts though its run does not read
# them: every run is serial, but the benchmark's workloads set workers (to 1,
# its only value) for every experiment; a micro run steps at a quarter of
# dt_max, but the benchmark's self-test passes time.dt
ACCEPTED_UNREAD = {(kind, "workers") for kind in experiments.EXPERIMENT_KINDS} | {
    ("micro", "time.dt")}


def _schema(kind):
    """The ExperimentConfig attribute of each field of ``kind``'s defaults
    by dotted name, less output_dir."""
    attrs = {}
    for key, value in default_config(kind).items():
        if key in ("grid", "time"):
            attrs.update({f"{key}.{leaf}": leaf for leaf in value})
        elif key != "output_dir":
            attrs[key] = "preset_name" if key == "preset" else key
    return attrs


def test_every_schema_field_is_read_by_its_run(tmp_path, monkeypatch):
    # a field the defaults accept is one the run reads: the attributes of
    # ExperimentConfig read while a small run of each experiment is
    # validated and run are its schema less output_dir and ACCEPTED_UNREAD.
    # hyperbolic reads speed only for a soliton start, so a second run
    # starts from one
    reads = set()

    def spy(self, name):
        reads.add(name)
        return object.__getattribute__(self, name)

    monkeypatch.setattr(ExperimentConfig, "__getattribute__", spy)
    small = {"time": {"t_final": 0.01, "dt": 1e-3, "snapshots": 3}}
    runs = [dict(small, experiment=kind) for kind in experiments.EXPERIMENT_KINDS]
    runs[experiments.EXPERIMENT_KINDS.index("converge")]["eps_list"] = [0.2, 0.1]
    runs.append(dict(small, experiment="hyperbolic", delta=1.0, initial={"shape": "soliton"},
                     grid={"n": 512, "length": 16 * np.pi}))
    read = {}
    for i, raw in enumerate(runs):
        kind = raw["experiment"]
        reads.clear()
        cfg = ExperimentConfig.from_dict(
            dict(default_config(kind), **raw, output_dir=str(tmp_path / str(i))))
        assert run_experiment(cfg) in (0, 1), kind
        read.setdefault(kind, set()).update(
            field for field, attr in _schema(kind).items() if attr in reads)
    for kind, fields in read.items():
        unread = set(_schema(kind)) - fields
        assert unread == {f for k, f in ACCEPTED_UNREAD if k == kind}, kind


def test_a_field_added_to_one_experiments_defaults_needs_no_other_edit(monkeypatch):
    # the defaults are the one config table: a new field in the soliton
    # defaults is accepted (given or defaulted) and echoed there, and an
    # unknown field in every other experiment
    monkeypatch.setitem(experiments._DEFAULTS, "soliton",
                        dict(experiments._DEFAULTS["soliton"], probe=2.5))
    assert ExperimentConfig.from_dict(default_config("soliton")).echo()["probe"] == 2.5
    given = dict(default_config("soliton"), probe=7.0)
    assert ExperimentConfig.from_dict(given).echo()["probe"] == 7.0
    for kind in experiments.EXPERIMENT_KINDS:
        if kind != "soliton":
            assert "probe" not in ExperimentConfig.from_dict(default_config(kind)).echo()
            with pytest.raises(ConfigError, match="^probe: unknown configuration field$"):
                ExperimentConfig.from_dict(dict(default_config(kind), probe=2.5))


@pytest.mark.parametrize("experiment,eps", [
    ("micro", 0.05 / 32),  # eps*kmax = 0.05 on the default grid (kmax = 32): below the range
    ("micro", 0.5),  # eps*kmax = 16
    ("converge", [0.2, 0.1, 0.05 / 32]),
])
def test_condensate_eps_kmax_outside_validated_range_is_rejected(tmp_path, experiment, eps):
    cfg = default_config(experiment)
    cfg["eps" if experiment == "micro" else "eps_list"] = eps
    with pytest.raises(ConfigError, match="eps.*kmax"):
        ExperimentConfig.from_dict(cfg)
    cfg["output_dir"] = str(tmp_path / "out")
    assert main([experiment, "--config", _write_config(tmp_path, "c.json", cfg)]) == 2


def test_condensate_eps_kmax_range_is_closed():
    for eps in (0.1 / 32, 12.8 / 32):
        ExperimentConfig.from_dict(dict(default_config("micro"), eps=eps))


def test_converge_snapshot_cadence_must_divide_steps():
    cfg = default_config("converge")
    cfg["time"] = {"t_final": 0.5, "dt": 1e-3, "snapshots": 8}  # 500 % 7 != 0
    with pytest.raises(ConfigError, match="snapshot"):
        ExperimentConfig.from_dict(cfg)


# ---------------------------------------------------------------------------
# series emission
# ---------------------------------------------------------------------------


def test_emit_series_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_series(path, ["t", "x"], [])
    assert path.read_bytes() == b"t,x\n"


def test_emit_series_single_row_formatting(tmp_path):
    path = tmp_path / "one.csv"
    emit_series(path, ["t", "x"], [[0.0, 1.0]])
    assert path.read_bytes() == b"t,x\n0,1\n"


def test_emit_series_seventeen_digits(tmp_path):
    path = tmp_path / "pi.csv"
    emit_series(path, ["t", "x"], [[0.0, np.pi]])
    text = path.read_text()
    assert "3.1415926535897931" in text
    assert float(text.splitlines()[1].split(",")[1]) == np.pi


def test_emit_series_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row 1"):
        emit_series(tmp_path / "bad.csv", ["t", "x"], [[0.0, 1.0], [1.0]])


def _emit_series_per_value(path, columns, rows):
    """The CSV writer emit_series replaced: one ``format(float(v), ".17g")``
    per value, read off ``list(row)``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in list(row)) + "\n")


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
def test_emit_series_matches_the_per_value_writer_bytewise(tmp_path, dtype):
    # ndarray rows go through tolist(); the bytes are those of formatting
    # each numpy scalar, signed zeros, non-finite values and subnormals too
    rng = np.random.default_rng(7)
    values = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
    values[0] = [-0.0, np.nan, np.inf, -np.inf]
    values[1] = [1e-300, 5e-324, -1.7976931348623157e308, 0.1]
    values[2] = [np.pi, -np.e, 1.0 / 3.0, 2.0**53 + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        table = values.astype(dtype)
    columns = ["t", "a", "b", "c"]
    for name, rows in (("array", table), ("columns", np.column_stack(list(table.T))),
                       ("lists", [list(r) for r in table]), ("tuples", [tuple(r) for r in table])):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-want.csv"
        emit_series(got, columns, rows)
        _emit_series_per_value(want, columns, table)
        assert got.read_bytes() == want.read_bytes(), name


def test_emit_series_rerun_byte_identical(tmp_path):
    rows = [[0.1 * i, np.sin(0.1 * i)] for i in range(20)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_series(a, ["t", "x"], rows)
    emit_series(b, ["t", "x"], rows)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# experiments through the command line
# ---------------------------------------------------------------------------


def _summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


def _assertion_map(summary):
    return {a["name"]: a for a in summary["assertions"]}


def test_kdv_single_mode_dispersion(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {"output_dir": str(tmp_path / "out")})
    rc = main(["kdv", "--config", cfg])
    assert rc == 0
    summary = _summary(tmp_path / "out")
    checks = _assertion_map(summary)
    assert checks["dispersion_phase_error"]["value"] <= TOL["dispersion"]
    assert all(a["pass"] for a in summary["assertions"])
    header = (tmp_path / "out" / "kdv_series.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_micro_structure_assertions(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"),
         "grid": {"n": 128, "length": 8 * np.pi},
         "time": {"t_final": 0.2, "dt": 1e-3, "snapshots": 5}},
    )
    rc = main(["micro", "--config", cfg])
    assert rc == 0
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert checks["mass_drift_rel"]["pass"]
    assert checks["stayed_in_chart"]["pass"]


def test_spin_micro_reports_unit_norm(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"preset": "ll_easy_plane", "output_dir": str(tmp_path / "out"),
         "grid": {"n": 128, "length": 8 * np.pi},
         "time": {"t_final": 0.2, "dt": 1e-3, "snapshots": 5}},
    )
    rc = main(["micro", "--config", cfg])
    assert rc == 0
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert checks["unit_norm_deviation"]["pass"]
    assert checks["unit_norm_deviation"]["value"] <= 1e-10


def test_converge_errors_strictly_decrease(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"),
         "grid": {"n": 128, "length": 8 * np.pi},
         "time": {"t_final": 0.25, "dt": 1e-3, "snapshots": 6},
         "eps_list": [0.2, 0.1]},
    )
    rc = main(["converge", "--config", cfg])
    assert rc == 0
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert checks["amplitude_error_strictly_decreasing"]["value"] < 1.0
    assert checks["gradient_error_strictly_decreasing"]["value"] < 1.0
    assert checks["phase_within_chart"]["pass"]
    for eps in (0.2, 0.1):
        series = (tmp_path / "out" / f"converge_eps_{eps}.csv").read_text()
        assert series.splitlines()[0] == (
            "t,err_amplitude,err_gradient,w_norm,eps_phi_inf,energy_proxy,energy,structure_dev"
        )


def test_af_chain_converges(converge_run):
    # the antiferromagnet limit from eps 0.2 to 0.1 (the acceptance suite's
    # converge run): every error ratio at most 0.5, first order at least (the
    # O(eps^2) estimate predicts 0.25); well-prepared data built with the
    # wrong normal-coupling sign put the ratios at 1.000
    run = converge_run("af_chain")
    assert run.status == 0
    for name in ("amplitude_error_strictly_decreasing", "gradient_error_strictly_decreasing",
                 "w_norm_decreasing"):
        assert run.checks[name]["value"] <= 0.5, (name, run.checks[name]["value"])


def test_coupled_condensate_converges(converge_run):
    # the coupled condensate at gamma = 0.7, whose vector limit has the
    # off-diagonal coefficients 4 gamma/lam: from eps 0.2 to 0.1 its sup
    # amplitude and gradient errors, read from the series, fall to at most
    # 0.4 of their value (measured 0.253 and 0.242; the O(eps^2) estimate
    # predicts 0.25).  With the off-diagonal entries of the limit's G scaled
    # by 1.1 or 0.9 the amplitude ratio is 0.72 or more, which the converge
    # assertions (< 1) pass
    run = converge_run("gp_coupled")
    assert run.status == 0 and run.summary["config_echo"]["params"]["gamma"] == 0.7
    for key in ("err_amplitude", "err_gradient"):
        sups = [float(np.max(cols[key])) for cols in run.series.values()]
        assert sups[1] / sups[0] <= 0.4, (key, sups)


@pytest.mark.parametrize("key, name", [
    ("sup_err_amplitude", "amplitude_error_strictly_decreasing"),
    ("max_eps_phi", "phase_within_chart"),
])
def test_converge_nan_at_the_last_eps_fails(tmp_path, monkeypatch, key, name):
    # a NaN figure that is not the first of the eps-runs must fail its
    # assertion: Python's max would skip it ([1e-3, 5e-4, nan] has ratios
    # [0.5, nan], whose max() is 0.5)
    real, values = experiments._converge_result, iter([1e-3, 5e-4, np.nan])

    def result(*args):  # one call per eps-run, in eps_list order
        return dict(real(*args), **{key: next(values)})

    monkeypatch.setattr(experiments, "_converge_result", result)
    cfg = dict(default_config("converge"), output_dir=str(tmp_path / "out"),
               grid={"n": 64, "length": 8 * np.pi},
               time={"t_final": 0.05, "dt": 1e-3, "snapshots": 3})
    assert run_experiment(ExperimentConfig.from_dict(cfg)) == 1
    check = _assertion_map(_summary(tmp_path / "out"))[name]
    assert np.isnan(check["value"]) and not check["pass"]


def _poison_last_row(monkeypatch, bad_call):
    """Give the last row of a condensate batch, the smallest eps of a serial
    converge, NaN angles at the ``bad_call``-th call of the angle functions
    that ``micro._phase_factors`` builds (the angles of step k are the
    (k+1)-th)."""
    import kdvlab.micro

    real_factors = kdvlab.micro._phase_factors
    calls = []

    def poisoned(spec, out, scale):  # the batch's angle function, counted over every batch
        theta = real_factors(spec, out, scale)

        def poisoned_theta(z):
            calls.append(None)
            angles = theta(z)
            if len(calls) == bad_call:
                angles[-1] *= np.nan
            return angles

        return poisoned_theta

    monkeypatch.setattr(kdvlab.micro, "_phase_factors", poisoned)


def test_converge_summary_reports_each_abort(tmp_path, monkeypatch):
    # the serial eps-runs step as one batch; the eps = 0.1 run gets a NaN
    # rotation factor on step 7 and aborts there: the summary names the
    # reason and the exact step, the eps = 0.2 run in the same batch writes
    # the bytes of a healthy run, and a healthy run adds no abort entry
    base = {
        "grid": {"n": 64, "length": 8 * np.pi},
        "time": {"t_final": 0.1, "dt": 1e-3, "snapshots": 3},
        "eps_list": [0.2, 0.1],
    }
    healthy = dict(base, output_dir=str(tmp_path / "healthy"))
    assert main(["converge", "--config", _write_config(tmp_path, "h.json", healthy)]) == 0
    assert "aborts" not in _summary(tmp_path / "healthy")["timings"]

    _poison_last_row(monkeypatch, 8)
    poisoned = dict(base, output_dir=str(tmp_path / "poisoned"))
    assert main(["converge", "--config", _write_config(tmp_path, "p.json", poisoned)]) == 1
    summary = _summary(tmp_path / "poisoned")
    assert not _assertion_map(summary)["all_runs_completed"]["pass"]
    assert summary["timings"]["aborts"] == {
        "0.1": {"abort_reason": "non-finite state", "steps_taken": 7}
    }
    partial = (tmp_path / "poisoned" / "converge_eps_0.1.csv").read_text().splitlines()
    assert partial[0] == "t,w_norm" and len(partial) == 2  # only t = 0 was reached
    assert ((tmp_path / "poisoned" / "converge_eps_0.2.csv").read_bytes()
            == (tmp_path / "healthy" / "converge_eps_0.2.csv").read_bytes())


def test_micro_summary_reports_its_abort(tmp_path, monkeypatch):
    # the micro run gets a NaN rotation factor on step 7 and aborts there:
    # the summary names the reason and the exact step
    cfg = {"output_dir": str(tmp_path / "out"), "grid": {"n": 64, "length": 8 * np.pi},
           "time": {"t_final": 0.1, "dt": 1e-3, "snapshots": 3}}
    _poison_last_row(monkeypatch, 8)
    assert main(["micro", "--config", _write_config(tmp_path, "cfg.json", cfg)]) == 1
    summary = _summary(tmp_path / "out")
    assert not _assertion_map(summary)["run_completed"]["pass"]
    assert summary["timings"]["aborts"] == {
        "micro": {"abort_reason": "non-finite state", "steps_taken": 7}}


def test_converge_with_an_aborted_limit_run_fails_with_a_summary(tmp_path):
    # the limit reference of this config blows up at t = 0.0175: no ε-run is
    # scored against it, and the summary names the limit run's abort
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "preset": "ll_easy_cone", "params": {"alpha": 0.5, "theta0": 0.3},
        "grid": {"n": 32, "length": 1.0},
        "time": {"t_final": 0.05, "dt": 0.0025, "snapshots": 3},
        "initial": {"shape": "mode", "amplitude": 1.0, "width": 0.3},
        "eps_list": [0.9, 0.5],
    }
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "kdvlab.cli", "converge",
         "--config", _write_config(tmp_path, "cfg.json", cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 1 and "Traceback" not in out.stderr
    summary = _summary(tmp_path / "out")
    assert [(a["name"], a["pass"]) for a in summary["assertions"]] == [
        ("limit_run_completed", False)]
    assert summary["timings"]["aborts"] == {
        "kdv": {"abort_reason": "gradient blow-up", "steps_taken": 7}}
    assert not list((tmp_path / "out").glob("converge_eps_*.csv"))


def test_converge_abort_inside_second_block_writes_the_partial_series(tmp_path, monkeypatch):
    # the eps = 0.1 run turns non-finite on the step of its snapshot 40,
    # inside its second block of snapshots: its artifact holds t and w_norm
    # of snapshots 0-39, the rows a healthy run writes for them (by then the
    # eps = 0.2 run has left the batch, so eps = 0.1 is its only row)
    base = {
        "grid": {"n": 64, "length": 8 * np.pi},
        "time": {"t_final": 0.12, "dt": 1e-3, "snapshots": 61},
        "eps_list": [0.2, 0.1],
    }
    healthy = dict(base, output_dir=str(tmp_path / "healthy"))
    assert main(["converge", "--config", _write_config(tmp_path, "h.json", healthy)]) == 0
    micro_steps = _summary(tmp_path / "healthy")["timings"]["micro_steps"]
    bad_step = 40 * micro_steps["0.1"] // 60
    assert bad_step > micro_steps["0.2"]
    _poison_last_row(monkeypatch, bad_step + 1)
    poisoned = dict(base, output_dir=str(tmp_path / "poisoned"))
    assert main(["converge", "--config", _write_config(tmp_path, "p.json", poisoned)]) == 1

    summary = _summary(tmp_path / "poisoned")
    assert summary["timings"]["aborts"] == {
        "0.1": {"abort_reason": "non-finite state", "steps_taken": bad_step}
    }
    partial = (tmp_path / "poisoned" / "converge_eps_0.1.csv").read_text().splitlines()
    full = (tmp_path / "healthy" / "converge_eps_0.1.csv").read_text().splitlines()
    assert partial[0] == "t,w_norm" and len(partial) == 1 + 40
    w_col = full[0].split(",").index("w_norm")
    rows = [row.split(",") for row in full[1:41]]
    assert partial[1:] == [f"{row[0]},{row[w_col]}" for row in rows]


def test_miura_unequal_moduli_fails_by_design(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"), "d2_alpha": 1.0, "d2_beta": 2.0},
    )
    rc = main(["miura", "--config", cfg])
    assert rc == 1
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert checks["scalar_crosscheck"]["pass"]
    assert not checks["d2_condition"]["pass"]
    assert checks["d2_condition"]["value"] > 1e-3


@pytest.mark.parametrize("amplitude,dt,legs", [
    # without a blow-up monitor the mKdV step went non-finite in these two
    (5.0, 1e-3, ["kdv", "mkdv"]),
    (8.0, 1e-2, ["kdv", "mkdv"]),
    (3.0, 1e-3, ["kdv"]),
])
def test_miura_leg_abort_fails_with_a_summary(tmp_path, amplitude, dt, legs):
    # a leg that aborts fails the crosscheck, and the summary names the leg,
    # its abort reason and the step it stopped on
    cfg = dict(default_config("miura"), output_dir=str(tmp_path / "out"))
    cfg["initial"]["amplitude"] = amplitude
    cfg["time"]["dt"] = dt
    assert main(["miura", "--config", _write_config(tmp_path, "cfg.json", cfg)]) == 1
    summary = _summary(tmp_path / "out")
    assert not _assertion_map(summary)["scalar_crosscheck"]["pass"]
    aborts = summary["timings"]["aborts"]
    assert sorted(aborts) == legs
    for entry in aborts.values():
        assert entry["abort_reason"] == "gradient blow-up"
        assert 1 <= entry["steps_taken"] < summary["timings"]["kdv_steps"]


def test_miura_reports_the_steps_it_takes(tmp_path):
    # t_final below dt: each leg takes one step, not round(0.2) = 0
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"),
         "time": {"t_final": 0.01, "dt": 0.05, "snapshots": 2}},
    )
    assert main(["miura", "--config", cfg]) == 0
    timings = _summary(tmp_path / "out")["timings"]
    assert timings == {"kdv_steps": 1, "mkdv_steps": 1}


def test_hyperbolic_breakdown_matches_characteristics(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"),
         "grid": {"n": 256, "length": 2 * np.pi},
         "time": {"t_final": 1.0, "dt": 5e-4, "snapshots": 11}},
    )
    rc = main(["hyperbolic", "--config", cfg])
    assert rc == 0
    summary = _summary(tmp_path / "out")
    checks = _assertion_map(summary)
    assert checks["breakdown_detected"]["pass"]
    assert checks["breakdown_time_near_characteristics"]["value"] <= TOL["oracle_window"]
    # the run stops on its gradient guard: fewer steps taken than planned
    assert summary["timings"]["kdv_steps"] == 2000
    assert 0 < summary["timings"]["kdv_steps_taken"] < 2000


def test_hyperbolic_non_finite_step_is_no_breakdown(tmp_path):
    # at amplitude 1e100 the first step overflows: the run aborts non-finite,
    # which is no gradient breakdown, and the summary names the abort
    cfg = dict(default_config("hyperbolic"), output_dir=str(tmp_path / "out"))
    cfg["initial"]["amplitude"] = 1e100
    cfg["time"]["dt"] = 0.25
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["hyperbolic", "--config", _write_config(tmp_path, "cfg.json", cfg)]) == 1
    summary = _summary(tmp_path / "out")
    assert not _assertion_map(summary)["breakdown_detected"]["pass"]
    assert summary["timings"]["gradient_checks"] == 1
    assert summary["timings"]["aborts"]["kdv"]["abort_reason"] != "gradient blow-up"


def test_hyperbolic_soliton_control_reports_no_breakdown(tmp_path):
    cfg = _write_config(
        tmp_path, "cfg.json",
        {"output_dir": str(tmp_path / "out"), "delta": 1.0,
         "grid": {"n": 512, "length": 16 * np.pi},
         "time": {"t_final": 1.0, "dt": 1e-3, "snapshots": 11},
         "initial": {"shape": "soliton"}},
    )
    rc = main(["hyperbolic", "--config", cfg])
    assert rc == 0
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert checks["no_breakdown"]["pass"]


def test_soliton_nan_shape_error_fails(tmp_path, monkeypatch):
    # a NaN shape error (here from a NaN exact wave) must fail its
    # assertion, not drop out of a max
    monkeypatch.setattr(experiments, "fourier_shift",
                        lambda comps, grid, delta: np.full_like(comps, np.nan))
    cfg = dict(default_config("soliton"), output_dir=str(tmp_path / "out"))
    cfg["time"] = {"t_final": 0.01, "dt": 1e-3, "snapshots": 2}
    assert run_experiment(ExperimentConfig.from_dict(cfg)) == 1
    shape = _assertion_map(_summary(tmp_path / "out"))["shape_error"]
    assert np.isnan(shape["value"]) and not shape["pass"]


def test_soliton_at_the_wrong_speed_fails_its_shape_error(tmp_path, monkeypatch):
    # a run whose snapshots are the exact solitary wave at 1.001 c_w keeps
    # its shape and its conserved quantities, but it is not the solution: the
    # shape error against the exact wave at c_w fails (7.2e-3 against 1e-4),
    # where a minimum over all shifts of u0 forgave the speed
    cfg = dict(default_config("soliton"), output_dir=str(tmp_path / "out"))
    real = experiments.evolve_kdv

    def too_fast(model, u0, grid, *args, **kwargs):
        traj = real(model, u0, grid, *args, **kwargs)
        traj.meta["snapshots"] = np.array([fourier_shift(u0, grid, -1.001 * cfg["speed"] * t)
                                           for t in traj.times])
        return traj

    monkeypatch.setattr(experiments, "evolve_kdv", too_fast)
    assert run_experiment(ExperimentConfig.from_dict(cfg)) == 1
    checks = _assertion_map(_summary(tmp_path / "out"))
    assert not checks.pop("shape_error")["pass"]
    assert all(check["pass"] for check in checks.values()), checks


@pytest.mark.parametrize("speed", [0.05, 1e-300, 1.7e308])
def test_soliton_speed_the_grid_cannot_hold_exits_2_without_traceback(tmp_path, speed):
    # at speed 0.05 the wave is too wide for the default domain; at 1e-300 it
    # underflows to zero; at 1.7e308 its samples overflow: a config error
    # naming the field, not a traceback (0.05, 1.7e308) or a NaN shape error
    # (1e-300)
    cfg = {"output_dir": str(tmp_path / "out"), "speed": speed}
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "kdvlab.cli", "soliton",
         "--config", _write_config(tmp_path, "cfg.json", cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert "speed" in out.stderr and "Traceback" not in out.stderr


def test_a_config_error_leaves_no_earlier_summary(tmp_path, capsys):
    # a soliton too fast for its step fails with a summary; a soliton the
    # grid cannot hold, run into the same directory, is a config error and
    # must not leave that summary, or that series, behind as its own
    out = tmp_path / "out"
    fast = _write_config(tmp_path, "fast.json", {"output_dir": str(out), "speed": 64.0})
    assert main(["soliton", "--config", fast]) == 1
    assert (out / "summary.json").exists() and (out / "soliton_series.csv").exists()
    wide = _write_config(tmp_path, "wide.json", {
        "output_dir": str(out), "speed": 4.0, "grid": {"n": 512, "length": 4 * np.pi}})
    assert main(["soliton", "--config", wide]) == 2
    assert "invalid configuration: speed: " in capsys.readouterr().err
    assert not (out / "summary.json").exists() and not (out / "timings.json").exists()
    assert not (out / "soliton_series.csv").exists()


def test_a_converge_rerun_over_fewer_eps_leaves_no_stale_series(tmp_path):
    # a 2-eps run into the directory of a 3-eps run removes the third
    # series, and no file that is not its own
    out = tmp_path / "out"
    base = {
        "output_dir": str(out),
        "grid": {"n": 128, "length": 8 * np.pi},
        "time": {"t_final": 0.1, "dt": 1e-3, "snapshots": 6},
    }
    three = dict(base, eps_list=[0.4, 0.2, 0.1])
    assert main(["converge", "--config", _write_config(tmp_path, "3.json", three)]) in (0, 1)
    assert (out / "converge_eps_0.1.csv").exists()
    others = ["soliton_series.csv", "converge_series.csv", "converge.csv", "notes.txt"]
    for name in others:
        (out / name).write_text("kept\n")
    two = dict(base, eps_list=[0.4, 0.2])
    assert main(["converge", "--config", _write_config(tmp_path, "2.json", two)]) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["converge_eps_0.4.csv", "converge_eps_0.2.csv", "summary.json", "timings.json"] + others)


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_an_output_dir_that_is_or_lies_under_a_file_exits_2(tmp_path, capsys, below):
    # the directory cannot be made: a config error naming output_dir, not
    # a traceback, and the file is left as it was
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    cfg = _write_config(tmp_path, "c.json", {"output_dir": str(blocker / below)})
    assert main(["kdv", "--config", cfg]) == 2
    assert "invalid configuration: output_dir: " in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("d2", [{"d2_alpha": 1e308, "d2_beta": 1e308},
                                {"d2_alpha": [1e308, 1e308]}])
def test_d2_coefficients_whose_tensor_overflows_exit_2(tmp_path, capsys, d2):
    # finite d2_* whose tensor overflows: a config error naming them, and no
    # summary, not a traceback
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", dict(d2, output_dir=str(out)))
    assert main(["miura", "--config", cfg]) == 2
    assert "invalid configuration: d2_alpha, d2_beta: " in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("alpha,beta", [([345.6, 821.6], 330.4), (1e200, 3e2)])
def test_large_finite_d2_coefficients_run_to_a_summary(tmp_path, alpha, beta):
    # the tensor's symmetry is checked relative to its size: large d2_*,
    # whose tensor rounds to an absolute symmetry defect above 1e-13, run
    # the miura experiment to a summary
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", {"output_dir": str(out), "d2_alpha": alpha,
                                             "d2_beta": beta, "time": {"t_final": 0.01}})
    with np.errstate(over="ignore", invalid="ignore"):  # the d2 condition overflows at 1e200
        assert main(["miura", "--config", cfg]) in (0, 1)
    assert (out / "summary.json").exists()


def test_a_config_that_is_not_a_mapping_is_a_config_error():
    with pytest.raises(ConfigError, match="^config: must be a mapping"):
        ExperimentConfig.from_dict([1])


def test_summary_schema(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {"output_dir": str(tmp_path / "out")})
    main(["kdv", "--config", cfg])
    summary = _summary(tmp_path / "out")
    assert set(summary) == {"experiment", "config_echo", "assertions", "timings"}
    for item in summary["assertions"]:
        assert set(item) == {"name", "value", "threshold", "pass"}
    assert summary["config_echo"]["preset"] == "ll_easy_plane"
    # wall-clock lives in its own file so the summary stays byte-deterministic
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    assert "wall_seconds" in timings


def test_cli_rejects_bad_grid_size(tmp_path, capsys):
    rc = main(["kdv", "--config", _write_config(tmp_path, "cfg.json", {"grid": {"n": 100}})])
    assert rc == 2
    assert "grid.n" in capsys.readouterr().err


def test_the_document_is_the_only_way_to_set_a_field(tmp_path, monkeypatch, capsys):
    # each subcommand takes --config alone: a field flag is an unknown
    # argument, exit 2 before any run (nothing is written in the working
    # directory, where the default output directory is)
    monkeypatch.chdir(tmp_path)
    assert main(["micro", "--eps", "0.1"]) == 2
    assert "unrecognized arguments: --eps 0.1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert main(["micro", "--help"]) == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--config"}


@pytest.mark.parametrize("payload", [
    {"preset": "ll_easy_cone"},  # alpha and theta0 are required
    {"preset": "gp_coupled", "params": {"lam": -1}},
    {"preset": "ll_easy_plane", "params": {"k": True}},  # not 1.0
    {"preset": "ll_easy_plane", "params": {"k": "2"}},  # not 2.0
])
def test_cli_rejects_bad_preset_params(tmp_path, capsys, payload):
    rc = main(["micro", "--config", _write_config(tmp_path, "cfg.json", payload)])
    assert rc == 2
    assert "params" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dance"])
    assert main(["dance"]) == 2  # main returns the status argparse exits with
    assert "invalid choice: 'dance'" in capsys.readouterr().err


def test_run_experiment_returns_failure_status(tmp_path):
    cfg = default_config("miura")
    cfg["output_dir"] = str(tmp_path / "out")
    cfg["d2_alpha"] = 1.0
    cfg["d2_beta"] = [0.0, 2.0]  # modulus 2: condition violated
    assert run_experiment(ExperimentConfig.from_dict(cfg)) == 1
