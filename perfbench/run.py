"""kdvlab benchmark runner.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's experiments (see ``workloads.py``) serially, each sample
in a fresh interpreter, for about ``S`` seconds, and checks that every
experiment exits 0 with the expected work counters.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  Times are calibrated
to a reference host speed (see ``speed.py``); the raw seconds and the speed
factors are kept in the record.  The last line of standard output is one
JSON object; a fuller record (samples, quartiles, summary hashes, machine
facts) goes to ``.perfbench_out/results/<workload>/seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up-only samples per untraced run, on top of the one each pass gives.
SETUP_SAMPLES = 5
# Every run must end within this many seconds, builds aside.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SampleError(RuntimeError):
    """A sample process failed or printed no result."""


def child_env() -> dict:
    # the workload is serial; one BLAS/OpenMP thread keeps samples
    # independent of the other processes on the machine
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_sample(root: Path, args, mode: str, deadline: float) -> dict:
    """Run one sample process; adds ``setup_s`` and ``raw_setup_s`` to its result."""
    cmd = [sys.executable, "-I", str(HERE / "sample.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--workdir", str(root / ".perfbench_out" / "work" / args.workload)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable;
    # the child's calibration time is taken out, the rest calibrated
    result["raw_setup_s"] = result["setup_done"] - started - result["setup_paused"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    return result


def quartiles(values) -> dict:
    """Median, quartiles and count; the samples themselves under ``values``."""
    ordered = sorted(values)
    if len(ordered) < 2:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered), "values": list(values)}


def measure(root: Path, args, modes, deadline: float) -> dict:
    """Run rounds of the given sample modes until ``--seconds`` is used up:
    another round starts only if a round of median length still fits."""
    samples = {mode: [] for mode in modes}
    rounds = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        for mode in modes:
            samples[mode].append(run_sample(root, args, mode, deadline))
        now = time.monotonic()
        rounds.append(now - t0)
        if now - started + statistics.median(rounds) > args.seconds:
            return samples


def machine_facts(versions: dict) -> dict:
    env = child_env()
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        **versions,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def check(passes) -> tuple[int, int, list]:
    attempted, failed, problems = 0, 0, []
    for sample in passes:
        for exp in sample["experiments"]:
            attempted += 1
            if exp["problems"]:
                failed += 1
                problems.append(f"{exp['experiment']}/{exp['preset']}: {exp['problems']}")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + HARD_LIMIT_S
    root = HERE.parent
    if not (root / "src" / "kdvlab" / "experiments.py").is_file():
        print(f"no kdvlab sources under {root / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            samples = measure(root, args, ("pass", "traced"), deadline)
        else:
            setups = [run_sample(root, args, "setup", deadline)
                      for _ in range(SETUP_SAMPLES)]
            samples = measure(root, args, ("pass",), deadline)
    except SampleError as exc:
        print(exc, file=sys.stderr)
        return 1

    passes = samples["pass"] + samples.get("traced", [])
    attempted, failed, problems = check(passes)
    stats = {name: quartiles([s[name] for s in samples["pass"]])
             for name in ("wall_s", "raw_wall_s", "speed")}
    if args.trace:
        traced = samples["traced"]
        stats["traced_wall_s"] = quartiles([s["wall_s"] for s in traced])
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (stats["traced_wall_s"]["median"]
                                      - stats["wall_s"]["median"])
    else:
        for name in ("setup_s", "raw_setup_s"):
            stats[name] = quartiles([s[name] for s in setups + samples["pass"]])
        stats["peak_rss_mb"] = quartiles([s["peak_rss_mb"] for s in samples["pass"]])
        values = {
            "wall_s": stats["wall_s"]["median"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": stats["peak_rss_mb"]["median"],
            "passed_share": (attempted - failed) / attempted,
            "tolerance_use_max": max(e.get("tolerance_use", 0.0)
                                     for s in passes for e in s["experiments"]),
        }
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(passes[0]["versions"]),
        "stats": stats, "problems": problems,
        "summaries": [{k: e.get(k) for k in ("experiment", "preset", "sha256",
                                              "tolerance_use")}
                      for e in passes[0]["experiments"]],
        "result": result,
    }
    out_dir = root / ".perfbench_out" / "results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for name, st in stats.items():
        print(f"{name}: median {st['median']:.6g}  q1 {st['q1']:.6g}  "
              f"q3 {st['q3']:.6g}  n {st['n']}")
    for line in problems:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
