"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (searched recursively) or files of the
records ``run.py`` writes under ``.perfbench_out/results``; copy that
directory aside after measuring each commit.  For every workload and
end-to-end metric it prints each side's median, quartiles and run count, and
a verdict against the bound in ``BENCHMARK.json``:

- ``REGRESSION``: the new median is worse than the base median by more than
  the bound;
- ``unresolved``: the spread (q3 - q1 over the median) of either side exceeds
  the bound, so the runs cannot tell, unless every new run is better than
  every base run;
- ``ok``: neither.

Per-layer metrics from traced runs are listed with their medians and the
new/base ratio, without a verdict.  Exits 1 if any regression was found.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, quartiles


def load(path: Path) -> dict:
    """(workload, trace) -> metric name -> list of values, one per run."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for file in files:
        record = json.loads(file.read_text())
        key = (record["workload"], record["trace"])
        for name, metric in record["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return out


def verdict(base, new, better: str, bound: float) -> tuple[str, float]:
    """The verdict and the relative change in the worse direction."""
    b, n = quartiles(base), quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    spread = max((q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0
                 for q in (b, n))
    if spread > bound:
        if better == "lower":
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        return ("ok (every run better)" if all_better else "unresolved"), worse
    if worse > bound:
        return "REGRESSION", worse
    return "ok", worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    regressions = 0
    for (workload, trace) in sorted(set(base) & set(new)):
        b, n = base[(workload, trace)], new[(workload, trace)]
        print(f"== {workload} ({'traced' if trace else 'untraced'})")
        if trace:
            for name in sorted(set(b) & set(n)):
                b_med, n_med = quartiles(b[name])["median"], quartiles(n[name])["median"]
                ratio = f"{n_med / b_med:.3f}" if b_med else "-"
                print(f"  {name:36s} base {b_med:12.6g}  new {n_med:12.6g}  "
                      f"new/base {ratio}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in b or name not in n:
                continue
            text, worse = verdict(b[name], n[name], metric["better"], metric["bound"])
            regressions += text == "REGRESSION"
            sides = "  ".join(
                f"{label} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']}"
                for label, q in (("base", quartiles(b[name])), ("new", quartiles(n[name]))))
            print(f"  {name:18s} {sides}  worse by {worse:+.1%} "
                  f"(bound {metric['bound']:.0%}): {text}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
