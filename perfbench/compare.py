"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py PARENT_RUNS [CHANGE_RUNS]

Each argument is a directory of result files written by run.py (its
``--out`` directory, or the ``runs`` directory inside it). Untraced runs
are grouped by workload; runs of the two sets made with the same seed form
a pair. For every end-to-end metric of BENCHMARK.json the command prints
each side's median and quartiles, the relative spread, the pair wins of the
change, and a verdict:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- unresolved: either side spreads wider than the metric's bound, and not
  every change run beats every parent run;
- no worse: the change's median is within the bound of the parent's;
- worse: it is not.

With one set it prints the medians, quartiles and spreads only, and the
tracing overhead where traced runs of the same seeds exist.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, relative_spread, verdict

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> result. A later run of the same seed replaces an earlier one."""
    runs_dir = directory / "runs" if (directory / "runs").is_dir() else directory
    out: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(runs_dir.glob("*.json"), key=lambda p: p.stat().st_mtime):
        result = json.loads(path.read_text())
        out[(result["workload"], result["trace"])][result["seed"]] = result
    return out


def values(runs: dict[int, dict], metric: str) -> dict[int, float]:
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items() if metric in r["metrics"]}


def fmt(x: float) -> str:
    return f"{x:.6g}"


def summarize_set(spec: dict, runs: dict) -> None:
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace:
            continue
        failed = sum(r["failed"] for r in by_seed.values())
        attempted = sum(r["attempted"] for r in by_seed.values())
        print(f"== {workload}: {len(by_seed)} runs, failed {failed}/{attempted}")
        for m in spec["end_to_end"]:
            vs = list(values(by_seed, m["name"]).values())
            if not vs:
                continue
            q1, med, q3 = quartiles(vs)
            spread = relative_spread(vs)
            flag = "" if spread <= m["bound"] else "  > bound"
            print(f"  {m['name']:<18} median {fmt(med):>12} {m['unit']:<6} q1 {fmt(q1):>12} q3 {fmt(q3):>12}"
                  f"  spread {spread:6.1%} (bound {m['bound']:.0%}){flag}")
        traced = runs.get((workload, 1), {})
        pairs = [(by_seed[s], traced[s]) for s in by_seed if s in traced]
        if pairs:
            deltas = [t["metrics"]["trace.pass_s"]["value"] * 1e3 / p["metrics"]["latency_p50_ms"]["value"] - 1
                      for p, t in pairs if t["metrics"]["trace.pass_s"]["value"]]
            if deltas:
                print(f"  tracing overhead on pass time: median {statistics.median(deltas):+.1%} "
                      f"over {len(deltas)} seeds")


def compare_sets(spec: dict, parent: dict, change: dict) -> None:
    print(f"{'workload':<8} {'metric':<18} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
          f" {'wins':>7}  verdict")
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if trace:
            continue
        for m in spec["end_to_end"]:
            p = values(parent.get(key, {}), m["name"])
            c = values(change.get(key, {}), m["name"])
            if not p or not c:
                print(f"{workload:<8} {m['name']:<18} missing runs on one side")
                continue
            pairs = [(p[s], c[s]) for s in p if s in c]
            lower = m["better"] == "lower"
            wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            call = verdict(list(p.values()), list(c.values()), pairs, m["better"], m["bound"])
            print(f"{workload:<8} {m['name']:<18} "
                  f"{fmt(pq[1]):>12} [{fmt(pq[0])}, {fmt(pq[2])}]".ljust(64) +
                  f"{fmt(cq[1]):>12} [{fmt(cq[0])}, {fmt(cq[2])}]".ljust(38) +
                  f"{wins:>3}/{len(pairs):<3}  {call}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_runs(Path(a)) for a in args]
    if len(sets) == 1:
        summarize_set(spec, sets[0])
    else:
        compare_sets(spec, *sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
