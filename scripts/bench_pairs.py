#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent tree against a changed tree.

Runs `perfbench/run.py` in each of two source trees, one process at a time,
for N pairs; pair i uses seed `--seed + i` on both sides, and the side that
runs first alternates from pair to pair, starting with the parent. Per metric
it prints each side's median and its range (max - min) over that median, the
distance between the parent's quartiles, the ratio of the medians (change /
parent), in how many pairs the change read lower, and `all below` when every
change run read below every parent run. A metric is
`unresolved` when the parent's own range over median exceeds the metric's
bound in BENCHMARK.json: its runs spread too widely for a move within the
bound to show.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload geo-chain --seconds 10 --pairs 6

With `--counters` it runs `perfbench/run.py --trace 1` once per tree, with
the same `--seed` and `--seconds`, and compares every metric whose unit is
`count` or `bits`: the identity check of a change that must leave the work
done unchanged. It prints each metric that differs with both values and exits
1, or prints how many metrics it compared and exits 0.

    python3 scripts/bench_pairs.py --counters --parent ../parent --change . \\
        --workload all --seed 7 --seconds 1

With `--out BENCH_<n>.json` it also writes what it measured as JSON. Pairs
write the change side's median, quartiles, minimum and maximum per metric,
with the pair count and the seeds; `--counters` writes the number of count
and bits metrics compared and the ones that differ. The file is updated, not
replaced, so one file can hold a set of pairs and a counter check:

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --out BENCH_<n>.json
    python3 scripts/bench_pairs.py --counters --parent ../parent --change . \\
        --out BENCH_<n>.json

BENCHMARK.json is read from the change tree and never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict[str, dict]:
    """One `perfbench/run.py` process in `tree`: its metrics, by name, each
    as {"value": ..., "unit": ...}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])["metrics"]


def compare_counters(parent: dict[str, dict], change: dict[str, dict]) -> tuple[int, list[str]]:
    """How many `count` and `bits` metrics either run reports, and one line
    per such metric whose values differ (or that one run lacks)."""
    names = sorted({n for run in (parent, change) for n, m in run.items() if m["unit"] in ("count", "bits")})
    diffs = []
    for name in names:
        p, c = (run[name]["value"] if name in run else "missing" for run in (parent, change))
        if p != c:
            diffs.append(f"{name}: parent {p}, change {c}")
    return len(names), diffs


def bounds_of(benchmark: dict) -> dict[str, float]:
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]],
              bounds: dict[str, float]) -> list[dict]:
    """One row per metric that both sides report, from runs paired by index.

    A metric named `<workload>.<metric>` (as `--workload all` reports them)
    takes the bound of `<metric>`."""
    rows = []
    for name in parent[0]:
        if name not in change[0]:
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        p_spread = (max(p) - min(p)) / p_med if p_med else 0.0
        quartiles = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
        c_spread = (max(c) - min(c)) / c_med if c_med else 0.0
        bound = bounds.get(name, bounds.get(name.rsplit(".", 1)[-1]))
        rows.append({
            "metric": name,
            "parent": p_med,
            "parent_spread": p_spread,
            "parent_iqr": quartiles[2] - quartiles[0],
            "change": c_med,
            "change_spread": c_spread,
            "ratio": c_med / p_med if p_med else float("nan"),
            "lower": sum(ci < pi for pi, ci in zip(p, c)),
            "all_below": max(c) < min(p),
            "pairs": len(p),
            "unresolved": bound is not None and p_spread > bound,
        })
    return rows


def side_stats(runs: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    """Per metric of one side's runs: median, quartiles (as in `summarize`),
    minimum and maximum."""
    stats = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        stats[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                       "min": min(values), "max": max(values)}
    return stats


def update_out(path: Path, section: dict) -> None:
    """Merge `section` into the JSON object at `path`, creating the file."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc.update(section)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_table(rows: list[dict]) -> str:
    """The rows as a Markdown table."""
    out = ["| metric | parent median (range/median) | parent IQR | change median (range/median) "
           "| change/parent | pairs lower | | |",
           "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['metric']} | {r['parent']:.4g} ({r['parent_spread']:.2f}) | {r['parent_iqr']:.3g} "
            f"| {r['change']:.4g} ({r['change_spread']:.2f}) | {r['ratio']:.3f} "
            f"| {r['lower']}/{r['pairs']} | {'all below' if r['all_below'] else ''} "
            f"| {'unresolved' if r['unresolved'] else ''} |"
        )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's source tree")
    ap.add_argument("--change", type=Path, required=True, help="the changed source tree")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair, or of both --counters runs")
    ap.add_argument("--counters", action="store_true",
                    help="compare the count and bits metrics of one traced run per tree")
    ap.add_argument("--out", type=Path, help="JSON file to update with the results, such as BENCH_<n>.json")
    args = ap.parse_args(argv)
    if args.counters:
        runs = [run_once(tree, args.workload, args.seed, args.seconds, trace=1)
                for tree in (args.parent, args.change)]
        compared, diffs = compare_counters(*runs)
        print("\n".join(diffs) if diffs else f"{compared} count and bits metrics compared, all equal")
        if args.out:
            update_out(args.out, {"counters": {"workload": args.workload, "seed": args.seed,
                                               "seconds": args.seconds, "compared": compared, "diffs": diffs}})
        return 1 if diffs else 0
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [(parent, args.parent), (change, args.change)]
        for runs, tree in sides if i % 2 == 0 else reversed(sides):
            metrics = run_once(tree, args.workload, seed, args.seconds)
            runs.append({name: m["value"] for name, m in metrics.items()})
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    print(format_table(summarize(parent, change, bounds_of(benchmark))))
    if args.out:
        update_out(args.out, {"workload": args.workload, "seconds": args.seconds, "pairs": args.pairs,
                              "seeds": [args.seed + i for i in range(args.pairs)], "change": side_stats(change)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
