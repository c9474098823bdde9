"""The scripts run end to end as their docstrings say; the benchmark-pair
summary and its counter check read canned results."""

import json
import os
import subprocess
import sys
from pathlib import Path

from redip.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_posterior_demo_reads_a_prior_file(tmp_path, capsys):
    program = str(ROOT / "programs" / "insurance.redip")
    prior = tmp_path / "posterior.json"
    assert main(["infer", program, "-o", str(prior)]) == 0
    capsys.readouterr()
    run = run_script("posterior_demo.py", program, "--prior", str(prior), "--upto", "3")
    assert run.returncode == 0, run.stderr
    # the prior already satisfies observe(x >= 2), so conditioning keeps all its mass
    assert "normalizing constant: 1 (= 1)" in run.stdout
    assert "posterior marginal of x" in run.stdout


def test_differential_runner_agrees_on_a_few_programs():
    run = run_script("differential_runner.py", "--programs", "20", "--seed", "7")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "OK: translation and interpreter agree everywhere" in run.stdout


def test_bench_pairs_summary_of_canned_runs():
    """The summary of alternating pairs, with no benchmark run: medians,
    range over median, the ratio, pairs lower, and `unresolved` where the
    parent's own range exceeds the metric's bound."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    parent = [{"query_s": 0.10, "peak_rss_mb": 40.0}, {"query_s": 0.12, "peak_rss_mb": 41.0},
              {"query_s": 0.11, "peak_rss_mb": 60.0}]
    change = [{"query_s": 0.05, "peak_rss_mb": 42.0}, {"query_s": 0.07, "peak_rss_mb": 40.0},
              {"query_s": 0.06, "peak_rss_mb": 43.0}]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = {r["metric"]: r for r in bench_pairs.summarize(parent, change, bench_pairs.bounds_of(bench))}
    query = rows["query_s"]
    assert (query["parent"], query["change"], query["lower"], query["pairs"]) == (0.11, 0.06, 3, 3)
    assert round(query["parent_spread"], 9) == round(0.02 / 0.11, 9)
    assert round(query["ratio"], 9) == round(0.06 / 0.11, 9)
    assert round(query["parent_iqr"], 9) == 0.02  # quartiles 0.10 and 0.12 of three runs
    assert not query["unresolved"]  # 0.18 is within query_s's bound of 0.25
    assert query["all_below"]  # 0.07 < 0.10
    rss = rows["peak_rss_mb"]
    assert rss["lower"] == 2 and rss["unresolved"]  # 20 / 41 exceeds the bound of 0.15
    assert not rss["all_below"]
    # `--workload all` prefixes each metric with its workload
    prefixed = bench_pairs.summarize([{"geo-chain.query_s": 1.0}, {"geo-chain.query_s": 2.0}],
                                     [{"geo-chain.query_s": 1.0}, {"geo-chain.query_s": 1.0}],
                                     {"query_s": 0.25})
    assert prefixed[0]["unresolved"] and prefixed[0]["lower"] == 1
    table = bench_pairs.format_table(bench_pairs.summarize(parent, change, bench_pairs.bounds_of(bench)))
    assert "| query_s | 0.11 (0.18) | 0.02 | 0.06 (0.33) | 0.545 | 3/3 | all below |  |" in table
    assert "| peak_rss_mb |" in table and "unresolved" in table


def test_bench_pairs_counters_of_canned_runs(monkeypatch, capsys):
    """`--counters` compares every count and bits metric of one traced run per
    tree, with no benchmark run: equal runs exit 0 with the number compared,
    and a differing or missing counter is printed with both values, exit 1."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    parent = {"geo-chain.linsolve.factor.dim": {"value": 4085, "unit": "count"},
              "geo-chain.linsolve.factor.max_den_bits": {"value": 16, "unit": "bits"},
              "geo-chain.linsolve.solve.calls": {"value": 47, "unit": "count"},
              "geo-chain.query_s": {"value": 0.05, "unit": "s"},
              "geo-chain.pga.trim.kept_ratio": {"value": 0.9, "unit": "ratio"}}
    timing_only = dict(parent, **{"geo-chain.query_s": {"value": 0.04, "unit": "s"}})
    assert bench_pairs.compare_counters(parent, timing_only) == (3, [])
    changed = dict(timing_only, **{"geo-chain.linsolve.factor.dim": {"value": 4086, "unit": "count"}})
    del changed["geo-chain.linsolve.solve.calls"]
    assert bench_pairs.compare_counters(parent, changed) == (3, [
        "geo-chain.linsolve.factor.dim: parent 4085, change 4086",
        "geo-chain.linsolve.solve.calls: parent 47, change missing",
    ])
    calls = []

    def canned(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, workload, seed, seconds, trace))
        return parent if tree.name == "parent" else runs[tree.name]

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    argv = ["--counters", "--parent", "parent", "--workload", "all", "--seed", "7", "--seconds", "1"]
    for name, run, status, out in (("same", timing_only, 0, "3 count and bits metrics compared, all equal\n"),
                                   ("changed", changed, 1, "parent 4085, change 4086")):
        runs = {name: run}
        calls.clear()
        assert bench_pairs.main(argv + ["--change", name]) == status
        assert out in capsys.readouterr().out
        assert calls == [("parent", "all", 7, 1.0, 1), (name, "all", 7, 1.0, 1)]
