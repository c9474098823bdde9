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


def test_bench_pairs_out_of_canned_runs(monkeypatch, tmp_path, capsys):
    """`--out` writes the change side's median, quartiles and range per
    metric, the pair count and the seeds; `--counters --out` adds the counter
    check to the same file and keeps what is there."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    query_s = {("parent", 4): 0.10, ("parent", 5): 0.12, ("parent", 6): 0.11,
               (ROOT.name, 4): 0.05, (ROOT.name, 5): 0.08, (ROOT.name, 6): 0.06}

    def canned(tree, workload, seed, seconds, trace=0):
        if trace:
            return {"geo-chain.linsolve.factor.dim": {"value": 75 if tree == ROOT else 1024, "unit": "count"}}
        return {"geo-chain.query_s": {"value": query_s[tree.name, seed], "unit": "s"},
                "geo-chain.posterior_states": {"value": 75 if tree == ROOT else 1024, "unit": "count"}}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    out = tmp_path / "BENCH_1.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(ROOT), "--seed", "4", "--seconds", "1",
            "--out", str(out)]
    assert bench_pairs.main(argv + ["--pairs", "3"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["pairs"], doc["seeds"], doc["workload"], doc["seconds"]) == (3, [4, 5, 6], "all", 1.0)
    query = doc["change"]["geo-chain.query_s"]
    assert (query["median"], query["min"], query["max"]) == (0.06, 0.05, 0.08)
    assert (round(query["q1"], 9), round(query["q3"], 9)) == (0.05, 0.08)  # quartiles of three runs
    assert doc["change"]["geo-chain.posterior_states"]["median"] == 75
    assert bench_pairs.main(argv + ["--counters"]) == 1
    assert "parent 1024, change 75" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["counters"] == {"workload": "all", "seed": 4, "seconds": 1.0, "compared": 1,
                               "diffs": ["geo-chain.linsolve.factor.dim: parent 1024, change 75"]}
    assert doc["pairs"] == 3 and "geo-chain.query_s" in doc["change"]
