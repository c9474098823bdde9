"""The scripts run end to end as their docstrings say; the benchmark-pair
summary is checked on canned results."""

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
