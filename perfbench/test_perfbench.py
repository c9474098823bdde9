"""Checks of the benchmark itself: what it traces, what it reports and that
its references catch wrong answers. No test here looks at a timing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from tracer import SPANS, Tracer
from workloads import WORKLOADS, dec_ladder, geo_chain, mismatches, small_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(run.SRC))
redip = importlib.import_module("redip")

# Small instances of each workload, fast enough for a test.
SMALL = {
    "geo-chain": lambda seed: geo_chain(seed, k=4),
    "dec-ladder": lambda seed: dec_ladder(seed, m=6),
    "small-corpus": lambda seed: small_corpus(seed, programs=40),
}
# Spans that must record calls on each workload, from what its programs and
# queries contain; every workload calls the spans whose seconds are reported.
EXPECTED_SPANS = {
    "geo-chain": run.TIMED + (
        "lang.parse_guard", "translate.guard_mass", "translate.marginal",
        "analysis.coefficient_table", "constructions.transition_subst",
        "constructions.label_subst_one",
    ),
    "dec-ladder": run.TIMED + (
        "lang.parse_guard", "translate.guard_mass", "constructions.decrement",
        "constructions.weighted_union",
    ),
    "small-corpus": run.TIMED + (
        "translate.marginal", "analysis.coefficient_table", "constructions.transition_subst",
        "constructions.weighted_union", "constructions.label_subst_one",
    ),
}


def traced_pass(cases):
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(redip, cases, tracer)
    finally:
        tracer.remove()
    return tracer, p


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_layers_record_calls_and_answers_match(workload):
    cases = SMALL[workload](7)
    plain = run.run_pass(redip, cases)
    tracer, traced = traced_pass(cases)
    calls = {span: sum(tracer.spans[ph][span][0] for ph in tracer.spans) for span in SPANS}
    silent = [span for span in EXPECTED_SPANS[workload] if calls[span] == 0]
    assert not silent, f"no calls recorded for {silent}"
    assert traced.outcomes == plain.outcomes
    assert all(not isinstance(o, str) for o in plain.outcomes)


def test_tracer_sees_calls_through_every_import():
    # translate binds `mass` by name; the patched binding must be the one used
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(sys.modules["redip.translate"].mass, "__wrapped__")
        redip.infer(redip.parse_program("x += 1"))
    finally:
        tracer.remove()
    assert tracer.spans["infer"]["analysis.mass"][0] == 3
    assert not hasattr(sys.modules["redip.translate"].mass, "__wrapped__")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_references_pass_and_catch_wrong_answers(workload):
    cases = SMALL[workload](11)
    p = run.run_pass(redip, cases)
    for case, outcome in zip(cases, p.outcomes):
        assert mismatches(redip, case, outcome) == [], case.source
    case, outcome = next(
        (c, o) for c, o in zip(cases, p.outcomes) if o.z is not None and o.answers
    )
    off_z = dataclasses.replace(outcome, z=outcome.z / 2)
    assert mismatches(redip, case, off_z)
    first = outcome.answers[0]
    if isinstance(first, Fraction):
        bad = first + 1
    else:
        probs, tail = first
        bad = (probs, tail + 1)
    off_answer = dataclasses.replace(outcome, answers=(bad,) + outcome.answers[1:])
    assert mismatches(redip, case, off_answer)


def test_desk_programs_match_their_closed_forms():
    cases = small_corpus(0, programs=0)
    assert [c.name for c in cases] == ["insurance", "parity", "thinning"]
    p = run.run_pass(redip, cases)
    for case, outcome in zip(cases, p.outcomes):
        assert mismatches(redip, case, outcome) == []


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _cli(*args, env=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
    return result["metrics"]


@pytest.mark.parametrize("workload", ["geo-chain", "dec-ladder"])
def test_output_shape_and_exact_counts_repeat(workload):
    """Two runs with the same seed, in processes with different string
    hashing, report the same exact counts."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        e2e = _result(_cli("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0", env=env))
        layers = _result(_cli("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1", env=env))
        assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
        assert {n: m["unit"] for n, m in layers.items()} == run.PER_LAYER
        runs.append({**e2e, **layers})
    exact = (
        "posterior_states", "posterior_edges", "linsolve.factor.ops",
        "linsolve.factor.dim", "analysis.mass.calls",
    )
    for name in exact:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "dec-ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
