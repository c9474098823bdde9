#!/usr/bin/env python3
"""Benchmark of redip's user-facing pipeline, end to end and per layer.

Each program goes through what `redip infer -o` followed by `redip query`
does: parse the text, infer the exact posterior, save it as JSON, load it
back, and answer the workload's queries. Passes over the workload's programs
repeat until `--seconds` have elapsed; each program's time is its median
over the passes.

    python3 perfbench/run.py --workload geo-chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

With `--trace 0` the metrics are end to end; with `--trace 1` passes with and
without the per-layer tracer alternate and the metrics are per layer, plus
the tracer's overhead. Every metric is printed with its unit; the last line
of output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when any answer differs from its reference and
2 when redip's sources are not found in `src/` beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

from tracer import PHASES, SPANS, Tracer
from workloads import WORKLOADS, Case, Outcome, mismatches

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 21

END_TO_END = {
    "setup_s": "s",
    "infer_s": "s",
    "query_s": "s",
    "program_p50_ms": "ms",
    "program_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "posterior_states": "count",
    "posterior_edges": "count",
}
COUNTERS = {
    "linsolve.factor": ("dim", "ops", "max_den_bits"),
    "constructions.concat": ("out_states",),
    "constructions.product": ("out_states",),
    "constructions.transition_subst": ("out_states",),
    "constructions.decrement": ("out_states",),
    "constructions.weighted_union": ("out_states",),
    "constructions.label_subst_one": ("out_states",),
    "guards.build_guard_dfa": ("dfa_states",),
}
# Spans that every workload calls report their seconds directly. The rest
# (such as `decrement`, which geo-chain never calls) report calls, counters
# and their share of each phase, so that no reported time is zero by design.
TIMED = (
    "lang.parse_program", "translate.translate", "translate.infer", "analysis.mass",
    "analysis.normalize", "constructions.concat", "constructions.product", "pga.make_pga",
    "pga.trim", "guards.build_guard_dfa", "dists.build_dist_pga", "serialize.pga_to_json",
    "serialize.pga_from_json", "linsolve.factor", "linsolve.solve",
)
# Spans whose self-time share is reported per phase: those the phase calls.
# "other" is the rest of the phase, untraced code and unlisted spans.
SHARES = {
    "infer": (
        "lang.parse_program", "translate.translate", "translate.infer", "analysis.mass",
        "analysis.normalize", "constructions.concat", "constructions.product",
        "constructions.transition_subst", "constructions.decrement",
        "constructions.weighted_union", "constructions.label_subst_one", "pga.make_pga",
        "pga.trim", "guards.build_guard_dfa", "dists.build_dist_pga", "linsolve.factor",
        "linsolve.solve",
    ),
    "query": (
        "serialize.pga_to_json", "serialize.pga_from_json", "lang.parse_guard",
        "translate.guard_mass", "translate.marginal", "analysis.mass",
        "analysis.coefficient_table", "constructions.product", "constructions.label_subst_one",
        "pga.make_pga", "pga.trim", "guards.build_guard_dfa", "linsolve.factor",
        "linsolve.solve",
    ),
}


def _layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        if span in TIMED:
            units[f"{span}.s"] = "s"
            if span.startswith("translate."):
                units[f"{span}.self_s"] = "s"
        for counter in COUNTERS.get(span, ()):
            units[f"{span}.{counter}"] = "bits" if counter == "max_den_bits" else "count"
    units["pga.trim.kept_ratio"] = "ratio"
    for phase, spans in SHARES.items():
        for span in spans + ("other",):
            units[f"share.{phase}.{span}"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _layer_units()


@dataclass
class Pass:
    """One pass over the workload: per case, the outcome (or the error text)
    and the seconds spent in each phase."""

    outcomes: list[Union[Outcome, str]] = field(default_factory=list)
    infer_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def case_medians(passes: list[Pass], phases: tuple[str, ...]) -> list[float]:
    """Per case, the median over passes of its seconds in the given phases.
    A burst of load from elsewhere slows a few cases of one pass; taking each
    case's median before summing keeps it out of the totals."""
    per_pass = [[sum(xs) for xs in zip(*(getattr(p, ph) for ph in phases))] for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def setup(workload: str, seed: int):
    """Import redip from source and build the workload's inputs."""
    for name in [n for n in sys.modules if n == "redip" or n.startswith("redip.")]:
        del sys.modules[name]
    redip = importlib.import_module("redip")
    if Path(redip.__file__).resolve().parent != SRC / "redip":
        raise ImportError(f"redip imported from {redip.__file__}, not from {SRC}")
    return redip, WORKLOADS[workload](seed)


def run_case(redip, case: Case, tracer: Optional[Tracer]) -> tuple[Outcome, float, float]:
    """The timed pipeline for one program: infer, then the JSON round trip
    and the queries. Seconds a tracer spends counting are left out."""

    def paused() -> float:
        return tracer.paused if tracer is not None else 0.0

    if tracer is not None:
        tracer.phase = "infer"
    p0, t0 = paused(), perf_counter()
    try:
        result = redip.infer(redip.parse_program(case.source))
    except redip.InfeasibleObservation:
        result = None
    t1, p1 = perf_counter(), paused()
    infer_s = t1 - t0 - (p1 - p0)
    if result is None:
        return Outcome(None, 0, 0, "", ()), infer_s, 0.0
    if tracer is not None:
        tracer.phase = "query"
    t1 = perf_counter()
    text = redip.pga_to_json(result.posterior)
    posterior = redip.pga_from_json(text)
    answers = []
    for q in case.queries:
        if q.guard is not None:
            guard = redip.parse_guard(q.guard, posterior.alphabet)
            answers.append(redip.guard_mass(posterior, guard))
        else:
            probs, tail = redip.marginal(posterior, q.var, q.upto)
            answers.append((tuple(probs), tail))
    query_s = perf_counter() - t1 - (paused() - p1)
    outcome = Outcome(
        result.normalizing_constant, posterior.num_states, posterior.size, text, tuple(answers)
    )
    return outcome, infer_s, query_s


def run_pass(redip, cases: list[Case], tracer: Optional[Tracer] = None) -> Pass:
    gc.collect()
    p = Pass()
    for case in cases:
        try:
            outcome, infer_s, query_s = run_case(redip, case, tracer)
        except Exception:  # a failed operation is counted, not fatal
            outcome, infer_s, query_s = traceback.format_exc(limit=-3), 0.0, 0.0
        p.outcomes.append(outcome)
        p.infer_s.append(infer_s)
        p.query_s.append(query_s)
    return p


def layer_metrics(tracer: Tracer, p: Pass) -> dict[str, float]:
    """One traced pass's per-layer metrics."""
    spans, counts = tracer.spans, tracer.counts
    totals = {"infer": sum(p.infer_s), "query": sum(p.query_s)}
    m: dict[str, float] = {}
    for span in SPANS:
        m[f"{span}.calls"] = sum(spans[ph][span][0] for ph in PHASES)
        if span in TIMED:
            m[f"{span}.s"] = sum(spans[ph][span][1] for ph in PHASES)
            if span.startswith("translate."):
                m[f"{span}.self_s"] = sum(spans[ph][span][2] for ph in PHASES)
        for counter in COUNTERS.get(span, ()):
            m[f"{span}.{counter}"] = counts[f"{span}.{counter}"]
    states_in = counts["pga.trim.states_in"]
    m["pga.trim.kept_ratio"] = counts["pga.trim.states_out"] / states_in if states_in else 1.0
    for ph, listed in SHARES.items():
        shares = {span: spans[ph][span][2] / totals[ph] for span in listed}
        shares["other"] = 1.0 - sum(shares.values())
        m.update((f"share.{ph}.{span}", share) for span, share in shares.items())
    return m


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check(redip, cases: list[Case], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Attempted and failed case runs, with a description of each failure.

    The first pass is checked against the references; every later pass,
    traced or not, must reproduce the first pass's outcomes exactly.
    """
    first = passes[0].outcomes
    wrong: dict[int, str] = {}
    for i, (case, outcome) in enumerate(zip(cases, first)):
        if isinstance(outcome, str):
            wrong[i] = f"{case.name} raised:\n{outcome}"
        else:
            errors = mismatches(redip, case, outcome)
            if errors:
                wrong[i] = f"{case.name}: " + "; ".join(errors)
    attempted = failed = 0
    notes = list(wrong.values())
    for n, p in enumerate(passes):
        for i, outcome in enumerate(p.outcomes):
            attempted += 1
            if i in wrong:
                failed += 1
            elif outcome != first[i]:
                failed += 1
                notes.append(f"pass {n}: {cases[i].name} differs from the first pass")
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # free the previous import, so it does not add to peak memory
        t0 = perf_counter()
        redip, cases = setup(workload, seed)
        setup_times.append(perf_counter() - t0)

    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(run_pass(redip, cases))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(redip, cases, tracer)
            finally:
                tracer.remove()
            p.layers = layer_metrics(tracer, p)
            traced.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, notes = check(redip, cases, plain + traced)
    latencies = [t * 1e3 for t in case_medians(plain, ("infer_s", "query_s"))]
    first = [o for o in plain[0].outcomes if isinstance(o, Outcome)]
    if trace:
        metrics = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        both = ("infer_s", "query_s")
        metrics["trace.overhead_s"] = sum(case_medians(traced, both)) - sum(
            case_medians(plain, both)
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "infer_s": sum(case_medians(plain, ("infer_s",))),
            "query_s": sum(case_medians(plain, ("query_s",))),
            "program_p50_ms": statistics.median(latencies),
            "program_p95_ms": percentile(latencies, 0.95),
            "peak_rss_mb": peak_rss_mb,
            "posterior_states": sum(o.states for o in first),
            "posterior_edges": sum(o.edges for o in first),
        }
        units = END_TO_END
    return {
        "notes": notes,
        "summary": {
            "programs": len(cases),
            "passes": len(plain),
            "traced_passes": len(traced),
            "failed_frac": failed / attempted,
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def report(workload: str, out: dict) -> None:
    """Human-readable lines; the result's JSON line is printed separately."""
    for note in out["notes"][:20]:
        print(f"FAILED {note[:400]}")
    s = out["summary"]
    print(
        f"{workload}: {s['programs']} programs, {s['passes']} passes "
        f"({s['traced_passes']} traced), failed_frac {s['failed_frac']:.6g}; "
        f"program percentiles are over the {s['programs']} programs' median latencies"
    )
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process, so that peak memory
    and imports stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 2
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "redip" / "__init__.py").is_file():
        print(f"redip sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, out)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
