#!/usr/bin/env python3
"""Random differential testing: translate random core programs to automata
and check every coefficient against the step-by-step interpreter's
truncation bracket. Any mismatch is printed with the offending program.

Each posterior is checked too: `translate` reduces the automaton after each
step, so the posterior's coefficient table must equal the table of the
normalized raw translation, run with the reduction switched off, on the
oracle's box (every variable up to the largest count the truncated
enumeration reached). The runner counts the programs in which some step
shrank.

    PYTHONPATH=src python3 scripts/differential_runner.py --programs 500 --seed 7

The programs are source text from the benchmark's generator
(`perfbench/corpus.py`), so the runner and the benchmark share one grammar.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of compiled files
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (the benchmark's generator, imported read-only)
from redip import InfeasibleObservation, coefficient_table, infer, parse_program, translate  # noqa: E402
from redip.analysis import normalize  # noqa: E402
from redip.oracle import compare, enumerate_program  # noqa: E402


@contextmanager
def unreduced():
    """Translate without the reduction each step runs: `_reduced` becomes the identity."""
    module = sys.modules["redip.translate"]  # `redip.translate` names the function
    reduce, module._reduced = module._reduced, lambda a: a
    try:
        yield
    finally:
        module._reduced = reduce


def posterior_check(p, truncation: int) -> tuple[bool, list[str]]:
    """Whether some step of `p`'s translation shrank, and how the posterior's
    coefficient table on the oracle's box differs from that of the normalized
    raw translation."""
    try:
        result = infer(p)
    except InfeasibleObservation:
        return False, []
    with unreduced():
        raw = translate(p)
    terminal = enumerate_program(p, result.alphabet, truncation).terminal
    box = {v: max((sig[i] for sig in terminal), default=0) for i, v in enumerate(result.alphabet)}
    got, want = coefficient_table(result.posterior, box), coefficient_table(normalize(raw.automaton), box)
    diffs = [f"posterior coefficient {key}: {got[key]}, raw {want[key]}" for key in want if got[key] != want[key]]
    if got.total != want.total:
        diffs.append(f"posterior mass {got.total}, raw {want.total}")
    return any(s.states < r.states for s, r in zip(result.steps, raw.steps)), diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", type=int, default=200)
    ap.add_argument("--truncation", type=int, default=60)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    failures = 0
    finite_support = 0
    worst_residual = Fraction(0)
    peak_size = 0
    reduced = 0
    for i in range(args.programs):
        source, _ = corpus.random_program(rng)
        p = parse_program(source)
        res = compare(p, truncation=args.truncation)
        tr = translate(p)
        if tr.steps:
            peak_size = max(peak_size, max(s.pre_trim_size for s in tr.steps))
        if res.residual == 0:
            finite_support += 1
        worst_residual = max(worst_residual, res.residual)
        shrunk, diffs = posterior_check(p, args.truncation)
        reduced += shrunk
        if not res.ok or diffs:
            failures += 1
            print(f"MISMATCH in program {i} (worst discrepancy {res.worst_discrepancy}):")
            print("  " + source)
            for line in (res.mismatches + diffs)[:5]:
                print("  " + line)

    elapsed = time.time() - t0
    print(f"{args.programs} programs in {elapsed:.1f}s "
          f"(size <= {corpus.SIZE}, truncation {args.truncation}, seed {args.seed})")
    print(f"finite support: {finite_support}, rest bracketed "
          f"with residual <= {float(worst_residual):.3g}")
    print(f"largest intermediate automaton: {peak_size} transitions")
    print(f"programs with a reduced step: {reduced}; every posterior's table was compared with the raw one's")
    print("FAIL" if failures else "OK: translation and interpreter agree everywhere")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
