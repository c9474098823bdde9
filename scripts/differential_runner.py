#!/usr/bin/env python3
"""Random differential testing: translate random core programs to automata
and check every coefficient against the step-by-step interpreter's
truncation bracket. Any mismatch is printed with the offending program.

    PYTHONPATH=src python3 scripts/differential_runner.py --programs 500 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from redip import (
    And,
    Bernoulli,
    Binomial,
    Choice,
    Decrement,
    Dirac,
    Geometric,
    IfElse,
    IncrConst,
    IncrDist,
    IncrVar,
    LessThan,
    ModEq,
    NegBinomial,
    Not,
    Observe,
    Seq,
    SetZero,
    Uniform,
    translate,
)
from redip.lang import program_to_text
from redip.oracle import compare

PROBS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(9, 10)]


@dataclass(frozen=True)
class RunConfig:
    programs: int = 200
    size: int = 8  # statement-count budget per program
    max_const: int = 3
    truncation: int = 60
    seed: int = 2024
    alphabet: tuple[str, ...] = ("x", "y")


# ----- program generation (mirrors the generator the test suite uses)


def rand_guard(rng: random.Random, cfg: RunConfig, depth: int = 2):
    if depth <= 0 or rng.random() < 0.4:
        var = rng.choice(cfg.alphabet)
        if rng.random() < 0.7:
            return LessThan(var, rng.randint(0, cfg.max_const))
        modulus = rng.randint(1, cfg.max_const)
        return ModEq(var, modulus, rng.randrange(modulus))
    if rng.random() < 0.5:
        return And(rand_guard(rng, cfg, depth - 1), rand_guard(rng, cfg, depth - 1))
    inner = rand_guard(rng, cfg, depth - 1)
    return inner.inner if isinstance(inner, Not) else Not(inner)


def rand_dist(rng: random.Random, cfg: RunConfig):
    kind = rng.randrange(6)
    if kind == 0:
        return Geometric(rng.choice(PROBS))
    if kind == 1:
        return Bernoulli(rng.choice(PROBS))
    if kind == 2:
        return Dirac(rng.randint(0, cfg.max_const))
    if kind == 3:
        return Uniform(rng.randint(1, cfg.max_const))
    if kind == 4:
        return Binomial(rng.randint(0, cfg.max_const), rng.choice(PROBS))
    return NegBinomial(rng.randint(0, cfg.max_const), rng.choice(PROBS))


def rand_program(rng: random.Random, cfg: RunConfig, budget: int):
    if budget <= 1:
        var = rng.choice(cfg.alphabet)
        kind = rng.randrange(7)
        if kind == 0:
            return SetZero(var)
        if kind == 1 or kind == 6:
            return IncrConst(var, rng.randint(0, cfg.max_const))
        if kind == 2:
            return IncrDist(var, rand_dist(rng, cfg))
        if kind == 3:
            return IncrVar(var, rng.choice(cfg.alphabet))
        if kind == 4:
            return Decrement(var)
        return Observe(rand_guard(rng, cfg))
    if budget >= 3 and rng.random() < 0.3:
        left_budget = rng.randint(1, budget - 2)
        left = rand_program(rng, cfg, left_budget)
        right = rand_program(rng, cfg, budget - 1 - left_budget)
        if rng.random() < 0.5:
            return Choice(left, rng.choice(PROBS), right)
        return IfElse(rand_guard(rng, cfg), left, right)
    first_budget = rng.randint(1, budget - 1)
    return Seq(rand_program(rng, cfg, first_budget), rand_program(rng, cfg, budget - first_budget))


# ----- the run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", type=int, default=RunConfig.programs)
    ap.add_argument("--size", type=int, default=RunConfig.size)
    ap.add_argument("--max-const", type=int, default=RunConfig.max_const)
    ap.add_argument("--truncation", type=int, default=RunConfig.truncation)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    args = ap.parse_args()
    cfg = RunConfig(args.programs, args.size, args.max_const, args.truncation, args.seed)

    rng = random.Random(cfg.seed)
    t0 = time.time()
    failures = 0
    finite_support = 0
    worst_residual = Fraction(0)
    peak_size = 0
    for i in range(cfg.programs):
        p = rand_program(rng, cfg, rng.randint(1, cfg.size))
        res = compare(p, truncation=cfg.truncation)
        tr = translate(p)
        if tr.steps:
            peak_size = max(peak_size, max(s.pre_trim_size for s in tr.steps))
        if res.residual == 0:
            finite_support += 1
        worst_residual = max(worst_residual, res.residual)
        if not res.ok:
            failures += 1
            print(f"MISMATCH in program {i} (worst discrepancy {res.worst_discrepancy}):")
            print("  " + program_to_text(p).replace("\n", "\n  "))
            for line in res.mismatches[:5]:
                print("  " + line)

    elapsed = time.time() - t0
    print(f"{cfg.programs} programs in {elapsed:.1f}s "
          f"(size <= {cfg.size}, truncation {cfg.truncation}, seed {cfg.seed})")
    print(f"finite support: {finite_support}, rest bracketed "
          f"with residual <= {float(worst_residual):.3g}")
    print(f"largest intermediate automaton: {peak_size} transitions")
    print("FAIL" if failures else "OK: translation and interpreter agree everywhere")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
