"""Shared randomized generators for the test suite.

Everything takes an explicit random.Random so corpora are reproducible; the
acceptance tests fix their seeds. These build plain package objects and know
nothing about expected values.
"""

from __future__ import annotations

import random
from fractions import Fraction

from redip import (
    And,
    Bernoulli,
    Binomial,
    Choice,
    Decrement,
    Dirac,
    Edge,
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
    Pga,
    Seq,
    SetZero,
    Uniform,
    make_pga,
)
from redip.guards import Guard
from redip.lang import Program
from redip.oracle import prior_support
from redip.pga import trim

WEIGHTS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)]
PROBS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(9, 10)]


def rand_pga(
    rng: random.Random,
    alphabet: tuple[str, ...] = ("x", "y"),
    max_states: int = 4,
    acyclic: bool = False,
    label_prob: float = 0.6,
    edge_density: float = 0.5,
) -> Pga:
    """Random weighted automaton; acyclic=True restricts edges to src < dst."""
    n = rng.randint(1, max_states)
    edges = []
    for src in range(n):
        for dst in range(n):
            if acyclic and src >= dst:
                continue
            if rng.random() >= edge_density:
                continue
            symbol = rng.choice(alphabet) if rng.random() < label_prob else None
            edges.append(Edge(src, dst, rng.choice(WEIGHTS), symbol))
    initial = {0: rng.choice(WEIGHTS)}
    if n > 1 and rng.random() < 0.3:
        initial[rng.randrange(1, n)] = rng.choice(WEIGHTS)
    final = {rng.randrange(n): rng.choice(WEIGHTS)}
    if rng.random() < 0.3:
        final[rng.randrange(n)] = rng.choice(WEIGHTS)
    return make_pga(alphabet, n, edges, initial, final)


def rand_useful_pga(rng: random.Random, **kw) -> Pga:
    """Random automaton that survives trimming with at least one final state."""
    while True:
        a = trim(rand_pga(rng, **kw))
        if a.final:
            return a


def rand_guard(rng: random.Random, alphabet: tuple[str, ...], depth: int = 3, max_const: int = 4) -> Guard:
    if depth <= 0 or rng.random() < 0.4:
        var = rng.choice(alphabet)
        if rng.random() < 0.7:
            return LessThan(var, rng.randint(0, max_const))
        modulus = rng.randint(1, max_const)
        return ModEq(var, modulus, rng.randrange(modulus))
    if rng.random() < 0.5:
        return And(
            rand_guard(rng, alphabet, depth - 1, max_const),
            rand_guard(rng, alphabet, depth - 1, max_const),
        )
    inner = rand_guard(rng, alphabet, depth - 1, max_const)
    return inner.inner if isinstance(inner, Not) else Not(inner)


def rand_dist(rng: random.Random, max_const: int = 3):
    kind = rng.randrange(6)
    if kind == 0:
        return Geometric(rng.choice(PROBS))
    if kind == 1:
        return Bernoulli(rng.choice(PROBS))
    if kind == 2:
        return Dirac(rng.randint(0, max_const))
    if kind == 3:
        return Uniform(rng.randint(1, max_const))
    if kind == 4:
        return Binomial(rng.randint(0, max_const), rng.choice(PROBS))
    return NegBinomial(rng.randint(0, max_const), rng.choice(PROBS))


def rand_program(
    rng: random.Random,
    alphabet: tuple[str, ...] = ("x", "y"),
    size: int = 8,
    max_const: int = 3,
) -> Program:
    """Random iid-free core program of exactly the requested size."""

    def base() -> Program:
        var = rng.choice(alphabet)
        kind = rng.randrange(7)
        if kind == 0:
            return SetZero(var)
        if kind == 1:
            return IncrConst(var, rng.randint(0, max_const))
        if kind == 2:
            return IncrDist(var, rand_dist(rng, max_const))
        if kind == 3:
            return IncrVar(var, rng.choice(alphabet))
        if kind == 4:
            return Decrement(var)
        if kind == 5:
            return Observe(rand_guard(rng, alphabet, depth=2, max_const=max_const))
        return IncrConst(var, rng.randint(0, max_const))

    def build(budget: int) -> Program:
        if budget <= 1:
            return base()
        # split into a branch pair or a sequence
        if budget >= 3 and rng.random() < 0.3:
            left_budget = rng.randint(1, budget - 2)
            left = build(left_budget)
            right = build(budget - 1 - left_budget)
            if rng.random() < 0.5:
                return Choice(left, rng.choice(PROBS), right)
            guard = rand_guard(rng, alphabet, depth=2, max_const=max_const)
            return IfElse(guard, left, right)
        first_budget = rng.randint(1, budget - 1)
        return Seq(build(first_budget), build(budget - first_budget))

    return build(size)


def series_of(a: Pga) -> dict[tuple[int, ...], Fraction]:
    """Full behavior of an acyclic automaton as {count tuple: coefficient},
    by exact propagation along the edges, with no linear solve. The
    independent oracle for constructions."""
    return {k: v for k, v in prior_support(a) if v != 0}
