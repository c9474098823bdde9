"""Program laws: two programs with the same semantics get `==` answers.

The translation is sound against the operational semantics, so rewriting a
statement into an equivalent one inside any context must leave the
normalizing constant and every posterior marginal exactly equal. Each law
is checked inside seeded random contexts `C; lhs; D` against `C; rhs; D`,
and the two sides of most laws go through different constructions, so a
construction that is off breaks the equality. Geo-chain at k=14 is checked
three ways at the size the benchmark runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from conftest import PROBS, rand_guard, rand_program, rand_useful_pga

from redip import (
    And,
    Bernoulli,
    Binomial,
    Choice,
    Custom,
    Geometric,
    IfElse,
    IncrConst,
    IncrDist,
    NegBinomial,
    Not,
    Observe,
    Seq,
    infer,
    marginal,
    mass,
    parse_program,
    save_pga,
)
from redip.analysis import normalize
from redip.errors import InfeasibleObservation
from redip.linsolve import strongly_connected_components
from redip.rational import is_finite

ALPHABET = ("x", "y")
FEASIBLE = 30  # contexts per law in which some run survives
MAX_CONTEXTS = 200
UPTO = 4


def answers(program, prior=None):
    """z and every posterior marginal up to UPTO, or None when every run
    violates an observation."""
    try:
        r = infer(program, prior)
    except InfeasibleObservation:
        return None
    return r.normalizing_constant, {v: marginal(r.posterior, v, UPTO) for v in r.alphabet}


def repeat(stmt, times):
    return reduce(Seq, [stmt] * times)


def geometric_chain(rng):
    var, p, k = rng.choice(ALPHABET), rng.choice(PROBS), rng.randint(1, 3)
    return repeat(IncrDist(var, Geometric(p)), k), IncrDist(var, NegBinomial(k, p))


def bernoulli_chain(rng):
    var, p, n = rng.choice(ALPHABET), rng.choice(PROBS), rng.randint(1, 3)
    return repeat(IncrDist(var, Bernoulli(p)), n), IncrDist(var, Binomial(n, p))


def bernoulli_as_choice(rng):
    var, p = rng.choice(ALPHABET), rng.choice(PROBS)
    return IncrDist(var, Bernoulli(p)), Choice(IncrConst(var, 1), p, IncrConst(var, 0))


def swapped_choice(rng):
    left, right, p = rand_program(rng, size=3), rand_program(rng, size=3), rng.choice(PROBS)
    return Choice(left, p, right), Choice(right, 1 - p, left)


def negated_if(rng):
    g = rand_guard(rng, ALPHABET, depth=2, max_const=3)
    then, other = rand_program(rng, size=3), rand_program(rng, size=3)
    return IfElse(g, then, other), IfElse(Not(g), other, then)


def merged_observes(rng):
    g1, g2 = (rand_guard(rng, ALPHABET, depth=2, max_const=3) for _ in range(2))
    return Seq(Observe(g1), Observe(g2)), Observe(And(g1, g2))


LAWS = [geometric_chain, bernoulli_chain, bernoulli_as_choice, swapped_choice, negated_if,
        merged_observes]


@pytest.mark.parametrize("law", LAWS, ids=[law.__name__ for law in LAWS])
def test_law_holds_in_random_contexts(law):
    """Contexts are drawn until FEASIBLE of them leave some run alive; the
    infeasible ones met on the way must be infeasible on both sides."""
    rng = random.Random(law.__name__)
    feasible = 0
    for _ in range(MAX_CONTEXTS):
        before, after = rand_program(rng, size=3), rand_program(rng, size=3)
        lhs, rhs = law(rng)
        expected = answers(Seq(Seq(before, lhs), after))
        assert answers(Seq(Seq(before, rhs), after)) == expected
        feasible += expected is not None
        if feasible == FEASIBLE:
            return
    pytest.fail(f"only {feasible} of {MAX_CONTEXTS} contexts are feasible")


def cyclic_prior(rng):
    """A random one-variable automaton of mass exactly 1 with a cycle."""
    while True:
        a = rand_useful_pga(rng, alphabet=("x",), max_states=3)
        succ = [[e.dst for e in a.edges if e.src == q] for q in range(a.num_states)]
        cyclic = any(len(c) > 1 or c[0] in succ[c[0]]
                     for c in strongly_connected_components(a.num_states, succ))
        m = mass(a)
        if cyclic and is_finite(m) and m:
            return normalize(a)


def test_a_prior_is_a_custom_prefix(tmp_path):
    """infer(Q, prior=A) equals infer(x += custom(A); Q) for a cyclic A of
    mass 1: the one check of a cyclic prior against another route."""
    rng = random.Random("prior")
    feasible = 0
    for i in range(MAX_CONTEXTS):
        prior = cyclic_prior(rng)
        path = tmp_path / f"prior{i}.json"
        save_pga(prior, str(path))
        q = rand_program(rng, size=4)
        expected = answers(q, prior)
        assert answers(Seq(IncrDist("x", Custom(str(path))), q)) == expected
        feasible += expected is not None
        if feasible == FEASIBLE:
            return
    pytest.fail(f"only {feasible} of {MAX_CONTEXTS} contexts are feasible")


def test_geo_chain_three_ways():
    """Geo-chain at k=14 as k chained geometrics, as one negbinomial(k, 1/2),
    and with its two observes merged into one: equal z, equal y-marginals up
    to 3k - 1, and z is the closed form."""
    k = 14
    chain = ["x += geometric(1/2)"] * k
    tail = [f"observe(x < {3 * k})", "y += x", "observe(y % 5 == 2)"]
    sources = [
        chain + tail,
        [f"x += negbinomial({k}, 1/2)"] + tail,
        chain + ["y += x", f"observe(x < {3 * k} and y % 5 == 2)"],
    ]
    results = []
    for lines in sources:
        r = infer(parse_program(";\n".join(lines)))
        results.append((r.normalizing_constant, marginal(r.posterior, "y", 3 * k - 1)))
    z = sum(Fraction(comb(j + k - 1, j), 2 ** (j + k)) for j in range(3 * k) if j % 5 == 2)
    assert results[0][0] == z
    assert results[1] == results[0] and results[2] == results[0]
