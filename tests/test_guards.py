"""Guard predicates and their deterministic counting automata.

The load-bearing property here is modeling: running a word through the
DFA of a guard accepts exactly when the word's letter counts satisfy
the guard as a predicate on valuations.
"""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from redip import (
    And,
    LessThan,
    ModEq,
    Not,
    build_guard_dfa,
    guard_satisfies,
    guard_size,
)
from redip.errors import GuardConstraintError, UnknownVariable
from redip.guards import (
    compare_guard,
    dfa_complement,
    dfa_less_than,
    dfa_mod,
    dfa_product,
    equality_guard,
    guard_negate,
    guard_vars,
)

from conftest import rand_guard

ALPHA = ("x", "y")


def dfa_accepts(d, word):
    """Run a word through the DFA from its initial state."""
    q = d.initial
    for sym in word:
        q = d.delta[sym][q]
    return q in d.accepting


def parikh(word):
    """Letter counts of a word, as a valuation."""
    return dict(Counter(word))


# words stay short: counts above any bound in play are reached anyway
words = st.lists(st.sampled_from(ALPHA), max_size=12)


def guards(max_depth=3):
    atom = st.one_of(
        st.builds(LessThan, st.sampled_from(ALPHA), st.integers(0, 4)),
        st.builds(
            lambda v, m, r: ModEq(v, m, r % m),
            st.sampled_from(ALPHA),
            st.integers(1, 4),
            st.integers(0, 3),
        ),
    )
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=2 ** max_depth,
    )


# ----- predicate side


def test_guard_satisfies_atoms():
    assert guard_satisfies({"x": 2}, LessThan("x", 3))
    assert not guard_satisfies({"x": 3}, LessThan("x", 3))
    assert not guard_satisfies({}, LessThan("x", 0))  # nothing is below zero
    assert guard_satisfies({"x": 7}, ModEq("x", 3, 1))
    assert not guard_satisfies({"x": 7}, ModEq("x", 3, 0))
    assert guard_satisfies({}, ModEq("x", 2, 0))  # missing vars read as 0


def test_guard_satisfies_combinators():
    g = And(LessThan("x", 2), Not(LessThan("y", 1)))
    assert guard_satisfies({"x": 1, "y": 3}, g)
    assert not guard_satisfies({"x": 1, "y": 0}, g)
    assert not guard_satisfies({"x": 2, "y": 3}, g)


def test_guard_constructors_validate():
    with pytest.raises(GuardConstraintError):
        LessThan("x", -1)
    with pytest.raises(GuardConstraintError):
        LessThan("", 1)
    with pytest.raises(GuardConstraintError):
        ModEq("x", 2, 2)  # residue must stay below the modulus
    with pytest.raises(GuardConstraintError):
        ModEq("x", 2, -1)


def test_guard_size_and_vars():
    g = And(LessThan("x", 2), Not(ModEq("y", 2, 0)))
    assert guard_size(g) == 2
    assert guard_vars(g) == ("x", "y")


def test_guard_negate_collapses_double_negation():
    g = LessThan("x", 1)
    assert guard_negate(g) == Not(g)
    assert guard_negate(Not(g)) == g


# ----- single-atom automata


def test_dfa_less_than_shape():
    d = dfa_less_than("x", 2, ALPHA)
    assert d.num_states == 3
    assert d.initial == 0
    assert d.accepting == frozenset({0, 1})
    assert d.delta["x"][0] == 1
    assert d.delta["x"][1] == 2
    assert d.delta["x"][2] == 2  # saturating sink
    assert d.delta["y"][0] == 0


def test_dfa_less_than_zero_is_rejecting_sink():
    d = dfa_less_than("x", 0, ALPHA)
    assert d.num_states == 1
    assert d.accepting == frozenset()


def test_dfa_mod_shape():
    d = dfa_mod("x", 3, 2, ALPHA)
    assert d.num_states == 3
    assert d.accepting == frozenset({2})
    assert d.delta["x"][2] == 0
    assert not dfa_accepts(d, ["x", "x", "x"])
    assert dfa_accepts(d, ["x", "y", "x"])


def test_parikh():
    assert parikh(["x", "y", "x"]) == {"x": 2, "y": 1}
    assert parikh([]) == {}


# ----- modeling property


@settings(max_examples=300, deadline=None)
@given(guards(), words)
def test_dfa_models_guard(g, word):
    d = build_guard_dfa(g, ALPHA)
    assert dfa_accepts(d, word) == guard_satisfies(parikh(word), g)


@settings(max_examples=150, deadline=None)
@given(guards(), words)
def test_complement_flips_acceptance(g, word):
    d = build_guard_dfa(g, ALPHA)
    assert dfa_accepts(dfa_complement(d), word) != dfa_accepts(d, word)


@settings(max_examples=150, deadline=None)
@given(guards(max_depth=2), guards(max_depth=2), words)
def test_product_is_conjunction(g1, g2, word):
    d = dfa_product(build_guard_dfa(g1, ALPHA), build_guard_dfa(g2, ALPHA))
    assert dfa_accepts(d, word) == (
        guard_satisfies(parikh(word), g1) and guard_satisfies(parikh(word), g2)
    )


@settings(max_examples=200, deadline=None)
@given(words)
def test_permutation_invariance(word):
    """Guard DFAs only count letters, so any reordering of a word agrees."""
    rng = random.Random(13)
    g = rand_guard(rng, ALPHA)
    d = build_guard_dfa(g, ALPHA)
    shuffled = list(word)
    rng.shuffle(shuffled)
    assert dfa_accepts(d, word) == dfa_accepts(d, shuffled)


def test_every_dfa_has_one_complete_table_per_letter():
    """Totality is the tables' shape: one table per alphabet letter, each with
    a successor in range for every state. The complement shares the tables."""
    rng = random.Random(808)
    for _ in range(200):
        d = build_guard_dfa(rand_guard(rng, ALPHA), ALPHA)
        assert list(d.delta) == list(ALPHA)
        for table in d.delta.values():
            assert len(table) == d.num_states
            assert all(0 <= t < d.num_states for t in table)
        c = dfa_complement(d)
        assert all(c.delta[v] is d.delta[v] for v in ALPHA)


def test_random_guard_generator_agrees_with_dfa():
    rng = random.Random(515)
    for _ in range(100):
        g = rand_guard(rng, ALPHA)
        d = build_guard_dfa(g, ALPHA)
        word = [rng.choice(ALPHA) for _ in range(rng.randrange(8))]
        assert dfa_accepts(d, word) == guard_satisfies(parikh(word), g)


# ----- equality guards


def test_equality_guard_pins_every_variable():
    g = equality_guard({"x": 2}, ALPHA)
    assert guard_satisfies({"x": 2, "y": 0}, g)
    assert not guard_satisfies({"x": 2, "y": 1}, g)
    assert not guard_satisfies({"x": 1, "y": 0}, g)
    assert not guard_satisfies({"x": 3, "y": 0}, g)


def test_equality_guard_rejects_negative():
    with pytest.raises(GuardConstraintError):
        equality_guard({"x": -2}, ALPHA)


def test_equality_guard_refuses_the_empty_alphabet():
    with pytest.raises(GuardConstraintError, match="alphabet is empty"):
        equality_guard({}, ())


OPERATORS = {
    "<": lambda v, n: v < n,
    "<=": lambda v, n: v <= n,
    ">": lambda v, n: v > n,
    ">=": lambda v, n: v >= n,
    "==": lambda v, n: v == n,
    "!=": lambda v, n: v != n,
}


@pytest.mark.parametrize("op", OPERATORS)
def test_compare_guard_agrees_with_arithmetic(op):
    for n in range(4):
        g = compare_guard("x", op, n)
        for v in range(n + 3):
            assert guard_satisfies({"x": v}, g) == OPERATORS[op](v, n), (op, n, v)


@pytest.mark.parametrize("alphabet", [("x",), ("x", "y"), ("y", "x", "z")])
def test_equality_at_zero_compiles_to_the_threshold_dfa(alphabet):
    # x == 0 is `x < 1 and not x < 0`; its DFA equals the one of `x < 1`
    eq = build_guard_dfa(compare_guard("x", "==", 0), alphabet)
    assert eq == build_guard_dfa(LessThan("x", 1), alphabet)


def test_build_guard_dfa_requires_known_vars():
    with pytest.raises(UnknownVariable):
        build_guard_dfa(LessThan("z", 1), ALPHA)


@pytest.mark.parametrize("guard", [LessThan("x", sys.maxsize), ModEq("y", sys.maxsize + 1, 3),
                                   Not(LessThan("x", 10**23))])
def test_build_guard_dfa_refuses_a_counter_past_maxsize(guard):
    """A counter with more than sys.maxsize states cannot be built as a
    table: it is refused by name instead of overflowing."""
    with pytest.raises(GuardConstraintError, match=r"needs \d+ states"):
        build_guard_dfa(guard, ALPHA)
