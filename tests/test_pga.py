"""Automaton core: construction, canonical form, trimming, acyclicity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from redip import (
    Edge,
    InvalidAutomaton,
    InvalidWeight,
    make_pga,
    trim,
    unit_pga,
)
from redip.pga import extend_alphabet, is_acyclic, rename_variable

from conftest import rand_pga, series_of

H = Fraction(1, 2)


# ----- construction and canonical form


def test_make_pga_basic():
    a = make_pga(
        ("x",),
        2,
        [Edge(0, 1, H, "x")],
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    assert a.num_states == 2
    assert a.alphabet == ("x",)
    assert a.edges == (Edge(0, 1, H, "x"),)
    assert a.initial == {0: Fraction(1)}
    assert a.final == {1: Fraction(1)}


def test_make_pga_merges_parallel_edges():
    """Duplicate (src, dst, symbol) triples collapse into one summed edge."""
    a = make_pga(
        ("x",),
        2,
        [Edge(0, 1, Fraction(1, 3), "x"), Edge(0, 1, Fraction(1, 6), "x")],
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    assert a.edges == (Edge(0, 1, H, "x"),)


def test_make_pga_keeps_distinct_symbols_apart():
    a = make_pga(
        ("x", "y"),
        2,
        [
            Edge(0, 1, Fraction(1, 3), "x"),
            Edge(0, 1, Fraction(1, 3), "y"),
            Edge(0, 1, Fraction(1, 3), None),
        ],
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    assert len(a.edges) == 3


def test_make_pga_drops_zero_weights():
    a = make_pga(
        ("x",),
        2,
        [Edge(0, 1, Fraction(0), "x"), Edge(0, 1, H, None)],
        {0: Fraction(1), 1: Fraction(0)},
        {1: Fraction(1), 0: Fraction(0)},
    )
    assert a.edges == (Edge(0, 1, H, None),)
    assert a.initial == {0: Fraction(1)}
    assert a.final == {1: Fraction(1)}


def test_make_pga_sorts_edges():
    # unlabeled sorts before labeled on the same (src, dst) pair
    a = make_pga(
        ("x", "y"),
        3,
        [
            Edge(1, 2, H, "y"),
            Edge(0, 1, H, "x"),
            Edge(0, 1, H, None),
            Edge(0, 2, H, "x"),
        ],
        {0: Fraction(1)},
        {2: Fraction(1)},
    )
    assert a.edges == (
        Edge(0, 1, H, None),
        Edge(0, 1, H, "x"),
        Edge(0, 2, H, "x"),
        Edge(1, 2, H, "y"),
    )


def test_make_pga_rejects_negative_weight():
    with pytest.raises(InvalidWeight):
        make_pga(("x",), 1, [Edge(0, 0, Fraction(-1, 2), "x")], {0: Fraction(1)}, {0: Fraction(1)})
    with pytest.raises(InvalidWeight):
        make_pga(("x",), 1, [], {0: Fraction(-1)}, {0: Fraction(1)})


def test_make_pga_rejects_bool_weight():
    with pytest.raises(InvalidWeight):
        make_pga(("x",), 1, [Edge(0, 0, True, "x")], {0: Fraction(1)}, {0: Fraction(1)})


def test_make_pga_rejects_bad_states_and_symbols():
    with pytest.raises(InvalidAutomaton):
        make_pga(("x",), 1, [Edge(0, 1, H, "x")], {0: Fraction(1)}, {0: Fraction(1)})
    with pytest.raises(InvalidAutomaton):
        make_pga(("x",), 1, [Edge(0, 0, H, "z")], {0: Fraction(1)}, {0: Fraction(1)})
    with pytest.raises(InvalidAutomaton):
        make_pga(("x",), 1, [], {7: Fraction(1)}, {0: Fraction(1)})
    with pytest.raises(InvalidAutomaton):
        make_pga(("x", "x"), 1, [], {0: Fraction(1)}, {0: Fraction(1)})


def test_unit_pga():
    a = unit_pga(("x", "y"))
    assert a.num_states == 1
    assert a.edges == ()
    assert a.initial == {0: Fraction(1)}
    assert a.final == {0: Fraction(1)}


# ----- alphabet surgery


def test_rename_variable():
    a = make_pga(("x",), 2, [Edge(0, 1, H, "x")], {0: Fraction(1)}, {1: Fraction(1)})
    b = rename_variable(a, "x", "y")
    assert b.alphabet == ("y",)
    assert b.edges == (Edge(0, 1, H, "y"),)


def test_rename_variable_rejects_collision_and_unknown():
    a = make_pga(
        ("x", "y"), 1, [Edge(0, 0, H, "x")], {0: Fraction(1)}, {0: Fraction(1)}
    )
    with pytest.raises(InvalidAutomaton):
        rename_variable(a, "x", "y")
    with pytest.raises(InvalidAutomaton):
        rename_variable(a, "z", "w")


def test_extend_alphabet_is_order_preserving_superset():
    a = make_pga(("y",), 1, [Edge(0, 0, H, "y")], {0: Fraction(1)}, {0: Fraction(1)})
    b = extend_alphabet(a, ("x", "y", "z"))
    assert b.alphabet == ("x", "y", "z")
    assert b.edges == (Edge(0, 0, H, "y"),)
    with pytest.raises(InvalidAutomaton):
        extend_alphabet(a, ("x", "z"))  # drops y


# ----- trimming


def test_trim_removes_unreachable_and_dead_states():
    a = make_pga(
        ("x",),
        4,
        [
            Edge(0, 1, H, "x"),
            Edge(1, 1, Fraction(1, 3), None),
            Edge(2, 1, H, "x"),  # state 2 unreachable
            Edge(0, 3, H, "x"),  # state 3 cannot accept
        ],
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    t = trim(a)
    assert t.num_states == 2
    # renumbering keeps the sorted order of surviving original states
    assert t.initial == {0: Fraction(1)}
    assert t.final == {1: Fraction(1)}
    assert t.edges == (Edge(0, 1, H, "x"), Edge(1, 1, Fraction(1, 3), None))


def test_trim_zero_behavior_collapses_to_single_state():
    a = make_pga(("x",), 2, [Edge(0, 1, H, "x")], {0: Fraction(1)}, {})
    t = trim(a)
    assert t.num_states == 1
    assert t.edges == ()
    assert t.initial == {0: Fraction(1)}
    assert t.final == {}


def test_trim_no_initial_states_is_zero():
    a = make_pga(("x",), 2, [Edge(0, 1, H, "x")], {}, {1: Fraction(1)})
    t = trim(a)
    assert t.final == {}
    assert t.num_states == 1


def test_trim_is_idempotent_on_random_automata():
    import random

    rng = random.Random(20260817)
    for _ in range(50):
        a = rand_pga(rng)
        t = trim(a)
        assert trim(t) == t


def test_trim_returns_a_trimmed_automaton_itself():
    a = make_pga(
        ("x",),
        3,
        [Edge(0, 1, H, "x"), Edge(1, 1, H, None), Edge(2, 1, H, "x")],  # 2 unreachable
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    t = trim(a)
    assert t.num_states == 2
    assert trim(t) is t


# ----- acyclicity


def geometric_loop():
    # (1/2) acceptance at state 0, (1/2) x-labeled self loop
    return make_pga(
        ("x",),
        1,
        [Edge(0, 0, H, "x")],
        {0: Fraction(1)},
        {0: H},
    )


def test_is_acyclic():
    assert not is_acyclic(geometric_loop())
    chain = make_pga(
        ("x",), 3, [Edge(0, 1, H, "x"), Edge(1, 2, H, None)], {0: Fraction(1)}, {2: Fraction(1)}
    )
    assert is_acyclic(chain)


@given(st.integers(0, 10 ** 6))
def test_random_acyclic_flag_is_honest(seed):
    import random

    rng = random.Random(seed)
    a = rand_pga(rng, acyclic=True)
    assert is_acyclic(a)


def test_series_of_matches_hand_sum():
    # two parallel routes to the same count land in one coefficient
    a = make_pga(
        ("x",),
        3,
        [
            Edge(0, 1, Fraction(1, 3), "x"),
            Edge(0, 2, Fraction(1, 4), "x"),
        ],
        {0: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
    )
    assert series_of(a) == {(1,): Fraction(7, 12)}
