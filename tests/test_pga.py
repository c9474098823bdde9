"""Automaton core: construction, canonical form, trimming, contraction,
acyclicity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from redip import (
    Edge,
    make_pga,
)
from redip.analysis import coefficient_table, mass
from redip.errors import InvalidAutomaton, InvalidWeight
from redip.pga import contract, extend_alphabet, trim, unit_pga
from redip.rational import is_finite

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


@pytest.mark.parametrize(
    "num_states, edges, initial",
    [
        (1, [("0", 0, 1, None)], {0: 1}),
        ("2", [], {0: 1}),
        (1, [(0.0, 0, 1, None)], {0: 1}),
        (1, [], {0.5: 1}),
        (2, [], {0: 1, "1": 1}),
        (True, [], {0: 1}),
    ],
    ids=["str-edge-state", "str-state-count", "float-edge-state", "float-initial-state",
         "mixed-initial-keys", "bool-state-count"],
)
def test_make_pga_accepts_only_integer_states(num_states, edges, initial):
    with pytest.raises(InvalidAutomaton, match="not an integer"):
        make_pga(("x",), num_states, edges, initial, {0: 1})


@pytest.mark.parametrize(
    "item",
    [(0, 0, H), (0, 0, H, "x", 1), (0, 0), 5, None],
    ids=["3-tuple", "5-tuple", "2-tuple", "int", "none"],
)
def test_make_pga_rejects_edges_that_are_not_four_items(item):
    with pytest.raises(InvalidAutomaton, match="is not \\(src, dst, weight, symbol\\)"):
        make_pga(("x",), 1, [item], {0: Fraction(1)}, {0: Fraction(1)})


def test_edge_defaults_to_unlabeled_and_is_a_tuple():
    assert Edge(0, 1, H) == (0, 1, H, None)
    assert Edge(0, 1, H).symbol is None
    a = make_pga(("x",), 2, [Edge(0, 1, H), (0, 1, H, None)], {0: 1}, {1: 1})
    assert a.edges == (Edge(0, 1, Fraction(1), None),)


def test_make_pga_builds_no_fraction_from_fraction_weights(monkeypatch):
    """Weights that are already Fractions are checked, not rebuilt, and
    edges that do not repeat are not summed."""
    edges = [Edge(q, q + 1, Fraction(1, q + 2), "x") for q in range(1000)]
    initial, final = {0: Fraction(1)}, {1000: Fraction(1)}
    new = Fraction.__new__
    built = []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    a = make_pga(("x",), 1001, reversed(edges), initial, final)
    monkeypatch.undo()
    assert built == []
    assert a.edges == tuple(edges)
    assert all(e.weight is f.weight for e, f in zip(a.edges, edges))


def test_unit_pga():
    a = unit_pga(("x", "y"))
    assert a.num_states == 1
    assert a.edges == ()
    assert a.initial == {0: Fraction(1)}
    assert a.final == {0: Fraction(1)}


# ----- alphabet surgery


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


# ----- contraction


def test_contract_backward_hands_in_arcs_and_initial_weight_on():
    # 0 -eps-> 1 -x-> 2 -eps-> 3: states 0 and 2 have one unlabeled way out
    a = make_pga(
        ("x",),
        4,
        [Edge(0, 1, H, None), Edge(1, 2, Fraction(1, 3), "x"), Edge(2, 3, Fraction(1, 4), None)],
        {0: Fraction(1)},
        {3: Fraction(1)},
    )
    c = contract(a)
    assert c.edges == (Edge(0, 1, Fraction(1, 12), "x"),)
    assert c.initial == {0: H}
    assert c.final == {1: Fraction(1)}


def test_contract_forward_hands_out_arcs_and_final_weight_back():
    # state 1 is final, so only its single unlabeled in-arc can absorb it
    a = make_pga(
        ("x", "y"),
        3,
        [Edge(0, 0, H, "x"), Edge(0, 1, H, None), Edge(1, 2, Fraction(1, 4), "y")],
        {0: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
    )
    c = contract(a)
    assert c.edges == (Edge(0, 0, H, "x"), Edge(0, 1, Fraction(1, 8), "y"))
    assert c.initial == {0: Fraction(1)}
    assert c.final == {0: H, 1: Fraction(1)}


def test_contract_sums_parallel_arcs_and_closes_eps_cycles_into_loops():
    # 0 -x-> 1 and 0 -x-> 2 -eps-> 1 merge; the 1 <-> 3 eps cycle becomes a loop
    a = make_pga(
        ("x",),
        4,
        [
            Edge(0, 1, Fraction(1, 4), "x"),
            Edge(0, 2, Fraction(1, 4), "x"),
            Edge(2, 1, H, None),
            Edge(1, 3, H, None),
            Edge(3, 1, Fraction(1, 3), None),
        ],
        {0: Fraction(1)},
        {1: H},
    )
    c = contract(a)
    assert c.num_states == 2
    assert c.edges == (Edge(0, 1, Fraction(3, 8), "x"), Edge(1, 1, Fraction(1, 6), None))
    assert mass(c) == mass(a) == Fraction(3, 8) * H / (1 - Fraction(1, 6))


def contraction_sample():
    """Seeded random automata with few labels, so unlabeled chains, cycles and
    self-loops are common; some have several initial or final states."""
    rng = random.Random(20261018)
    return [rand_pga(rng, max_states=6, label_prob=0.3, edge_density=0.4) for _ in range(300)]


def test_contract_keeps_mass_and_divergence():
    seen = {"contracted": 0, "divergent": 0, "several ends": 0}
    for a in contraction_sample():
        c = contract(a)
        assert mass(c) == mass(a)
        assert is_finite(mass(c)) == is_finite(mass(a))
        seen["contracted"] += c is not a
        seen["divergent"] += not is_finite(mass(a))
        seen["several ends"] += c is not a and (len(a.initial) > 1 or len(a.final) > 1)
    assert all(seen.values()), seen


def test_contract_keeps_two_variable_coefficient_boxes():
    checked = 0
    for a in contraction_sample():
        c = contract(a)
        if c is a or not is_finite(mass(a)):
            continue
        box = {"x": 3, "y": 2}
        table, kept = coefficient_table(a, box), coefficient_table(c, box)
        assert table == kept and table.total == kept.total
        checked += 1
    assert checked >= 50


def test_contract_never_grows_and_is_idempotent():
    for a in contraction_sample():
        c = contract(a)
        assert c.num_states <= a.num_states and c.size <= a.size
        if c is not a:
            assert c.num_states < a.num_states and c.size < a.size
        assert contract(c) is c


def test_contract_keeps_a_trimmed_automaton_trimmed():
    for a in contraction_sample():
        c = contract(trim(a))
        assert trim(c) == c


# ----- acyclicity


@given(st.integers(0, 10 ** 6))
def test_random_acyclic_flag_is_honest(seed):
    import random

    rng = random.Random(seed)
    a = rand_pga(rng, acyclic=True)
    assert all(e.src < e.dst for e in a.edges)


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
