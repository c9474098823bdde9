"""Mass, normalization, validation, and coefficient extraction."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redip import (
    Edge,
    LessThan,
    build_guard_dfa,
    coefficient,
    coefficient_table,
    guard_mass,
    make_pga,
    mass,
    parse_guard,
    product,
)
from redip import analysis
from redip.analysis import normalize, validate_pga
from redip.errors import InfiniteMass, InvalidAutomaton, InvalidParameter, UnknownVariable, ZeroMass
from redip.linsolve import FactoredSystem, strongly_connected_components
from redip.pga import trim
from redip.rational import INF

from conftest import rand_guard, rand_pga, series_of

H = Fraction(1, 2)
ONE = Fraction(1)


def loop(weight, accept=H):
    return make_pga(("x",), 1, [Edge(0, 0, weight, "x")], {0: ONE}, {0: accept})


# ----- mass


def test_mass_half_loop_is_two():
    # sum of (1/2)^k equals 2 when acceptance weight is 1
    a = loop(H, accept=ONE)
    assert mass(a, method="elimination") == 2
    assert mass(a, method="lp") == 2


def test_mass_geometric_is_one():
    assert mass(loop(H)) == 1


def test_mass_weight_one_loop_diverges():
    a = loop(ONE)
    assert mass(a, method="elimination") is INF
    assert mass(a, method="lp") is INF


def test_mass_supercritical_loop_diverges():
    assert mass(loop(Fraction(3, 2))) is INF


def test_mass_of_chain():
    a = make_pga(
        ("x",),
        3,
        [Edge(0, 1, Fraction(1, 3), "x"), Edge(1, 2, Fraction(1, 5), None)],
        {0: ONE},
        {2: Fraction(7)},
    )
    assert mass(a) == Fraction(7, 15)


def test_mass_zero_automaton():
    a = make_pga(("x",), 1, [], {0: ONE}, {})
    assert mass(a) == 0


def test_mass_rejects_unknown_method():
    with pytest.raises(ValueError):
        mass(loop(H), method="magic")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mass_routes_agree(seed):
    """Elimination and the LP fallback give the same verdict and value."""
    rng = random.Random(seed)
    a = rand_pga(rng)
    assert mass(a, method="elimination") == mass(a, method="lp")


def test_mass_acyclic_equals_path_sum():
    rng = random.Random(99)
    for _ in range(40):
        a = rand_pga(rng, acyclic=True)
        assert mass(a) == sum(series_of(a).values(), Fraction(0))


# ----- mass under a guard filter


def guarded_cases(count, seed=2024):
    """Random automata paired with random guard DFAs over ("x", "y")."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rand_pga(rng)
        yield a, build_guard_dfa(rand_guard(rng, a.alphabet), a.alphabet)


def test_filtered_mass_equals_mass_of_the_product():
    """Walking the useful pairs gives what solving the whole product gives,
    divergence included."""
    diverging = 0
    for a, dfa in guarded_cases(2000):
        want = mass(product(a, dfa))
        assert mass(a, dfa) == want
        diverging += want is INF
    assert 100 < diverging < 1900


def test_filtered_mass_routes_agree():
    for i, (a, dfa) in enumerate(guarded_cases(2000)):
        if i % 10 == 0:
            assert mass(a, dfa, method="lp") == mass(a, dfa)


def identity_minus_rows(t, eps=False):
    """The reference I - M of an automaton, from its edges: labels dropped,
    parallel edges summed, each entry as its (numerator, denominator). With
    `eps`, I - M_eps: the unlabeled edges alone."""
    rows = [{q: ONE} for q in range(t.num_states)]
    for e in t.edges:
        if e.symbol is None or not eps:
            rows[e.src][e.dst] = rows[e.src].get(e.dst, 0) - e.weight
    return [{c: (v.numerator, v.denominator) for c, v in row.items()} for row in rows]


def test_both_system_builds_are_the_trimmed_systems(monkeypatch):
    """What the factorization sees: the rows of I - M and the final weights
    of trim(a) for the plain mass, and of trim(product(a, dfa)) for the
    filtered one, in their state order. A coefficient table of finite mass
    factors twice whatever its box: I - M of trim(a) for its total, then
    I - M_eps of trim(a) for its levels."""
    seen, factored = [], []

    class Recording(FactoredSystem):
        def __init__(self, n, rows):
            seen.append([dict(row) for row in rows])
            factored.append(seen[-1])
            super().__init__(n, rows)

        def solve(self, rhs):
            seen.append(dict(rhs))
            return super().solve(rhs)

    monkeypatch.setattr(analysis, "FactoredSystem", Recording)
    tables = 0
    for a, dfa in guarded_cases(300, seed=7):
        for t, args in ((trim(a), (a,)), (trim(product(a, dfa)), (a, dfa))):
            seen.clear()
            mass(*args)
            if not t.final:
                assert seen == []
                continue
            assert seen[0] == identity_minus_rows(t)
            # a singular system is never solved
            final = {q: (w.numerator, w.denominator) for q, w in t.final.items()}
            assert seen[1:] in ([], [final])
        t = trim(a)
        if not t.final or mass(a) is INF:
            continue
        for bounds in ({"x": 1}, {"y": 2}, {"x": 3, "y": 2}):
            factored.clear()
            coefficient_table(a, bounds)
            assert factored == [identity_minus_rows(t), identity_minus_rows(t, eps=True)]
            tables += 1
    assert tables >= 300


def test_divergent_loops_off_the_useful_states_do_not_count():
    """A weight-1 self-loop on an unreachable state (1) and on a state that
    cannot reach a final state (2) leave the mass finite: the system is
    trimmed before divergence is read, on every route."""
    edges = [Edge(0, 0, H, "x"), Edge(1, 1, ONE, "x"), Edge(1, 0, H, "x")]
    edges += [Edge(0, 2, H, None), Edge(2, 2, ONE, "x")]
    a = make_pga(("x",), 3, edges, {0: ONE}, {0: H})
    dfa = build_guard_dfa(parse_guard("x >= 0", a.alphabet), a.alphabet)
    for args in ((a,), (a, dfa)):
        assert mass(*args) == mass(*args, method="lp") == 1


def test_filter_needs_the_automaton_alphabet():
    with pytest.raises(InvalidAutomaton):
        mass(loop(H), build_guard_dfa(LessThan("y", 1), ("y",)))


def test_guard_queries_never_build_the_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("guard query built the product automaton")

    # the package re-exports the function `translate`, which hides the module
    monkeypatch.setattr(sys.modules["redip.translate"], "product", refuse)
    # the useful-pair walk lives next to `product`
    monkeypatch.setattr(sys.modules["redip.constructions"], "product", refuse)
    a = loop(H)
    assert guard_mass(a, parse_guard("x >= 2", a.alphabet)) == Fraction(1, 4)
    assert coefficient(a, {"x": 2}) == Fraction(1, 8)


# ----- validation report


def test_validate_clean_pga():
    rep = validate_pga(loop(H))
    assert rep.is_pga
    assert rep.mass == 1
    assert rep.issues == ()


def test_validate_reports_unreachable_and_dead():
    a = make_pga(
        ("x",),
        3,
        [Edge(1, 0, H, "x"), Edge(0, 2, H, "x")],
        {0: ONE},
        {0: H},
    )
    rep = validate_pga(a)
    assert "state 1 unreachable from any initial state" in rep.issues
    assert "state 2 cannot reach any final state" in rep.issues
    assert rep.is_pga  # junk states carry no mass


def test_validate_flags_excess_mass():
    rep = validate_pga(loop(H, accept=ONE))
    assert rep.mass == 2
    assert not rep.is_pga


def test_validate_flags_divergence():
    rep = validate_pga(loop(ONE))
    assert rep.mass is INF
    assert not rep.is_pga


# ----- normalization


def test_normalize_scales_initial_weights():
    a = loop(H, accept=ONE)
    b = normalize(a)
    assert mass(b) == 1
    assert b.initial == {0: H}
    assert b.final == a.final


def test_normalize_shares_the_edges():
    """Normalizing rescales the initial weights and rebuilds nothing else."""
    a = loop(H, accept=ONE)
    b = normalize(a)
    assert b.edges is a.edges and b.final is a.final


def test_normalize_rejects_zero_and_infinite():
    with pytest.raises(ZeroMass):
        normalize(make_pga(("x",), 1, [], {0: ONE}, {}))
    with pytest.raises(InfiniteMass):
        normalize(loop(ONE))


# ----- pointwise coefficients


def test_coefficient_of_geometric():
    a = loop(H)
    for k in range(6):
        assert coefficient(a, {"x": k}) == H ** (k + 1)


def test_coefficient_ignores_zero_count_of_unknown_var():
    a = loop(H)
    assert coefficient(a, {"x": 1, "phantom": 0}) == Fraction(1, 4)
    with pytest.raises(UnknownVariable):
        coefficient(a, {"phantom": 2})
    with pytest.raises(InvalidParameter):
        coefficient(a, {"x": -1})


def test_coefficient_diverging_direction_raises():
    # unlabeled weight-1 loop: every coefficient is an infinite sum
    a = make_pga(("x",), 1, [Edge(0, 0, ONE, None)], {0: ONE}, {0: ONE})
    with pytest.raises(InfiniteMass):
        coefficient(a, {"x": 0})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_coefficient_matches_path_enumeration(seed):
    rng = random.Random(seed)
    a = rand_pga(rng, acyclic=True)
    table = series_of(a)
    box = 3
    for cx in range(box):
        for cy in range(box):
            want = table.get((cx, cy), Fraction(0))
            assert coefficient(a, {"x": cx, "y": cy}) == want


# ----- coefficient tables


def test_coefficient_table_geometric_box():
    t = coefficient_table(loop(H), {"x": 4})
    assert t == {(k,): H ** (k + 1) for k in range(5)}


def test_coefficient_table_matches_pointwise_on_cyclic():
    rng = random.Random(4242)
    # the second box has three axes, the middle one of length one: strides 4, 4, 1
    for bounds in ({"x": 3, "y": 2}, {"x": 2, "y": 0, "z": 3}):
        checked = 0
        while checked < 12:
            a = rand_pga(rng, alphabet=tuple(bounds))
            if not trim(a).final or mass(a) is INF:
                continue
            table = coefficient_table(a, bounds)
            assert len(table) == math.prod(b + 1 for b in bounds.values())
            for key, value in table.items():
                sigma = dict(zip(trim(a).alphabet, key))
                assert coefficient(a, sigma) == value
            checked += 1


def test_coefficient_table_missing_bound_means_zero():
    a = loop(H)
    t = coefficient_table(a, {})
    assert t == {(0,): H}


def test_coefficient_table_rejects_unknown_and_divergent():
    with pytest.raises(UnknownVariable):
        coefficient_table(loop(H), {"q": 2})
    with pytest.raises(InvalidParameter):
        coefficient_table(loop(H), {"x": -1})
    with pytest.raises(InfiniteMass):
        coefficient_table(loop(ONE), {"x": 2})


def _eps_cyclic_pga(rng):
    """A random automaton over (x, y) whose trimmed form keeps a strongly
    connected component of two or more states under unlabeled edges alone,
    so the level system needs elimination, not only back-substitution."""
    while True:
        a = rand_pga(rng, max_states=6, label_prob=0.5)
        members = rng.sample(range(a.num_states), min(a.num_states, rng.randint(2, 3)))
        cycle = [Edge(q, members[(i + 1) % len(members)], Fraction(rng.randint(1, 3), 8))
                 for i, q in enumerate(members)]
        a = make_pga(a.alphabet, a.num_states, a.edges + tuple(cycle), a.initial, a.final)
        t = trim(a)
        eps = [[e.dst for e in t.edges if e.src == q and e.symbol is None] for q in range(t.num_states)]
        if t.final and mass(a) is not INF and any(
            len(c) > 1 for c in strongly_connected_components(t.num_states, eps)
        ):
            return a


def test_coefficient_table_matches_pointwise_with_unlabeled_cycles():
    rng = random.Random(77)
    for _ in range(12):
        a = _eps_cyclic_pga(rng)
        table = coefficient_table(a, {"x": 3, "y": 2})
        assert len(table) == 12
        for key, value in table.items():
            assert coefficient(a, dict(zip(a.alphabet, key))) == value


def test_coefficient_table_on_a_unit_chain_divides_nothing(monkeypatch):
    """A 3,000-state chain with no unlabeled self-loop has only unit pivots,
    so neither the mass solve nor any level solve divides."""
    n = 3000
    edges = [Edge(q, q + 1, H, "x" if q % 3 == 0 else None) for q in range(n - 1)]
    a = make_pga(("x",), n, edges, {0: ONE}, {q: H for q in range(n)})
    divisions = []
    truediv = Fraction.__truediv__

    def counting(self, other):
        divisions.append(other)
        return truediv(self, other)

    monkeypatch.setattr(Fraction, "__truediv__", counting)
    table = coefficient_table(a, {"x": 3})
    monkeypatch.undo()
    assert divisions == []
    # x = k counts the states 3k - 2 .. 3k (state 0 alone for k = 0)
    assert table[(0,)] == H
    assert table[(2,)] == sum(H ** (q + 1) for q in (4, 5, 6))
