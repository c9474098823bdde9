"""Mass, normalization, validation, and coefficient extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redip import (
    INF,
    Edge,
    InfiniteMass,
    InvalidAutomaton,
    UnknownVariable,
    ZeroMass,
    coefficient,
    coefficient_table,
    make_pga,
    mass,
    normalize,
    trim,
    validate_pga,
)

from conftest import rand_pga, series_of

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
    with pytest.raises(InvalidAutomaton):
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
    checked = 0
    while checked < 12:
        a = rand_pga(rng)
        if not trim(a).final or mass(a) is INF:
            continue
        table = coefficient_table(a, {"x": 3, "y": 2})
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
    with pytest.raises(InfiniteMass):
        coefficient_table(loop(ONE), {"x": 2})
