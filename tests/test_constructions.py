"""Automaton constructions: behavior identities and exact size accounting.

Every construction here is checked two ways. Acyclic instances are compared
against full path enumeration (an oracle that never touches the linear
solver); cyclic instances are compared coefficient by coefficient, which is
always a finite computation for a fixed valuation.
"""

import random
from fractions import Fraction

import pytest

from redip import (
    Bernoulli,
    Edge,
    LessThan,
    Not,
    build_dist_pga,
    build_guard_dfa,
    coefficient,
    concat,
    decrement,
    guard_satisfies,
    label_subst_one,
    label_subst_zero,
    make_pga,
    mass,
    product,
    transition_subst,
    weighted_union,
)
from redip.errors import InvalidAutomaton, UnknownVariable
from redip.pga import trim
from redip.rational import is_finite

from conftest import rand_guard, rand_pga, rand_useful_pga, series_of

ALPHA = ("x", "y")
H = Fraction(1, 2)
ONE = Fraction(1)
ZERO2 = (0, 0)


def convolve(s1, s2):
    out = {}
    for k1, w1 in s1.items():
        for k2, w2 in s2.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, Fraction(0)) + w1 * w2
    return out


def series_power(s, n, width):
    out = {(0,) * width: ONE}
    for _ in range(n):
        out = convolve(out, s)
    return out


def geometric_y():
    return make_pga(ALPHA, 1, [Edge(0, 0, H, "y")], {0: ONE}, {0: H})


def two_point_prior():
    # behavior 1/2 + 1/2 * Y^2
    return make_pga(
        ALPHA,
        3,
        [Edge(0, 1, H, "y"), Edge(1, 2, ONE, "y")],
        {0: ONE},
        {0: H, 2: ONE},
    )


# ----- label substitution (cases: var set to one, var set to zero)


def test_label_subst_one_merges_counts():
    # 1/2 + 1/2 Y^2 with Y set to 1 collapses to the constant 1
    a = label_subst_one(two_point_prior(), "y")
    assert series_of(a) == {ZERO2: ONE}


def test_label_subst_zero_keeps_only_zero_terms():
    a = label_subst_zero(two_point_prior(), "y")
    assert series_of(a) == {ZERO2: H}


def test_label_subst_requires_known_var():
    with pytest.raises(UnknownVariable):
        label_subst_one(two_point_prior(), "q")
    with pytest.raises(UnknownVariable):
        label_subst_zero(two_point_prior(), "q")


def test_label_subst_identities_on_random_acyclic():
    rng = random.Random(11)
    for _ in range(80):
        a = rand_pga(rng, acyclic=True)
        s = series_of(a)
        y = a.alphabet.index("y")
        # Y := 1 sums the Y-axis away
        want_one = {}
        for key, w in s.items():
            k = key[:y] + (0,) + key[y + 1 :]
            want_one[k] = want_one.get(k, Fraction(0)) + w
        assert series_of(label_subst_one(a, "y")) == want_one
        # Y := 0 keeps the Y = 0 slice only
        want_zero = {k: w for k, w in s.items() if k[y] == 0}
        assert series_of(label_subst_zero(a, "y")) == want_zero


# ----- concatenation (Cauchy product)


def test_concat_of_two_point_priors():
    s = series_of(concat(two_point_prior(), two_point_prior()))
    assert s == {
        ZERO2: Fraction(1, 4),
        (0, 2): Fraction(1, 2),
        (0, 4): Fraction(1, 4),
    }


def test_concat_is_cauchy_product_acyclic():
    rng = random.Random(22)
    for _ in range(60):
        a1 = rand_pga(rng, acyclic=True)
        a2 = rand_pga(rng, acyclic=True)
        assert series_of(concat(a1, a2)) == {
            k: w
            for k, w in convolve(series_of(a1), series_of(a2)).items()
            if w != 0
        }


def test_concat_is_cauchy_product_cyclic_pointwise():
    # convolution at a fixed valuation is a finite sum even with loops
    rng = random.Random(23)
    done = 0
    while done < 15:
        a1 = rand_useful_pga(rng)
        a2 = rand_useful_pga(rng)
        if not (is_finite(mass(a1)) and is_finite(mass(a2))):
            continue
        c = concat(a1, a2)
        for cx in range(3):
            for cy in range(3):
                want = sum(
                    (
                        coefficient(a1, {"x": i, "y": j})
                        * coefficient(a2, {"x": cx - i, "y": cy - j})
                        for i in range(cx + 1)
                        for j in range(cy + 1)
                    ),
                    Fraction(0),
                )
                assert coefficient(c, {"x": cx, "y": cy}) == want
        done += 1


def test_concat_rejects_alphabet_mismatch():
    a = make_pga(("x",), 1, [], {0: ONE}, {0: ONE})
    with pytest.raises(InvalidAutomaton):
        concat(a, two_point_prior())


# ----- weighted union (convex and plain sums)


def test_union_weights_scale_behaviors():
    rng = random.Random(33)
    for _ in range(40):
        a1 = rand_pga(rng, acyclic=True)
        a2 = rand_pga(rng, acyclic=True)
        p, q = Fraction(9, 10), Fraction(1, 10)
        s1, s2 = series_of(a1), series_of(a2)
        want = {}
        for k, w in s1.items():
            want[k] = want.get(k, Fraction(0)) + p * w
        for k, w in s2.items():
            want[k] = want.get(k, Fraction(0)) + q * w
        got = series_of(weighted_union(a1, a2, p, q))
        assert got == {k: w for k, w in want.items() if w != 0}


def test_union_rejects_negative_weights():
    a = two_point_prior()
    with pytest.raises(InvalidAutomaton):
        weighted_union(a, a, Fraction(-1, 2), Fraction(1, 2))


# ----- transition substitution


def test_subst_emit_one_then_other():
    # rewriting each Y step to emit one Y and one X turns 1/2 + 1/2 Y^2
    # into 1/2 + 1/2 X^2 Y^2
    gadget = make_pga(
        ALPHA, 3, [Edge(0, 1, ONE, "y"), Edge(1, 2, ONE, "x")], {0: ONE}, {2: ONE}
    )
    out = transition_subst(two_point_prior(), "y", gadget)
    assert series_of(out) == {ZERO2: H, (2, 2): H}


def test_subst_iid_instance():
    """Geometric(1/2) count of bernoulli(1/3) trials.

    Two trials happen with weight (1/2)^3; exactly one success among them
    has probability 2 * (1/3) * (2/3), so the coefficient at x=1, y=2 is
    (1/8) * (4/9) = 1/18.
    """
    y_step = make_pga(ALPHA, 2, [Edge(0, 1, ONE, "y")], {0: ONE}, {1: ONE})
    gadget = concat(y_step, build_dist_pga(Bernoulli(Fraction(1, 3)), "x", ALPHA))
    out = transition_subst(geometric_y(), "y", gadget)
    assert coefficient(out, {"x": 1, "y": 2}) == Fraction(1, 18)
    # the substitution preserves total mass
    assert mass(out) == 1


def test_subst_with_unit_gadget_erases_the_label():
    from redip.pga import unit_pga

    a = two_point_prior()
    out = transition_subst(a, "y", unit_pga(ALPHA))
    assert series_of(out) == series_of(label_subst_one(a, "y"))


def test_subst_identity_on_random_acyclic():
    """Substituting an automaton equals substituting its series."""
    rng = random.Random(44)
    for _ in range(60):
        a1 = rand_pga(rng, acyclic=True)
        a2 = rand_pga(rng, acyclic=True)
        s1, s2 = series_of(a1), series_of(a2)
        y = a1.alphabet.index("y")
        width = len(a1.alphabet)
        want = {}
        for key, w in s1.items():
            stripped = key[:y] + (0,) + key[y + 1 :]
            for k2, w2 in series_power(s2, key[y], width).items():
                k = tuple(a + b for a, b in zip(stripped, k2))
                want[k] = want.get(k, Fraction(0)) + w * w2
        got = series_of(transition_subst(a1, "y", a2))
        assert got == {k: w for k, w in want.items() if w != 0}


# ----- guard filtering


def test_filter_keeps_of_satisfying_valuations():
    # geometric over y filtered by y < 2
    dfa = build_guard_dfa(LessThan("y", 2), ALPHA)
    filtered = product(geometric_y(), dfa)
    assert coefficient(filtered, {"y": 0}) == H
    assert coefficient(filtered, {"y": 1}) == Fraction(1, 4)
    assert coefficient(filtered, {"y": 2}) == 0
    assert mass(filtered) == Fraction(3, 4)


def test_filter_by_tautology_preserves_behavior():
    a = two_point_prior()
    dfa = build_guard_dfa(Not(LessThan("x", 0)), ALPHA)
    assert series_of(trim(product(a, dfa))) == series_of(a)


def test_filter_keeps_exactly_satisfying_coefficients():
    rng = random.Random(55)
    done = 0
    while done < 60:
        a = rand_pga(rng)
        if not is_finite(mass(a)):
            continue
        done += 1
        g = rand_guard(rng, ALPHA)
        filtered = product(a, build_guard_dfa(g, ALPHA))
        for cx in range(4):
            for cy in range(4):
                sigma = {"x": cx, "y": cy}
                want = coefficient(a, sigma) if guard_satisfies(sigma, g) else Fraction(0)
                assert coefficient(filtered, sigma) == want


def test_product_rejects_alphabet_mismatch():
    dfa = build_guard_dfa(LessThan("x", 1), ("x",))
    with pytest.raises(InvalidAutomaton):
        product(two_point_prior(), dfa)


# ----- decrement


def test_decrement_geometric():
    a = make_pga(("x",), 1, [Edge(0, 0, H, "x")], {0: ONE}, {0: H})
    d = decrement(a, "x")
    # counts 0 and 1 fold together; everything else shifts down
    assert coefficient(d, {"x": 0}) == Fraction(3, 4)
    for k in range(1, 6):
        assert coefficient(d, {"x": k}) == Fraction(1, 4) * H ** k
    assert mass(d) == 1


def test_decrement_identity_on_random_automata():
    """Coefficient view: dec(C)(s) = C(s + e_x) + [s(x) = 0] * C(s|x=0)."""
    rng = random.Random(66)
    done = 0
    while done < 15:
        a = rand_useful_pga(rng)
        if not is_finite(mass(a)):
            continue
        d = decrement(a, "x")
        for cx in range(3):
            for cy in range(3):
                want = coefficient(a, {"x": cx + 1, "y": cy})
                if cx == 0:
                    want += coefficient(a, {"x": 0, "y": cy})
                assert coefficient(d, {"x": cx, "y": cy}) == want
        done += 1


# ----- exact size accounting (pre-trim transition counts)


def test_concat_size_formula():
    rng = random.Random(77)
    for _ in range(60):
        a1 = rand_pga(rng)
        a2 = rand_pga(rng)
        got = concat(a1, a2).size
        assert got == a1.size + a2.size + len(a1.final) * len(a2.initial)


def test_union_size_formula():
    rng = random.Random(78)
    for _ in range(60):
        a1 = rand_pga(rng)
        a2 = rand_pga(rng)
        assert weighted_union(a1, a2, H, H).size == a1.size + a2.size


def test_product_size_formula():
    # a complete DFA's size is taken as its state count: each automaton
    # transition is copied once per DFA state
    rng = random.Random(79)
    for _ in range(60):
        a = rand_pga(rng)
        g = rand_guard(rng, ALPHA)
        dfa = build_guard_dfa(g, ALPHA)
        assert product(a, dfa).size == a.size * dfa.num_states


def test_subst_size_formula_single_entry_gadget():
    rng = random.Random(80)
    checked = 0
    while checked < 60:
        a = rand_pga(rng)
        gadget = rand_pga(rng)
        if len(gadget.initial) != 1:
            continue
        got = transition_subst(a, "y", gadget).size
        assert got == a.size + a.symbol_count("y") * (gadget.size + len(gadget.final))
        checked += 1


def test_decrement_size_formula():
    rng = random.Random(81)
    for _ in range(60):
        a = rand_pga(rng)
        assert decrement(a, "x").size == 3 * a.size - a.symbol_count("x")


def test_label_subst_sizes():
    a = two_point_prior()
    # dropping a label can merge transitions, so "one" is an upper bound;
    # deleting labeled transitions is exact
    assert label_subst_one(a, "y").size <= a.size
    assert label_subst_zero(a, "y").size == a.size - a.symbol_count("y")
