"""Built-in distributions: automata, closed-form pmfs, and custom files."""

from fractions import Fraction

import pytest

from redip import (
    Bernoulli,
    Binomial,
    Custom,
    Dirac,
    Edge,
    Geometric,
    NegBinomial,
    Uniform,
    build_dist_pga,
    coefficient_table,
    make_pga,
    mass,
    save_pga,
)
from redip.errors import CustomMassNotOne, CustomNotNormalized, InvalidParameter, UnknownVariable
from redip.oracle import dist_pmf, pmf_row
from redip.pga import unit_pga

H = Fraction(1, 2)

# one automaton per family, several parameter points each
DIST_GRID = [
    Geometric(H),
    Geometric(Fraction(1, 3)),
    Geometric(Fraction(9, 10)),
    Geometric(Fraction(1)),
    Bernoulli(Fraction(2, 5)),
    Bernoulli(Fraction(0)),
    Bernoulli(Fraction(1)),
    Dirac(0),
    Dirac(1),
    Dirac(7),
    Uniform(1),
    Uniform(2),
    Uniform(6),
    Binomial(0, H),
    Binomial(1, Fraction(2, 5)),
    Binomial(5, Fraction(1, 3)),
    Binomial(4, Fraction(1)),
    NegBinomial(0, H),
    NegBinomial(1, H),
    NegBinomial(3, Fraction(2, 3)),
]


# ----- every built-in distribution is an exact probability distribution


@pytest.mark.parametrize("spec", DIST_GRID, ids=repr)
def test_mass_is_exactly_one(spec):
    assert mass(build_dist_pga(spec, "x", ("x",))) == 1


@pytest.mark.parametrize("spec", DIST_GRID, ids=repr)
def test_coefficients_match_closed_form(spec):
    a = build_dist_pga(spec, "x", ("x",))
    table = coefficient_table(a, {"x": 20})
    for k in range(21):
        assert table[(k,)] == dist_pmf(spec, k), f"k={k}"


def test_pmf_spot_values():
    assert dist_pmf(Geometric(H), 3) == Fraction(1, 16)
    assert dist_pmf(Bernoulli(Fraction(2, 5)), 1) == Fraction(2, 5)
    assert dist_pmf(Dirac(2), 2) == 1
    assert dist_pmf(Dirac(2), 3) == 0
    assert dist_pmf(Uniform(4), 3) == Fraction(1, 4)
    assert dist_pmf(Uniform(4), 4) == 0
    assert dist_pmf(Binomial(5, Fraction(1, 3)), 2) == Fraction(80, 243)
    # 2 failures before the 2nd success at p = 1/2: 3 * (1/2)^4
    assert dist_pmf(NegBinomial(2, H), 2) == Fraction(3, 16)
    assert dist_pmf(Geometric(H), -1) == 0


# ----- automaton shapes


def test_transition_counts():
    assert build_dist_pga(Geometric(H), "x", ("x",)).size == 1
    assert build_dist_pga(Bernoulli(H), "x", ("x",)).size == 1
    for n in (1, 3, 6):
        assert build_dist_pga(Dirac(n), "x", ("x",)).size == n
    for m in (2, 5):
        assert build_dist_pga(Uniform(m), "x", ("x",)).size == m - 1
    for n in (1, 2, 4):
        assert build_dist_pga(NegBinomial(n, H), "x", ("x",)).size == 2 * n - 1
        assert build_dist_pga(Binomial(n, H), "x", ("x",)).size == 2 * n - 1


def test_a_long_binomial_is_one_chain():
    """binomial(2000, 1/2) is built as one chain of 2,001 states, an x-arc and
    an unlabeled arc per draw but the last, and its coefficients are the pmf."""
    spec = Binomial(2000, H)
    a = build_dist_pga(spec, "x", ("x",))
    assert (a.num_states, a.size) == (2001, 3999)
    assert list(coefficient_table(a, {"x": 40}).values()) == pmf_row(spec, 40)


def test_degenerate_parameters_stay_small():
    # certain success: no transitions at all
    assert build_dist_pga(Geometric(Fraction(1)), "x", ("x",)).size == 0
    assert build_dist_pga(Bernoulli(Fraction(0)), "x", ("x",)).size == 0
    assert build_dist_pga(Binomial(0, H), "x", ("x",)) == unit_pga(("x",))
    assert build_dist_pga(NegBinomial(0, H), "x", ("x",)) == unit_pga(("x",))
    assert build_dist_pga(Uniform(1), "x", ("x",)).size == 0


def test_dist_pga_lives_on_the_full_alphabet():
    a = build_dist_pga(Geometric(H), "y", ("x", "y", "z"))
    assert a.alphabet == ("x", "y", "z")
    assert all(e.symbol == "y" for e in a.edges)
    with pytest.raises(UnknownVariable):
        build_dist_pga(Geometric(H), "w", ("x", "y"))


# ----- parameter validation


def test_parameter_validation():
    with pytest.raises(InvalidParameter):
        Geometric(Fraction(0))  # would never terminate
    with pytest.raises(InvalidParameter):
        Geometric(Fraction(3, 2))
    with pytest.raises(InvalidParameter):
        Bernoulli(Fraction(-1, 2))
    with pytest.raises(InvalidParameter):
        Dirac(-1)
    with pytest.raises(InvalidParameter):
        Uniform(0)
    with pytest.raises(InvalidParameter):
        Binomial(-1, H)
    with pytest.raises(InvalidParameter):
        NegBinomial(2, Fraction(0))


# ----- custom distributions from files


def two_sided_die(tmp_path, mass_each):
    a = make_pga(
        ("t",),
        2,
        [Edge(0, 1, mass_each, "t")],
        {0: Fraction(1)},
        {0: mass_each, 1: Fraction(1)},
    )
    path = str(tmp_path / "die.json")
    save_pga(a, path)
    return path


def test_custom_distribution_round_trip(tmp_path):
    path = two_sided_die(tmp_path, H)
    spec = Custom(path)
    a = build_dist_pga(spec, "x", ("x", "y"))
    assert a.alphabet == ("x", "y")
    assert mass(a) == 1
    table = coefficient_table(a, {"x": 2})
    assert table[(0, 0)] == H and table[(1, 0)] == H
    assert dist_pmf(spec, 0) == H
    assert dist_pmf(spec, 1) == H
    assert dist_pmf(spec, 2) == 0


def test_custom_rejects_wrong_mass(tmp_path):
    path = two_sided_die(tmp_path, Fraction(1, 3))
    with pytest.raises(CustomMassNotOne):
        build_dist_pga(Custom(path), "x", ("x",))


def test_custom_rejects_multi_variable_files(tmp_path):
    a = make_pga(
        ("t", "u"),
        2,
        [Edge(0, 1, Fraction(1), "t")],
        {0: Fraction(1)},
        {1: Fraction(1)},
    )
    path = str(tmp_path / "wide.json")
    save_pga(a, path)
    with pytest.raises(CustomNotNormalized):
        build_dist_pga(Custom(path), "x", ("x",))


@pytest.mark.parametrize("letter", ["t", "x"])
def test_custom_file_is_relettered_and_hosted_in_one_build(tmp_path, letter):
    """A file over another letter and one over the target letter itself build
    the same automaton: every labeled edge is relabeled to the target, on the
    program's alphabet; the literals are the ones the three-build loader gave."""
    die = make_pga(
        (letter,),
        3,
        [Edge(0, 1, H, letter), Edge(1, 2, H, letter), Edge(0, 2, Fraction(1, 4))],
        {0: Fraction(1)},
        {0: Fraction(1, 4), 1: H, 2: Fraction(1)},
    )
    path = str(tmp_path / "die.json")
    save_pga(die, path)
    a = build_dist_pga(Custom(path), "x", ("y", "x"))
    assert a.alphabet == ("y", "x")
    assert a.num_states == 3
    assert a.edges == (Edge(0, 1, H, "x"), Edge(0, 2, Fraction(1, 4)), Edge(1, 2, H, "x"))
    assert a.initial == {0: Fraction(1)}
    assert a.final == {0: Fraction(1, 4), 1: H, 2: Fraction(1)}
