"""Program-to-automaton translation and posterior inference."""

import json
from fractions import Fraction

import pytest

from redip import (
    Binomial,
    Edge,
    InfeasibleObservation,
    coefficient,
    coefficient_table,
    guard_mass,
    infer,
    make_pga,
    marginal,
    mass,
    parse_guard,
    parse_program,
    program_size,
    translate,
    working_alphabet,
)
from redip.errors import InfiniteMass, InvalidAutomaton, InvalidParameter, UnknownVariable
from redip.lang import program_vars
from redip.oracle import dist_pmf

H = Fraction(1, 2)
ONE = Fraction(1)

INSURANCE = (
    "{r := 0} [9/10] {r := 1}; "
    "if (r == 0) {x += negbinomial(1, 1/2)} else {x += negbinomial(2, 1/2)}; "
    "observe(x >= 2)"
)


def two_point_prior():
    # behavior 1/2 + 1/2 * Y^2 over alphabet (x, y)
    return make_pga(
        ("x", "y"),
        3,
        [Edge(0, 1, H, "y"), Edge(1, 2, ONE, "y")],
        {0: ONE},
        {0: H, 2: ONE},
    )


# ----- worked example: risk classes with at least two claims


def test_insurance_inference_values():
    res = infer(parse_program(INSURANCE))
    assert res.alphabet == ("r", "x")
    assert res.prior_mass == 1
    assert res.normalizing_constant == Fraction(11, 40)
    assert res.violation_mass == Fraction(29, 40)
    assert mass(res.posterior) == 1


def test_insurance_posterior_queries():
    res = infer(parse_program(INSURANCE))
    high_risk = parse_guard("r >= 1", res.alphabet)
    assert guard_mass(res.posterior, high_risk) == Fraction(2, 11)
    assert coefficient(res.posterior, {"r": 1, "x": 2}) == Fraction(3, 44)
    assert guard_mass(res.posterior, parse_guard("x == 2", res.alphabet)) == Fraction(21, 44)


def test_insurance_unnormalized_branch_masses():
    res = infer(parse_program(INSURANCE))
    low = parse_guard("r == 0", res.alphabet)
    assert guard_mass(res.unnormalized, low) == Fraction(9, 40)
    assert guard_mass(res.unnormalized, parse_guard("r >= 1", res.alphabet)) == Fraction(1, 20)


# ----- worked example: prior with two atoms, observed sum


def test_two_point_prior_inference():
    p = parse_program("{ x += y } [1/2] { skip }; observe(x == 0)")
    res = infer(p, prior=two_point_prior())
    assert res.normalizing_constant == Fraction(3, 4)
    assert res.violation_mass == Fraction(1, 4)
    assert coefficient(res.unnormalized, {"x": 0, "y": 0}) == H
    assert coefficient(res.unnormalized, {"x": 0, "y": 2}) == Fraction(1, 4)
    assert coefficient(res.posterior, {"x": 0, "y": 0}) == Fraction(2, 3)
    assert coefficient(res.posterior, {"x": 0, "y": 2}) == Fraction(1, 3)
    # nothing else in the box carries mass
    table = coefficient_table(res.posterior, {"x": 3, "y": 3})
    assert sum(table.values()) == 1


# ----- statement-level translations


def test_increment_by_variable_copies_counts():
    t = translate(parse_program("x += y"), prior=two_point_prior())
    assert coefficient(t.automaton, {"x": 0, "y": 0}) == H
    assert coefficient(t.automaton, {"x": 2, "y": 2}) == H
    assert coefficient(t.automaton, {"x": 0, "y": 2}) == 0


def test_choice_splits_mass():
    t = translate(parse_program("{ x += 1 } [1/3] { x += 2 }"))
    assert coefficient(t.automaton, {"x": 1}) == Fraction(1, 3)
    assert coefficient(t.automaton, {"x": 2}) == Fraction(2, 3)


def test_decrement_translation():
    t = translate(parse_program("x += uniform(3); x--"))
    assert coefficient(t.automaton, {"x": 0}) == Fraction(2, 3)
    assert coefficient(t.automaton, {"x": 1}) == Fraction(1, 3)
    assert coefficient(t.automaton, {"x": 2}) == 0


def test_sequential_observes_conjoin():
    p = parse_program("x += uniform(4); observe(x >= 1); observe(x < 3)")
    t = translate(p)
    assert mass(t.automaton) == H
    assert coefficient(t.automaton, {"x": 1}) == Fraction(1, 4)
    assert coefficient(t.automaton, {"x": 3}) == 0


def test_iid_increment_is_exactly_binomial():
    t = translate(parse_program("y += 10; x += iid(bernoulli(2/5), y)"))
    spec = Binomial(10, Fraction(2, 5))
    for k in range(11):
        assert coefficient(t.automaton, {"x": k, "y": 10}) == dist_pmf(spec, k)


def test_set_zero_resets_observed_variable():
    p = parse_program("x += geometric(1/2); x := 0")
    t = translate(p)
    assert coefficient(t.automaton, {"x": 0}) == 1
    assert mass(t.automaton) == 1


# ----- priors and alphabets


def test_working_alphabet_order():
    prior = make_pga(("z", "x"), 1, [], {0: ONE}, {0: ONE})
    p = parse_program("x += 1; observe(y < 1)")
    assert working_alphabet(p, prior) == ("x", "y", "z")
    assert working_alphabet(p, None) == ("x", "y")


def test_prior_must_have_mass_at_most_one():
    heavy = make_pga(("x",), 1, [], {0: Fraction(2)}, {0: ONE})
    with pytest.raises(InvalidAutomaton, match="prior mass 2 exceeds 1"):
        translate(parse_program("x += 1"), prior=heavy)


def test_prior_must_have_finite_mass():
    diverging = make_pga(("x",), 1, [Edge(0, 0, ONE, "x")], {0: ONE}, {0: ONE})
    with pytest.raises(InvalidAutomaton):
        translate(parse_program("x += 1"), prior=diverging)


def test_all_violating_program_is_infeasible():
    with pytest.raises(InfeasibleObservation):
        infer(parse_program("x := 0; observe(x >= 1)"))


# ----- step records


def test_step_records_cover_the_translation():
    res = infer(parse_program(INSURANCE))
    assert len(res.steps) == 10
    names = {s.construction for s in res.steps}
    assert names == {"subst-one", "concat", "union", "product"}
    for s in res.steps:
        assert 0 <= s.post_trim_size <= s.pre_trim_size
        assert s.states >= 1
    # the last step's kept automaton is the one that inference normalizes
    assert res.steps[-1].states == res.unnormalized.num_states
    assert res.steps[-1].post_trim_size == res.unnormalized.size


# every base statement form once, then the three forms that split
ALL_FORMS = (
    "x := 0; x += 2; x += geometric(1/2); y += x; z += iid(custom(\"die.json\"), y); x--; "
    "observe(z >= 1 and x != 1); "
    "if (x == 0) {y += bernoulli(1/3)} else {skip}; {z--} [1/4] {y := x}"
)
DIE = {
    "alphabet": ["x"],
    "states": 2,
    "edges": [{"src": 0, "dst": 1, "weight": "1/2", "symbol": "x"}],
    "initial": {"0": "1"},
    "final": {"0": "1/2", "1": "1"},
}


def test_each_step_is_named_by_its_printed_statement(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "die.json").write_text(json.dumps(DIE))
    p = parse_program(ALL_FORMS)
    # the custom file's path is a distribution argument, not a variable
    assert program_vars(p) == ("x", "y", "z")
    assert program_size(p) == 14
    assert [(s.construction, s.detail) for s in infer(p).steps] == [
        ("subst-one", "x := 0"),
        ("concat", "x += 2"),
        ("concat", "x += geometric(1/2)"),
        ("transition-subst", "y += x"),
        ("transition-subst", 'z += iid(custom("die.json"), y)'),
        ("decrement", "x--"),
        ("product", "observe((not (z < 1) and not ((x < 2 and not (x < 1)))))"),
        ("product", "if-filter ((x < 1 and not (x < 0)))"),
        ("product", "else-filter (not ((x < 1 and not (x < 0))))"),
        ("concat", "y += bernoulli(1/3)"),
        ("concat", "x += 0"),
        ("union", "if-join"),
        ("decrement", "z--"),
        ("subst-one", "y := 0"),
        ("transition-subst", "y += x"),
        ("union", "choice [1/4]"),
    ]


def ladder(rounds):
    return ";\n".join(["x += bernoulli(1/2); x--"] * rounds)


def test_decrement_ladder_posterior_does_not_double():
    # the benchmark's dec-ladder m=18: every round ends at x = 0, and the
    # contracted posterior keeps that point mass in at most two states
    res = infer(parse_program(ladder(9)))
    assert res.posterior.num_states <= 2
    assert res.posterior.size == 0
    assert all(s.states <= 2 for s in res.steps)


def test_long_decrement_ladder_infers_to_a_point_mass():
    res = infer(parse_program(ladder(25)))
    assert res.normalizing_constant == 1
    assert res.posterior.size == 0
    assert coefficient(res.posterior, {"x": 0}) == 1
    assert marginal(res.posterior, "x", 2) == ([ONE, 0, 0], 0)


def test_marginal_rejects_a_variable_outside_the_alphabet():
    with pytest.raises(UnknownVariable, match="'z' not in alphabet"):
        marginal(infer(parse_program("x += 1")).posterior, "z", 2)


def test_marginal_rejects_a_negative_bound():
    with pytest.raises(InvalidParameter):
        marginal(infer(parse_program("x += 1")).posterior, "x", -1)


def test_constant_increment_pre_trim_size():
    # concat with a length-n chain: |A| + |F(A)| + n transitions before trim
    prior = two_point_prior()
    t = translate(parse_program("x += 3"), prior=prior)
    (step,) = t.steps
    assert step.construction == "concat"
    assert step.pre_trim_size == prior.size + len(prior.final) + 3


def test_translation_keeps_prior_on_working_alphabet():
    t = translate(parse_program("x += 1"), prior=two_point_prior())
    assert t.prior.alphabet == t.alphabet == ("x", "y")
    assert t.prior_mass == 1


# ----- an automaton over no variables


def test_coefficient_over_the_empty_alphabet_is_the_mass():
    a = make_pga((), 2, [Edge(0, 1, Fraction(1, 3))], {0: ONE}, {0: H, 1: ONE})
    assert coefficient(a, {}) == coefficient(a, {"x": 0}) == Fraction(5, 6)
    assert coefficient(a, {}) == coefficient_table(a, {})[()]
    with pytest.raises(UnknownVariable):
        coefficient(a, {"x": 1})
    loop = make_pga((), 1, [Edge(0, 0, ONE)], {0: ONE}, {0: ONE})
    with pytest.raises(InfiniteMass):
        coefficient(loop, {})
