"""Independent execution oracles: exact enumeration and Monte Carlo.

The enumeration oracle runs a program one statement at a time over a
weighted set of valuations, with no automaton machinery, truncating
unbounded draws and carrying the lost mass as an explicit residual. Everything it reports therefore brackets the exact
value from below.
"""

import hashlib
import importlib
from fractions import Fraction
from math import comb, sqrt

import pytest

from redip import (
    Bernoulli,
    Binomial,
    Dirac,
    Edge,
    Geometric,
    NegBinomial,
    Uniform,
    build_dist_pga,
    compare,
    enumerate_program,
    infer,
    make_pga,
    marginal,
    parse_program,
    save_pga,
)
from redip.errors import (
    CustomMassNotOne,
    CustomNotNormalized,
    InvalidAutomaton,
    UnknownVariable,
    UnsupportedIid,
)
from redip.lang import Observe
from redip.oracle import dist_pmf, mc_sample, pmf_row, prior_support
from redip.translate import working_alphabet

H = Fraction(1, 2)
ONE = Fraction(1)

INSURANCE = (
    "{r := 0} [9/10] {r := 1}; "
    "if (r == 0) {x += negbinomial(1, 1/2)} else {x += negbinomial(2, 1/2)}; "
    "observe(x >= 2)"
)

EVERY_STATEMENT = (
    "a += geometric(1/2); b += bernoulli(1/3); c += dirac(2);"
    "{ c += uniform(3) } [1/2] { c += binomial(3, 1/2) };"
    "d += negbinomial(2, 1/2);"
    "if (a >= 4) { a := 0 } else { b += a };"
    "c -= 1; e += iid(bernoulli(1/2), c); d += 1;"
    "observe(d % 2 == 1)"  # rejects 4/9 of the runs
)


def two_point_prior():
    return make_pga(
        ("x", "y"),
        3,
        [Edge(0, 1, H, "y"), Edge(1, 2, ONE, "y")],
        {0: ONE},
        {0: H, 2: ONE},
    )


# ----- single statements


def test_enumerate_constant_increments_add_up():
    rep = enumerate_program(parse_program("x += 1; x += 2"))
    assert rep.terminal == {(3,): ONE}
    assert rep.violation == rep.residual == 0


def test_enumerate_observe_keeps_satisfying_runs_and_drops_the_rest():
    rep = enumerate_program(parse_program("{ x += 2 } [1/3] { x := 0 }; observe(x >= 1)"))
    assert rep.terminal == {(2,): Fraction(1, 3)}
    assert rep.violation == Fraction(2, 3)


def test_enumerate_decrement_saturates_at_zero():
    rep = enumerate_program(parse_program("x += 1; x--; x--"))
    assert rep.terminal == {(0,): ONE}


def test_enumerate_keeps_a_zero_weight_valuation():
    rep = enumerate_program(parse_program("{ x += 1 } [0] { skip }"))
    assert rep.terminal == {(1,): 0, (0,): ONE}


@pytest.mark.parametrize(
    "source",
    [
        "x += iid(bernoulli(1/2), y)",
        "{ x += iid(bernoulli(1/2), y) } [0] { skip }",  # a zero-weight run still reaches it
    ],
)
def test_enumerate_refuses_a_reached_iid(source):
    with pytest.raises(UnsupportedIid, match="sample instead"):
        enumerate_program(parse_program(source))


def test_enumerate_skips_an_iid_that_no_run_reaches():
    iid = "x += iid(bernoulli(1/2), y)"
    rep = enumerate_program(parse_program(f"observe(x >= 1); {iid}"))
    assert rep.terminal == {}
    assert rep.violation == 1
    rep = enumerate_program(parse_program(f"if (x >= 1) {{ {iid} }} else {{ x += 1 }}"))
    assert rep.terminal == {(1, 0): ONE}


# ----- full enumeration


def test_enumerate_geometric_with_residual():
    rep = enumerate_program(parse_program("x += geometric(1/2)"), truncation=3)
    assert rep.terminal == {(k,): H ** (k + 1) for k in range(4)}
    assert rep.residual == Fraction(1, 16)
    assert rep.violation == 0
    assert rep.terminal_mass == Fraction(15, 16)


def test_enumerate_finite_program_is_exact():
    rep = enumerate_program(parse_program("{x += 1} [1/3] {x += uniform(2)}"))
    assert rep.residual == 0
    assert rep.terminal == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}


def test_enumerate_insurance_brackets_the_inference_values():
    rep = enumerate_program(parse_program(INSURANCE), truncation=40)
    z = Fraction(11, 40)
    assert rep.terminal_mass <= z <= rep.terminal_mass + rep.residual
    # violating runs happen at small claim counts only, so that side is exact
    assert rep.violation == Fraction(29, 40)
    assert rep.residual < Fraction(1, 2 ** 38)


def test_enumerate_with_weighted_start():
    rep = enumerate_program(parse_program("x += y"), prior=two_point_prior())
    assert rep.terminal == {(0, 0): H, (2, 2): H}


def test_enumerate_takes_the_working_alphabet_of_the_prior():
    # a Bernoulli(1/2) prior over y, a variable the program never names
    p = parse_program("x += 1")
    prior = make_pga(("y",), 2, [Edge(0, 1, H, "y")], {0: ONE}, {0: H, 1: ONE})
    rep = enumerate_program(p, prior=prior)
    assert rep.alphabet == working_alphabet(p, prior) == ("x", "y")
    assert rep.terminal == {(1, 0): H, (1, 1): H}
    with pytest.raises(InvalidAutomaton, match="drops variables"):
        enumerate_program(p, alphabet=("x",), prior=prior)


def test_enumerate_refuses_an_alphabet_without_a_program_variable():
    with pytest.raises(UnknownVariable, match=r"\['y'\] not in alphabet \('x',\)"):
        enumerate_program(parse_program("x += 1; y += 1"), alphabet=("x",))


def test_enumerate_from_a_prior_with_a_dead_and_an_unreachable_state():
    # the fingerprint's dead.json: mass 3/4, state 2 is dead and loops, state
    # 3 is unreachable; the values are the ones the start-list oracle gave
    prior = make_pga(
        ("x",),
        4,
        [Edge(0, 1, H, "x"), Edge(0, 2, Fraction(1, 4)),
         Edge(2, 2, ONE, "x"), Edge(3, 1, ONE, "x")],
        {0: ONE},
        {0: Fraction(1, 4), 1: ONE},
    )
    rep = enumerate_program(parse_program("x += bernoulli(1/3); observe(x < 2)"), prior=prior)
    assert rep.terminal == {(0,): Fraction(1, 6), (1,): Fraction(5, 12)}
    assert rep.violation == Fraction(1, 6)
    assert rep.residual == 0


def test_enumerate_observe_false_is_all_violation():
    rep = enumerate_program(parse_program("x := 0; observe(x >= 1)"))
    assert rep.terminal == {}
    assert rep.violation == 1


@pytest.mark.parametrize("length", [200, 400])
def test_enumerate_hashes_each_statement_a_bounded_number_of_times(monkeypatch, length):
    """The enumeration keys its maps by valuation, never by statement, so a
    straight-line program's statements are not hashed at all."""
    calls = []
    walk = Observe.__hash__

    def counting(self):
        calls.append(self)
        return walk(self)

    p = parse_program("; ".join(["x += bernoulli(1/2)"] + ["observe(x < 1)"] * length))
    monkeypatch.setattr(Observe, "__hash__", counting)
    rep = enumerate_program(p)
    monkeypatch.undo()
    assert rep.terminal == {(0,): H}
    assert calls == []


# ----- pmf helpers


def test_enumeration_builds_each_distribution_row_once(monkeypatch):
    """The geometric is drawn twice, the second time from six valuations,
    and the Bernoulli from six: still one row each."""
    oracle = importlib.import_module("redip.oracle")
    calls = []
    real = oracle.pmf_row

    def counting(spec, bound):
        calls.append((spec, bound))
        return real(spec, bound)

    monkeypatch.setattr(oracle, "pmf_row", counting)
    p = parse_program(
        "x += geometric(1/2); { x += geometric(1/2) } [1/2] { x += bernoulli(1/3) }"
    )
    rep = enumerate_program(p, truncation=5)
    assert calls == [(Geometric(H), 5), (Bernoulli(Fraction(1, 3)), 5)]
    assert rep.terminal_mass + rep.residual == 1


CLOSED_FORMS = [
    Dirac(3),
    Uniform(4),
    Bernoulli(Fraction(1, 3)),
    Binomial(5, Fraction(2, 7)),
    Geometric(Fraction(1, 3)),
    NegBinomial(3, Fraction(1, 4)),
    NegBinomial(0, H),
]


@pytest.mark.parametrize("spec", CLOSED_FORMS, ids=repr)
def test_dist_pmf_of_a_closed_form_is_one_value_of_its_row(monkeypatch, spec):
    values = [pmf_row(spec, k)[k] for k in range(61)]
    oracle = importlib.import_module("redip.oracle")

    def refuse(spec, bound):
        raise AssertionError("dist_pmf built a row")

    monkeypatch.setattr(oracle, "pmf_row", refuse)
    assert [dist_pmf(spec, k) for k in range(61)] == values
    assert dist_pmf(spec, -1) == 0


def test_dist_pmf_binomial_row_sums_to_one():
    spec = Binomial(10, Fraction(2, 5))
    assert sum(dist_pmf(spec, k) for k in range(11)) == 1


# ----- prior support


def test_prior_support_of_two_point_prior():
    assert prior_support(two_point_prior()) == [
        ((0, 0), H),
        ((0, 2), H),
    ]


def test_prior_support_multiplies_endpoints_and_aligns_counts():
    a = make_pga(
        ("x", "y"),
        3,
        [Edge(0, 1, Fraction(1, 3), "y"), Edge(1, 2, Fraction(1), "y")],
        {0: Fraction(1, 5)},
        {1: Fraction(1, 2), 2: Fraction(1, 7)},
    )
    assert prior_support(a) == [((0, 1), Fraction(1, 30)), ((0, 2), Fraction(1, 105))]


def test_prior_support_of_a_long_binomial_is_exact():
    # one path per subset of the 40 trials: a path listing would never end
    prior = build_dist_pga(Binomial(40, H), "x", ("x",))
    assert prior_support(prior) == [((k,), Fraction(comb(40, k), 2**40)) for k in range(41)]
    assert compare(parse_program("observe(x >= 20)"), prior=prior).ok


def test_prior_support_refuses_loops():
    loop = make_pga(("x",), 1, [Edge(0, 0, H, "x")], {0: ONE}, {0: H})
    with pytest.raises(InvalidAutomaton):
        prior_support(loop)


# ----- differential comparison


def test_compare_insurance_program():
    res = compare(parse_program(INSURANCE), truncation=40)
    assert res.ok
    assert res.mismatches == []


def test_compare_finite_program_is_exact():
    res = compare(
        parse_program("{ x += y } [1/2] { skip }; observe(x == 0)"),
        prior=two_point_prior(),
        truncation=30,
    )
    assert res.ok
    assert res.residual == 0
    assert res.worst_discrepancy == 0


def test_compare_catches_a_broken_translation(monkeypatch):
    """Sanity check that the comparison has teeth: skew the translated
    automaton and the report must flag it."""
    import importlib

    translate_mod = importlib.import_module("redip.translate")
    from redip import compare as run_compare

    real_translate = translate_mod.translate

    def skewed(p, prior=None):
        t = real_translate(p, prior)
        a = t.automaton
        initial = {q: w * Fraction(9, 10) for q, w in a.initial.items()}
        broken = make_pga(a.alphabet, a.num_states, a.edges, initial, a.final)
        return type(t)(
            automaton=broken,
            alphabet=t.alphabet,
            prior=t.prior,
            prior_mass=t.prior_mass,
            steps=t.steps,
        )

    monkeypatch.setattr(translate_mod, "translate", skewed)
    res = run_compare(parse_program("x += uniform(3)"), truncation=10)
    assert not res.ok
    assert res.mismatches


# ----- Monte Carlo


def test_mc_is_seed_deterministic():
    p = parse_program("y += 4; x += iid(bernoulli(1/2), y)")
    a = mc_sample(p, 3000, seed=11)
    b = mc_sample(p, 3000, seed=11)
    assert a == b
    assert a.accepted == 3000


def test_mc_rejection_rate_tracks_violation_mass():
    # observe(x == 0) on a fair coin rejects about half the runs
    p = parse_program("{x += 1} [1/2] {skip}; observe(x == 0)")
    rep = mc_sample(p, 20000, seed=3)
    assert rep.violations + rep.accepted == rep.samples
    assert abs(rep.violations / rep.samples - 0.5) < 0.02
    assert rep.estimate((0,)) == 1.0


def test_mc_iid_matches_binomial_roughly():
    p = parse_program("y += 6; x += iid(bernoulli(1/2), y)")
    rep = mc_sample(p, 30000, seed=5)
    assert rep.alphabet == ("y", "x")  # first-appearance order
    spec = Binomial(6, H)
    for k in range(7):
        want = float(dist_pmf(spec, k))
        got = rep.estimate((6, k))
        assert abs(got - want) < 0.02, k


def test_mc_matches_inference_on_every_statement_and_distribution():
    """Every statement form and every built-in distribution, sampled: the
    acceptance rate estimates z, and each variable's sampled marginal the
    exact one, both within 4 standard errors."""
    p = parse_program(EVERY_STATEMENT)
    post = infer(p)
    samples = 40_000
    rep = mc_sample(p, samples, seed=2024)
    z = float(post.normalizing_constant)
    assert z == 5 / 9
    assert abs(rep.accepted / samples - z) <= 4 * sqrt(z * (1 - z) / samples)
    upto = 8
    for i, var in enumerate(rep.alphabet):
        probs, tail = marginal(post.posterior, var, upto)
        hits = [0] * (upto + 2)  # the last slot counts the tail
        for sigma, count in rep.counts.items():
            hits[min(sigma[i], upto + 1)] += count
        for k, q in enumerate(probs + [tail]):
            q = float(q)
            got = hits[k] / rep.accepted
            assert abs(got - q) <= 4 * sqrt(q * (1 - q) / rep.accepted), (var, k)


def test_mc_counts_are_pinned_at_a_seed():
    """The sampler's rng calls are fixed: one `random()` per geometric,
    negative-binomial, Bernoulli or binomial trial, `randrange` for a uniform,
    one `random()` per choice and per custom draw. So a seed's counts stay
    the same from version to version; the digest pins them."""
    rep = mc_sample(parse_program(EVERY_STATEMENT), 2_000, seed=2024)
    digest = hashlib.sha256(repr(sorted(rep.counts.items())).encode()).hexdigest()[:16]
    assert (rep.accepted, rep.violations, digest) == (1136, 864, "3a196c87f256af33")


# ----- custom distributions


def test_oracle_on_a_custom_distribution(tmp_path):
    """A two-sided die read from a file, drawn twice: 0, 1, 2 with
    probabilities 1/4, 1/2, 1/4, and the observation drops the 0."""
    die = make_pga(("t",), 2, [Edge(0, 1, H, "t")], {0: ONE}, {0: H, 1: ONE})
    path = tmp_path / "die.json"
    save_pga(die, str(path))
    p = parse_program(f'x += custom("{path}"); x += custom("{path}"); observe(x >= 1)')

    rep = enumerate_program(p, truncation=5)
    assert rep.terminal == {(1,): H, (2,): Fraction(1, 4)}
    assert rep.violation == Fraction(1, 4)
    assert rep.residual == 0

    assert compare(p, truncation=5).ok

    mc = mc_sample(p, 20000, seed=13)
    assert abs(mc.violations / mc.samples - 0.25) < 0.02
    assert abs(mc.estimate((1,)) - 2 / 3) < 0.02




@pytest.mark.parametrize(
    "automaton, error",
    [
        # two variables: enumeration used to read the first and drop the rest
        (make_pga(("t", "u"), 2, [Edge(0, 1, H, "t"), Edge(0, 1, H, "u")], {0: ONE}, {1: ONE}),
         CustomNotNormalized),
        # mass 1/2: sampling used to wait forever for the pmf to sum to one
        (make_pga(("t",), 2, [Edge(0, 1, H, "t")], {0: ONE}, {1: ONE}), CustomMassNotOne),
    ],
)
def test_oracle_refuses_a_custom_file_as_infer_does(tmp_path, automaton, error):
    path = tmp_path / "dist.json"
    save_pga(automaton, str(path))
    p = parse_program(f'x += custom("{path}")')
    for run in (infer, enumerate_program, compare, lambda q: mc_sample(q, 10, seed=0)):
        with pytest.raises(error):
            run(p)
