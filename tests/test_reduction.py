"""The forward reduction that `translate` runs after each step, checked by
exact equivalence: the span routine itself, run on the difference of the
unreduced and the reduced automaton (α₁ ⊕ −α₂, block-diagonal arcs, F₁ ⊕ F₂),
must find every basis vector with final weight 0 (Tzeng, SIAM J. Comput.
1992). Equal word series imply equal commutative series, so this proves the
posterior. The unreduced reference is `infer` with the reduction switched off."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from redip import Edge, InfeasibleObservation, infer, make_pga, parse_program
from redip.analysis import _forward_span, _reduced
from redip.pga import Pga

from conftest import rand_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def equivalent(a: Pga, b: Pga) -> bool:
    """Whether a and b have the same word series, by the forward span of a ⊕ −b."""
    n = a.num_states
    arcs = [*a.edges, *(Edge(p + n, q + n, w, s) for p, q, w, s in b.edges)]
    start = {**a.initial, **{q + n: -w for q, w in b.initial.items()}}
    final = {**a.final, **{q + n: w for q, w in b.final.items()}}
    span = _forward_span(n + b.num_states, arcs, start, final)
    return span is not None and all(w == 0 for w in span[1])


def geo_chain(k):
    return ";\n".join(["x += geometric(1/2)"] * k + [f"observe(x < {3 * k})", "y += x", "observe(y % 5 == 2)"])


NAMED = {
    **{name: (PROGRAMS / f"{name}.redip").read_text() for name in ("insurance", "parity", "thinning")},
    "geo-chain k=6": geo_chain(6),
    "one-var choice m=6": "; ".join(["{ x += 1 } [1/2] { x += 2 }"] * 6),
    "two-var choice m=6": "; ".join(["{ x += 1 } [1/2] { y += 1 }"] * 6),
    "shift n=20": "x += geometric(1/2); x += 20; observe(x < 30)",
}


def unreduced(p):
    """`infer(p)` with every step's reduction switched off: the raw translation."""
    with pytest.MonkeyPatch.context() as mp:
        # `redip.translate` names the function, so the module is found in sys.modules
        mp.setattr(sys.modules["redip.translate"], "_reduced", lambda a: a)
        return infer(p)


def check_posterior(p):
    result, raw = infer(p), unreduced(p).posterior
    posterior = result.posterior
    # no edge bound: a step's span starts from one initial state, so a later
    # step can end an edge or two longer than the unreduced translation
    assert posterior.num_states <= raw.num_states
    weights = [*(e.weight for e in posterior.edges), *posterior.initial.values(), *posterior.final.values()]
    assert all(w >= 0 for w in weights)
    assert equivalent(raw, posterior)


@pytest.mark.parametrize("name", list(NAMED))
def test_reduced_posterior_is_equivalent_to_the_raw_one(name):
    check_posterior(parse_program(NAMED[name]))


def test_reduction_sizes_follow_the_posterior():
    sizes = {name: (r.posterior.num_states, r.posterior.size)
             for name, r in ((name, infer(parse_program(NAMED[name]))) for name in NAMED)}
    assert sizes["geo-chain k=6"] == (35, 34)
    assert sizes["one-var choice m=6"][0] == 13
    assert sizes["shift n=20"] == (30, 29)


def test_every_step_stays_at_the_posterior_scale():
    geo = infer(parse_program(geo_chain(14)))
    assert [s.states for s in geo.steps[-3:]] == [42, 83, 75]
    two = infer(parse_program("; ".join(["{ x += 1 } [1/2] { y += 1 }"] * 12)))
    assert max(s.states for s in two.steps) <= 14
    assert (two.posterior.num_states, two.posterior.size) == (14, 24)
    one = infer(parse_program("; ".join(["{ x += 1 } [1/2] { x += 2 }"] * 10)))
    assert max(s.states for s in one.steps) <= 21
    ladder = infer(parse_program("; ".join(["x += bernoulli(1/2); x--"] * 9)))
    assert max(s.states for s in ladder.steps) <= 2 and ladder.posterior.num_states == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_reduced_posteriors_of_random_programs_are_equivalent(seed):
    rng = random.Random(seed)
    p = rand_program(rng, size=rng.randint(1, 8))
    try:
        check_posterior(p)
    except InfeasibleObservation:
        return


def test_difference_check_catches_a_scaled_edge_and_a_dropped_basis_vector():
    p = parse_program(geo_chain(6))
    raw, reduced = unreduced(p).posterior, infer(p).posterior
    assert raw.num_states > reduced.num_states == 35 and equivalent(raw, reduced)
    first, *rest = reduced.edges
    doubled = make_pga(reduced.alphabet, reduced.num_states, [first._replace(weight=2 * first.weight), *rest],
                       reduced.initial, reduced.final)
    assert not equivalent(raw, doubled)
    last = reduced.num_states - 1
    dropped = make_pga(reduced.alphabet, last, [e for e in reduced.edges if last not in (e.src, e.dst)],
                       reduced.initial, {q: w for q, w in reduced.final.items() if q != last})
    assert not equivalent(raw, dropped)


def test_the_span_takes_a_signed_start_and_closes_unlabeled_arcs():
    # x^0 + 1/2 x via an unlabeled arc, against itself and against x^0 + 1/4 x
    a = make_pga(("x",), 3, [(0, 1, Fraction(1, 2), None), (1, 2, 1, "x")], {0: 1}, {0: 1, 2: 1})
    b = make_pga(("x",), 2, [(0, 1, Fraction(1, 2), "x")], {0: 1}, {0: 1, 1: 1})
    c = make_pga(("x",), 2, [(0, 1, Fraction(1, 4), "x")], {0: 1}, {0: 1, 1: 1})
    assert equivalent(a, b) and equivalent(b, a)
    assert not equivalent(a, c)
    arcs, final = _forward_span(a.num_states, a.edges, a.initial, a.final)
    assert (arcs, final) == ([Edge(0, 1, Fraction(1), "x")], [Fraction(1), Fraction(1, 2)])


def test_a_span_is_kept_only_when_smaller_and_nonnegative():
    # (y/2)* (1/2) (y/2)* (y/2): its two-vector span needs the weight -1/4
    signed = make_pga(("y",), 3, [(0, 0, Fraction(1, 2), "y"), (0, 1, Fraction(1, 2), None),
                                  (1, 1, Fraction(1, 2), "y"), (1, 2, Fraction(1, 2), "y")], {0: 1}, {2: 1})
    arcs, final = _forward_span(signed.num_states, signed.edges, signed.initial, signed.final)
    assert len(final) == 2 and min(e.weight for e in arcs) == Fraction(-1, 4)
    # x x + (x/4)* in three initial states: four states span it, with four edges for three
    wider = make_pga(("x",), 5, [(0, 1, 1, "x"), (1, 2, 1, "x"), (4, 4, Fraction(1, 4), "x")],
                     {0: Fraction(1, 3), 3: Fraction(2, 9), 4: Fraction(4, 9)}, {2: 1, 3: 1, 4: Fraction(3, 4)})
    arcs, final = _forward_span(wider.num_states, wider.edges, wider.initial, wider.final)
    assert (len(final), len(arcs)) == (4, 4)
    # deterministic: every state's unit vector is in the span
    chain = make_pga(("x",), 3, [(0, 1, Fraction(1, 2), "x"), (1, 2, 1, "x")], {0: 1}, {1: 1, 2: 1})
    assert _forward_span(chain.num_states, chain.edges, chain.initial, chain.final) is None
    for a in (signed, wider, chain, make_pga(("x",), 1, [], {0: 1}, {0: 1})):
        assert _reduced(a) is a
