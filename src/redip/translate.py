"""Compile core programs into probability generating automata.

Each statement becomes one automaton construction applied to the automaton
accumulated so far (starting from the prior):

* `x := 0`            relabel x-edges to plain weights
* `x += n`            concatenate an n-step point-mass chain
* `x += D`            concatenate the distribution automaton for D
* `x += y`            splice a two-edge gadget (one y, one x) into every
                      y-labeled transition
* `x += iid(D, y)`    splice (single y-edge followed by the automaton of D)
                      into every y-labeled transition
* `x--`               monus: guarded shift on the positive part, unchanged
                      zero part
* `observe(g)`        product with the guard's counting automaton
* `{p} [w] {q}`       weighted union of the two translated branches
* `if (g) ...`        union of the guard-filtered branch translations

After every construction the automaton is trimmed, then contracted: each
unlabeled arc that is a state's only way out or in is folded into its
neighbours, so the bridges of concat, transition-subst and `x--` do not pile
up. Every step but a concat is then reduced exactly (`analysis._reduced`).
A step records its raw size, checked against theory's growth bounds, and
the edges and states it keeps. A statement's step is named by its printed
text, `program_to_text`; the choice, filter and join steps name their split.
The product is the construction for `observe`, `if` and (inside it) `x--`;
no query builds it.

The queries on a translated automaton are masses too: `guard_mass` takes the
mass under the guard's DFA as a filter, which solves over the useful pairs
of automaton and DFA states without building the product; `coefficient` is
the guard mass of an equality guard, and `marginal` reads a coefficient
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .analysis import _reduced, coefficient_table, mass, normalize
from .constructions import (
    concat,
    decrement,
    label_subst_one,
    product,
    transition_subst,
    weighted_union,
)
from .dists import Dirac, build_dist_pga
from .errors import (
    InfeasibleObservation,
    InfiniteMass,
    InvalidAutomaton,
    InvalidParameter,
    RedipError,
    UnknownVariable,
)
from .guards import Guard, build_guard_dfa, dfa_complement, equality_guard, guard_negate
from .lang import (
    Choice,
    Decrement,
    IfElse,
    IncrConst,
    IncrDist,
    IncrIid,
    IncrVar,
    Observe,
    Program,
    Seq,
    SetZero,
    guard_to_text,
    program_to_text,
    program_vars,
)
from .pga import Pga, contract, extend_alphabet, make_pga, trim, unit_pga
from .rational import is_finite


@dataclass(frozen=True)
class StepRecord:
    """One construction: its raw edge count, then the edges and states kept."""

    construction: str
    detail: str
    pre_trim_size: int
    post_trim_size: int
    states: int


@dataclass(frozen=True)
class TranslationResult:
    automaton: Pga
    alphabet: tuple[str, ...]
    prior: Pga
    prior_mass: Fraction
    steps: tuple[StepRecord, ...]


class _Translator:
    def __init__(self, alphabet: tuple[str, ...]):
        self.alphabet = alphabet
        self.steps: list[StepRecord] = []

    def record(self, construction: str, detail: str, raw: Pga) -> Pga:
        """Trim and contract `raw`, then reduce it unless it is a concat: its span seldom shrinks."""
        kept = contract(trim(raw))
        kept = kept if construction == "concat" else _reduced(kept)
        self.steps.append(StepRecord(construction, detail, raw.size, kept.size, kept.num_states))
        return kept

    def apply(self, a: Pga, p: Program) -> Pga:
        alpha = self.alphabet
        if isinstance(p, Seq):
            return self.apply(self.apply(a, p.first), p.second)
        if isinstance(p, Choice):
            left = self.apply(a, p.left)
            right = self.apply(a, p.right)
            raw = weighted_union(left, right, p.prob, 1 - p.prob)
            return self.record("union", f"choice [{p.prob}]", raw)
        if isinstance(p, IfElse):
            g = p.guard
            dfa = build_guard_dfa(g, alpha)
            then_in = self.record("product", f"if-filter ({guard_to_text(g)})", product(a, dfa))
            # the complement is the DFA of guard_negate(g): complementing is an involution
            else_in = self.record(
                "product",
                f"else-filter ({guard_to_text(guard_negate(g))})",
                product(a, dfa_complement(dfa)),
            )
            then_out = self.apply(then_in, p.then_branch)
            else_out = self.apply(else_in, p.else_branch)
            raw = weighted_union(then_out, else_out, Fraction(1), Fraction(1))
            return self.record("union", "if-join", raw)
        if isinstance(p, SetZero):
            name, raw = "subst-one", label_subst_one(a, p.var)
        elif isinstance(p, (IncrConst, IncrDist)):
            dist = Dirac(p.amount) if isinstance(p, IncrConst) else p.dist
            name, raw = "concat", concat(a, build_dist_pga(dist, p.var, alpha))
        elif isinstance(p, IncrVar):
            gadget = make_pga(alpha, 3, [(0, 1, 1, p.source), (1, 2, 1, p.var)], {0: 1}, {2: 1})
            name, raw = "transition-subst", transition_subst(a, p.source, gadget)
        elif isinstance(p, IncrIid):
            one_count = make_pga(alpha, 2, [(0, 1, 1, p.count_var)], {0: 1}, {1: 1})
            gadget = concat(one_count, build_dist_pga(p.dist, p.var, alpha))
            name, raw = "transition-subst", transition_subst(a, p.count_var, gadget)
        elif isinstance(p, Decrement):
            name, raw = "decrement", decrement(a, p.var)
        elif isinstance(p, Observe):
            name, raw = "product", product(a, build_guard_dfa(p.guard, alpha))
        else:
            raise TypeError(f"not a program: {p!r}")
        return self.record(name, program_to_text(p), raw)


def working_alphabet(p: Program, prior: Optional[Pga]) -> tuple[str, ...]:
    """Program variables in appearance order, then any extra prior variables."""
    pvars = program_vars(p)
    if prior is None:
        return pvars
    return pvars + tuple(v for v in prior.alphabet if v not in pvars)


def translate(p: Program, prior: Optional[Pga] = None) -> TranslationResult:
    """Run the program through the automaton constructions, each step reduced,
    starting from the prior (default: point mass at the all-zero valuation)."""
    alphabet = working_alphabet(p, prior)
    start = unit_pga(alphabet) if prior is None else extend_alphabet(prior, alphabet)
    prior_mass = mass(start)
    if not is_finite(prior_mass) or prior_mass > 1:
        raise InvalidAutomaton(f"prior mass {prior_mass} exceeds 1")
    tr = _Translator(alphabet)
    final = tr.apply(trim(start), p)
    return TranslationResult(final, alphabet, start, prior_mass, tuple(tr.steps))


@dataclass(frozen=True)
class InferenceResult:
    alphabet: tuple[str, ...]
    unnormalized: Pga
    posterior: Pga
    normalizing_constant: Fraction
    prior_mass: Fraction
    violation_mass: Fraction
    steps: tuple[StepRecord, ...]


def infer(p: Program, prior: Optional[Pga] = None) -> InferenceResult:
    """Exact posterior inference: translate (each step reduced), solve for the
    normalizing constant on the translation, `unnormalized`, and rescale it.
    Raises InfeasibleObservation when every run violates an observation."""
    tr = translate(p, prior)
    z = mass(tr.automaton)
    # increments preserve mass and filtering only removes it, so z is a
    # probability; a diverging z would mean the translation itself is broken
    if not (is_finite(z) and z <= tr.prior_mass):
        raise RedipError(
            f"internal error: normalizing constant {z} exceeds prior mass {tr.prior_mass}"
        )
    if z == 0:
        raise InfeasibleObservation("all program runs violate an observation")
    return InferenceResult(
        alphabet=tr.alphabet,
        unnormalized=tr.automaton,
        posterior=normalize(tr.automaton),
        normalizing_constant=z,
        prior_mass=tr.prior_mass,
        violation_mass=tr.prior_mass - z,
        steps=tr.steps,
    )


def guard_mass(a: Pga, g: Guard) -> Fraction:
    """Mass of the runs of `a` whose final valuation satisfies the guard."""
    return _finite(mass(a, build_guard_dfa(g, a.alphabet)))


def _finite(value: Fraction) -> Fraction:
    if not is_finite(value):
        raise InfiniteMass("guard query diverges; automaton has unbounded mass")
    return value


def coefficient(a: Pga, valuation: Mapping[str, int]) -> Fraction:
    """Exact coefficient of the behavior at one valuation: the guard mass of
    the conjunction of per-variable equality guards."""
    for var, count in valuation.items():
        if var not in a.alphabet:
            if count != 0:
                raise UnknownVariable(f"{var!r} not in alphabet {a.alphabet}")
        elif count < 0:
            raise InvalidParameter(f"negative count {count} for {var}")
    if not a.alphabet:  # a series over no variables has one coefficient, its mass
        return _finite(mass(a))
    return guard_mass(a, equality_guard(valuation, a.alphabet))


def marginal(a: Pga, var: str, upto: int) -> tuple[list[Fraction], Fraction]:
    """Pointwise marginal of one variable: ([P(var=0..upto)], tail mass)."""
    if var not in a.alphabet:
        raise UnknownVariable(f"{var!r} not in alphabet {a.alphabet}")
    if upto < 0:
        raise InvalidParameter(f"marginal bound must be nonnegative, got {upto}")
    # relabeling keeps every edge, so it keeps a trimmed automaton trimmed;
    # the table trims once anyway
    b = a
    for other in a.alphabet:
        if other != var:
            b = contract(label_subst_one(b, other))
    table = coefficient_table(b, {var: upto})
    # only var has a nonzero bound, so the table runs through var = 0..upto
    probs = list(table.values())
    return probs, table.total - sum(probs)
