"""The benchmark's workloads: generated program text, queries and references.

Each workload is a list of cases. A case is one program's source text plus
the queries asked of its posterior. Every expected answer comes from outside
the engine's compilation path: closed forms for the two structured families
and the desk programs, and redip's enumeration oracle for the random corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional, Union

from corpus import random_program

# Structured families run at a fixed size, so that every seed does the same
# amount of work; their seed only renames the variables.
GEO_K = 14
LADDER_M = 18
CORPUS_PROGRAMS = 600
MARGINAL_UPTO = 5
ORACLE_TRUNCATION = 40
NAME_POOL = ("x", "y", "n", "u", "v", "w", "s", "t", "a", "b", "c", "d")
PROGRAMS_DIR = Path(__file__).resolve().parent / "programs"

Marginal = tuple[tuple[Fraction, ...], Fraction]
Answer = Union[Fraction, Marginal]


@dataclass(frozen=True)
class Query:
    """A guard-mass query (guard text) or a marginal of `var` up to `upto`."""

    guard: Optional[str] = None
    var: Optional[str] = None
    upto: int = 0


@dataclass(frozen=True)
class Expected:
    """Exact answers: the normalizing constant and one answer per query."""

    z: Fraction
    answers: tuple[Answer, ...]


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    queries: tuple[Query, ...]
    # None means the enumeration oracle is the reference
    expected: Optional[Expected] = None


@dataclass(frozen=True)
class Outcome:
    """What the pipeline produced for one case; z is None when infeasible."""

    z: Optional[Fraction]
    states: int
    edges: int
    posterior_json: str
    answers: tuple[Answer, ...]


def _names(seed: int, count: int) -> list[str]:
    return random.Random(seed).sample(NAME_POOL, count)


def geo_chain(seed: int, k: int = GEO_K) -> list[Case]:
    """k geometric(1/2) increments, a threshold and a mod-5 observation."""
    x, y = _names(seed, 2)
    lines = [f"{x} += geometric(1/2)"] * k
    lines += [f"observe({x} < {3 * k})", f"{y} += {x}", f"observe({y} % 5 == 2)"]
    # x is negative binomial(k, 1/2): P(x = j) = C(j+k-1, j) / 2^(j+k)
    kept = [
        Fraction(comb(j + k - 1, j), 2 ** (j + k)) if j % 5 == 2 else Fraction(0)
        for j in range(3 * k)
    ]
    z = sum(kept)
    marginal_y = (tuple(w / z for w in kept), Fraction(0))
    at_least_k = sum(kept[k:]) / z
    queries = (Query(var=y, upto=3 * k - 1), Query(guard=f"{x} >= {k}"))
    expected = Expected(z, (marginal_y, at_least_k))
    return [Case(f"geo-chain-{k}", ";\n".join(lines), queries, expected)]


def dec_ladder(seed: int, m: int = LADDER_M) -> list[Case]:
    """m/2 rounds of a bernoulli(1/2) bump followed by a decrement."""
    (x,) = _names(seed, 1)
    source = ";\n".join([f"{x} += bernoulli(1/2); {x}--"] * (m // 2))
    # every round ends at zero, so the posterior is the point mass x = 0
    expected = Expected(Fraction(1), (Fraction(1),))
    return [Case(f"dec-ladder-{m}", source, (Query(guard=f"{x} == 0"),), expected)]


def desk_programs() -> list[Case]:
    """The three example programs, with hand-derived exact posteriors."""
    upto = MARGINAL_UPTO
    # insurance: the README's marginal of x up to 4, extended by P(x = 5) from
    # the mixture 9/10 negbinomial(1, 1/2) + 1/10 negbinomial(2, 1/2)
    readme = [Fraction(0), Fraction(0), Fraction(21, 44), Fraction(1, 4), Fraction(23, 176)]
    readme_tail = Fraction(25, 176)
    z_ins = Fraction(11, 40)
    p5 = (Fraction(9, 10) / 2**6 + Fraction(1, 10) * 6 / 2**7) / z_ins
    insurance = Expected(z_ins, ((tuple(readme + [p5]), readme_tail - p5),))
    # parity: binomial(10, 1/2) kept on odd counts, which carry half the mass
    par = [Fraction(comb(10, j), 2**9) if j % 2 else Fraction(0) for j in range(upto + 1)]
    parity = Expected(Fraction(1, 2), ((tuple(par), 1 - sum(par)),))
    # thinning: x has generating function 3/(4 - s), so P(x = j) = 3/4^(j+1);
    # conditioning on x >= 1 divides by 1/4
    thin = [Fraction(0)] + [Fraction(3, 4**j) for j in range(1, upto + 1)]
    thinning = Expected(Fraction(1, 4), ((tuple(thin), 1 - sum(thin)),))
    cases = []
    for name, expected in (("insurance", insurance), ("parity", parity), ("thinning", thinning)):
        source = (PROGRAMS_DIR / f"{name}.redip").read_text(encoding="utf-8")
        cases.append(Case(name, source, (Query(var="x", upto=upto),), expected))
    return cases


def small_corpus(seed: int, programs: int = CORPUS_PROGRAMS) -> list[Case]:
    """Seeded random core programs plus the desk programs."""
    rng = random.Random(seed)
    cases = []
    for i in range(programs):
        source, used = random_program(rng)
        query = Query(var=rng.choice(used), upto=MARGINAL_UPTO)
        cases.append(Case(f"random-{i}", source, (query,)))
    return cases + desk_programs()


WORKLOADS = {
    "geo-chain": geo_chain,
    "dec-ladder": dec_ladder,
    "small-corpus": small_corpus,
}


def mismatches(redip, case: Case, out: Outcome) -> list[str]:
    """Differences between an outcome and the case's reference answers."""
    if case.expected is not None:
        if out.z != case.expected.z:
            return [f"normalizing constant {out.z}, expected {case.expected.z}"]
        if out.answers != case.expected.answers:
            return [f"answers {out.answers}, expected {case.expected.answers}"]
        return []
    return _oracle_mismatches(redip, case, out)


def _oracle_mismatches(redip, case: Case, out: Outcome) -> list[str]:
    """Bracket every reported value by the oracle's truncated enumeration:
    an unnormalized value lies in [enumerated, enumerated + residual]."""
    program = redip.parse_program(case.source)
    errors = []
    if not redip.compare(program, truncation=ORACLE_TRUNCATION).ok:
        errors.append("oracle comparison of the translation failed")
    alphabet = redip.working_alphabet(program, None)
    report = redip.enumerate_program(program, alphabet, ORACLE_TRUNCATION)
    rho, found = report.residual, report.terminal_mass

    def bracket(label: str, low: Fraction, value: Fraction) -> None:
        if not low <= value <= low + rho:
            errors.append(f"{label}: {value} outside [{low}, {low + rho}]")

    if out.z is None:
        if found != 0:
            errors.append(f"reported infeasible, but the oracle finds mass {found}")
        return errors
    bracket("normalizing constant", found, out.z)
    for query, (probs, tail) in zip(case.queries, out.answers):
        i = alphabet.index(query.var)
        lows = [Fraction(0)] * (query.upto + 2)  # last slot: the tail
        for valuation, weight in report.terminal.items():
            lows[min(valuation[i], query.upto + 1)] += weight
        for j, value in enumerate(probs + (tail,)):
            bracket(f"{query.var} marginal slot {j}", lows[j], value * out.z)
    return errors
