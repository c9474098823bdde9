"""Reference interpreter: exact enumeration, sampling, differential check.

This module never goes through the automaton constructions, so it can serve
as an independent check of the translation. The enumeration runs a program
one statement at a time over a weighted set of valuations, the forward
reading of the operational semantics. Distribution probabilities use
closed forms (math.comb and powers of exact fractions), not the distribution
automata. Sampling distributions are truncated at a configurable bound; the
probability mass beyond the bound is tracked separately as a residual, which
turns every comparison into a two-sided bound instead of a guess.

The one supported coupling: a custom distribution has no closed form, so
`pmf_row` reads its probabilities as the coefficients of the automaton that
the engine's own loader builds from its file.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from typing import Callable, Iterable, Optional

from .analysis import coefficient_table
from .dists import (
    Bernoulli,
    Binomial,
    Custom,
    Dirac,
    DistSpec,
    Geometric,
    NegBinomial,
    Uniform,
    build_dist_pga,
)
from .errors import InvalidAutomaton, InvalidParameter, UnknownVariable, UnsupportedIid
from .guards import Guard, guard_satisfies
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
    program_vars,
)
from .pga import Edge, Pga, extend_alphabet, trim

Valuation = tuple[int, ...]
Weighted = dict[Valuation, Fraction]
Rows = dict[DistSpec, list[Fraction]]  # each distribution's pmf_row
ONE = Fraction(1)


# ---------------------------------------------------------------- pmfs


def pmf_row(spec: DistSpec, bound: int) -> list[Fraction]:
    """Exact probabilities of drawing 0..bound. A geometric is a negative
    binomial with one success and a Bernoulli a binomial with one trial, as
    in `build_dist_pga`; a custom file's row is the coefficients of the
    automaton that the engine's loader builds from it, which refuses a file
    exactly as `infer` does."""
    if isinstance(spec, Custom):
        return list(coefficient_table(build_dist_pga(spec, "x", ("x",)), {"x": bound}).values())
    return [_closed_form(spec, k) for k in range(bound + 1)]


def _closed_form(spec: DistSpec, k: int) -> Fraction:
    """Exact probability that a built-in distribution draws k >= 0."""
    if isinstance(spec, Dirac):
        return Fraction(k == spec.value)
    if isinstance(spec, Uniform):
        return Fraction(k < spec.size, spec.size)
    if isinstance(spec, (Bernoulli, Binomial)):
        n, p = getattr(spec, "trials", 1), spec.p
        return math.comb(n, k) * p**k * (1 - p) ** (n - k) if k <= n else Fraction(0)
    if isinstance(spec, (Geometric, NegBinomial)):
        r, p = getattr(spec, "successes", 1), spec.p
        return math.comb(k + r - 1, k) * p**r * (1 - p) ** k if r else Fraction(k == 0)
    raise TypeError(f"no pmf for {spec!r}")


def dist_pmf(spec: DistSpec, k: int) -> Fraction:
    """Exact probability of drawing k."""
    if k < 0:
        return Fraction(0)
    return pmf_row(spec, k)[k] if isinstance(spec, Custom) else _closed_form(spec, k)


# ---------------------------------------------------------------- enumeration


@dataclass
class OracleReport:
    alphabet: tuple[str, ...]
    truncation: int
    terminal: dict[Valuation, Fraction] = field(default_factory=dict)
    violation: Fraction = Fraction(0)
    residual: Fraction = Fraction(0)

    @property
    def terminal_mass(self) -> Fraction:
        return sum(self.terminal.values(), Fraction(0))


def enumerate_program(
    p: Program,
    alphabet: Optional[tuple[str, ...]] = None,
    truncation: int = 40,
    prior: Optional[Pga] = None,
) -> OracleReport:
    """Exact outcome distribution, pushed through the program one statement
    at a time.

    A statement maps a weighted set of valuations to the valuations it ends
    in: a choice splits the weight, an `if` splits the set, a failed
    `observe` moves weight to the violation mass, and a draw spreads weight
    over 0..truncation, the rest going to the residual. Zero weights are
    kept, so every valuation that some run reaches is reported, and a
    statement that no run reaches is never executed. Runs start from the
    support of the acyclic automaton `prior`, or from the all-zero
    valuation; the default alphabet is `translate`'s `working_alphabet`.
    """
    if truncation < 0:
        raise InvalidParameter(f"truncation must be nonnegative, got {truncation}")
    if alphabet is None:
        from .translate import working_alphabet

        alphabet = working_alphabet(p, prior)
    elif missing := [v for v in program_vars(p) if v not in alphabet]:
        raise UnknownVariable(f"program variables {missing} not in alphabet {alphabet}")
    report = OracleReport(alphabet=alphabet, truncation=truncation)
    index = {v: i for i, v in enumerate(alphabet)}
    rows: Rows = {}

    def holds(g: Guard, sigma: Valuation) -> bool:
        return guard_satisfies(dict(zip(alphabet, sigma)), g)

    def either(left: Program, on_left: Weighted, right: Program, on_right: Weighted) -> Weighted:
        out = run(left, on_left)
        for sigma, w in run(right, on_right).items():
            out[sigma] = out.get(sigma, Fraction(0)) + w
        return out

    def run(prog: Program, at: Weighted) -> Weighted:
        """The valuations `prog` ends in from the weighted valuations `at`."""
        if not at:
            return at
        if isinstance(prog, Seq):
            return run(prog.second, run(prog.first, at))
        if isinstance(prog, Choice):
            return either(prog.left, {s: prog.prob * w for s, w in at.items()},
                          prog.right, {s: (1 - prog.prob) * w for s, w in at.items()})
        if isinstance(prog, IfElse):
            sat = {s: w for s, w in at.items() if holds(prog.guard, s)}
            return either(prog.then_branch, sat,
                          prog.else_branch, {s: w for s, w in at.items() if s not in sat})
        if isinstance(prog, Observe):
            sat = {s: w for s, w in at.items() if holds(prog.guard, s)}
            report.violation += sum(at.values()) - sum(sat.values())
            return sat
        i = index.get(getattr(prog, "var", None))  # every other statement sets one variable
        if isinstance(prog, SetZero):
            spread: Callable[[Valuation], Iterable[tuple[int, Fraction]]] = lambda s: ((0, ONE),)
        elif isinstance(prog, IncrConst):
            spread = lambda s: ((s[i] + prog.amount, ONE),)
        elif isinstance(prog, IncrVar):
            spread = lambda s, j=index[prog.source]: ((s[i] + s[j], ONE),)
        elif isinstance(prog, Decrement):
            spread = lambda s: ((max(s[i] - 1, 0), ONE),)
        elif isinstance(prog, IncrDist):
            if prog.dist not in rows:
                rows[prog.dist] = pmf_row(prog.dist, truncation)
            row = rows[prog.dist]
            report.residual += (1 - sum(row)) * sum(at.values())
            spread = lambda s: ((s[i] + k, q) for k, q in enumerate(row) if q)
        elif isinstance(prog, IncrIid):
            raise UnsupportedIid("iid increments have no finite exact enumeration here; sample instead")
        else:
            raise TypeError(f"not a program: {prog!r}")
        out: Weighted = {}
        for s, w in at.items():
            for value, q in spread(s):
                t = s[:i] + (value,) + s[i + 1 :]
                out[t] = out.get(t, Fraction(0)) + w * q
        return out

    zero = [((0,) * len(alphabet), ONE)]
    start = zero if prior is None else prior_support(extend_alphabet(prior, alphabet))
    report.terminal = run(p, dict(start))
    return report


# ---------------------------------------------------------------- sampling


def _sampler(spec: DistSpec, rng: random.Random) -> Callable[[], int]:
    """A draw from the distribution, one `random()` per geometric or
    Bernoulli trial; a custom file is read at its first draw."""
    rand = rng.random
    if isinstance(spec, Dirac):
        value = spec.value
        return lambda: value
    if isinstance(spec, Uniform):
        return partial(rng.randrange, spec.size)
    if isinstance(spec, (Bernoulli, Binomial)):
        trials, p = range(getattr(spec, "trials", 1)), float(spec.p)

        def successes() -> int:
            k = 0
            for _ in trials:
                if rand() < p:
                    k += 1
            return k

        return successes
    if isinstance(spec, (Geometric, NegBinomial)):
        rounds, p = range(getattr(spec, "successes", 1)), float(spec.p)

        def failures() -> int:
            k = 0
            for _ in rounds:
                while rand() >= p:
                    k += 1
            return k

        return failures
    if isinstance(spec, Custom):
        cdf: list[float] = []

        def inverse_transform() -> int:
            u = rand()
            while not cdf or cdf[-1] <= u:  # the row is extended on demand
                cdf[:] = accumulate(map(float, pmf_row(spec, max(2 * len(cdf), 16) - 1)))
            return bisect_right(cdf, u)

        return inverse_transform
    raise TypeError(f"cannot sample {spec!r}")


@dataclass
class McReport:
    alphabet: tuple[str, ...]
    samples: int
    accepted: int
    violations: int
    counts: dict[Valuation, int]

    def estimate(self, sigma: Valuation) -> float:
        if self.accepted == 0:
            return float("nan")
        return self.counts.get(sigma, 0) / self.accepted


def mc_sample(p: Program, samples: int, seed: int) -> McReport:
    """Monte Carlo posterior estimation with rejection of violating runs.

    Supports iid increments (the count variable is read at run time), so this
    is the route for validating programs the exact oracle refuses.
    """
    if samples < 0:
        raise InvalidParameter(f"sample count must be nonnegative, got {samples}")
    alphabet = program_vars(p)
    rng = random.Random(seed)
    env = dict.fromkeys(alphabet, 0)
    draw = cache(lambda spec: _sampler(spec, rng))  # one sampler per distribution

    def compile_(prog: Program) -> Callable[[], bool]:
        """A closure that runs `prog` on `env` in place; False on a violated
        observation."""
        if isinstance(prog, Seq):
            first, second = compile_(prog.first), compile_(prog.second)
            return lambda: first() and second()
        if isinstance(prog, Observe):
            return partial(guard_satisfies, env, prog.guard)
        if isinstance(prog, Choice):
            left, right, prob = compile_(prog.left), compile_(prog.right), float(prog.prob)
            return lambda: left() if rng.random() < prob else right()
        if isinstance(prog, IfElse):
            then, other, g = compile_(prog.then_branch), compile_(prog.else_branch), prog.guard
            return lambda: then() if guard_satisfies(env, g) else other()
        var = getattr(prog, "var", None)  # every other statement sets one variable
        if isinstance(prog, SetZero):
            value: Callable[[], int] = lambda: 0
        elif isinstance(prog, IncrConst):
            value = lambda amount=prog.amount: env[var] + amount
        elif isinstance(prog, IncrVar):
            value = lambda source=prog.source: env[var] + env[source]
        elif isinstance(prog, IncrDist):
            sample = draw(prog.dist)
            value = lambda: env[var] + sample()
        elif isinstance(prog, IncrIid):
            sample, count = draw(prog.dist), prog.count_var
            value = lambda: env[var] + sum([sample() for _ in range(env[count])])
        elif isinstance(prog, Decrement):
            value = lambda: max(env[var] - 1, 0)
        else:
            raise TypeError(f"not a program: {prog!r}")

        def assign() -> bool:
            env[var] = value()
            return True

        return assign

    run = compile_(p)
    zero = dict(env)
    counts: dict[Valuation, int] = {}
    violations = 0
    for _ in range(samples):
        env.update(zero)
        if run():
            key = tuple(env.values())
            counts[key] = counts.get(key, 0) + 1
        else:
            violations += 1
    return McReport(
        alphabet=alphabet,
        samples=samples,
        accepted=samples - violations,
        violations=violations,
        counts=counts,
    )


# ---------------------------------------------------------------- comparison


@dataclass
class ComparisonResult:
    ok: bool
    truncation: int
    residual: Fraction
    worst_discrepancy: Fraction
    mismatches: list[str]


def prior_support(prior: Pga) -> list[tuple[Valuation, Fraction]]:
    """Weighted support of an acyclic automaton: each state's {valuation:
    weight} map is pushed along its out-edges in topological order."""
    a = trim(prior)
    idx = {v: i for i, v in enumerate(a.alphabet)}
    succ: list[list[Edge]] = [[] for _ in range(a.num_states)]
    indegree = [0] * a.num_states
    for e in a.edges:
        succ[e.src].append(e)
        indegree[e.dst] += 1
    zero = (0,) * len(a.alphabet)
    at: list[dict[Valuation, Fraction]] = [{} for _ in range(a.num_states)]
    for q, w in a.initial.items():
        at[q][zero] = w
    ready = [q for q in range(a.num_states) if indegree[q] == 0]
    support: dict[Valuation, Fraction] = {}
    for q in ready:  # grows while it is read: Kahn's algorithm
        here = at[q]
        if q in a.final:
            for counts, w in here.items():
                support[counts] = support.get(counts, Fraction(0)) + w * a.final[q]
        for e in succ[q]:
            there = at[e.dst]
            for counts, w in here.items():
                if e.symbol is not None:
                    i = idx[e.symbol]
                    counts = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                there[counts] = there.get(counts, Fraction(0)) + w * e.weight
            indegree[e.dst] -= 1
            if indegree[e.dst] == 0:
                ready.append(e.dst)
    if len(ready) < a.num_states:
        raise InvalidAutomaton("prior support extraction needs an acyclic automaton")
    return sorted(support.items())


def compare(
    p: Program,
    prior: Optional[Pga] = None,
    truncation: int = 60,
) -> ComparisonResult:
    """Differential check of the translation against enumeration, both from `prior`.

    With residual mass rho lost to truncation, the oracle's coefficient L and
    the automaton's coefficient C must satisfy L <= C <= L + rho for every
    enumerated valuation, and the normalizing constant and violation mass must
    land in the corresponding intervals. A zero residual forces equalities.
    """
    from .translate import translate

    tr = translate(p, prior)
    alphabet = tr.alphabet
    report = enumerate_program(p, alphabet, truncation, prior)
    rho = report.residual

    mismatches: list[str] = []
    worst = Fraction(0)

    def check(label: str, low: Fraction, value: Fraction, high: Fraction) -> None:
        nonlocal worst
        if not low <= value <= high:
            gap = max(low - value, value - high)
            worst = max(worst, gap)
            mismatches.append(f"{label}: {value} outside [{low}, {high}]")

    # the box {0} when no run terminated: the table still solves for z
    bounds = {
        v: max((sig[i] for sig in report.terminal), default=0) for i, v in enumerate(alphabet)
    }
    table = coefficient_table(tr.automaton, bounds)
    for sig, low in sorted(report.terminal.items()):
        check(f"coefficient {dict(zip(alphabet, sig))}", low, table[sig], low + rho)
    z = table.total
    check("normalizing constant", report.terminal_mass, z, report.terminal_mass + rho)
    check("violation mass", report.violation, tr.prior_mass - z, report.violation + rho)

    return ComparisonResult(
        ok=not mismatches,
        truncation=truncation,
        residual=rho,
        worst_discrepancy=worst,
        mismatches=mismatches,
    )
