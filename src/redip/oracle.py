"""Reference interpreter: small-step execution, exact enumeration, sampling.

This module never goes through the automaton constructions, so it can serve
as an independent check of the translation. Distribution probabilities use
closed forms (math.comb and powers of exact fractions), not the distribution
automata. Sampling distributions are truncated at a configurable bound; the
probability mass beyond the bound is tracked separately as a residual, which
turns every comparison into a two-sided bound instead of a guess.

The one supported coupling: a custom distribution has no closed form, so its
probabilities are the coefficients of the automaton that the engine's own
loader builds from its file, read by `_custom_pmf` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

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
from .errors import InvalidAutomaton, InvalidParameter, UnsupportedIid
from .guards import guard_satisfies
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
from .pga import Edge, Pga, trim

Valuation = tuple[int, ...]


# ---------------------------------------------------------------- configs


@dataclass(frozen=True)
class Running:
    program: Program
    valuation: Valuation


@dataclass(frozen=True)
class Terminated:
    valuation: Valuation


@dataclass(frozen=True)
class Violation:
    """Sink reached by a failed observation."""


Config = Union[Running, Terminated, Violation]


# ---------------------------------------------------------------- pmfs


def _custom_pmf(spec: Custom, bound: int) -> list[Fraction]:
    """Exact pmf of a file-defined distribution at 0..bound: the coefficients
    of the automaton that the engine builds from the file, which refuses a
    file exactly as `infer` does."""
    return list(coefficient_table(build_dist_pga(spec, "x", ("x",)), {"x": bound}).values())


def dist_pmf(spec: DistSpec, k: int) -> Fraction:
    """Exact probability of drawing k, by formula."""
    if k < 0:
        return Fraction(0)
    if isinstance(spec, Geometric):
        return spec.p * (1 - spec.p) ** k
    if isinstance(spec, Bernoulli):
        if k == 0:
            return 1 - spec.p
        return spec.p if k == 1 else Fraction(0)
    if isinstance(spec, Dirac):
        return Fraction(1) if k == spec.value else Fraction(0)
    if isinstance(spec, Uniform):
        return Fraction(1, spec.size) if k < spec.size else Fraction(0)
    if isinstance(spec, Binomial):
        if k > spec.trials:
            return Fraction(0)
        return math.comb(spec.trials, k) * spec.p**k * (1 - spec.p) ** (spec.trials - k)
    if isinstance(spec, NegBinomial):
        r = spec.successes
        if r == 0:
            return Fraction(1) if k == 0 else Fraction(0)
        return math.comb(k + r - 1, k) * spec.p**r * (1 - spec.p) ** k
    if isinstance(spec, Custom):
        return _custom_pmf(spec, k)[k]
    raise TypeError(f"no closed-form pmf for {spec!r}")


class _PmfTable:
    """Per-enumeration cache of pmf rows, one row per distribution."""

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.rows: dict[DistSpec, list[Fraction]] = {}

    def row(self, spec: DistSpec) -> list[Fraction]:
        if spec not in self.rows:
            if isinstance(spec, Custom):
                self.rows[spec] = _custom_pmf(spec, self.truncation)
            else:
                self.rows[spec] = [dist_pmf(spec, k) for k in range(self.truncation + 1)]
        return self.rows[spec]


# ---------------------------------------------------------------- small step


def _store(sigma: Valuation, idx: int, value: int) -> Valuation:
    return sigma[:idx] + (value,) + sigma[idx + 1 :]


def step(
    cfg: Running, alphabet: tuple[str, ...], truncation: int, pmfs: Optional[_PmfTable] = None
) -> tuple[list[tuple[Fraction, Config]], Fraction]:
    """One execution step. Returns the weighted successor configurations and
    the probability mass cut off by the sampling truncation."""
    pmfs = pmfs or _PmfTable(truncation)
    p = cfg.program
    sigma = cfg.valuation
    env = dict(zip(alphabet, sigma))

    def at(var: str) -> int:
        return alphabet.index(var)

    if isinstance(p, SetZero):
        return [(Fraction(1), Terminated(_store(sigma, at(p.var), 0)))], Fraction(0)
    if isinstance(p, IncrConst):
        idx = at(p.var)
        return [(Fraction(1), Terminated(_store(sigma, idx, sigma[idx] + p.amount)))], Fraction(0)
    if isinstance(p, IncrVar):
        idx = at(p.var)
        new = sigma[idx] + sigma[at(p.source)]
        return [(Fraction(1), Terminated(_store(sigma, idx, new)))], Fraction(0)
    if isinstance(p, IncrDist):
        idx = at(p.var)
        row = pmfs.row(p.dist)
        succs: list[tuple[Fraction, Config]] = []
        total = Fraction(0)
        for k, prob in enumerate(row):
            if prob:
                succs.append((prob, Terminated(_store(sigma, idx, sigma[idx] + k))))
                total += prob
        return succs, 1 - total
    if isinstance(p, IncrIid):
        raise UnsupportedIid("iid increments have no finite exact enumeration here; sample instead")
    if isinstance(p, Decrement):
        idx = at(p.var)
        return [(Fraction(1), Terminated(_store(sigma, idx, max(sigma[idx] - 1, 0))))], Fraction(0)
    if isinstance(p, Observe):
        if guard_satisfies(env, p.guard):
            return [(Fraction(1), Terminated(sigma))], Fraction(0)
        return [(Fraction(1), Violation())], Fraction(0)
    if isinstance(p, Choice):
        return (
            [(p.prob, Running(p.left, sigma)), (1 - p.prob, Running(p.right, sigma))],
            Fraction(0),
        )
    if isinstance(p, IfElse):
        branch = p.then_branch if guard_satisfies(env, p.guard) else p.else_branch
        return [(Fraction(1), Running(branch, sigma))], Fraction(0)
    if isinstance(p, Seq):
        inner, residual = step(Running(p.first, sigma), alphabet, truncation, pmfs)
        succs = []
        for w, c in inner:
            if isinstance(c, Terminated):
                succs.append((w, Running(p.second, c.valuation)))
            elif isinstance(c, Violation):
                succs.append((w, c))
            else:
                succs.append((w, Running(Seq(c.program, p.second), c.valuation)))
        return succs, residual
    raise TypeError(f"not a program: {p!r}")


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
    start: Optional[list[tuple[Valuation, Fraction]]] = None,
) -> OracleReport:
    """Exact outcome distribution by exhausting every configuration.

    Program size strictly shrinks along each step, so the configuration graph
    is a DAG and outcomes can be memoized per configuration; the graph is
    walked with an explicit stack, so long programs do not recurse. `start` is a
    weighted list of initial valuations (a prior's support); default is the
    all-zero valuation with weight one.
    """
    if truncation < 0:
        raise InvalidParameter(f"truncation must be nonnegative, got {truncation}")
    alphabet = alphabet if alphabet is not None else program_vars(p)
    pmfs = _PmfTable(truncation)
    memo: dict[Running, tuple[dict[Valuation, Fraction], Fraction, Fraction]] = {}

    def outcome(root: Running) -> tuple[dict[Valuation, Fraction], Fraction, Fraction]:
        # depth first without recursion: a configuration waits on the stack with
        # its successor list, below them, until they are all memoized
        stack: list[tuple[Running, Optional[tuple]]] = [(root, None)]
        while stack:
            cfg, expanded = stack.pop()
            if expanded is None:
                if cfg not in memo:
                    expanded = step(cfg, alphabet, truncation, pmfs)
                    stack.append((cfg, expanded))
                    stack.extend((c, None) for _, c in expanded[0] if isinstance(c, Running))
                continue
            succs, resid = expanded
            term: dict[Valuation, Fraction] = {}
            viol = Fraction(0)
            for w, c in succs:
                if isinstance(c, Terminated):
                    term[c.valuation] = term.get(c.valuation, Fraction(0)) + w
                elif isinstance(c, Violation):
                    viol += w
                else:
                    sub_term, sub_viol, sub_resid = memo[c]
                    for sig, q in sub_term.items():
                        term[sig] = term.get(sig, Fraction(0)) + w * q
                    viol += w * sub_viol
                    resid += w * sub_resid
            memo[cfg] = (term, viol, resid)
        return memo[root]

    if start is None:
        start = [((0,) * len(alphabet), Fraction(1))]
    report = OracleReport(alphabet=alphabet, truncation=truncation)
    for sigma, weight in start:
        if len(sigma) != len(alphabet):
            raise ValueError(f"valuation {sigma} does not match alphabet {alphabet}")
        term, viol, resid = outcome(Running(p, sigma))
        for sig, q in term.items():
            report.terminal[sig] = report.terminal.get(sig, Fraction(0)) + weight * q
        report.violation += weight * viol
        report.residual += weight * resid
    return report


# ---------------------------------------------------------------- sampling


def _sample_dist(spec: DistSpec, rng: random.Random, pmf_cache: dict) -> int:
    if isinstance(spec, Geometric):
        p = float(spec.p)
        k = 0
        while rng.random() >= p:
            k += 1
        return k
    if isinstance(spec, Bernoulli):
        return 1 if rng.random() < float(spec.p) else 0
    if isinstance(spec, Dirac):
        return spec.value
    if isinstance(spec, Uniform):
        return rng.randrange(spec.size)
    if isinstance(spec, Binomial):
        p = float(spec.p)
        return sum(1 for _ in range(spec.trials) if rng.random() < p)
    if isinstance(spec, NegBinomial):
        p = float(spec.p)
        total = 0
        for _ in range(spec.successes):
            while rng.random() >= p:
                total += 1
        return total
    if isinstance(spec, Custom):
        # inverse transform over the file's coefficients, extended on demand
        pmf = pmf_cache.setdefault(spec, [])
        u = rng.random()
        k = 0
        acc = 0.0
        while True:
            if k >= len(pmf):
                pmf[:] = [float(p) for p in _custom_pmf(spec, max(2 * len(pmf), 16) - 1)]
            acc += pmf[k]
            if u < acc or acc >= 1.0:
                return k
            k += 1
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
    index = {v: i for i, v in enumerate(alphabet)}
    pmf_cache: dict = {}

    def run(prog: Program, sigma: list[int]) -> bool:
        """Execute in place; False on a violated observation."""
        if isinstance(prog, Seq):
            return run(prog.first, sigma) and run(prog.second, sigma)
        if isinstance(prog, SetZero):
            sigma[index[prog.var]] = 0
        elif isinstance(prog, IncrConst):
            sigma[index[prog.var]] += prog.amount
        elif isinstance(prog, IncrVar):
            sigma[index[prog.var]] += sigma[index[prog.source]]
        elif isinstance(prog, IncrDist):
            sigma[index[prog.var]] += _sample_dist(prog.dist, rng, pmf_cache)
        elif isinstance(prog, IncrIid):
            n = sigma[index[prog.count_var]]
            total = 0
            for _ in range(n):
                total += _sample_dist(prog.dist, rng, pmf_cache)
            sigma[index[prog.var]] += total
        elif isinstance(prog, Decrement):
            i = index[prog.var]
            sigma[i] = max(sigma[i] - 1, 0)
        elif isinstance(prog, Observe):
            return guard_satisfies(dict(zip(alphabet, sigma)), prog.guard)
        elif isinstance(prog, Choice):
            branch = prog.left if rng.random() < float(prog.prob) else prog.right
            return run(branch, sigma)
        elif isinstance(prog, IfElse):
            env = dict(zip(alphabet, sigma))
            branch = prog.then_branch if guard_satisfies(env, prog.guard) else prog.else_branch
            return run(branch, sigma)
        else:
            raise TypeError(f"not a program: {prog!r}")
        return True

    counts: dict[Valuation, int] = {}
    violations = 0
    for _ in range(samples):
        sigma = [0] * len(alphabet)
        if run(p, sigma):
            key = tuple(sigma)
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
    """Differential check of the automaton translation against enumeration.

    With residual mass rho lost to truncation, the oracle's coefficient L and
    the automaton's coefficient C must satisfy L <= C <= L + rho for every
    enumerated valuation, and the normalizing constant and violation mass must
    land in the corresponding intervals. A zero residual forces equalities.
    """
    from .translate import translate

    tr = translate(p, prior)
    alphabet = tr.alphabet
    # tr.prior already lives on the working alphabet, so its support
    # valuations line up with the oracle's
    start = None if prior is None else prior_support(tr.prior)
    report = enumerate_program(p, alphabet, truncation, start)
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
