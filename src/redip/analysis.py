"""Total mass, normalization, validation, and exact coefficient tables.

The mass of an automaton is the sum of all accepting-path weights. Stripping
labels leaves a monotone linear system B = M B + F whose least nonnegative
solution gives, per state, the total weight of runs from that state to
acceptance; the mass is the initial-weight combination of that vector.

`mass` always solves over useful states only: those of `trim(a)`, or, given
a guard DFA, the useful pairs of automaton and DFA states, which are the
states of the trimmed product with the guard's counting automaton; the walk
in `constructions` lists them without ever building the product. On
such a system exact Gaussian elimination on (I - M) B = F is conclusive: any
nonnegative solution bounds every partial sum of the series, so a nonsingular
system with a nonnegative solution gives the least one, and a singular system
or a negative component certifies divergence. The exact simplex
(`method="lp"`) is not a production route; it is kept only to cross-check
elimination. The rows of I - M are integer pairs read off the arc weights,
and so are solves, a table's right-hand sides and the sums over initial
weights (see `linsolve`): a `Fraction` is built only for each value returned.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .constructions import _useful_pairs
from .errors import InfiniteMass, InvalidParameter, UnknownVariable, ZeroMass
from .guards import GuardDfa
from .linsolve import PAIR_ONE, ZERO, FactoredSystem, Pair, SingularSystem, simplex_min, sub_product
from .pga import Pga, reach_and_coreach, trim
from .rational import INF, ExtRational, is_finite


def _identity_minus(n: int, arcs: Iterable[tuple[int, int, Fraction]]) -> list[dict[int, Pair]]:
    """Rows of I - M for the arcs (src, dst, weight) of an n-state system, as
    pairs: labels dropped, parallel arcs summed, 1 on the diagonal."""
    rows = [{i: PAIR_ONE} for i in range(n)]
    for src, dst, w in arcs:
        row = rows[src]
        row[dst] = sub_product(row.get(dst, (0, 1)), (w.numerator, w.denominator), PAIR_ONE)
    return rows


def mass(
    a: Pga, dfa: Optional[GuardDfa] = None, method: str = "elimination"
) -> ExtRational:
    """Total weight of all accepting runs, or INF when it diverges.

    With a guard DFA (over the automaton's alphabet), only the runs whose
    final valuation the guard accepts count: the mass of the product with the
    guard's counting automaton, solved over its useful pairs without building
    the product. Either way the system solved is the trimmed one.

    method: "elimination" (the production route) or "lp" (the exact simplex,
    a cross-check of elimination).
    """
    if method not in ("elimination", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if dfa is not None:
        return _least_mass(*_useful_pairs(a, dfa), method)
    t = trim(a)
    return _least_mass(t.num_states, [e[:3] for e in t.edges], t.final, t.initial, method)


def _least_mass(n: int, arcs: Iterable[tuple[int, int, Fraction]], final: Mapping[int, Fraction],
                initial: Mapping[int, Fraction], method: str = "elimination") -> ExtRational:
    """The mass of a trimmed n-state system with arcs (src, dst, weight)."""
    if not final:  # no useful state
        return ZERO
    rows = _identity_minus(n, arcs)
    if method == "lp":
        dense = [[Fraction(*row[j]) if j in row else ZERO for j in range(n)] for row in rows]
        f = [final.get(q, ZERO) for q in range(n)]
        value = simplex_min([initial.get(q, ZERO) for q in range(n)], dense, f)
        return INF if value is None else value
    f = {q: (w.numerator, w.denominator) for q, w in final.items()}
    try:
        sol = FactoredSystem(n, rows).solve(f)
    except SingularSystem:
        return INF
    return INF if any(num < 0 for num, _ in sol.values()) else _dot(initial, sol)


def _dot(weights: Mapping[int, Fraction], vec: Mapping[int, tuple[int, int]]) -> Fraction:
    """The sum of w * vec[q] over the weights, on integers."""
    num, den = 0, 1
    for q, w in weights.items():
        (vn, vd), d = vec.get(q, (0, 1)), w.denominator
        num, den = num * d * vd + w.numerator * vn * den, den * d * vd
    return Fraction(num, den)


@dataclass(frozen=True)
class PgaReport:
    mass: ExtRational
    is_pga: bool
    issues: tuple[str, ...]


def validate_pga(a: Pga) -> PgaReport:
    """Mass check (a PGA has mass <= 1) plus structural warnings."""
    reach, coreach = reach_and_coreach(a)
    states = range(a.num_states)
    issues = [f"state {q} unreachable from any initial state" for q in states if q not in reach]
    issues += [f"state {q} cannot reach any final state" for q in sorted(reach - coreach)]
    m = mass(a)
    return PgaReport(mass=m, is_pga=is_finite(m) and m <= 1, issues=tuple(issues))


def normalize(a: Pga) -> Pga:
    """Scale initial weights by 1/mass so the behavior sums to one."""
    m = mass(a)
    if not is_finite(m):
        raise InfiniteMass("cannot normalize an automaton of infinite mass")
    if m == 0:
        raise ZeroMass("cannot normalize an automaton of mass zero")
    return replace(a, initial={q: w / m for q, w in a.initial.items()})


class CoefficientTable(dict):
    """Coefficients keyed by count tuples, plus the automaton's total mass
    (`total`), which the finiteness check has already solved for."""

    total: Fraction


def coefficient_table(a: Pga, bounds: Mapping[str, int]) -> CoefficientTable:
    """All coefficients with per-variable counts inside the given box.

    Keys are count tuples aligned with a.alphabet, in box order (the last
    variable's count varies fastest); variables missing from `bounds` get
    bound 0. Works level by level: within a level only unlabeled edges act,
    so each level is one solve against a factorization of (I - M_eps), valid
    whenever the total mass is finite. A level's right-hand side comes from
    the labeled arcs into the previous level's nonzero entries, and its
    sparse solve pays only for the entries that these can reach.
    """
    for var, bound in bounds.items():
        if var not in a.alphabet:
            raise UnknownVariable(f"{var!r} not in alphabet {a.alphabet}")
        if bound < 0:
            raise InvalidParameter(f"bound for {var} must be nonnegative, got {bound}")
    t = trim(a)
    box = [range(bounds.get(var, 0) + 1) for var in t.alphabet]
    n = t.num_states
    table = CoefficientTable()
    table.total = _least_mass(n, [e[:3] for e in t.edges], t.final, t.initial)
    if not is_finite(table.total):
        raise InfiniteMass("coefficient table of a diverging automaton")
    # labeled arcs (src, *weight pair) by target: a level reads only the last one's nonzeros
    arcs_into: dict[str, list[list[tuple[int, int, int]]]] = {
        var: [[] for _ in range(n)] for var in t.alphabet
    }
    for e in t.edges:
        if e.symbol is not None:
            arcs_into[e.symbol][e.dst].append((e.src, e.weight.numerator, e.weight.denominator))
    eps = [e[:3] for e in t.edges if e.symbol is None]
    try:
        system = FactoredSystem(n, _identity_minus(n, eps))
    except SingularSystem as exc:  # impossible for finite mass, checked above
        raise InfiniteMass(f"unlabeled-edge structure diverges: {exc}") from exc
    # keys run in box order, so key - e_i was solved stride[i] keys ago; the
    # deque holds one slab of vectors, never the whole grid
    stride = [math.prod(len(r) for r in box[i + 1 :]) for i in range(len(box))]
    recent: deque[dict[int, tuple[int, int]]] = deque(maxlen=max(stride, default=1))
    for key in itertools.product(*box):
        rhs = {} if any(key) else {q: (w.numerator, w.denominator) for q, w in t.final.items()}
        for i, var in enumerate(t.alphabet):
            if key[i]:
                into = arcs_into[var]
                for j, (pn, pd) in recent[-stride[i]].items():
                    for q, wn, wd in into[j]:  # rhs[q] += w * x[j]
                        (an, ad), tn, td = rhs.get(q, (0, 1)), wn * pn, wd * pd
                        rhs[q] = (an + tn, ad) if ad == td else (an * td + tn * ad, ad * td)
        vec = system.solve(rhs)
        recent.append(vec)
        table[key] = _dot(t.initial, vec)
    return table
