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
elimination. Every route reads one linear view of a trimmed system,
`_System`: arcs give M, the unlabeled M_eps and one M_x per letter; `solve`
applies (I - M)^-1, or (I - M_eps)^-1 with `eps=True`, each factored on first
use; `step` adds M_x v into a right-hand side. All of it runs on integer pairs
(see `linsolve`): a `Fraction` is built only for each value returned.

`_reduced`, run by `translate` on each step but a concat, swaps an automaton
for the span of its forward vectors α·E·M_w·E when smaller and nonnegative:
the same series, z and answers. `_forward_span` builds it on a `_System` of
the reversed arcs, whose `solve(v, eps=True)` is v·E and whose `step` adds v·M_x.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .constructions import _useful_pairs
from .errors import InfiniteMass, InvalidParameter, UnknownVariable, ZeroMass
from .guards import GuardDfa
from .linsolve import ONE, PAIR_ONE, ZERO, FactoredSystem, Pair, SingularSystem, simplex_min, sub_product
from .pga import Edge, Pga, Symbol, make_pga, reach_and_coreach, trim
from .rational import INF, ExtRational, is_finite

_Vector = dict[int, tuple[int, int]]  # state -> nonzero entry as a (numerator, denominator) pair


class _System:
    """The linear view of a trimmed system: arcs (src, dst, weight, symbol), α, and F as pairs."""

    def __init__(self, n: int, arcs: Sequence[tuple[int, int, Fraction, Symbol]],
                 final: Mapping[int, Fraction], initial: Mapping[int, Fraction]):
        self.n, self.arcs, self.initial = n, arcs, initial
        self.final = {q: (w.numerator, w.denominator) for q, w in final.items()}
        self._factored: dict[bool, FactoredSystem] = {}
        self._into: dict[str, list[list[tuple[int, int, int]]]] = {}

    def rows(self, eps: bool = False) -> list[dict[int, Pair]]:
        """Rows of I - M, or of I - M_eps (unlabeled arcs only), as pairs:
        labels dropped, parallel arcs summed in arc order, 1 on the diagonal."""
        rows = [{i: PAIR_ONE} for i in range(self.n)]
        for src, dst, w, symbol in self.arcs:
            if symbol is None or not eps:
                row = rows[src]
                row[dst] = sub_product(row.get(dst, (0, 1)), (w.numerator, w.denominator), PAIR_ONE)
        return rows

    def solve(self, rhs: _Vector, eps: bool = False) -> _Vector:
        """x = (I - M)^-1 rhs, or with eps the closure (I - M_eps)^-1 rhs."""
        if eps not in self._factored:
            self._factored[eps] = FactoredSystem(self.n, self.rows(eps))
        return self._factored[eps].solve(rhs)

    def step(self, var: str, vec: _Vector, rhs: _Vector) -> None:
        """rhs += M_var vec, reading only the var-arcs into vec's nonzero entries."""
        if (into := self._into.get(var)) is None:  # var-arcs (src, *weight pair) by target
            into = self._into[var] = [[] for _ in range(self.n)]
            for src, dst, w, symbol in self.arcs:
                if symbol == var:
                    into[dst].append((src, w.numerator, w.denominator))
        for j, (pn, pd) in vec.items():
            for q, wn, wd in into[j]:  # rhs[q] += w * vec[j]
                (an, ad), tn, td = rhs.get(q, (0, 1)), wn * pn, wd * pd
                rhs[q] = (an + tn, ad) if ad == td else (an * td + tn * ad, ad * td)

    def mass(self, method: str = "elimination") -> ExtRational:
        """The initial-weight combination of the least solution of B = M B + F."""
        if not self.final:  # no useful state
            return ZERO
        if method == "lp":
            dense = [[Fraction(*row.get(j, (0, 1))) for j in range(self.n)] for row in self.rows()]
            f = [Fraction(*self.final.get(q, (0, 1))) for q in range(self.n)]
            value = simplex_min([self.initial.get(q, ZERO) for q in range(self.n)], dense, f)
            return INF if value is None else value
        try:
            sol = self.solve(self.final)
        except SingularSystem:
            return INF
        return INF if any(num < 0 for num, _ in sol.values()) else _dot(self.initial, sol)


def _forward_span(n: int, arcs: Sequence[Edge], start: Mapping[int, Fraction],
                  final: Mapping[int, Fraction]) -> Optional[tuple[list[Edge], list[Fraction]]]:
    """The span of the forward vectors α·E·M_w·E over words w, E = (I - M_eps)^-1,
    as the arcs and final weights of an automaton with no unlabeled arc: state i
    is basis vector b_i, b_0 = α·E starts, b_i·M_a·E = Σ_j w·b_j over arcs
    (i, j, w, a), and b_i·F is b_i's final weight. Candidates come breadth first,
    letters sorted, and reduce in one pass against echelon rows pivoted at their
    smallest state: an independent one is a new state reached by weight 1, a
    dependent one's coordinates are arcs. None once the basis has n vectors."""
    system = _System(n, [(dst, src, w, s) for src, dst, w, s in arcs], final, start)  # solves v·E
    letters = sorted({s for *_, s in arcs if s is not None})
    eps = any(s is None for *_, s in arcs)  # else E = I
    basis: list[_Vector] = []
    rows: list[tuple[int, Pair, _Vector, _Vector]] = []  # pivot, -1/row[pivot], row, row over the basis
    out: list[Edge] = []
    todo = deque([(-1, "", {q: (w.numerator, w.denominator) for q, w in start.items() if w})])
    while todo:
        src, letter, vec = todo.popleft()  # vec = b_src·M_letter, or α
        if eps:  # v·E, else v - 0: v in lowest terms
            vec = system.solve(vec, eps=True)
        else:
            vec = {q: sub_product(v, (0, 1), (0, 1)) for q, v in vec.items()}
        residual, minus = {q: v for q, v in vec.items() if v[0]}, {}  # vec = residual - Σ minus[j]·b_j
        for pivot, (sn, sd), row, over in rows:
            if (r := residual.get(pivot)) is not None:
                c = (-r[0] * sn, r[1] * sd)  # residual[pivot] / row[pivot]
                for target, entries in ((residual, row), (minus, over)):
                    for q, v in entries.items():
                        if (value := sub_product(target.get(q, (0, 1)), c, v)).numerator:
                            target[q] = value
                        else:
                            del target[q]
        if not residual:
            out += [Edge(src, j, Fraction(-cn, cd), letter) for j, (cn, cd) in minus.items()]
            continue
        if src >= 0:
            out.append(Edge(src, len(basis), ONE, letter))
        minus[len(basis)] = PAIR_ONE
        basis.append(vec)
        if len(basis) == n:
            return None
        pn, pd = residual[pivot := min(residual)]
        rows.append((pivot, Pair(-pd, pn) if pn > 0 else Pair(pd, -pn), residual, minus))
        for a in letters:
            system.step(a, vec, rhs := {})
            todo.append((len(basis) - 1, a, rhs))
    return out, [_dot(final, b) for b in basis]


def _reduced(a: Pga) -> Pga:
    """`a`'s forward span when it has fewer states, no more edges and no
    negative weight, else `a`. A one-state or a deterministic automaton (one
    initial state, no unlabeled arc, one arc per state and letter) spans every
    state's unit vector, so it is not spanned."""
    if a.num_states == 1 or (len(a.initial) == 1 and all(e.symbol for e in a.edges)
                             and len({(e.src, e.symbol) for e in a.edges}) == a.size):
        return a
    arcs, final = _forward_span(a.num_states, a.edges, a.initial, a.final) or ([], [])
    if not final or len(arcs) > a.size or any(w.numerator < 0 for w in [*(e.weight for e in arcs), *final]):
        return a
    return make_pga(a.alphabet, len(final), arcs, {0: ONE}, dict(enumerate(final)))


def mass(a: Pga, dfa: Optional[GuardDfa] = None, method: str = "elimination") -> ExtRational:
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
        return _System(*_useful_pairs(a, dfa)).mass(method)
    t = trim(a)
    return _System(t.num_states, t.edges, t.final, t.initial).mass(method)


def _dot(weights: Mapping[int, Fraction], vec: _Vector) -> Fraction:
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
    bound 0. Works level by level: a level's right-hand side is one `step` per
    letter from the level below, and its solve closes under the unlabeled arcs
    alone, against an I - M_eps that is nonsingular when the mass is finite.
    """
    for var, bound in bounds.items():
        if var not in a.alphabet:
            raise UnknownVariable(f"{var!r} not in alphabet {a.alphabet}")
        if bound < 0:
            raise InvalidParameter(f"bound for {var} must be nonnegative, got {bound}")
    t = trim(a)
    box = [range(bounds.get(var, 0) + 1) for var in t.alphabet]
    system = _System(t.num_states, t.edges, t.final, t.initial)
    table = CoefficientTable()
    table.total = system.mass()
    if not is_finite(table.total):
        raise InfiniteMass("coefficient table of a diverging automaton")
    # keys run in box order, so key - e_i was solved stride[i] keys ago; the
    # deque holds one slab of vectors, never the whole grid
    stride = [math.prod(len(r) for r in box[i + 1 :]) for i in range(len(box))]
    recent: deque[_Vector] = deque(maxlen=max(stride, default=1))
    for key in itertools.product(*box):
        rhs = {} if any(key) else dict(system.final)
        for i, var in enumerate(t.alphabet):
            if key[i]:
                system.step(var, recent[-stride[i]], rhs)
        vec = system.solve(rhs, eps=True)
        recent.append(vec)
        table[key] = _dot(t.initial, vec)
    return table
