"""Exact linear solvers over the rationals.

The production route to the least nonnegative solution of B = M B + F is
Gaussian elimination on (I - M) B = F with :class:`FactoredSystem`
(`analysis.mass`). On a trimmed system (every state reachable and
co-reachable with positive weight) it is conclusive: a unique solution that
is componentwise nonnegative is the least one, and a singular system or a
negative component means the least solution diverges.

:class:`FactoredSystem` pivots one strongly connected component of the row
graph at a time, sources first (:func:`strongly_connected_components`). The
acyclic part of a system then costs one pass over its entries to factor;
only states on a cycle are eliminated. A solve pays only for the solution
entries that can be nonzero: it back-substitutes just the pivots that the
right-hand side's nonzero entries reach (Gilbert & Peierls).

:func:`simplex_min` is an exact two-phase simplex for
`min I.B  s.t.  (I - M) B = F, B >= 0` (Bland's rule, so it terminates),
whose infeasibility certifies divergence. It is kept only to cross-check
elimination (`analysis.mass(..., method="lp")`).

The factorization and its solves run on integers: rows, recorded factors and
both sides of a solve hold (numerator, denominator) pairs, each reduced by one
gcd as it is made (:func:`sub_product`). The simplex runs on `Fraction`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
# a rational as integers, fields named like a Fraction's; reduced: lowest terms, denominator > 0
Pair = NamedTuple("Pair", [("numerator", int), ("denominator", int)])
PAIR_ONE = Pair(1, 1)


def sub_product(a: tuple[int, int], f: tuple[int, int], v: tuple[int, int]) -> Pair:
    """a - f * v in lowest terms, for rationals with positive denominators."""
    (an, ad), (fn, fd), (vn, vd) = a, f, v
    num, den = an * fd * vd - fn * vn * ad, ad * fd * vd
    g = gcd(num, den)
    return Pair(num // g, den // g)


class SingularSystem(Exception):
    """The coefficient matrix has no unique solution."""


def closure(seed: Iterable[int], succ: Callable[[int], Iterable[int]]) -> set[int]:
    """The nodes reachable from `seed` (seeds included) along `succ`: the one
    graph closure behind trimming, validation, the mass solve and the sparse
    back-substitution."""
    seen = set(seed)
    stack = list(seen)
    while stack:
        for t in succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def strongly_connected_components(n: int, succ: Sequence[Iterable[int]]) -> list[list[int]]:
    """The strongly connected components of the graph i -> succ[i] on 0..n-1,
    sinks first: each component comes after every component it reaches.

    Tarjan's algorithm with an explicit stack, so deep graphs cannot hit the
    recursion limit; the result depends only on the order of the input.
    """
    done = n + 1  # DFS number of a state whose component is already emitted
    index = [0] * n  # DFS number, 0 while unvisited
    low = [0] * n
    counter = itertools.count(1)
    stack: list[int] = []
    frames: list[tuple[int, Iterator[int], int]] = []
    components: list[list[int]] = []

    def enter(v: int) -> None:
        index[v] = low[v] = next(counter)
        frames.append((v, iter(succ[v]), len(stack)))
        stack.append(v)

    for root in range(n):
        if index[root]:
            continue
        enter(root)
        while frames:
            v, children, start = frames[-1]
            for w in children:
                if not index[w]:
                    enter(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    components.append(stack[start:])
                    del stack[start:]
                    for w in components[-1]:
                        index[w] = done
    return components


class FactoredSystem:
    """Sparse LU-style factorization of a square rational matrix.

    Rows are dicts column -> reduced Pair. Row i depends on the columns it
    holds, a graph i -> c whose strongly connected components are pivoted
    sources first, so no remaining row ever holds a pivoted column. A singleton
    pivots on its diagonal with no elimination; a cyclic component is
    eliminated greedily by row sparsity within its own rows and columns.
    Factoring costs one pass over the entries plus that elimination. The matrix
    is singular iff some component is. The factorization can be replayed
    against many right-hand sides via :meth:`solve`, whose back-substitution
    touches only the entries of the pivots it can reach.
    """

    def __init__(self, n: int, rows: list[dict[int, Pair]]):
        if len(rows) != n:
            raise ValueError("row count does not match dimension")
        work = [{c: v for c, v in r.items() if v.numerator} for r in rows]
        self.n = n
        # (target_row, pivot_row, factor): rhs[target] -= factor * rhs[pivot]
        self.ops: list[tuple[int, int, Pair]] = []
        # (pivot_row, pivot_col, row_dict) in elimination order; with ops, the only factor copy
        self.pivots: list[tuple[int, int, dict[int, Pair]]] = []
        for component in reversed(strongly_connected_components(n, work)):
            i = component[0]
            if len(component) > 1:
                self._eliminate(component, work)
            elif i in work[i]:
                self.pivots.append((i, i, work[i]))
            else:
                raise SingularSystem(f"no diagonal entry in acyclic row {i}")
        # pivot k's column feeds every pivot whose row holds it; back-substitution
        # runs from the last pivot to the first, so each must come before k
        rank = {col: k for k, (_, col, _) in enumerate(self.pivots)}
        self._rank_of_row = [0] * n
        self._feeds: list[list[int]] = [[] for _ in self.pivots]
        for k, (pivot_row, pivot_col, row) in enumerate(self.pivots):
            self._rank_of_row[pivot_row] = k
            for c in row:
                if c != pivot_col:
                    if (r := rank.get(c, -1)) <= k:
                        raise SingularSystem("back-substitution would hit an unsolved column")
                    self._feeds[r].append(k)

    def _eliminate(self, component: list[int], work: list[dict[int, Pair]]) -> None:
        """Pivot only on the component's own columns; fill-in can reach
        columns of later components, which back-substitution solves first."""
        members = set(component)
        col_owner: dict[int, list[int]] = {}
        for i in component:
            for c in work[i]:
                if c in members:
                    col_owner.setdefault(c, []).append(i)
        remaining = set(component)
        while remaining:
            pivot_row = min(remaining, key=lambda i: (len(work[i]), i))
            row = work[pivot_row]
            cols = [c for c in row if c in members]
            if not cols:
                raise SingularSystem(f"row {pivot_row} has no pivot in its component")
            pivot_col = min(cols, key=lambda c: (len(col_owner[c]), c))
            pn, pd = row[pivot_col]
            minus_inverse = (-pd, pn) if pn > 0 else (pd, -pn)  # -1 / pivot
            remaining.discard(pivot_row)
            for other in list(col_owner[pivot_col]):
                if other not in remaining:
                    continue
                orow = work[other]
                if pivot_col not in orow:
                    continue
                factor = sub_product((0, 1), orow[pivot_col], minus_inverse)  # coef / pivot
                self.ops.append((other, pivot_row, factor))
                for c, v in row.items():
                    nv = sub_product(orow.get(c, (0, 1)), factor, v)
                    if not nv.numerator:
                        orow.pop(c, None)
                    else:
                        if c not in orow and c in members:
                            col_owner[c].append(other)
                        orow[c] = nv
            self.pivots.append((pivot_row, pivot_col, row))

    def solve(self, rhs: Mapping[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
        """Solve A x = rhs for the factored A: rhs maps rows to entries, the
        result maps columns to the nonzero entries, in lowest terms with a
        positive denominator. After the recorded eliminations, only the pivots
        that the entries of rhs reach through `_feeds` can solve to nonzero, so
        back-substitution visits just those; each reduces once, by one gcd."""
        b = dict(rhs)
        for target, pivot, f in self.ops:
            if pivot in b:
                b[target] = sub_product(b.get(target, (0, 1)), f, b[pivot])
        x: dict[int, tuple[int, int]] = {}
        seeds = [self._rank_of_row[i] for i in b]
        for k in sorted(closure(seeds, self._feeds.__getitem__), reverse=True):
            pivot_row, pivot_col, row = self.pivots[k]
            an, ad = b.get(pivot_row, (0, 1))
            for c, v in row.items():
                if c in x:  # an unsolved column is zero; the pivot's own is not solved yet
                    (vn, vd), (xn, xd) = v, x[c]
                    td = vd * xd
                    an, ad = (an - vn * xn, ad) if td == ad else (an * td - vn * xn * ad, ad * td)
            if an:
                dn, dd = row[pivot_col]
                an, ad = an * dd, ad * dn
                g = gcd(an, ad) if ad > 0 else -gcd(an, ad)
                x[pivot_col] = (an // g, ad // g)
        return x


def simplex_min(
    costs: list[Fraction],
    a_rows: list[list[Fraction]],
    b: list[Fraction],
) -> Optional[Fraction]:
    """Exact two-phase simplex: min costs.x s.t. A x = b, x >= 0.

    Returns the optimal objective value, or None when infeasible. Raises on an
    unbounded objective (cannot happen for the mass LP, whose objective is a
    nonnegative combination of nonnegative variables).
    """
    m = len(a_rows)
    n = len(costs)
    tab = []
    rhs = []
    for i in range(m):
        row = list(a_rows[i])
        bi = b[i]
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        tab.append(row + [ZERO] * m)
        tab[i][n + i] = ONE
        rhs.append(bi)
    basis = [n + i for i in range(m)]

    def pivot(r: int, c: int) -> None:
        pv = tab[r][c]
        tab[r] = [v / pv for v in tab[r]]
        rhs[r] = rhs[r] / pv
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [vi - f * vr for vi, vr in zip(tab[i], tab[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        basis[r] = c

    def run(cost_vec: list[Fraction], allowed: int) -> Fraction:
        while True:
            reduced = list(cost_vec)
            for i, bv in enumerate(basis):
                cb = cost_vec[bv]
                if cb != 0:
                    for j in range(allowed):
                        if tab[i][j] != 0:
                            reduced[j] -= cb * tab[i][j]
            entering = -1
            for j in range(allowed):
                if j not in basis and reduced[j] < 0:
                    entering = j
                    break
            if entering < 0:
                value = ZERO
                for i, bv in enumerate(basis):
                    if cost_vec[bv] != 0:
                        value += cost_vec[bv] * rhs[i]
                return value
            leaving = -1
            best: Optional[Fraction] = None
            for i in range(m):
                if tab[i][entering] > 0:
                    ratio = rhs[i] / tab[i][entering]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                raise ArithmeticError("unbounded linear program")
            pivot(leaving, entering)

    phase1 = [ZERO] * n + [ONE] * m
    if run(phase1, n + m) > 0:
        return None
    # drive any leftover artificial variables out of the basis
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    pivot(i, j)
                    break
    phase2 = list(costs) + [ZERO] * m
    return run(phase2, n)
