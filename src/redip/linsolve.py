"""Exact linear solvers over the rationals.

The production route to the least nonnegative solution of B = M B + F is
Gaussian elimination on (I - M) B = F (:func:`least_solution_elimination`,
built on :class:`FactoredSystem`). On a trimmed system (every state reachable
and co-reachable with positive weight) it is conclusive: a unique solution
that is componentwise nonnegative is the least one, and a singular system or
a negative component means the least solution diverges.

:func:`simplex_min` is an exact two-phase simplex for
`min I.B  s.t.  (I - M) B = F, B >= 0` (Bland's rule, so it terminates),
whose infeasibility certifies divergence. It is kept only to cross-check
elimination (`analysis.mass(..., method="lp")`).

Both run entirely on `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularSystem(Exception):
    """The coefficient matrix has no unique solution."""


class FactoredSystem:
    """Sparse LU-style factorization of a square rational matrix.

    Rows are dicts column -> Fraction. The elimination order is chosen
    greedily by row sparsity, which keeps block-triangular systems (the common
    case for counting products) close to linear time. The factorization can be
    replayed against many right-hand sides via :meth:`solve`.
    """

    def __init__(self, n: int, rows: list[dict[int, Fraction]]):
        if len(rows) != n:
            raise ValueError("row count does not match dimension")
        work = [dict(r) for r in rows]
        for r in work:
            for c, v in list(r.items()):
                if v == 0:
                    del r[c]
        self.n = n
        # (target_row, pivot_row, factor): rhs[target] -= factor * rhs[pivot]
        self.ops: list[tuple[int, int, Fraction]] = []
        # (pivot_row, pivot_col, row_dict) in elimination order
        self.pivots: list[tuple[int, int, dict[int, Fraction]]] = []
        remaining = set(range(n))
        col_owner: dict[int, list[int]] = {}
        for i in range(n):
            for c in work[i]:
                col_owner.setdefault(c, []).append(i)
        while remaining:
            pivot_row = min(remaining, key=lambda i: (len(work[i]), i))
            row = work[pivot_row]
            if not row:
                raise SingularSystem(f"empty row {pivot_row}")
            pivot_col = min(row, key=lambda c: (len(col_owner.get(c, ())), c))
            pivot_val = row[pivot_col]
            remaining.discard(pivot_row)
            for other in list(col_owner.get(pivot_col, ())):
                if other == pivot_row or other not in remaining:
                    continue
                orow = work[other]
                coef = orow.get(pivot_col)
                if not coef:
                    continue
                factor = coef / pivot_val
                self.ops.append((other, pivot_row, factor))
                for c, v in row.items():
                    nv = orow.get(c, ZERO) - factor * v
                    if nv == 0:
                        orow.pop(c, None)
                    else:
                        if c not in orow:
                            col_owner.setdefault(c, []).append(other)
                        orow[c] = nv
            self.pivots.append((pivot_row, pivot_col, row))
        seen_cols = {c for _, c, _ in self.pivots}
        if len(seen_cols) != n:
            raise SingularSystem("rank deficient")

    def solve(self, rhs: list[Fraction]) -> list[Fraction]:
        """Solve A x = rhs for the factored A."""
        b = list(rhs)
        for target, pivot, factor in self.ops:
            if b[pivot] != 0:
                b[target] = b[target] - factor * b[pivot]
        x: list[Optional[Fraction]] = [None] * self.n
        for pivot_row, pivot_col, row in reversed(self.pivots):
            acc = b[pivot_row]
            for c, v in row.items():
                if c != pivot_col:
                    xc = x[c]
                    if xc is None:
                        raise SingularSystem("back-substitution hit unsolved column")
                    if xc != 0:
                        acc -= v * xc
            x[pivot_col] = acc / row[pivot_col]
        return x  # type: ignore[return-value]


def least_solution_elimination(
    n: int, m_rows: list[dict[int, Fraction]], f: list[Fraction]
) -> Optional[list[Fraction]]:
    """Solve (I - M) B = F exactly.

    Returns the solution vector when the system is nonsingular and the
    solution is componentwise nonnegative; otherwise None (inconclusive for a
    general system; divergence on a trimmed one).
    """
    a_rows: list[dict[int, Fraction]] = []
    for i in range(n):
        row = {c: -v for c, v in m_rows[i].items() if v != 0}
        row[i] = row.get(i, ZERO) + ONE
        if row[i] == 0:
            del row[i]
        a_rows.append(row)
    try:
        fs = FactoredSystem(n, a_rows)
        sol = fs.solve(list(f))
    except SingularSystem:
        return None
    if any(v < 0 for v in sol):
        return None
    return sol


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
