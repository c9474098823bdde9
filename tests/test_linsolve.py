"""Exact solvers: LU factorization, the least solution of `B = M B + F`
through `mass`, simplex.

The two routes to `B = M B + F` (elimination and the simplex) are compared
against each other here on random systems, each posed as the automaton with
one unlabeled arc per entry of M; automaton-level agreement is covered again
in the acceptance suite.
"""

import contextlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from redip import analysis
from redip.analysis import mass
from redip.linsolve import (
    FactoredSystem,
    Pair,
    SingularSystem,
    closure,
    simplex_min,
    strongly_connected_components,
)
from redip.pga import make_pga
from redip.rational import INF

F = Fraction


def pairs(rows):
    """Fraction rows as the solver's rows of `Pair`s."""
    return [{c: Pair(v.numerator, v.denominator) for c, v in row.items()} for row in rows]


def solve(fs, rhs):
    """`fs.solve` on a dense Fraction right-hand side, as a dense Fraction
    list. Every entry returned must be nonzero and in lowest terms with a
    positive denominator: exactly the integers of the Fraction it stands for."""
    x = fs.solve({i: (v.numerator, v.denominator) for i, v in enumerate(rhs) if v})
    for num, den in x.values():
        assert type(num) is type(den) is int and num != 0 and den > 0 and gcd(num, den) == 1
    return [F(*x[i]) if i in x else F(0) for i in range(fs.n)]


def test_factored_system_solves_and_replays():
    # [[2, 1], [1, 3]] x = b for two different b
    rows = [{0: F(2), 1: F(1)}, {0: F(1), 1: F(3)}]
    fs = FactoredSystem(2, pairs(rows))
    assert solve(fs, [F(5), F(10)]) == [F(1), F(3)]
    assert solve(fs, [F(3), F(4)]) == [F(1), F(1)]


def test_factored_system_permutation_matrix():
    rows = [{1: F(1)}, {0: F(1)}, {2: F(4)}]
    fs = FactoredSystem(3, pairs(rows))
    assert solve(fs, [F(7), F(2), F(8)]) == [F(2), F(7), F(2)]


def test_factored_system_singular():
    with pytest.raises(SingularSystem):
        FactoredSystem(2, pairs([{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}]))
    with pytest.raises(SingularSystem):
        FactoredSystem(2, pairs([{0: F(1)}, {}]))


def system_pga(m_rows, f, initial):
    """The automaton whose mass system is B = M B + F: an unlabeled arc
    i -> j of weight M[i][j], final weights F."""
    edges = [(i, j, w, None) for i, row in enumerate(m_rows) for j, w in row.items()]
    return make_pga((), len(m_rows), edges, initial, dict(enumerate(f)))


def least_solution(m_rows, f):
    """B, one mass per starting state."""
    return [mass(system_pga(m_rows, f, {q: 1})) for q in range(len(m_rows))]


def test_least_solution_simple_loop():
    # single state, self-loop 1/2, final 1: B = B/2 + 1 => B = 2
    assert least_solution([{0: F(1, 2)}], [F(1)]) == [F(2)]


def test_least_solution_divergent_cases():
    # weight-1 loop: (I - M) singular
    assert least_solution([{0: F(1)}], [F(1)]) == [INF]
    # loop heavier than 1: unique solution exists but is negative
    assert least_solution([{0: F(2)}], [F(1)]) == [INF]


def test_least_solution_chain():
    # two states: 0 -(1/2)-> 1, state 1 final 1, state 0 final 1/2
    m = [{1: F(1, 2)}, {}]
    f = [F(1, 2), F(1)]
    assert least_solution(m, f) == [F(1), F(1)]


# ---------------------------------------------------------------- simplex


def test_simplex_min_basic():
    # min x + y  s.t.  x + y = 1 => 1
    assert simplex_min([F(1), F(1)], [[F(1), F(1)]], [F(1)]) == F(1)
    # min x  s.t.  x + y = 1 => 0 (all mass on y)
    assert simplex_min([F(1), F(0)], [[F(1), F(1)]], [F(1)]) == F(0)


def test_simplex_infeasible():
    # x = -1 with x >= 0
    assert simplex_min([F(1)], [[F(1)]], [F(-1)]) is None
    # x + y = 1 and x + y = 2
    rows = [[F(1), F(1)], [F(1), F(1)]]
    assert simplex_min([F(1), F(1)], rows, [F(1), F(2)]) is None


def test_simplex_redundant_constraints():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    assert simplex_min([F(3), F(1)], rows, [F(1), F(2)]) == F(1)


def test_simplex_unbounded_raises():
    with pytest.raises(ArithmeticError):
        simplex_min([F(-1)], [], [])


def test_simplex_negative_rhs_normalization():
    # -x - y = -1 is x + y = 1 after sign flip
    assert simplex_min([F(1), F(2)], [[F(-1), F(-1)]], [F(-1)]) == F(1)


# ------------------------------------------------- dual-route agreement


def _route_pair(m_rows, f, initial):
    """(elimination value, lp value) of the mass of a system, None = divergent.
    Both solve it over its useful states, as `mass` does."""
    a = system_pga(m_rows, f, dict(enumerate(initial)))
    return tuple(None if v is INF else v for v in (mass(a), mass(a, method="lp")))


def test_routes_agree_on_substochastic_systems():
    """Strictly substochastic M: both routes find the same finite value."""
    rng = random.Random(991)
    for _ in range(60):
        n = rng.randint(1, 5)
        m_rows = []
        for _ in range(n):
            row = {}
            budget = F(rng.randint(1, 9), 10)  # row sum < 1
            cols = rng.sample(range(n), rng.randint(0, n))
            for j in cols:
                part = budget / len(cols)
                row[j] = part
            m_rows.append(row)
        f = [F(rng.randint(0, 3), 4) for _ in range(n)]
        initial = [F(rng.randint(0, 2), 2) for _ in range(n)]
        elim, lp = _route_pair(m_rows, f, initial)
        assert elim is not None
        assert elim == lp


@given(st.integers(min_value=0, max_value=10**9))
def test_routes_agree_including_divergence(seed):
    """Arbitrary nonnegative loops: elimination None iff LP infeasible.

    The iff only holds when every state can reach mass (f > 0 somewhere along
    its loops); generating f > 0 everywhere keeps the system 'trimmed' in the
    automaton sense.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m_rows = []
    for _ in range(n):
        row = {}
        for j in range(n):
            if rng.random() < 0.5:
                row[j] = F(rng.randint(1, 6), 4)  # may exceed 1
        m_rows.append(row)
    f = [F(rng.randint(1, 3), 3) for _ in range(n)]
    initial = [F(1)] + [F(0)] * (n - 1)
    elim, lp = _route_pair(m_rows, f, initial)
    assert (elim is None) == (lp is None)
    if elim is not None:
        assert elim == lp


# ------------------------------------------------- component order


def test_acyclic_chain_needs_no_elimination():
    """A 3,000-state chain 0 -> 1 -> ... pivots on its diagonal, sources
    first: no elimination op, and nothing recurses on the chain's depth."""
    n = 3000
    rows = [{i: F(1), i + 1: F(-1)} for i in range(n - 1)] + [{n - 1: F(1)}]
    fs = FactoredSystem(n, pairs(rows))
    assert fs.ops == []
    assert solve(fs, [F(0)] * (n - 1) + [F(1)]) == [F(1)] * n


def test_strongly_connected_components_sinks_first():
    # 0 -> {1, 2} -> 3, with 1 <-> 2 a cycle and 3 a self-loop
    comps = strongly_connected_components(4, [[1], [2, 3], [1], [3]])
    assert [sorted(c) for c in comps] == [[3], [1, 2], [0]]


def _block_triangular_system(rng):
    """Cyclic blocks of 2-4 states chained through singletons (some with a
    self-loop); every state has final weight, and edges only lead into the
    same block or a later one. States are shuffled so the blocks are not
    contiguous in index order."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        blocks.append(rng.randint(2, 4))
        blocks.append(1)
    perm = list(range(sum(blocks)))
    rng.shuffle(perm)
    n = len(perm)
    m_rows = [dict() for _ in range(n)]

    def edge(i, j):
        m_rows[perm[i]][perm[j]] = F(rng.randint(1, 8), 8)

    start = 0
    for size in blocks:
        members = range(start, start + size)
        if size > 1:
            for k in members:  # a cycle through the whole block
                edge(k, start + (k - start + 1) % size)
            for _ in range(rng.randint(0, size)):
                edge(rng.choice(members), rng.choice(members))
        elif rng.random() < 0.5:
            edge(start, start)
        end = start + size
        if end < n:
            edge(rng.choice(members), end)  # chain into the next block
            for _ in range(rng.randint(0, 2)):
                edge(rng.choice(members), rng.randrange(end, n))
        start = end
    f = [F(rng.randint(1, 3), 3) for _ in range(n)]
    initial = [F(0)] * n
    initial[perm[0]] = F(1)
    return n, m_rows, f, initial


@given(st.integers(min_value=0, max_value=10**9))
def test_block_triangular_systems_match_the_simplex(seed):
    """Elimination inside cyclic components, fill-in reaching later blocks:
    the value equals the simplex optimum, and None iff the LP is infeasible."""
    n, m_rows, f, initial = _block_triangular_system(random.Random(seed))
    elim, lp = _route_pair(m_rows, f, initial)
    assert (elim is None) == (lp is None)
    if elim is not None:
        assert elim == lp


def test_singular_cycle_below_a_singleton_prefix_diverges():
    # 0 -> 1 -> {2 <-> 3} with weight-1 edges on the cycle
    m_rows = [{1: F(1, 2)}, {2: F(1, 2)}, {3: F(1)}, {2: F(1)}]
    f = [F(0), F(0), F(0), F(1)]
    assert mass(system_pga(m_rows, f, {0: F(1)})) is INF
    edges = [(0, 1, F(1, 2), "x"), (1, 2, F(1, 2), None), (2, 3, F(1), None), (3, 2, F(1), "x")]
    a = make_pga(("x",), 4, edges, {0: F(1)}, {3: F(1)})
    assert mass(a) is INF


# ------------------------------------------------- sparse back-substitution


def _dense_solve(n, rows, rhs):
    """Gauss-Jordan on the dense matrix, the reference for
    `FactoredSystem.solve`; None when the matrix is singular."""
    m = [[rows[i].get(j, F(0)) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _identity_minus(rng):
    """I - M for a random block-triangular M, as sparse rows."""
    n, m_rows, _, _ = _block_triangular_system(rng)
    rows = [{c: -v for c, v in r.items()} for r in m_rows]
    for i, row in enumerate(rows):
        row[i] = row.get(i, F(0)) + 1
    return n, rows


@given(st.integers(min_value=0, max_value=10**9))
@example(448)
@example(34631)
def test_sparse_solve_equals_the_dense_reference(seed):
    """(I - M) x = b on block-triangular systems against one or two nonzero
    entries of b at a time: the sparse back-substitution gives exactly the
    dense solution. Seeds 448 and 34631 pivot every cyclic block without an
    elimination op: a weight-1 self-loop zeroes a diagonal entry of I - M."""
    rng = random.Random(seed)
    n, rows = _identity_minus(rng)
    rhss = []
    for _ in range(3):
        rhs = [F(0)] * n
        for i in rng.sample(range(n), rng.randint(1, 2)):
            rhs[i] = F(rng.randint(-4, 4) or 1, rng.randint(1, 4))
        rhss.append(rhs)
    expected = [_dense_solve(n, rows, rhs) for rhs in rhss]
    if expected[0] is None:
        with pytest.raises(SingularSystem):
            solve(FactoredSystem(n, pairs(rows)), rhss[0])
        return
    fs = FactoredSystem(n, pairs(rows))
    for rhs, x in zip(rhss, expected):
        assert solve(fs, rhs) == x


def test_block_triangular_systems_mostly_record_elimination_ops():
    """The systems above exercise the recorded ops: of seeds 0-199, 181
    factor with elimination ops and the other 19 are singular."""
    with_ops = 0
    for seed in range(200):
        try:
            n, rows = _identity_minus(random.Random(seed))
            with_ops += bool(FactoredSystem(n, pairs(rows)).ops)
        except SingularSystem:
            pass
    assert with_ops >= 150


def _general_system(rng):
    """The sparsity of a random block-triangular system, cyclic components
    included, with arbitrary entries: off-diagonal entries of either sign,
    pivots other than one, numerators and denominators up to 2**80."""
    n, m_rows, _, _ = _block_triangular_system(rng)

    def entry():
        return F(rng.choice((-1, 1)) * rng.randint(1, 2**80), rng.randint(1, 2**80))

    rows = [{c: entry() for c in row} for row in m_rows]
    for i, row in enumerate(rows):
        row[i] = entry()
    return n, rows


@given(st.integers(min_value=0, max_value=10**9))
def test_sparse_solve_equals_the_dense_reference_on_general_systems(seed):
    """Elimination ops with wide factors, non-unit pivots, negative entries
    and denominators past 64 bits: the integer kernel still gives exactly the
    dense solution, as Fractions."""
    rng = random.Random(seed)
    n, rows = _general_system(rng)
    rhss = []
    for _ in range(3):
        rhs = [F(0)] * n
        for i in rng.sample(range(n), rng.randint(1, 3)):
            rhs[i] = F(rng.randint(-2**70, 2**70) or 1, rng.randint(1, 2**70))
        rhss.append(rhs)
    if _dense_solve(n, rows, rhss[0]) is None:
        with pytest.raises(SingularSystem):
            solve(FactoredSystem(n, pairs(rows)), rhss[0])
        return
    fs = FactoredSystem(n, pairs(rows))
    for rhs in rhss:
        assert solve(fs, rhs) == _dense_solve(n, rows, rhs)


def test_general_systems_record_ops_and_wide_denominators():
    """The systems above reach what they claim to: of seeds 0-99, most factor
    with elimination ops, and every solve has a denominator past 64 bits."""
    with_ops = 0
    for seed in range(100):
        n, rows = _general_system(random.Random(seed))
        fs = FactoredSystem(n, pairs(rows))
        with_ops += bool(fs.ops)
        x = solve(fs, [F(1, 3)] + [F(0)] * (n - 1))
        assert max(v.denominator.bit_length() for v in x) > 64
    assert with_ops >= 80


def test_chain_level_solves_divide_nothing(monkeypatch):
    """Every pivot of a 3,000-state unit-diagonal chain is one. A solve
    against one nonzero entry visits only the 11 pivots from that row up. It
    does no Fraction arithmetic and builds no Fraction, and its one gcd per
    solved pivot finds nothing to divide: a unit pivot scales nothing."""
    n = 3000
    rows = [{i: F(1), i + 1: F(-1, 2)} for i in range(n - 1)] + [{n - 1: F(1)}]
    fs = FactoredSystem(n, pairs(rows))
    visited, gcds = [], []

    def recording_closure(seeds, succ):
        visited.append(closure(seeds, succ))
        return visited[-1]

    def recording_gcd(a, b):
        gcds.append(gcd(a, b))
        return gcds[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction work in the solve")

    monkeypatch.setattr("redip.linsolve.closure", recording_closure)
    monkeypatch.setattr("redip.linsolve.gcd", recording_gcd)
    monkeypatch.setattr("redip.linsolve.Fraction", forbidden)
    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(F, f"__{op}__", forbidden)
        monkeypatch.setattr(F, f"__r{op}__", forbidden)
    x = fs.solve({10: (1, 1)})
    monkeypatch.undo()
    assert visited == [set(range(11))]
    assert gcds == [1] * 11
    assert x == {i: (1, 2 ** (10 - i)) for i in range(11)}


# ------------------------------------------------- the stored factor record


@given(st.integers(min_value=0, max_value=10**9))
def test_stored_factors_are_reduced_pairs(seed):
    """Every recorded factor and every pivot-row entry is a nonzero `Pair` in
    lowest terms with a positive denominator, so its fields are the ones the
    Fraction it stands for would report (the benchmark's tracer reads
    `.denominator` from them)."""
    n, rows = _general_system(random.Random(seed))
    try:
        fs = FactoredSystem(n, pairs(rows))
    except SingularSystem:
        return
    entries = [f for _, _, f in fs.ops] + [v for _, _, row in fs.pivots for v in row.values()]
    for v in entries:
        assert type(v) is Pair and v.numerator != 0
        assert F(*v).as_integer_ratio() == (v.numerator, v.denominator)


FRACTION_WORK = ("__new__", "__neg__", "__bool__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
FRACTION_WORK += tuple(f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r"))


@contextlib.contextmanager
def no_fraction_work():
    """Building a Fraction, or any arithmetic or comparison on one, raises
    inside the block; reading `.numerator` and `.denominator` does not."""
    saved = {name: F.__dict__[name] for name in FRACTION_WORK}

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction work in the solver")

    try:
        for name in FRACTION_WORK:
            setattr(F, name, staticmethod(forbidden) if name == "__new__" else forbidden)
        yield
    finally:
        for name, value in saved.items():
            setattr(F, name, value)


def test_row_build_factoring_and_solving_do_no_fraction_work():
    """The linear view in `analysis` turns Fraction arc weights (parallel
    arcs and loops included) into pair rows, and systems with elimination ops
    factor and solve, without building or operating on a Fraction; the
    answers equal the dense reference."""
    cases = []
    for seed in range(40):
        n, m_rows, _, _ = _block_triangular_system(random.Random(seed))
        arcs = [(i, j, w) for i, row in enumerate(m_rows) for j, w in row.items()]
        arcs += [(i, j, w / 2) for i, j, w in arcs[::3]]  # parallel arcs
        rows = [{i: F(1)} for i in range(n)]
        for i, j, w in arcs:
            rows[i][j] = rows[i].get(j, F(0)) - w
        rhs = {0: (1, 3), n - 1: (-2, 5)}
        cases.append((n, arcs, rows, rhs))
    built, solved = [], []
    with no_fraction_work():
        for n, arcs, _, rhs in cases:
            built.append(analysis._System(n, [(i, j, w, None) for i, j, w in arcs], {}, {}).rows())
            try:
                fs = FactoredSystem(n, built[-1])
            except SingularSystem:
                solved.append(None)
                continue
            solved.append((bool(fs.ops), fs.solve(rhs)))
    assert sum(bool(s and s[0]) for s in solved) >= 20
    for (n, _, rows, rhs), got, result in zip(cases, built, solved):
        assert got == [{c: (v.numerator, v.denominator) for c, v in row.items()} for row in rows]
        dense_rhs = [F(*rhs[i]) if i in rhs else F(0) for i in range(n)]
        expected = _dense_solve(n, rows, dense_rhs)
        assert (result is None) == (expected is None)
        if result is not None:
            assert [F(*result[1][i]) if i in result[1] else F(0) for i in range(n)] == expected
