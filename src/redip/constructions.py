"""Automaton constructions, one per program instruction.

Each function builds the raw (untrimmed) result; callers that care about
compactness trim afterwards. Raw edge counts follow closed formulas, which the
test suite pins down exactly:

* label_subst_zero:   |A| - |A|_x   (x-labeled edges deleted)
* label_subst_one:    <= |A|        (relabeled edges may merge with parallels)
* concat:             |A1| + |A2| + |F(A1)| * |I(A2)|
* weighted_union:     |A1| + |A2|
* product:            |A| * states(DFA)
* transition_subst:   |A| - |A|_y + |A|_y * (|I(G)| + |G| + |F(G)|)
* decrement:          3|A| - |A|_x

A guard filter numbers the pair (automaton state q, DFA state s) q * k + s for
a k-state DFA, here alone: `product` builds every pair, `_useful_pairs` walks
only the useful ones for guard queries, and both read one kernel, `_pair_arcs`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Sequence

from .errors import InvalidAutomaton, UnknownVariable
from .guards import GuardDfa, LessThan, Not, build_guard_dfa
from .pga import Pga, Symbol, closure, make_pga


def _require_var(a: Pga, var: str) -> None:
    if var not in a.alphabet:
        raise UnknownVariable(f"{var!r} not in alphabet {a.alphabet}")


def _require_same_alphabet(a1: Pga, a2: Pga) -> None:
    if a1.alphabet != a2.alphabet:
        raise InvalidAutomaton(f"alphabet mismatch {a1.alphabet} vs {a2.alphabet}")


def label_subst_one(a: Pga, var: str) -> Pga:
    """Substitute 1 for `var`: its edges keep their weight but lose the label.

    Realizes assignment to zero. Parallel edges may merge, so the result can
    have fewer transitions than the input.
    """
    _require_var(a, var)
    edges = [(p, q, w, None if s == var else s) for p, q, w, s in a.edges]
    return make_pga(a.alphabet, a.num_states, edges, a.initial, a.final)


def label_subst_zero(a: Pga, var: str) -> Pga:
    """Substitute 0 for `var`: delete every edge labeled with it."""
    _require_var(a, var)
    edges = [e for e in a.edges if e.symbol != var]
    return make_pga(a.alphabet, a.num_states, edges, a.initial, a.final)


def concat(a1: Pga, a2: Pga) -> Pga:
    """Serial composition: behavior is the product of the two series.

    States of a2 are shifted by a1.num_states. Every final state q of a1 is
    bridged to every initial state s of a2 by an unlabeled edge of weight
    F1(q) * I2(s); initial weights come from a1, final weights from a2.
    """
    _require_same_alphabet(a1, a2)
    shift = a1.num_states
    edges: list[tuple] = list(a1.edges)
    edges.extend((p + shift, q + shift, w, s) for p, q, w, s in a2.edges)
    for q, fw in a1.final.items():
        for s, iw in a2.initial.items():
            edges.append((q, s + shift, fw * iw, None))
    final = {s + shift: w for s, w in a2.final.items()}
    return make_pga(a1.alphabet, shift + a2.num_states, edges, a1.initial, final)


def weighted_union(a1: Pga, a2: Pga, p: Fraction, q: Fraction) -> Pga:
    """Disjoint union with initial weights scaled by p and q respectively:
    behavior is p*[A1] + q*[A2]. States of a2 are shifted by a1.num_states."""
    _require_same_alphabet(a1, a2)
    p, q = Fraction(p), Fraction(q)
    if p < 0 or q < 0:
        raise InvalidAutomaton(f"union weights must be nonnegative, got {p}, {q}")
    shift = a1.num_states
    edges: list[tuple] = list(a1.edges)
    edges.extend((p + shift, q + shift, w, s) for p, q, w, s in a2.edges)
    initial = {s: p * w for s, w in a1.initial.items()}
    initial.update({s + shift: q * w for s, w in a2.initial.items()})
    final = dict(a1.final)
    final.update({s + shift: w for s, w in a2.final.items()})
    return make_pga(a1.alphabet, shift + a2.num_states, edges, initial, final)


def transition_subst(a: Pga, var: str, gadget: Pga) -> Pga:
    """Replace every var-labeled edge by a fresh copy of `gadget`.

    An edge q --w/var--> t becomes, for a private copy of the gadget,
    unlabeled in-edges q --w*I_G(s)--> copy(s), the gadget's own edges, and
    unlabeled out-edges copy(s') --F_G(s')--> t. Realizes substituting the
    gadget's behavior for the variable in the series.
    """
    _require_var(a, var)
    _require_same_alphabet(a, gadget)
    edges: list[tuple] = []
    next_base = a.num_states
    for e in a.edges:
        if e.symbol != var:
            edges.append(e)
            continue
        base = next_base
        next_base += gadget.num_states
        for s, iw in gadget.initial.items():
            edges.append((e.src, base + s, e.weight * iw, None))
        edges.extend((base + p, base + q, w, sym) for p, q, w, sym in gadget.edges)
        for s, fw in gadget.final.items():
            edges.append((base + s, e.dst, fw, None))
    return make_pga(a.alphabet, next_base, edges, a.initial, a.final)


def _pair_arcs(a: Pga, dfa: GuardDfa) -> list[list[tuple[int, Fraction, Symbol, Sequence[int]]]]:
    """The arcs of every pair, listed per automaton state q as
    (dst * k, weight, symbol, successors): pair (q, s) steps to
    dst * k + successors[s]. A labeled edge advances s by its letter's table,
    an unlabeled edge keeps it."""
    if a.alphabet != dfa.alphabet:
        raise InvalidAutomaton(f"alphabet mismatch {a.alphabet} vs {dfa.alphabet}")
    k = dfa.num_states
    tables: dict[Symbol, Sequence[int]] = {None: range(k), **dfa.delta}
    out: list[list[tuple]] = [[] for _ in range(a.num_states)]
    for src, dst, w, symbol in a.edges:
        out[src].append((dst * k, w, symbol, tables[symbol]))
    return out


def product(a: Pga, dfa: GuardDfa) -> Pga:
    """Filter the automaton by a guard DFA.

    All state pairs are materialized; pair (q, s) gets index
    q * dfa.num_states + s, which is part of this function's contract. A
    labeled edge advances both components, an unlabeled edge only the
    automaton component. Initial weight survives only with the DFA start
    state, final weight only on accepting DFA states, so a coefficient of the
    result equals the original coefficient when the DFA accepts some word with
    those counts and zero otherwise.
    """
    k = dfa.num_states
    edges = [
        (q * k + s, base + t, w, symbol)
        for q, arcs in enumerate(_pair_arcs(a, dfa))
        for base, w, symbol, succ in arcs
        for s, t in enumerate(succ)
    ]
    initial = {q * k + dfa.initial: w for q, w in a.initial.items()}
    final = {q * k + s: w for q, w in a.final.items() for s in dfa.accepting}
    return make_pga(a.alphabet, a.num_states * k, edges, initial, final)


def _useful_pairs(
    a: Pga, dfa: GuardDfa
) -> tuple[int, list[tuple[int, int, Fraction, None]], dict[int, Fraction], dict[int, Fraction]]:
    """Dimension, arcs, final and initial weights of the linear system of the
    guard-filtered mass, over the useful pairs of `product(a, dfa)`.

    Useful pairs are reached from an initial pair and reach a final one; they
    are numbered in increasing pair order, the state order of
    `trim(product(a, dfa))`. Arcs drop their labels and parallel arcs are
    summed. Only the pairs reached are ever built, and no automaton is.
    """
    k, start = dfa.num_states, dfa.initial
    out = _pair_arcs(a, dfa)
    arcs: dict[int, dict[int, Fraction]] = {}

    def successors(p: int) -> dict[int, Fraction]:
        """The row of pair p, built when the walk first reaches it."""
        row = arcs[p] = {}
        q, s = divmod(p, k)
        for base, w, _, succ in out[q]:
            t = base + succ[s]
            row[t] = row[t] + w if t in row else w
        return row

    reach = closure([q * k + start for q in a.initial], successors)
    pred: defaultdict[int, list[int]] = defaultdict(list)
    for p in reach:
        for t in arcs[p]:
            pred[t].append(p)
    finals = [pair for q in a.final for s in dfa.accepting if (pair := q * k + s) in reach]
    index = {p: i for i, p in enumerate(sorted(closure(finals, pred.__getitem__)))}
    system = [(i, index[t], w, None) for p, i in index.items() for t, w in arcs[p].items() if t in index]
    final = {index[p]: a.final[p // k] for p in finals if p in index}
    initial = {index[pair]: w for q, w in a.initial.items() if (pair := q * k + start) in index}
    return len(index), system, final, initial


def decrement(a: Pga, var: str) -> Pga:
    """Shift the series one step down in `var` (natural subtraction).

    Built as (A filtered by var > 0) with each var-edge that crosses the
    DFA's single advancing transition unlabeled, plus A with var set to 0.
    The two parts are combined by an unweighted disjoint union.
    """
    _require_var(a, var)
    positive = build_guard_dfa(Not(LessThan(var, 1)), a.alphabet)
    # positive has two states, 0 (start, rejecting) and 1 (accepting), and
    # every var-edge enters 1; so a var-edge advances exactly when it leaves
    # DFA state 0, that is, when its source pair q * 2 + s is even
    prod = product(a, positive)
    edges = [(p, t, w, None if sym == var and p % 2 == 0 else sym) for p, t, w, sym in prod.edges]
    shifted = make_pga(prod.alphabet, prod.num_states, edges, prod.initial, prod.final)
    return weighted_union(shifted, label_subst_zero(a, var), Fraction(1), Fraction(1))
