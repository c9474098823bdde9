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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidAutomaton, UnknownVariable
from .guards import GuardDfa, LessThan, Not, build_guard_dfa
from .pga import Edge, Pga, make_pga


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
    edges = [
        Edge(e.src, e.dst, e.weight, None if e.symbol == var else e.symbol) for e in a.edges
    ]
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
    edges: list[Edge] = list(a1.edges)
    edges.extend(Edge(e.src + shift, e.dst + shift, e.weight, e.symbol) for e in a2.edges)
    for q, fw in a1.final.items():
        for s, iw in a2.initial.items():
            edges.append(Edge(q, s + shift, fw * iw, None))
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
    edges: list[Edge] = list(a1.edges)
    edges.extend(Edge(e.src + shift, e.dst + shift, e.weight, e.symbol) for e in a2.edges)
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
    edges: list[Edge] = []
    next_base = a.num_states
    for e in a.edges:
        if e.symbol != var:
            edges.append(e)
            continue
        base = next_base
        next_base += gadget.num_states
        for s, iw in gadget.initial.items():
            edges.append(Edge(e.src, base + s, e.weight * iw, None))
        edges.extend(
            Edge(base + g.src, base + g.dst, g.weight, g.symbol) for g in gadget.edges
        )
        for s, fw in gadget.final.items():
            edges.append(Edge(base + s, e.dst, fw, None))
    return make_pga(a.alphabet, next_base, edges, a.initial, a.final)


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
    if a.alphabet != dfa.alphabet:
        raise InvalidAutomaton(f"alphabet mismatch {a.alphabet} vs {dfa.alphabet}")
    k = dfa.num_states

    def pair(q: int, s: int) -> int:
        return q * k + s

    edges: list[Edge] = []
    for e in a.edges:
        for s in range(k):
            t = dfa.delta[(s, e.symbol)] if e.symbol is not None else s
            edges.append(Edge(pair(e.src, s), pair(e.dst, t), e.weight, e.symbol))
    initial = {pair(q, dfa.initial): w for q, w in a.initial.items()}
    final = {
        pair(q, s): w for q, w in a.final.items() for s in dfa.accepting
    }
    return make_pga(a.alphabet, a.num_states * k, edges, initial, final)


def decrement(a: Pga, var: str) -> Pga:
    """Shift the series one step down in `var` (natural subtraction).

    Built as (A filtered by var > 0) with each var-edge that crosses the
    DFA's single advancing transition unlabeled, plus A with var set to 0.
    The two parts are combined by an unweighted disjoint union.
    """
    _require_var(a, var)
    positive = build_guard_dfa(Not(LessThan(var, 1)), a.alphabet)
    # positive has exactly two states: 0 (start, rejecting), 1 (accepting);
    # its only var-advancing transition is 0 -> 1.
    prod = product(a, positive)
    k = positive.num_states
    edges = []
    for e in prod.edges:
        if e.symbol == var and e.src % k == 0 and e.dst % k == 1:
            edges.append(Edge(e.src, e.dst, e.weight, None))
        else:
            edges.append(e)
    shifted = make_pga(prod.alphabet, prod.num_states, edges, prod.initial, prod.final)
    return weighted_union(shifted, label_subst_zero(a, var), Fraction(1), Fraction(1))
