"""Weighted automata over a commutative alphabet of counter variables.

An automaton holds nonnegative rational weights on edges (each optionally
labeled with one alphabet variable), on initial states, and on final states.
Its behavior is the formal power series mapping each valuation (one natural
number per variable) to the total weight of accepting runs whose per-variable
label counts equal that valuation. The automaton is a probability generating
automaton (PGA) when the total mass of that series is at most one.

Structures are immutable after construction; all operations are pure
functions returning fresh automata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import InvalidAutomaton, InvalidWeight
from .linsolve import closure

Symbol = Optional[str]  # None marks an unlabeled (epsilon) edge


class Edge(NamedTuple):
    src: int
    dst: int
    weight: Fraction
    symbol: Symbol = None


@dataclass(frozen=True)
class Pga:
    """States are 0..num_states-1; only nonzero weights are stored.

    Invariants (enforced by :func:`make_pga`): every stored edge weight is
    strictly positive, initial/final weights are strictly positive, and there
    is at most one edge per (src, dst, symbol) triple.
    """

    alphabet: tuple[str, ...]
    num_states: int
    edges: tuple[Edge, ...]
    initial: dict[int, Fraction] = field(default_factory=dict)
    final: dict[int, Fraction] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of stored (nonzero-weight) transitions."""
        return len(self.edges)

    def symbol_count(self, var: str) -> int:
        """Number of stored transitions labeled with `var`."""
        return sum(1 for e in self.edges if e.symbol == var)


def _as_fraction(value: Union[int, Fraction], what: str) -> Fraction:
    if type(value) is not Fraction:  # a Fraction is checked, not rebuilt
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise InvalidWeight(f"{what} must be a rational, got {type(value).__name__}")
        value = Fraction(value)
    if value.numerator < 0:
        raise InvalidWeight(f"{what} must be nonnegative, got {value}")
    return value


def make_pga(
    alphabet: Sequence[str],
    num_states: int,
    edges: Iterable[tuple[int, int, Union[int, Fraction], Symbol]],
    initial: Mapping[int, Union[int, Fraction]],
    final: Mapping[int, Union[int, Fraction]],
) -> Pga:
    """Canonicalizing constructor.

    Each edge is a (src, dst, weight, symbol) tuple, such as an Edge; symbol
    None marks an unlabeled edge. Duplicate (src, dst, symbol) triples are
    merged by summing their weights, and zero weights are dropped.
    """
    alpha = tuple(alphabet)
    if len(set(alpha)) != len(alpha):
        raise InvalidAutomaton(f"duplicate variable in alphabet {alpha}")
    for v in alpha:
        if not v or not isinstance(v, str):
            raise InvalidAutomaton(f"bad alphabet variable {v!r}")
    if isinstance(num_states, bool) or not isinstance(num_states, int):
        raise InvalidAutomaton(f"state count {num_states!r} is not an integer")
    if num_states < 1:
        raise InvalidAutomaton("an automaton needs at least one state")

    def check_states(what: str, *states: object) -> None:
        for q in states:
            if isinstance(q, bool) or not isinstance(q, int):
                raise InvalidAutomaton(f"{what} names state {q!r}, which is not an integer")
            if not 0 <= q < num_states:
                raise InvalidAutomaton(
                    f"{what} references state {q} of a {num_states}-state automaton"
                )

    # keyed in canonical order: the empty string sorts unlabeled edges first
    merged: dict[tuple[int, int, str], Fraction] = {}
    for item in edges:
        try:
            src, dst, weight, symbol = item
        except (TypeError, ValueError):
            raise InvalidAutomaton(f"edge {item!r} is not (src, dst, weight, symbol)") from None
        if not (type(src) is type(dst) is int and 0 <= src < num_states and 0 <= dst < num_states):
            check_states(f"edge ({src},{dst})", src, dst)  # the label costs; build it only here
        # a tuple, not a set: an unhashable symbol read from JSON must fail here
        if symbol is not None and symbol not in alpha:
            raise InvalidAutomaton(f"edge symbol {symbol!r} not in alphabet {alpha}")
        w = _as_fraction(weight, "edge weight")
        key = (src, dst, symbol or "")
        merged[key] = merged[key] + w if key in merged else w

    def clean_weights(m: Mapping[int, Union[int, Fraction]], what: str) -> dict[int, Fraction]:
        check_states(what, *m)  # before sorting, which a key of another type breaks
        out = {q: _as_fraction(m[q], f"{what} weight") for q in sorted(m)}
        return {q: w for q, w in out.items() if w}

    return Pga(
        alphabet=alpha,
        num_states=num_states,
        edges=tuple(Edge(p, q, w, s or None) for (p, q, s), w in sorted(merged.items()) if w),
        initial=clean_weights(initial, "initial"),
        final=clean_weights(final, "final"),
    )


def unit_pga(alphabet: Sequence[str]) -> Pga:
    """One state, initial and final weight 1: the point mass at the all-zero
    valuation. This is the default prior."""
    return make_pga(alphabet, 1, [], {0: 1}, {0: 1})


def extend_alphabet(a: Pga, alphabet: Sequence[str]) -> Pga:
    """Re-host the automaton on a larger alphabet (no edges are touched)."""
    missing = [v for v in a.alphabet if v not in alphabet]
    if missing:
        raise InvalidAutomaton(f"target alphabet drops variables {missing}")
    return make_pga(alphabet, a.num_states, a.edges, a.initial, a.final)


def reach_and_coreach(a: Pga) -> tuple[set[int], set[int]]:
    """States reachable from a positive-initial state, and states from which
    a positive-final state is reachable."""
    fwd: list[list[int]] = [[] for _ in range(a.num_states)]
    bwd: list[list[int]] = [[] for _ in range(a.num_states)]
    for e in a.edges:
        fwd[e.src].append(e.dst)
        bwd[e.dst].append(e.src)
    return closure(a.initial, fwd.__getitem__), closure(a.final, bwd.__getitem__)


def trim(a: Pga) -> Pga:
    """Restrict to useful states: reachable from a positive-initial state and
    co-reachable to a positive-final state. A behaviorally-zero automaton
    trims to a single initial state with final weight zero. An automaton
    whose states are all useful is returned as it is: `make_pga` built it, so
    it is already canonical."""
    reach, coreach = reach_and_coreach(a)
    useful = sorted(reach & coreach)
    if len(useful) == a.num_states:
        return a
    if not useful:
        return make_pga(a.alphabet, 1, [], {0: 1}, {})
    index = {q: i for i, q in enumerate(useful)}
    edges = [(index[p], index[q], w, s) for p, q, w, s in a.edges if p in index and q in index]
    initial = {index[q]: w for q, w in a.initial.items() if q in index}
    final = {index[q]: w for q, w in a.final.items() if q in index}
    return make_pga(a.alphabet, len(useful), edges, initial, final)


def contract(a: Pga) -> Pga:
    """Contract the unlabeled arcs that are a state's only way out or in.

    Backward: a non-final state q whose only out-arc is an unlabeled q -> r,
    r != q, of weight w hands r its in-arcs and its initial weight, times w.
    Forward, the mirror image: a non-initial q whose only in-arc is an
    unlabeled p -> q, p != q, hands p its out-arcs and final weight, times w.
    Parallel arcs are summed. Each step removes a state and at least one
    edge and maps runs one to one onto runs of equal weight and labels, so
    the series, divergence included, is unchanged. Survivors keep their
    order; an automaton with nothing to contract is returned as it is.
    """
    n = a.num_states
    out: list[dict[tuple[int, Symbol], Fraction]] = [{} for _ in range(n)]
    into: list[dict[tuple[int, Symbol], Fraction]] = [{} for _ in range(n)]
    for e in a.edges:
        out[e.src][e.dst, e.symbol] = into[e.dst][e.src, e.symbol] = e.weight
    initial, final = dict(a.initial), dict(a.final)
    # backward rule, then its mirror image: arcs reversed, initial and final swapped
    rules = ((out, into, final, initial), (into, out, initial, final))
    alive, work = [True] * n, list(range(n - 1, -1, -1))
    while work:  # smallest state first; touched states are looked at again
        q = work.pop()
        for arcs, rev, stop, moved in rules if alive[q] else ():
            if len(arcs[q]) != 1 or q in stop:
                continue
            ((t, symbol), w), = arcs[q].items()
            if symbol is not None or t == q:
                continue
            alive[q] = False
            del rev[t][q, None]
            for (p, sym), v in rev[q].items():  # re-point q's other arcs at t
                del arcs[p][q, sym]
                arcs[p][t, sym] = rev[t][p, sym] = arcs[p].get((t, sym), 0) + v * w
                work.append(p)
            if q in moved:
                moved[t] = moved.get(t, 0) + moved.pop(q) * w
            work.append(t)
            break
    if all(alive):
        return a
    index = {q: i for i, q in enumerate(q for q in range(n) if alive[q])}
    edges = [(index[p], index[t], w, s) for p in index for (t, s), w in out[p].items()]
    ends = [{index[q]: w for q, w in m.items()} for m in (initial, final)]
    return make_pga(a.alphabet, len(index), edges, *ends)
