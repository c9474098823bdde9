"""Guards over counter valuations, and the complete DFAs that recognize them.

A guard constrains a valuation. Core connectives are threshold atoms
(var < bound), congruence atoms (var % modulus == residue, modulus > residue),
conjunction, and negation; `compare_guard` turns every surface comparison
into these. `build_guard_dfa` is the one compiler from a guard to a complete
DFA over the alphabet whose language contains exactly the words whose
per-variable letter counts satisfy the guard, so the language is closed under
permutation. Every `GuardDfa` is built in this module from a checked guard,
so it is complete by construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence, Union

from .errors import GuardConstraintError, UnknownVariable


@dataclass(frozen=True)
class LessThan:
    var: str
    bound: int  # satisfied iff valuation(var) < bound

    def __post_init__(self) -> None:
        if not self.var:
            raise GuardConstraintError("empty variable name")
        if self.bound < 0:
            raise GuardConstraintError(f"negative bound {self.bound}")


@dataclass(frozen=True)
class ModEq:
    var: str
    modulus: int
    residue: int  # satisfied iff valuation(var) % modulus == residue

    def __post_init__(self) -> None:
        if not self.var:
            raise GuardConstraintError("empty variable name")
        if self.modulus <= self.residue or self.residue < 0:
            raise GuardConstraintError(
                f"need modulus > residue >= 0, got {self.modulus}, {self.residue}"
            )


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"


@dataclass(frozen=True)
class Not:
    inner: "Guard"


Guard = Union[LessThan, ModEq, And, Not]


def guard_size(g: Guard) -> int:
    """Atoms count 1; conjunction adds; negation is free."""
    if isinstance(g, And):
        return guard_size(g.left) + guard_size(g.right)
    if isinstance(g, Not):
        return guard_size(g.inner)
    return 1


def guard_vars(g: Guard) -> tuple[str, ...]:
    """Variables in order of first appearance."""
    if isinstance(g, And):
        return tuple(dict.fromkeys(guard_vars(g.left) + guard_vars(g.right)))
    if isinstance(g, Not):
        return guard_vars(g.inner)
    return (g.var,)


def guard_satisfies(valuation: Mapping[str, int], g: Guard) -> bool:
    """Direct semantic check; variables absent from the valuation count 0."""
    if isinstance(g, LessThan):
        return valuation.get(g.var, 0) < g.bound
    if isinstance(g, ModEq):
        return valuation.get(g.var, 0) % g.modulus == g.residue
    if isinstance(g, And):
        return guard_satisfies(valuation, g.left) and guard_satisfies(valuation, g.right)
    if isinstance(g, Not):
        return not guard_satisfies(valuation, g.inner)
    raise TypeError(f"not a guard: {g!r}")


def guard_negate(g: Guard) -> Guard:
    """Complement, with double negations collapsed."""
    if isinstance(g, Not):
        return g.inner
    return Not(g)


def compare_guard(var: str, op: str, n: int) -> Guard:
    """`var op n` for op in < <= > >= == !=, as core atoms: the one place a
    comparison becomes thresholds."""
    if op in ("<", ">="):
        lt = LessThan(var, n)
        return lt if op == "<" else Not(lt)
    if op in ("<=", ">"):
        le = LessThan(var, n + 1)
        return le if op == "<=" else Not(le)
    eq = And(LessThan(var, n + 1), Not(LessThan(var, n)))
    return eq if op == "==" else Not(eq)


def equality_guard(valuation: Mapping[str, int], alphabet: Sequence[str]) -> Guard:
    """var == n for every alphabet variable, as a conjunction of core atoms."""
    if not alphabet:
        raise GuardConstraintError("an equality guard needs a variable; the alphabet is empty")
    atoms: list[Guard] = []
    for var in alphabet:
        n = valuation.get(var, 0)
        if n < 0:
            raise GuardConstraintError(f"negative target {n} for {var}")
        atoms.append(compare_guard(var, "==", n))
    return reduce(And, atoms)


@dataclass(frozen=True)
class GuardDfa:
    """A complete deterministic automaton over the alphabet.

    `delta[var]` is the successor table of one letter: state s steps to
    `delta[var][s]`. There is one table per alphabet variable, each with
    `num_states` entries, so the automaton is total.
    """

    alphabet: tuple[str, ...]
    num_states: int
    initial: int
    accepting: frozenset[int]
    delta: dict[str, tuple[int, ...]]


def dfa_less_than(var: str, bound: int, alphabet: tuple[str, ...]) -> GuardDfa:
    """Counter chain for var < bound.

    States 0..bound count occurrences of var (saturating at bound, a rejecting
    sink); other variables self-loop. bound = 0 is the single-state rejecting
    automaton for an unsatisfiable threshold.
    """
    if bound >= sys.maxsize:
        raise GuardConstraintError(f"guard {var} < {bound} needs {bound + 1} states")
    stay = tuple(range(bound + 1))
    delta = {v: stay[1:] + (bound,) if v == var else stay for v in alphabet}
    return GuardDfa(alphabet, bound + 1, 0, frozenset(range(bound)), delta)


def dfa_mod(var: str, modulus: int, residue: int, alphabet: tuple[str, ...]) -> GuardDfa:
    """Cyclic counter for var % modulus == residue."""
    if modulus > sys.maxsize:
        raise GuardConstraintError(f"guard {var} % {modulus} == {residue} needs {modulus} states")
    stay = tuple(range(modulus))
    delta = {v: stay[1:] + (0,) if v == var else stay for v in alphabet}
    return GuardDfa(alphabet, modulus, 0, frozenset([residue]), delta)


def dfa_complement(d: GuardDfa) -> GuardDfa:
    """Same tables, accepting states flipped."""
    flipped = frozenset(range(d.num_states)) - d.accepting
    return GuardDfa(d.alphabet, d.num_states, d.initial, flipped, d.delta)


def dfa_product(d1: GuardDfa, d2: GuardDfa) -> GuardDfa:
    """Synchronous product of two DFAs over one alphabet, restricted to
    reachable pairs; accepts the intersection. Completeness is preserved
    because the reachable set of a complete product is transition-closed.
    Pairs are numbered breadth-first from the start pair."""
    order = [(d1.initial, d2.initial)]
    index = {order[0]: 0}
    tables = {v: (d1.delta[v], d2.delta[v], []) for v in d1.alphabet}
    for q1, q2 in order:  # the list grows while it is read
        for t1, t2, succ in tables.values():
            pair = (t1[q1], t2[q2])
            j = index.setdefault(pair, len(order))
            if j == len(order):
                order.append(pair)
            succ.append(j)
    accepting = frozenset(
        i for i, (a, b) in enumerate(order) if a in d1.accepting and b in d2.accepting
    )
    delta = {v: tuple(succ) for v, (_, _, succ) in tables.items()}
    return GuardDfa(d1.alphabet, len(order), 0, accepting, delta)


def build_guard_dfa(g: Guard, alphabet: Sequence[str]) -> GuardDfa:
    """Compile a guard to a complete DFA over the given alphabet: the one guard
    compiler behind observations, conditionals, queries and decrements."""
    alpha = tuple(alphabet)
    missing = [v for v in guard_vars(g) if v not in alpha]
    if missing:
        raise UnknownVariable(f"guard mentions {sorted(missing)} outside {alpha}")
    return _compile(g, alpha)


def _compile(g: Guard, alphabet: tuple[str, ...]) -> GuardDfa:
    """Structural compilation of a guard whose variables are all in the alphabet."""
    if isinstance(g, LessThan):
        return dfa_less_than(g.var, g.bound, alphabet)
    if isinstance(g, ModEq):
        return dfa_mod(g.var, g.modulus, g.residue, alphabet)
    if isinstance(g, And):
        return dfa_product(_compile(g.left, alphabet), _compile(g.right, alphabet))
    if isinstance(g, Not):
        return dfa_complement(_compile(g.inner, alphabet))
    raise TypeError(f"not a guard: {g!r}")
