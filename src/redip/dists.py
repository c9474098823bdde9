"""Built-in sampling distributions and their automata.

Each distribution over the naturals becomes a single-variable automaton whose
behavior is its probability generating function; all of them have mass exactly
one. Custom distributions are loaded from automaton JSON files, validated, and
re-lettered onto the target variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .analysis import mass
from .constructions import concat
from .errors import CustomMassNotOne, CustomNotNormalized, InvalidParameter, UnknownVariable
from .pga import Pga, make_pga, unit_pga
from .serialize import load_pga


def _check_prob(p: Fraction, *, positive: bool = False) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidParameter(f"probability {p} outside [0, 1]")
    if positive and p == 0:
        raise InvalidParameter("probability must be positive here")
    return p


@dataclass(frozen=True)
class Geometric:
    """Failures before the first success: P(k) = (1-p)^k p. Needs p > 0."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_prob(self.p, positive=True))


@dataclass(frozen=True)
class Bernoulli:
    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_prob(self.p))


@dataclass(frozen=True)
class Dirac:
    """Point mass at a fixed natural number."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise InvalidParameter(f"dirac value must be a natural, got {self.value}")


@dataclass(frozen=True)
class Uniform:
    """Uniform on {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidParameter(f"uniform needs size >= 1, got {self.size}")


@dataclass(frozen=True)
class Binomial:
    trials: int
    p: Fraction

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise InvalidParameter(f"binomial trials must be a natural, got {self.trials}")
        object.__setattr__(self, "p", _check_prob(self.p))


@dataclass(frozen=True)
class NegBinomial:
    """Failures before the `successes`-th success. Needs p > 0."""

    successes: int
    p: Fraction

    def __post_init__(self) -> None:
        if self.successes < 0:
            raise InvalidParameter(
                f"negbinomial successes must be a natural, got {self.successes}"
            )
        object.__setattr__(self, "p", _check_prob(self.p, positive=True))


@dataclass(frozen=True)
class Custom:
    """A distribution given as a single-variable automaton JSON file."""

    path: str


DistSpec = Union[Geometric, Bernoulli, Dirac, Uniform, Binomial, NegBinomial, Custom]


def build_dist_pga(spec: DistSpec, var: str, alphabet: Sequence[str]) -> Pga:
    """Automaton with the distribution's generating function over `var`,
    hosted on the full program alphabet."""
    if var not in alphabet:
        raise UnknownVariable(f"{var!r} not in alphabet {tuple(alphabet)}")
    # make_pga drops the zero weights of the p = 0 and p = 1 cases
    if isinstance(spec, Geometric):
        return make_pga(alphabet, 1, [(0, 0, 1 - spec.p, var)], {0: 1}, {0: spec.p})
    if isinstance(spec, Bernoulli):
        return make_pga(alphabet, 2, [(0, 1, spec.p, var)], {0: 1}, {0: 1 - spec.p, 1: 1})
    if isinstance(spec, Dirac):
        n = spec.value
        edges = [(i, i + 1, Fraction(1), var) for i in range(n)]
        return make_pga(alphabet, n + 1, edges, {0: 1}, {n: 1})
    if isinstance(spec, Uniform):
        m = spec.size
        edges = [(i, i + 1, Fraction(1), var) for i in range(m - 1)]
        share = Fraction(1, m)
        return make_pga(alphabet, m, edges, {0: 1}, {i: share for i in range(m)})
    if isinstance(spec, (Binomial, NegBinomial)):
        # n independent draws: n chained copies of the one-draw automaton
        if isinstance(spec, Binomial):
            n, draw = spec.trials, Bernoulli(spec.p)
        else:
            n, draw = spec.successes, Geometric(spec.p)
        if n == 0:
            return unit_pga(alphabet)
        one = build_dist_pga(draw, var, alphabet)
        out = one
        for _ in range(n - 1):
            out = concat(out, one)
        return out
    if isinstance(spec, Custom):
        return _build_custom(spec, var, alphabet)
    raise InvalidParameter(f"not a distribution: {spec!r}")


def _build_custom(spec: Custom, var: str, alphabet: Sequence[str]) -> Pga:
    loaded = load_pga(spec.path)
    if len(loaded.alphabet) != 1:
        raise CustomNotNormalized(
            f"{spec.path}: custom distribution must use exactly one variable, "
            f"found {loaded.alphabet}"
        )
    m = mass(loaded)
    if m != 1:
        raise CustomMassNotOne(f"{spec.path}: mass is {m}, expected exactly 1")
    edges = [e._replace(symbol=var) if e.symbol else e for e in loaded.edges]
    return make_pga(alphabet, loaded.num_states, edges, loaded.initial, loaded.final)
