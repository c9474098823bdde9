"""Exact scalar arithmetic.

Weights are nonnegative `fractions.Fraction` values everywhere; no floats enter
any computation. The one extension is a single +infinity point (`INF`) used for
diverging total mass, with the usual semiring rules on the nonnegative extended
rationals: a + INF = INF, a * INF = INF for a > 0, and 0 * INF = 0.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Union

from .errors import InvalidWeight

_WEIGHT_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


class Infinity:
    """The +infinity point. Use the module-level singleton ``INF``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("redip.INF")

    def _check(self, other: object) -> None:
        if isinstance(other, Infinity):
            return
        if isinstance(other, (int, Fraction)):
            if other < 0:
                raise InvalidWeight("arithmetic with INF is defined on nonnegative values only")
            return
        raise TypeError(f"cannot combine INF with {type(other).__name__}")

    def __add__(self, other: object) -> "Infinity":
        self._check(other)
        return self

    __radd__ = __add__

    def __mul__(self, other: object) -> "ExtRational":
        self._check(other)
        if not isinstance(other, Infinity) and other == 0:
            return Fraction(0)
        return self

    __rmul__ = __mul__

    def __lt__(self, other: object) -> bool:
        self._check(other)
        return False

    def __le__(self, other: object) -> bool:
        self._check(other)
        return isinstance(other, Infinity)

    def __gt__(self, other: object) -> bool:
        self._check(other)
        return not isinstance(other, Infinity)

    def __ge__(self, other: object) -> bool:
        self._check(other)
        return True


INF = Infinity()

ExtRational = Union[Fraction, Infinity]


def is_finite(value: ExtRational) -> bool:
    return not isinstance(value, Infinity)


def parse_weight(text: str) -> Fraction:
    """Parse a nonnegative rational from its canonical string form.

    Accepted forms are a decimal-free natural number ("3") or a ratio of two
    naturals ("9/10"). Anything else (signs, floats, whitespace) is rejected.
    """
    if not isinstance(text, str):
        raise InvalidWeight(f"weight must be a string, got {type(text).__name__}")
    m = _WEIGHT_RE.match(text)
    if m is None:
        raise InvalidWeight(f"malformed weight {text!r} (expected 'n' or 'n/d')")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # int() refuses numbers past sys.get_int_max_str_digits()
        raise InvalidWeight(f"weight of {len(text)} characters has too many digits") from None
    if den == 0:
        raise InvalidWeight(f"zero denominator in weight {text!r}")
    return Fraction(num, den)


def format_weight(value: Fraction) -> str:
    """Inverse of parse_weight: "3" for integers, "9/10" otherwise."""
    if value < 0:
        raise InvalidWeight(f"negative weight {value}")
    return str(value)


def decimal_str(value: Fraction, digits: int = 6) -> str:
    """Render a rational to `digits` significant decimal digits, exactly.

    One correctly rounded (half-even) decimal division; no float is involved.
    Trailing zeros after the point are stripped. Very small or large magnitudes
    fall back to scientific notation.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # the widest exponent range: no rational's quotient overflows or underflows
    with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)):
        q = Decimal(value.numerator) / Decimal(value.denominator)
        return format(q.normalize(), "f" if -4 <= q.adjusted() <= 12 else "e")


def format_ext(value: ExtRational) -> str:
    return "inf" if isinstance(value, Infinity) else format_weight(value)
