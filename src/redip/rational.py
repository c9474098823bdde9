"""Exact scalar arithmetic.

Weights are nonnegative `fractions.Fraction` values everywhere; no floats enter
any computation. The one extension is a single +infinity point (`INF`) that
`mass` returns for a diverging total mass. It is a sentinel only: it has no
arithmetic or ordering, so callers test it with `is_finite` first.
"""

from __future__ import annotations

import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Union

from .errors import InvalidWeight, RedipError

_WEIGHT_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


class Infinity:
    """The +infinity point. Use the module-level singleton ``INF``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("redip.INF")


INF = Infinity()

ExtRational = Union[Fraction, Infinity]


def is_finite(value: ExtRational) -> bool:
    return not isinstance(value, Infinity)


def parse_weight(text: str) -> Fraction:
    """Parse a nonnegative rational from its canonical string form.

    Accepted forms are a decimal-free natural number ("3") or a ratio of two
    naturals ("9/10"), in ASCII digits. Anything else (signs, floats,
    whitespace, other scripts' digits) is rejected.
    """
    if not isinstance(text, str):
        raise InvalidWeight(f"weight must be a string, got {type(text).__name__}")
    m = _WEIGHT_RE.fullmatch(text)
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
    if value.numerator < 0:
        raise InvalidWeight(f"negative weight {value}")
    try:
        return str(value)
    except ValueError:  # str() refuses integers past sys.get_int_max_str_digits()
        raise RedipError(
            f"the exact value has more digits than Python will print "
            f"({sys.get_int_max_str_digits()}); set PYTHONINTMAXSTRDIGITS=0 to print it"
        ) from None


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
