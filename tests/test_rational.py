"""Exact scalar layer: weight strings, decimal rendering, the infinity point."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redip.errors import InvalidWeight, RedipError
from redip.rational import INF, decimal_str, format_weight, is_finite, parse_weight


def test_parse_weight_accepts_canonical_forms():
    assert parse_weight("3") == 3
    assert parse_weight("0") == 0
    assert parse_weight("9/10") == Fraction(9, 10)
    assert parse_weight("140/40") == Fraction(7, 2)  # unreduced input is fine


# the last three: a trailing newline, Arabic-Indic 3/4 and a fullwidth 3
@pytest.mark.parametrize(
    "bad",
    ["-1", "+2", "0.5", "1/0", " 1", "1 ", "1/ 2", "1//2", "", "a", "1/-2", "1e3"]
    + ["3\n", "\u0663/\u0664", "\uff13"],
)
def test_parse_weight_rejects_noncanonical(bad):
    with pytest.raises(InvalidWeight):
        parse_weight(bad)


fractions = st.fractions(min_value=0, max_value=1000)


@given(fractions)
def test_weight_string_round_trip(q):
    assert parse_weight(format_weight(q)) == q


def test_format_weight_rejects_negative():
    with pytest.raises(InvalidWeight):
        format_weight(Fraction(-1, 2))


def test_format_weight_refuses_a_value_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert format_weight(Fraction(1, 10**639)) == "1/1" + "0" * 639
        with pytest.raises(RedipError, match="more digits than Python will print .640.; "
                           "set PYTHONINTMAXSTRDIGITS=0"):
            format_weight(Fraction(1, 10**640))
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- decimals


def test_decimal_str_examples():
    assert decimal_str(Fraction(11, 40)) == "0.275"
    assert decimal_str(Fraction(2, 11)) == "0.181818"
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(0)) == "0"
    assert decimal_str(Fraction(1)) == "1"
    assert decimal_str(Fraction(1, 2), digits=1) == "0.5"
    assert decimal_str(Fraction(2, 3), digits=2) == "0.67"


def test_decimal_str_scientific_fallback():
    assert decimal_str(Fraction(1, 10**13)) == "1e-13"
    assert decimal_str(Fraction(3, 2 * 10**10)) == "1.5e-10"
    assert decimal_str(Fraction(10**15)) == "1e+15"
    # magnitude 1e-4 is still positional, 1e-5 is not
    assert decimal_str(Fraction(1, 10**4)) == "0.0001"
    assert decimal_str(Fraction(1, 10**5)) == "1e-5"


def test_decimal_str_rounding_is_half_even():
    # 0.1234565 at 6 digits: the discarded half rounds to the even neighbor
    assert decimal_str(Fraction(1234565, 10**7), digits=6) == "0.123456"
    assert decimal_str(Fraction(1234575, 10**7), digits=6) == "0.123458"
    # carry across the leading digit bumps the exponent
    assert decimal_str(Fraction(999999999, 10**9), digits=6) == "1"


# keep magnitudes inside the positional-notation window so Fraction() can
# parse the rendering back
positional = fractions.filter(lambda q: q == 0 or q >= Fraction(1, 9999))


@given(positional, st.integers(min_value=1, max_value=12))
def test_decimal_str_close_to_value(q, digits):
    """The rendered decimal differs from the value by < one unit in the last
    significant place."""
    text = decimal_str(q, digits)
    assert "e" not in text
    back = Fraction(text)
    if q == 0:
        assert back == 0
        return
    assert abs(back - q) <= abs(q) * Fraction(1, 10 ** (digits - 1))


# ---------------------------------------------------------------- infinity


def test_infinity_ordering():
    # INF is a sentinel: it compares equal only to itself and has no order
    assert INF == INF and INF != 1
    with pytest.raises(TypeError):
        INF < 5
    assert not is_finite(INF)
    assert is_finite(Fraction(3))


def test_decimal_str_past_the_int_digit_limit():
    # the denominator has 4,772 digits, more than int-to-str conversion allows
    assert decimal_str(Fraction(1, 3**10000)) == "6.12989e-4772"


def test_parse_weight_rejects_too_many_digits():
    with pytest.raises(InvalidWeight, match="too many digits"):
        parse_weight("1" * 5001)
