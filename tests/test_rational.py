"""poly.Rational, poly.ratio and poly.rational against fractions.Fraction.

Every result is an int when it is integral and a Rational in lowest terms
with denominator > 1 otherwise, and equals what Fraction computes.  The
reader takes exactly the strings of the grammar it replaced, a regular
expression kept here as the oracle, and gives Fraction(s) for each."""

import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mwglue.poly as P

# The grammar poly.rational read with re.fullmatch before it read by hand.
RATIONAL_PATTERN = r"[+-]?[0-9]+(\.[0-9]+|/0*[1-9][0-9]*)?"


def _exact(value) -> bool:
    """An int, or a Rational in lowest terms with denominator > 1."""
    return type(value) is int or (type(value) is P.Rational and value.denominator > 1
                                  and gcd(value.numerator, value.denominator) == 1)


def _oracle(value) -> Fraction:
    """A library value or a Fraction as a Fraction."""
    return Fraction(value.numerator, value.denominator)


fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
# library values: ints and Rationals, as fraction gives them
values = st.one_of(st.integers(-10**6, 10**6), fractions.map(P.fraction))
# the other operand: a library value or a Fraction, which may be integral
operands = st.one_of(values, fractions)


@given(values, operands)
@settings(max_examples=300, deadline=None)
@example(P.ratio(1, 2), P.ratio(1, 2))  # a sum that is an int
@example(P.ratio(2, 3), Fraction(3, 2))  # a product that is an int
def test_ring_operations_on_both_sides(a, b):
    assume(P.Rational in (type(a), type(b)))  # int with int, or with Fraction, is not ours
    for op in (operator.add, operator.sub, operator.mul):
        for got, want in ((op(a, b), op(_oracle(a), _oracle(b))), (op(b, a), op(_oracle(b), _oracle(a)))):
            assert _exact(got) and got == want


@given(values, st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_unary_operations_and_powers(a, k):
    for got, want in ((-a, -_oracle(a)), (abs(a), abs(_oracle(a))), (a**k, _oracle(a) ** k)):
        assert _exact(got) and got == want


@given(operands, operands)
@settings(max_examples=300, deadline=None)
def test_ratio(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            P.ratio(a, b)
    else:
        got = P.ratio(a, b)
        assert _exact(got) and got == _oracle(a) / _oracle(b)


@given(values, operands)
@settings(max_examples=300, deadline=None)
def test_comparisons(a, b):
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(a, b) is op(_oracle(a), _oracle(b))
        assert op(b, a) is op(_oracle(b), _oracle(a))


@given(fractions)
@settings(max_examples=300, deadline=None)
@example(Fraction(1, 2**61 - 1))  # a denominator with no inverse mod the hash modulus
@example(Fraction(-1, 2**61 - 1))
@example(Fraction(-3, 2))
def test_hash_str_and_equality_match_fraction(q):
    r = P.fraction(q)
    assert _exact(r)
    assert hash(r) == hash(q) and str(r) == str(q) and r == q and q == r
    assert {r: 1}[q] == 1 and len({r, q, P.fraction(q)}) == 1


def test_an_integral_value_is_an_int():
    assert type(P.fraction(Fraction(4, 2))) is int
    assert P.ratio(1, 2) + P.ratio(1, 2) == 1 and type(P.ratio(1, 2) + P.ratio(1, 2)) is int
    assert type(P.ratio(2, 3) * 3) is int and type(3 * P.ratio(2, 3)) is int
    assert type(P.ratio(-6, -3)) is int and P.ratio(-6, -3) == 2
    assert type(P.ratio(1, 2) ** 0) is int


@pytest.mark.parametrize("make", [
    lambda r: r / 2, lambda r: 2 / r, lambda r: r / r, lambda r: r + 0.5, lambda r: 0.5 * r,
    lambda r: r < 0.5, lambda r: r ** -1, lambda r: r ** P.ratio(1, 2), lambda r: r + "1",
    lambda r: Fraction(r),  # not registered with numbers.Rational
])
def test_refused_operations(make):
    with pytest.raises(TypeError):
        make(P.ratio(1, 2))


@pytest.mark.parametrize("value", [0.5, "1/2", None, 1j])
def test_fraction_refuses_inexact_values(value):
    with pytest.raises(TypeError):
        P.fraction(value)


@given(st.from_regex(RATIONAL_PATTERN, fullmatch=True))
@settings(max_examples=400, deadline=None)
@example("-0")
@example("+007.500")
@example("-10/0004")
@example("3/6")
def test_reader_takes_the_grammar(s):
    got = P.rational(s)
    assert _exact(got) and got == Fraction(s)


@pytest.mark.parametrize("s", [
    " 1", "1 ", "1_0", "1e3", "٣", "²", "1/0", "1/00", "1/-2", "1/+2", "--1", "+-1", "1.", ".5", "+", "-",
    "", "1/", "/2", "1.5/2", "1/2.5", "1/2/3", "1..5", "0x10", "½", "inf", "nan",
])
def test_reader_refuses_near_misses(s):
    assert not re.fullmatch(RATIONAL_PATTERN, s)
    with pytest.raises(ValueError, match="not a rational number"):
        P.rational(s)


@given(st.text(alphabet="0123456789+-./e_ ", max_size=8))
@settings(max_examples=400, deadline=None)
def test_reader_refuses_what_the_grammar_refuses(s):
    if re.fullmatch(RATIONAL_PATTERN, s):
        assert P.rational(s) == Fraction(s)
    else:
        with pytest.raises(ValueError):
            P.rational(s)


def test_reader_keeps_json_integers_and_refuses_other_values():
    assert P.rational(-12) == -12 and type(P.rational(-12)) is int
    for value in (1.5, True, None, [1], {"a": 1}):
        with pytest.raises(ValueError):
            P.rational(value)


@pytest.mark.parametrize("s", ["1" * 5000, "1/" + "1" * 5000, "0." + "1" * 5000, "1" * 5000 + ".5"])
def test_reader_keeps_the_interpreter_digit_limit(s):
    # the CLI raises the limit to MAX_DIGITS; int() refuses a part above it
    with pytest.raises(ValueError, match="Exceeds the limit"):
        P.rational(s)
