"""Exact helpers: the float log of a rational against a decimal oracle."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldspace.linalg import frac_log, log_ratio, mat_mul, mat_pow


def _decimal_log(q):
    """ln q to about 30 significant digits.  Rounding q to ``prec`` digits
    moves ln q by about 10^-prec, so the precision grows with how close q
    is to 1."""
    offset = abs(q - 1)
    bits = 0 if offset == 0 else max(
        0, offset.denominator.bit_length() - offset.numerator.bit_length())
    with localcontext() as ctx:
        ctx.prec = 40 + bits * 31 // 100
        return float((Decimal(q.numerator) / Decimal(q.denominator)).ln())


def _check(q):
    got, want = frac_log(q), _decimal_log(q)
    # no sign error, however close to 1
    assert (got >= 0) if q >= 1 else (got <= 0)
    if abs(q - 1) <= Fraction(1, 2):
        assert abs(got - want) <= 2 * math.ulp(want), (q, got, want)
    else:
        # away from 1 the log is a difference of two logs of the parts
        scale = max(math.log(q.numerator), math.log(q.denominator), 1.0)
        assert abs(got - want) <= 8 * math.ulp(scale), (q, got, want)


_near_one = st.builds(lambda t, k: 1 + t / 2 ** k,
                      st.fractions(min_value=-1, max_value=1,
                                   max_denominator=2 ** 64),
                      st.integers(1, 3100))
_positive = st.builds(Fraction, st.integers(1, 2 ** 200),
                      st.integers(1, 2 ** 200))


@settings(max_examples=80, deadline=None)
@given(q=_near_one)
@example(q=Fraction(2 ** 3000 + 1, 2 ** 3000))
@example(q=Fraction(2 ** 3000 - 1, 2 ** 3000))
@example(q=1 + Fraction(1, 10 ** 50))
@example(q=Fraction(3, 2))
def test_frac_log_near_one_matches_decimal(q):
    _check(q)


@settings(max_examples=200, deadline=None)
@given(q=_positive)
def test_frac_log_matches_decimal(q):
    _check(q)


def test_frac_log_near_one_regressions():
    assert frac_log(Fraction(2 ** 3000 + 1, 2 ** 3000)) == 0.0
    assert frac_log(1 + Fraction(1, 10 ** 50)) == 1e-50
    assert frac_log(1 - Fraction(1, 10 ** 50)) == -1e-50
    # ln(3/2) correctly rounded
    assert frac_log(Fraction(3, 2)) == 0.4054651081081644


@settings(max_examples=200, deadline=None)
@given(q=st.one_of(_positive, _near_one), g=st.integers(1, 2 ** 300))
def test_log_ratio_is_frac_log_of_the_reduced_ratio(q, g):
    """Unreduced pairs give exactly the float of the reduced fraction, near
    1 and away from it."""
    assert log_ratio(q.numerator * g, q.denominator * g) == frac_log(q)


@given(k=st.integers(1, 200), entries=st.lists(st.integers(0, 5), min_size=9,
                                                max_size=9))
def test_mat_pow_matches_repeated_products(k, entries):
    M = [entries[0:3], entries[3:6], entries[6:9]]
    want = M
    for _ in range(k - 1):
        want = mat_mul(want, M)
    assert mat_pow(M, k) == want
    assert mat_pow(M, 1) is M



def _frac_log_fraction_path(q):
    """``frac_log`` before its int path: every input goes through the
    numerator and denominator parts."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    np_, dp = q.numerator, q.denominator
    if np_ <= 0:
        raise ValueError("log of a non-positive rational")
    if 2 * abs(np_ - dp) <= dp:
        return math.log1p((np_ - dp) / dp)
    shift_n = max(np_.bit_length() - 500, 0)
    shift_d = max(dp.bit_length() - 500, 0)
    return (math.log(np_ >> shift_n) + shift_n * math.log(2)
            - math.log(dp >> shift_d) - shift_d * math.log(2))


def _int_cases():
    rng = random.Random(3000)
    for bits in range(1, 3001):
        # the top bit set, the rest drawn: one int of every bit length, and
        # 300 next to the shift, where one bit more or less moves the float
        # of about one in thirty
        for _ in range(300 if 495 <= bits <= 505 else 1):
            yield (1 << (bits - 1)) | rng.getrandbits(bits - 1)
    for k in range(495, 506):
        yield from (2 ** k - 1, 2 ** k, 2 ** k + 1)
    yield from (1, 2, 3, True)


def test_frac_log_int_path_is_the_fraction_path():
    """The int path gives the same float, bit for bit, on both sides of
    the 500-bit shift."""
    for q in _int_cases():
        assert frac_log(q) == _frac_log_fraction_path(q), q


@pytest.mark.parametrize("q", [0, -5, False, Fraction(0), Fraction(-3, 2)])
def test_frac_log_refuses_non_positive(q):
    with pytest.raises(ValueError, match="non-positive"):
        frac_log(q)
