"""Precision-tag semantics of BigReal and the cached pi."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import BigReal, pi_bits
from piforge.bigreal import as_fraction, decimal_digits, round_to

from conftest import tol_bits


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        BigReal.of(1, 32)


def test_arithmetic_uses_max_precision():
    a = BigReal.of(Fraction(1, 3), 128)
    b = BigReal.of(Fraction(1, 7), 512)
    assert (a + b).prec == 512
    assert (a * b).prec == 512
    assert (b / a).prec == 512
    assert (a - 1).prec == 128


def test_negation_and_abs_keep_own_precision():
    x = BigReal.of(1, 256) - BigReal.of(2, 256) ** -100
    with mp.workprec(53):
        neg, mag = -x, abs(-x)
    assert neg.prec == mag.prec == 256
    assert neg.value == -x.value
    assert mag.value == x.value


def test_exact_operand_promotion():
    a = BigReal.of(Fraction(1, 3), 256)
    s = a + Fraction(2, 3)
    assert abs(s.value - 1) < tol_bits(256, 4)


def test_comparisons_and_hash():
    a = BigReal.of(2, 128).sqrt()
    b = BigReal.of(2, 256).sqrt()
    assert a < b or b < a or a == b  # total order on values
    assert BigReal.of(3, 128) == 3
    assert BigReal.of(3, 128) > Fraction(5, 2)
    assert hash(BigReal.of(3, 128)) == hash(BigReal.of(3, 256))


def test_pi_against_independent_oracle():
    for prec in (64, 128, 512, 1024):
        with mp.workprec(prec + 8):
            assert abs(pi_bits(prec) - mpmath.pi) < tol_bits(prec, 4)


def test_pi_cache_is_per_precision():
    assert pi_bits(128) is pi_bits(128)
    assert pi_bits(128) != pi_bits(256)


def test_decimal_round_trip():
    x = BigReal.of(Fraction(355, 113), 256)
    text = x.to_decimal()
    y = BigReal.of(text, 256)
    assert abs((x - y).value) < tol_bits(256, 8)


def test_round_to_halves():
    with mp.workprec(512):
        v = mpmath.sqrt(2)
    r = round_to(v, 256)
    assert r.prec == 256
    assert abs(r.value ** 2 - 2) < tol_bits(256, 4)


def test_as_fraction_rejects_floats():
    # a float is not an exact rational: 0.1 would silently become 3602879701896397/2^55
    assert as_fraction("13/2") == Fraction(13, 2) and as_fraction(7) == Fraction(7)
    with pytest.raises(TypeError, match="expected a rational"):
        as_fraction(0.5)


def test_decimal_digits_monotone():
    assert decimal_digits(512) > decimal_digits(256) > decimal_digits(64)
