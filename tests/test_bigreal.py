"""Precision-tag semantics of BigReal, the cached pi and the square root."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp, mp

import piforge as pf
from piforge import BigReal, bigreal, cli, pi_bits
from piforge.bigreal import as_fraction, decimal_digits, round_to, sqrt_mpf

from conftest import clear_caches, tol_bits


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        BigReal.of(1, 32)
    # the one floor, the CLI's included: a DomainError, caught as a ValueError
    with pytest.raises(ValueError, match="precision must be >= 64 bits, got 32") as exc:
        bigreal._check_prec(32)
    assert isinstance(exc.value, pf.DomainError)


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


@pytest.mark.parametrize("fill", ["ascending", "widest_first"])
def test_pi_rounds_as_mpmath_pi_at_every_precision(fill):
    bigreal.pi_bits.cache_clear()
    bigreal._widest_pi.cache_clear()
    if fill == "widest_first":
        pi_bits(9216)
        bigreal.pi_bits.cache_clear()
    try:
        for prec in range(64, 9217):
            with mp.workprec(prec):
                assert pi_bits(prec) == +mpmath.pi, prec
        # the last build: 256 + 8,960 bits from prec 8,705 on, or 256 + 9,216
        assert bigreal._widest_pi()[0] == {"ascending": 9216, "widest_first": 9472}[fill]
    finally:
        bigreal.pi_bits.cache_clear()


def test_pi_is_built_only_above_the_widest():
    bigreal.pi_bits.cache_clear()
    bigreal._widest_pi.cache_clear()
    # one verify level asks for prec + 8 to prec + 112 bits: one build each
    for level, bits in ((512, 1024), (2048, 2560), (8192, 8704), (512, 8704)):
        for prec in range(level + 8, level + 113):
            pi_bits(prec)
            assert bigreal._widest_pi()[0] == bits, (level, prec)


def _sqrt_cases():
    """(prec, x) for seeded random mantissas and exponents at 64 to 9,000 bits:
    odd and even exponents, exact squares and powers of 4 and of 2."""
    rng = random.Random(2212)
    for i in range(3000):
        prec = rng.randrange(64, 9001)
        kind = i % 4
        if kind == 0:
            man = rng.getrandbits(rng.randrange(1, 2 * prec + 64)) | 1
        elif kind == 1:
            man = rng.getrandbits(rng.randrange(1, prec + 32)) ** 2 or 1
        elif kind == 2:
            man = 1
        else:
            man = rng.getrandbits(prec // 2 + 1) | 1
        exp = rng.randrange(-3 * prec, 3 * prec)
        yield prec, mp.make_mpf(libmp.from_man_exp(man, exp))


def test_sqrt_mpf_matches_mpmath_sqrt_bit_for_bit():
    cases = list(_sqrt_cases())
    assert {int(x._mpf_[2]) % 2 for _, x in cases} == {0, 1}
    for prec, x in cases:
        with mp.workprec(prec):
            assert sqrt_mpf(x)._mpf_ == mpmath.sqrt(x)._mpf_, (prec, x._mpf_)
        with mp.workprec(53):
            assert sqrt_mpf(x)._mpf_ == mpmath.sqrt(x)._mpf_, (53, x._mpf_)


def test_sqrt_mpf_of_zero_and_of_a_negative():
    assert sqrt_mpf(mpmath.mpf(0)) == 0
    with pytest.raises(ValueError):
        sqrt_mpf(mpmath.mpf(-2))


def test_the_package_takes_no_root_through_mpmath_sqrt(monkeypatch, capsys):
    """sqrt_mpf is the package's one square root: with mpmath.sqrt refusing,
    the verify battery, an r < 1 context, the three routes, the algebraic
    A_r, a nu = 3 series and BigReal.sqrt still run, from emptied caches."""
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.sqrt called")

    clear_caches()
    monkeypatch.setattr(mpmath, "sqrt", refuse)
    assert cli.main(["--prec", "512", "verify"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    pf.singular_modulus(Fraction(1, 3), 512).defining_residual()
    pf.alpha_4r(pf.alpha_direct(2, 512))
    pf.alpha_9r(pf.alpha_direct(1, 512))
    pf.alpha_25r(pf.alpha_direct(1, 512))
    pf.a_r_algebraic(2, 512)
    pf.build_series(3, 7, 512)
    assert BigReal.of(4, 512).sqrt() == 2


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
    # the package's one check of r: bad text and r <= 0 are DomainErrors
    for r, message in (("1/0", "cannot parse rational '1/0'"),
                       ("abc", "cannot parse rational 'abc'"),
                       (0, "r must be positive, got 0"), (-3, "r must be positive, got -3"),
                       ("-7/2", "r must be positive, got -7/2")):
        with pytest.raises(pf.DomainError, match=message):
            as_fraction(r)


def test_decimal_digits_monotone():
    assert decimal_digits(512) > decimal_digits(256) > decimal_digits(64)
