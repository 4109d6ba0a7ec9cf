"""The one AGM loop behind pi_bits, agm, ell_k and ell_e.

The oracles below are the loops these functions were once computed by: the
Gauss-Legendre iteration of pi_bits, with its absolute stop test and its
running t = 1/4 - sum, the plain AGM of agm, and the AGM with side sum
behind K and E. The shared kernel must reproduce each of them to the last
bit.
"""

import functools
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import BigReal, agm, ell_e, ell_k, pi_bits, singular_modulus
from piforge.elliptic import GUARD


def gauss_legendre_pi(prec):
    with mp.workprec(prec + 32):
        a = mpmath.mpf(1)
        b = 1 / mpmath.sqrt(2)
        t = mpmath.mpf(1) / 4
        p = 1
        eps = mpmath.mpf(2) ** (-(prec + 16))
        while abs(a - b) > eps:
            an = (a + b) / 2
            b = mpmath.sqrt(a * b)
            t -= p * (a - an) ** 2
            a = an
            p *= 2
        approx = (a + b) ** 2 / (4 * t)
    with mp.workprec(prec):
        return +approx


def agm_loop(a, b, prec):
    wprec = prec + GUARD
    with mp.workprec(wprec):
        av, bv = a.value, b.value
        eps = mpmath.mpf(2) ** (-prec)
        while abs(av - bv) >= eps * av:
            av, bv = (av + bv) / 2, mpmath.sqrt(av * bv)
        out = (av + bv) / 2
    with mp.workprec(prec):
        return +out


def _agm_with_side_sum(kv, prec):
    """AGM of (1, k') plus the side sum S = sum 2^(n-1) c_n^2 with c_0 = k."""
    av = mpmath.mpf(1)
    bv = mpmath.sqrt(1 - kv * kv)
    eps = mpmath.mpf(2) ** (-prec)
    side = kv * kv / 2  # 2^(-1) c_0^2
    n = 0
    while abs(av - bv) >= eps * av:
        c = (av - bv) / 2
        n += 1
        side += mpmath.mpf(2) ** (n - 1) * c * c
        av, bv = (av + bv) / 2, mpmath.sqrt(av * bv)
    return (av + bv) / 2, side


def ke_loop(k, prec):
    """(K, E) as ell_k and ell_e once computed them, each rounded to prec."""
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        m, side = _agm_with_side_sum(k.value, prec + GUARD)
        big_k = pi_bits(wprec) / (2 * m)
        big_e = pi_bits(wprec) / (2 * m) * (1 - side)
    with mp.workprec(prec):
        return +big_k, +big_e


# every bit count from 64 to 319, then a geometric stride of 5/4 up to
# 16,384 bits, where each precision costs far more
PI_PRECISIONS = [*range(64, 320), *(int(320 * 1.25 ** i) for i in range(18)), 16384]


def test_pi_matches_gauss_legendre_loop():
    assert len(PI_PRECISIONS) >= 250
    for prec in PI_PRECISIONS:
        assert pi_bits(prec) == gauss_legendre_pi(prec), prec


@functools.lru_cache(maxsize=None)
def singular_k(r):
    return singular_modulus(r, 8192).k


def check_modulus(k, prec):
    kb = BigReal.of(k, prec)
    assert (ell_k(kb, prec).value, ell_e(kb, prec).value) == ke_loop(kb, prec)
    one = BigReal.of(1, prec)
    kp = (1 - kb * kb).sqrt()
    assert agm(one, kp, prec).value == agm_loop(one, kp, prec)


@pytest.mark.parametrize("r", [Fraction(1, 3), 2, Fraction(7, 2), 58])
def test_k_e_agm_match_loops_at_singular_moduli(r):
    for prec in (64, 113, 512, 1999, 4096, 8192):
        check_modulus(singular_k(r), prec)


def test_k_e_agm_match_loops_at_random_moduli():
    rng = random.Random(1208)
    for _ in range(10):
        prec = rng.randrange(64, 8193)
        check_modulus(Fraction(rng.getrandbits(prec), 2 ** prec), prec)
        a = BigReal.of(Fraction(rng.randrange(1, 2 ** 64), rng.randrange(1, 2 ** 32)), prec)
        b = BigReal.of(Fraction(rng.randrange(1, 2 ** 64), rng.randrange(1, 2 ** 32)), prec)
        assert agm(a, b, prec).value == agm_loop(a, b, prec)
