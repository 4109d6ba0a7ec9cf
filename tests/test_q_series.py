"""The theta-series kernel behind theta2/3/4, eta_f, rr_eval and eisenstein_p.

The oracles below are the q-products and the Lambert series these functions
were once computed by. They share no code with the kernel: each multiplies
or sums term by term with a geometric tail bound, at prec + 16 bits.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import (BigReal, eisenstein_p, eta_f, nome, rr_convergents, rr_eval,
                     theta2, theta3, theta4)
from piforge.elliptic import GUARD


def product_eta(qv, prec):
    """f(-q) = prod_{n>=1} (1 - q^n), cut once q^(n+1)/(1-q) < 2^(-prec-8)."""
    with mp.workprec(prec + 2 * GUARD):
        eps = mpmath.mpf(2) ** (-(prec + GUARD))
        prod, qn = mpmath.mpf(1), mpmath.mpf(1)
        while True:
            qn *= qv
            prod *= 1 - qn
            if qn / (1 - qv) < eps:
                return prod


def product_rr(qv, prec):
    """R(q) = q^(1/5) prod_{n>=1} (1 - q^n)^chi(n), chi(n) = +1 for n = +-1,
    -1 for n = +-2 (mod 5) and 0 otherwise."""
    chi = {1: 1, 4: 1, 2: -1, 3: -1, 0: 0}
    with mp.workprec(prec + 2 * GUARD):
        eps = mpmath.mpf(2) ** (-(prec + GUARD))
        prod, qn, n = mpmath.mpf(1), mpmath.mpf(1), 0
        while True:
            n += 1
            qn *= qv
            if chi[n % 5] == 1:
                prod *= 1 - qn
            elif chi[n % 5] == -1:
                prod /= 1 - qn
            if qn / (1 - qv) < eps:
                return mpmath.root(qv, 5) * prod


def lambert_p(qv, prec):
    """P(q) = 1 - 24 sum_{n>=1} n q^n/(1 - q^n), cut once the tail bound
    q^(n+1) (n+2)/(1-q)^3 < 2^(-prec-8)."""
    with mp.workprec(prec + 2 * GUARD):
        eps = mpmath.mpf(2) ** (-(prec + GUARD))
        s, qn, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            n += 1
            qn *= qv
            s += n * qn / (1 - qn)
            if qn * (n + 2) / (1 - qv) ** 3 < eps:
                return 1 - 24 * s


def rel_err(got, want):
    return abs(got.value - want) / abs(want)


@pytest.mark.parametrize("r", [1, 2, 5])
def test_q_series_against_oracles_at_singular_nomes(r):
    prec = 2048
    q = nome(r, prec)
    tol = mpmath.mpf(2) ** (8 - prec)
    with mp.workprec(prec + 2 * GUARD):
        qv = q.value
        checks = [
            (theta2(q, prec), mpmath.jtheta(2, 0, qv)),
            (theta3(q, prec), mpmath.jtheta(3, 0, qv)),
            (theta4(q, prec), mpmath.jtheta(4, 0, qv)),
            (eta_f(q, prec), mpmath.qp(qv)),
            (eta_f(q, prec), product_eta(qv, prec)),
            (rr_eval(q, prec).R, product_rr(qv, prec)),
            (rr_eval(q, prec).R, rr_convergents(q, prec).value),
            (eisenstein_p(q, prec), lambert_p(qv, prec)),
        ]
    for i, (got, want) in enumerate(checks):
        assert rel_err(got, want) < tol, i


@pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(99, 100)])
def test_q_series_keep_relative_accuracy_near_one(q):
    # f(-0.99) ~ 2e-70: the theta series cancel by ~230 bits against their
    # largest term, which the kernel must win back with extra bits
    prec = 256
    qb = BigReal.of(q, prec)
    tol = mpmath.mpf(2) ** (16 - prec)
    with mp.workprec(prec + 2 * GUARD):
        qv = qb.value
        checks = [
            (eta_f(qb, prec), product_eta(qv, prec)),
            (rr_eval(qb, prec).R, product_rr(qv, prec)),
            (eisenstein_p(qb, prec), lambert_p(qv, prec)),
        ]
    with mp.workprec(4 * prec):
        # mpmath's own theta sum cancels as well
        checks.append((theta4(qb, prec), mpmath.jtheta(4, 0, qv)))
    for i, (got, want) in enumerate(checks):
        assert rel_err(got, want) < tol, i


@pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(99, 100)])
def test_rr_companion_a_keeps_relative_accuracy_near_one(q):
    # A = R^(-5) - 11 - R^5 cancels as q -> 1 (about 1,130 bits at q = 0.99),
    # so rr_eval takes Ramanujan's A = f(-q)^6/(q f(-q^5)^6) from theta
    # series here; mpmath.qp's products are the independent reference
    prec = 256
    qb = BigReal.of(q, prec)
    with mp.workprec(2000):
        qv = qb.value
        want = mpmath.qp(qv) ** 6 / (qv * mpmath.qp(qv ** 5) ** 6)
    assert rel_err(rr_eval(qb, prec).A, want) < mpmath.mpf(2) ** (16 - prec)


def test_rr_companion_a_at_q_999_agrees_across_precisions():
    # both calls get the same 128-bit q: A ~ exp(-c/(1-q)) magnifies a
    # 2^-128 change in q about 2^21-fold
    qb = BigReal.of(Fraction(999, 1000), 128)
    lo, hi = rr_eval(qb, 128).A, rr_eval(qb, 256).A
    assert rel_err(lo, hi.value) < mpmath.mpf(2) ** -120
