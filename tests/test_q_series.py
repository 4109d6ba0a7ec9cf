"""The theta-series kernel behind theta2/3/4, eta_f, rr_eval and eisenstein_p.

The oracles below are the q-products and the Lambert series these functions
were once computed by. They share no code with the kernel: each multiplies
or sums term by term with a geometric tail bound, at prec + 16 bits. The
kernel's former mpf loop is kept as a reference for its fixed-point sums.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import (BigReal, eisenstein_p, eta_f, nome, rr_convergents, rr_eval,
                     theta2, theta3, theta4)
from piforge.elliptic import GUARD, _q_series


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


def mpf_q_series(qv, a, b, sign, prec, deriv):
    """The kernel's former loop: full-width mpf products at the ambient
    precision, with the same cut, loss rule and extra pass."""
    base, extra = mp.prec, 0
    while True:
        with mp.workprec(base + extra):
            eps = mpmath.ldexp(1, -(prec + GUARD + extra))
            qa = qv ** a
            s, d, top = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for gap in ((a + b) // 2, (a - b) // 2):
                t, g, e, sg = mpmath.mpf(1), qv ** gap, 0, 1
                while True:
                    t *= g
                    g *= qa
                    e += gap
                    gap += a
                    sg *= sign
                    s += sg * t
                    if deriv:
                        et = e * t
                        d += sg * et
                        top = max(top, et)
                    if e and (et if deriv else t) < eps:
                        break
            lost = max(mpmath.mag(m) - mpmath.mag(x) if x else mp.prec
                       for m, x in ((1, s), (top, d)) if m)
        if lost <= extra + GUARD:
            return s, d
        extra = lost


# (a, b, sign, deriv) of every caller: theta2, theta3, theta4, f(-q),
# R's numerator and denominator, f(-q^5) summed in q, and P(q)'s f and q f'
KERNEL_FORMS = [(2, 2, 1, False), (2, 0, 1, False), (2, 0, -1, False), (3, -1, -1, False),
                (5, -3, -1, False), (5, -1, -1, False), (15, -5, -1, False),
                (3, -1, -1, True)]
KERNEL_QS = ("1e-40", "0.00187", "0.0432", "0.3", "0.6", "0.9", "0.99")


@pytest.mark.parametrize("prec", [256, 1040, 8224])
@pytest.mark.parametrize("form", KERNEL_FORMS, ids=lambda f: "{},{},{},{}".format(*f))
def test_fixed_point_sums_match_the_mpf_loop(form, prec):
    # the reference runs at prec + 100 bits, where its own error is below
    # 2^-(prec+80); q carries those bits, more than the kernel's first pass,
    # so a q rounded to the pass precision shows near q = 1
    a, b, sign, deriv = form
    ref, tol = prec + 100, mpmath.mpf(2) ** -(prec + 8)
    for q in KERNEL_QS:
        with mp.workprec(ref):
            qv = mpmath.mpf(q)
            want_s, want_d = mpf_q_series(qv, a, b, sign, ref, deriv)
        with mp.workprec(prec + 2 * GUARD):
            s, d = _q_series(qv, a, b, sign, prec, deriv)
        with mp.workprec(ref):
            assert abs(s - want_s) < tol * abs(want_s), q
            assert abs(d - want_d) < tol * abs(want_d) if deriv else d == 0, q


@pytest.mark.parametrize("q", ["1e-40", "0.00187"])
def test_q_series_takes_one_pass_when_nothing_cancels(q):
    # S ~ 1 and D ~ q lose no bits against their largest terms, 1 and q, so
    # both come back at the ambient precision
    prec = 256
    with mp.workprec(prec + 2 * GUARD):
        s, d = _q_series(mpmath.mpf(q), 3, -1, -1, prec, deriv=True)
        assert s.man.bit_length() <= mp.prec and d.man.bit_length() <= mp.prec


@pytest.mark.parametrize("prec", [256, 1040])
def test_q_series_callers_ignore_the_ambient_precision(prec):
    # the suite runs at an ambient 1536 bits; library callers run at 53
    q = nome(2, prec) ** 2
    calls = (lambda: theta2(q, prec), lambda: theta3(q, prec), lambda: eta_f(q, prec),
             lambda: rr_eval(q, prec), lambda: eisenstein_p(q, prec))
    at_suite = [f() for f in calls]
    with mp.workprec(53):
        at_default = [f() for f in calls]
    assert at_default == at_suite
