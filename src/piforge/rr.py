"""Rogers-Ramanujan continued fraction R(q) and derived quantities.

R(q) is evaluated as a quotient of two theta series (Jacobi triple product)

    R(q) = q^(1/5) * sum_n (-1)^n q^(n(5n-3)/2) / sum_n (-1)^n q^(n(5n-1)/2),

summed over all integers n; the terms decay like q^(5n^2/2), so O(sqrt(prec))
of them suffice. The literal continued-fraction convergent iteration is kept
as an independent oracle (``rr_convergents``).

The companion quantity A = R^(-5) - 11 - R^5 = f(-q)^6/(q f(-q^5)^6)
(Ramanujan; f(-q) = prod_{n>=1} (1 - q^n)) is the natural carrier for the
degree-5 modular relations; the product form is used where the subtraction
cancels, near q = 1. At q = exp(-pi*sqrt(r)) the value A_r computed
from R(q^2) is algebraic and can be cross-computed from the singular moduli
k_r, k_25r alone (``a_r_algebraic``). Y values are A_{r/5}/8; the divisor 8
is calibrated once against the closed form Y(1/5) = 5*sqrt(5)/8 (a divisor
of 6, which also circulates, misses that value by exactly 4/3; see the
regression test).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .bigreal import BigReal, as_fraction, mpf_of, round_to, sqrt_mpf
from .elliptic import GUARD, ModulusContext, _q_series, nome, singular_modulus
from .errors import DomainError

# Calibration of Y = A/NORM against Y(1/5) = 5*sqrt(5)/8; the rejected
# alternative NORM = 6 is pinned in tests as a sentinel.
Y_NORMALIZATION = 8


@dataclass(frozen=True)
class RRValue:
    """R(q) and A = R^(-5) - 11 - R^5 at the same q, at the caller's precision."""

    R: BigReal
    A: BigReal


def rr_eval(q, prec: int) -> RRValue:
    """Evaluate R(q) for 0 < q < 1 as a quotient of two theta series, and A.

    R(q) = q^(1/5) f(-q, -q^4)/f(-q^2, -q^3), and by the Jacobi triple
    product f(-q, -q^4) = sum_{n in Z} (-1)^n q^(n(5n-3)/2) and
    f(-q^2, -q^3) = sum_{n in Z} (-1)^n q^(n(5n-1)/2).

    A = R^(-5) - 11 - R^5 cancels as q -> 1 (R^(-5) -> 11.09, R^5 -> 0.09;
    at q = 0.99 about 1,130 bits are lost). When that subtraction loses more
    than the 2*GUARD guard bits, A is taken from Ramanujan's quotient of
    products A = f(-q)^6/(q f(-q^5)^6) instead, which does not cancel;
    f(-q^5) = sum_{n in Z} (-1)^n q^(5n(3n-1)/2) is summed in q itself, so
    q^5 is never rounded. A is accurate to 2^(-prec+8) relative either way.
    """
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        qv = mpf_of(q, wprec)
        if not (0 < qv < 1):
            raise DomainError(f"R(q) requires 0 < q < 1, got {mpmath.nstr(qv, 8)}")
        num, _ = _q_series(qv, 5, -3, -1, prec)
        den, _ = _q_series(qv, 5, -1, -1, prec)
        rv = mpmath.root(qv, 5) * num / den
        inv5 = 1 / rv ** 5
        av = inv5 - 11 - rv ** 5
        if mpmath.mag(inv5) - mpmath.mag(av) > 2 * GUARD:
            f, _ = _q_series(qv, 3, -1, -1, prec)
            f5, _ = _q_series(qv, 15, -5, -1, prec)
            av = (f / f5) ** 6 / qv
    return RRValue(R=round_to(rv, prec), A=round_to(av, prec))


def rr_convergents(q, prec: int) -> BigReal:
    """R(q) by bottom-up evaluation of the continued fraction itself.

    Independent oracle for rr_eval: iterates q^(1/5)/(1+ q/(1+ q^2/(1+ ...)))
    to enough levels for the tail to fall below the target precision for
    q <= 1/2.
    """
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        qv = mpf_of(q, wprec)
        if not (0 < qv < 1):
            raise DomainError(f"R(q) requires 0 < q < 1, got {mpmath.nstr(qv, 8)}")
        # level j contributes O(q^j); solve q^depth ~ 2^(-prec-8)
        depth = int((prec + GUARD) * mpmath.log(2) / -mpmath.log(qv)) + 16
        acc = mpmath.mpf(1)
        for j in range(depth, 0, -1):
            acc = 1 + qv ** j / acc
        out = mpmath.root(qv, 5) / acc
    return round_to(out, prec)


def multiplier5_algebraic(ctx_r: ModulusContext, ctx_25r: ModulusContext) -> BigReal:
    """The degree-5 multiplier K[r]/K[25r] from moduli alone:

        m5 = w/k + w'/k' - w w'/(k k'),  w = sqrt(k_r k_25r), w' = sqrt(k'_r k'_25r).
    """
    prec = min(ctx_r.prec, ctx_25r.prec)
    with mp.workprec(prec + GUARD):
        k, kp = ctx_r.k.value, ctx_r.kprime.value
        l, lp = ctx_25r.k.value, ctx_25r.kprime.value
        w = sqrt_mpf(k * l)
        wp = sqrt_mpf(kp * lp)
        m5 = w / k + wp / kp - w * wp / (k * kp)
    return round_to(m5, prec)


def a_r_algebraic(r, prec: int) -> BigReal:
    """A_r from singular moduli: (k k'/(w w'))^2 * m5^3.

    Cross-route companion of rr_eval(nome(r)^2).A; the two must agree to
    2^(-prec+32) and the test suite verifies they do.
    """
    rf = as_fraction(r)
    ctx = singular_modulus(rf, prec + 2 * GUARD)
    ctx25 = singular_modulus(25 * rf, prec + 2 * GUARD)
    m5 = multiplier5_algebraic(ctx, ctx25)
    with mp.workprec(prec + 2 * GUARD):
        k, kp = ctx.k.value, ctx.kprime.value
        w = sqrt_mpf(k * ctx25.k.value)
        wp = sqrt_mpf(kp * ctx25.kprime.value)
        out = (k * kp / (w * wp)) ** 2 * m5.value ** 3
    return round_to(out, prec)


def y_value(r_over_5, prec: int) -> BigReal:
    """Y at subscript sqrt(-s) for s = r/5: A_s / 8 with A_s = rr_eval(q^2).A,
    q = exp(-pi*sqrt(s)).
    """
    s = as_fraction(r_over_5)
    wprec = prec + 2 * GUARD
    rr = rr_eval(nome(s, wprec) ** 2, wprec)
    with mp.workprec(wprec):
        out = rr.A.value / Y_NORMALIZATION
    return round_to(out, prec)
