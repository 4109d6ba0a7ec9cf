"""Cross-validating identity suite.

Each function returns the absolute residual of one identity tying the
Eisenstein/Lambert sums, eta products, the Rogers-Ramanujan bracket, the
degree-5 multiplier, and the alpha function together; ``t5_residual`` takes
the T_{5,r} form to check as its first argument. They are the
machine-checkable consistency web for everything the reduction routes use;
``identity_battery`` runs all of them at named evaluation points and is
shared by the CLI ``verify`` command and the acceptance suite.

All identities here hold to working accuracy (a few ulps); the battery
checks them against a 60-decimal-digit threshold with the series tails
truncated by their documented bounds.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from .alpha import (alpha_direct, eisenstein_p, multiplier_quintic_residual,
                    t5_closed_form, t5_eta_form, t5_rr_form, t_sum)
from .bigreal import BigReal, as_fraction, decimal_digits, pi_bits, round_to, sqrt_mpf
from .elliptic import GUARD, eta_f, singular_modulus
from .rr import multiplier5_algebraic


def lambert_alpha_identity(r, prec: int) -> BigReal:
    """P(q^2) = 3/(pi sqrt(r)) + (1 + k_r^2 - 3 a(r)/sqrt(r)) 4K^2/pi^2."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    a = alpha_direct(rf, wprec)
    lhs = eisenstein_p(ctx.q ** 2, wprec)
    with mp.workprec(wprec):
        sr = ctx.sqrt_r().value
        piv = pi_bits(wprec)
        rhs = (3 / (piv * sr)
               + (1 + ctx.k.value ** 2 - 3 * a.value.value / sr)
               * 4 * ctx.big_k.value ** 2 / piv ** 2)
        resid = abs(lhs.value - rhs)
    return round_to(resid, prec)


def lambert_alpha_identity_plain_nome(r, prec: int) -> BigReal:
    """P(q) = 6/(pi sqrt(r)) + 4K^2 (sqrt(r)(1+k_r^2) - 6a(r))/(pi^2 sqrt(r))."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    a = alpha_direct(rf, wprec)
    lhs = eisenstein_p(ctx.q, wprec)
    with mp.workprec(wprec):
        sr = ctx.sqrt_r().value
        piv = pi_bits(wprec)
        rhs = (6 / (piv * sr)
               + 4 * ctx.big_k.value ** 2
               * (-6 * a.value.value + sr * (1 + ctx.k.value ** 2)) / (piv ** 2 * sr))
        resid = abs(lhs.value - rhs)
    return round_to(resid, prec)


def t5_residual(form, r, prec: int) -> BigReal:
    """|T_{5,r} from Lambert sums - form(r)| for one of the T_{5,r} forms of
    ``alpha``: t5_closed_form (alpha values and the multiplier), t5_eta_form
    (eta products) or t5_rr_form (the R-bracket)."""
    lhs = t_sum(5, r, prec + GUARD)
    rhs = form(r, prec + GUARD)
    with mp.workprec(prec + GUARD):
        resid = abs(lhs.value - rhs.value)
    return round_to(resid, prec)


def scaled_lambert_residual(p: int, r, prec: int) -> BigReal:
    """P(q^(2p)) = 3/(pi sqrt(r) p) + (4K^2/(pi^2 sqrt(r) p m_p^2)) *
    [p sqrt(r)(1 + k_{p^2 r}^2) - 3 a(p^2 r)]."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    ctxp = singular_modulus(p * p * rf, wprec)
    a_p = alpha_direct(p * p * rf, wprec)
    lhs = eisenstein_p(ctx.q ** (2 * p), wprec)
    with mp.workprec(wprec):
        sr = ctx.sqrt_r().value
        piv = pi_bits(wprec)
        m = ctx.big_k.value / ctxp.big_k.value
        rhs = (3 / (piv * sr * p)
               + (4 * ctx.big_k.value ** 2 / (piv ** 2 * sr * p * m ** 2))
               * (-3 * a_p.value.value + p * sr * (1 + ctxp.k.value ** 2)))
        resid = abs(lhs.value - rhs)
    return round_to(resid, prec)


def eta_cube_residual(r, prec: int) -> BigReal:
    """f(-q^2)^6 = 2 k k' K^3/(pi^3 sqrt(q)) at q = exp(-pi sqrt(r))."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    f = eta_f(ctx.q ** 2, wprec)
    with mp.workprec(wprec):
        piv = pi_bits(wprec)
        rhs = (2 * ctx.k.value * ctx.kprime.value * ctx.big_k.value ** 3
               / (piv ** 3 * sqrt_mpf(ctx.q.value)))
        resid = abs(f.value ** 6 - rhs)
    return round_to(resid, prec)


def multiplier_route_residual(r, prec: int) -> BigReal:
    """|K[r]/K[25r] - (w/k + w'/k' - ww'/(kk'))| with w = sqrt(k_r k_25r)."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    ctx25 = singular_modulus(25 * rf, wprec)
    alg = multiplier5_algebraic(ctx, ctx25)
    with mp.workprec(wprec):
        quo = ctx.big_k.value / ctx25.big_k.value
        resid = abs(alg.value - quo)
    return round_to(resid, prec)


def quintic_residual(r, prec: int) -> BigReal:
    """Degree-5 modular equation residual at the calibrated (inverse) ratio."""
    resid = multiplier_quintic_residual(r, prec + 2 * GUARD)
    return round_to(abs(resid.value), prec)


def identity_battery(prec: int):
    """(name, passed, residual text, threshold text) rows.

    The gate is 60 decimal digits, scaled down when the working precision
    cannot hold that many.
    """
    gate_digits = min(60, decimal_digits(prec) - 16)
    gate = mpmath.mpf(10) ** (-gate_digits)
    rows = []

    def add(name, resid: BigReal):
        with mp.workprec(64):
            text = mpmath.nstr(resid.value, 8)
        rows.append((name, resid.value < gate, f"residual {text}", f"1e-{gate_digits}"))

    add("weight-2 Lambert vs alpha at r=3", lambert_alpha_identity(3, prec))
    add("weight-2 Lambert (plain nome) at r=2", lambert_alpha_identity_plain_nome(2, prec))
    add("T(5,1) Lambert vs closed form", t5_residual(t5_closed_form, 1, prec))
    add("scaled Lambert vs alpha at (5,1)", scaled_lambert_residual(5, 1, prec))
    add("T(5,1) Lambert vs eta products", t5_residual(t5_eta_form, 1, prec))
    add("eta-cube bridge at r=2", eta_cube_residual(2, prec))
    add("T(5,r) Lambert vs R-bracket at r=1", t5_residual(t5_rr_form, 1, prec))
    add("T(5,r) Lambert vs R-bracket at r=2", t5_residual(t5_rr_form, 2, prec))
    add("degree-5 multiplier route agreement at r=1", multiplier_route_residual(1, prec))
    add("degree-5 modular equation at r=1", quintic_residual(1, prec))
    return rows
