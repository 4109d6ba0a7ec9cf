"""The elliptic alpha function and its degree-4/9/25 reduction routes.

Direct evaluation at rational r > 0:

    a(r) = pi/(4 K[r]^2) - sqrt(r) (E[r]/K[r] - 1).

The reductions never replace the direct route: their purpose is
cross-validation, so each one recomputes its defining residual and the test
suite pins the agreement |via-route - direct| < 2^(-prec+32).

Convention notes, fixed once by numeric calibration and guarded by
regression tests:

* a(4r) uses the *quadrupled* modulus: a(4r) = (1+k_4r)^2 a(r) - 2 sqrt(r) k_4r.
  The variant with k_r in place of k_4r (which also circulates) is wrong by
  ~0.30 at r=1; the test suite pins that miss.
* the cubic-multiplier quartic 27 M^4 - 18 M^2 - 8(1-2 k_r^2) M - 1 = 0 is
  satisfied by M = K[9r]/K[r], not by the inverse K[r]/K[9r]; the root is
  taken by Newton's method started from that numeric quotient.
* the weight-2 Lambert sum P and the scaled differences T_{p,r} satisfy the
  closed forms below only after two printed-constant calibrations: the
  eta-quotient form of T_{5,r} carries a factor -4, and the R-bracket form
  carries a factor -4 K[r]^2/pi^2 (see ``t5_eta_form`` / ``t5_rr_form``).
* the degree-5 modular equation (5m-1)^5 (1-m) = 256 k^2 k'^2 m holds for the
  *inverse* ratio m = K[25r]/K[r], not for the multiplier K[r]/K[25r].

All functions are pure; AlphaValue is immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .bigreal import BigReal, as_fraction, mpf_of, pi_bits, round_to, sqrt_mpf
from .elliptic import GUARD, ModulusContext, _q_series, eta_f, nome, singular_modulus
from .errors import DomainError, RootSelectionError, VerificationError
from .rr import rr_eval

ROUTE_DIRECT = "direct"
ROUTE_4R = "via4r"
ROUTE_9R = "via9r"
ROUTE_25R = "via25r"


@dataclass(frozen=True)
class AlphaValue:
    r: Fraction
    value: BigReal
    route: str

    def __post_init__(self):
        # sanity window for r >= 1: 0 < a(r) < sqrt(r)
        if self.r >= 1:
            prec = self.value.prec
            with mp.workprec(prec):
                sr = sqrt_mpf(mpf_of(self.r, prec))
                if not (0 < self.value.value < sr):
                    raise VerificationError(
                        f"a({self.r}) = {mpmath.nstr(self.value.value, 8)} "
                        f"outside the window (0, sqrt(r))")


def alpha_direct(r, prec: int) -> AlphaValue:
    rf = as_fraction(r)
    ctx = singular_modulus(rf, prec + 2 * GUARD)
    return alpha_from_context(ctx, prec)


def alpha_from_context(ctx: ModulusContext, prec: int | None = None) -> AlphaValue:
    """a(r) evaluated on an existing context."""
    prec = ctx.prec if prec is None else prec
    with mp.workprec(ctx.prec + GUARD):
        K = ctx.big_k.value
        E = ctx.big_e.value
        v = pi_bits(ctx.prec + GUARD) / (4 * K * K) - ctx.sqrt_r().value * (E / K - 1)
    return AlphaValue(r=ctx.r, value=round_to(v, prec), route=ROUTE_DIRECT)


def alpha_4r(a_r: AlphaValue) -> AlphaValue:
    """a(4r) = (1 + k_4r)^2 a(r) - 2 sqrt(r) k_4r."""
    prec = a_r.value.prec
    wprec = prec + 2 * GUARD
    k = singular_modulus(4 * a_r.r, wprec).k.value
    with mp.workprec(wprec):
        sr = sqrt_mpf(mpf_of(a_r.r, wprec))
        v = (1 + k) ** 2 * a_r.value.value - 2 * sr * k
    return AlphaValue(r=4 * a_r.r, value=round_to(v, prec), route=ROUTE_4R)


def triple_modulus_quartic_root(r, prec: int) -> BigReal:
    """The admissible root M = K[9r]/K[r] of 27 M^4 - 18 M^2 - 8(1-2 k_r^2) M - 1 = 0.

    Two Newton steps from M_0 = K[9r]/K[r] at prec + 4*GUARD bits. As r -> 0
    the root approaches the triple root 1/3 of the quartic at k = 1, and an
    error in the coefficient 1 - 2 k_r^2 moves the root by that error over
    |f'(M)|. When this loss, -log2|f'(M)|, exceeds GUARD bits, the contexts
    and the Newton steps are taken once more with that many extra bits.
    RootSelectionError is raised when the last Newton step still exceeds
    2^-(prec+GUARD) M.
    """
    rf = as_fraction(r)
    extra = 0
    while True:
        wprec = prec + 4 * GUARD + extra
        ctx = singular_modulus(rf, wprec)
        ctx9 = singular_modulus(9 * rf, wprec)
        with mp.workprec(wprec):
            c = -8 * (1 - 2 * ctx.k.value ** 2)
            m = ctx9.big_k.value / ctx.big_k.value
            for _ in range(2):
                df = (108 * m * m - 36) * m + c
                step = (((27 * m * m - 18) * m + c) * m - 1) / df
                m -= step
            lost = -mpmath.mag(df)
        if extra or lost <= GUARD:
            break
        extra = lost
    if abs(step) > mpmath.ldexp(m, -(prec + GUARD)):
        raise RootSelectionError(f"Newton iteration for the quartic root did not settle at r={rf}")
    return round_to(m, prec)


def alpha_9r(a_r: AlphaValue) -> AlphaValue:
    """a(9r) through the cubic-multiplier quartic.

    With M the admissible quartic root,

        a(9r)/sqrt(r) - k_9r^2 = 1 - (k_9r k_r + k'_9r k'_r + 1)/(3M)
                                 - 1/(3M^2) + (a(r)/sqrt(r) - k_r^2/3)/M^2.
    """
    prec = a_r.value.prec
    wprec = prec + 4 * GUARD
    rf = a_r.r
    ctx = singular_modulus(rf, wprec)
    ctx9 = singular_modulus(9 * rf, wprec)
    M = triple_modulus_quartic_root(rf, wprec)
    with mp.workprec(wprec):
        sr = sqrt_mpf(mpf_of(rf, wprec))
        k, kp = ctx.k.value, ctx.kprime.value
        k9, k9p = ctx9.k.value, ctx9.kprime.value
        Mv = M.value
        rhs = (1 - k9 * k / (3 * Mv) - k9p * kp / (3 * Mv) - 1 / (3 * Mv)
               - 1 / (3 * Mv ** 2) + (a_r.value.value / sr - k ** 2 / 3) / Mv ** 2)
        v = sr * (rhs + k9 ** 2)
    return AlphaValue(r=9 * rf, value=round_to(v, prec), route=ROUTE_9R)


def eisenstein_p(q, prec: int) -> BigReal:
    """Weight-2 Eisenstein value P(q) = 1 - 24 sum_{n>=1} n q^n/(1-q^n).

    Evaluated as P = 1 + 24 q f'(q)/f(q) with Euler's pentagonal series
    f(q) = prod_{n>=1} (1 - q^n) = sum_{n in Z} (-1)^n q^(n(3n-1)/2): each
    theta series is cut at the first term below 2^(-prec-8), and both keep
    their relative accuracy up to q -> 1.
    """
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        qv = mpf_of(q, wprec)
        if not (0 < qv < 1):
            raise DomainError(f"P(q) requires 0 < q < 1, got {mpmath.nstr(qv, 8)}")
        f, qdf = _q_series(qv, 3, -1, -1, prec, deriv=True)
        out = 1 + 24 * qdf / f
    return round_to(out, prec)


@functools.lru_cache(maxsize=None)
def t_sum(p: int, r, prec: int) -> BigReal:
    """T_{p,r} = P(q^2) - p P(q^(2p)) at q = exp(-pi*sqrt(r)), kept per (p, r, prec)."""
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    q = nome(rf, wprec)
    a = eisenstein_p(q ** 2, wprec)
    b = eisenstein_p(q ** (2 * p), wprec)
    with mp.workprec(wprec):
        out = a.value - p * b.value
    return round_to(out, prec)


def t5_closed_form(r, prec: int) -> BigReal:
    """T_{5,r} from alpha values and the degree-5 multiplier:

        T = (4 K[r]^2 / (pi^2 sqrt(r) m5^2)) *
            [3 a(25r) - 5 sqrt(r)(1+k_25r^2) + (sqrt(r)(1+k_r^2) - 3 a(r)) m5^2].
    """
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    ctx25 = singular_modulus(25 * rf, wprec)
    a_r = alpha_from_context(ctx)
    a_25 = alpha_from_context(ctx25)
    with mp.workprec(wprec):
        sr = ctx.sqrt_r().value
        m5 = ctx.big_k.value / ctx25.big_k.value
        out = (4 * ctx.big_k.value ** 2 / (pi_bits(wprec) ** 2 * sr * m5 ** 2)) * (
            3 * a_25.value.value - 5 * sr * (1 + ctx25.k.value ** 2)
            + (-3 * a_r.value.value + sr * (1 + ctx.k.value ** 2)) * m5 ** 2)
    return round_to(out, prec)


def t5_eta_form(r, prec: int) -> BigReal:
    """T_{5,r} from the Euler products x = f(-q^2)^6, y = f(-q^10)^6:

        T = -4 sqrt(x^2 + 22 q^2 x y + 125 q^4 y^2) / (x y)^(1/6).

    The leading -4 is a calibration of the circulating formula (which omits
    it and is off by exactly that factor); the regression test keeps the
    measured ratio pinned.
    """
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    q = nome(rf, wprec)
    x = eta_f(q ** 2, wprec)
    y = eta_f(q ** 10, wprec)
    with mp.workprec(wprec):
        xv, yv = x.value ** 6, y.value ** 6
        rad = sqrt_mpf(xv ** 2 + 22 * q.value ** 2 * xv * yv + 125 * q.value ** 4 * yv ** 2)
        out = -4 * rad / mpmath.root(xv * yv, 6)
    return round_to(out, prec)


def t5_rr_form(r, prec: int) -> BigReal:
    """T_{5,r} from the Rogers-Ramanujan bracket:

        T = -(4 K[r]^2/pi^2) * 2^(2/3) (k k')^(2/3) (R^-5 + R^5) / A^(5/6),

    with R = R(q^2) and A = R^-5 - 11 - R^5. The -4 K^2/pi^2 factor is the
    same calibration as in t5_eta_form propagated through the eta-to-K
    bridge; without it the bracket form misses by -12 K^2/pi^2 / 3.
    """
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    rrv = rr_eval(ctx.q ** 2, wprec)
    with mp.workprec(wprec):
        k, kp = ctx.k.value, ctx.kprime.value
        R5 = rrv.R.value ** 5
        bracket = 1 / R5 + R5
        out = (-4 * ctx.big_k.value ** 2 / pi_bits(wprec) ** 2
               * mpmath.root(4, 3) * (k * kp) ** Fraction(2, 3)
               * bracket / rrv.A.value ** Fraction(5, 6))
    return round_to(out, prec)


def multiplier(p: int, r, prec: int) -> BigReal:
    """m_p = K[r]/K[p^2 r] as a direct quotient of two contexts; it exceeds 1
    for r >= 1, p >= 2 since K decreases in r."""
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    ctx = singular_modulus(rf, wprec)
    ctxp = singular_modulus(p * p * rf, wprec)
    with mp.workprec(wprec):
        m = ctx.big_k.value / ctxp.big_k.value
    return round_to(m, prec)


def multiplier_quintic_residual(r, prec: int) -> BigReal:
    """Residual of the degree-5 modular equation at x = 1/m5:

        (5x - 1)^5 (1 - x) - 256 k^2 k'^2 x,

    with k = k_r and m5 = multiplier(5, r), both at ``prec``. The equation is
    satisfied by the inverse ratio x = K[25r]/K[r]; the multiplier itself
    (x = m5 > 1) makes the left side negative and large, which the sentinel
    test pins.
    """
    rf = as_fraction(r)
    ctx = singular_modulus(rf, prec)
    m5 = multiplier(5, rf, prec)
    with mp.workprec(prec + GUARD):
        x = 1 / m5.value
        out = (5 * x - 1) ** 5 * (1 - x) - 256 * ctx.k.value ** 2 * ctx.kprime.value ** 2 * x
    return round_to(out, prec)


def alpha_25r(a_r: AlphaValue) -> AlphaValue:
    """a(25r) through the degree-5 route:

        3 a(25r)/(m5^2 sqrt(r)) - 3 a(r)/sqrt(r)
            = 5(1+k_25r^2)/m5^2 - (1+k_r^2)
              - 2^(2/3) A^(-5/6) (k k')^(2/3) (R^5 + R^-5),

    with R = R(q^2), A = R^-5 - 11 - R^5 and m5 = K[r]/K[25r].
    """
    prec = a_r.value.prec
    wprec = prec + 4 * GUARD
    rf = a_r.r
    ctx = singular_modulus(rf, wprec)
    ctx25 = singular_modulus(25 * rf, wprec)
    rrv = rr_eval(ctx.q ** 2, wprec)
    with mp.workprec(wprec):
        sr = ctx.sqrt_r().value
        k, kp = ctx.k.value, ctx.kprime.value
        m5 = ctx.big_k.value / ctx25.big_k.value
        R5 = rrv.R.value ** 5
        rhs = (3 * a_r.value.value / sr
               + 5 * (1 + ctx25.k.value ** 2) / m5 ** 2
               - (1 + k ** 2)
               - mpmath.root(4, 3) * (k * kp) ** Fraction(2, 3)
               * (R5 + 1 / R5) / rrv.A.value ** Fraction(5, 6))
        v = rhs * m5 ** 2 * sr / 3
    return AlphaValue(r=25 * rf, value=round_to(v, prec), route=ROUTE_25R)
