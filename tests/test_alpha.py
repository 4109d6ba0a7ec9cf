"""Alpha function: direct values, reduction routes, Lambert-sum identities."""

import dataclasses
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import (BigReal, DomainError, InsufficientPrecisionError,
                     RootSelectionError, VerificationError, alpha_25r,
                     alpha_4r, alpha_9r, alpha_direct, eisenstein_p, multiplier,
                     multiplier_quintic_residual, nome, singular_modulus,
                     t5_closed_form, t5_eta_form, t5_rr_form, t_sum,
                     triple_modulus_quartic_root)
from piforge import alpha
from piforge.alpha import AlphaValue
from piforge.bigreal import pi_bits, round_to

from conftest import base_modulus_alpha_4r, deadline, tol_bits

P = 256


def sqrt_of(n):
    return BigReal.of(n, P).sqrt()


# --------------------------------------------------------- direct values


def test_alpha_1_is_half():
    a = alpha_direct(1, P)
    assert abs((a.value - Fraction(1, 2)).value) < tol_bits(P, 16)


def test_alpha_2_closed_form():
    a = alpha_direct(2, P)
    assert abs((a.value - (sqrt_of(2) - 1)).value) < tol_bits(P, 16)


def test_alpha_7_closed_form():
    a = alpha_direct(7, P)
    assert abs((a.value - (sqrt_of(7) - 2) / 2).value) < tol_bits(P, 16)


def test_alpha_15_closed_form():
    a = alpha_direct(15, P)
    want = (sqrt_of(15) - sqrt_of(5) - 1) / 2
    assert abs((a.value - want).value) < tol_bits(P, 16)


def test_alpha_sanity_window():
    for r in (1, 2, 3, 5, 9, 25):
        a = alpha_direct(r, P)
        assert 0 < a.value.value < mpmath.sqrt(r)


# --------------------------------------------------------- 4r route


def test_alpha_4_route_and_closed_form():
    a4 = alpha_4r(alpha_direct(1, P))
    assert a4.route == "via4r"
    assert a4.r == 4
    want = 6 - 4 * sqrt_of(2)
    assert abs((a4.value - want).value) < tol_bits(P, 32)
    direct = alpha_direct(4, P)
    assert abs((a4.value - direct.value).value) < tol_bits(P, 32)


def test_alpha_8_route():
    a8 = alpha_4r(alpha_direct(2, P))
    direct = alpha_direct(8, P)
    assert abs((a8.value - direct.value).value) < tol_bits(P, 32)


def test_base_modulus_variant_is_wrong_by_a_lot():
    # regression sentinel: the k_r-form misses a(4) by ~0.30 at r=1
    wrong = base_modulus_alpha_4r(alpha_direct(1, P))
    direct = alpha_direct(4, P)
    dev = abs((wrong - direct.value).value)
    assert dev > mpmath.mpf("0.01")
    assert abs(dev - mpmath.mpf("0.3002525316941673")) < mpmath.mpf(10) ** -12


# --------------------------------------------------------- 9r route


def test_quartic_root_satisfies_quartic():
    for r in (1, 2):
        ctx = singular_modulus(r, P)
        M = triple_modulus_quartic_root(r, P).value
        resid = 27 * M ** 4 - 18 * M ** 2 - 8 * (1 - 2 * ctx.k.value ** 2) * M - 1
        assert abs(resid) < tol_bits(P, 16), f"r={r}"


def test_quartic_root_is_inverse_k_quotient():
    # the admissible root equals K[9r]/K[r]
    ctx = singular_modulus(1, P)
    ctx9 = singular_modulus(9, P)
    M = triple_modulus_quartic_root(1, P)
    assert abs(M.value - ctx9.big_k.value / ctx.big_k.value) < tol_bits(P, 24)


def polyroots_quartic_root(r, prec):
    """The quartic root as it was once selected: every root by mpmath.polyroots,
    then the real root closest to K[r]/K[9r], rounded to prec."""
    wprec = prec + 32
    ctx = singular_modulus(r, wprec)
    ctx9 = singular_modulus(9 * r, wprec)
    with mp.workprec(wprec):
        ksq = ctx.k.value ** 2
        coeffs = [27, 0, -18, -8 * (1 - 2 * ksq), -1]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=wprec)
        target = ctx.big_k.value / ctx9.big_k.value
        tiny = mpmath.mpf(2) ** (-(wprec // 2))
        best = min((z.real for z in roots if abs(z.imag) < tiny),
                   key=lambda x: abs(x - target))
    with mp.workprec(prec):
        return +best


@pytest.mark.parametrize("r", [Fraction(1, 9), 1, 2, Fraction(7, 2), 58])
def test_quartic_root_matches_polyroots_selection(r):
    for prec in (64, 256, 1024):
        got = triple_modulus_quartic_root(r, prec)
        assert got.prec == prec
        assert got.value == polyroots_quartic_root(r, prec), prec


@pytest.mark.parametrize("r", [Fraction(1, 300), Fraction(1, 1000)])
def test_quartic_root_near_triple_root_keeps_precision(r):
    # as r -> 0 the root nears the triple root 1/3 and the quartic is ill
    # conditioned (the polyroots selection kept 68 of 128 bits at r = 1/1000)
    prec = 128
    ctx = singular_modulus(r, 512)
    ctx9 = singular_modulus(9 * r, 512)
    want = ctx9.big_k.value / ctx.big_k.value
    got = triple_modulus_quartic_root(r, prec).value
    assert abs(got - want) / want < tol_bits(prec, 8)


def test_quartic_root_at_small_r_asks_for_precision():
    # the 96-bit context at r = 1/1000 cannot hold k_r = 1 - 2^-140
    with deadline(10), pytest.raises(InsufficientPrecisionError):
        triple_modulus_quartic_root(Fraction(1, 1000), 64)


def test_quartic_root_asks_for_precision_with_wider_contexts_stored():
    # the 128-bit bucket that serves the 96-bit request holds k_r, and so
    # does the 1024-bit one; the request must still fail at its own 96 bits
    singular_modulus(Fraction(1, 1000), 1024)
    singular_modulus(Fraction(1, 1000), 128)
    with deadline(10), pytest.raises(InsufficientPrecisionError):
        triple_modulus_quartic_root(Fraction(1, 1000), 64)


def test_quartic_root_reports_a_newton_iteration_that_does_not_settle(monkeypatch):
    # K[9] off by 2^-40 relative starts Newton that far from the root; two
    # steps leave a last step near 2^-80 M, far above 2^-(prec+GUARD) M
    real = alpha.singular_modulus

    def skewed(r, prec):
        ctx = real(r, prec)
        if r != 9:
            return ctx
        skew = 1 + mpmath.ldexp(1, -40)
        return dataclasses.replace(ctx, big_k=round_to(ctx.big_k.value * skew, prec))

    monkeypatch.setattr(alpha, "singular_modulus", skewed)
    with pytest.raises(RootSelectionError, match="did not settle at r=1"):
        triple_modulus_quartic_root(1, P)


def test_alpha_9_route():
    a9 = alpha_9r(alpha_direct(1, P))
    assert a9.route == "via9r"
    direct = alpha_direct(9, P)
    assert abs((a9.value - direct.value).value) < tol_bits(P, 32)


def test_alpha_18_route():
    a18 = alpha_9r(alpha_direct(2, P))
    direct = alpha_direct(18, P)
    assert abs((a18.value - direct.value).value) < tol_bits(P, 32)


# --------------------------------------------------------- 25r route


def test_alpha_25_route():
    a25 = alpha_25r(alpha_direct(1, P))
    assert a25.route == "via25r"
    direct = alpha_direct(25, P)
    assert abs((a25.value - direct.value).value) < tol_bits(P, 32)


def test_alpha_50_route():
    a50 = alpha_25r(alpha_direct(2, P))
    direct = alpha_direct(50, P)
    assert abs((a50.value - direct.value).value) < tol_bits(P, 32)


# --------------------------------------------------------- Eisenstein sums


def test_eisenstein_limit_at_small_q():
    q = BigReal.of(Fraction(1, 2 ** 100), P)
    assert abs(eisenstein_p(q, P).value - 1) < mpmath.mpf(2) ** -90


def test_eisenstein_domain():
    with pytest.raises(DomainError):
        eisenstein_p(BigReal.of(0, P), P)


def test_t_sum_and_multiplier_need_p_at_least_2():
    with pytest.raises(DomainError, match="p must be >= 2"):
        t_sum(1, 1, P)
    with pytest.raises(DomainError, match="p must be >= 2"):
        multiplier(1, 1, P)


@pytest.mark.parametrize("value", [0, -1, 2, 3])
def test_alpha_value_outside_its_window_is_rejected(value):
    # for r >= 1, 0 < a(r) < sqrt(r); at r = 4 the window is (0, 2)
    with pytest.raises(VerificationError, match="outside the window"):
        AlphaValue(r=Fraction(4), value=BigReal.of(value, P), route="direct")


def test_weight2_identity_at_r3():
    # P(q^2) = 3/(pi sqrt(3)) + (1 + k^2 - 3a/sqrt(3)) 4K^2/pi^2
    ctx = singular_modulus(3, P)
    a = alpha_direct(3, P)
    lhs = eisenstein_p(ctx.q * ctx.q, P)
    piv = BigReal.pi(P)
    rhs = (3 / (piv * ctx.sqrt_r())
           + (1 + ctx.k ** 2 - 3 * a.value / ctx.sqrt_r()) * 4 * ctx.big_k ** 2 / piv ** 2)
    assert abs((lhs - rhs).value) < tol_bits(P, 24)


def test_weight2_identity_plain_nome_at_r2():
    # P(q) = 6/(pi sqrt(2)) + 4K^2 (sqrt(2)(1+k^2) - 6a)/(pi^2 sqrt(2))
    ctx = singular_modulus(2, P)
    a = alpha_direct(2, P)
    lhs = eisenstein_p(ctx.q, P)
    piv = BigReal.pi(P)
    rhs = (6 / (piv * ctx.sqrt_r())
           + 4 * ctx.big_k ** 2 * (ctx.sqrt_r() * (1 + ctx.k ** 2) - 6 * a.value)
           / (piv ** 2 * ctx.sqrt_r()))
    assert abs((lhs - rhs).value) < tol_bits(P, 24)


# --------------------------------------------------------- T sums


def test_t_sum_vs_closed_form_5_1():
    lhs = t_sum(5, 1, P)
    rhs = t5_closed_form(1, P)
    assert abs((lhs - rhs).value) < tol_bits(P, 32)


def test_t_sum_vs_eta_products_r1():
    lhs = t_sum(5, 1, P)
    rhs = t5_eta_form(1, P)
    assert abs((lhs - rhs).value) < tol_bits(P, 32)


def test_eta_form_calibration_factor_sentinel():
    # the uncalibrated radical form differs from T by the exact factor -4
    t = t_sum(5, 1, P)
    printed = -t5_eta_form(1, P) / 4
    ratio = (t / printed).value
    assert abs(ratio + 4) < tol_bits(P, 48)


def test_t_sum_vs_rr_bracket():
    for r in (1, 2):
        lhs = t_sum(5, r, P)
        rhs = t5_rr_form(r, P)
        assert abs((lhs - rhs).value) < tol_bits(P, 24), f"r={r}"


def test_rr_form_calibration_factor_sentinel():
    # the uncalibrated bracket form misses by exactly -12 K^2/pi^2
    ctx = singular_modulus(1, P)
    t = t_sum(5, 1, P)
    printed = t5_rr_form(1, P) / (-12 * ctx.big_k ** 2 / BigReal.pi(P) ** 2)
    with mp.workprec(P + 8):
        factor = t.value / printed.value
        want = -12 * ctx.big_k.value ** 2 / pi_bits(P + 8) ** 2
    assert abs(factor - want) < tol_bits(P, 48)


def test_scaled_lambert_identity_5_1():
    # P(q^10) = 3/(5 pi) + (4K^2/(5 pi^2 m^2)) [5(1+k_25^2) - 3a(25)]
    ctx = singular_modulus(1, P)
    ctx25 = singular_modulus(25, P)
    a25 = alpha_direct(25, P)
    q = nome(1, P)
    lhs = eisenstein_p(q ** 10, P)
    piv = BigReal.pi(P)
    m = ctx.big_k / ctx25.big_k
    rhs = (3 / (piv * 5)
           + (4 * ctx.big_k ** 2 / (piv ** 2 * 5 * m ** 2))
           * (5 * (1 + ctx25.k ** 2) - 3 * a25.value))
    assert abs((lhs - rhs).value) < tol_bits(P, 24)


# --------------------------------------------------------- multiplier


def test_multiplier_exceeds_one():
    for (p, r) in ((2, 1), (3, 1), (5, 1), (5, 2), (2, 3)):
        assert multiplier(p, r, P).value > 1, f"(p,r)=({p},{r})"


def test_multiplier_quintic_at_inverse_ratio():
    for r in (1, 2):
        resid = multiplier_quintic_residual(r, P)
        assert abs(resid.value) < tol_bits(P, 24), f"r={r}"


def test_multiplier_quintic_fails_for_literal_ratio():
    # sentinel: plugging the multiplier itself into the quintic is far off
    m5 = multiplier(5, 1, P)
    ctx = singular_modulus(1, P)
    with mp.workprec(P + 8):
        x = m5.value
        lhs = (5 * x - 1) ** 5 * (1 - x) - 256 * ctx.k.value ** 2 * ctx.kprime.value ** 2 * x
    assert abs(lhs) > 100


def test_quarter_argument_bridge():
    # A_{r/4}-style consistency: (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5^3 = A_1 at r=4
    from piforge import rr_eval

    ctx = singular_modulus(4, P)
    ctx25 = singular_modulus(100, P)
    m5 = ctx.big_k / ctx25.big_k
    lhs = (ctx.kprime / ctx25.kprime) ** 2 * (ctx.k / ctx25.k).sqrt() * m5 ** 3
    q1 = nome(1, P)
    a1 = rr_eval(q1 * q1, P).A
    assert abs((lhs - a1).value) < tol_bits(P, 32)


def test_route_window_and_consistency_summary():
    # all implemented routes agree with direct evaluation at matching r
    pairs = [
        (alpha_4r(alpha_direct(1, P)), alpha_direct(4, P)),
        (alpha_9r(alpha_direct(1, P)), alpha_direct(9, P)),
        (alpha_25r(alpha_direct(1, P)), alpha_direct(25, P)),
    ]
    for via, direct in pairs:
        assert via.r == direct.r
        assert abs((via.value - direct.value).value) < tol_bits(P, 32)
