"""Rogers-Ramanujan continued fraction, A values, and the Y battery."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import (BigReal, DomainError, a_r_algebraic, eta_f, nome,
                     r68_identity_residual, rr_convergents, rr_eval,
                     y_closed_form, y_table_residuals, y_value)
from piforge.catalog import Y_CLOSED_FORMS, r68_radical
from piforge.rr import Y_NORMALIZATION

from conftest import tol_bits

P = 256

# frozen from the convergent oracle (re-checked below)
R_E_MINUS_2PI = "0.284079043840412296028291832393126169091"
R_E_MINUS_PI = "0.511428455403703519294633013542578810416"


def test_r_at_e_minus_2pi():
    q = nome(1, P) ** 2
    got = rr_eval(q, P)
    assert abs(got.R.value - BigReal.of(R_E_MINUS_2PI, P).value) < mpmath.mpf(10) ** -38


def test_r_at_e_minus_pi():
    got = rr_eval(nome(1, P), P)
    assert abs(got.R.value - BigReal.of(R_E_MINUS_PI, P).value) < mpmath.mpf(10) ** -38


def test_product_vs_convergents_oracle():
    for q in (nome(1, P) ** 2, nome(1, P), BigReal.of(Fraction(1, 3), P)):
        a = rr_eval(q, P).R
        b = rr_convergents(q, P)
        assert abs((a - b).value) < mpmath.mpf(10) ** -30


def test_leading_term_as_q_vanishes():
    # R(q)/q^(1/5) -> 1
    for e in (20, 40, 80):
        q = BigReal.of(Fraction(1, 2 ** e), P)
        got = rr_eval(q, P)
        with mp.workprec(P):
            lead = got.R.value / mpmath.root(q.value, 5)
        assert abs(lead - 1) < mpmath.mpf(2) ** (-e + 2)


def test_a_consistency_with_eta_quotient():
    # A = x/(q^2 y) with x = f(-q^2)^6, y = f(-q^10)^6 at q = nome(1)
    q = nome(1, P)
    got = rr_eval(q * q, P)
    x = eta_f(q ** 2, P) ** 6
    y = eta_f(q ** 10, P) ** 6
    want = x / (q ** 2 * y)
    assert abs((got.A - want).value) < tol_bits(P, 24)


def test_rr_domain():
    for fn in (rr_eval, rr_convergents):
        for q in (0, 1, Fraction(-1, 2)):
            with pytest.raises(DomainError, match="R\\(q\\) requires 0 < q < 1"):
                fn(BigReal.of(q, P), P)


def test_rrvalue_reconstruction_invariant():
    got = rr_eval(nome(2, P) ** 2, P)
    with mp.workprec(P + 8):
        r5 = got.R.value ** 5
        resid = abs((got.A.value + 11 + r5) * r5 - 1)
    assert resid < tol_bits(P, 16)
    assert got.A.value > 0
    assert 0 < got.R.value < 1


def test_a_strictly_decreasing_in_q():
    qs = [Fraction(n, 100) for n in (5, 10, 20, 30, 40, 50)]
    vals = [rr_eval(BigReal.of(q, P), P).A.value for q in qs]
    assert all(vals[i] > vals[i + 1] > 0 for i in range(len(vals) - 1))


def test_algebraic_a_cross_route():
    for r in (1, 2):
        alg = a_r_algebraic(r, P)
        q = nome(r, P)
        direct = rr_eval(q * q, P).A
        assert abs((alg - direct).value) < tol_bits(P, 32), f"r={r}"


def test_w_product_bound_sanity():
    # w^2 w'^2 <= k k' since k_25r < k_r and k'_25r < 1
    from piforge import singular_modulus

    ctx = singular_modulus(1, P)
    ctx25 = singular_modulus(25, P)
    with mp.workprec(P):
        w2 = ctx.k.value * ctx25.k.value
        wp2 = ctx.kprime.value * ctx25.kprime.value
        assert w2 * wp2 <= ctx.k.value * ctx.kprime.value


# ------------------------------------------------- Y values (closed forms)


@pytest.mark.parametrize("s", [arg for arg, *_ in Y_CLOSED_FORMS])
def test_y_value_against_closed_form(s):
    got = y_value(s, P)
    want = y_closed_form(s, P)
    assert abs((got - want).value) < mpmath.mpf(10) ** -40


def test_y_table_residuals_all_small():
    res = y_table_residuals(P)
    assert len(res) == 10
    for s, resid in res.items():
        assert resid.value < mpmath.mpf(10) ** -40, f"Y({s})"


def test_y_normalization_is_eight_not_six():
    # definitional sentinel: dividing by 6 misses Y(1/5) by exactly 4/3
    assert Y_NORMALIZATION == 8
    got6 = y_value(Fraction(1, 5), P) * Fraction(8, 6)
    want = y_closed_form(Fraction(1, 5), P)
    with mp.workprec(P):
        ratio = got6.value / want.value
    assert abs(ratio - mpmath.mpf(4) / 3) < mpmath.mpf(10) ** -30


def test_r68_identity_calibrated_orientation():
    resid = r68_identity_residual(P)
    assert resid.value < mpmath.mpf(10) ** -30


def test_r68_printed_orientation_fails():
    # sentinel: Y(68/5) = Y(17/5) * u with u = (sqrt(x+4)-sqrt(x))/2 is off
    # by ~10 orders of magnitude; the reciprocal conjugate closes it
    y68 = y_value(Fraction(68, 5), P)
    y17 = y_closed_form(Fraction(17, 5), P)
    x = r68_radical(P)
    with mp.workprec(P):
        u = (mpmath.sqrt(x.value + 4) - mpmath.sqrt(x.value)) / 2
        printed = abs(y68.value - y17.value * u)
        conjugate = abs(y68.value - y17.value * (mpmath.sqrt(x.value + 4) + mpmath.sqrt(x.value)) / 2)
    assert printed > mpmath.mpf(10) ** 8
    assert conjugate < mpmath.mpf(10) ** -28


def test_y_domain():
    with pytest.raises(DomainError, match="r must be positive, got -1/5"):
        y_value(Fraction(-1, 5), P)
    with pytest.raises(DomainError, match="no closed form catalogued for Y\\(7/5\\)"):
        y_closed_form(Fraction(7, 5), P)
