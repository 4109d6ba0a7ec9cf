"""Kernel tests: AGM, K/E, nome, thetas, singular moduli, eta product.

Frozen decimals were computed with independent oracles (numeric quadrature
of the defining integrals, direct hypergeometric summation); the oracles are
re-run here where they are cheap.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from piforge import (BigReal, DomainError, InsufficientPrecisionError, agm,
                     catalog, dk_dk, elliptic, ell_e, ell_k, eta_f, identities, nome,
                     singular_modulus, theta2, theta3, theta4)
from piforge.bigreal import pi_bits, round_to
from piforge.elliptic import ModulusContext

from conftest import deadline, tol_bits

P = 256

# independent-oracle values (quadrature of the defining integrals at 1e-30)
AGM_1_INVSQRT2 = "0.84721308479397908660649912348219163648"
K_INVSQRT2 = "1.85407467730137191843385034719526004622"
E_INVSQRT2 = "1.35064388104767550252017473533872584135"
NOME_1 = "0.043213918263772249774417737171728011276"


def inv_sqrt2(prec):
    return 1 / BigReal.of(2, prec).sqrt()


# ---------------------------------------------------------------- agm


def test_agm_fixed_point():
    x = BigReal.of(Fraction(7, 3), P)
    assert abs((agm(x, x, P) - x).value) < tol_bits(P, 4)


def test_agm_reference_value():
    got = agm(BigReal.of(1, P), inv_sqrt2(P), P)
    assert abs(got.value - mpmath.mpf(AGM_1_INVSQRT2)) < mpmath.mpf(10) ** -30


def test_agm_against_quadrature_oracle():
    # agm(1, k') = pi/(2 K(k)) with K evaluated by direct quadrature
    with mp.workprec(200):
        k = mpmath.mpf(3) / 10
        K = mpmath.quad(lambda t: 1 / mpmath.sqrt(1 - k ** 2 * mpmath.sin(t) ** 2),
                        [0, mpmath.pi / 2])
        kp = mpmath.sqrt(1 - k ** 2)
        want = mpmath.pi / (2 * K)
    got = agm(BigReal.of(kp, P), BigReal.of(1, P), P)
    assert abs(got.value - want) < mpmath.mpf(10) ** -30


def test_agm_one_step_invariance():
    rng = random.Random(20250810)
    for _ in range(10):
        a = BigReal.of(Fraction(rng.randint(1, 10 ** 6), 10 ** 5), P)
        b = BigReal.of(Fraction(rng.randint(1, 10 ** 6), 10 ** 5), P)
        lhs = agm(a, b, P)
        rhs = agm((a + b) / 2, (a * b).sqrt(), P)
        assert abs((lhs - rhs).value) < tol_bits(P, 8)


def test_agm_domain():
    with pytest.raises(DomainError):
        agm(BigReal.of(0, P), BigReal.of(1, P), P)
    with pytest.raises(DomainError):
        agm(BigReal.of(1, P), BigReal.of(-2, P), P)


# ---------------------------------------------------------------- K and E


def test_k_e_at_zero():
    half_pi = pi_bits(P) / 2
    assert abs(ell_k(BigReal.of(0, P), P).value - half_pi) < tol_bits(P, 8)
    assert abs(ell_e(BigReal.of(0, P), P).value - half_pi) < tol_bits(P, 8)


def test_k_reference_value_and_series_oracle():
    got = ell_k(inv_sqrt2(P), P)
    assert abs(got.value - mpmath.mpf(K_INVSQRT2)) < mpmath.mpf(10) ** -30
    # direct hypergeometric series of the defining expansion, summed to 1e-25
    with mp.workprec(120):
        k2 = mpmath.mpf(1) / 2
        term = mpmath.mpf(1)
        total = mpmath.mpf(0)
        n = 0
        while term > mpmath.mpf(10) ** -27:
            total += term
            n += 1
            term *= (mpmath.mpf(2 * n - 1) / (2 * n)) ** 2 * k2
        series = mpmath.pi / 2 * total
    assert abs(got.value - series) < mpmath.mpf(10) ** -25


def test_e_reference_value():
    got = ell_e(inv_sqrt2(P), P)
    assert abs(got.value - mpmath.mpf(E_INVSQRT2)) < mpmath.mpf(10) ** -30


def test_k_e_against_mpmath():
    for knum in (1, 3, 9):
        k = BigReal.of(Fraction(knum, 10), P)
        with mp.workprec(P + 16):
            m = k.value ** 2
            assert abs(ell_k(k, P).value - mpmath.ellipk(m)) < tol_bits(P, 8)
            assert abs(ell_e(k, P).value - mpmath.ellipe(m)) < tol_bits(P, 8)


def test_legendre_relation_at_k03():
    k = BigReal.of(Fraction(3, 10), P)
    kp = (1 - k * k).sqrt()
    lhs = (ell_e(k, P) * ell_k(kp, P) + ell_e(kp, P) * ell_k(k, P)
           - ell_k(k, P) * ell_k(kp, P))
    assert abs(lhs.value - pi_bits(P) / 2) < tol_bits(P, 16)


def test_legendre_relation_random_moduli():
    rng = random.Random(1234)
    for _ in range(10):
        k = BigReal.of(Fraction(rng.randint(5, 95), 100), P)
        kp = (1 - k * k).sqrt()
        lhs = (ell_e(k, P) * ell_k(kp, P) + ell_e(kp, P) * ell_k(k, P)
               - ell_k(k, P) * ell_k(kp, P))
        assert abs(lhs.value - pi_bits(P) / 2) < tol_bits(P, 16)


def test_k_near_1_asks_for_precision_instead_of_hanging():
    # k' = sqrt(1 - k^2) rounds to 0 at 64 bits; an AGM of (1, 0) never stops
    k = BigReal.of(1 - Fraction(1, 2 ** 200), 256)
    with deadline(10), pytest.raises(InsufficientPrecisionError) as exc:
        ell_k(k, 64)
    prec = exc.value.required_bits
    with mp.workprec(prec + 256):
        want = mpmath.ellipk(k.value ** 2)
    assert abs(ell_k(k, prec).value - want) < want * tol_bits(64, 4)


def test_k_domain():
    with pytest.raises(DomainError):
        ell_k(BigReal.of(1, P), P)
    with pytest.raises(DomainError):
        ell_e(BigReal.of(Fraction(-1, 10), P), P)


# ---------------------------------------------------------------- dK/dk


def test_dk_dk_substitution_at_r1():
    ctx = singular_modulus(1, P)
    # at k = 1/sqrt(2): E/(k(1-k^2)) - K/k = 2*sqrt(2)*E - sqrt(2)*K
    s2 = BigReal.of(2, P).sqrt()
    want = 2 * s2 * ctx.big_e - s2 * ctx.big_k
    assert abs((dk_dk(ctx) - want).value) < tol_bits(P, 16)


def test_dk_dk_central_difference():
    # finite-difference oracle at k = 0.3, h = 1e-10, high working precision
    prec = 256
    h = Fraction(1, 10 ** 10)
    k = Fraction(3, 10)
    kp = ell_k(BigReal.of(k + h, prec), prec)
    km = ell_k(BigReal.of(k - h, prec), prec)
    fd = (kp - km) / (2 * BigReal.of(h, prec))
    kb = BigReal.of(k, prec)
    want = ell_e(kb, prec) / (kb * (1 - kb * kb)) - ell_k(kb, prec) / kb
    # central difference is O(h^2)
    assert abs((fd - want).value) < mpmath.mpf(10) ** -19


def test_dk_dk_vanishes_at_small_k():
    # K is even in k, so the derivative tends to 0 with k
    prec = 192
    for num in (1, 2):
        k = BigReal.of(Fraction(num, 10 ** 6), prec)
        d = ell_e(k, prec) / (k * (1 - k * k)) - ell_k(k, prec) / k
        assert abs(d.value) < mpmath.mpf(10) ** -5


# ---------------------------------------------------------------- nome


def test_nome_reference():
    assert abs(nome(1, P).value - mpmath.mpf(NOME_1)) < mpmath.mpf(10) ** -30


def test_nome_exponent_laws():
    q1 = nome(1, P)
    assert abs((nome(4, P) - q1 * q1).value) < tol_bits(P, 8)
    assert abs((nome(Fraction(1, 4), P) - q1.sqrt()).value) < tol_bits(P, 8)


def test_nome_domain():
    with pytest.raises(DomainError):
        nome(0, P)
    with pytest.raises(DomainError):
        nome(Fraction(-1, 2), P)


# ---------------------------------------------------------------- thetas


def test_theta_at_zero():
    z = BigReal.of(0, P)
    assert theta3(z, P) == 1
    assert theta4(z, P) == 1
    assert theta2(z, P) == 0


@pytest.mark.parametrize("fn", [theta2, theta3, theta4, eta_f])
@pytest.mark.parametrize("q", [Fraction(-1, 10), 1, Fraction(3, 2)])
def test_theta_forms_reject_q_outside_0_1(fn, q):
    with pytest.raises(DomainError, match="nome must satisfy 0 <= q < 1"):
        fn(q, P)


def test_jacobi_identity_at_nome2():
    q = nome(2, P)
    lhs = theta3(q, P) ** 4
    rhs = theta2(q, P) ** 4 + theta4(q, P) ** 4
    assert abs((lhs - rhs).value) < tol_bits(P, 16)


def test_theta_ratio_vanishes_with_q():
    prev = None
    for e in (8, 16, 32):
        q = BigReal.of(Fraction(1, 2 ** e), P)
        ratio = (theta2(q, P) / theta3(q, P)).value
        assert ratio > 0
        if prev is not None:
            assert ratio < prev
        prev = ratio
    assert prev < mpmath.mpf(10) ** -2


def test_theta_against_mpmath():
    q = nome(3, P)
    with mp.workprec(P + 16):
        for fn, idx in ((theta2, 2), (theta3, 3), (theta4, 4)):
            assert abs(fn(q, P).value - mpmath.jtheta(idx, 0, q.value)) < tol_bits(P, 8)


# ------------------------------------------------------- singular moduli


def test_k1_is_inv_sqrt2():
    ctx = singular_modulus(1, P)
    assert abs((ctx.k - inv_sqrt2(P)).value) < tol_bits(P, 8)


def test_k2_closed_form():
    ctx = singular_modulus(2, P)
    want = BigReal.of(2, P).sqrt() - 1
    assert abs((ctx.k - want).value) < tol_bits(P, 8)


def test_k7_closed_form():
    ctx = singular_modulus(7, P)
    want = (8 - 3 * BigReal.of(7, P).sqrt()) / 16
    assert abs((ctx.k * ctx.k - want).value) < tol_bits(P, 8)


def test_k15_closed_form():
    ctx = singular_modulus(15, P)
    s3 = BigReal.of(3, P).sqrt()
    s5 = BigReal.of(5, P).sqrt()
    want = ((2 - s3) ** 2 * (s5 - s3) ** 2 * (3 - s5) ** 2) / 128
    assert abs((ctx.k * ctx.k - want).value) < tol_bits(P, 8)


def test_defining_equation_r_1_to_10():
    for r in range(1, 11):
        ctx = singular_modulus(r, P)
        assert ctx.defining_residual().value < tol_bits(P, 16), f"r={r}"


def test_defining_equation_high_precision():
    # module invariant: 1024 bits, residual below 2^-1000 for r = 1..10
    for r in range(1, 11):
        ctx = singular_modulus(r, 1024)
        assert ctx.defining_residual().value < tol_bits(1024, 24), f"r={r}"


def test_context_invariants():
    ctx = singular_modulus(5, P)
    assert 0 < ctx.k.value < 1
    assert abs((ctx.k ** 2 + ctx.kprime ** 2 - 1).value) < tol_bits(P, 8)
    assert abs((ctx.q - nome(5, P)).value) < tol_bits(P, 8)


@pytest.mark.parametrize("r", [2, Fraction(1, 3)], ids=str)
def test_context_prec_is_the_precision_of_its_values(r):
    # prec is no field: it reads the precision all five values are rounded to
    for prec in (P, 333):
        ctx = singular_modulus(r, prec)
        assert ctx.prec == prec
        assert [v.prec for v in (ctx.q, ctx.k, ctx.kprime, ctx.big_k, ctx.big_e)] == [prec] * 5


def test_quarter_modulus_identity():
    # k_{r/4} = 2 sqrt(k_r)/(1 + k_r)
    for r in (4, 8, 16):
        big = singular_modulus(r, P)
        small = singular_modulus(Fraction(r, 4), P)
        want = 2 * big.k.sqrt() / (1 + big.k)
        assert abs((small.k - want).value) < tol_bits(P, 16), f"r={r}"


def test_doubling_agreement():
    for r in (2, 7, Fraction(17, 5)):
        lo = singular_modulus(r, P)
        hi = singular_modulus(r, 2 * P)
        for field in ("q", "k", "kprime", "big_k", "big_e"):
            a = getattr(lo, field).value
            b = getattr(hi, field).value
            assert abs(a - b) < tol_bits(P, 8), f"r={r} field={field}"


@pytest.mark.parametrize("r", [Fraction(1, 100), Fraction(1, 400), Fraction(1, 1000)])
def test_contexts_below_r_1_keep_their_bits(r):
    # k_r nears 1 as r -> 0, where sqrt(1 - k^2) cancels; against theta
    # quotients, an agm for K and mpmath's E at three times the precision
    for prec in (128, 512):
        ctx = singular_modulus(r, prec)
        with mp.workprec(3 * prec):
            q = mpmath.exp(-mpmath.pi * mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator))
            k = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 2
            kp = (mpmath.jtheta(4, 0, q) / mpmath.jtheta(3, 0, q)) ** 2
            want = (k, kp, mpmath.pi / (2 * mpmath.agm(1, kp)), mpmath.ellipe(k ** 2))
        for field, w in zip(("k", "kprime", "big_k", "big_e"), want):
            got = getattr(ctx, field).value
            assert abs(got - w) <= w * tol_bits(prec, 2), f"prec={prec} field={field}"


def test_insufficient_precision_is_loud():
    with pytest.raises(InsufficientPrecisionError) as exc:
        singular_modulus(10 ** 8, 128)
    assert exc.value.required_bits is not None
    assert exc.value.required_bits > 128


def test_domain_rejects_nonpositive_r():
    # no error is stored: each call raises again
    for _ in range(2):
        for r in (0, Fraction(-1, 3)):
            for fn in (singular_modulus, nome):
                with pytest.raises(DomainError, match="r must be positive"):
                    fn(r, P)


# ---------------------------------------------------------------- context store

# the benchmark's r pool, the r of ``piforge verify`` and its routes, r >= 58
# where k' nears 1, and r < 1, down to 1/100 where k' taken from k would cancel
STORE_RS = (Fraction(7, 2), 4, Fraction(9, 2), 6, Fraction(13, 2), Fraction(15, 2), 14,
            Fraction(29, 2), 15, 1, 2, 3, 25, 58, Fraction(63, 2), Fraction(1, 3),
            Fraction(1, 100))


def direct_context(r, prec):
    """The context built at ``prec`` itself and rounded once, bypassing the store."""
    rf = Fraction(r)
    values = elliptic._context.__wrapped__(rf, prec)
    return ModulusContext(rf, *(round_to(v, prec) for v in values))


@pytest.mark.parametrize("r", STORE_RS, ids=str)
def test_served_context_equals_direct_build(r):
    # every request lies below its 64-bit bucket, so each is served from a
    # wider build; 1021 and 1023 sit just under 1024, where rounding an
    # already rounded bucket value would differ in the last bit
    elliptic._context.cache_clear()
    for prec in (65, 127, 200, 333, 528, 536, 544, 700, 957, 1021, 1023, 1040, 1100):
        assert singular_modulus(r, prec) == direct_context(r, prec), f"prec={prec}"


@pytest.mark.parametrize("r", [Fraction(13, 2), Fraction(1, 3)], ids=str)
def test_singular_modulus_ignores_the_ambient_precision(r):
    # the suite runs at an ambient 1536 bits; library callers run at 53
    for prec in (256, 1040):
        elliptic._context.cache_clear()
        at_suite = singular_modulus(r, prec)
        elliptic._context.cache_clear()
        with mp.workprec(53):
            at_default = singular_modulus(r, prec)
        assert at_default == at_suite


def test_verify_builds_one_context_per_r_and_bucket(monkeypatch):
    # verify's residual checks ask for r = 1, 2, 3 and 25 at prec + 16, + 24
    # and + 32 bits, which at 8192 bits all fall in the 8256-bit bucket
    build = elliptic._context
    asked = []
    monkeypatch.setattr(elliptic, "_context",
                        lambda rf, prec: asked.append((rf, prec)) or build(rf, prec))
    build.cache_clear()
    identities.identity_battery(8192)
    catalog.y_table_residuals(8192)
    assert set(asked) == {(Fraction(r), 8256) for r in (1, 2, 3, 25)}
    assert build.cache_info().misses == 4 < len(asked)
    build.cache_clear()
    singular_modulus(25, 8208)
    assert build.cache_info().misses == 1


@pytest.mark.parametrize("r", [53000, Fraction(1, 53000)], ids=str)
def test_underflow_is_judged_at_the_requested_precision(r):
    # k_s^2 for s = 53000 needs about 1045 bits: the 1024-bit bucket holds it,
    # a 1000-bit request does not, whether or not that bucket is stored
    elliptic._context.cache_clear()
    with pytest.raises(InsufficientPrecisionError) as cold:
        singular_modulus(r, 1000)
    elliptic._context.cache_clear()
    singular_modulus(r, 1024)
    with pytest.raises(InsufficientPrecisionError) as warm:
        singular_modulus(r, 1000)
    assert warm.value.required_bits == cold.value.required_bits > 1024
    assert str(warm.value) == str(cold.value)
    assert "at 1000 bits" in str(warm.value)


# ---------------------------------------------------------------- eta


def test_eta_at_zero_and_monotone():
    assert eta_f(BigReal.of(0, P), P) == 1
    vals = [eta_f(BigReal.of(Fraction(n, 10), P), P).value for n in (1, 2, 3, 4)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_eta_against_mpmath_qp():
    q = nome(2, P)
    with mp.workprec(P + 16):
        assert abs(eta_f(q, P).value - mpmath.qp(q.value)) < tol_bits(P, 8)


def test_eta_cube_bridge_at_r2():
    # f(-q^2)^6 = 2 k k' K^3/(pi^3 sqrt(q)) at q = nome(2)
    ctx = singular_modulus(2, P)
    q2 = ctx.q * ctx.q
    lhs = eta_f(q2, P) ** 6
    rhs = (2 * ctx.k * ctx.kprime * ctx.big_k ** 3
           / (BigReal.pi(P) ** 3 * ctx.q.sqrt()))
    assert abs((lhs - rhs).value) < tol_bits(P, 24)
