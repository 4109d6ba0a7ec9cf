"""Exact differentiation machinery and the coefficient solver.

The nu=2 closed-form coefficient blocks used as ground truth here take the
substitution variable w = k_r^2 (the alternative reading w = (1-k_r^2)/2 is
pinned as the losing one by a sentinel below).
"""

import functools
import hashlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from piforge import (BigReal, DegenerateSystemError, DomainError, VerificationError,
                     alpha_direct, build_series, derivative_stack, diff_u, dk_dk,
                     singular_modulus, solve_coefficients, substitute_alpha, symbolic)
from piforge.bigreal import round_to

from conftest import ke_at_u, tol_bits

P = 256


def u_poly(*coeffs):
    """The integer polynomial coeffs[0] + coeffs[1] u + ... as {(0, 0): coeffs}."""
    return {(0, 0): coeffs}


def k_sym():
    return {(1, 0): (1,)}


def e_sym():
    return {(0, 1): (1,)}


# ------------------------------------- test-side arithmetic on {(i, j): u-coefficients}


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ke_add(*ps):
    """Sum of K, E polynomials over Z[u], with zero terms left out."""
    out = {}
    for p in ps:
        for key, c in p.items():
            a = out.get(key, ())
            out[key] = tuple(sum(t[n] for t in (a, c) if n < len(t))
                             for n in range(max(len(a), len(c))))
    return {key: trim(c) for key, c in out.items() if trim(c)}


def ke_mul(a, b):
    return ke_add(*({(i1 + i2, j1 + j2): pmul(c1, c2)}
                    for (i1, j1), c1 in a.items() for (i2, j2), c2 in b.items()))


u_coeffs = st.lists(st.integers(-5, 5), max_size=4).map(trim)
ke_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), u_coeffs,
                           max_size=4).map(lambda p: {key: c for key, c in p.items() if c})
few = settings(max_examples=30, deadline=None, derandomize=True, database=None)


# --------------------------------------------------------- diff_u rules


def test_diff_u_of_K():
    # 2u(1-u) dK/du = E - (1-u) K
    assert diff_u(k_sym()) == {(0, 1): (1,), (1, 0): (-1, 1)}


def test_diff_u_of_E():
    # 2u(1-u) dE/du = (1-u)(E - K)
    assert diff_u(e_sym()) == {(0, 1): (1, -1), (1, 0): (-1, 1)}


def test_diff_k_of_K():
    # the u-rule with du/dk = 2k gives the classical dK/dk = E/(k(1-k^2)) - K/k
    ctx = singular_modulus(2, P)
    with mp.workprec(P + 16):
        kv = ctx.k.value
        to_k = 2 * kv / (2 * kv ** 2 * (1 - kv ** 2))
        got = ke_at_u(diff_u(k_sym()), ctx.k ** 2, P) * to_k
    assert abs(got - dk_dk(ctx).value) < tol_bits(P, 24)


def test_diff_k_of_E():
    # and dE/dk = (E - K)/k
    ctx = singular_modulus(2, P)
    with mp.workprec(P + 16):
        kv = ctx.k.value
        to_k = 2 * kv / (2 * kv ** 2 * (1 - kv ** 2))
        got = ke_at_u(diff_u(e_sym()), ctx.k ** 2, P) * to_k
        want = (ctx.big_e.value - ctx.big_k.value) / kv
    assert abs(got - want) < tol_bits(P, 24)


def test_diff_u_of_u_polynomial():
    # on a pure u-polynomial D is 2u(1-u) d/du; D(u^n) = 2n u^n - 2n u^(n+1)
    assert diff_u(u_poly(7)) == {}
    assert diff_u(u_poly(0, 0, 1)) == u_poly(0, 0, 4, -4)
    assert diff_u(u_poly(3, 1)) == u_poly(0, 2, -2)


def test_product_rule_on_KE():
    lhs = diff_u(ke_mul(k_sym(), e_sym()))
    rhs = ke_add(ke_mul(diff_u(k_sym()), e_sym()), ke_mul(k_sym(), diff_u(e_sym())))
    assert lhs == rhs
    # and with u-polynomial coefficients
    a = ke_mul(k_sym(), u_poly(1, -3))
    b = ke_mul(ke_mul(e_sym(), e_sym()), u_poly(0, 2, 5))
    assert diff_u(ke_mul(a, b)) == ke_add(ke_mul(diff_u(a), b), ke_mul(a, diff_u(b)))


@few
@given(a=ke_polys, b=ke_polys, n=st.integers(-4, 4))
def test_diff_linearity_random(a, b, n):
    assert diff_u(ke_add(a, b)) == ke_add(diff_u(a), diff_u(b))
    assert diff_u(ke_mul(a, u_poly(n))) == ke_mul(diff_u(a), u_poly(n))


@few
@given(a=ke_polys, b=ke_polys)
def test_product_rule_random(a, b):
    assert diff_u(ke_mul(a, b)) == ke_add(ke_mul(diff_u(a), b), ke_mul(a, diff_u(b)))


@few
@given(p=ke_polys)
def test_total_degree_preserved(p):
    d = diff_u(p)
    assert {i + j for i, j in d} <= {i + j for i, j in p}
    # and the u-degree grows by at most one
    assert all(len(c) <= 1 + max(len(c) for c in p.values()) for c in d.values())


# --------------------------------------------------------- derivative stack


# sha256 of repr(derivative_stack(nu)): the exact integers, and the order in
# which each level's terms are first met; substitute_alpha adds the terms'
# contributions to each K-exponent in that order, so it reaches the solved
# digits
STACK_SHA256 = {
    1: "eed7b811ec131c785f52a20fe7f7481e244ff7ab200d3a71c49f5e01adf02620",
    2: "d93ad429cbdd74774c71f610edb997f2f97a2c3c0db8c001d2a2689149e27d9b",
    3: "0b0a7678dd63ce31ef946b1886902bf2c2e8efd0b581d64b23d9ebc38a764333",
}


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_stack_pinned_exactly(nu):
    got = hashlib.sha256(repr(derivative_stack(nu)).encode()).hexdigest()
    assert got == STACK_SHA256[nu]


def test_stack_structure():
    for nu in (1, 2, 3):
        stack = derivative_stack(nu)
        assert len(stack) == 2 * nu + 1
        assert stack[0] == ({(4 * nu, 0): (1,)}, (1,))
        den = (1,)
        for m, (terms, entry_den) in enumerate(stack):
            # z-derivatives keep the (K,E)-homogeneity of K^(4nu)
            assert {i + j for i, j in terms} == {4 * nu}, f"nu={nu} m={m}"
            # E-degree cannot exceed the number of derivatives taken
            assert max(j for (_, j) in terms) <= m
            # one shared denominator per level, 2^m (1-2u)^(2m)
            assert entry_den == den, f"nu={nu} m={m}"
            den = pmul(den, (2, -8, 8))


def test_dz_and_z_tables():
    # z = 4u(1-u) and dz/du = 4(1-2u) give z d/dz = u(1-u)/(1-2u) d/du, so
    # by the quotient rule on N/D every level follows from the one before:
    # z^(m+1) F^(m+1) = z d/dz (z^m F^(m)) - m z^m F^(m)
    for nu in (1, 2, 3):
        stack = derivative_stack(nu)
        for m in range(2 * nu):
            (N, D), (N1, D1) = stack[m], stack[m + 1]
            dD = tuple(n * c for n, c in enumerate(D) if n)
            # z d/dz (N/D) = num / Dz
            num = ke_add(ke_mul(diff_u(N), u_poly(*D)), ke_mul(N, u_poly(*pmul((0, -2, 2), dD))))
            Dz = pmul((2, -4), pmul(D, D))
            # num/Dz - m N/D - N1/D1 over the common denominator Dz D D1
            rest = ke_add(ke_mul(num, u_poly(*pmul(D, D1))),
                          ke_mul(N, u_poly(*pmul((-m,), pmul(Dz, D1)))),
                          ke_mul(N1, u_poly(*pmul((-1,), pmul(Dz, D)))))
            assert rest == {}, f"nu={nu} m={m}"


def test_stack_against_sympy_elliptic_derivatives():
    # independent oracle: sympy differentiates elliptic_k(u)^(4nu) with its
    # own rules for d elliptic_k/du and d elliptic_e/du (u the parameter,
    # k^2); nu=3 is too slow for sympy and is checked numerically below
    sp = pytest.importorskip("sympy")
    u, K, E = sp.symbols("u K E")
    to_sym = {sp.elliptic_k(u): K, sp.elliptic_e(u): E}
    dK = sp.diff(sp.elliptic_k(u), u).subs(to_sym)
    dE = sp.diff(sp.elliptic_e(u), u).subs(to_sym)

    def as_expr(cs):
        return sum(c * u ** n for n, c in enumerate(cs))

    for nu in (1, 2):
        f = K ** (4 * nu)
        for m, (terms, den) in enumerate(derivative_stack(nu)):
            if m:
                f = sp.cancel((sp.diff(f, u) + sp.diff(f, K) * dK + sp.diff(f, E) * dE)
                              / (4 * (1 - 2 * u)))
            num = sum(as_expr(c) * K ** i * E ** j for (i, j), c in terms.items())
            got = sp.cancel((4 * u * (1 - u)) ** m * f * as_expr(den))
            assert sp.expand(got - num) == 0, f"nu={nu} m={m}"


def test_stack_first_derivative_finite_difference():
    # z F'(z) for nu=1 against a central difference of phi(z)^2 evaluated
    # by direct hypergeometric summation at z = 4u(1-u), u = 0.09
    terms, den = derivative_stack(1)[1]
    got = ke_at_u(terms, Fraction(9, 100), P, den)

    with mp.workprec(400):
        u = mpmath.mpf(9) / 100
        z0 = 4 * u * (1 - u)
        h = mpmath.mpf(10) ** -25

        def F(z):
            return mpmath.hyper([mpmath.mpf(1) / 2] * 3, [1, 1], z) ** 2

        fd = z0 * (F(z0 + h) - F(z0 - h)) / (2 * h)
        # strip the (2/pi)^4 prefactor carried outside the stack
        fd_stack_units = fd / (2 / mpmath.pi) ** 4
    assert abs(got - fd_stack_units) < mpmath.mpf(10) ** -40


def test_stack_nu3_against_numeric_z_derivatives():
    # z^m (d/dz)^m K^12 by mpmath's numerical differentiation, with
    # u(z) = (1 - sqrt(1-z))/2 and mpmath's own K
    stack = derivative_stack(3)
    u0 = Fraction(9, 100)
    with mp.workprec(320):
        z0 = 4 * mpmath.mpf(u0.numerator) / u0.denominator * (1 - mpmath.mpf(u0.numerator)
                                                               / u0.denominator)

        def f(z):
            return mpmath.ellipk((1 - mpmath.sqrt(1 - z)) / 2) ** 12

        for m, (terms, den) in enumerate(stack):
            want = z0 ** m * mpmath.diff(f, z0, m)
            got = ke_at_u(terms, u0, 256, den)
            assert abs(got - want) < abs(want) * mpmath.mpf(10) ** -40, f"m={m}"


def test_hypergeometric_k_parametrization():
    # recorded calibration of the base identity behind the stack:
    # 3F2(1/2,1/2,1/2;1,1; z) = (2 K(k)/pi)^2 with z = 4 k^2 (1-k^2),
    # i.e. the K-argument is the modulus with k^2 = (1 - sqrt(1-z))/2
    for knum in (2, 3, 5, 7):
        k = Fraction(knum, 10)
        with mp.workprec(300):
            kv = mpmath.mpf(k.numerator) / k.denominator
            z = 4 * kv ** 2 * (1 - kv ** 2)
            if knum == 7:
                # z = 0.9996, where the direct 3F2 sum takes seconds; Clausen's
                # formula 3F2(1/2,1/2,1/2;1,1;z) = 2F1(1/4,1/4;1;z)^2 does not
                lhs = mpmath.hyp2f1(mpmath.mpf(1) / 4, mpmath.mpf(1) / 4, 1, z) ** 2
            else:
                lhs = mpmath.hyper([mpmath.mpf(1) / 2] * 3, [1, 1], z)
            rhs = (2 * mpmath.ellipk(kv ** 2) / mpmath.pi) ** 2
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -70, f"k={k}"
            # the parameter reading (K-argument squared again) is the loser
            wrong = (2 * mpmath.ellipk(((1 - mpmath.sqrt(1 - z)) / 2) ** 2)
                     / mpmath.pi) ** 2
            assert abs(lhs - wrong) > mpmath.mpf(10) ** -3, f"k={k}"


# --------------------------------------------------------- substitution


def laurent_at(lk, big_k):
    """Value at K of a substituted Laurent polynomial {exponent: coefficient}."""
    return sum((c * big_k ** e for e, c in lk.items()), BigReal.of(0, big_k.prec))


def test_substitute_ke_example_at_r2():
    ctx = singular_modulus(2, P)
    a = alpha_direct(2, P)
    lk, = substitute_alpha([({(1, 1): (1,)}, (1,))], ctx)
    assert set(lk) == {0, 2}
    s2 = BigReal.of(2, P).sqrt()
    want2 = 1 - a.value / s2
    want0 = BigReal.pi(P) / (4 * s2)
    assert abs((lk[2] - want2).value) < tol_bits(P, 24)
    assert abs((lk[0] - want0).value) < tol_bits(P, 24)


def test_substitute_alpha_relation_restated():
    # substituting into E - K and dividing by K recovers (pi/(4K^2) - a)/sqrt(r)
    ctx = singular_modulus(3, P)
    a = alpha_direct(3, P)
    lk, = substitute_alpha([({(0, 1): (1,), (1, 0): (-1,)}, (1,))], ctx)
    got = laurent_at(lk, ctx.big_k) / ctx.big_k
    want = (BigReal.pi(P) / (4 * ctx.big_k ** 2) - a.value) / ctx.sqrt_r()
    assert abs((got - want).value) < tol_bits(P, 24)


@functools.cache
def r3_context():
    return singular_modulus(3, P)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(p=ke_polys, d0=st.integers(1, 5), d2=st.integers(-4, 4))
def test_substitute_round_trip_random(p, d0, d2):
    # substituting and summing the Laurent polynomial at K gives the value of
    # the entry at k_3 with K and E both taken from the AGM
    ctx = r3_context()
    direct = ke_at_u(p, ctx.k ** 2, P, (d0, 0, d2))
    via = laurent_at(substitute_alpha([(p, (d0, 0, d2))], ctx)[0], ctx.big_k)
    assert abs(direct - via.value) < tol_bits(P, 24)


# --------------------------------------------------------- solver


def nu2_closed_forms(r, prec):
    """Published closed-form A1..A4 and g for nu=2, evaluated with w = k_r^2."""
    ctx = singular_modulus(r, prec)
    a = alpha_direct(r, prec).value
    with mp.workprec(prec + 16):
        w = ctx.k.value ** 2
        rr = mpmath.mpf(ctx.r.numerator) / ctx.r.denominator
        sr = mpmath.sqrt(rr)
        av = a.value
        D = (105 * av ** 4 - 420 * av ** 3 * sr * w + 90 * av ** 2 * rr * w * (-1 + 8 * w)
             - 20 * av * rr ** Fraction(3, 2) * w * (1 - 12 * w + 32 * w ** 2)
             + rr ** 2 * w * (-2 + 43 * w - 192 * w ** 2 + 256 * w ** 3))
        A4 = rr ** 2 * (1 - 2 * w) ** 4 / D
        A3 = (2 * rr ** Fraction(3, 2) * (1 - 2 * w) ** 2
              * (av * (5 - 10 * w) + sr * (3 - 23 * w + 28 * w ** 2)) / D)
        A2 = (rr * (45 * av ** 2 * (1 - 2 * w) ** 2
                    - 30 * av * sr * (-1 + 11 * w - 30 * w ** 2 + 24 * w ** 3)
                    + rr * (7 - 140 * w + 735 * w ** 2 - 1400 * w ** 3 + 880 * w ** 4)) / D)
        A1 = (sr * (-210 * av ** 3 * (-1 + 2 * w) + 90 * av ** 2 * sr * (1 - 13 * w + 20 * w ** 2)
                    - 10 * av * rr * (-2 + 57 * w - 276 * w ** 2 + 304 * w ** 3)
                    + rr ** Fraction(3, 2) * (2 - 115 * w + 995 * w ** 2 - 2640 * w ** 3
                                              + 2080 * w ** 4)) / (2 * D))
        g = 105 / D
    return (A1, A2, A3, A4), g


def test_solve_nu2_r2_matches_closed_forms():
    sol = solve_coefficients(2, 2, P)
    assert len(sol.a_coeffs) == 5
    assert sol.residual.value < tol_bits(P, 48)
    closed, g = nu2_closed_forms(2, P)
    for m, want in enumerate(closed, start=1):
        assert abs(sol.a_coeffs[m].value - want) < tol_bits(P, 48), f"A{m}"
    assert abs(sol.g.value - g) < tol_bits(P, 48)
    assert sol.a_coeffs[0] == 1


def test_solve_nu2_r7_matches_closed_forms():
    # the closed forms are generic in r; cross-check at a second point
    sol = solve_coefficients(2, 7, P)
    closed, g = nu2_closed_forms(7, P)
    for m, want in enumerate(closed, start=1):
        assert abs(sol.a_coeffs[m].value - want) < tol_bits(P, 48), f"A{m}"
    assert abs(sol.g.value - g) < tol_bits(P, 48)


def test_losing_w_reading_is_pinned():
    # with w = (1-k^2)/2 the denominator block evaluates to ~+2.21 instead
    # of the value ~-1.0084 that reproduces the published series
    ctx = singular_modulus(2, P)
    a = alpha_direct(2, P).value
    with mp.workprec(P):
        av = a.value
        rr, sr = mpmath.mpf(2), mpmath.sqrt(2)

        def D_of(w):
            return (105 * av ** 4 - 420 * av ** 3 * sr * w
                    + 90 * av ** 2 * rr * w * (-1 + 8 * w)
                    - 20 * av * rr ** Fraction(3, 2) * w * (1 - 12 * w + 32 * w ** 2)
                    + rr ** 2 * w * (-2 + 43 * w - 192 * w ** 2 + 256 * w ** 3))

        D_win = D_of(ctx.k.value ** 2)
        D_lose = D_of((1 - ctx.k.value ** 2) / 2)
        want = 229441 - 162240 * mpmath.sqrt(2)
    assert abs(D_win - want) < tol_bits(P, 48)
    assert abs(D_lose - want) > 3


def test_solve_nu1_r2_series_against_independent_pi():
    from piforge import cp

    sol = solve_coefficients(1, 2, P)
    assert len(sol.a_coeffs) == 3
    ctx = singular_modulus(2, P)
    with mp.workprec(P + 64):
        x = ctx.series_argument().value
        A1, A2 = sol.a_coeffs[1].value, sol.a_coeffs[2].value
        # bracket: A2 n^2 + (A1 - A2) n + 1
        total = mpmath.mpf(0)
        for n in range(220):
            c = cp(2, n)
            total += (mpmath.mpf(c.numerator) / c.denominator * x ** n
                      * (A2 * n * n + (A1 - A2) * n + 1))
        # independent pi from mpmath, not the package's AGM value
        want = sol.g.value / mpmath.pi ** 2
        err = abs(total - want)
    assert err < mpmath.mpf(10) ** -45


def test_solve_nu3_r7_reproduces_published_rationals():
    from piforge import bracket_from_a

    sol = solve_coefficients(3, 7, P)
    bracket = bracket_from_a(list(sol.a_coeffs), 3)
    printed = [Fraction(1), Fraction(913150, 307323), Fraction(-75313, 102441),
               Fraction(-4998980, 307323), Fraction(-1126755, 34147),
               Fraction(-1080450, 34147), Fraction(-453789, 34147)]
    with mp.workprec(P + 16):
        for j, want in enumerate(printed):
            got = bracket[j].value
            assert abs(got - mpmath.mpf(want.numerator) / want.denominator) \
                < tol_bits(P, 48), f"B{j}"
            # exact rational recovery at the published denominator
            scaled = got * want.denominator
            assert abs(scaled - mpmath.nint(scaled)) < mpmath.mpf(10) ** -40
            assert int(mpmath.nint(scaled)) == want.numerator
    assert abs(sol.g.value - mpmath.mpf(-14417920) / 34147) < tol_bits(P, 48)


def test_solver_residual_tightens_with_precision():
    lo = solve_coefficients(2, 3, 192)
    hi = solve_coefficients(2, 3, 384)
    assert lo.residual.value < tol_bits(192, 48)
    assert hi.residual.value < tol_bits(384, 48)
    assert hi.residual.value < lo.residual.value


def test_solver_rejects_branch_point():
    with pytest.raises(DomainError):
        solve_coefficients(2, 1, P)


def test_near_degenerate_solve_keeps_precision():
    # at nu = 1, r = 3 + 10^-75 rcond is about 1.7e-77: a solve with only
    # its guard bits keeps g and the bracket to about 2^-327 at 512 bits
    r = 3 + Fraction(1, 10 ** 75)
    lo, hi = build_series(1, r, 512), build_series(1, r, 2048)
    for a, b in zip((lo.g,) + lo.bracket, (hi.g,) + hi.bracket):
        assert abs(a.value - b.value) <= abs(b.value) * tol_bits(512, 8)
    assert solve_coefficients(1, r, 512).rcond.value < mpmath.mpf(10) ** -76


def test_solver_rejects_bad_nu():
    with pytest.raises(DomainError):
        solve_coefficients(4, 2, P)


def test_finite_difference_validation_random_moduli():
    # D(p) / (2u(1-u)) agrees with a central difference of p's value in u
    rng = random.Random(20240817)
    p = {(2, 1): (1,), (0, 2): (0, 1)}      # K^2 E + u E^2
    dp = diff_u(p)
    for _ in range(5):
        u0 = Fraction(rng.randint(20, 80), 100) ** 2
        h = Fraction(1, 10 ** 12)
        with mp.workprec(420):
            fd = (ke_at_u(p, u0 + h, 400) - ke_at_u(p, u0 - h, 400)) / (2 * mpmath.mpf(10) ** -12)
            uv = mpmath.mpf(u0.numerator) / u0.denominator
            want = ke_at_u(dp, u0, 400) / (2 * uv * (1 - uv))
            assert abs(fd - want) < mpmath.mpf(10) ** -20, f"u={u0}"


@pytest.mark.parametrize("prec", [256, 512, 1024, 2048])
def test_nu1_r3_system_is_degenerate_at_every_precision(prec):
    # the two rows are proportional, [-1/3, 4/9] and [pi/3, -4pi/9], so any
    # solution is round-off; the error must not depend on which way it falls
    with pytest.raises(DegenerateSystemError) as exc:
        build_series(1, 3, prec)
    assert exc.value.rank == 1


@pytest.mark.parametrize("nu", [2, 3])
def test_r3_systems_are_well_posed_for_nu_above_1(nu):
    spec = build_series(nu, 3, 192)
    assert len(spec.bracket) == 2 * nu + 1


def test_solver_reports_a_stack_pole():
    # at r = 1 + 10^-40, 1 - 2k_r^2 is about 10^-40, and the expanded
    # denominator 2^m (1 - 2u)^(2m), summed as sum_k c_k u^k over the table
    # of u-powers, falls below its rounding bound sum_k |c_k| u^k 2^-wprec
    with pytest.raises(DegenerateSystemError, match="derivative stack has a pole"):
        solve_coefficients(2, 1 + Fraction(1, 10 ** 40), 256)


@pytest.mark.parametrize("nu, first", [(1, 26), (2, 13), (3, 9)])
def test_stack_pole_is_decided_from_the_rounding_bound(nu, first):
    # over r = 1 + 10^-e the pole is reported for one unbroken run of e,
    # from where 2^m (1 - 2u)^(2m) at the top m meets its rounding bound,
    # whatever way the round-off falls; below it only the solve's own
    # checks speak
    poles = []
    for e in range(4, 61):
        try:
            solve_coefficients(nu, 1 + Fraction(1, 10 ** e), 256)
        except DegenerateSystemError as exc:
            if "derivative stack has a pole" in str(exc):
                poles.append(e)
    assert poles == list(range(first, 61))


def test_solver_reports_a_residual_above_its_bound(monkeypatch):
    # A_1 moved by 2^-100 relative leaves the eliminated K-powers far above
    # the 2^-(prec-48) the solve allows
    solve = symbolic._solve

    def off(M, rhs):
        rcond, x = solve(M, rhs)
        x[0] *= 1 + mpmath.ldexp(1, -100)
        return rcond, x

    monkeypatch.setattr(symbolic, "_solve", off)
    with pytest.raises(VerificationError, match="residual .* exceeds 2\\^-208"):
        solve_coefficients(2, 7, 256)


def test_solve_of_a_singular_matrix_has_no_solution():
    with mp.workprec(256):
        rcond, x = symbolic._solve(mpmath.matrix([[1, 2], [2, 4]]), mpmath.matrix([1, 1]))
    assert rcond == 0 and x is None


def test_derivative_stack_needs_nu_at_least_1():
    with pytest.raises(DomainError, match="nu must be a positive integer"):
        derivative_stack(0)


def test_solver_condition_threshold_has_margin_at_64_bits():
    # every pool r builds at the CLI minimum; rcond of the worst of them
    # (nu=3, r=5/4: 1e-10) sits ten orders above the 64-bit threshold
    for nu in (1, 2, 3):
        for r in (Fraction(5, 4), 2, Fraction(7, 2), 7, 15):
            assert len(solve_coefficients(nu, r, 64).a_coeffs) == 2 * nu + 1
    with pytest.raises(DegenerateSystemError):
        solve_coefficients(1, 3, 64)


def _mpmath_rcond(M):
    """The former rcond: M and mpmath's inverse of it, factored apart."""
    try:
        return 1 / (mpmath.mnorm(M, 1) * mpmath.mnorm(mpmath.inverse(M), 1))
    except ZeroDivisionError:
        return mpmath.mpf(0)


@pytest.mark.parametrize("nu, r", [(1, 3), (1, Fraction(13, 2)), (2, Fraction(29, 2)),
                                   (3, Fraction(7, 2)), (3, 58)])
@pytest.mark.parametrize("prec", [256, 1040])
def test_shared_lu_equals_mpmath_inverse_and_lu_solve(nu, r, prec, monkeypatch):
    # the solve factors its system once and takes both rcond and the solution
    # from those factors; each must equal mpmath's own, bit for bit, at the
    # precision the solve runs at (nu = 1, r = 3 has dependent rows)
    seen = []
    solve = symbolic._solve
    monkeypatch.setattr(symbolic, "_solve", lambda M, rhs: seen.append(
        (M.copy(), rhs.copy(), mp.prec, solve(M, rhs))) or seen[-1][-1])
    try:
        sol = solve_coefficients(nu, r, prec)
    except DegenerateSystemError as exc:
        assert (nu, r) == (1, 3) and exc.rank == 1
        sol = None
    M, rhs, wprec, (rcond, x) = seen[-1]
    with mp.workprec(wprec):
        assert rcond == _mpmath_rcond(M)
        if sol is None:
            return
        assert x == mpmath.lu_solve(M, rhs)
    assert len(sol.a_coeffs) == 2 * nu + 1 and sol.rcond == round_to(rcond, prec)


@pytest.mark.parametrize("nu, r", [(1, Fraction(13, 2)), (3, Fraction(29, 2))])
def test_solver_ignores_the_ambient_precision(nu, r):
    # the suite runs at an ambient 1536 bits; library callers run at 53
    for prec in (256, 1040):
        at_suite = solve_coefficients(nu, r, prec)
        with mp.workprec(53):
            at_default = solve_coefficients(nu, r, prec)
        assert at_default == at_suite
