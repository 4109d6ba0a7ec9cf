"""Exact differentiation of K-powers and the series-coefficient solver.

The generating function of the degree-p coefficient sequence c_p(n) is
F(z) = phi(z)^p with phi(z) = sum C(2n,n)^3 (z/64)^n and p = 2*nu. Under
z = 4u(1-u) with u = k^2 (equivalently u = (1 - sqrt(1-z))/2) one has
phi(z) = (2/pi)^2 K(k)^2, so F = (2/pi)^(2p) K^(2p) and every z-derivative
of F is a polynomial in the formal symbols K, E whose coefficients are
rational functions of u. The classical rules (Borwein & Borwein, Pi and the
AGM, 1987, ch. 1)

    dK/du = (E - (1-u) K) / (2u(1-u)),     dE/du = (E - K) / (2u),
    d/dz  = (d/du) / (4(1 - 2u))

keep the total (K,E)-degree, and they give every stack level one common
denominator: (d/dz)^m K^(4nu) = P_m / (u^m (1-u)^m (1-2u)^(2m) 2^(3m)) with
P_0 = K^(4nu) and

    P_{m+1} = (1-2u) D(P_m) - 2m (1 - 8u + 8u^2) P_m,    D = 2u(1-u) d/du,

where D maps polynomials in K, E over Z[u] to themselves. The factor
z^m = 4^m u^m (1-u)^m cancels the u and 1-u powers, so

    z^m F^(m)(z) = (2/pi)^(4nu) P_m / (2^m (1-2u)^(2m)).

Each P_m is plain integer data, a dict mapping (i, j) to the little-endian
u-coefficients of K^i E^j, over that one shared denominator: no fraction,
gcd or reduction anywhere in the stack. Substituting the alpha relation

    E = K (1 - a(r)/sqrt(r)) + pi/(4 K sqrt(r))

at u = k_r^2 turns each z^m F^(m)(z) into a Laurent polynomial in K with even
exponents 0..2p and numeric coefficients (pi folded in); requiring every
positive K-power of sum A_m z^m F^(m) to vanish with A_0 = 1 yields a square
linear system of size 2*nu for A_1..A_{2nu}, and the surviving K^0 term is
g/pi^(2nu) after restoring the (2/pi)^(2p) prefactor; one LU factorization
gives both the system's condition number and its solution. The solver
rejects a system whose rows are dependent to working precision, and reports
the residual of the eliminated coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from numbers import Rational

import mpmath
from mpmath import mp

from .alpha import alpha_from_context
from .bigreal import BigReal, as_fraction, pi_bits, round_to
from .elliptic import GUARD, ModulusContext, singular_modulus
from .errors import (DegenerateSystemError, DomainError, NonConvergentSeriesError,
                     VerificationError)

# ---------------------------------------------------------------------------
# integer polynomials in u (little-endian coefficient tuples)
# ---------------------------------------------------------------------------


def _padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _acc(out: dict, key, c) -> None:
    out[key] = _padd(out.get(key, ()), c)


def diff_u(p: dict) -> dict:
    """D(p) = 2u(1-u) dp/du for p = {(i, j): u-coefficients of K^i E^j}.

    The factor 2u(1-u) clears the denominators of the dK/du and dE/du rules,
    so D(p) is again over Z[u]. D is linear, obeys the product rule and
    keeps the total (K,E)-degree of every term; zero terms are left out.
    """
    out: dict = {}
    for (i, j), c in p.items():
        dc = tuple(x * n for n, x in enumerate(c) if n)
        _acc(out, (i, j), _padd(_pmul((0, 2, -2), dc), _pmul((j - i, i - j), c)))
        if i:
            _acc(out, (i - 1, j + 1), tuple(i * x for x in c))
        if j:
            _acc(out, (i + 1, j - 1), _pmul((-j, j), c))
    return {key: c for key, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def derivative_stack(nu: int) -> tuple:
    """[z^m (d/dz)^m K^(4nu)] for m = 0..2nu, exact, as pairs (P_m, den_m).

    Entry m is P_m / den_m with den_m = 2^m (1-2u)^(2m) (module docstring);
    P_m maps (i, j) to the u-coefficients of K^i E^j, in the order in which
    the recurrence first meets each term. The physical object is
    (2/pi)^(4nu) times each entry; the prefactor is constant under d/dz, so
    it is reattached only when g is extracted.
    """
    if nu < 1:
        raise DomainError(f"nu must be a positive integer, got {nu}")
    p, den = {(4 * nu, 0): (1,)}, (1,)
    stack = [(p, den)]
    for m in range(2 * nu):
        nxt = {key: _pmul(c, (1, -2)) for key, c in diff_u(p).items()}
        for key, c in p.items():
            _acc(nxt, key, _pmul(c, (-2 * m, 16 * m, -16 * m)))
        p, den = {key: c for key, c in nxt.items() if c}, _pmul(den, (2, -8, 8))
        stack.append((p, den))
    return tuple(stack)


def substitute_alpha(stack, ctx: ModulusContext) -> list:
    """Replace every E by lambda K + mu/K, lambda = 1 - a(r)/sqrt(r) and
    mu = pi/(4 sqrt(r)), in each entry (P, den) of ``stack`` at u = k_r^2, with
    a(r) = ``alpha_from_context(ctx)``: one Laurent polynomial in K per entry,
    {K-exponent: BigReal} without zeros, at the context's precision.

    One table of u^k (denominators included) and one of s[j][t] =
    C(j,t) lambda^(j-t) mu^t serve the stack: term (i, j) adds c(u) s[j][t],
    c(u) = sum_k c_k u^k, to exponent i + j - 2t, in the entry's term order,
    and each sum is divided by den(u). Raises DegenerateSystemError (a pole
    of the stack) when |den(u)| does not exceed its rounding bound
    sum_k |c_k| u^k 2^(-wprec), wprec the working precision.
    """
    a = alpha_from_context(ctx)
    prec = ctx.prec
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        uv = ctx.k.value ** 2
        sr = ctx.sqrt_r().value
        lam = 1 - a.value.value / sr          # coefficient of K in E
        mu = pi_bits(wprec) / (4 * sr)        # coefficient of 1/K in E
        degree = max((len(c) for p, den in stack for c in (den, *p.values())), default=0)
        top = max((j for p, _ in stack for _, j in p), default=0)
        upow = [mpmath.mpf(1)]
        while len(upow) < degree:
            upow.append(upow[-1] * uv)
        lpow, mpow = ([v ** n for n in range(top + 1)] for v in (lam, mu))
        s = [[comb(j, t) * lpow[j - t] * mpow[t] for t in range(j + 1)] for j in range(top + 1)]
        out = []
        for p, den in stack:
            acc: dict = {}
            for (i, j), c in p.items():
                cv = sum(x * upow[k] for k, x in enumerate(c) if x)
                for t, st in enumerate(s[j]):
                    e = i + j - 2 * t
                    acc[e] = acc.get(e, 0) + cv * st
            dv = sum(x * upow[k] for k, x in enumerate(den) if x)
            if abs(dv) <= mpmath.ldexp(sum(abs(x) * upow[k] for k, x in enumerate(den)), -wprec):
                raise DegenerateSystemError(f"derivative stack has a pole at r={ctx.r}")
            out.append({e: round_to(v / dv, prec) for e, v in acc.items() if v != 0})
    return out


def _solve(M, rhs) -> tuple:
    """(reciprocal 1-norm condition number of M, x with M x = rhs), or (0, None)
    if LU finds M singular. M is factored once, and the inverse's columns and
    x are solved from the factors, all at mp.prec + 10 bits as in
    ``mpmath.inverse`` and ``mpmath.lu_solve``, so both equal mpmath's."""
    n = M.rows
    with mp.extraprec(10):
        try:
            lu, piv = mp.LU_decomp(M)
        except ZeroDivisionError:
            return mpmath.mpf(0), None
        *cols, x = (mp.U_solve(lu, mp.L_solve(lu, b, piv))
                    for b in [mpmath.unitvector(n, i + 1) for i in range(n)] + [rhs])
    inv_t = mpmath.matrix([list(col) for col in cols])
    return 1 / (mpmath.mnorm(M, 1) * mpmath.mnorm(inv_t.T, 1)), x


@dataclass(frozen=True)
class CoefficientSolution:
    """Solved A-coefficients for one (nu, r): A[0] = 1, len(A) = 2nu+1.

    ``x`` is the series argument 4 k_r^2 k'_r^2 of the context the solve
    ran on, rounded to ``prec``. ``residual`` is the largest leftover
    K-power coefficient after the solve (the quantities that the
    construction forces to vanish); ``rcond`` is the reciprocal 1-norm
    condition number of the solved square system of size 2nu.
    """

    r: Rational
    x: BigReal
    a_coeffs: tuple
    g: BigReal
    residual: BigReal
    rcond: BigReal


def solve_coefficients(nu: int, r, prec: int) -> CoefficientSolution:
    """Determine A_1..A_{2nu} and g so that sum A_m z^m F^(m)(z_r) = g/pi^(2nu).

    Builds the derivative stack exactly, substitutes the alpha relation at
    k_r, and solves the square linear system that kills every positive
    K-power (A_0 = 1). The solve loses about L = -log2(rcond) bits to the
    system's reciprocal condition number rcond; when L passes 6*GUARD, the
    context, alpha, substitution and solve are taken once more with L extra
    bits. The series argument x = 4 k_r^2 k'_r^2 is read off the same
    context. Raises NonConvergentSeriesError (a DomainError) at r = 1, where
    x = 1, DomainError for other r < 1, DegenerateSystemError when rcond
    falls below 2^(-wprec/2) at the working precision wprec or the stack
    has a pole at k_r (``substitute_alpha``), and
    VerificationError when the residual of the eliminated coefficients does
    not come out below 2^(-prec+48).
    """
    if nu not in (1, 2, 3):
        raise DomainError(f"nu must be in {{1, 2, 3}}, got {nu}")
    rf = as_fraction(r)
    if rf == 1:
        raise NonConvergentSeriesError("r = 1 sits on the branch point z = 1 (dz/dk = 0); "
                                       "no convergent series exists there")
    if rf < 1:
        raise DomainError(f"r = {rf} puts k_r^2 above 1/2, where the construction does "
                          f"not apply; r = {1 / rf} gives the same x")
    n_unknown = 2 * nu
    extra = 0
    while True:
        wprec = prec + 8 * GUARD + extra
        ctx = singular_modulus(rf, wprec)
        laurents = substitute_alpha(derivative_stack(nu), ctx)
        exps = sorted({e for L in laurents for e in L if e != 0}, reverse=True)
        with mp.workprec(wprec):
            # coefficient of K^e in each stack entry, 0 where it is absent
            coef = {e: [L[e].value if e in L else mpmath.mpf(0) for L in laurents]
                    for e in exps + [0]}
            M = mpmath.matrix([coef[e][1:] for e in exps])
            rhs = mpmath.matrix([-coef[e][0] for e in exps])
            # Rows that are dependent in exact arithmetic (nu=1, r=3) come out
            # dependent only up to round-off, which a solve would turn into
            # whatever A the round-off dictates; well-posed systems keep an
            # rcond that does not shrink with the precision.
            tiny = mpmath.mpf(2) ** (-(wprec // 2))
            rcond, sol = _solve(M, rhs) if len(exps) == n_unknown else (mpmath.mpf(0), None)
            if rcond < tiny:
                sv = mpmath.svd_r(M, compute_uv=False)
                rank = sum(1 for v in sv if v > max(sv) * tiny)
                raise DegenerateSystemError(
                    f"singular coefficient system at nu={nu}, r={rf}: numerical rank "
                    f"{rank} of {n_unknown}", rank=rank)
            lost = 1 - mpmath.mag(rcond)       # ceil(-log2 rcond), read off the exponent
        if extra or lost <= 6 * GUARD:
            break
        extra = lost
    with mp.workprec(wprec):
        a_coeffs = [mpmath.mpf(1)] + [sol[i] for i in range(n_unknown)]

        def combined(e):
            v = mpmath.mpf(0)
            for m in range(n_unknown + 1):
                v += a_coeffs[m] * coef[e][m]
            return v

        residual = max(abs(combined(e)) for e in exps)
        # K^0 coefficient; restoring (2/pi)^(4nu) and multiplying by pi^(2nu)
        # leaves g = c0 * 2^(4nu) / pi^(2nu)
        g = combined(0) * mpmath.mpf(2) ** (4 * nu) / pi_bits(wprec) ** (2 * nu)
        if residual >= mpmath.mpf(2) ** (-(prec - 48)):
            raise VerificationError(
                f"coefficient solve at nu={nu}, r={rf}: residual "
                f"{mpmath.nstr(residual, 8)} exceeds 2^-{prec - 48} "
                f"(rank {len(exps)})")
    return CoefficientSolution(
        r=rf,
        x=round_to(ctx.series_argument().value, prec),
        a_coeffs=tuple(round_to(v, prec) for v in a_coeffs),
        g=round_to(g, prec),
        residual=round_to(residual, prec),
        rcond=round_to(rcond, prec),
    )
