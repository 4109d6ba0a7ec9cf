"""Elliptic kernel: AGM, complete integrals, nome, thetas, singular moduli.

Conventions. Every operation takes the *modulus* k, never the parameter
m = k^2 (software libraries that write EllipticK[m] expect m; here
``ell_k(k, prec)`` corresponds to EllipticK[k^2]), and its precision
``prec`` in bits. The complementary modulus is k' = sqrt(1 - k^2). The
singular modulus k_r is the unique k in (0,1) with K(k')/K(k) = sqrt(r); it
is computed from theta constants at the nome q = exp(-pi*sqrt(r)).

Error model. Each operation carries guard bits beyond the requested
precision, so a returned BigReal at ``prec`` bits is accurate to a few ulps:
2^(-prec+4) for agm, 2^(-prec+8) for K, E and the q-series. agm, K and E
run through the package's one AGM loop, ``bigreal._agm``, which stops at a
relative gap of 2^(-prec) for agm and 2^(-prec-8) for K and E; one pass of
it on (1, k') gives both K = pi/(2M) and E = K (1 - S) from its side sum S.
The q-series all go through one fixed-point theta-series kernel, ``_q_series``,
that keeps its relative accuracy up to q -> 1. Doubling ``prec`` must
reproduce any result to within 2^(-prec+8); the test suite enforces this.

All values are immutable after construction and all operations are pure
functions of their inputs, so contexts can be shared and evaluated in
parallel. ``singular_modulus`` builds each context once per r and 64-bit
precision bucket, keeps its values unrounded and serves every request in the
bucket by rounding them once; that store and the per-precision pi cache fill
idempotently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .bigreal import BigReal, _agm, as_fraction, mpf_of, pi_bits, round_to, sqrt_mpf
from .errors import DomainError, InsufficientPrecisionError

GUARD = 8

# headroom added on top of the strict underflow bound in precision hints
MINIMUM_HEADROOM = 64


def agm(a, b, prec: int) -> BigReal:
    """Common limit of the arithmetic-geometric iteration of (a, b).

    Terminates once |a_n - b_n| < 2^(-prec) * a_n; quadratic convergence
    makes the returned midpoint accurate to 2^(-prec+4). Requires a, b > 0.
    """
    wprec = prec + GUARD
    with mp.workprec(wprec):
        av, bv = mpf_of(a, wprec), mpf_of(b, wprec)
        if av <= 0 or bv <= 0:
            raise DomainError("agm requires positive arguments")
        out, _ = _agm(av, bv, mpmath.ldexp(1, -prec), 0)
    return round_to(out, prec)


def _ell_ke(k, prec) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(K(k), E(k)) from one AGM of (1, k'): K = pi/(2M), E = K (1 - S).

    S is the AGM side sum started at its c_0 = k term, k^2/2 (Legendre).
    Both are unrounded mpfs at prec + 2 GUARD bits, accurate to 2^(-prec+8)
    once rounded to ``prec``; requires 0 <= k < 1. Raises
    InsufficientPrecisionError when k' rounds to 0 at the working precision.
    """
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        kv = mpf_of(k, wprec)
        if kv < 0 or kv >= 1:
            raise DomainError(f"modulus must satisfy 0 <= k < 1, got {mpmath.nstr(kv, 8)}")
        kpv = sqrt_mpf(1 - kv * kv)
        if kpv == 0:
            # k' ~ sqrt(2 (1 - k)) needs about -log2(1 - k) bits to resolve
            lost = -mpmath.mag(1 - kv)
            raise InsufficientPrecisionError(
                f"k' = sqrt(1 - k^2) rounds to 0 at {prec} bits (1 - k < 2^-{lost})",
                required_bits=lost + MINIMUM_HEADROOM)
        m, side = _agm(mpmath.mpf(1), kpv, mpmath.ldexp(1, -(prec + GUARD)), kv * kv / 2)
        big_k = pi_bits(wprec) / (2 * m)
        big_e = big_k * (1 - side)
    return big_k, big_e


def ell_k(k, prec: int) -> BigReal:
    """Complete elliptic integral of the first kind, K(k) = pi/(2 agm(1, k')).

    Modulus convention: equals EllipticK[k^2] in parameter-based libraries.
    Accurate to 2^(-prec+8); requires 0 <= k < 1.
    """
    return round_to(_ell_ke(k, prec)[0], prec)


def ell_e(k, prec: int) -> BigReal:
    """Complete elliptic integral of the second kind via the AGM side sum.

    E = K * (1 - sum_{n>=0} 2^(n-1) c_n^2) where c_n are the AGM difference
    terms of agm(1, k') and c_0 = k. Accurate to 2^(-prec+8).
    """
    return round_to(_ell_ke(k, prec)[1], prec)


def nome(r, prec: int) -> BigReal:
    """The nome q = exp(-pi*sqrt(r)) for rational r > 0, accurate to 2^(-prec+4)."""
    rf = as_fraction(r)
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        sr = sqrt_mpf(mpf_of(rf, wprec))
        out = mpmath.exp(-pi_bits(wprec) * sr)
    return round_to(out, prec)


def _q_series(qv: mpmath.mpf, a: int, b: int, sign: int, prec: int, deriv: bool = False):
    """S = sum_{n in Z} sign^n q^e(n), e(n) = (a n^2 + b n)/2; D = q dS/dq if ``deriv``.

    Needs a >= |b| with a + b even, so e(n) >= 0 and the largest term of S is 1.
    Each side runs outward from n = 0 by ratios (q^e *= q^gap, q^gap *= q^a)
    and stops at the first term (of D with ``deriv``) below 2^(-prec-GUARD)
    once e > 0; the ratios shrink, so the tail is a small multiple of that
    term unless q is within about 1e-8 of 1. Near q = 1 the sums cancel
    (f(-0.99) ~ 2e-70): the bits lost against the largest term, read off the
    exponents, are won back by one pass with that many extra bits. Returns
    (S, D) at the ambient precision plus those bits; D = 0 without ``deriv``.

    Each pass sums in integer fixed point with F = pass precision + GUARD
    fraction bits (with ``deriv``, GUARD more and the bits q^gap lacks below 1,
    so D keeps its relative accuracy). q^n comes by binary powering from q
    truncated exactly; t *= g and g *= q^a are short products, each operand
    truncated to the bits that reach the unit 2^-F, so the integers shrink
    with the terms and each product errs by under 3 units of 2^-F.
    """
    gaps = ((a + b) // 2, (a - b) // 2)
    dbits = GUARD + max(0, -mpmath.mag(qv)) * min(g for g in gaps if g) if deriv and qv else 0
    base, extra = mp.prec, 0
    while True:
        f = base + extra + GUARD + dbits
        q = int(mpmath.ldexp(qv, f))

        def power(n):
            out, x = 1 << f, q
            while n:
                out, x, n = out * x >> f if n & 1 else out, x * x >> f if n > 1 else x, n >> 1
            return out

        eps = 1 << max(0, f - prec - GUARD - extra)
        qa = power(a)
        la = qa.bit_length()
        s, d, top = 1 << f, 0, 0
        for gap in gaps:
            t, g, e, sg = power(gap), power(gap + a), gap, sign
            while True:
                s = s + t if sg > 0 else s - t
                if deriv:
                    et = e * t
                    d, top = d + sg * et, max(top, et)
                if e and (et if deriv else t) < eps:
                    break
                lt, lg = min(t.bit_length(), f), g.bit_length()  # t = 1 only at theta2's e = 0
                if lt + lg <= f:           # every later term is below one unit
                    break
                t = (t >> (f - lg)) * (g >> (f - lt)) >> (lt + lg - f)
                g = (g >> (f - la)) * (qa >> (f - lg)) >> (lg + la - f) if lg + la > f else 0
                e, gap, sg = e + gap + a, gap + a, sg * sign
        lost = max(m - x.bit_length() if x else base + extra
                   for m, x in ((f + 1, s), (top.bit_length(), d)) if m)
        if lost <= extra + GUARD:
            with mp.workprec(base + extra):
                return mpmath.mpf((s, -f)), mpmath.mpf((d, -f))
        extra = lost


def _theta(q, prec, a, b, sign) -> BigReal:
    # theta3/theta4 = S(2, 0, +-1); theta2 = q^(1/4) S(2, 2, +1); f(-q) = S(3, -1, -1)
    wprec = prec + 2 * GUARD
    with mp.workprec(wprec):
        qv = mpf_of(q, wprec)
        if qv < 0 or qv >= 1:
            raise DomainError(f"nome must satisfy 0 <= q < 1, got {mpmath.nstr(qv, 8)}")
        s, _ = _q_series(qv, a, b, sign, prec)
        out = mpmath.root(qv, 4) * s if (a, b) == (2, 2) else s
    return round_to(out, prec)


def theta2(q, prec: int) -> BigReal:
    """theta_2(q) = 2 sum_{n>=0} q^((n+1/2)^2), accurate to 2^(-prec+8)."""
    return _theta(q, prec, 2, 2, 1)


def theta3(q, prec: int) -> BigReal:
    """theta_3(q) = 1 + 2 sum_{n>=1} q^(n^2), accurate to 2^(-prec+8)."""
    return _theta(q, prec, 2, 0, 1)


def theta4(q, prec: int) -> BigReal:
    """theta_4(q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2), accurate to 2^(-prec+8)."""
    return _theta(q, prec, 2, 0, -1)


def eta_f(q, prec: int) -> BigReal:
    """Euler product f(-q) = prod_{n>=1} (1 - q^n) for 0 <= q < 1.

    Summed as Euler's pentagonal series sum_{n in Z} (-1)^n q^(n(3n-1)/2),
    accurate to 2^(-prec+8) relative on the whole domain.
    """
    return _theta(q, prec, 3, -1, -1)


@dataclass(frozen=True)
class ModulusContext:
    """Per-r evaluation bundle: nome, singular modulus, complement, K and E.

    Invariants (enforced to working accuracy by construction and rechecked
    by the test suite): 0 < k < 1, k^2 + kprime^2 = 1 within 2^(-prec+8),
    and the defining property K(kprime)/K(k) = sqrt(r) within 2^(-prec+16).
    ``prec`` is read from k; all five values are rounded to it.
    """

    r: Fraction
    q: BigReal
    k: BigReal
    kprime: BigReal
    big_k: BigReal
    big_e: BigReal

    @property
    def prec(self) -> int:
        return self.k.prec

    def sqrt_r(self) -> BigReal:
        with mp.workprec(self.prec + GUARD):
            v = sqrt_mpf(mpf_of(self.r, self.prec + GUARD))
        return round_to(v, self.prec)

    def defining_residual(self) -> BigReal:
        """|K(k')/K(k) - sqrt(r)|, the residual of the defining equation."""
        kk = ell_k(self.kprime, self.prec)
        with mp.workprec(self.prec + GUARD):
            v = abs(kk.value / self.big_k.value - self.sqrt_r().value)
        return round_to(v, self.prec)

    def series_argument(self) -> BigReal:
        """x = 4 k^2 k'^2, the argument of the associated hypergeometric series."""
        with mp.workprec(self.prec + GUARD):
            v = 4 * self.k.value ** 2 * self.kprime.value ** 2
        return round_to(v, self.prec)


def singular_modulus(r, prec: int) -> ModulusContext:
    """The ModulusContext for rational r > 0 at ``prec`` bits.

    Its values are built once per r and 64-bit precision bucket, by
    ``_context`` at ``prec`` rounded up to a multiple of 64, and kept
    unrounded for the process (``_context.cache_clear()`` empties the store);
    each request rounds them to ``prec`` once. Raises DomainError for r <= 0,
    and InsufficientPrecisionError when k_s^2 (s = max(r, 1/r)) underflows
    below one ulp of 1 at the *requested* precision: then k'_s would round
    to exactly 1 and K(k'_s) would be indistinguishable from a pole. The
    error carries a sufficient precision estimate instead of returning a
    silent zero. No error is stored.
    """
    rf = as_fraction(r)
    values = _context(rf, -(-prec // 64) * 64)
    with mp.workprec(prec + 4 * GUARD):
        kv = values[1 if rf >= 1 else 2]  # k_s: k_r for r >= 1, k'_r below
        if kv == 0 or (1 - kv * kv) == 1:
            # k_s ~ 4 exp(-pi sqrt(s)/2), so k_s^2 needs about pi*sqrt(s)/ln 2 bits
            s = max(rf, 1 / rf)
            need = math.ceil(math.pi * math.sqrt(float(s)) / math.log(2)) + MINIMUM_HEADROOM
            raise InsufficientPrecisionError(
                f"singular modulus k_r indistinguishable from {0 if rf >= 1 else 1} "
                f"at {prec} bits for r={rf}",
                required_bits=need,
            )
    return ModulusContext(rf, *(round_to(v, prec) for v in values))


@functools.lru_cache(maxsize=None)
def _context(rf: Fraction, prec: int) -> tuple[mpmath.mpf, ...]:
    """(q, k, k', K, E) for r = rf, unrounded, good to 2^(-prec+8) once rounded.

    k_s = theta2(q)^2/theta3(q)^2 with q = exp(-pi*sqrt(s)) and s = max(r, 1/r).
    For r >= 1, k_r = k_s; for r < 1, k_r = k'_s and k'_r = k_s, and
    K[r] = K[s]/sqrt(r) with E[r] from Legendre's relation
    E K' + E' K - K K' = pi/2, so that neither k' nor K is ever derived from
    a k near 1, where sqrt(1 - k^2) cancels.
    """
    s = max(rf, 1 / rf)
    wprec = prec + 4 * GUARD
    qs = nome(s, wprec).value
    with mp.workprec(wprec):
        s2, _ = _q_series(qs, 2, 2, 1, wprec)
        s3, _ = _q_series(qs, 2, 0, 1, wprec)
        kv = sqrt_mpf(qs) * (s2 / s3) ** 2
        kpv = sqrt_mpf(1 - kv * kv)
    if rf >= 1:
        return (qs, kv, kpv, *_ell_ke(round_to(kv, wprec), prec))
    ks, es = (round_to(v, wprec).value for v in _ell_ke(round_to(kv, wprec), wprec))
    with mp.workprec(wprec):
        kr = ks / sqrt_mpf(mpf_of(rf, wprec))
        er = (pi_bits(wprec) / 2 + kr * (ks - es)) / ks
    return nome(rf, wprec).value, kpv, kv, kr, er


def dk_dk(ctx: ModulusContext) -> BigReal:
    """dK/dk evaluated on a context: E/(k(1-k^2)) - K/k."""
    with mp.workprec(ctx.prec + GUARD):
        kv = ctx.k.value
        v = ctx.big_e.value / (kv * (1 - kv * kv)) - ctx.big_k.value / kv
    return round_to(v, ctx.prec)

