"""Independent oracle for piforge outputs, built on mpmath alone.

Nothing here imports piforge. Series sums are compared with g / pi^(2nu)
using ``mpmath.pi``; singular moduli and alpha values are recomputed from
Jacobi thetas at the nome exp(-pi sqrt(r)) and ``mpmath.ellipk`` /
``mpmath.ellipe`` on the parameter m = k^2.

A series sum passes when it matches the independent target to at least
0.9 * terms * dpt digits, or, where the polynomial growth of the terms makes
that rule too strict for a correct sum, when its error lies within a
majorant of the truncated tail. The majorant uses only facts any reader can
check: c_p(n) is a p-fold convolution of C(2n,n)^3/64^n <= 1, so
c_p(n) <= C(n+p-1, p-1), and |B(n)| <= sum_j |B_j| n^j.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp


def capacity(prec: int) -> int:
    """Significant decimal digits a ``prec``-bit value holds."""
    return int(prec * 0.30102999566398119) + 2


def _mpf(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def matched_digits(value, target, prec: int) -> float:
    """-log10(|value - target| / |target|), capped at the capacity of ``prec``."""
    with mp.workprec(prec + 32):
        err = abs(_mpf(value) - _mpf(target))
        if err == 0:
            return float(capacity(prec))
        return min(float(capacity(prec)), float(-mpmath.log10(err / abs(_mpf(target)))))


def series_argument(r: Fraction, prec: int) -> mpmath.mpf:
    """x_r = 4 k_r^2 k_r'^2, with k_r from theta constants."""
    with mp.workprec(prec + 32):
        m = _parameter(r)
        return 4 * m * (1 - m)


def dpt(r: Fraction) -> float:
    """Decimal digits gained per term of the series at r."""
    with mp.workprec(64):
        return float(-mpmath.log10(series_argument(r, 64)))


def _parameter(r: Fraction) -> mpmath.mpf:
    """m = k_r^2 = (theta2(q) / theta3(q))^4 at q = exp(-pi sqrt(r)), current precision."""
    q = mpmath.exp(-mpmath.pi * mpmath.sqrt(_mpf(r)))
    return (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4


def tail_majorant_digits(nu: int, n_stop: int, x, bracket, target, prec: int) -> float:
    """-log10 of (majorant of sum_{n >= n_stop} |c_2nu(n) x^n B(n)|) / |target|."""
    p = 2 * nu
    with mp.workprec(64):
        ax = abs(_mpf(x))
        bs = [abs(_mpf(b)) for b in bracket]

        def term(n):
            poly = sum(b * mpmath.mpf(n) ** j for j, b in enumerate(bs))
            return mpmath.binomial(n + p - 1, p - 1) * ax ** n * poly

        # sup_{m >= n} t_{m+1}/t_m <= rho(n), and rho falls towards |x| as n grows
        def rho(n):
            return ax * mpmath.mpf(n + p) / (n + 1) * (mpmath.mpf(n + 1) / n) ** p

        n = max(n_stop, 1)
        total = term(0) if n_stop == 0 else mpmath.mpf(0)
        limit = (1 + ax) / 2
        while rho(n) > limit:
            total += term(n)
            n += 1
        total += term(n) / (1 - rho(n))
        if total == 0:
            return float(capacity(prec))
        return float(-mpmath.log10(total / abs(_mpf(target))))


def _target(nu: int, g, prec: int):
    with mp.workprec(prec + 32):
        return _mpf(g) / mpmath.pi ** (2 * nu)


def series_threshold(nu: int, n_start: int, terms: int, x, bracket, g, prec: int) -> float:
    """Digits a correct ``terms``-term partial sum must match: the 0.9 rule or the majorant."""
    with mp.workprec(64):
        predicted = terms * float(-mpmath.log10(abs(_mpf(x))))
    majorant = tail_majorant_digits(nu, n_start + terms, x, bracket, _target(nu, g, prec), prec)
    return min(0.9 * predicted, majorant, capacity(prec) - 8)


def check_series(nu: int, n_start: int, terms: int, x, bracket, g, partial_sum,
                 prec: int) -> tuple[bool, float, float]:
    """(passed, matched digits, threshold digits) of a partial sum against g/pi^(2nu)."""
    matched = matched_digits(partial_sum, _target(nu, g, prec), prec)
    threshold = series_threshold(nu, n_start, terms, x, bracket, g, prec)
    return matched >= threshold, matched, threshold


def modulus_reference(r: Fraction, prec: int) -> dict:
    """k, k', K, E and the nome at r, each to ``prec`` bits plus guard."""
    with mp.workprec(prec + 32):
        m = _parameter(r)
        return {
            "k": mpmath.sqrt(m),
            "kprime": mpmath.sqrt(1 - m),
            "K": mpmath.ellipk(m),
            "E": mpmath.ellipe(m),
            "nome": mpmath.exp(-mpmath.pi * mpmath.sqrt(_mpf(r))),
        }


def alpha_reference(r: Fraction, prec: int) -> mpmath.mpf:
    """a(r) = pi/(4K^2) - sqrt(r)(E/K - 1)."""
    ref = modulus_reference(r, prec)
    with mp.workprec(prec + 32):
        big_k, big_e = ref["K"], ref["E"]
        return mpmath.pi / (4 * big_k ** 2) - mpmath.sqrt(_mpf(r)) * (big_e / big_k - 1)


def agrees(value, reference, prec: int, slack_bits: int = 24) -> bool:
    """|value - reference| <= 2^(slack - prec) * |reference|."""
    with mp.workprec(prec + 32):
        ref = _mpf(reference)
        return abs(_mpf(value) - ref) <= mpmath.ldexp(abs(ref), slack_bits - prec)


def check_modulus(r: Fraction, prec: int, doc: dict) -> bool:
    ref = modulus_reference(r, prec)
    return all(agrees(doc[key], ref[key], prec) for key in ref)


def check_alpha(r: Fraction, prec: int, values) -> bool:
    ref = alpha_reference(r, prec)
    return all(agrees(v, ref, prec, slack_bits=40) for v in values)

