"""Arbitrary-precision reals with an explicit precision tag.

BigReal wraps an mpmath ``mpf`` together with the working precision (in bits)
it was produced at. Arithmetic between two BigReals is carried out at the
maximum of the operand precisions; mixing with int/Fraction promotes the
exact operand to the BigReal's precision. All higher modules route their
numerics through this type so that every result carries its own accuracy
contract (kernel operations document their error bound relative to ``prec``).

The package's one AGM loop, ``_agm``, lives here: it returns agm(a, b)
together with the Gauss-Legendre side sum, which gives pi (``pi_bits``),
and through ``elliptic`` agm, K and E. pi is computed once per precision
and cached; the cache is read-mostly and idempotent, so concurrent fills
are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

MIN_PREC = 64


def as_fraction(r) -> Fraction:
    """Coerce ``r`` (int, Fraction, or 'p/q' string) to an exact Fraction."""
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, str):
        return Fraction(r.strip())
    raise TypeError(f"expected a rational (int, Fraction, or 'p/q' string), got {r!r}")


def _check_prec(prec: int) -> int:
    prec = int(prec)
    if prec < MIN_PREC:
        raise ValueError(f"precision must be >= {MIN_PREC} bits, got {prec}")
    return prec


def _agm(a, b, eps, side):
    """(M, S) at the ambient precision: M = agm(a, b) and
    S = side + sum_{n>=1} 2^(n-1) c_n^2 with c_n = (a_{n-1} - b_{n-1})/2.

    The one AGM loop of the package; it stops once |a_n - b_n| < eps * a_n.
    Convergence is quadratic (the correct bits double per step), so M is
    then accurate to a few units of eps.
    """
    p = 1
    while abs(a - b) >= eps * a:
        c = (a - b) / 2
        side += p * c * c
        a, b = (a + b) / 2, mpmath.sqrt(a * b)
        p *= 2
    return (a + b) / 2, side


@functools.lru_cache(maxsize=None)
def pi_bits(prec: int) -> mpmath.mpf:
    """pi to ``prec`` bits by Gauss-Legendre: pi = M^2/(1/4 - S) for
    (M, S) = _agm(1, 1/sqrt(2)), Legendre's relation at k = 1/sqrt(2).

    Runs at prec + 32 bits and stops at 2^(-prec-16). Kept independent of
    mpmath's builtin pi, which the test suite uses as a cross-check oracle.
    """
    prec = _check_prec(prec)
    with mp.workprec(prec + 32):
        m, s = _agm(mpmath.mpf(1), 1 / mpmath.sqrt(2), mpmath.ldexp(1, -(prec + 16)), 0)
        approx = m * m / (mpmath.mpf(1) / 4 - s)
    with mp.workprec(prec):
        return +approx


@dataclass(frozen=True)
class BigReal:
    """An arbitrary-precision real: an exact binary float plus its precision tag."""

    value: mpmath.mpf
    prec: int

    def __post_init__(self):
        _check_prec(self.prec)

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(x, prec: int) -> "BigReal":
        """Build a BigReal at ``prec`` bits from an int, Fraction, str, mpf, or BigReal."""
        return round_to(mpf_of(x, prec), prec)

    @staticmethod
    def pi(prec: int) -> "BigReal":
        return BigReal(pi_bits(prec), _check_prec(prec))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "BigReal | None":
        if isinstance(other, BigReal):
            return other
        if isinstance(other, (int, Fraction)):
            return BigReal.of(other, self.prec)
        return None

    def _bin(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.prec, o.prec)
        with mp.workprec(p):
            return BigReal(op(self.value, o.value), p)

    def __add__(self, other):
        return self._bin(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._bin(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._bin(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._bin(other, lambda a, b: b / a)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        with mp.workprec(self.prec):
            return BigReal(self.value ** n, self.prec)

    def __neg__(self):
        with mp.workprec(self.prec):
            return BigReal(-self.value, self.prec)

    def __abs__(self):
        with mp.workprec(self.prec):
            return BigReal(abs(self.value), self.prec)

    def sqrt(self) -> "BigReal":
        with mp.workprec(self.prec):
            return BigReal(mpmath.sqrt(self.value), self.prec)

    # -- comparisons (exact on the underlying binary values) ----------------

    def _cmp_val(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        return o.value

    def __lt__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.value < v

    def __le__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.value <= v

    def __gt__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.value > v

    def __ge__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.value >= v

    def __eq__(self, other):
        if isinstance(other, BigReal):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self._coerce(other).value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    # -- conversions ---------------------------------------------------------

    def __float__(self):
        return float(self.value)

    def to_decimal(self, digits: int | None = None) -> str:
        """Decimal string with ``digits`` significant digits (default: full prec)."""
        if digits is None:
            digits = decimal_digits(self.prec)
        with mp.workprec(self.prec + 16):
            return mpmath.nstr(self.value, digits, strip_zeros=False)

    def __repr__(self):
        return f"BigReal({mpmath.nstr(self.value, 20)}, prec={self.prec})"


def decimal_digits(prec: int) -> int:
    """Significant decimal digits representable at ``prec`` bits."""
    return int(prec * 0.30102999566398119) + 2


def round_to(value: mpmath.mpf, prec: int) -> BigReal:
    """Round a raw mpf (computed at higher working precision) down to ``prec`` bits."""
    with mp.workprec(_check_prec(prec)):
        return BigReal(+value, prec)


def mpf_of(x, prec: int) -> mpmath.mpf:
    """Unwrap to a raw mpf at ``prec`` bits (exact inputs converted at that precision)."""
    if isinstance(x, BigReal):
        return x.value
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)
