"""Arbitrary-precision reals with an explicit precision tag.

BigReal wraps an mpmath ``mpf`` together with the working precision (in bits)
it was produced at. Arithmetic between two BigReals is carried out at the
maximum of the operand precisions; mixing with int/Fraction promotes the
exact operand to the BigReal's precision. All higher modules route their
numerics through this type so that every result carries its own accuracy
contract (kernel operations document their error bound relative to ``prec``).

The package's one AGM loop, ``_agm``, lives here: it returns agm(a, b)
together with the Gauss-Legendre side sum, which gives pi (``pi_bits``),
and through ``elliptic`` agm, K and E. pi is built only when a request is
wider than the widest pi built so far, and every precision is rounded once
from that one value and cached; each call rounds the value it read or built,
so concurrent fills are safe. ``sqrt_mpf`` is the package's one square
root: mpmath's correctly rounded root, bit for bit, with the integer root
taken by ``math.isqrt``; ``mpf_of`` is its one rational-to-mpf conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from .errors import DomainError

MIN_PREC = 64


def as_fraction(r) -> Fraction:
    """The rational r > 0 from an int, Fraction or 'p/q' string: the package's one
    check of r. Bad text or r <= 0 raise DomainError, a float raises TypeError."""
    if isinstance(r, str):
        try:
            r = Fraction(r.strip())
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse rational {r!r}") from None
    elif not isinstance(r, (int, Fraction)):
        raise TypeError(f"expected a rational (int, Fraction, or 'p/q' string), got {r!r}")
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    return Fraction(r)


def _check_prec(prec: int) -> int:
    """``prec`` as an int, the package's one precision floor: DomainError below 64 bits."""
    prec = int(prec)
    if prec < MIN_PREC:
        raise DomainError(f"precision must be >= {MIN_PREC} bits, got {prec}")
    return prec


def sqrt_mpf(x: mpmath.mpf) -> mpmath.mpf:
    """The square root of an mpf x >= 0 as ``mpmath.sqrt`` gives it, correctly
    rounded at the ambient precision. The package's one square root.

    It takes the steps of mpmath's ``mpf_sqrt`` and so returns the same bits,
    with the integer root from ``math.isqrt`` (C) in place of mpmath's
    pure-Python Newton loop. An odd exponent moves one bit into the mantissa;
    a mantissa of 1 with an even exponent is a power of 4 with an exact root.
    Otherwise the mantissa is shifted by max(4, 2 prec - bc + 4) bits, made
    even, and its integer root taken; a nonzero remainder perturbs the root up
    by half a unit (2 root + 1 at 2 more bits of shift) before the rounding to
    nearest.
    """
    sign, man, exp, bc = x._mpf_
    if sign:
        raise ValueError("square root of a negative number")
    if not man:
        return x
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    elif man == 1:
        return mp.make_mpf((0, 1, exp // 2, 1))
    prec = mp.prec
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root, shift = 2 * root + 1, shift + 2
    return mp.make_mpf(libmp.from_man_exp(root, (exp - shift) // 2, prec, libmp.round_nearest))


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
        a, b = (a + b) / 2, sqrt_mpf(a * b)
        p *= 2
    return (a + b) / 2, side


@functools.lru_cache(maxsize=None)
def _widest_pi() -> list:
    """[bits, pi] for the widest pi built so far, held unrounded at bits + 32
    and good to 2^(-bits-16); empty until the first build. One entry, replaced
    by each wider build; ``cache_clear`` empties it."""
    return []


@functools.lru_cache(maxsize=None)
def pi_bits(prec: int) -> mpmath.mpf:
    """pi to ``prec`` bits, rounded once from the widest pi built so far.

    A request above it builds pi at ``bits`` = 256 plus ``prec`` rounded up
    to a multiple of 256, so the prec + 8 to prec + 112 bits that one level
    of the package asks for share a build. The build is Gauss-Legendre:
    pi = M^2/(1/4 - S) for (M, S) = _agm(1, 1/sqrt(2)), Legendre's relation
    at k = 1/sqrt(2), run at bits + 32 and stopped at 2^(-bits-16). Kept
    independent of mpmath's builtin pi, which the test suite uses as a
    cross-check oracle; rounded to every prec from 64 to 9,216 bits the two
    agree.
    """
    prec = _check_prec(prec)
    widest = _widest_pi()
    bits, value = widest or (0, None)
    if bits < prec:
        bits = -(-prec // 256) * 256 + 256
        with mp.workprec(bits + 32):
            m, s = _agm(mpmath.mpf(1), 1 / sqrt_mpf(mpmath.mpf(2)),
                        mpmath.ldexp(1, -(bits + 16)), 0)
            value = m * m / (mpmath.mpf(1) / 4 - s)
        widest[:] = bits, value
    with mp.workprec(prec):
        return +value


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
            return BigReal(sqrt_mpf(self.value), self.prec)

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
