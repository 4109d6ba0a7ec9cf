"""Catalog of published reference values and their replay.

Four published series (one 1/pi^4, three 1/pi^6) are stored verbatim as
exact quadratic surds a + b*sqrt(d) and replayed against their published
right sides at any precision. Notes on the stored forms:

* the 1/pi^4 series at r=2 is published with an integer normalization
  (constant bracket term 462719 instead of 1); the catalog keeps the
  published scaling and the right side absorbs it.
* the 1/pi^6 series at r=2 is published with summation starting at n=1,
  but its right side equals the sum taken from n=0 (the bracket's constant
  term contributes exactly 1 at n=0 and the published index is off by one).
  ``n_start_effective`` records the reading that verifies; the replay test
  pins the failure of the literal reading.

The Y table (ten closed-form values at arguments s = r/5) and the composite
r = 68 = 4*17 factorization example complete the battery. In the published
form of that example the roles of Y(68/5) and Y(17/5) are swapped; the
verifying orientation is Y(68/5) * (sqrt(x+4) - sqrt(x))/2 = Y(17/5), and
``r68_identity_residual`` checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
from mpmath import mp

from .bigreal import BigReal, decimal_digits, mpf_of, pi_bits, round_to, sqrt_mpf
from .elliptic import GUARD
from .errors import DomainError
from .rr import y_value
from .series import SeriesSpec, VerificationReport, verify


@dataclass(frozen=True)
class QuadSurd:
    """Exact a + b*sqrt(d) with rational a, b and squarefree integer d."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def eval(self, prec: int) -> BigReal:
        with mp.workprec(prec + GUARD):
            v = mpf_of(self.a, prec + GUARD)
            if self.b:
                v += mpf_of(self.b, prec + GUARD) * sqrt_mpf(mpmath.mpf(self.d))
        return round_to(v, prec)


def _q(a, b=0, d=1) -> QuadSurd:
    return QuadSurd(Fraction(a), Fraction(b), d)


@dataclass(frozen=True)
class PublishedSeries:
    """One published series: sum c_{2nu}(n) x^n B(n) = rhs_num/(rhs_den * pi^(2nu))."""

    label: str
    nu: int
    r: Fraction
    x: QuadSurd
    bracket: tuple[QuadSurd, ...]
    rhs_num: Fraction
    rhs_den: QuadSurd
    n_start_printed: int
    n_start_effective: int
    default_terms: int

    def to_spec(self, prec: int) -> SeriesSpec:
        xv = self.x.eval(prec)
        bracket = tuple(b.eval(prec) for b in self.bracket)
        # g such that the sum equals g/pi^(2nu); for the published data this
        # is rhs_num/rhs_den (already in the published normalization)
        with mp.workprec(prec + GUARD):
            g = mpf_of(self.rhs_num, prec + GUARD) / self.rhs_den.eval(prec + GUARD).value
        return SeriesSpec(nu=self.nu, r=self.r, x=xv, bracket=bracket, g=round_to(g, prec),
                          provenance="published", n_start=self.n_start_effective, label=self.label)

    def rhs_value(self, prec: int) -> BigReal:
        """Published right side rhs_num/(rhs_den * pi^(2nu))."""
        with mp.workprec(prec + GUARD):
            v = (mpf_of(self.rhs_num, prec + GUARD)
                 / self.rhs_den.eval(prec + GUARD).value
                 / pi_bits(prec + GUARD) ** (2 * self.nu))
        return round_to(v, prec)


_D1 = 12623771801
_D2 = 293049243769

PI4_R2 = PublishedSeries(
    label="pi4_r2",
    nu=2,
    r=Fraction(2),
    x=_q(-56, 40, 2),
    bracket=(
        _q(462719),
        _q(5 * 292072, 5 * 56267, 2),
        _q(6 * 268641, 6 * 81580, 2),
        _q(4 * 134444, 4 * 32155, 2),
        _q(-4 * 36209, -4 * 34800, 2),
    ),
    rhs_num=Fraction(-48585495),
    rhs_den=_q(-229441, 162240, 2),
    n_start_printed=0,
    n_start_effective=0,
    default_terms=140,
)

PI6_R2 = PublishedSeries(
    label="pi6_r2",
    nu=3,
    r=Fraction(2),
    x=_q(-56, 40, 2),
    bracket=(
        _q(1),
        _q(Fraction(28335508172, _D1), Fraction(-240070543, _D1), 2),
        _q(Fraction(22911684702, _D1), Fraction(-3047538900, _D1), 2),
        _q(Fraction(6110502200, _D1), Fraction(-5456734120, _D1), 2),
        _q(Fraction(-1196112280, _D1), Fraction(-3649618320, _D1), 2),
        _q(Fraction(-505494672, _D1), Fraction(-788011092, _D1), 2),
        _q(Fraction(463408744, 3 * _D1), Fraction(244639040, 3 * _D1), 2),
    ),
    rhs_num=Fraction(3465),
    rhs_den=_q(629823301, -445352320, 2),
    n_start_printed=1,
    n_start_effective=0,
    default_terms=120,
)

PI6_R7 = PublishedSeries(
    label="pi6_r7",
    nu=3,
    r=Fraction(7),
    x=_q(Fraction(1, 64)),
    bracket=(
        _q(1),
        _q(Fraction(913150, 307323)),
        _q(Fraction(-75313, 102441)),
        _q(Fraction(-4998980, 307323)),
        _q(Fraction(-1126755, 34147)),
        _q(Fraction(-1080450, 34147)),
        _q(Fraction(-453789, 34147)),
    ),
    rhs_num=Fraction(-14417920, 34147),
    rhs_den=_q(1),
    n_start_printed=0,
    n_start_effective=0,
    default_terms=40,
)

PI6_R15 = PublishedSeries(
    label="pi6_r15",
    nu=3,
    r=Fraction(15),
    x=_q(Fraction(47, 128), Fraction(-21, 128), 5),
    bracket=(
        _q(1),
        _q(Fraction(2877117109830, _D2), Fraction(924178552332, _D2), 5),
        _q(Fraction(15689590644975, _D2), Fraction(6660423786240, _D2), 5),
        _q(Fraction(51863088153600, _D2), Fraction(23066524139820, _D2), 5),
        _q(Fraction(106483989569175, _D2), Fraction(47630637457200, _D2), 5),
        _q(Fraction(130261549416750, _D2), Fraction(58266415341540, _D2), 5),
        _q(Fraction(75619648012725, _D2), Fraction(33817435224300, _D2), 5),
    ),
    rhs_num=Fraction(20185088),
    rhs_den=_q(11556387, -5162500, 5),
    n_start_printed=0,
    n_start_effective=0,
    default_terms=25,
)

PUBLISHED_SERIES = (PI4_R2, PI6_R2, PI6_R7, PI6_R15)


def published_by_label(label: str) -> PublishedSeries:
    for s in PUBLISHED_SERIES:
        if s.label == label:
            return s
    raise DomainError(f"unknown published series {label!r}")


def perturbed(entry: PublishedSeries, j: int) -> PublishedSeries:
    """Copy of ``entry`` with the rational part of bracket coefficient j
    shifted by 1 in its published integer numeration (sentinel for the
    sensitivity test)."""
    b = list(entry.bracket)
    old = b[j]
    b[j] = QuadSurd(old.a + 1, old.b, old.d)
    return replace(entry, bracket=tuple(b), label=entry.label + "-corrupted")


def replay_published(prec: int) -> list[VerificationReport]:
    """Verify every published series against its published right side.

    When the working precision cannot hold a series' default term count's
    digits, the count is scaled down so the digit target degrades
    proportionally with precision.
    Each report compares the partial sum with rhs/(pi^(2nu)) where pi is
    the library's AGM-computed value; the test suite repeats the comparison
    with an independently computed pi.
    """
    out = []
    capacity = decimal_digits(prec)
    for entry in PUBLISHED_SERIES:
        spec = entry.to_spec(prec)
        n = min(entry.default_terms, max(4, int((capacity - 14) / spec.dpt())))
        out.append(verify(spec, n, prec, target=entry.rhs_value(prec)))
    return out


# ---------------------------------------------------------------------------
# Y-value table at arguments s = r/5 and the r = 68 composite example
# ---------------------------------------------------------------------------


# Y(s) = m (a + b sqrt(d) + c sqrt(f (g + h sqrt(d)))), one row (s, m, a, b, d, c, f, g, h)
# per argument; every m is an odd integer over a power of two, so scaling by
# it rounds once
Y_CLOSED_FORMS = (
    (Fraction(1, 5), Fraction(5, 8), 0, 1, 5, 0, 0, 0, 0),
    (Fraction(2, 5), Fraction(5, 8), 5, 2, 5, 0, 0, 0, 0),
    (Fraction(3, 5), Fraction(5, 16), 25, 11, 5, 0, 0, 0, 0),
    (Fraction(4, 5), Fraction(5, 16), 25, 13, 5, 5, 1, 58, 26),
    (Fraction(1), Fraction(125, 8), 2, 1, 5, 0, 0, 0, 0),
    (Fraction(6, 5), Fraction(5, 8), 50, 35, 2, 3, 5, 99, 70),
    (Fraction(9, 5), Fraction(5, 8), 225, 104, 5, 10, 1, 1047, 468),
    (Fraction(12, 5), Fraction(5, 16), 1690, 975, 3, 29, 1, 6755, 3900),
    (Fraction(14, 5), Fraction(5, 8), 1850, 585, 10, 7, 5, 27379, 8658),
    (Fraction(17, 5), Fraction(5, 8), 5360, 585, 85, 4, 1, 3613670, 391950),
)


def _nested_radical(row, prec: int) -> BigReal:
    """m (a + b sqrt(d) + c sqrt(f (g + h sqrt(d)))) for row = (m, a, b, d, c, f, g, h)."""
    m, a, b, d, c, f, g, h = row
    with mp.workprec(prec + GUARD):
        sd = sqrt_mpf(mpmath.mpf(d))
        v = a + b * sd + c * sqrt_mpf(f * (g + h * sd))
        return round_to(mpf_of(m, prec + GUARD) * v, prec)


def y_closed_form(s: Fraction, prec: int) -> BigReal:
    for arg, *row in Y_CLOSED_FORMS:
        if arg == s:
            return _nested_radical(row, prec)
    raise DomainError(f"no closed form catalogued for Y({s})")


def y_table_residuals(prec: int) -> dict:
    """|computed Y(s) - closed form| for every catalogued argument."""
    out = {}
    for s, *_ in Y_CLOSED_FORMS:
        computed = y_value(s, prec)
        closed = y_closed_form(s, prec)
        with mp.workprec(prec + GUARD):
            out[s] = round_to(abs(computed.value - closed.value), prec)
    return out


# published integers of the r = 68 = 4*17 example as a row of the Y table's form
R68 = (1, 2891581250, 313636050, 85, 12960, 1, 99557521554, 10798529365)


def r68_radical(prec: int) -> BigReal:
    """x = a1 + b1 sqrt(85) + c sqrt(a2 + b2 sqrt(85)), R68 = (1, a1, b1, 85, c, 1, a2, b2)."""
    return _nested_radical(R68, prec)


def r68_identity_residual(prec: int) -> BigReal:
    """Residual of Y(68/5) * (sqrt(x+4) - sqrt(x))/2 = Y(17/5).

    This is the verifying orientation of the published factorization (see
    the module docstring); the reciprocal conjugate (sqrt(x+4)+sqrt(x))/2
    relates the two Y values the other way around.
    """
    y68 = y_value(Fraction(68, 5), prec + 2 * GUARD)
    y17 = y_closed_form(Fraction(17, 5), prec + 2 * GUARD)
    x = r68_radical(prec + 2 * GUARD)
    with mp.workprec(prec + 2 * GUARD):
        u = (sqrt_mpf(x.value + 4) - sqrt_mpf(x.value)) / 2
        resid = abs(y68.value * u - y17.value)
    return round_to(resid, prec)
