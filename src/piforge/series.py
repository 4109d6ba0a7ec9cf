"""Series assembly, evaluation, and digit-level verification.

The coefficients c_p(n) are exact. For even p they are stored as the
integers N_p(n) = 64^n c_p(n), built by integer convolution from the base
sequence C(2n,n)^3:

    N_2 = base * base,    N_p = N_{p-2} * N_2,

so c_2(n) = 2^(-6n) sum_{s=0}^{n} C(2s,s)^3 C(2n-2s,n-s)^3 and c_p is the
p-fold convolution power of C(2n,n)^3/64^n. Rounding enters only in the
final accumulation of a partial sum, where each N_p(n) is rounded once to
the working precision and scaled exactly by 2^(-6n).

A SeriesSpec is a fully determined series

    sum_{n>=n_start} c_{2nu}(n) x^n B(n) = g / pi^(2nu),

with x = 4 (k_r k'_r)^2 and B the degree-2nu bracket polynomial obtained
from the solved A-coefficients by the falling-factorial-to-monomial
conversion (signed Stirling numbers of the first kind). Internally B_0 is
normalized to 1; published normalizations are handled by the catalog.

Evaluation accumulates in fixed-size chunks with a fixed reduction order,
so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

import mpmath
from mpmath import mp

from .bigreal import BigReal, as_fraction, decimal_digits, pi_bits, round_to
from .elliptic import GUARD, singular_modulus
from .errors import DomainError, InsufficientPrecisionError, NonConvergentSeriesError
from .symbolic import solve_coefficients

SCHEMA = "piforge/1"
_CHUNK = 32
# digits of terms past a partial sum that the tail majorant sums exactly
_WINDOW_DIGITS = 24


@functools.lru_cache(maxsize=None)
def _store(p: int) -> list[int]:
    """The list [N_p(0), N_p(1), ...] as filled so far; p = 1 holds C(2n,n)^3.

    One list per p, grown in order by ``_scaled``; ``cache_clear``
    empties the store.
    """
    return []


def _scaled(p: int, n: int) -> list[int]:
    """The integers N_p(m) = 64^m c_p(m) for m <= n (and any filled beyond)."""
    table = _store(p)
    if len(table) <= n:
        if p == 1:
            table.extend(comb(2 * m, m) ** 3 for m in range(len(table), n + 1))
        else:
            left = _scaled(1 if p == 2 else p - 2, n)
            right = _scaled(1 if p == 2 else 2, n)
            for m in range(len(table), n + 1):
                table.append(sum(map(mul, left[:m + 1], right[m::-1])))
    return table


def c2(n: int) -> Fraction:
    """c_2(n) = 2^(-6n) sum_s C(2s,s)^3 C(2n-2s,n-s)^3, exact."""
    return cp(2, n)


@functools.lru_cache(maxsize=None)
def cp(p: int, n: int) -> Fraction:
    """c_p(n) for even p >= 2, the p-fold convolution power of C(2n,n)^3/64^n."""
    if p % 2 != 0 or p < 2:
        raise DomainError(f"p must be a positive even integer, got {p}")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return Fraction(_scaled(p, n)[n], 64 ** n)


@functools.lru_cache(maxsize=None)
def stirling_first(m: int, j: int) -> int:
    """Signed Stirling numbers of the first kind: n^(m) = sum_j s(m,j) n^j."""
    if m == j == 0:
        return 1
    if m <= 0 or j < 0 or j > m:
        return 0
    return stirling_first(m - 1, j - 1) - (m - 1) * stirling_first(m - 1, j)


def bracket_from_a(a_coeffs, nu: int):
    """Convert falling-factorial coefficients A_m to monomial coefficients B_j:

        sum_m A_m n(n-1)...(n-m+1) = sum_j B_j n^j.

    Accepts any coefficients supporting + and * by int (BigReal, Fraction,
    mpf); returns the same kind. Requires len(a_coeffs) = 2nu + 1.
    """
    if len(a_coeffs) != 2 * nu + 1:
        raise DomainError(f"expected {2 * nu + 1} coefficients, got {len(a_coeffs)}")
    top = 2 * nu
    out = []
    for j in range(top + 1):
        acc = None
        for m in range(j, top + 1):
            s = stirling_first(m, j)
            if s == 0:
                continue
            term = a_coeffs[m] * s
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else a_coeffs[0] * 0)
    return out


@dataclass(frozen=True)
class SeriesSpec:
    """A fully determined series for 1/pi^(2nu) ready to evaluate."""

    nu: int
    r: Fraction
    x: BigReal
    bracket: tuple
    g: BigReal
    prec: int
    provenance: str = "solved"
    n_start: int = 0
    label: str = ""

    def __post_init__(self):
        if len(self.bracket) != 2 * self.nu + 1:
            raise DomainError(
                f"bracket needs {2 * self.nu + 1} coefficients, got {len(self.bracket)}")
        if abs(self.x.value) >= 1:
            raise NonConvergentSeriesError(
                f"series argument |x| = {mpmath.nstr(abs(self.x.value), 8)} >= 1")

    def dpt(self) -> float:
        """Decimal digits gained per term: -log10 |x|."""
        with mp.workprec(64):
            return float(-mpmath.log(abs(self.x.value), 10))

    def target(self, prec: int | None = None) -> BigReal:
        """g / pi^(2nu) at the requested precision (library pi)."""
        prec = self.prec if prec is None else prec
        with mp.workprec(prec + GUARD):
            v = self.g.value / pi_bits(prec + GUARD) ** (2 * self.nu)
        return round_to(v, prec)


def build_series(nu: int, r, prec: int) -> SeriesSpec:
    """Full pipeline: context, alpha, coefficient solve, bracket conversion."""
    rf = as_fraction(r)
    ctx = singular_modulus(rf, prec + 2 * GUARD)
    x = ctx.series_argument()
    if abs(x.value) >= 1:
        raise NonConvergentSeriesError(
            f"series argument x = {mpmath.nstr(x.value, 8)} at r={rf} does not converge")
    sol = solve_coefficients(nu, rf, prec)
    bracket = tuple(bracket_from_a(list(sol.a_coeffs), nu))
    return SeriesSpec(nu=nu, r=rf, x=round_to(x.value, prec), bracket=bracket,
                      g=sol.g, prec=prec, provenance="solved",
                      label=f"solved nu={nu} r={rf}")


def evaluate(spec: SeriesSpec, terms: int, prec: int | None = None) -> BigReal:
    """Partial sum of ``terms`` consecutive terms starting at spec.n_start.

    Each coefficient is rounded once from its exact integer N_p(n) and
    scaled by 2^(-6n); x^n and the bracket are accumulated at prec + 64
    working bits in fixed chunks with a fixed reduction order. Raises
    InsufficientPrecisionError when the truncation target (terms * dpt
    digits) cannot be represented at ``prec``.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    prec = spec.prec if prec is None else prec
    predicted = terms * spec.dpt()
    capacity = decimal_digits(prec)
    if predicted > capacity + 10:
        need = int((predicted + 20) / 0.30103) + 1
        raise InsufficientPrecisionError(
            f"{terms} terms promise ~{predicted:.0f} digits but prec={prec} bits "
            f"holds only ~{capacity}", required_bits=need)
    wprec = prec + 2 * GUARD + 48
    coeffs = _scaled(2 * spec.nu, spec.n_start + terms - 1)
    with mp.workprec(wprec):
        xv = spec.x.value
        bvals = [b.value for b in spec.bracket]
        total = mpmath.mpf(0)
        chunk = mpmath.mpf(0)
        xn = xv ** spec.n_start
        for i in range(terms):
            n = spec.n_start + i
            bn = mpmath.mpf(0)
            for b in reversed(bvals):
                bn = bn * n + b
            chunk += mpmath.ldexp(mpmath.mpf(coeffs[n]), -6 * n) * xn * bn
            xn *= xv
            if (i + 1) % _CHUNK == 0:
                total += chunk
                chunk = mpmath.mpf(0)
        total += chunk
    return round_to(total, prec)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a partial sum against its closed-form target."""

    label: str
    nu: int
    r: Fraction
    terms: int
    partial_sum: BigReal
    target: BigReal
    abs_error: BigReal
    matched_digits: float
    predicted_digits: float
    dpt: float
    threshold_digits: float
    passed: bool


def _log_tail_majorant(spec: SeriesSpec, n_stop: int) -> float:
    """Natural log of a majorant of sum_{n >= n_stop} |c_p(n) x^n B(n)|, n_stop >= 1.

    The terms n_stop <= n < m, about _WINDOW_DIGITS digits' worth, are summed
    with the exact coefficients. For the rest, c_p(n) <= C(n+p-1, p-1), as
    c_p is a p-fold convolution of C(2n,n)^3/64^n <= 1;
    n^j C(n+p-1, p-1) <= (p)_j C(n+q-1, q-1) with q = p+j and (p)_j the
    rising factorial; and sum_{n>=m} C(n+q-1, q-1) y^n <= C(m+q-1, q-1)
    y^m (1-y)^-q. So the terms past the window add at most

        |x|^m sum_j |B_j| (p)_j C(m+p+j-1, p+j-1) (1-|x|)^-(p+j).

    The sum is taken in logs, relative to the largest |B_j|, so that huge
    brackets and |x| close to 1 stay finite.
    """
    p = 2 * spec.nu
    with mp.workprec(spec.x.prec):
        gap = 1 - abs(spec.x.value)
    with mp.workprec(64):
        mags = [abs(b.value) for b in spec.bracket]
        top = max(mags)
        if top == 0:
            return -math.inf
        log_top = float(mpmath.log(top))
        bs = [float(v / top) for v in mags]
        log_x = float(mpmath.log1p(-gap))
        log_gap = float(mpmath.log(gap))
    # the window ends by 2 n_stop + 2, so that |x| near 1 cannot force a
    # fill of coefficients far beyond the partial sum's own
    m = n_stop + min(int(_WINDOW_DIGITS * math.log(10) / -log_x) + 2, n_stop + 2)
    coeffs = _scaled(p, m - 1)
    logs = [math.log(coeffs[n]) - 6 * n * math.log(2) + n * log_x
            + math.log(sum(b * n ** j for j, b in enumerate(bs)))
            for n in range(n_stop, m)]
    logs += [math.log(b) + math.log(math.perm(p + j - 1, j))
             + math.log(comb(m + p + j - 1, p + j - 1)) + m * log_x - (p + j) * log_gap
             for j, b in enumerate(bs) if b > 0]
    peak = max(logs)
    return log_top + peak + math.log(sum(math.exp(v - peak) for v in logs))


def verify(spec: SeriesSpec, terms: int, prec: int | None = None,
           target: BigReal | None = None) -> VerificationReport:
    """Evaluate and compare against the closed form.

    ``matched_digits`` counts agreeing significant digits,
    -log10(|sum - target| / |target|). The sum passes when it matches at
    least -log10(2 T / |target|) digits, T a majorant of the truncated tail
    (``_log_tail_majorant``), capped 12 digits below what ``prec`` holds.
    """
    prec = spec.prec if prec is None else prec
    s = evaluate(spec, terms, prec)
    t = spec.target(prec) if target is None else target
    with mp.workprec(prec + GUARD):
        err = abs(s.value - t.value)
        if err == 0:
            matched = float(decimal_digits(prec))
        else:
            matched = float(-mpmath.log(err / abs(t.value), 10))
    with mp.workprec(64):
        log_target = float(mpmath.log(abs(t.value)))
    tail = _log_tail_majorant(spec, spec.n_start + terms)
    threshold = min((log_target - tail - math.log(2)) / math.log(10),
                    decimal_digits(prec) - 12)
    d = spec.dpt()
    return VerificationReport(
        label=spec.label or f"nu={spec.nu} r={spec.r}",
        nu=spec.nu, r=spec.r, terms=terms,
        partial_sum=s, target=t, abs_error=round_to(err, prec),
        matched_digits=matched, predicted_digits=terms * d, dpt=d,
        threshold_digits=threshold, passed=matched >= threshold,
    )


# ---------------------------------------------------------------------------
# serialization (schema piforge/1): flat JSON, decimal strings at full prec
# ---------------------------------------------------------------------------


def to_json(spec: SeriesSpec) -> str:
    digits = decimal_digits(spec.prec) + 4
    doc = {
        "schema": SCHEMA,
        "nu": spec.nu,
        "r": f"{spec.r.numerator}/{spec.r.denominator}",
        "x_decimal": spec.x.to_decimal(digits),
        "bracket_decimals": [b.to_decimal(digits) for b in spec.bracket],
        "g_decimal": spec.g.to_decimal(digits),
        "prec_bits": spec.prec,
        "dpt": spec.dpt(),
        "provenance": spec.provenance,
        "n_start": spec.n_start,
        "label": spec.label,
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> SeriesSpec:
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA:
        raise DomainError(f"unsupported schema {doc.get('schema')!r}")
    prec = int(doc["prec_bits"])
    return SeriesSpec(
        nu=int(doc["nu"]),
        r=as_fraction(doc["r"]),
        x=BigReal.of(doc["x_decimal"], prec),
        bracket=tuple(BigReal.of(s, prec) for s in doc["bracket_decimals"]),
        g=BigReal.of(doc["g_decimal"], prec),
        prec=prec,
        provenance=str(doc.get("provenance", "solved")),
        n_start=int(doc.get("n_start", 0)),
        label=str(doc.get("label", "")),
    )
