"""Series assembly, evaluation, and digit-level verification.

The coefficients c_p(n) are exact. c_p is the p-fold convolution power of
C(2n,n)^3/64^n, so c_2(n) = 2^(-6n) sum_{s=0}^{n} C(2s,s)^3 C(2n-2s,n-s)^3.
For p = 2, 4 and 6 they are stored as the integers N_p(n) = 64^n c_p(n). Each
is the coefficient sequence of a D-finite function, so it satisfies a linear
recurrence with polynomial coefficients (Salvy & Zimmermann, gfun, ACM TOMS
20(2), 1994), and each table is filled in O(n) steps from its own:

    sum_{i=0}^{p} P_i(m) N_p(m + i) = 0,    deg P_i = 2p + 1,

with P_p(m) = (m + p)^(2p+1), which has no root at m >= 0, and
P_0(m) = 64^p (m + p/2)^(2p+1). The integer P_i, at most 16, 37 and 61 bits
per coefficient for p = 2, 4 and 6, and N_p(0..p-1) are committed in
``_RECURRENCES``. ``tools/derive_recurrences.py`` reprints them: it guesses
each recurrence modulo 62-bit primes from values of J.C.P. Miller's power
recurrence (Knuth, *TAOCP* vol. 2, sec. 4.7) and lifts it by the Chinese
remainder theorem and rational reconstruction (Kauers, *The Guessing
Handbook*, 2009); the recurrence of order p is unique up to scale, and none
of degree 2p exists. Every step of the fill divides exactly.

Rounding enters only in a partial sum, which ``evaluate`` forms as blocked
column sums in integer fixed point (Smith, Math. Comp. 52, 1989; Brent &
Zimmermann, *Modern Computer Arithmetic*, 2010, sec. 4.4.3) and rounds once.

A SeriesSpec is a fully determined series

    sum_{n>=n_start} c_{2nu}(n) x^n B(n) = g / pi^(2nu),

with r > 1, x = 4 (k_r k'_r)^2 and B the degree-2nu bracket polynomial
obtained from the solved A-coefficients by the falling-factorial-to-monomial
conversion (signed Stirling numbers of the first kind). Internally B_0 is
normalized to 1; published normalizations are handled by the catalog. For
r < 1, k_r^2 > 1/2 and the construction does not apply; x is the same as at
1/r, and the solve rejects such an r naming 1/r.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import mul

import mpmath
from mpmath import mp

from .bigreal import BigReal, as_fraction, decimal_digits, mpf_of, pi_bits, round_to
from .elliptic import GUARD
from .errors import (DomainError, InsufficientPrecisionError, NonConvergentSeriesError,
                     PiforgeError, VerificationError)
from .symbolic import solve_coefficients

SCHEMA = "piforge/1"
# digits of terms past a partial sum that the tail majorant sums exactly
_WINDOW_DIGITS = 24


# N_p(0..p-1) and (P_0, ..., P_p), each P_i by ascending powers of m
_RECURRENCES = {
    2: ((1, 16), (
        (4096, 20480, 40960, 40960, 20480, 4096),
        (-1248, -3784, -4680, -2960, -960, -128),
        (32, 80, 80, 40, 10, 1),
    )),
    4: ((1, 32, 1248, 54784), (
        (8589934592, 38654705664, 77309411328, 90194313216, 67645734912, 33822867456, 11274289152,
         2415919104, 301989888, 16777216),
        (-6365839360, -20856274944, -30622187520, -26471694336, -14863564800, -5627510784,
         -1438187520, -239468544, -23592960, -1048576),
        (753804288, 2062035840, 2530008000, 1828653504, 858670848, 271837440, 58060800, 8073216,
         663552, 24576),
        (-26003264, -63381624, -69041448, -44129760, -18246816, -5063184, -943152, -113760, -8064,
         -256),
        (262144, 589824, 589824, 344064, 129024, 32256, 5376, 576, 36, 1),
    )),
    6: ((1, 48, 2256, 110080, 5568720, 290125056), (
        (109561042308169728, 474764516668735488, 949529033337470976, 1160535485190242304,
         967112904325201920, 580267742595121152, 257896774486720512, 85965591495573504,
         21491397873893376, 3979888495165440, 530651799355392, 48241072668672, 2680059592704,
         68719476736),
        (-133824070356566016, -459916955520860160, -732562521537380352, -716330442248159232,
         -479971788705497088, -232812364141953024, -84142339626369024, -22952763180711936,
         -4727844970168320, -726594515632128, -81014223273984, -6208106790912, -293131517952,
         -6442450944),
        (34061903179284480, 100251006332829696, 137010100310114304, 115169431591059456,
         66460193230159872, 27814115336257536, 8688830776344576, 2052232231256064, 366642261393408,
         48954640171008, 4750300938240, 317341040640, 13086228480, 251658240),
        (-3078311253995520, -8115079417058304, -9932883448610304, -7476512687474688,
         -3862266067984896, -1446442018864128, -404150943246336, -85329668616192, -13617747247104,
         -1622921084928, -140434145280, -8357806080, -306708480, -5242880),
        (120099729216000, 291653892950400, 328396117508160, 227057032772544, 107576549308800,
         36889307549952, 9421222599360, 1814768594496, 263711036160, 28557205248, 2240409600,
         120606720, 3993600, 61440),
        (-2077009094688, -4733564903208, -4991451835656, -3224903663280, -1424478925584,
         -454314991416, -107646543576, -19187749152, -2573176320, -256435608, -18460728, -909168,
         -27456, -384),
        (13060694016, 28298170368, 28298170368, 17293326336, 7205552640, 2161665792, 480370176,
         80061696, 10007712, 926640, 61776, 2808, 78, 1),
    )),
}


@functools.lru_cache(maxsize=None)
def _store(p: int) -> list[int]:
    """The list [N_p(0), N_p(1), ...] as filled so far.

    One list per p, grown in order by ``_scaled``; ``cache_clear``
    empties the store.
    """
    return []


def _scaled(p: int, n: int) -> list[int]:
    """The integers N_p(m) = 64^m c_p(m) for m <= n (and any filled beyond),
    p in {2, 4, 6}, each step by exact division with the recurrence of
    ``_RECURRENCES``:

        N_p(m + p) = -sum_{i<p} P_i(m) N_p(m + i) / (m + p)^(2p+1).

    Raises VerificationError if a division leaves a remainder.
    """
    if p not in _RECURRENCES:
        raise DomainError(f"p must be in {{2, 4, 6}}, got {p}")
    initial, polys = _RECURRENCES[p]
    table = _store(p)
    if not table:
        table.extend(initial)
    for m in range(len(table) - p, n + 1 - p):
        powers = list(accumulate(repeat(m, 2 * p + 1), mul, initial=1))
        values = [sum(map(mul, poly, powers)) for poly in polys[:-1]]
        value, rem = divmod(-sum(map(mul, values, table[m:])), (m + p) ** (2 * p + 1))
        if rem:
            raise VerificationError(f"N_{p}({m + p}) is not an integer: the recurrence is wrong")
        table.append(value)
    return table


def cp(p: int, n: int) -> Fraction:
    """c_p(n) for p in {2, 4, 6}, the p-fold convolution power of C(2n,n)^3/64^n,
    read from the integer store."""
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
    out = []
    for j in range(2 * nu + 1):
        acc = a_coeffs[j] * stirling_first(j, j)
        for m in range(j + 1, 2 * nu + 1):
            if s := stirling_first(m, j):
                acc += a_coeffs[m] * s
        out.append(acc)
    return out


@dataclass(frozen=True)
class SeriesSpec:
    """A fully determined series for 1/pi^(2nu) ready to evaluate.

    ``dpt()`` and the 64-bit logs of ``_log_tail_majorant`` depend on no
    precision, so a spec computes them once, on first use, and keeps them off
    its fields: equality, hash, repr and JSON see only the fields, and
    ``dataclasses.replace`` builds a spec that computes its own. ``prec`` is
    read from x, so it follows any x a replace puts in.
    """

    nu: int
    r: Fraction
    x: BigReal
    bracket: tuple
    g: BigReal
    provenance: str = "solved"
    n_start: int = 0
    label: str = ""

    def __post_init__(self):
        if self.nu not in (1, 2, 3):     # the store holds c_p for p = 2nu in {2, 4, 6}
            raise DomainError(f"nu must be in {{1, 2, 3}}, got {self.nu}")
        if len(self.bracket) != 2 * self.nu + 1:
            raise DomainError(
                f"bracket needs {2 * self.nu + 1} coefficients, got {len(self.bracket)}")
        if not -1 < self.x.value < 1:     # exact: comparisons with ints do not round
            raise NonConvergentSeriesError(
                f"series argument |x| = {mpmath.nstr(abs(self.x.value), 8)} >= 1")
        if self.x.value == 0:
            raise DomainError("series argument x = 0 has no finite digits per term")
        if self.n_start < 0:
            raise DomainError(f"n_start must be >= 0, got {self.n_start}")
        if self.g.value == 0:
            raise DomainError("series constant g = 0 gives the target 0, which has no digits")
        if not all(mpmath.isfinite(v.value) for v in (self.g, *self.bracket)):
            raise DomainError("series constant g and the bracket must be finite")

    @property
    def prec(self) -> int:
        """The precision of x, in bits, that ``to_json`` writes as prec_bits."""
        return self.x.prec

    def dpt(self) -> float:
        """Decimal digits gained per term: -log10 |x|.

        |x| is rounded to 64 bits beyond those it shares with 1, so an |x|
        within 2^-64 of 1 keeps a nonzero dpt. The rounding also keeps the
        log clear of mpmath's shortcut for a long mantissa at low precision,
        which returns about 0 for |x| just above 1/4.
        """
        return self._dpt

    @functools.cached_property
    def _dpt(self) -> float:
        ax = abs(self.x).value
        with mp.workprec(64 - min(0, mpmath.mag(1 - ax))):
            return float(-mpmath.log(+ax, 10))

    @functools.cached_property
    def _tail_logs(self) -> tuple | None:
        """(log |x|, log(1 - |x|), log max |B_j|, the |B_j| / max |B_j|) at 64
        bits for ``_log_tail_majorant``, or None when every B_j is 0."""
        with mp.workprec(self.x.prec):
            ax = abs(self.x.value)
            gap = 1 - ax
        with mp.workprec(64):
            mags = [abs(b.value) for b in self.bracket]
            top = max(mags)
            if top == 0:
                return None
            bs = tuple(float(v / top) for v in mags)
            if ax < mpmath.mpf(2) ** -32:
                # 1 - |x| rounds to 1 at 64 bits for |x| < 2^-65: take both logs from |x|
                log_x, log_gap = float(mpmath.log(ax)), float(mpmath.log1p(-ax))
            else:
                log_x, log_gap = float(mpmath.log1p(-gap)), float(mpmath.log(gap))
            return log_x, log_gap, float(mpmath.log(top)), bs

    def target(self, prec: int) -> BigReal:
        """g / pi^(2nu) at the requested precision (library pi)."""
        with mp.workprec(prec + GUARD):
            v = self.g.value / pi_bits(prec + GUARD) ** (2 * self.nu)
        return round_to(v, prec)


def build_series(nu: int, r, prec: int) -> SeriesSpec:
    """Full pipeline: solve, then bracket conversion.

    x, g and the A-coefficients all come from the solve's one context.
    """
    sol = solve_coefficients(nu, r, prec)
    return SeriesSpec(nu=nu, r=sol.r, x=sol.x, bracket=tuple(bracket_from_a(sol.a_coeffs, nu)),
                      g=sol.g, provenance="solved", label=f"solved nu={nu} r={sol.r}")


def evaluate(spec: SeriesSpec, terms: int, prec: int) -> BigReal:
    """Partial sum of ``terms`` consecutive terms starting at spec.n_start.

    Blocked column sums in integer fixed point at W = prec + 2 GUARD + 64
    fraction bits: sum_j B_j S_j, S_j = sum_n c_p(n) n^j x^n. Term
    n = n_start + k m + i, i < m = min(terms, isqrt((2nu + 1) terms) + 1), adds
    t = N_p(n) x^i 2^-6n, one short product, times n^j to column j of block k,
    whose columns are then multiplied by g = x^(n_start + k m). A block sums
    at only the W - d fraction bits its terms reach, d = max(0, W - bitlength(g))
    the bits that g shifts out (so |g| 2^d <= 1): each x^i is shifted right
    by d before its product, and the block's column products by W - d. x,
    x^n_start and the B_j are rounded to W bits; x^i for i <= m (x^m is the
    block step), g, the shifted x^i, t and the block products are truncated;
    the total is rounded once to ``prec``. Before that it is within

        1 + K sum_j |B_j| + sum_n ((1 + (3(n - n_start) + 2k + 3)/2 c_p(n)) |B(n)|
                                   + c_p(n) |x|^n sum_j n^j / 2)

    units of 2^-W over K blocks, to first order. x^i drifts by 3i/2 units, so
    x^m by 3m/2 and g by (2k + 1)/2 + 3mk/2. One unit of 2^(d-W) lost by the
    shift of x^i, and one by the truncation of t, cost c_p(n) |B(n)| and |B(n)|
    units once the block is multiplied by g; the drift of x^i adds
    3i/2 c_p(n) |B(n)| and that of g (2k + 1 + 3mk)/2 c_p(n) |B(n)|, where
    i + mk = n - n_start. Each block add loses 1 per column and the total 1,
    and rounding B_j adds |S_j|/2. Raises InsufficientPrecisionError when
    terms * dpt digits cannot be held at ``prec``.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    predicted = terms * spec.dpt()
    capacity = decimal_digits(prec)
    if predicted > capacity + 10:
        need = int((predicted + 20) / 0.30103) + 1
        raise InsufficientPrecisionError(
            f"{terms} terms promise ~{predicted:.0f} digits but prec={prec} bits "
            f"holds only ~{capacity}", required_bits=need)
    w = prec + 2 * GUARD + 64
    m = min(terms, math.isqrt(len(spec.bracket) * terms) + 1)
    coeffs = _scaled(2 * spec.nu, spec.n_start + terms - 1)
    x = spec.x.value
    with mp.workprec(w + 64):     # at the ambient precision these would keep 53 bits
        big_x, g, *bs = (int(mpmath.nint(mpmath.ldexp(v, w))) for v in (
            x, x ** spec.n_start, *(b.value for b in spec.bracket)))
    powers = [1 << w]
    for _ in range(m):
        powers.append((powers[-1] * big_x) >> w)
    step = powers.pop()
    cols = [0] * len(bs)
    for first in range(spec.n_start, spec.n_start + terms, m):
        drop = max(0, w - g.bit_length())     # bits of the block that g shifts out
        block = [0] * len(bs)
        for n, xi in zip(range(first, min(first + m, spec.n_start + terms)), powers):
            t = (coeffs[n] * (xi >> drop)) >> (6 * n)
            for j in range(len(bs)):
                block[j] += t
                t *= n
        cols = [c + ((b * g) >> (w - drop)) for c, b in zip(cols, block)]
        g = (g * step) >> w
    return round_to(mpmath.ldexp(mpf_of(sum(map(mul, cols, bs)) >> w, prec), -w), prec)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a partial sum against its closed-form target."""

    label: str
    terms: int
    partial_sum: BigReal
    target: BigReal
    abs_error: BigReal
    matched_digits: float
    predicted_digits: float
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
    if spec._tail_logs is None:
        return -math.inf
    log_x, log_gap, log_top, bs = spec._tail_logs
    p = 2 * spec.nu
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


def verify(spec: SeriesSpec, terms: int, prec: int,
           target: BigReal | None = None) -> VerificationReport:
    """Evaluate and compare against the closed form.

    ``matched_digits`` counts agreeing significant digits, -log10 of the
    ratio |sum - target| / |target| formed at prec + GUARD bits, rounded to
    128 bits and logged there. The sum passes when it matches at
    least -log10(2 T / |target|) digits, T a majorant of the truncated tail
    (``_log_tail_majorant``), capped 12 digits below what ``prec`` holds.
    """
    s = evaluate(spec, terms, prec)
    t = spec.target(prec) if target is None else target
    with mp.workprec(prec + GUARD):
        err = abs(s.value - t.value)
        ratio = err / abs(t.value) if err else err
    with mp.workprec(128):     # +ratio: see SeriesSpec.dpt on mpmath's log shortcut
        matched = float(-mpmath.log(+ratio, 10)) if ratio else float(decimal_digits(prec))
    with mp.workprec(64):
        log_target = float(mpmath.log(abs(t.value)))
    tail = _log_tail_majorant(spec, spec.n_start + terms)
    threshold = min((log_target - tail - math.log(2)) / math.log(10),
                    decimal_digits(prec) - 12)
    return VerificationReport(
        label=spec.label or f"nu={spec.nu} r={spec.r}", terms=terms,
        partial_sum=s, target=t, abs_error=round_to(err, prec),
        matched_digits=matched, predicted_digits=terms * spec.dpt(),
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
    """The SeriesSpec of a schema piforge/1 document. Text that is not a JSON
    object, a missing field and a field its conversion rejects raise DomainError
    naming it: ``nu``, ``n_start`` and ``prec_bits`` must be JSON integers,
    ``provenance`` and ``label`` JSON strings and ``bracket_decimals`` a JSON
    list. PiforgeErrors, such as SeriesSpec's own checks, pass unchanged."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        raise DomainError("series spec is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise DomainError(f"unsupported schema {doc.get('schema')!r}")

    def field(key, convert, default=None):
        if key not in doc and default is None:
            raise DomainError(f"series spec has no field {key!r}")
        try:
            return convert(doc.get(key, default))
        except PiforgeError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:     # int(Infinity), mpf("1/0")
            raise DomainError(f"series spec field {key!r}: {exc}") from None

    def whole(value):
        if type(value) is not int:     # int() would truncate a float and read a bool
            raise TypeError(f"expected a JSON integer, got {value!r}")
        return value

    def string(value):
        if not isinstance(value, str):     # str() would read null as "None"
            raise TypeError(f"expected a JSON string, got {value!r}")
        return value

    def reals(values):
        if not isinstance(values, list):     # a string would read digit by digit
            raise TypeError(f"expected a JSON list, got {values!r}")
        return tuple(map(real, values))

    prec = field("prec_bits", whole)
    real = functools.partial(BigReal.of, prec=prec)
    return SeriesSpec(
        nu=field("nu", whole),
        r=field("r", as_fraction),
        x=field("x_decimal", real),
        bracket=field("bracket_decimals", reals),
        g=field("g_decimal", real),
        provenance=field("provenance", string, "solved"),
        n_start=field("n_start", whole, 0),
        label=field("label", string, ""),
    )
