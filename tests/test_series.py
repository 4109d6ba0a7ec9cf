"""Coefficients, brackets, series construction, evaluation, replay, JSON."""

import dataclasses
import functools
import importlib.util
import json
import math
import random
from fractions import Fraction
from math import comb
from operator import mul
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from piforge import (BigReal, DomainError, InsufficientPrecisionError,
                     NonConvergentSeriesError, PiforgeError, SeriesSpec, VerificationError, bracket_from_a,
                     build_series, cp, evaluate, from_json,
                     replay_published, series, singular_modulus,
                     solve_coefficients, stirling_first, to_json, verify)
from piforge.bigreal import decimal_digits, mpf_of, round_to
from piforge.catalog import (PI4_R2, PI6_R2, PI6_R7, PUBLISHED_SERIES,
                             perturbed, published_by_label)
from piforge.elliptic import GUARD

from conftest import tol_bits

# the derivation tool, whose Miller power recurrence is the store's reference
_TOOL = importlib.util.spec_from_file_location(
    "derive_recurrences", Path(__file__).resolve().parents[1] / "tools" / "derive_recurrences.py")
derive_recurrences = importlib.util.module_from_spec(_TOOL)
_TOOL.loader.exec_module(derive_recurrences)

P = 256


# --------------------------------------------------------- coefficients


def test_c2_first_values():
    assert cp(2, 0) == 1
    # hand expansion: two symmetric terms, each C(2,1)^3 = 8, over 64
    assert cp(2, 1) == Fraction(16, 64) == Fraction(1, 4)
    assert cp(2, 2) == Fraction(2 * 6 ** 3 + 8 * 8, 64 ** 2)


def test_c2_positive_with_settling_ratio():
    vals = [cp(2, n) for n in range(51)]
    assert all(v > 0 for v in vals)
    ratios = [vals[n + 1] / vals[n] for n in range(50)]
    # ratio tends to 1 from below and increases monotonically in the tail
    tail = ratios[10:]
    assert all(0 < float(x) < 1 for x in tail)
    assert all(tail[i] < tail[i + 1] for i in range(len(tail) - 1))


def test_c4_convolution():
    assert cp(4, 0) == 1
    assert cp(4, 1) == 2 * cp(2, 0) * cp(2, 1) == Fraction(1, 2)
    n = 9
    assert cp(4, n) == sum(cp(2, s) * cp(2, n - s) for s in range(n + 1))


def test_cp_rejects_odd_p():
    with pytest.raises(DomainError):
        cp(3, 1)
    with pytest.raises(DomainError):
        cp(4, -1)


def test_cp_rejects_p_without_a_recurrence():
    with pytest.raises(DomainError, match=r"\{2, 4, 6\}"):
        cp(8, 1)


def _fraction_coefficients(p, count):
    """Reference c_p(n), n < count: Fraction convolution of C(2n,n)^3/64^n."""
    base = [Fraction(comb(2 * n, n) ** 3, 64 ** n) for n in range(count)]
    c2_ref = [sum(base[s] * base[n - s] for s in range(n + 1)) for n in range(count)]
    out = c2_ref
    for _ in range(p // 2 - 1):
        out = [sum(out[s] * c2_ref[n - s] for s in range(n + 1)) for n in range(count)]
    return out


@pytest.mark.parametrize("p", [2, 4, 6])
def test_integer_store_matches_fraction_convolution(p):
    ref = _fraction_coefficients(p, 120)
    scaled = series._scaled(p, 119)
    assert all(scaled[n] == 64 ** n * ref[n] for n in range(120))
    assert all(cp(p, n) == ref[n] for n in range(120))


def _convolution_reference(p, n, tables):
    """The former store fill, N_1 = C(2m,m)^3, N_2 = N_1 * N_1 and
    N_p = N_{p-2} * N_2 as integer convolutions, into ``tables`` keyed by p."""
    table = tables.setdefault(p, [])
    if len(table) <= n:
        if p == 1:
            table.extend(comb(2 * m, m) ** 3 for m in range(len(table), n + 1))
        else:
            left = _convolution_reference(1 if p == 2 else p - 2, n, tables)
            right = _convolution_reference(1 if p == 2 else 2, n, tables)
            for m in range(len(table), n + 1):
                table.append(sum(map(mul, left[:m + 1], right[m::-1])))
    return table


@pytest.fixture(scope="module")
def convolution_tables():
    """N_2, N_4 and N_6 to n = 420, past the 4096-bit anchor's n = 414."""
    tables = {}
    return {p: _convolution_reference(p, 420, tables) for p in (2, 4, 6)}


@pytest.mark.parametrize("order", [(6, 4, 2), (2, 4, 6)], ids=["p6_first", "p2_first"])
def test_power_recurrence_matches_convolution_chain(convolution_tables, order):
    series._store.cache_clear()
    for p in order:
        assert series._scaled(p, 420)[:421] == convolution_tables[p], p


@pytest.mark.parametrize("p", [2, 4, 6])
def test_recurrence_fill_matches_miller_reference(p):
    series._store.cache_clear()
    assert series._scaled(p, 700)[:701] == derive_recurrences.miller(p, 700)


def test_fill_in_steps_matches_miller_reference():
    series._store.cache_clear()
    for p in (2, 4, 6):
        for n in (0, p - 1, p, p + 1, 2 * p + 3, 40, 41, 150):
            series._scaled(p, n)
        assert series._store(p)[:151] == derive_recurrences.miller(p, 150), p


@pytest.mark.parametrize("p", [2, 4, 6])
def test_recurrence_ends_are_the_stated_powers(p):
    # the leading polynomial (m + p)^(2p+1) has no root at m >= 0, so no
    # step of the fill divides by zero
    initial, polys = series._RECURRENCES[p]
    assert len(initial) == p and len(polys) == p + 1
    power = [comb(2 * p + 1, j) for j in range(2 * p + 2)]
    assert polys[-1] == tuple(c * p ** (2 * p + 1 - j) for j, c in enumerate(power))
    assert polys[0] == tuple(64 ** p * c * (p // 2) ** (2 * p + 1 - j)
                             for j, c in enumerate(power))


def test_fill_rejects_a_remainder(monkeypatch):
    initial, polys = series._RECURRENCES[6]
    broken = (polys[0][:3] + (polys[0][3] + 1,) + polys[0][4:], *polys[1:])
    monkeypatch.setitem(series._RECURRENCES, 6, (initial, broken))
    series._store.cache_clear()
    with pytest.raises(VerificationError, match="N_6"):
        series._scaled(6, 40)
    series._store.cache_clear()


def test_derivation_tool_reprints_the_committed_tables():
    for p in (2, 4, 6):
        assert derive_recurrences.guess(p) == series._RECURRENCES[p], p


def test_evaluate_bit_identical_to_fraction_path():
    # the former evaluate loop on Fraction coefficients, in the same order
    prec, terms = 2048, 120
    spec = build_series(3, 7, prec)
    coeffs = _fraction_coefficients(6, terms)
    with mp.workprec(prec + 2 * GUARD + 48):
        bvals = [b.value for b in spec.bracket]
        total = mpmath.mpf(0)
        xn = mpmath.mpf(1)
        for n in range(terms):
            bn = mpmath.mpf(0)
            for b in reversed(bvals):
                bn = bn * n + b
            c = coeffs[n]
            total += mpmath.mpf(c.numerator) / c.denominator * xn * bn
            xn *= spec.x.value
    assert evaluate(spec, terms, prec).value == round_to(total, prec).value


def _block_length(nu, terms):
    """The block length m of evaluate's column sums."""
    return min(terms, math.isqrt((2 * nu + 1) * terms) + 1)


def _per_term_reference(spec, terms, prec):
    """The former evaluate loop: per term, two W-bit products, c_p(n) x^n B(n) and x^n x."""
    w = prec + 2 * GUARD + 64
    coeffs = series._scaled(2 * spec.nu, spec.n_start + terms - 1)
    with mp.workprec(w + 64):
        big_x, xn, *bs = (int(mpmath.nint(mpmath.ldexp(v, w))) for v in (
            spec.x.value, spec.x.value ** spec.n_start, *(b.value for b in spec.bracket[::-1])))
    total = 0
    for n in range(spec.n_start, spec.n_start + terms):
        bn = 0
        for b in bs:
            bn = bn * n + b
        total += (coeffs[n] * xn * bn) >> (6 * n + w)
        xn = (xn * big_x) >> w
    return round_to(mpmath.ldexp(mpf_of(total, prec), -w), prec).value


@pytest.fixture(scope="module")
def block_specs():
    """Solved specs at 8192 bits, a published one with x negated, one from n = 1."""
    specs = [build_series(nu, r, 8192) for nu in (1, 2, 3)
             for r in (7, Fraction(7, 2), Fraction(13, 2), Fraction(29, 2))]
    pub = PI4_R2.to_spec(8192)
    return specs + [dataclasses.replace(pub, x=-pub.x),
                    dataclasses.replace(specs[-2], n_start=1)]


@pytest.mark.parametrize("prec", [256, 1024, 8192])
def test_evaluate_bit_identical_to_per_term_loop(block_specs, prec):
    # term counts on both sides of block edges: at 256 bits every count up to
    # the most evaluate accepts (capped at 240), above it the counts around
    # m and 2m, m the block length at the most terms, and around the largest
    # count of two or more whole blocks
    for spec in block_specs:
        most = min(240, int((decimal_digits(prec) + 10) / spec.dpt()))
        m = _block_length(spec.nu, most)
        whole = max((t for t in range(2, most + 1) if t % _block_length(spec.nu, t) == 0
                     and t > _block_length(spec.nu, t)), default=1)
        counts = range(1, most + 1) if prec == 256 else {
            1, 2, m - 1, m, m + 1, 2 * m, 2 * m + 1, whole - 1, whole, whole + 1, most}
        for terms in sorted(t for t in counts if 1 <= t <= most):
            assert evaluate(spec, terms, prec).value == _per_term_reference(spec, terms, prec), (
                spec.label, spec.n_start, terms)


@pytest.mark.parametrize("prec", [256, 512, 1024, 2048])
def test_evaluate_bit_identical_where_blocks_drop_the_most_bits(prec):
    # r = 14, 29/2 and 15, the band of perfbench's r bands with the smallest
    # |x|, so each later block sums at the fewest fraction bits; negated x
    # floors terms of both signs and n_start = 1 starts g below 1; at the most
    # terms evaluate accepts and just under it
    for nu in (1, 2, 3):
        for r in (14, Fraction(29, 2), 15):
            spec = build_series(nu, r, prec)
            for s in (spec, dataclasses.replace(spec, x=-spec.x),
                      dataclasses.replace(spec, n_start=1),
                      dataclasses.replace(spec, x=-spec.x, n_start=1)):
                most = int((decimal_digits(prec) + 10) / s.dpt())
                for terms in (most - 2, most - 1, most):
                    assert evaluate(s, terms, prec).value == _per_term_reference(s, terms, prec), (
                        nu, r, s.x.value < 0, s.n_start, terms)


def test_store_refills_after_clear():
    spec = PI6_R7.to_spec(P)
    before = (evaluate(spec, 40, P).value, [cp(6, n) for n in range(40)])
    series._store.cache_clear()
    assert evaluate(spec, 40, P).value == before[0]
    assert [cp(6, n) for n in range(40)] == before[1]


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("nu, r", [(2, "29/2"), (1, "13/2")])
def test_evaluate_ignores_the_ambient_precision(nu, r, prec):
    # the suite's ambient 1536 bits would hide a conversion made outside
    # evaluate's own guard; library callers run at mpmath's 53-bit default
    # (r = 7 cannot show it: its x = 1/64 is exact)
    spec = build_series(nu, Fraction(r), prec)
    terms = int((decimal_digits(prec) + 10) / spec.dpt())
    at_suite = evaluate(spec, terms, prec).value
    with mp.workprec(53):
        at_default = evaluate(spec, terms, prec).value
    assert at_default == at_suite


def test_c6_against_hypergeometric_oracle():
    # c_p is the p-th power of the base sequence, so
    # sum c6(n) x^n = 3F2(1/2,1/2,1/2;1,1;x)^6 at x = 0.1
    with mp.workprec(256):
        x = mpmath.mpf(1) / 10
        total = mpmath.mpf(0)
        for n in range(140):
            c = cp(6, n)
            total += mpmath.mpf(c.numerator) / c.denominator * x ** n
        want = mpmath.hyper([mpmath.mpf(1) / 2] * 3, [1, 1], x) ** 6
        assert abs(total - want) < mpmath.mpf(10) ** -30


# --------------------------------------------------------- bracket


def test_bracket_nu2_combinations():
    a = [Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    b = bracket_from_a(a, 2)
    assert b[4] == a[4]
    assert b[3] == a[3] - 6 * a[4]
    assert b[2] == a[2] - 3 * a[3] + 11 * a[4]
    assert b[1] == a[1] - a[2] + 2 * a[3] - 6 * a[4]
    assert b[0] == a[0]


def test_bracket_nu3_combinations():
    a = [Fraction(n) for n in (1, 2, 3, 5, 7, 11, 13)]
    b = bracket_from_a(a, 3)
    assert b[6] == a[6]
    assert b[5] == a[5] - 15 * a[6]
    assert b[4] == a[4] - 10 * a[5] + 85 * a[6]
    assert b[3] == a[3] - 6 * a[4] + 35 * a[5] - 225 * a[6]
    assert b[2] == a[2] - 3 * a[3] + 11 * a[4] - 50 * a[5] + 274 * a[6]
    assert b[1] == a[1] - a[2] + 2 * a[3] - 6 * a[4] + 24 * a[5] - 120 * a[6]


def test_bracket_identity_on_unit():
    a = [Fraction(1)] + [Fraction(0)] * 4
    assert bracket_from_a(a, 2) == a


def test_bracket_matches_falling_factorials_pointwise():
    a = [Fraction(n * n + 1) for n in range(7)]
    b = bracket_from_a(a, 3)
    for n in range(12):
        ff = Fraction(0)
        for m in range(7):
            t = Fraction(1)
            for i in range(m):
                t *= (n - i)
            ff += a[m] * t
        mono = sum(b[j] * Fraction(n) ** j for j in range(7))
        assert ff == mono


def test_bracket_length_mismatch():
    with pytest.raises(DomainError):
        bracket_from_a([Fraction(1)] * 4, 2)


def test_stirling_values():
    # n(n-1)(n-2)(n-3) = n^4 - 6n^3 + 11n^2 - 6n
    assert [stirling_first(4, j) for j in range(5)] == [0, -6, 11, -6, 1]


# --------------------------------------------------------- build_series


def test_build_series_r2_argument():
    spec = build_series(2, 2, P)
    want = 40 * BigReal.of(2, P).sqrt() - 56
    assert abs((spec.x - want).value) < tol_bits(P, 16)
    assert len(spec.bracket) == 5
    assert abs((spec.bracket[0] - 1).value) < tol_bits(P, 48)


def test_build_series_r7_argument_is_1_over_64():
    spec = build_series(3, 7, P)
    assert abs((spec.x - Fraction(1, 64)).value) < tol_bits(P, 16)


def test_build_series_r15_argument():
    spec = build_series(3, 15, P)
    want = (47 - 21 * BigReal.of(5, P).sqrt()) / 128
    assert abs((spec.x - want).value) < tol_bits(P, 16)


@pytest.mark.parametrize("prec", [64, 256, 512, 2048])
def test_build_series_rejects_r1(prec):
    # x = 1 exactly at r = 1; the error must not depend on how x rounds
    with pytest.raises(NonConvergentSeriesError):
        build_series(2, 1, prec)


@pytest.mark.parametrize("r", [0, -3, "-7/2"])
def test_build_series_rejects_nonpositive_r(r):
    for fn in (build_series, solve_coefficients):
        with pytest.raises(DomainError, match="r must be positive"):
            fn(1, r, P)


@pytest.mark.parametrize("prec", [256, 1024, 4096])
@pytest.mark.parametrize("r", ["7/2", "13/2", "29/2", 2, 7, 58])
def test_solved_x_matches_a_context_of_its_own(r, prec):
    # the solve's context (prec + 8 GUARD) gives x bit for bit as a
    # context at prec + 2 GUARD does, both rounded to prec
    ref = singular_modulus(r, prec + 2 * GUARD).series_argument().value
    assert solve_coefficients(1, r, prec).x == round_to(ref, prec)


def test_solved_matches_published_termwise_r7():
    # solved bracket against the published example, term by term, B0 = 1
    spec = build_series(3, 7, P)
    pub = PI6_R7.to_spec(P)
    for j in range(7):
        assert abs((spec.bracket[j] - pub.bracket[j]).value) < tol_bits(P, 48), f"B{j}"
    assert abs((spec.g - pub.g).value) < tol_bits(P, 48)


# --------------------------------------------------------- evaluate/verify


def test_evaluate_single_term():
    spec = build_series(2, 2, P)
    one = evaluate(spec, 1, P)
    # n=0 term is c(0) * x^0 * B(0) = B0 = 1
    assert abs((one - 1).value) < tol_bits(P, 48)


def test_evaluate_rejects_bad_terms():
    spec = build_series(2, 2, P)
    with pytest.raises(DomainError):
        evaluate(spec, 0, P)


def test_evaluate_precision_guard():
    spec = build_series(3, 15, 128)
    with pytest.raises(InsufficientPrecisionError) as exc:
        evaluate(spec, 60, 128)
    assert exc.value.required_bits and exc.value.required_bits > 128


def test_verify_solved_series_nu2_r2():
    spec = build_series(2, 2, 512)
    rep = verify(spec, 140, 512)
    assert rep.passed
    assert rep.matched_digits > rep.predicted_digits - 10


def test_verify_against_independent_pi():
    # target computed from mpmath's pi instead of the package value
    spec = build_series(3, 7, 512)
    with mp.workprec(600):
        target = BigReal.of(spec.g.value / mpmath.pi ** 6, 512)
    rep = verify(spec, 40, 512, target=target)
    assert rep.passed
    assert rep.matched_digits > 60


# r = 3 is left out: its nu = 1 solve is degenerate (a singular 2x2 system)
PROPERTY_POOL = (2, Fraction(7, 2), 4, Fraction(9, 2), 5, 6, Fraction(13, 2), 7,
                 Fraction(15, 2), 10, 14, Fraction(29, 2), 15)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=st.sampled_from(PROPERTY_POOL), nu=st.integers(1, 3),
       prec=st.integers(256, 1024), share=st.floats(0.05, 1.0))
def test_correct_series_pass_under_tail_majorant(r, nu, prec, share):
    spec = build_series(nu, r, prec)
    # the CLI's term choice, scaled by share
    terms = max(1, int(share * min(400, (decimal_digits(prec) - 24) / spec.dpt())))
    rep = verify(spec, terms, prec)
    assert math.isfinite(rep.threshold_digits)
    assert rep.passed, f"{rep.matched_digits:.2f} vs {rep.threshold_digits:.2f}"


def _kernel_reference(spec, terms, prec):
    """The partial sum at 3 prec, and evaluate's stated error bound at W bits."""
    w = prec + 2 * GUARD + 64
    p = 2 * spec.nu
    m = _block_length(spec.nu, terms)
    coeffs = series._scaled(p, spec.n_start + terms - 1)
    with mp.workprec(3 * prec):
        x = spec.x.value
        bs = [b.value for b in spec.bracket]
        # the final shift, and each of the K block adds per column
        bound = 1 + -(-terms // m) * sum(abs(b) for b in bs)
        total, top = mpmath.mpf(0), mpmath.mpf(0)
        for n in range(spec.n_start, spec.n_start + terms):
            k = (n - spec.n_start) // m
            c = mpmath.ldexp(mpmath.mpf(coeffs[n]), -6 * n)
            bn = sum(b * mpmath.mpf(n) ** j for j, b in enumerate(bs))
            term = c * x ** n * bn
            total += term
            top = max(top, abs(term))
            bound += ((1 + mpmath.mpf(3 * (n - spec.n_start) + 2 * k + 3) / 2 * c) * abs(bn)
                      + c * abs(x) ** n * sum(n ** j for j in range(p + 1)) / 2)
        # the bound is first order in 2^-W; the reference keeps about 3 prec bits
        slack = mpmath.ldexp(top * terms, 8 - 3 * prec)
        return total, mpmath.ldexp(bound, -w) * (1 + mpmath.mpf(2) ** -20) + slack


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(source=st.sampled_from(("solved", "published", "negated")),
       r=st.sampled_from(PROPERTY_POOL), nu=st.integers(1, 3),
       entry=st.sampled_from(PUBLISHED_SERIES), prec=st.integers(256, 4096),
       share=st.floats(0.01, 1.0))
def test_evaluate_within_stated_error_bound(source, r, nu, entry, prec, share):
    # no catalog series has x < 0, so "negated" sums c_p(n) (-x)^n B(n) of a
    # published one: the shifts then floor terms of both signs
    spec = build_series(nu, r, prec) if source == "solved" else entry.to_spec(prec)
    if source == "negated":
        spec = SeriesSpec(nu=spec.nu, r=spec.r, x=-spec.x, bracket=spec.bracket, g=spec.g)
    most = min(400, int((decimal_digits(prec) + 10) / spec.dpt()))
    terms = max(1, int(share * most))
    got = evaluate(spec, terms, prec).value
    ref, kernel = _kernel_reference(spec, terms, prec)
    with mp.workprec(3 * prec):
        half_ulp = mpmath.ldexp(1, mpmath.mag(got) - prec - 1)
        assert abs(got - ref) <= half_ulp + kernel


def test_tail_majorant_finite_for_argument_near_one():
    # |x| = 1 - 2^-100 rounds to 1 at 64 bits; a stepped ratio bound would
    # never reach its geometric regime there
    spec = PI4_R2.to_spec(P)
    x = BigReal.of(1, P) - BigReal.of(2, P) ** -100
    near = SeriesSpec(nu=2, r=spec.r, x=x, bracket=spec.bracket, g=spec.g)
    rep = verify(near, 5, P)
    assert math.isfinite(rep.threshold_digits)


def test_all_zero_bracket_fails_under_a_finite_threshold():
    # every term is 0, so the tail majorant is -inf and the threshold falls
    # back to what the precision holds; the zero sum matches no digit of g/pi^4
    spec = build_series(2, 2, P)
    zero = dataclasses.replace(spec, bracket=tuple(BigReal.of(0, P) for _ in spec.bracket))
    assert series._log_tail_majorant(zero, 10) == -math.inf
    rep = verify(zero, 10, P)
    assert rep.threshold_digits == decimal_digits(P) - 12
    assert rep.partial_sum == 0 and rep.matched_digits == 0
    assert not rep.passed


@pytest.mark.parametrize("nu, r, terms", [(1, 246, 14), (3, 300, 13)])
def test_tail_majorant_finite_for_tiny_argument(nu, r, terms):
    # |x| < 2^-65: 1 - |x| rounds to 1 at 64 bits, where log(1 - |x|) is -inf
    # and the threshold came out NaN, a false FAIL of a correct series
    spec = build_series(nu, r, 1024)
    assert abs(spec.x.value) < mpmath.mpf(2) ** -65
    rep = verify(spec, terms, 1024)
    assert math.isfinite(rep.threshold_digits)
    assert rep.passed, f"{rep.matched_digits:.2f} vs {rep.threshold_digits:.2f}"
    # the first omitted term dominates the tail, and the bound still covers it
    first = evaluate(spec, terms + 1, 1024) - evaluate(spec, terms, 1024)
    log_first = float(mpmath.log(abs(first.value)))
    tail = series._log_tail_majorant(spec, spec.n_start + terms)
    assert log_first - 1e-9 <= tail <= log_first + 0.01


def test_argument_near_one_accepted_at_low_ambient_precision():
    # the |x| < 1 test is exact, so it cannot round at the caller's precision
    spec = PI4_R2.to_spec(P)
    x = BigReal.of(1, P) - BigReal.of(2, P) ** -100
    minus_x = -x
    with mp.workprec(53):
        for v in (x, minus_x):
            SeriesSpec(nu=2, r=spec.r, x=v, bracket=spec.bracket, g=spec.g)
        for v in (BigReal.of(1, P), BigReal.of(-1, P)):
            with pytest.raises(NonConvergentSeriesError):
                SeriesSpec(nu=2, r=spec.r, x=v, bracket=spec.bracket, g=spec.g)


def _former_dpt(spec):
    """-log10 |x| as SeriesSpec.dpt computed it on every call."""
    ax = abs(spec.x).value
    with mp.workprec(64 - min(0, mpmath.mag(1 - ax))):
        return float(-mpmath.log(+ax, 10))


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_cached_dpt_equals_the_former_formula(nu):
    for r in PROPERTY_POOL:
        spec = build_series(nu, r, 512)
        assert spec.dpt() == _former_dpt(spec) == spec.dpt(), r


def test_replaced_spec_computes_its_own_constants():
    # dataclasses.replace builds a new spec, so nothing cached on the old one
    # may reach it: its dpt and tail majorant are those of a spec never used
    spec = build_series(2, 2, P)
    other = build_series(2, 5, P)
    spec.dpt(), series._log_tail_majorant(spec, 20)
    moved = dataclasses.replace(spec, x=other.x)
    fresh = SeriesSpec(**{f.name: getattr(moved, f.name) for f in dataclasses.fields(moved)})
    assert moved.dpt() == fresh.dpt() == _former_dpt(fresh) != spec.dpt()
    assert series._log_tail_majorant(moved, 20) == series._log_tail_majorant(fresh, 20)
    assert series._log_tail_majorant(moved, 20) != series._log_tail_majorant(spec, 20)


def test_cached_constants_leave_equality_hash_repr_and_json_alone():
    spec = build_series(2, 2, P)
    twin = dataclasses.replace(spec)
    before = (hash(spec), repr(spec), to_json(twin))
    spec.dpt(), series._log_tail_majorant(spec, 20)
    assert spec == twin and spec == dataclasses.replace(spec)
    assert (hash(spec), repr(spec), to_json(spec)) == before
    assert [f.name for f in dataclasses.fields(spec)] == [
        "nu", "r", "x", "bracket", "g", "provenance", "n_start", "label"]


def test_prec_follows_a_replaced_x():
    # prec is read from x, so a replace that moves x to another precision
    # moves what to_json writes as prec_bits with it
    spec = build_series(2, 2, P)
    assert spec.prec == json.loads(to_json(spec))["prec_bits"] == P
    for bits in (P // 2, 2 * P):
        moved = dataclasses.replace(spec, x=round_to(spec.x.value, bits))
        assert moved.prec == json.loads(to_json(moved))["prec_bits"] == bits


def test_dpt_of_argument_near_one_is_positive():
    spec = PI4_R2.to_spec(P)
    x = BigReal.of(1, P) - BigReal.of(2, P) ** -100
    near = SeriesSpec(nu=2, r=spec.r, x=x, bracket=spec.bracket, g=spec.g)
    assert near.dpt() == pytest.approx(2.0 ** -100 / math.log(10), rel=1e-12, abs=0)


def test_dpt_of_argument_just_above_a_quarter():
    # a 64-bit log of a 256-bit mantissa this close to 1/4 comes out near 0
    spec = PI4_R2.to_spec(P)
    x = BigReal.of(Fraction(1, 4), P) + BigReal.of(2, P) ** -257
    near = SeriesSpec(nu=2, r=spec.r, x=x, bracket=spec.bracket, g=spec.g)
    assert near.dpt() == pytest.approx(math.log10(4), rel=1e-15, abs=0)


def _matched_at_full_precision(s, t, prec):
    """-log10(|s - t| / |t|) taken at prec + GUARD throughout."""
    with mp.workprec(prec + GUARD):
        return float(-mpmath.log(abs(s.value - t.value) / abs(t.value), 10))


def test_matched_digits_agree_with_full_precision_log():
    rng = random.Random(13)
    for _ in range(16):
        nu, r = rng.randint(1, 3), rng.choice(PROPERTY_POOL)
        prec = rng.choice((256, 512, 1024, 2048))
        spec = build_series(nu, r, prec)
        terms = rng.randint(1, int((decimal_digits(prec) + 10) / spec.dpt()))
        rep = verify(spec, terms, prec)
        want = _matched_at_full_precision(evaluate(spec, terms, prec), spec.target(prec), prec)
        assert rep.matched_digits == want, (nu, r, prec, terms)


def test_matched_digits_when_sum_equals_target():
    spec = build_series(3, 7, 512)
    s = evaluate(spec, 40, 512)
    assert verify(spec, 40, 512, target=s).matched_digits == decimal_digits(512)


@pytest.mark.parametrize("prec", [256, 512, 2048])
def test_matched_digits_for_ratios_with_long_mantissas(prec):
    # targets whose relative error has a mantissa of about prec + GUARD bits:
    # one just above a power of ten, and one just above 1/4, where a 128-bit
    # log of the unrounded ratio takes mpmath's shortcut for x near 1 and
    # returns about 0 instead of log10(4)
    spec = build_series(2, 2, prec)
    s = evaluate(spec, 50, prec)
    with mp.workprec(prec):
        near_ten = round_to(s.value / (1 + mpmath.mpf(10) ** -30), prec)
    rep = verify(spec, 50, prec, target=near_ten)
    assert rep.matched_digits == _matched_at_full_precision(s, near_ten, prec)
    assert rep.matched_digits == pytest.approx(30, abs=1e-12)
    with mp.workprec(prec + GUARD):
        t = round_to(s.value * 4 / 5 * (1 - mpmath.ldexp(1, -prec)), prec + GUARD)
        assert 0 < abs(s.value - t.value) / abs(t.value) - mpmath.mpf(1) / 4 < 2.0 ** -200
    rep = verify(spec, 50, prec, target=t)
    assert rep.matched_digits == _matched_at_full_precision(s, t, prec)
    assert rep.matched_digits == pytest.approx(math.log10(4), rel=1e-15)


# --------------------------------------------------------- published replay


def test_replay_all_published_pass():
    reports = replay_published(512)
    assert len(reports) == 4
    for rep in reports:
        assert rep.passed, f"{rep.label}: {rep.matched_digits:.2f} vs {rep.threshold_digits:.2f}"


def test_replay_digit_counts_are_frozen():
    # measured matched digits at the default term counts (deterministic)
    want = {"pi4_r2": (140, 28.4), "pi6_r2": (120, 20.1),
            "pi6_r7": (40, 62.8), "pi6_r15": (25, 77.4)}
    for rep in replay_published(512):
        terms, floor_digits = want[rep.label]
        assert rep.terms == terms
        assert rep.matched_digits > floor_digits, rep.label


def test_published_rhs_against_independent_pi():
    for entry in PUBLISHED_SERIES:
        spec = entry.to_spec(512)
        with mp.workprec(600):
            target = BigReal.of(
                entry.rhs_num.numerator / (mpmath.mpf(entry.rhs_num.denominator)
                                           * entry.rhs_den.eval(600).value
                                           * mpmath.pi ** (2 * entry.nu)), 512)
        rep = verify(spec, entry.default_terms, 512, target=target)
        assert rep.passed, entry.label


def test_example_pi6_r2_start_index_resolution():
    # the printed sum index starts at 1, but the right side equals the sum
    # from 0; the literal reading is off by exactly the n=0 term (=1)
    entry = PI6_R2
    assert entry.n_start_printed == 1
    assert entry.n_start_effective == 0
    spec = entry.to_spec(512)
    rhs = entry.rhs_value(512)
    s0 = evaluate(spec, 150, 512)
    with mp.workprec(520):
        literal = s0.value - 1  # subtracting the n=0 term gives the n>=1 sum
        assert abs(s0.value - rhs.value) < mpmath.mpf(10) ** -25
        assert abs(literal - rhs.value) > mpmath.mpf("0.9")


def test_truncation_error_model():
    # |S_N - S_inf| <= C |x|^N N^(2nu) with C fitted once on a coarse grid
    spec = PI4_R2.to_spec(512)
    ref = evaluate(spec, 400, 512)
    with mp.workprec(560):
        x = abs(spec.x.value)

        def err(n):
            return abs(evaluate(spec, n, 512).value - ref.value)

        fit_points = (10, 15, 20)
        C = max(err(n) / (x ** n * n ** 4) for n in fit_points)
        for n in (12, 25, 40, 80, 120):
            bound = 2 * C * x ** n * n ** 4  # small headroom on the fit
            assert err(n) <= bound, f"N={n}"


def test_corrupted_constant_sentinel():
    # bumping one published integer by 1 must break verification
    entry = perturbed(PI6_R7, 2)
    spec = entry.to_spec(512)
    rep = verify(spec, 40, 512, target=entry.rhs_value(512))
    assert not rep.passed
    assert rep.matched_digits < 10


def test_published_by_label():
    assert published_by_label("pi4_r2") is PI4_R2
    with pytest.raises(DomainError):
        published_by_label("nope")


# --------------------------------------------------------- serialization


def test_json_round_trip_loss_bound():
    spec = build_series(2, 2, P)
    text = to_json(spec)
    back = from_json(text)
    assert back.nu == spec.nu and back.r == spec.r
    assert back.n_start == spec.n_start
    assert abs((back.x - spec.x).value) < tol_bits(P, 4)
    assert abs((back.g - spec.g).value) < tol_bits(P, 4)
    for a, b in zip(back.bracket, spec.bracket):
        assert abs((a - b).value) < tol_bits(P, 4)


def test_json_is_deterministic_and_versioned():
    spec = build_series(3, 7, P)
    t1, t2 = to_json(spec), to_json(spec)
    assert t1 == t2
    doc = json.loads(t1)
    assert doc["schema"] == "piforge/1"
    assert doc["r"] == "7/1"
    assert len(doc["bracket_decimals"]) == 7


@functools.cache
def _spec_text() -> str:
    return to_json(build_series(2, 2, P))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# case -> (the to_json document made malformed, the DomainError's message)
_MALFORMED = {
    "schema": (lambda doc: {**doc, "schema": "piforge/0"}, "unsupported schema"),
    "n_start": (lambda doc: {**doc, "n_start": -1}, "n_start must be >= 0"),
    "x_decimal": (lambda doc: {**doc, "x_decimal": "0"}, "x = 0"),
    "g_decimal": (lambda doc: {**doc, "g_decimal": "0"}, "g = 0"),
    "bracket_decimals": (lambda doc: {**doc, "bracket_decimals": ["inf"] * 5}, "must be finite"),
    "missing": (lambda doc: _without(doc, "nu"), "has no field 'nu'"),
    "nu": (lambda doc: {**doc, "nu": "2.5"}, "field 'nu'"),
    "prec_bits": (lambda doc: {**doc, "prec_bits": 32}, "precision must be >= 64 bits"),
    "list": (lambda doc: [doc], "not a JSON object"),
    "text": (lambda doc: "not JSON", "not a JSON object"),
    "float_r": (lambda doc: {**doc, "r": 0.5}, "field 'r'"),
    # int() would read these as 2 and 1, and a string iterates digit by digit
    "float_nu": (lambda doc: {**doc, "nu": 2.9}, "field 'nu': expected a JSON integer"),
    "float_n_start": (lambda doc: {**doc, "n_start": 1.7},
                      "field 'n_start': expected a JSON integer"),
    "string_bracket": (lambda doc: {**doc, "bracket_decimals": "12345"},
                       "field 'bracket_decimals': expected a JSON list"),
    "bool_n_start": (lambda doc: {**doc, "n_start": True},
                     "field 'n_start': expected a JSON integer"),
    # str() would read these as "None" and "['a', 1]"
    "null_provenance": (lambda doc: {**doc, "provenance": None},
                        "field 'provenance': expected a JSON string"),
    "list_label": (lambda doc: {**doc, "label": ["a", 1]}, "field 'label': expected a JSON string"),
}


@pytest.mark.parametrize("field", list(_MALFORMED))
def test_from_json_rejects_unknown_schema(field):
    # an unknown schema, a malformed document and a spec that verify cannot
    # sum fail as they are read, each with a DomainError
    malform, message = _MALFORMED[field]
    bad = malform(json.loads(_spec_text()))
    with pytest.raises(DomainError, match=message):
        from_json(bad if isinstance(bad, str) else json.dumps(bad))


# replacement values for a field of a valid document; none asks for more
# than 4,096 bits or for a coefficient fill past n = 4,096, and the lists of
# five fit the nu = 2 bracket
_POOL = (None, True, 0, -1, 1, 3, 32, 63, 64, 4096, 2.5, float("inf"), float("nan"), "", "0",
         "-3", "2.5", "7/2", "1/0", "abc", "nan", "inf", "1e-30", "piforge/1", [], ["1"], {},
         ["1", "-2", "3", "0", "1e-30"], ["1", "0", "0", "0", "nan"])


@settings(derandomize=True, max_examples=200, deadline=2000)
@given(st.data())
def test_from_json_of_a_mutated_document_is_typed(data):
    # a dropped key, a replaced value or truncated text either reads and
    # verifies or raises a PiforgeError, never an untyped error
    text = _spec_text()
    doc = json.loads(text)
    kind = data.draw(st.sampled_from(("drop", "replace", "truncate")))
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        key = data.draw(st.sampled_from(sorted(doc)))
        doc = _without(doc, key) if kind == "drop" else {**doc, key: data.draw(st.sampled_from(_POOL))}
        text = json.dumps(doc)
    try:
        spec = from_json(text)
        verify(spec, 4, spec.prec)
    except PiforgeError:
        pass


def test_spec_invariants_enforced():
    spec = build_series(2, 2, P)
    with pytest.raises(DomainError):
        SeriesSpec(nu=2, r=spec.r, x=spec.x, bracket=spec.bracket[:3], g=spec.g)
    with pytest.raises(NonConvergentSeriesError):
        SeriesSpec(nu=2, r=spec.r, x=BigReal.of(2, P), bracket=spec.bracket, g=spec.g)
    for nu in (0, 4):
        with pytest.raises(DomainError, match=r"\{1, 2, 3\}"):
            SeriesSpec(nu=nu, r=spec.r, x=spec.x, bracket=(spec.bracket[0],) * (2 * nu + 1),
                       g=spec.g)
    with pytest.raises(DomainError, match="n_start"):
        dataclasses.replace(spec, n_start=-1)
    with pytest.raises(DomainError, match="x = 0"):
        dataclasses.replace(spec, x=BigReal.of(0, P))
    with pytest.raises(DomainError, match="g = 0"):
        dataclasses.replace(spec, g=BigReal.of(0, P))
    with pytest.raises(DomainError, match="must be finite"):
        dataclasses.replace(spec, g=BigReal.of("nan", P))
