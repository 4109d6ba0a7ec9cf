"""Coefficients, brackets, series construction, evaluation, replay, JSON."""

import json
import math
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from piforge import (BigReal, DomainError, InsufficientPrecisionError,
                     NonConvergentSeriesError, SeriesSpec, bracket_from_a,
                     build_series, c2, cp, evaluate, from_json,
                     replay_published, series, stirling_first, to_json, verify)
from piforge.bigreal import decimal_digits, round_to
from piforge.catalog import (PI4_R2, PI6_R2, PI6_R7, PUBLISHED_SERIES,
                             perturbed, published_by_label)
from piforge.elliptic import GUARD

from conftest import tol_bits

P = 256


# --------------------------------------------------------- coefficients


def test_c2_first_values():
    assert c2(0) == 1
    # hand expansion: two symmetric terms, each C(2,1)^3 = 8, over 64
    assert c2(1) == Fraction(16, 64) == Fraction(1, 4)
    assert c2(2) == Fraction(2 * 6 ** 3 + 8 * 8, 64 ** 2)


def test_c2_positive_with_settling_ratio():
    vals = [c2(n) for n in range(51)]
    assert all(v > 0 for v in vals)
    ratios = [vals[n + 1] / vals[n] for n in range(50)]
    # ratio tends to 1 from below and increases monotonically in the tail
    tail = ratios[10:]
    assert all(0 < float(x) < 1 for x in tail)
    assert all(tail[i] < tail[i + 1] for i in range(len(tail) - 1))


def test_c4_convolution():
    assert cp(4, 0) == 1
    assert cp(4, 1) == 2 * c2(0) * c2(1) == Fraction(1, 2)
    n = 9
    assert cp(4, n) == sum(c2(s) * c2(n - s) for s in range(n + 1))


def test_cp_rejects_odd_p():
    with pytest.raises(DomainError):
        cp(3, 1)
    with pytest.raises(DomainError):
        cp(4, -1)


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


def test_evaluate_bit_identical_to_fraction_path():
    # the former evaluate loop on Fraction coefficients: same chunks, same order
    prec, terms = 2048, 120
    spec = build_series(3, 7, prec)
    coeffs = _fraction_coefficients(6, terms)
    with mp.workprec(prec + 2 * GUARD + 48):
        bvals = [b.value for b in spec.bracket]
        total = chunk = mpmath.mpf(0)
        xn = mpmath.mpf(1)
        for n in range(terms):
            bn = mpmath.mpf(0)
            for b in reversed(bvals):
                bn = bn * n + b
            c = coeffs[n]
            chunk += mpmath.mpf(c.numerator) / c.denominator * xn * bn
            xn *= spec.x.value
            if (n + 1) % 32 == 0:
                total += chunk
                chunk = mpmath.mpf(0)
        total += chunk
    assert evaluate(spec, terms, prec).value == round_to(total, prec).value


def test_store_refills_after_clear():
    spec = PI6_R7.to_spec(P)
    before = (evaluate(spec, 40, P).value, [cp(6, n) for n in range(40)])
    for clear in (cp.cache_clear, series._store.cache_clear):
        clear()
        assert evaluate(spec, 40, P).value == before[0]
        assert [cp(6, n) for n in range(40)] == before[1]


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


def test_build_series_rejects_r1():
    with pytest.raises(NonConvergentSeriesError):
        build_series(2, 1, P)


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
    assert rep.matched_digits > rep.terms * rep.dpt - 10


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


def test_tail_majorant_finite_for_argument_near_one():
    # |x| = 1 - 2^-100 rounds to 1 at 64 bits; a stepped ratio bound would
    # never reach its geometric regime there
    spec = PI4_R2.to_spec(P)
    x = BigReal.of(1, P) - BigReal.of(2, P) ** -100
    near = SeriesSpec(nu=2, r=spec.r, x=x, bracket=spec.bracket, g=spec.g, prec=P)
    rep = verify(near, 5, P)
    assert math.isfinite(rep.threshold_digits)


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


def test_from_json_rejects_unknown_schema():
    spec = build_series(2, 2, P)
    doc = json.loads(to_json(spec))
    doc["schema"] = "piforge/0"
    with pytest.raises(DomainError):
        from_json(json.dumps(doc))


def test_spec_invariants_enforced():
    spec = build_series(2, 2, P)
    with pytest.raises(DomainError):
        SeriesSpec(nu=2, r=spec.r, x=spec.x, bracket=spec.bracket[:3],
                   g=spec.g, prec=P)
    with pytest.raises(NonConvergentSeriesError):
        SeriesSpec(nu=2, r=spec.r, x=BigReal.of(2, P), bracket=spec.bracket,
                   g=spec.g, prec=P)
