"""Acceptance suite.

Every numbered criterion of the build contract is asserted here at its
stated tolerance, and a PASS/FAIL line is printed per item (run pytest with
-s to see the lines inline; each assertion message carries the measured
numbers as well).

Known deliberate reds: three of the four replay digit targets in criterion 5
(series at their stated term counts) are arithmetically unattainable: with
the published constants, 120 terms of the 1/pi^4 series yield 23.74 matched
digits (target 25), 60 terms of the r=7 series yield 98.14 (target 100), and
120 terms of the r=2 1/pi^6 series yield 20.19 (target 25). The assertions
are kept exactly as stated rather than weakened; the companion diagnostic
test shows the same series reaching the targets at 126/62/146 terms.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

import piforge as pf
from piforge.alpha import t5_closed_form, t5_eta_form, t5_rr_form
from piforge.catalog import published_by_label
from piforge.identities import (eta_cube_residual, lambert_alpha_identity,
                                lambert_alpha_identity_plain_nome,
                                multiplier_route_residual, quintic_residual,
                                scaled_lambert_residual, t5_residual)

from conftest import base_modulus_alpha_4r, ke_at_u

P = 512
D140 = mpmath.mpf(10) ** -140
D130 = mpmath.mpf(10) ** -130
D60 = mpmath.mpf(10) ** -60
D40 = mpmath.mpf(10) ** -40
D30 = mpmath.mpf(10) ** -30


def report(item: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {item}: {'PASS' if ok else 'FAIL'} -- {detail}")


def bits(x) -> mpmath.mpf:
    return mpmath.mpf(2) ** x


# ---------------------------------------------------------------- 1


def test_criterion_1_defining_property():
    """r = 1..10 at 512 bits: |K(k')/K(k) - sqrt(r)| < 2^-480."""
    worst = mpmath.mpf(0)
    for r in range(1, 11):
        resid = pf.singular_modulus(r, P).defining_residual().value
        worst = max(worst, resid)
    ok = worst < bits(-480)
    report("1 (singular-modulus defining equation)", ok,
           f"worst residual {mpmath.nstr(worst, 6)} < 2^-480")
    assert ok, f"worst residual {worst}"


# ---------------------------------------------------------------- 2


def test_criterion_2_closed_forms_140_digits():
    s2 = pf.BigReal.of(2, P).sqrt()
    s5 = pf.BigReal.of(5, P).sqrt()
    s7 = pf.BigReal.of(7, P).sqrt()
    s15 = pf.BigReal.of(15, P).sqrt()
    checks = {
        "k2": abs((pf.singular_modulus(2, P).k - (s2 - 1)).value),
        "k7^2": abs((pf.singular_modulus(7, P).k ** 2 - (8 - 3 * s7) / 16).value),
        "a(2)": abs((pf.alpha_direct(2, P).value - (s2 - 1)).value),
        "a(7)": abs((pf.alpha_direct(7, P).value - (s7 - 2) / 2).value),
        "a(15)": abs((pf.alpha_direct(15, P).value - (s15 - s5 - 1) / 2).value),
    }
    worst = max(checks.values())
    ok = worst < D140
    report("2 (published closed forms to 140 digits)", ok,
           f"worst |diff| {mpmath.nstr(worst, 6)}")
    assert ok, {k: mpmath.nstr(v, 6) for k, v in checks.items()}


# ---------------------------------------------------------------- 3


def test_criterion_3_reduction_routes_130_digits():
    routes = {
        "a(4)": (pf.alpha_4r(pf.alpha_direct(1, P)), pf.alpha_direct(4, P)),
        "a(8)": (pf.alpha_4r(pf.alpha_direct(2, P)), pf.alpha_direct(8, P)),
        "a(9)": (pf.alpha_9r(pf.alpha_direct(1, P)), pf.alpha_direct(9, P)),
        "a(18)": (pf.alpha_9r(pf.alpha_direct(2, P)), pf.alpha_direct(18, P)),
        "a(25)": (pf.alpha_25r(pf.alpha_direct(1, P)), pf.alpha_direct(25, P)),
        "a(50)": (pf.alpha_25r(pf.alpha_direct(2, P)), pf.alpha_direct(50, P)),
    }
    worst = mpmath.mpf(0)
    for name, (via, direct) in routes.items():
        worst = max(worst, abs((via.value - direct.value).value))
    sentinel = abs((base_modulus_alpha_4r(pf.alpha_direct(1, P))
                    - pf.alpha_direct(4, P).value).value)
    ok = worst < D130 and sentinel >= mpmath.mpf("0.01")
    report("3 (reduction routes to 130 digits + wrong-form sentinel)", ok,
           f"worst route residual {mpmath.nstr(worst, 6)}; "
           f"base-modulus form off by {mpmath.nstr(sentinel, 6)}")
    assert worst < D130
    assert sentinel >= mpmath.mpf("0.01")


# ---------------------------------------------------------------- 4


def test_criterion_4_identity_suite_60_digits():
    residuals = {
        "weight-2 Lambert at r=3": lambert_alpha_identity(3, P),
        "weight-2 Lambert (plain nome) at r=2": lambert_alpha_identity_plain_nome(2, P),
        "T(5,1) vs closed form": t5_residual(t5_closed_form, 1, P),
        "scaled Lambert at (5,1)": scaled_lambert_residual(5, 1, P),
        "T(5,1) vs eta products": t5_residual(t5_eta_form, 1, P),
        "eta-cube bridge at r=2": eta_cube_residual(2, P),
        "T vs R-bracket at r=1": t5_residual(t5_rr_form, 1, P),
        "T vs R-bracket at r=2": t5_residual(t5_rr_form, 2, P),
        "multiplier route agreement at r=1": multiplier_route_residual(1, P),
        "degree-5 modular equation at r=1": quintic_residual(1, P),
    }
    worst = max(v.value for v in residuals.values())
    ok = worst < D60
    report("4 (identity suite to 60 digits)", ok,
           f"worst residual {mpmath.nstr(worst, 6)} over {len(residuals)} identities")
    assert ok, {k: mpmath.nstr(v.value, 6) for k, v in residuals.items()}


# ---------------------------------------------------------------- 5


def _replay_digits(label: str, terms: int):
    entry = published_by_label(label)
    spec = entry.to_spec(P)
    rep = pf.verify(spec, terms, P, target=entry.rhs_value(P))
    # the same comparison against g/pi^(2nu) with an independent pi
    with mp.workprec(P + 64):
        indep = pf.BigReal.of(spec.g.value / mpmath.pi ** (2 * spec.nu), P)
    rep2 = pf.verify(spec, terms, P, target=indep)
    return rep.matched_digits, rep2.matched_digits


@pytest.mark.parametrize("label,terms,target", [
    ("pi4_r2", 120, 25),
    ("pi6_r7", 60, 100),
    ("pi6_r15", 40, 120),
    ("pi6_r2", 120, 25),
])
def test_criterion_5_replay_digit_targets(label, terms, target):
    got, got_indep = _replay_digits(label, terms)
    ok = got >= target and got_indep >= target
    report(f"5 ({label}: >= {target} digits at {terms} terms)", ok,
           f"measured {got:.2f} (independent-pi target: {got_indep:.2f})")
    assert ok, (f"{label}: measured {got:.2f} matched digits at {terms} terms "
                f"(stated target {target}; see module docstring)")


def test_criterion_5_diagnostic_targets_reached_with_more_terms():
    """Not a stated criterion: the digit targets are reachable with slightly
    larger term counts; this pins the minimal counts."""
    for label, terms, target in (("pi4_r2", 126, 25), ("pi6_r7", 62, 100),
                                 ("pi6_r15", 40, 120), ("pi6_r2", 146, 25)):
        got, got_indep = _replay_digits(label, terms)
        assert got >= target and got_indep >= target, (label, got)
    report("5-diagnostic (targets at 126/62/40/146 terms)", True,
           "all four digit targets reached")


# ---------------------------------------------------------------- 6


def test_criterion_6_method_end_to_end():
    # closed-form A-coefficients for the quartic-bracket case at r=2
    from test_symbolic import nu2_closed_forms

    sol = pf.solve_coefficients(2, 2, P)
    closed, g = nu2_closed_forms(2, P)
    worst = mpmath.mpf(0)
    for m, want in enumerate(closed, start=1):
        worst = max(worst, abs(sol.a_coeffs[m].value - want))
    worst = max(worst, abs(sol.g.value - g))

    # solved r=7 bracket reproduces the published rationals exactly
    spec = pf.build_series(3, 7, P)
    printed = [Fraction(1), Fraction(913150, 307323), Fraction(-75313, 102441),
               Fraction(-4998980, 307323), Fraction(-1126755, 34147),
               Fraction(-1080450, 34147), Fraction(-453789, 34147)]
    exact = True
    with mp.workprec(P + 16):
        for j, want in enumerate(printed):
            scaled = spec.bracket[j].value * want.denominator
            exact &= abs(scaled - mpmath.nint(scaled)) < mpmath.mpf(10) ** -100
            exact &= int(mpmath.nint(scaled)) == want.numerator
    ok = worst < D130 and exact
    report("6 (solver vs closed forms; exact published bracket)", ok,
           f"worst coefficient residual {mpmath.nstr(worst, 6)}; "
           f"bracket exact: {exact}")
    assert worst < D130
    assert exact


# ---------------------------------------------------------------- 7


def test_criterion_7_rogers_ramanujan_battery():
    y_worst = max(v.value for v in pf.y_table_residuals(P).values())
    prop2_worst = mpmath.mpf(0)
    for r in (1, 2):
        alg = pf.a_r_algebraic(r, P)
        q = pf.nome(r, P)
        direct = pf.rr_eval(q * q, P).A
        prop2_worst = max(prop2_worst, abs((alg - direct).value))
    r68 = pf.r68_identity_residual(P).value
    ok = y_worst < D40 and prop2_worst < D60 and r68 < D30
    report("7 (Y table 40d; A cross-route 60d; r=68 identity 30d)", ok,
           f"Y worst {mpmath.nstr(y_worst, 6)}; cross-route worst "
           f"{mpmath.nstr(prop2_worst, 6)}; r68 {mpmath.nstr(r68, 6)}")
    assert y_worst < D40
    assert prop2_worst < D60
    assert r68 < D30


# ---------------------------------------------------------------- 8


def test_criterion_8_property_suite(capsys):
    lo, hi = 256, 512
    tol = bits(-(lo - 8))
    q_lo, q_hi = pf.nome(3, lo), pf.nome(3, hi)
    half = Fraction(1, 2)
    doubling = {
        "agm": (pf.agm(pf.BigReal.of(1, lo), pf.BigReal.of(half, lo), lo).value,
                pf.agm(pf.BigReal.of(1, hi), pf.BigReal.of(half, hi), hi).value),
        "ell_k": (pf.ell_k(pf.BigReal.of(half, lo), lo).value,
                  pf.ell_k(pf.BigReal.of(half, hi), hi).value),
        "ell_e": (pf.ell_e(pf.BigReal.of(half, lo), lo).value,
                  pf.ell_e(pf.BigReal.of(half, hi), hi).value),
        "nome": (q_lo.value, q_hi.value),
        "theta2": (pf.theta2(q_lo, lo).value, pf.theta2(q_hi, hi).value),
        "theta3": (pf.theta3(q_lo, lo).value, pf.theta3(q_hi, hi).value),
        "theta4": (pf.theta4(q_lo, lo).value, pf.theta4(q_hi, hi).value),
        "eta_f": (pf.eta_f(q_lo, lo).value, pf.eta_f(q_hi, hi).value),
        "eisenstein_p": (pf.eisenstein_p(q_lo, lo).value,
                         pf.eisenstein_p(q_hi, hi).value),
        "rr_eval.R": (pf.rr_eval(q_lo, lo).R.value, pf.rr_eval(q_hi, hi).R.value),
        "dk_dk": (pf.dk_dk(pf.singular_modulus(3, lo)).value,
                  pf.dk_dk(pf.singular_modulus(3, hi)).value),
        "k_r": (pf.singular_modulus(3, lo).k.value,
                pf.singular_modulus(3, hi).k.value),
    }
    worst_pair = max(abs(a - b) for a, b in doubling.values())
    ok_doubling = worst_pair < tol

    # Legendre relation at 10 seeded random moduli
    rng = random.Random(8128)
    pi_half = pf.pi_bits(hi) / 2
    worst_leg = mpmath.mpf(0)
    for _ in range(10):
        k = pf.BigReal.of(Fraction(rng.randint(5, 95), 100), hi)
        kp = (1 - k * k).sqrt()
        rel = (pf.ell_e(k, hi) * pf.ell_k(kp, hi) + pf.ell_e(kp, hi) * pf.ell_k(k, hi)
               - pf.ell_k(k, hi) * pf.ell_k(kp, hi))
        worst_leg = max(worst_leg, abs(rel.value - pi_half))
    ok_legendre = worst_leg < bits(-(hi - 16))

    # finite-difference check of the formal derivative d/du at 5 seeded
    # moduli, u0 = k0^2
    p = {(2, 1): (1,)}       # K^2 E
    dp = pf.diff_u(p)        # 2u(1-u) dp/du
    worst_fd = mpmath.mpf(0)
    for _ in range(5):
        u0 = Fraction(rng.randint(20, 80), 100) ** 2
        h = Fraction(1, 10 ** 12)
        with mp.workprec(420):
            fd = (ke_at_u(p, u0 + h, 400) - ke_at_u(p, u0 - h, 400)) / (2 * mpmath.mpf(10) ** -12)
            uv = mpmath.mpf(u0.numerator) / u0.denominator
            worst_fd = max(worst_fd, abs(fd - ke_at_u(dp, u0, 400) / (2 * uv * (1 - uv))))
    ok_fd = worst_fd < mpmath.mpf(10) ** -20

    # byte-identical JSON across repeated runs
    from piforge.cli import main
    argv = ["--format", "json", "--prec", "192", "series",
            "--nu", "2", "--r", "3", "--terms", "24"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    spec = pf.build_series(2, 3, 192)
    ok_json = out1 == out2 and pf.to_json(spec) == pf.to_json(spec)

    ok = ok_doubling and ok_legendre and ok_fd and ok_json
    report("8 (doubling; Legendre x10; finite differences x5; JSON determinism)",
           ok,
           f"doubling worst {mpmath.nstr(worst_pair, 6)}; Legendre worst "
           f"{mpmath.nstr(worst_leg, 6)}; FD worst {mpmath.nstr(worst_fd, 6)}; "
           f"JSON identical: {ok_json}")
    assert ok_doubling, f"doubling worst {worst_pair}"
    assert ok_legendre, f"Legendre worst {worst_leg}"
    assert ok_fd, f"FD worst {worst_fd}"
    assert ok_json
