"""Public entry points against the ambient mpmath precision.

The suite runs at an ambient 1536 bits (conftest.py); library callers run at
mpmath's 53-bit default. Every entry point pins its own working precision, so
each one must give the same bits inside ``mp.workprec(53)`` as at the
suite's precision. Both runs start from emptied caches, so a value cached
from the other run cannot hide a difference.
"""

from fractions import Fraction

import pytest
from mpmath import mp

import piforge as pf
from piforge import identities

from conftest import clear_caches


def spec(prec):
    return pf.build_series(1, Fraction(13, 2), prec)


ENTRY_POINTS = {
    "agm": lambda p: pf.agm(1, Fraction(1, 3), p),
    "ell_k": lambda p: pf.ell_k(Fraction(3, 5), p),
    "ell_e": lambda p: pf.ell_e(Fraction(3, 5), p),
    "nome": lambda p: pf.nome(Fraction(7, 2), p),
    "singular_modulus": lambda p: pf.singular_modulus(Fraction(1, 3), p),
    "theta4": lambda p: pf.theta4(Fraction(1, 10), p),
    "eisenstein_p": lambda p: pf.eisenstein_p(Fraction(1, 10), p),
    "t_sum": lambda p: pf.t_sum(5, 1, p),
    "alpha_direct": lambda p: pf.alpha_direct(Fraction(7, 2), p),
    "alpha_4r": lambda p: pf.alpha_4r(pf.alpha_direct(2, p)),
    "alpha_9r": lambda p: pf.alpha_9r(pf.alpha_direct(1, p)),
    "alpha_25r": lambda p: pf.alpha_25r(pf.alpha_direct(1, p)),
    "quartic_root": lambda p: pf.triple_modulus_quartic_root(2, p),
    "multiplier": lambda p: pf.multiplier(5, 2, p),
    "t5_closed_form": lambda p: pf.t5_closed_form(1, p),
    "t5_eta_form": lambda p: pf.t5_eta_form(1, p),
    "t5_rr_form": lambda p: pf.t5_rr_form(2, p),
    "a_r_algebraic": lambda p: pf.a_r_algebraic(2, p),
    "rr_convergents": lambda p: pf.rr_convergents(Fraction(1, 10), p),
    "y_value": lambda p: pf.y_value(Fraction(3, 5), p),
    "y_closed_form": lambda p: pf.y_closed_form(Fraction(9, 5), p),
    "build_series": lambda p: pf.build_series(2, Fraction(29, 2), p),
    "dpt": lambda p: spec(p).dpt(),
    "target": lambda p: spec(p).target(p),
    "verify": lambda p: pf.verify(spec(p), 30, p),
    "json_round_trip": lambda p: pf.from_json(pf.to_json(spec(p))),
    "replay_published": lambda p: pf.replay_published(p),
    "y_table_residuals": lambda p: pf.y_table_residuals(p),
    "r68_identity_residual": lambda p: pf.r68_identity_residual(p),
    "identity_battery": lambda p: identities.identity_battery(p),
    "defining_residual": lambda p: pf.singular_modulus(Fraction(7, 2), p).defining_residual(),
    "dk_dk": lambda p: pf.dk_dk(pf.singular_modulus(3, p)),
}


@pytest.mark.parametrize("prec", [256, 1040])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_ignores_the_ambient_precision(name, prec):
    call = ENTRY_POINTS[name]
    clear_caches()
    at_suite = call(prec)
    clear_caches()
    with mp.workprec(53):
        at_default = call(prec)
    assert at_default == at_suite
