"""The cross-validating identity battery as a whole."""

from piforge.alpha import t5_closed_form, t5_eta_form, t5_rr_form
from piforge.identities import (eta_cube_residual, identity_battery,
                                lambert_alpha_identity,
                                lambert_alpha_identity_plain_nome,
                                multiplier_route_residual, quintic_residual,
                                scaled_lambert_residual, t5_residual)

from conftest import tol_bits

P = 320


def test_battery_all_pass():
    rows = identity_battery(P)
    assert len(rows) == 10
    for name, ok, residual, threshold in rows:
        assert ok, f"{name}: {residual} (gate {threshold})"


def test_battery_thresholds_scale_with_precision():
    rows = identity_battery(128)
    for name, ok, _, threshold in rows:
        assert threshold == "1e-24", name
        assert ok, name


def test_individual_residuals_tight():
    checks = [
        lambert_alpha_identity(3, P),
        lambert_alpha_identity_plain_nome(2, P),
        t5_residual(t5_closed_form, 1, P),
        scaled_lambert_residual(5, 1, P),
        t5_residual(t5_eta_form, 1, P),
        eta_cube_residual(2, P),
        t5_residual(t5_rr_form, 1, P),
        t5_residual(t5_rr_form, 2, P),
        multiplier_route_residual(1, P),
        quintic_residual(1, P),
    ]
    for i, resid in enumerate(checks):
        assert resid.value < tol_bits(P, 40), f"identity #{i}: {resid}"


def test_battery_sums_t51_once_per_precision(monkeypatch):
    # T_{5,1} is checked against three forms at one precision, and t_sum
    # keeps it; each t_sum takes two Eisenstein sums, and the battery's other
    # identities take three more
    from piforge import alpha, identities

    calls = []
    p_of = alpha.eisenstein_p

    def spy(q, prec):
        calls.append(prec)
        return p_of(q, prec)

    monkeypatch.setattr(alpha, "eisenstein_p", spy)
    monkeypatch.setattr(identities, "eisenstein_p", spy)
    alpha.t_sum.cache_clear()
    identity_battery(P)
    assert len(calls) == 7
    assert alpha.t_sum.cache_info().misses == 2    # T_{5,1} and T_{5,2}
    assert alpha.t_sum.cache_info().hits == 2
    calls.clear()
    alpha.t_sum.cache_clear()
    identity_battery(P)
    assert len(calls) == 7
