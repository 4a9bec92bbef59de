"""The bundled property suite: one case per check, each at its own bound."""

import math

import pytest

from fraclab import selftest
from fraclab.keller_segel import _KSFlux
from fraclab.spectral import MultiplierSpec
from fraclab.sqg import _SQGFlux

# Printed by `fraclab selftest`, in this order.
CHECK_NAMES = [
    "spectral.roundtrip", "spectral.parseval", "spectral.hermitian",
    "spectral.multiplier_linearity", "spectral.power_composition", "spectral.partial_exact",
    "lp.partition_of_unity", "lp.almost_orthogonality", "lp.paraproduct_remote_zero",
    "lp.interpolation_constant_one", "lp.bernstein_annulus_stability",
    "lp.bernstein_smoothing_stability", "lp.derivative_equivalence", "lp.bony_reconstruction",
    "lp.chemin_lerner_minkowski",
    "semigroup.composition", "semigroup.t0_identity", "semigroup.block_monotonicity_grid",
    "semigroup.oracle_vs_riemann", "semigroup.oracle_slope",
    "sqg.divergence_free", "sqg.shell_steady_state", "sqg.mean_conservation", "sqg.l2_monotone",
    "sqg.dt_self_convergence", "sqg.quadratic_nonlinearity",
    "ks.potential_residual", "ks.mass_conservation", "ks.linear_limit", "ks.dt_self_convergence",
    "decay.exact_power_law", "decay.scale_invariance", "decay.window_reparameterization",
    "decay.sqg_ks_alpha1_identity",
    "cli.determinism", "cli.config_roundtrip",
]


@pytest.mark.parametrize("name", list(selftest.CHECKS), ids=str)
def test_check_passes_at_its_bound(name, tmp_path):
    inputs = {"tmp_base": tmp_path} if name.startswith("cli.") else {}
    result = selftest.CHECKS[name](**inputs)
    assert result.name == name
    assert math.isfinite(result.value) and math.isfinite(result.bound)
    assert result.passed, f"{name}: {result.value:.3e} > {result.bound:g} ({result.detail})"


def test_check_names_and_order_pinned():
    assert list(selftest.CHECKS) == CHECK_NAMES


def test_passed_is_value_within_bound():
    def result(value):
        return selftest.PropertyResult("x", value, 1e-12, "")

    assert result(1e-12).passed and result(-1.0).passed
    assert not result(2e-12).passed
    assert not result(math.nan).passed


@pytest.mark.parametrize("name", ["sqg.divergence_free", "sqg.shell_steady_state"])
def test_sqg_checks_see_the_stepper_velocity(name, monkeypatch):
    # u = (R1 theta, R2 theta) in the cached flux of the selftest grid: curl-free, not SQG
    flux = _SQGFlux.on(selftest.GRID)
    monkeypatch.setattr(flux, "u1", flux.symbol(MultiplierSpec.riesz(1)))
    monkeypatch.setattr(flux, "u2", flux.symbol(MultiplierSpec.riesz(2)))
    result = selftest.CHECKS[name]()
    assert not result.passed and result.value > 1e-3, result


def test_ks_check_sees_the_stepper_potential(monkeypatch):
    flux = _KSFlux.on(selftest.GRID)
    monkeypatch.setattr(flux, "inv_lap", 1.01 * flux.inv_lap)
    result = selftest.CHECKS["ks.potential_residual"]()
    assert not result.passed and result.value > 1e-3, result
