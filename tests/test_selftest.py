"""The bundled property suite: one case per check, each at its own bound."""

import math

import pytest

from fraclab import selftest

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
    "sqg.divergence_free", "sqg.single_mode_linear", "sqg.mean_conservation", "sqg.l2_monotone",
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
