"""Pseudo-spectral solver for the fractional Keller-Segel system.

The cell density u drifts down the gradient of its self-generated potential
psi and diffuses fractionally (unit coefficients):

    du/dt + Lambda^alpha u + div(u grad psi) = 0,
    -Laplace psi = u - mean(u),  mean(psi) = 0.

On the torus the potential is defined mean-free; the drift term only sees
grad psi, which is independent of the mean of u, and the mean of u itself is
conserved exactly because the divergence kills the zero mode.

The critical exponent is alpha = 1; subcritical alpha in (1, 2] is allowed.
Positivity of u is not enforced by the spectral scheme; the running minimum
is tracked and reported.
Only the physics lives here: the state, the critical-norm index, the flux
``_KSFlux`` and the per-sample mass and minimum tracking; the time loop and
the run driver are the shared ones of ``evolution``. The tendency is
dealiased by the 2/3 rule on its input and its output: ``ks_rhs``,
``ks_potential`` and the stepper see only the modes with max(|k1|, |k2|) <=
n/3 of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import GridOperators, RunConfig, RunResult, integrate, run_flow
from .littlewood_paley import BesovParams, DyadicProfile
from .spectral import (
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    forward_transform,
    inverse_transform,
)

__all__ = ["KSState", "ks_potential", "ks_rhs", "ks_step", "run_ks", "ks_critical_norm_params"]


@dataclass
class KSState:
    """Cell density u at time t with dissipation exponent alpha."""

    u: RealField
    t: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise SpectralError(f"alpha must be in (0, 2], got {self.alpha}")

    def psi(self) -> RealField:
        """Chemoattractant concentration derived from the current density."""
        return ks_potential(self.u)


def ks_critical_norm_params(p: float = 2.0) -> BesovParams:
    """Scaling-critical norm index for the critical system: (-1 + 2/p, p, 1)."""
    return BesovParams(-1.0 + 2.0 / p, p, 1.0)


class _KSFlux(GridOperators):
    """Chemotactic drift down the self-generated potential on one grid.

    The stored symbols carry the 2/3 mask, and the outer divergence symbols
    carry the tendency's sign.
    """

    def __init__(self, grid):
        super().__init__(grid)
        self.inv_lap = self.symbol(MultiplierSpec.inverse_laplacian())
        self.div1, self.div2 = -self.d1, -self.d2
        self._psi, self._f = self.spectral(), self.spectral()
        self._g1, self._g2 = self.physical(), self.physical()

    def grad_psi(self, c_u):
        """Physical components of grad psi with psi = (-Laplace)^-1 (u - mean), u's band part."""
        c_psi = np.multiply(self.inv_lap, c_u[:, : self.band], out=self._psi)  # the symbol zeroes the mean
        return self.apply(self.d1, c_psi, self._g1), self.apply(self.d2, c_psi, self._g2)

    def rhs(self, c_u):
        """Spectral tendency -div(u grad psi) of u's band part, dealiased, zero mode 0; a new array."""
        g1, g2 = self.recall(c_u, self.grad_psi)
        w, prod = self.work
        w = self.to_phys(self.truncate(c_u, self._spec), out=w)
        out = self.tendency()
        f1 = self.to_spec(np.multiply(w, g1, out=prod), out=out[:, : self.band])
        f2 = self.to_spec(np.multiply(w, g2, out=prod), out=self._f)
        np.add(np.multiply(self.div1, f1, out=f1), np.multiply(self.div2, f2, out=f2), out=f1)
        return out

    def max_velocity(self, c_u):
        return self.speed(*self.remember(c_u, self.grad_psi(c_u)))


def ks_potential(u: RealField) -> RealField:
    """Mean-free potential psi solving -Laplace psi = u - mean(u) for the 2/3 band part of u,
    with the stepper's own inverse Laplacian; a new array on every call."""
    flux = _KSFlux.on(u.grid)
    return RealField(u.grid, flux.to_phys(np.multiply(flux.inv_lap, flux.to_spec(u.values))))


def ks_rhs(u: RealField) -> RealField:
    """Nonlinear tendency -div(u grad psi) of the 2/3 band part of u, dealiased, exactly mean-free."""
    flux = _KSFlux.on(u.grid)
    return RealField(u.grid, flux.to_phys(flux.rhs(flux.to_spec(u.values))))


def ks_step(state: KSState, dt: float) -> KSState:
    """One integrating-factor RK2 step; raises CFLError when dt is too big."""
    grid, flux = state.u.grid, _KSFlux.on(state.u.grid)
    c = integrate(grid, forward_transform(state.u).coefficients, state.alpha, dt, dt,
                  flux.rhs, flux.max_velocity, [], lambda t, c: None)[0]
    return KSState(inverse_transform(SpectralField(grid, c, check=False)), state.t + dt, state.alpha)


def run_ks(config: RunConfig, profile: DyadicProfile | None = None) -> RunResult:
    """Integrate to T recording configured norms, mass, and min(u); smallness
    is measured in the critical norm ``ks_critical_norm_params``."""
    flux = _KSFlux.on(config.grid())
    area = flux.grid.L ** 2
    minima, masses = [], []

    def track(t, c):
        minima.append(float(flux.to_phys(c).min()))  # c: the recorded half-plane
        masses.append(area * c[0, 0].real)

    result = run_flow("ks", flux, ks_critical_norm_params(), config, profile, track)
    drift = max(abs(m - masses[0]) for m in masses)  # masses[0]: the t = 0 record
    result.extras["min_u"] = min(minima)
    result.extras["mass_relative_drift"] = drift / (abs(masses[0]) or 1.0)
    return result
