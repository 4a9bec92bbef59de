"""Pseudo-spectral solver for the dissipative surface quasi-geostrophic flow.

The scalar theta (potential temperature) is advected by the divergence-free
velocity obtained from its own Riesz transforms,

    u = (-R2 theta, R1 theta),   R_i symbol: i xi_i / |xi|,

and damped by the fractional dissipation Lambda^alpha with unit viscosity:

    d theta/dt + u . grad theta + Lambda^alpha theta = 0.

Only the physics lives here: the critical-norm index and the flux
``_SQGFlux``. Gradients and the velocity law are applied spectrally; the
advection product is formed pointwise and dealiased by the 2/3 rule, which
the tendency also applies to its input: ``sqg_rhs``, ``sqg_velocity`` and the
stepper see only the modes with max(|k1|, |k2|) <= n/3 of theta, so the
product of two band fields has no aliased part in the band. The shared loop
and driver of ``evolution`` apply exp(-dt |xi|^alpha) exactly. A state whose
spectrum lies on one lattice shell |k|^2 = K^2 has u = grad^perp theta / |xi|
with |xi| constant, so u . grad theta vanishes identically and the state
follows the linear flow to rounding at any amplitude.
"""

from __future__ import annotations

import numpy as np

from .evolution import GridOperators, RunConfig, RunResult, integrate, run_flow
from .littlewood_paley import BesovParams, DyadicProfile
from .spectral import MultiplierSpec, RealField, forward_half_plane, inverse_real

__all__ = ["sqg_velocity", "sqg_rhs", "sqg_step", "run_sqg", "critical_norm_params"]


def critical_norm_params(alpha: float, p: float = 2.0) -> BesovParams:
    """Scaling-critical norm index for the flow: (1 + 2/p - alpha, p, 1)."""
    return BesovParams(1.0 + 2.0 / p - alpha, p, 1.0)


class _SQGFlux(GridOperators):
    """Advection by the Riesz-transform velocity on one grid.

    The stored symbols carry the 2/3 mask, and the gradient symbols carry
    the tendency's sign, so u . g with g = -grad theta is the tendency itself.
    """

    def __init__(self, grid):
        super().__init__(grid)
        self.u1 = -self.symbol(MultiplierSpec.riesz(2))
        self.u2 = self.symbol(MultiplierSpec.riesz(1))
        self.g1, self.g2 = -self.d1, -self.d2
        self._v1, self._v2 = self.physical(), self.physical()

    def velocity(self, c_theta):
        """Physical velocity (u1, u2) = (-R2 theta, R1 theta) of the band part of theta."""
        return self.apply(self.u1, c_theta, self._v1), self.apply(self.u2, c_theta, self._v2)

    def rhs(self, c_theta):
        """Spectral tendency -(u . grad theta) of the band part of theta, dealiased; a new array."""
        u1, u2 = self.recall(c_theta, self.velocity)
        g, adv = self.work
        np.multiply(u1, self.apply(self.g1, c_theta, g), out=adv)
        np.add(adv, np.multiply(u2, self.apply(self.g2, c_theta, g), out=g), out=adv)
        return self.to_spec(adv)

    def max_velocity(self, c_theta):
        return self.speed(*self.remember(c_theta, self.velocity(c_theta)))


def sqg_velocity(theta: RealField):
    """Velocity fields (u1, u2) = (-R2 theta, R1 theta) of the 2/3 band part of theta,
    the stepper's own; divergence-free, new arrays on every call."""
    flux = _SQGFlux.on(theta.grid)
    c = flux.to_spec(theta.values)
    return RealField(theta.grid, flux.apply(flux.u1, c)), RealField(theta.grid, flux.apply(flux.u2, c))


def sqg_rhs(theta: RealField) -> RealField:
    """Nonlinear tendency -(u . grad theta) of the 2/3 band part of theta, dealiased, mean-free."""
    flux = _SQGFlux.on(theta.grid)
    return RealField(theta.grid, flux.to_phys(flux.rhs(flux.to_spec(theta.values))))


def sqg_step(theta: RealField, alpha: float, dt: float) -> RealField:
    """theta after one integrating-factor RK2 step of size dt on the rfft2 half-plane; raises
    CFLError when dt is too big and SpectralError unless alpha is in (0, 2] and dt is positive
    and finite."""
    grid, flux = theta.grid, _SQGFlux.on(theta.grid)
    c = integrate(grid, forward_half_plane(theta.values), alpha, dt, dt,
                  flux.rhs, flux.max_velocity, [], lambda t, c: None)[0]
    return RealField(grid, inverse_real(c))


def run_sqg(config: RunConfig, profile: DyadicProfile | None = None) -> RunResult:
    """Integrate to T recording the configured norms at the sample schedule;
    smallness is measured in the critical norm ``critical_norm_params``."""
    flux = _SQGFlux.on(config.grid())
    return run_flow("sqg", flux, critical_norm_params(config.alpha), config, profile)
