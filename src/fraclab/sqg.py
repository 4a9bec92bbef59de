"""Pseudo-spectral solver for the dissipative surface quasi-geostrophic flow.

The scalar theta (potential temperature) is advected by the divergence-free
velocity obtained from its own Riesz transforms,

    u = (-R2 theta, R1 theta),   R_i symbol: i xi_i / |xi|,

and damped by the fractional dissipation Lambda^alpha with unit viscosity:

    d theta/dt + u . grad theta + Lambda^alpha theta = 0.

Only the physics lives here: the state, the critical-norm index and the flux
``_SQGFlux``. Gradients and the velocity law are applied spectrally; the
advection product is formed pointwise and dealiased by the 2/3 rule. The
shared loop and driver of ``evolution`` apply exp(-dt |xi|^alpha) exactly,
so a single-mode state, whose self-advection vanishes identically, follows
the linear flow to rounding.
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

__all__ = ["SQGState", "sqg_velocity", "sqg_rhs", "sqg_step", "run_sqg", "critical_norm_params"]


@dataclass
class SQGState:
    """Scalar state theta at time t with dissipation exponent alpha."""

    theta: RealField
    t: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise SpectralError(f"alpha must be in (0, 2], got {self.alpha}")


def critical_norm_params(alpha: float, p: float = 2.0) -> BesovParams:
    """Scaling-critical norm index for the flow: (1 + 2/p - alpha, p, 1)."""
    return BesovParams(1.0 + 2.0 / p - alpha, p, 1.0)


class _SQGFlux(GridOperators):
    """Advection by the Riesz-transform velocity on one grid."""

    def __init__(self, grid):
        super().__init__(grid)
        self.riesz1 = self.symbol(MultiplierSpec.riesz(1))
        self.riesz2 = self.symbol(MultiplierSpec.riesz(2))

    def velocity(self, c_theta):
        """Physical velocity components (u1, u2) = (-R2 theta, R1 theta)."""
        u1 = self.to_phys(-self.riesz2 * c_theta)
        u2 = self.to_phys(self.riesz1 * c_theta)
        return u1, u2

    def rhs(self, c_theta):
        """Spectral tendency -(u . grad theta), dealiased."""
        u1, u2 = self.recall(c_theta, self.velocity)
        g1 = self.to_phys(self.d1 * c_theta)
        g2 = self.to_phys(self.d2 * c_theta)
        adv = self.to_spec(u1 * g1 + u2 * g2)
        return np.where(self.mask, -adv, 0.0)

    def max_velocity(self, c_theta):
        u1, u2 = self.remember(c_theta, self.velocity(c_theta))
        return float(np.sqrt(u1 * u1 + u2 * u2).max())


def sqg_velocity(theta: RealField):
    """Velocity fields (u1, u2) = (-R2 theta, R1 theta); divergence-free."""
    flux = _SQGFlux.on(theta.grid)
    u1, u2 = flux.velocity(flux.to_spec(theta.values))
    return RealField(theta.grid, u1), RealField(theta.grid, u2)


def sqg_rhs(theta: RealField) -> RealField:
    """Nonlinear tendency -(u . grad theta), dealiased, mean-free."""
    flux = _SQGFlux.on(theta.grid)
    return RealField(theta.grid, flux.to_phys(flux.rhs(flux.to_spec(theta.values))))


def sqg_step(state: SQGState, dt: float) -> SQGState:
    """One integrating-factor RK2 step; raises CFLError when dt is too big."""
    grid, flux = state.theta.grid, _SQGFlux.on(state.theta.grid)
    c = integrate(grid, forward_transform(state.theta).coefficients, state.alpha, dt, dt,
                  flux.rhs, flux.max_velocity, [], lambda t, c: None)[0]
    return SQGState(inverse_transform(SpectralField(grid, c, check=False)), state.t + dt, state.alpha)


def run_sqg(config: RunConfig, profile: DyadicProfile | None = None) -> RunResult:
    """Integrate to T recording the configured norms at the sample schedule;
    smallness is measured in the critical norm ``critical_norm_params``."""
    flux = _SQGFlux.on(config.grid())
    return run_flow("sqg", flux, critical_norm_params(config.alpha), config, profile)
