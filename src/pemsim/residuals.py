"""Pointwise residual operators for the poroelastic transport systems.

Every operator returns left-hand side minus right-hand side of the
governing equations, so the residual of an exact solution is identically
zero.  That fixed sign convention makes these operators the universal test
oracle: manufactured fields probe single terms, closed-form solutions must
annihilate the full vector, and grid-backed evaluation must converge at
second order.

Coordinate conventions:

* Cartesian operators query points ``(t, x, y)`` with components
  ``u1, u2, p, rho, thetaF, c``;
* the full polar operator queries ``(t, r, phi)`` with components
  ``w1, w2, P, rho, theta, C`` (w1 radial, w2 tangential displacement);
* the radially symmetric ring operator queries ``(t, r)`` with components
  ``w, P, rho, theta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AnisotropicModuli, ModelParams, lame_star, mixture_fields
from .fields import FieldSource

__all__ = [
    "ResidualVector",
    "FluxBundle",
    "residual_cartesian_iso",
    "residual_cartesian_aniso",
    "residual_radial_full",
    "residual_ring",
    "fluxes",
    "terzaghi_stress_radial",
    "CARTESIAN_EQUATIONS",
    "RING_EQUATIONS",
]

CARTESIAN_EQUATIONS = ("continuity", "momentum1", "momentum2",
                       "density", "porosity", "solute")
RING_EQUATIONS = ("continuity", "momentum", "density", "porosity")


@dataclass(frozen=True)
class ResidualVector:
    """Per-equation residual values at a query point."""

    values: dict[str, float]

    def __getitem__(self, equation: str) -> float:
        return self.values[equation]

    @property
    def equations(self) -> tuple[str, ...]:
        return tuple(self.values)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values.values())


def _elastic_force(E: AnisotropicModuli, u1_xx, u1_yy, u1_xy,
                   u2_xx, u2_yy, u2_xy):
    """Divergence of the elastic stress of (u1, u2) from its second derivatives.

    The isotropic terms are summed first, so under the isotropic embedding
    (e13 = e23 = 0) the pair rounds like the Lame form
    lam_star*u1_xx + mu*u1_yy + (lam + mu)*u2_xy.  Accepts floats or arrays.
    """
    f1 = (E.e11 * u1_xx + E.e33 * u1_yy + (E.e12 + E.e33) * u2_xy
          + E.e13 * u2_xx + E.e23 * u2_yy + 2.0 * E.e13 * u1_xy)
    f2 = (E.e22 * u2_yy + E.e33 * u2_xx + (E.e12 + E.e33) * u1_xy
          + E.e13 * u1_xx + E.e23 * u1_yy + 2.0 * E.e23 * u2_xy)
    return f1, f2


def residual_cartesian_iso(field: FieldSource, params: ModelParams,
                           point) -> ResidualVector:
    """Residuals of the isotropic six-equation Cartesian system at a point.

    The anisotropic operator evaluated at the isotropic embedding of the
    Lame coefficients.
    """
    return residual_cartesian_aniso(
        field, AnisotropicModuli.isotropic(params.lam, params.mu), params, point)


def residual_cartesian_aniso(field: FieldSource, moduli: AnisotropicModuli,
                             params: ModelParams, point) -> ResidualVector:
    """Residuals of the six-equation Cartesian system at a point.

    The momentum pair carries the elastic force of the stiffness matrix
    ``moduli``; the volume-balance residual is doubled relative to the
    halved-conductivity form.  Effective pressure p - sigma1*c is
    substituted internally, so the field only supplies the primitive
    components.
    """
    e = field.eval
    s1, k, D, S = params.sigma1, params.k, params.D, params.S_sieve
    u1_t = e("u1", point, (1, 0, 0))
    u2_t = e("u2", point, (1, 0, 0))
    u1_tt = e("u1", point, (2, 0, 0))
    u2_tt = e("u2", point, (2, 0, 0))
    u1_tx = e("u1", point, (1, 1, 0))
    u2_ty = e("u2", point, (1, 0, 1))
    u1_xx = e("u1", point, (0, 2, 0))
    u1_yy = e("u1", point, (0, 0, 2))
    u1_xy = e("u1", point, (0, 1, 1))
    u2_xx = e("u2", point, (0, 2, 0))
    u2_yy = e("u2", point, (0, 0, 2))
    u2_xy = e("u2", point, (0, 1, 1))
    rho = e("rho", point)
    rho_t = e("rho", point, (1, 0, 0))
    rho_x = e("rho", point, (0, 1, 0))
    rho_y = e("rho", point, (0, 0, 1))
    th = e("thetaF", point)
    th_t = e("thetaF", point, (1, 0, 0))
    th_x = e("thetaF", point, (0, 1, 0))
    th_y = e("thetaF", point, (0, 0, 1))
    c = e("c", point)
    c_t = e("c", point, (1, 0, 0))
    c_x = e("c", point, (0, 1, 0))
    c_y = e("c", point, (0, 0, 1))
    c_lap = e("c", point, (0, 2, 0)) + e("c", point, (0, 0, 2))
    ps_x = e("p", point, (0, 1, 0)) - s1 * c_x
    ps_y = e("p", point, (0, 0, 1)) - s1 * c_y
    ps_lap = e("p", point, (0, 2, 0)) + e("p", point, (0, 0, 2)) - s1 * c_lap

    div_ut = u1_tx + u2_ty
    continuity = 2.0 * div_ut - k * ps_lap
    inertia = rho_t + rho * div_ut
    f1, f2 = _elastic_force(moduli, u1_xx, u1_yy, u1_xy, u2_xx, u2_yy, u2_xy)
    mom1 = rho * u1_tt + u1_t * inertia - (f1 - ps_x)
    mom2 = rho * u2_tt + u2_t * inertia - (f2 - ps_y)
    density = (rho_t + u1_t * rho_x + u2_t * rho_y
               - k * (params.rho_f0 - rho) * ps_lap)
    porosity = th_t + u1_t * th_x + u2_t * th_y - k * (1.0 - th) * ps_lap
    cth_t = c_t * th + c * th_t
    cth_x = c_x * th + c * th_x
    cth_y = c_y * th + c * th_y
    solute = (cth_t + u1_t * cth_x + u2_t * cth_y - D * c_lap
              - k * (S - th) * c * ps_lap - k * S * (c_x * ps_x + c_y * ps_y))
    return ResidualVector({
        "continuity": continuity, "momentum1": mom1, "momentum2": mom2,
        "density": density, "porosity": porosity, "solute": solute,
    })


def residual_radial_full(field: FieldSource, params: ModelParams,
                         point) -> ResidualVector:
    """Residuals of the six-equation system in polar coordinates (t, r, phi).

    The volume-balance, density, porosity and solute equations appear in
    their r-multiplied polar form, so they equal r times their Cartesian
    counterparts under the coordinate transform; the momentum pair equals
    the rotated Cartesian momentum residuals.
    """
    t, r, phi = point
    if r <= 0.0:
        raise ValueError("polar residuals are singular at r <= 0")
    e = field.eval
    k, D, S = params.k, params.D, params.S_sieve
    ls, mu = lame_star(params), params.mu

    w1_t = e("w1", point, (1, 0, 0))
    w2_t = e("w2", point, (1, 0, 0))
    w1_tt = e("w1", point, (2, 0, 0))
    w2_tt = e("w2", point, (2, 0, 0))
    w1_tr = e("w1", point, (1, 1, 0))
    w2_tphi = e("w2", point, (1, 0, 1))
    w1 = e("w1", point)
    w2 = e("w2", point)
    w1_r = e("w1", point, (0, 1, 0))
    w2_r = e("w2", point, (0, 1, 0))
    w1_rr = e("w1", point, (0, 2, 0))
    w2_rr = e("w2", point, (0, 2, 0))
    w1_phi = e("w1", point, (0, 0, 1))
    w2_phi = e("w2", point, (0, 0, 1))
    w1_pp = e("w1", point, (0, 0, 2))
    w2_pp = e("w2", point, (0, 0, 2))
    w1_rphi = e("w1", point, (0, 1, 1))
    w2_rphi = e("w2", point, (0, 1, 1))
    P_r = e("P", point, (0, 1, 0))
    P_rr = e("P", point, (0, 2, 0))
    P_phi = e("P", point, (0, 0, 1))
    P_pp = e("P", point, (0, 0, 2))
    rho = e("rho", point)
    rho_t = e("rho", point, (1, 0, 0))
    rho_r = e("rho", point, (0, 1, 0))
    rho_phi = e("rho", point, (0, 0, 1))
    th = e("theta", point)
    th_t = e("theta", point, (1, 0, 0))
    th_r = e("theta", point, (0, 1, 0))
    th_phi = e("theta", point, (0, 0, 1))
    C = e("C", point)
    C_t = e("C", point, (1, 0, 0))
    C_r = e("C", point, (0, 1, 0))
    C_rr = e("C", point, (0, 2, 0))
    C_phi = e("C", point, (0, 0, 1))
    C_pp = e("C", point, (0, 0, 2))

    lapP_r = P_pp / r + P_r + r * P_rr  # r times the polar Laplacian of P
    lapC_r = C_pp / r + C_r + r * C_rr

    continuity = (w1_t + r * w1_tr + w2_tphi
                  - k / (2.0 * r) * P_pp - 0.5 * k * (P_r + r * P_rr))
    inertia = rho_t + rho * w1_tr + rho * w1_t / r + rho * w2_tphi / r
    mom_r = (w1_t * inertia + rho * w1_tt
             - (-P_r + ls * w1_rr + ls / r * w1_r - ls / r**2 * w1
                + ((ls - mu) * r * w2_rphi + mu * w1_pp
                   - (ls + mu) * w2_phi) / r**2))
    mom_phi = (w2_t * inertia + rho * w2_tt
               - (-P_phi / r + mu * w2_rr + mu / r * w2_r - mu / r**2 * w2
                  + ((ls - mu) * r * w1_rphi + ls * w2_pp
                     + (ls + mu) * w1_phi) / r**2))
    density = (r * rho_t + r * rho_r * w1_t + rho_phi * w2_t
               - k * (params.rho_f0 - rho) * lapP_r)
    porosity = (r * th_t + r * th_r * w1_t + th_phi * w2_t
                - k * (1.0 - th) * lapP_r)
    cth_t = C_t * th + C * th_t
    cth_r = C_r * th + C * th_r
    cth_phi = C_phi * th + C * th_phi
    solute = (r * cth_t + r * cth_r * w1_t + cth_phi * w2_t
              - D * lapC_r - k * (S - th) * C * lapP_r
              - k * S / r * (C_phi * P_phi + r**2 * C_r * P_r))
    return ResidualVector({
        "continuity": continuity, "momentum1": mom_r, "momentum2": mom_phi,
        "density": density, "porosity": porosity, "solute": solute,
    })


def residual_ring(field: FieldSource, params: ModelParams,
                  point) -> ResidualVector:
    """Residuals of the radially symmetric ring system at (t, r).

    Four equations (volume balance, radial momentum, density, porosity);
    tangential displacement and solute are absent by the radial ansatz.
    """
    t, r = point
    if r <= 0.0:
        raise ValueError("ring residuals are singular at r <= 0")
    e = field.eval
    k, ls = params.k, lame_star(params)

    w = e("w", point)
    w_t = e("w", point, (1, 0))
    w_tt = e("w", point, (2, 0))
    w_r = e("w", point, (0, 1))
    w_rr = e("w", point, (0, 2))
    w_tr = e("w", point, (1, 1))
    P_r = e("P", point, (0, 1))
    P_rr = e("P", point, (0, 2))
    rho = e("rho", point)
    rho_t = e("rho", point, (1, 0))
    rho_r = e("rho", point, (0, 1))
    th = e("theta", point)
    th_t = e("theta", point, (1, 0))
    th_r = e("theta", point, (0, 1))

    lapP = P_rr + P_r / r
    continuity = w_tr + w_t / r - 0.5 * k * lapP
    momentum = (w_t * (rho_t + rho * w_tr + rho * w_t / r) + rho * w_tt
                - (-P_r + ls * w_rr + ls / r * w_r - ls / r**2 * w))
    density = rho_t + rho_r * w_t - k * (params.rho_f0 - rho) * lapP
    porosity = th_t + th_r * w_t - k * (1.0 - th) * lapP
    return ResidualVector({
        "continuity": continuity, "momentum": momentum,
        "density": density, "porosity": porosity,
    })


@dataclass(frozen=True)
class FluxBundle:
    """The five flux vectors at a point (each a length-2 array)."""

    j_VF: np.ndarray
    j_VM: np.ndarray
    j_V: np.ndarray
    j_rho: np.ndarray
    j_S: np.ndarray


def fluxes(field: FieldSource, params: ModelParams, point) -> FluxBundle:
    """Volumetric, mass and solute flux vectors at a Cartesian point.

    The total fluxes are assembled as the phase sums, so the identities
    j_V = j_VF + j_VM and j_rho = rho_F*j_VF + rho_M*j_VM hold by
    construction.
    """
    e = field.eval
    u_t = np.array([e("u1", point, (1, 0, 0)), e("u2", point, (1, 0, 0))])
    grad_p = np.array([e("p", point, (0, 1, 0)), e("p", point, (0, 0, 1))])
    grad_c = np.array([e("c", point, (0, 1, 0)), e("c", point, (0, 0, 1))])
    thetaF = e("thetaF", point)
    rho = e("rho", point)
    c = e("c", point)
    grad_ps = grad_p - params.sigma1 * grad_c

    j_VF = thetaF * u_t - params.k * grad_ps
    j_VM = (1.0 - thetaF) * u_t
    j_V = j_VF + j_VM
    _, rhoM = mixture_fields(thetaF, rho, params)
    j_rho = params.rho_f0 * j_VF + rhoM * j_VM
    j_S = -params.D * grad_c + params.S_sieve * c * j_VF
    return FluxBundle(j_VF=j_VF, j_VM=j_VM, j_V=j_V, j_rho=j_rho, j_S=j_S)


def terzaghi_stress_radial(w: float, w_r: float, P: float, r: float,
                           params: ModelParams) -> tuple[float, float]:
    """Diagonal Terzaghi stress components for a radially symmetric state.

    Returns (tau_rr, tau_phiphi); the radial traction tau_rr is what the
    boundary load balances.
    """
    if r <= 0.0:
        raise ValueError("stress evaluation requires r > 0")
    ls = lame_star(params)
    tau11 = -P + ls * w_r + params.lam / r * w
    tau22 = -P + params.lam * w_r + ls / r * w
    return tau11, tau22
