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

import operator
from dataclasses import dataclass

import numpy as np

from .core import AnisotropicModuli, ModelParams, lame_star
from .fields import FieldSource, _split_point

__all__ = [
    "ResidualVector",
    "residual_cartesian_iso",
    "residual_cartesian_aniso",
    "residual_radial_full",
    "residual_ring",
    "terzaghi_stress_radial",
    "CARTESIAN_EQUATIONS",
    "RING_EQUATIONS",
]

CARTESIAN_EQUATIONS = ("continuity", "momentum1", "momentum2",
                       "density", "porosity", "solute")
RING_EQUATIONS = ("continuity", "momentum", "density", "porosity")


@dataclass(frozen=True)
class ResidualVector:
    """Per-equation residual values at a query point, or arrays over points.

    ``max_abs`` reduces over equations and points.  ``scale``, which the
    Cartesian operator gives, holds the same rows evaluated on magnitudes,
    with differences taken as sums: the size that each row's rounding error
    grows with, and a bound on the row's value.
    """

    values: dict[str, float | np.ndarray]
    scale: dict[str, float | np.ndarray] | None = None

    def __getitem__(self, equation: str) -> float | np.ndarray:
        return self.values[equation]

    @property
    def equations(self) -> tuple[str, ...]:
        return tuple(self.values)

    def max_abs(self) -> float:
        """Largest magnitude over equations and points; NaN if any is NaN."""
        # Floats stay in plain Python: most callers take one point at a time.
        mags = [abs(v) if isinstance(v, float) else float(np.max(np.abs(v)))
                for v in self.values.values()]
        # Python's max drops a NaN that does not come first.  The sum of the
        # magnitudes is NaN exactly when one of them is.
        total = sum(mags)
        return max(mags) if total == total else total


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


# The (component, derivative in (t, x, y)) of each value the Cartesian rows
# read, in the order ``_cartesian_rows`` unpacks them.
_CARTESIAN_QUERIES = (
    ("u1", (1, 0, 0)), ("u2", (1, 0, 0)), ("u1", (2, 0, 0)), ("u2", (2, 0, 0)),
    ("u1", (1, 1, 0)), ("u2", (1, 0, 1)),
    ("u1", (0, 2, 0)), ("u1", (0, 0, 2)), ("u1", (0, 1, 1)),
    ("u2", (0, 2, 0)), ("u2", (0, 0, 2)), ("u2", (0, 1, 1)),
    ("rho", None), ("rho", (1, 0, 0)), ("rho", (0, 1, 0)), ("rho", (0, 0, 1)),
    ("thetaF", None), ("thetaF", (1, 0, 0)), ("thetaF", (0, 1, 0)),
    ("thetaF", (0, 0, 1)),
    ("c", None), ("c", (1, 0, 0)), ("c", (0, 1, 0)), ("c", (0, 0, 1)),
    ("c", (0, 2, 0)), ("c", (0, 0, 2)),
    ("p", (0, 1, 0)), ("p", (0, 0, 1)), ("p", (0, 2, 0)), ("p", (0, 0, 2)),
)


def _cartesian_rows(values, E: AnisotropicModuli, params: ModelParams, s1,
                    minus) -> dict[str, float | np.ndarray]:
    """The six Cartesian rows from the ``_CARTESIAN_QUERIES`` values.

    ``minus`` forms every difference: ``operator.sub`` gives the residuals,
    and ``operator.add`` on magnitudes gives their rounding scale, which
    bounds each residual since rounding to nearest is monotone.  k, D, S,
    rho_f0 and the stiffness entries are never negative.
    """
    (u1_t, u2_t, u1_tt, u2_tt, u1_tx, u2_ty, u1_xx, u1_yy, u1_xy,
     u2_xx, u2_yy, u2_xy, rho, rho_t, rho_x, rho_y, th, th_t, th_x, th_y,
     c, c_t, c_x, c_y, c_xx, c_yy, p_x, p_y, p_xx, p_yy) = values
    k, D, S = params.k, params.D, params.S_sieve
    c_lap = c_xx + c_yy
    ps_x = minus(p_x, s1 * c_x)
    ps_y = minus(p_y, s1 * c_y)
    ps_lap = minus(p_xx + p_yy, s1 * c_lap)

    div_ut = u1_tx + u2_ty
    inertia = rho_t + rho * div_ut
    f1, f2 = _elastic_force(E, u1_xx, u1_yy, u1_xy, u2_xx, u2_yy, u2_xy)
    cth_t = c_t * th + c * th_t
    cth_x = c_x * th + c * th_x
    cth_y = c_y * th + c * th_y
    return {
        "continuity": minus(2.0 * div_ut, k * ps_lap),
        "momentum1": minus(rho * u1_tt + u1_t * inertia, minus(f1, ps_x)),
        "momentum2": minus(rho * u2_tt + u2_t * inertia, minus(f2, ps_y)),
        "density": minus(rho_t + u1_t * rho_x + u2_t * rho_y,
                         k * minus(params.rho_f0, rho) * ps_lap),
        "porosity": minus(th_t + u1_t * th_x + u2_t * th_y,
                          k * minus(1.0, th) * ps_lap),
        "solute": minus(minus(minus(cth_t + u1_t * cth_x + u2_t * cth_y,
                                    D * c_lap),
                              k * minus(S, th) * c * ps_lap),
                        k * S * (c_x * ps_x + c_y * ps_y)),
    }


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

    ``point`` is (t, x, y) of floats, or of arrays (n stacked points, say);
    the operator is elementwise, so each residual then equals the float
    query at its point bit for bit.  The momentum pair carries the elastic
    force of the stiffness matrix ``moduli``; the volume-balance residual
    is doubled relative to the halved-conductivity form.  Effective
    pressure p - sigma1*c is substituted internally, so the field only
    supplies the primitive components.

    ``scale`` is the same rows evaluated on magnitudes: every derivative
    and sigma1 replaced by its absolute value, and every difference taken
    as a sum.
    """
    point = _split_point(point, 3)
    e = field.eval
    values = [e(name, point, d) for name, d in _CARTESIAN_QUERIES]
    return ResidualVector(
        _cartesian_rows(values, moduli, params, params.sigma1, operator.sub),
        _cartesian_rows(map(abs, values), moduli, params,
                        abs(params.sigma1), operator.add))


def _positive(r) -> bool:
    """Whether the radius r, a float or an array, is > 0 at every element;
    NaN is not.  A float takes no numpy call."""
    return bool(np.all(r > 0.0)) if isinstance(r, np.ndarray) else r > 0.0


def residual_radial_full(field: FieldSource, params: ModelParams,
                         point) -> ResidualVector:
    """Residuals of the six-equation system in polar coordinates (t, r, phi).

    The volume-balance, density, porosity and solute equations appear in
    their r-multiplied polar form, so they equal r times their Cartesian
    counterparts under the coordinate transform; the momentum pair equals
    the rotated Cartesian momentum residuals.
    """
    point = _split_point(point, 3)
    t, r, phi = point
    if not _positive(r):
        raise ValueError(f"polar residuals need r > 0, got r = {r}")
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
    point = _split_point(point, 2)
    t, r = point
    if not _positive(r):
        raise ValueError(f"ring residuals need r > 0, got r = {r}")
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


def terzaghi_stress_radial(w: float, w_r: float, P: float, r: float,
                           params: ModelParams) -> tuple[float, float]:
    """Diagonal Terzaghi stress components for a radially symmetric state.

    Returns (tau_rr, tau_phiphi); the radial traction tau_rr is what the
    boundary load balances.  Accepts floats or arrays.
    """
    if not _positive(r):
        raise ValueError("stress evaluation requires r > 0")
    ls = lame_star(params)
    tau11 = -P + ls * w_r + params.lam / r * w
    tau22 = -P + params.lam * w_r + ls / r * w
    return tau11, tau22
