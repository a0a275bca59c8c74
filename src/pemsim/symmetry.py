"""Point-symmetry transforms of the governing system and invariance checks.

The isotropic system admits, besides translations, a concentration scaling,
a time-dependent shift of the effective pressure, shifts of the
displacement pair by any solution of a linear elastostatic system, and
joint rotations of coordinates and displacement.  Each symmetry is realized
here as a finite transformation acting on a field source; invariance is
verified numerically by comparing residuals before and after the
transformation, which is the literal statement of "solutions map to
solutions" at the level of arbitrary smooth fields.

Displacement generators come from a harmonic-potential kernel: with phi and
psi harmonic, G1 = phi_x + psi_y and G2 = phi_y - psi_x satisfy the
generator system identically, because the reduced first-order system is the
Cauchy-Riemann pair and both reduced combinations collapse to Laplacians of
the potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
import scipy.linalg

from .core import AnisotropicModuli, ModelParams
from .fields import FieldSource, GridFieldSource
from .polynomials import Poly2
from .residuals import (CARTESIAN_EQUATIONS, _elastic_force,
                        residual_cartesian_aniso)
# Unused here, but benchmarks/tracing.py patches this name on this module.
from .residuals import residual_cartesian_iso  # noqa: F401

__all__ = [
    "TimeFunction",
    "PlaneFunction",
    "HarmonicPotentialPair",
    "GroupElement",
    "TransformedFieldSource",
    "apply_group",
    "generate_displacement_symmetry",
    "displacement_symmetry_residual",
    "verify_displacement_symmetry",
    "verify_displacement_symmetry_aniso",
    "random_displacement_symmetry_aniso",
    "InvarianceRow",
    "InvarianceReport",
    "check_invariance",
    "cartesian_to_polar",
    "polar_samples_from_cartesian",
    "DEFAULT_SAMPLE_POINTS",
]


class PlaneFunction(Protocol):
    """A twice-differentiable function of the plane coordinates."""

    def eval_deriv(self, x: float, y: float, nx: int = 0, ny: int = 0) -> float:
        ...


@dataclass(frozen=True)
class TimeFunction:
    """A time profile with its first two derivatives (pressure-shift payload)."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]

    def deriv(self, t: float, order: int) -> float:
        if order == 0:
            return float(self.f(t))
        if order == 1:
            return float(self.df(t))
        if order == 2:
            return float(self.d2f(t))
        raise ValueError(f"time derivative order {order} not available")

    @classmethod
    def sine(cls) -> "TimeFunction":
        return cls(math.sin, math.cos, lambda t: -math.sin(t))


@dataclass(frozen=True)
class HarmonicPotentialPair:
    """Two plane potentials with identically vanishing Laplacians.

    Harmonicity is checked on the coefficient tables at construction, so a
    non-harmonic input fails immediately rather than polluting downstream
    invariance checks.
    """

    phi: Poly2
    psi: Poly2

    def __post_init__(self) -> None:
        for name, poly in (("phi", self.phi), ("psi", self.psi)):
            if not poly.laplacian().is_zero(tol=1e-12):
                raise ValueError(f"potential '{name}' is not harmonic")


KINDS = ("time-translation", "x-translation", "y-translation", "rotation",
         "concentration-scaling", "pressure-shift", "displacement-shift")


def _trig(phi: float) -> tuple[float, float]:
    # Quarter turns snap to exact values so grid points map to grid points.
    quarter = phi / (0.5 * math.pi)
    nearest = round(quarter)
    if abs(quarter - nearest) < 1e-12:
        c = (1.0, 0.0, -1.0, 0.0)[nearest % 4]
        s = (0.0, 1.0, 0.0, -1.0)[nearest % 4]
        return c, s
    return math.cos(phi), math.sin(phi)


@dataclass(frozen=True)
class GroupElement:
    """One finite symmetry transformation.

    ``parameter`` is the group parameter (epsilon, or the rotation angle);
    parameter zero is the identity for every kind.  Payloads: pressure
    shifts carry a time profile, displacement shifts a plane-function pair,
    and the concentration scaling carries the osmotic coefficient because
    it rescales the concentration at fixed effective pressure (the
    hydrostatic pressure co-shifts by sigma1*(e^eps - 1)*c).
    """

    kind: str
    parameter: float
    g: TimeFunction | None = None
    G: tuple[PlaneFunction, PlaneFunction] | None = None
    sigma1: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown group element kind '{self.kind}'")
        if self.kind == "pressure-shift" and self.g is None:
            raise ValueError("pressure-shift needs a time-function payload")
        if self.kind == "displacement-shift" and self.G is None:
            raise ValueError("displacement-shift needs a (G1, G2) payload")
        if self.kind == "concentration-scaling" and self.sigma1 is None:
            raise ValueError("concentration-scaling needs the osmotic coefficient")

    @classmethod
    def time_translation(cls, eps: float) -> "GroupElement":
        return cls("time-translation", eps)

    @classmethod
    def x_translation(cls, eps: float) -> "GroupElement":
        return cls("x-translation", eps)

    @classmethod
    def y_translation(cls, eps: float) -> "GroupElement":
        return cls("y-translation", eps)

    @classmethod
    def rotation(cls, phi: float) -> "GroupElement":
        return cls("rotation", phi)

    @classmethod
    def concentration_scaling(cls, eps: float, sigma1: float) -> "GroupElement":
        return cls("concentration-scaling", eps, sigma1=sigma1)

    @classmethod
    def pressure_shift(cls, eps: float, g: TimeFunction) -> "GroupElement":
        return cls("pressure-shift", eps, g=g)

    @classmethod
    def displacement_shift(cls, eps: float, G1: PlaneFunction,
                           G2: PlaneFunction) -> "GroupElement":
        return cls("displacement-shift", eps, G=(G1, G2))

    def rotation_matrix(self) -> np.ndarray:
        c, s = _trig(self.parameter)
        return np.array([[c, -s], [s, c]])

    def map_point(self, point) -> tuple[float, float, float]:
        """Image of a (t, x, y) point under the coordinate part of the group."""
        t, x, y = point
        if self.kind == "time-translation":
            return (t + self.parameter, x, y)
        if self.kind == "x-translation":
            return (t, x + self.parameter, y)
        if self.kind == "y-translation":
            return (t, x, y + self.parameter)
        if self.kind == "rotation":
            c, s = _trig(self.parameter)
            return (t, c * x - s * y, s * x + c * y)
        return (t, x, y)


class TransformedFieldSource:
    """Lazy action of a group element on an underlying field source."""

    ndim = 3

    def __init__(self, element: GroupElement, base: FieldSource) -> None:
        self.element = element
        self.base = base

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        t, x, y = (float(v) for v in point)
        nt, nx, ny = (0, 0, 0) if d is None else tuple(int(v) for v in d)
        el = self.element
        eps = el.parameter
        kind = el.kind
        if kind == "time-translation":
            return self.base.eval(component, (t - eps, x, y), (nt, nx, ny))
        if kind == "x-translation":
            return self.base.eval(component, (t, x - eps, y), (nt, nx, ny))
        if kind == "y-translation":
            return self.base.eval(component, (t, x, y - eps), (nt, nx, ny))
        if kind == "pressure-shift":
            val = self.base.eval(component, (t, x, y), (nt, nx, ny))
            if component == "p" and nx == 0 and ny == 0:
                val += eps * el.g.deriv(t, nt)
            return val
        if kind == "displacement-shift":
            val = self.base.eval(component, (t, x, y), (nt, nx, ny))
            if nt == 0 and component in ("u1", "u2"):
                G = el.G[0] if component == "u1" else el.G[1]
                val += eps * G.eval_deriv(x, y, nx, ny)
            return val
        if kind == "concentration-scaling":
            if component == "c":
                return math.exp(eps) * self.base.eval("c", (t, x, y), (nt, nx, ny))
            if component == "p":
                # Effective pressure is held fixed under the scaling.
                return (self.base.eval("p", (t, x, y), (nt, nx, ny))
                        + el.sigma1 * (math.exp(eps) - 1.0)
                        * self.base.eval("c", (t, x, y), (nt, nx, ny)))
            return self.base.eval(component, (t, x, y), (nt, nx, ny))
        # rotation
        c, s = _trig(eps)
        px = c * x + s * y   # pre-image coordinates
        py = -s * x + c * y
        if component in ("u1", "u2"):
            d1 = self._rotated_scalar("u1", t, px, py, nt, nx, ny, c, s)
            d2 = self._rotated_scalar("u2", t, px, py, nt, nx, ny, c, s)
            return c * d1 - s * d2 if component == "u1" else s * d1 + c * d2
        return self._rotated_scalar(component, t, px, py, nt, nx, ny, c, s)

    def _rotated_scalar(self, component: str, t: float, px: float, py: float,
                        nt: int, nx: int, ny: int, c: float, s: float) -> float:
        """Derivative of a rotated scalar via gradient/Hessian transform."""
        base = self.base
        p = (t, px, py)
        if nx + ny == 0:
            return base.eval(component, p, (nt, 0, 0))
        if nx + ny == 1:
            fx = base.eval(component, p, (nt, 1, 0))
            fy = base.eval(component, p, (nt, 0, 1))
            return c * fx - s * fy if nx == 1 else s * fx + c * fy
        if nx + ny > 2:
            raise ValueError("space order above 2 not supported for rotations")
        fxx = base.eval(component, p, (nt, 2, 0))
        fyy = base.eval(component, p, (nt, 0, 2))
        fxy = base.eval(component, p, (nt, 1, 1))
        if (nx, ny) == (2, 0):
            return c * c * fxx - 2.0 * c * s * fxy + s * s * fyy
        if (nx, ny) == (0, 2):
            return s * s * fxx + 2.0 * c * s * fxy + c * c * fyy
        return c * s * fxx + (c * c - s * s) * fxy - c * s * fyy


def apply_group(element: GroupElement, field: FieldSource) -> TransformedFieldSource:
    """Return the field transformed by one group element (lazy view)."""
    return TransformedFieldSource(element, field)


def generate_displacement_symmetry(potentials: HarmonicPotentialPair
                                   ) -> tuple[Poly2, Poly2]:
    """Displacement-shift generator pair from harmonic potentials.

    G1 = phi_x + psi_y, G2 = phi_y - psi_x.  The pair satisfies the
    generator system identically: its divergence is the Laplacian of phi
    and its curl is minus the Laplacian of psi, both zero.
    """
    phi, psi = potentials.phi, potentials.psi
    G1 = phi.deriv(1, 0) + psi.deriv(0, 1)
    G2 = phi.deriv(0, 1) - psi.deriv(1, 0)
    return G1, G2


def displacement_symmetry_residual(G1: PlaneFunction, G2: PlaneFunction,
                                   moduli: AnisotropicModuli,
                                   x: float, y: float) -> tuple[float, float]:
    """Residual pair of the displacement-generator system at one point.

    The system is the elastostatic part of the momentum equations: the
    elastic force of (G1, G2) under ``moduli`` must vanish.
    """
    return _elastic_force(moduli, G1.eval_deriv(x, y, 2, 0),
                          G1.eval_deriv(x, y, 0, 2), G1.eval_deriv(x, y, 1, 1),
                          G2.eval_deriv(x, y, 2, 0), G2.eval_deriv(x, y, 0, 2),
                          G2.eval_deriv(x, y, 1, 1))


_PLANE_POINTS = tuple(
    (x, y) for x in (-1.5, -0.5, 0.4, 1.3) for y in (-1.2, -0.3, 0.7, 1.4))


def verify_displacement_symmetry(G1: PlaneFunction, G2: PlaneFunction,
                                 params: ModelParams) -> float:
    """Max residual of the isotropic displacement-generator system over points."""
    moduli = AnisotropicModuli.isotropic(params.lam, params.mu)
    return verify_displacement_symmetry_aniso(G1, G2, moduli)


def verify_displacement_symmetry_aniso(G1: PlaneFunction, G2: PlaneFunction,
                                       moduli: AnisotropicModuli) -> float:
    worst = 0.0
    for x, y in _PLANE_POINTS:
        r1, r2 = displacement_symmetry_residual(G1, G2, moduli, x, y)
        worst = max(worst, abs(r1), abs(r2))
    return worst


def random_displacement_symmetry_aniso(moduli: AnisotropicModuli,
                                       rng: np.random.Generator
                                       ) -> tuple[Poly2, Poly2]:
    """Random quadratic-plus-affine generator pair for arbitrary moduli.

    Quadratic pairs G1 = a1 x^2 + b1 xy + c1 y^2, G2 = a2 x^2 + b2 xy + c2 y^2
    satisfy the generator system iff their elastic force vanishes: two
    linear relations among the six coefficients, whose 2x6 matrix is the
    elastic force of each unit coefficient.  A random null-space
    combination provides them; the affine part is free.
    """
    # The second derivatives (u1_xx, u1_yy, u1_xy, u2_xx, u2_yy, u2_xy) of
    # the pair are (2a1, 2c1, b1, 2a2, 2c2, b2).
    a1, b1, c1, a2, b2, c2 = np.eye(6)
    M = np.array(_elastic_force(moduli, 2.0 * a1, 2.0 * c1, b1,
                                2.0 * a2, 2.0 * c2, b2))
    null = scipy.linalg.null_space(M)
    coeff = null @ rng.uniform(-1.0, 1.0, size=null.shape[1])
    a1, b1, c1, a2, b2, c2 = coeff
    lin1, lin2 = rng.uniform(-1.0, 1.0, size=(2, 3))
    G1 = Poly2([[lin1[0], lin1[2], c1], [lin1[1], b1, 0.0], [a1, 0.0, 0.0]])
    G2 = Poly2([[lin2[0], lin2[2], c2], [lin2[1], b2, 0.0], [a2, 0.0, 0.0]])
    return G1, G2


@dataclass(frozen=True)
class InvarianceRow:
    equation: str
    pre_norm: float
    post_norm: float
    max_diff: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class InvarianceReport:
    """Residual-preservation record for one group element."""

    kind: str
    parameter: float
    rows: tuple[InvarianceRow, ...]
    passed: bool

    def row(self, equation: str) -> InvarianceRow:
        for r in self.rows:
            if r.equation == equation:
                return r
        raise KeyError(equation)


DEFAULT_SAMPLE_POINTS = tuple(
    (t, x, y)
    for t in (0.3, 0.7)
    for x, y in ((0.6, 0.2), (-0.4, 0.8), (1.1, -0.5), (-0.9, -0.7), (0.3, 1.2)))


def check_invariance(element: GroupElement, field: FieldSource,
                     params: ModelParams,
                     points: Sequence[tuple[float, float, float]] | None = None,
                     moduli: AnisotropicModuli | None = None,
                     rtol: float = 1e-12) -> InvarianceReport:
    """Compare residuals before and after one group transformation.

    The transformed field's residual at the mapped point must reproduce the
    original residual: unchanged for shifts and translations, scaled by
    e^eps in the solute equation for the concentration scaling, and rotated
    as a vector in the momentum pair for rotations.  Tolerances are
    relative to the largest residual magnitude seen (absolute for exact
    solutions).

    ``moduli`` defaults to the isotropic embedding of ``params``.  When the
    caller supplies moduli, the rotation is excluded, since it is a
    symmetry of the isotropic material only.
    """
    if points is None:
        points = DEFAULT_SAMPLE_POINTS
    if moduli is None:
        moduli = AnisotropicModuli.isotropic(params.lam, params.mu)
    elif element.kind == "rotation":
        raise ValueError("rotation invariance holds only for isotropic moduli")
    transformed = apply_group(element, field)
    scale_factor = math.exp(element.parameter)
    A = element.rotation_matrix() if element.kind == "rotation" else None

    pre_norm = {eq: 0.0 for eq in CARTESIAN_EQUATIONS}
    post_norm = {eq: 0.0 for eq in CARTESIAN_EQUATIONS}
    diff = {eq: 0.0 for eq in CARTESIAN_EQUATIONS}
    for point in points:
        pre = residual_cartesian_aniso(field, moduli, params, point)
        post = residual_cartesian_aniso(transformed, moduli, params,
                                        element.map_point(point))
        expected = dict(pre.values)
        if element.kind == "concentration-scaling":
            expected["solute"] = scale_factor * expected["solute"]
        elif element.kind == "rotation":
            m = A @ np.array([expected["momentum1"], expected["momentum2"]])
            expected["momentum1"], expected["momentum2"] = float(m[0]), float(m[1])
        for eq in CARTESIAN_EQUATIONS:
            pre_norm[eq] = max(pre_norm[eq], abs(pre[eq]))
            post_norm[eq] = max(post_norm[eq], abs(post[eq]))
            diff[eq] = max(diff[eq], abs(post[eq] - expected[eq]))

    overall = max(1.0, *pre_norm.values(), *post_norm.values())
    rows = []
    for eq in CARTESIAN_EQUATIONS:
        tol = rtol * overall
        rows.append(InvarianceRow(equation=eq, pre_norm=pre_norm[eq],
                                  post_norm=post_norm[eq], max_diff=diff[eq],
                                  tol=tol, passed=diff[eq] <= tol))
    return InvarianceReport(kind=element.kind, parameter=element.parameter,
                            rows=tuple(rows), passed=all(r.passed for r in rows))


def cartesian_to_polar(u1: float, u2: float, phi: float) -> tuple[float, float]:
    """Radial/tangential displacement components from Cartesian ones.

    Inverts the polar decomposition u = (w1*cos - w2*sin, w1*sin + w2*cos);
    scalar fields pass through unchanged.
    """
    c, s = _trig(phi)
    return u1 * c + u2 * s, -u1 * s + u2 * c


def polar_samples_from_cartesian(field: FieldSource, t_nodes, r_nodes,
                                 phi_nodes) -> GridFieldSource:
    """Sample a Cartesian source on a (t, r, phi) grid in polar components.

    Values only; differentiating the result with the grid stencils gives a
    second-order approximation of the exact polar derivatives.
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    if np.any(r_nodes <= 0.0):
        raise ValueError("polar sampling requires r > 0 (angle undefined at 0)")
    t_nodes = np.asarray(t_nodes, dtype=float)
    phi_nodes = np.asarray(phi_nodes, dtype=float)
    shape = (t_nodes.size, r_nodes.size, phi_nodes.size)
    data = {name: np.empty(shape) for name in
            ("w1", "w2", "P", "rho", "theta", "C")}
    for i, t in enumerate(t_nodes):
        for j, r in enumerate(r_nodes):
            for k, ph in enumerate(phi_nodes):
                c, s = _trig(float(ph))
                x, y = r * c, r * s
                point = (t, x, y)
                u1 = field.eval("u1", point)
                u2 = field.eval("u2", point)
                w1, w2 = cartesian_to_polar(u1, u2, float(ph))
                data["w1"][i, j, k] = w1
                data["w2"][i, j, k] = w2
                data["P"][i, j, k] = field.eval("p", point)
                data["rho"][i, j, k] = field.eval("rho", point)
                data["theta"][i, j, k] = field.eval("thetaF", point)
                data["C"][i, j, k] = field.eval("c", point)
    return GridFieldSource([t_nodes, r_nodes, phi_nodes], data)
