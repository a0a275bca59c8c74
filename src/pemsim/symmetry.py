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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import AnisotropicModuli, ModelParams
from .fields import (DerivativeUnavailableError, FieldSource, GridFieldSource,
                     _elementwise, _split_point, _split_query)
from .polynomials import Poly2
from .residuals import (CARTESIAN_EQUATIONS, _elastic_force,
                        residual_cartesian_aniso)
# Unused here, but benchmarks/tracing.py patches this name on this module.
from .residuals import residual_cartesian_iso  # noqa: F401

__all__ = [
    "TimeFunction",
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


@dataclass(frozen=True)
class TimeFunction:
    """A time profile with its first two derivatives (pressure-shift payload)."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]

    def deriv(self, t: float | np.ndarray, order: int) -> float | np.ndarray:
        """Derivative of the given order at t, element by element for arrays."""
        if order not in (0, 1, 2):
            raise ValueError(f"time derivative order {order} not available")
        value = _elementwise((self.f, self.df, self.d2f)[order], t)
        return value if isinstance(value, np.ndarray) else float(value)

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
    # The sine stays odd down to the sign of zero: _trig(-phi) is (c, -s)
    # exactly, like cos and sin, so an inverse rotation is exact too.
    quarter = abs(phi) / (0.5 * math.pi)
    nearest = round(quarter)
    if abs(quarter - nearest) < 1e-12:
        c = (1.0, 0.0, -1.0, 0.0)[nearest % 4]
        s = (0.0, 1.0, 0.0, -1.0)[nearest % 4]
        return c, math.copysign(1.0, phi) * s
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
    G: tuple[Poly2, Poly2] | None = None
    sigma1: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown group element kind '{self.kind}'")
        if not math.isfinite(self.parameter):
            raise ValueError(f"{self.kind} parameter {self.parameter} is not finite")
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
    def displacement_shift(cls, eps: float, G1: Poly2, G2: Poly2) -> "GroupElement":
        return cls("displacement-shift", eps, G=(G1, G2))

    def rotation_matrix(self) -> np.ndarray:
        c, s = _trig(self.parameter)
        return np.array([[c, -s], [s, c]])

    def map_point(self, point) -> tuple:
        """Image of a (t, x, y) point, of floats or arrays, under the group."""
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
    """Lazy action of a group element on an underlying field source.

    The base is queried once per value at the pre-image of the point, the
    image under the inverse element (the same kind with its parameter
    negated); only the action on the values differs by kind.  Coordinate
    arrays pass through to the base source for every kind.

    The pre-image of the last split point is kept, so the queries of one
    residual call map their point once; the base gets it split.  The
    derivatives of a displacement shift's generators are built once each.
    """

    ndim = 3

    def __init__(self, element: GroupElement, base: FieldSource) -> None:
        self.element = element
        self.base = base
        self._inverse = replace(element, parameter=-element.parameter)
        self._last = (None, None)   # (split point, its split pre-image)
        self._G_derivs: dict[tuple[str, int, int], Poly2] = {}

    def eval(self, component: str, point: Sequence[float | np.ndarray],
             d: Sequence[int] | None = None) -> float | np.ndarray:
        point, d = _split_query(point, d, self.ndim)
        el = self.element
        eps = el.parameter
        if point is self._last[0]:
            pre = self._last[1]
        else:
            pre = _split_point(self._inverse.map_point(point), self.ndim)
            self._last = (point, pre)
        if el.kind == "rotation":
            c, s = _trig(eps)
            if component in ("u1", "u2"):
                d1 = self._rotated_scalar("u1", pre, d, c, s)
                d2 = self._rotated_scalar("u2", pre, d, c, s)
                return c * d1 - s * d2 if component == "u1" else s * d1 + c * d2
            return self._rotated_scalar(component, pre, d, c, s)
        val = self.base.eval(component, pre, d)
        t, x, y = point
        nt, nx, ny = d
        if el.kind == "pressure-shift" and component == "p" and nx == ny == 0:
            return val + eps * el.g.deriv(t, nt)
        if (el.kind == "displacement-shift" and nt == 0
                and component in ("u1", "u2")):
            G = self._G_derivs.get((component, nx, ny))
            if G is None:
                G = el.G[0] if component == "u1" else el.G[1]
                G = self._G_derivs[component, nx, ny] = G.deriv(nx, ny)
            return val + eps * G(x, y)
        if el.kind == "concentration-scaling":
            if component == "c":
                return math.exp(eps) * val
            if component == "p":
                # Effective pressure is held fixed under the scaling.
                return (val + el.sigma1 * (math.exp(eps) - 1.0)
                        * self.base.eval("c", pre, d))
        return val

    def _rotated_scalar(self, component: str, pre, d, c: float, s: float):
        """Derivative of a rotated scalar via gradient/Hessian transform."""
        base = self.base
        nt, nx, ny = d
        if nx + ny == 0:
            return base.eval(component, pre, (nt, 0, 0))
        if nx + ny == 1:
            fx = base.eval(component, pre, (nt, 1, 0))
            fy = base.eval(component, pre, (nt, 0, 1))
            return c * fx - s * fy if nx == 1 else s * fx + c * fy
        if nx + ny > 2:
            raise DerivativeUnavailableError(
                "space order above 2 not supported for rotations")
        fxx = base.eval(component, pre, (nt, 2, 0))
        fyy = base.eval(component, pre, (nt, 0, 2))
        fxy = base.eval(component, pre, (nt, 1, 1))
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


def displacement_symmetry_residual(G1: Poly2, G2: Poly2, moduli: AnisotropicModuli,
                                   x: float, y: float) -> tuple[float, float]:
    """Residual pair of the displacement-generator system at one point.

    The system is the elastostatic part of the momentum equations: the
    elastic force of (G1, G2) under ``moduli`` must vanish.  Coordinate
    arrays give the pair elementwise.
    """
    return _elastic_force(moduli, G1.eval_deriv(x, y, 2, 0),
                          G1.eval_deriv(x, y, 0, 2), G1.eval_deriv(x, y, 1, 1),
                          G2.eval_deriv(x, y, 2, 0), G2.eval_deriv(x, y, 0, 2),
                          G2.eval_deriv(x, y, 1, 1))


_PLANE_X, _PLANE_Y = np.meshgrid((-1.5, -0.5, 0.4, 1.3), (-1.2, -0.3, 0.7, 1.4),
                                 indexing="ij")


def verify_displacement_symmetry(G1: Poly2, G2: Poly2, params: ModelParams) -> float:
    """Max residual of the isotropic displacement-generator system over points."""
    moduli = AnisotropicModuli.isotropic(params.lam, params.mu)
    return verify_displacement_symmetry_aniso(G1, G2, moduli)


def verify_displacement_symmetry_aniso(G1: Poly2, G2: Poly2,
                                       moduli: AnisotropicModuli) -> float:
    r1, r2 = displacement_symmetry_residual(G1, G2, moduli, _PLANE_X, _PLANE_Y)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of M, by the SVD rank rule
    of scipy.linalg.null_space: singular values at most s.max() * eps *
    max(M.shape) count as zero.  The columns are scipy's bit for bit, and
    are stored row by row as scipy's are, so products with them round alike.
    """
    _, s, vh = np.linalg.svd(M)
    rank = np.count_nonzero(s > s.max() * np.finfo(s.dtype).eps * max(M.shape))
    return vh[rank:].T.copy()


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
    null = _null_space(M)
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
    as a vector in the momentum pair for rotations.  Each row's tolerance
    is ``rtol`` times the largest of 1, every residual norm seen and the
    row's rounding scale: the same row evaluated on magnitudes
    (``ResidualVector.scale``), at its largest over the points of either
    side.  So a large exact shift, whose terms cancel only to rounding,
    passes, while a defect above rounding still fails; ``rtol = 0`` makes
    every tolerance 0.

    The points go in one residual call per side, as coordinate arrays; the
    operator is elementwise and the norms are maxima, so the report equals
    a loop over single points bit for bit.  ``points`` must be non-empty
    and ``rtol`` in [0, inf).  Repeated checks on one polynomial field
    reuse its base-side values: the source keeps its last answer per
    (component, d), so the unmoved residual and the base queries at
    unmoved points run no polynomial again.

    ``moduli`` defaults to the isotropic embedding of ``params``.  When the
    caller supplies moduli, the rotation is excluded, since it is a
    symmetry of the isotropic material only.
    """
    coords = np.array(DEFAULT_SAMPLE_POINTS if points is None else points,
                      dtype=float)
    if coords.ndim != 2 or coords.size == 0:
        raise ValueError("points must be a non-empty sequence of (t, x, y)")
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must lie in [0, inf), got {rtol}")
    if moduli is None:
        moduli = AnisotropicModuli.isotropic(params.lam, params.mu)
    elif element.kind == "rotation":
        raise ValueError("rotation invariance holds only for isotropic moduli")
    point = tuple(coords.T.copy())
    pre = residual_cartesian_aniso(field, moduli, params, point)
    post = residual_cartesian_aniso(apply_group(element, field), moduli, params,
                                    element.map_point(point))
    expected = dict(pre.values)
    if element.kind == "concentration-scaling":
        expected["solute"] = math.exp(element.parameter) * expected["solute"]
    elif element.kind == "rotation":
        # One 2x2 product per point: a batched product may round differently.
        A = element.rotation_matrix()
        m1, m2 = np.broadcast_arrays(expected["momentum1"],
                                     expected["momentum2"], point[0])[:2]
        m = np.array([A @ np.array(v) for v in zip(m1.tolist(), m2.tolist())])
        expected["momentum1"], expected["momentum2"] = m[:, 0], m[:, 1]

    pre_norm, post_norm, diff = (
        {eq: float(np.max(np.abs(v[eq]))) for eq in CARTESIAN_EQUATIONS}
        for v in (pre, post, {eq: post[eq] - expected[eq] for eq in expected}))
    floor = max(1.0, *pre_norm.values(), *post_norm.values())
    tol = {eq: rtol * max(floor, float(np.max(np.maximum(pre.scale[eq],
                                                         post.scale[eq]))))
           for eq in CARTESIAN_EQUATIONS}
    rows = tuple(InvarianceRow(equation=eq, pre_norm=pre_norm[eq],
                               post_norm=post_norm[eq], max_diff=diff[eq],
                               tol=tol[eq], passed=diff[eq] <= tol[eq])
                 for eq in CARTESIAN_EQUATIONS)
    return InvarianceReport(kind=element.kind, parameter=element.parameter,
                            rows=rows, passed=all(r.passed for r in rows))


def cartesian_to_polar(u1: float, u2: float, phi: float) -> tuple[float, float]:
    """Radial/tangential displacement components from Cartesian ones.

    Inverts the polar decomposition u = (w1*cos - w2*sin, w1*sin + w2*cos);
    scalar fields pass through unchanged.
    """
    return _to_polar(u1, u2, *_trig(phi))


def _to_polar(u1, u2, c, s):
    # (w1, w2) from (u1, u2) at cos/sin (c, s) of the angle; arrays broadcast.
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
    trig = np.array([_trig(float(ph)) for ph in phi_nodes]).reshape(-1, 2)
    t, r, c = np.meshgrid(t_nodes, r_nodes, trig[:, 0], indexing="ij", sparse=True)
    s = trig[:, 1]
    point = (t, r * c, r * s)
    w1, w2 = _to_polar(field.eval("u1", point), field.eval("u2", point), c, s)
    values = {"w1": w1, "w2": w2, "P": field.eval("p", point),
              "rho": field.eval("rho", point), "theta": field.eval("thetaF", point),
              "C": field.eval("c", point)}
    data = {name: np.broadcast_to(v, shape).astype(float) for name, v in values.items()}
    return GridFieldSource([t_nodes, r_nodes, phi_nodes], data)
