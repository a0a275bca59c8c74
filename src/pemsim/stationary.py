"""Closed-form stationary states of the loaded annulus and the shrink radius.

With all time derivatives suppressed the ring system decouples into two
linear ODEs whose general solution is

    P(r) = P0 + C0*ln(r),
    w(r) = C0/(2*lam_star) * r*ln(r) + C1*r + Cm1/r,

while density and porosity stay arbitrary smooth radial profiles.  Two
boundary-data variants pin the coefficients (interior Dirichlet pressure,
or interior zero pressure flux), and the traction balance at the free outer
radius turns into either a cubic polynomial (zero-flux case) or a scalar
transcendental equation (Dirichlet case) for the steady shrink radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelParams, ParameterError, lame_star
from .fields import ProfileSource, RadialCartesianSource

__all__ = [
    "NoRootError",
    "StationarySolution",
    "RstReport",
    "DirichletRootReport",
    "dirichlet_solution",
    "neumann_solution",
    "rst_cubic",
    "rst_dirichlet",
    "boundary_traction_mismatch",
    "bisect_root",
]


class NoRootError(RuntimeError):
    """No admissible steady radius exists for the given parameters."""


@dataclass(frozen=True)
class StationarySolution:
    """Coefficients of a stationary annulus state with closed-form evaluators."""

    P0: float
    C0: float
    C1: float
    Cm1: float
    lam_star: float
    case: str  # "dirichlet" | "neumann"

    def pressure(self, r: float) -> float:
        return self.P0 + self.C0 * math.log(r)

    def pressure_r(self, r: float) -> float:
        return self.C0 / r

    def pressure_rr(self, r: float) -> float:
        return -self.C0 / r**2

    def displacement(self, r: float) -> float:
        return _displacement(self.C0 / (2.0 * self.lam_star), self.C1,
                             self.Cm1, r, math.log(r))

    def displacement_r(self, r: float) -> float:
        return _displacement_r(self.C0 / (2.0 * self.lam_star), self.C1,
                               self.Cm1, r, math.log(r))

    def displacement_rr(self, r: float) -> float:
        a = self.C0 / (2.0 * self.lam_star)
        return a / r + 2.0 * self.Cm1 / r**3

    def _w_profile(self):
        return (self.displacement, self.displacement_r, self.displacement_rr)

    def _p_profile(self):
        return (self.pressure, self.pressure_r, self.pressure_rr)

    def as_ring_source(self, rho=1.0, theta=0.5) -> ProfileSource:
        """Embed as a static (t, r) field source for the ring residuals.

        ``rho`` and ``theta`` accept constants or (f, f', f'') profile
        triples; the stationary equations hold for any smooth choice.
        """
        return ProfileSource(
            {"w": self._w_profile(), "P": self._p_profile(),
             "rho": rho, "theta": theta},
            ndim=2,
        )

    def as_polar_source(self, rho=1.0, theta=0.5) -> ProfileSource:
        """Embed as a static (t, r, phi) source for the full polar residuals."""
        return ProfileSource(
            {"w1": self._w_profile(), "w2": 0.0, "P": self._p_profile(),
             "rho": rho, "theta": theta, "C": 0.0},
            ndim=3,
        )

    def as_cartesian_source(self, rho: float = 1.0,
                            thetaF: float = 0.5) -> RadialCartesianSource:
        """Embed as a static Cartesian field source (exact solution of the
        full six-equation system away from the origin)."""
        return RadialCartesianSource(self._w_profile(), self._p_profile(),
                                     rho=rho, thetaF=thetaF)


# The formulas that rst_dirichlet evaluates for each trial radius without
# building a StationarySolution; log_r is math.log(r), taken by the caller.

def _displacement(a: float, C1: float, Cm1: float, r: float,
                  log_r: float) -> float:
    """w(r) for a = C0/(2*lam_star)."""
    return a * r * log_r + C1 * r + Cm1 / r


def _displacement_r(a: float, C1: float, Cm1: float, r: float,
                    log_r: float) -> float:
    """w'(r) for a = C0/(2*lam_star)."""
    return a * (log_r + 1.0) + C1 - Cm1 / r**2


def _dirichlet_coefficients(params: ModelParams, ls: float, log_r0: float,
                            r_st: float, log_r_st: float
                            ) -> tuple[float, float, float]:
    """(C0, C1, Cm1) of the Dirichlet stationary state at steady radius r_st."""
    r0, R0 = params.r0, params.R0
    # Both pressure conditions fix C0 without dividing by ln(r0), which
    # keeps r0 = 1 regular.
    C0 = (params.p_a - params.p_st) / math.log(r0 / r_st)
    a = C0 / (2.0 * ls)
    C1 = ((r_st - R0 - a * (r_st * log_r_st - r0**2 / r_st * log_r0))
          * r_st / (r_st**2 - r0**2))
    Cm1 = -(a * log_r0 + C1) * r0**2
    return C0, C1, Cm1


def _traction_terms(ls: float, params: ModelParams, C0: float, C1: float,
                    Cm1: float, r: float, log_r: float
                    ) -> tuple[float, float, float]:
    """The load balance's terms at radius r: lam_star*w', (lam/r)*w and
    F0/(2*pi*r)."""
    a = C0 / (2.0 * ls)
    return (ls * _displacement_r(a, C1, Cm1, r, log_r),
            params.lam / r * _displacement(a, C1, Cm1, r, log_r),
            params.F0 / (2.0 * math.pi * r))


def _check_r_st(r_st: float, r0: float) -> None:
    if not r0 < r_st < math.inf:
        raise ValueError(
            f"r_st must exceed r0 (got r_st={r_st}, r0={r0}); "
            "at r_st = r0 the annulus degenerates into a circle")


def dirichlet_solution(params: ModelParams, r_st: float) -> StationarySolution:
    """Stationary state with interior Dirichlet data P=p_a, w=0 at r0 and
    P=p_st, w=r_st-R0 at the steady outer radius."""
    _check_r_st(r_st, params.r0)
    ls = lame_star(params)
    log_r0 = math.log(params.r0)
    C0, C1, Cm1 = _dirichlet_coefficients(params, ls, log_r0, r_st,
                                          math.log(r_st))
    return StationarySolution(P0=params.p_a - C0 * log_r0, C0=C0, C1=C1,
                              Cm1=Cm1, lam_star=ls, case="dirichlet")


def neumann_solution(params: ModelParams, r_st: float) -> StationarySolution:
    """Stationary state with zero pressure flux and zero displacement at r0.

    Pressure is uniform (p_st) and the displacement is
    w(r) = r_st*(r_st - R0)/(r_st^2 - r0^2) * (r - r0^2/r).
    """
    r0, R0 = params.r0, params.R0
    _check_r_st(r_st, r0)
    C1 = r_st * (r_st - R0) / (r_st**2 - r0**2)
    return StationarySolution(P0=params.p_st, C0=0.0, C1=C1, Cm1=-C1 * r0**2,
                              lam_star=lame_star(params), case="neumann")


def boundary_traction_mismatch(solution: StationarySolution, r: float,
                               params: ModelParams) -> float:
    """Residual of the load balance at radius r.

    Zero when the elastic radial traction equals the applied line load
    spread over the circumference: lam_star*w' + (lam/r)*w + F0/(2*pi*r).
    """
    t1, t2, t3 = _traction_terms(solution.lam_star, params, solution.C0,
                                 solution.C1, solution.Cm1, r, math.log(r))
    return t1 + t2 + t3


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                iterations: int = 200) -> float:
    """Plain bisection on a sign-change bracket; the independent root oracle."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoRootError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: no further halving can move the bracket
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RstReport:
    """Full account of the shrink-radius cubic for one parameter set."""

    coefficients: tuple[float, float, float, float]  # (a3, a2, a1, a0)
    real_roots: tuple[tuple[float, int], ...]  # (root, multiplicity)
    critical_points: tuple[complex, complex]
    roots_in_interval: tuple[float, ...]
    r_st: float
    cubic_at_r0: float
    cubic_at_R0: float

    def cubic(self, r: float) -> float:
        a3, a2, a1, a0 = self.coefficients
        return ((a3 * r + a2) * r + a1) * r + a0


# The cubic's coefficients as _cubic_coefficients forms them, for errors.
_CUBIC_TERMS = ("a3 = lam + mu", "a2 = F0/(4 pi) - (lam + mu)*R0",
                "a1 = mu*r0*r0", "a0 = -(F0/(4 pi) + mu*R0)*r0*r0")


def _cubic_coefficients(params: ModelParams) -> tuple[float, float, float, float]:
    lm = params.lam + params.mu
    load = params.F0 / (4.0 * math.pi)
    # Powers as products: a float ``**`` raises OverflowError, a product
    # overflows to inf.
    r0_sq = params.r0 * params.r0
    coeffs = (lm,
              load - lm * params.R0,
              params.mu * r0_sq,
              -(load + params.mu * params.R0) * r0_sq)
    overflowed = [f"cubic coefficient {term} overflows"
                  for term, a in zip(_CUBIC_TERMS, coeffs)
                  if not math.isfinite(a)]
    if overflowed:
        raise ParameterError(overflowed)
    return coeffs


def rst_cubic(params: ModelParams) -> RstReport:
    """Steady outer radius of the zero-flux annulus under a constant load.

    Solves the traction-balance cubic: all real roots are located via the
    companion matrix, Newton-polished, and the selected root in (r0, R0) is
    cross-checked against sign-change bisection.  A vanishing load returns
    the undeformed radius exactly; a coefficient that overflows raises
    ParameterError naming it.
    """
    if params.F0 < 0.0:
        raise ValueError("the shrink-radius analysis requires F0 >= 0")
    a3, a2, a1, a0 = coeffs = _cubic_coefficients(params)
    r0, R0 = params.r0, params.R0
    scale = max(abs(a3) * R0 * R0 * R0, abs(a2) * R0 * R0, abs(a1) * R0,
                abs(a0), 1e-300)

    def cubic(r: float) -> float:
        return ((a3 * r + a2) * r + a1) * r + a0

    def dcubic(r: float) -> float:
        return (3.0 * a3 * r + 2.0 * a2) * r + a1

    # The eigenvalues of the companion matrix that np.roots builds.  Beyond
    # that, np.roots only trims zero end coefficients, and here a3 = lam + mu
    # > 0 and a0 < 0.  (a0 is zero only where r0*r0 underflows; there the
    # companion's zero last column splits off the trimmed root 0 exactly.)
    roots = np.linalg.eigvals(np.array([[-a2 / a3, -a1 / a3, -a0 / a3],
                                        [1.0, 0.0, 0.0],
                                        [0.0, 1.0, 0.0]]))
    real: list[float] = []
    for z in roots:
        if abs(z.imag) > 1e-8 * max(abs(z), 1.0):
            continue
        x = float(z.real)
        for _ in range(50):  # Newton polish to machine accuracy
            fx = cubic(x)
            dfx = dcubic(x)
            if dfx == 0.0:
                break
            step = fx / dfx
            x -= step
            if abs(step) <= 1e-16 * max(abs(x), 1.0):
                break
        real.append(x)
    real.sort()
    grouped: list[tuple[float, int]] = []
    for x in real:
        if grouped and abs(x - grouped[-1][0]) <= 1e-8 * max(abs(x), 1.0):
            grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
        else:
            grouped.append((x, 1))

    disc = complex(a2 * a2 - 3.0 * a3 * a1)
    sq = cmath.sqrt(disc)
    crit = ((-a2 - sq) / (3.0 * a3), (-a2 + sq) / (3.0 * a3))

    if params.F0 == 0.0:
        r_st = R0
        in_interval: tuple[float, ...] = ()
    else:
        in_interval = tuple(x for x, _ in grouped if r0 < x < R0)
        if not in_interval:
            raise NoRootError(
                f"no steady radius in ({r0}, {R0}): cubic({r0})={cubic(r0)}, "
                f"cubic({R0})={cubic(R0)}")
        # Several in-range roots can only happen outside the proven load
        # regime; continuity from the unloaded state picks the one nearest R0.
        r_st = max(in_interval, key=lambda x: x)
        if abs(cubic(r_st)) > 1e-10 * scale:
            raise NoRootError(f"root polish failed: cubic({r_st})={cubic(r_st)}")
        if cubic(r0) < 0.0 < cubic(R0):
            check = bisect_root(cubic, r0, R0, iterations=200)
            if abs(check - r_st) > 1e-9 * R0 and len(in_interval) == 1:
                raise NoRootError(
                    f"bisection cross-check disagrees: {check} vs {r_st}")

    return RstReport(
        coefficients=coeffs,
        real_roots=tuple(grouped),
        critical_points=crit,
        roots_in_interval=in_interval,
        r_st=r_st,
        cubic_at_r0=cubic(r0),
        cubic_at_R0=cubic(R0),
    )


@dataclass(frozen=True)
class DirichletRootReport:
    """Roots of the Dirichlet-case steady-radius condition."""

    r_st: float
    roots: tuple[float, ...]
    residual: float


_DIRICHLET_SCAN_INTERVALS = 256


def rst_dirichlet(params: ModelParams) -> DirichletRootReport:
    """Steady outer radius for the Dirichlet-pressure annulus.

    Substitutes the Dirichlet stationary displacement into the traction
    balance and solves the resulting scalar equation on (r0, R0] by an
    exhaustive sign-change scan over _DIRICHLET_SCAN_INTERVALS equal
    subintervals followed by bisection (the root count is unknown a
    priori).  Among several roots the one nearest R0 is selected.

    Each trial radius s evaluates dirichlet_solution's coefficients and
    boundary_traction_mismatch's terms directly, through the same helpers
    and on Python floats, so it rounds like those two; ln(r0) is taken once.
    """
    if params.F0 < 0.0:
        raise ValueError("the shrink-radius analysis requires F0 >= 0")
    r0, R0 = params.r0, params.R0
    ls = lame_star(params)
    log_r0 = math.log(r0)

    def terms(s: float) -> tuple[float, float, float]:
        log_s = math.log(s)
        C0, C1, Cm1 = _dirichlet_coefficients(params, ls, log_r0, s, log_s)
        return _traction_terms(ls, params, C0, C1, Cm1, s, log_s)

    def mismatch(s: float) -> float:
        t1, t2, t3 = terms(s)
        return t1 + t2 + t3

    def scale_at(s: float) -> float:
        return max(1.0, *(abs(t) for t in terms(s)))

    grid = np.linspace(r0, R0, _DIRICHLET_SCAN_INTERVALS + 1)[1:].tolist()
    values = [mismatch(s) for s in grid]
    roots: list[float] = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            roots.append(a)
        elif (fa > 0) != (fb > 0):
            roots.append(bisect_root(mismatch, a, b))
    if values[-1] == 0.0 or abs(values[-1]) <= 1e-12 * scale_at(grid[-1]):
        roots.append(grid[-1])
    if not roots:
        raise NoRootError(
            "no sign change of the traction balance on (r0, R0]; "
            "parameter regime outside the solvable set")
    roots = sorted(set(roots))
    r_st = max(roots)
    residual = abs(mismatch(r_st))
    if residual > 1e-10 * scale_at(r_st):
        raise NoRootError(f"bisection stalled: residual {residual} at {r_st}")
    return DirichletRootReport(r_st=r_st, roots=tuple(roots), residual=residual)
