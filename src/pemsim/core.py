"""Parameter and mixture data model shared by all solver modules.

The model describes a two-phase poroelastic material (elastic matrix plus
fluid-saturated pores) under Terzaghi effective stress.  All quantities are
dimensionless; a consistent nondimensionalization (characteristic length
``R0``, characteristic pressure ``mu`` unless the user picks otherwise) is
assumed throughout.

The numerical controls of a transient run (:class:`SimConfig`) and the
error it raises when a step cannot be solved (:class:`SimulationError`)
live here too: both are parameters and validation only, so the command-line
schema builds from this module without loading the solver.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields as dataclass_fields

__all__ = [
    "ParameterError",
    "ModelParams",
    "AnisotropicModuli",
    "lame_star",
    "SimConfig",
    "SimulationError",
]


class ParameterError(ValueError):
    """Raised when a parameter set violates the physical restrictions.

    Carries the full list of violations so a bad configuration is reported
    in one shot.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _raise_unless_finite(params, violations: list[str]) -> None:
    """Raise ParameterError with ``violations`` and every non-finite field."""
    for field in dataclass_fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            violations.append(f"{field.name} must be finite (got {value})")
    if violations:
        raise ParameterError(violations)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the isotropic poroelastic model.

    Attributes:
        k: hydraulic conductivity of the Darcy flux law.
        lam: first Lame coefficient (pressure scale).
        mu: second Lame coefficient / shear modulus (pressure scale).
        rho_f0: fluid density (constant; the fluid is incompressible).
        D: solute diffusivity.
        S_sieve: sieving coefficient of the solute, strictly in (0, 1).
        sigma1: osmotic coefficient; effective pressure is p - sigma1*c.
        p_a: ambient pressure held at the outer surface.
        p_st: interior/steady pressure used by the stationary solutions.
        F0: boundary load, total force per unit thickness.  Stored so the
            traction at the moving boundary is F0/(2*pi*r) without unit
            ambiguity.
        r0: inner radius of the annulus.
        R0: initial (undeformed) outer radius.
    """

    k: float
    lam: float
    mu: float
    rho_f0: float
    D: float
    S_sieve: float
    sigma1: float
    p_a: float
    p_st: float
    F0: float
    r0: float
    R0: float

    def __post_init__(self) -> None:
        violations = []
        if not self.k > 0:
            violations.append(f"k must be > 0 (got {self.k})")
        if not self.D > 0:
            violations.append(f"D must be > 0 (got {self.D})")
        if not self.rho_f0 > 0:
            violations.append(f"rho_f0 must be > 0 (got {self.rho_f0})")
        if not 0 < self.S_sieve < 1:
            violations.append(f"S_sieve must satisfy 0 < S < 1 (got {self.S_sieve})")
        if not self.lam > 0:
            violations.append(f"lam must be > 0 (got {self.lam})")
        if not self.mu > 0:
            violations.append(f"mu must be > 0 (got {self.mu})")
        if not self.r0 > 0:
            violations.append(f"r0 must be > 0 (got {self.r0})")
        if not self.r0 < self.R0:
            violations.append(f"r0 < R0 required (got r0={self.r0}, R0={self.R0})")
        _raise_unless_finite(self, violations)

    @classmethod
    def reference(cls, **overrides: float) -> "ModelParams":
        """Desk-scale dimensionless parameter set used across the test suite."""
        base = dict(
            k=1.0, lam=1.0, mu=1.0, rho_f0=1.0, D=1.0, S_sieve=0.5,
            sigma1=1.0, p_a=0.0, p_st=0.0, F0=0.0, r0=1.0, R0=2.0,
        )
        base.update(overrides)
        return cls(**base)


def lame_star(params: ModelParams) -> float:
    """P-wave modulus lam + 2*mu appearing throughout the radial equations."""
    return params.lam + 2.0 * params.mu


@dataclass(frozen=True)
class AnisotropicModuli:
    """Symmetric stiffness matrix of the anisotropic Terzaghi stress law.

    Entries follow the plane-strain Voigt convention with the shear slot
    carrying sqrt(2) weights, so the isotropic material embeds as
    e11 = e22 = lam + 2*mu, e12 = lam, e33 = mu, e13 = e23 = 0.
    """

    e11: float
    e22: float
    e33: float
    e12: float
    e13: float
    e23: float

    def __post_init__(self) -> None:
        violations = []
        for name in ("e11", "e22", "e33"):
            if not getattr(self, name) > 0:
                violations.append(f"{name} must be > 0 (got {getattr(self, name)})")
        for name in ("e12", "e13", "e23"):
            if not getattr(self, name) >= 0:
                violations.append(f"{name} must be >= 0 (got {getattr(self, name)})")
        _raise_unless_finite(self, violations)

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "AnisotropicModuli":
        """Embed isotropic Lame coefficients into the stiffness matrix."""
        return cls(e11=lam + 2.0 * mu, e22=lam + 2.0 * mu, e33=mu,
                   e12=lam, e13=0.0, e23=0.0)


@dataclass(frozen=True)
class SimConfig:
    """Numerical controls for one simulation run."""

    N: int = 200
    dt: float = 2e-3
    t_end: float = 3.0
    quasi_static: bool = True
    steady_tol: float = 1e-9
    load_ramp: float = 0.0           # 0 = step load
    load_end: float = math.inf       # time at which the load is removed
    traction_form: str = "annulus"   # "annulus": -F0/(2 pi S); "ring": p_a - F0
    output_every: int = 10

    def __post_init__(self) -> None:
        for name in ("N", "output_every"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.N < 16:
            raise ValueError("N must be at least 16")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.steady_tol < math.inf:
            raise ValueError("steady_tol must be positive and finite")
        if not 0 <= self.load_ramp < math.inf:
            raise ValueError("load_ramp must be finite and >= 0")
        if math.isnan(self.load_end):
            raise ValueError("load_end must be a number")
        if self.traction_form not in ("annulus", "ring"):
            raise ValueError("traction_form must be 'annulus' or 'ring'")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


class SimulationError(RuntimeError):
    """Per-step solve failed to converge (after adaptive step halving)."""

    def __init__(self, message: str, iterations: int = 0,
                 last_residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.last_residual = last_residual
