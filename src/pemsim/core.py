"""Parameter and mixture data model shared by all solver modules.

The model describes a two-phase poroelastic material (elastic matrix plus
fluid-saturated pores) under Terzaghi effective stress.  All quantities are
dimensionless; a consistent nondimensionalization (characteristic length
``R0``, characteristic pressure ``mu`` unless the user picks otherwise) is
assumed throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

__all__ = [
    "ParameterError",
    "ModelParams",
    "AnisotropicModuli",
    "lame_star",
    "mixture_fields",
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


def mixture_fields(thetaF: float, rho: float, params: ModelParams) -> tuple[float, float]:
    """Recover the matrix-phase fraction and density from the mixture state.

    The mixture closure is rho = rho_f0*thetaF + rhoM*thetaM with
    thetaM = 1 - thetaF, so rhoM = (rho - rho_f0*thetaF)/thetaM.

    Raises:
        ValueError: if thetaF is outside (0, 1) (nonphysical porosity) or
            the implied matrix density is not positive.
    """
    if not 0.0 < thetaF < 1.0:
        raise ValueError(f"porosity thetaF must lie in (0, 1), got {thetaF}")
    thetaM = 1.0 - thetaF
    rhoM = (rho - params.rho_f0 * thetaF) / thetaM
    if not rhoM > 0.0:
        raise ValueError(
            f"inconsistent mixture: implied matrix density {rhoM} <= 0 "
            f"(rho={rho}, thetaF={thetaF}, rho_f0={params.rho_f0})"
        )
    return thetaM, rhoM
