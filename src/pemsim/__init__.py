"""Fluid transport in 2D poroelastic materials.

Library layout:

* :mod:`pemsim.core` -- parameters, mixture relations, validation
* :mod:`pemsim.fields` -- field sources (polynomial, grid, radial embeddings)
* :mod:`pemsim.residuals` -- residual operators, fluxes, stress diagnostics
* :mod:`pemsim.symmetry` -- group transformations and invariance checks
* :mod:`pemsim.stationary` -- closed-form annulus states and the shrink radius
* :mod:`pemsim.transient` -- moving-boundary time integration
* :mod:`pemsim.cli` -- command-line front end
"""

from .core import (AnisotropicModuli, ModelParams, ParameterError, lame_star,
                   mixture_fields)
from .residuals import (FluxBundle, ResidualVector, fluxes,
                        residual_cartesian_aniso, residual_cartesian_iso,
                        residual_radial_full, residual_ring,
                        terzaghi_stress_radial)
from .stationary import (DirichletRootReport, NoRootError, RstReport,
                         StationarySolution, dirichlet_solution,
                         neumann_solution, rst_cubic, rst_dirichlet)
from .symmetry import (GroupElement, HarmonicPotentialPair, InvarianceReport,
                       TimeFunction, apply_group, cartesian_to_polar,
                       check_invariance, generate_displacement_symmetry,
                       verify_displacement_symmetry)
from .transient import (PhysicalBoundsError, RadialState, SimConfig,
                        SimulationError, SteadyReport, ring_source_from_states,
                        simulate, steady_state_check)

__version__ = "0.1.0"

__all__ = [
    "AnisotropicModuli", "ModelParams", "ParameterError", "lame_star",
    "mixture_fields",
    "FluxBundle", "ResidualVector", "fluxes", "residual_cartesian_aniso",
    "residual_cartesian_iso", "residual_radial_full", "residual_ring",
    "terzaghi_stress_radial",
    "DirichletRootReport", "NoRootError", "RstReport", "StationarySolution",
    "dirichlet_solution", "neumann_solution", "rst_cubic", "rst_dirichlet",
    "GroupElement", "HarmonicPotentialPair", "InvarianceReport", "TimeFunction",
    "apply_group", "cartesian_to_polar", "check_invariance",
    "generate_displacement_symmetry", "verify_displacement_symmetry",
    "PhysicalBoundsError", "RadialState", "SimConfig", "SimulationError",
    "SteadyReport", "ring_source_from_states", "simulate",
    "steady_state_check",
    "__version__",
]
