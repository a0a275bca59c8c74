"""Fluid transport in 2D poroelastic materials.

Library layout:

* :mod:`pemsim.core` -- parameters, validation, the transient run's
  ``SimConfig`` and ``SimulationError``
* :mod:`pemsim.fields` -- field sources (polynomial, grid, radial embeddings)
* :mod:`pemsim.residuals` -- residual operators, stress diagnostics
* :mod:`pemsim.symmetry` -- group transformations and invariance checks
* :mod:`pemsim.stationary` -- closed-form annulus states and the shrink radius
* :mod:`pemsim.transient` -- moving-boundary time integration
* :mod:`pemsim.cli` -- command-line front end

The names in ``__all__`` resolve on first use (PEP 562), each from its home
module in ``_HOME``, so ``import pemsim`` loads no submodule and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, in the order of __all__.
_HOME = {
    **dict.fromkeys(("AnisotropicModuli", "ModelParams", "ParameterError",
                     "lame_star"), "core"),
    **dict.fromkeys(("ResidualVector", "residual_cartesian_aniso",
                     "residual_cartesian_iso", "residual_radial_full",
                     "residual_ring", "terzaghi_stress_radial"), "residuals"),
    **dict.fromkeys(("DirichletRootReport", "NoRootError", "RstReport",
                     "StationarySolution", "dirichlet_solution",
                     "neumann_solution", "rst_cubic", "rst_dirichlet"),
                    "stationary"),
    **dict.fromkeys(("GroupElement", "HarmonicPotentialPair",
                     "InvarianceReport", "TimeFunction", "apply_group",
                     "cartesian_to_polar", "check_invariance",
                     "generate_displacement_symmetry",
                     "verify_displacement_symmetry"), "symmetry"),
    **dict.fromkeys(("PhysicalBoundsError", "RadialState"), "transient"),
    **dict.fromkeys(("SimConfig", "SimulationError"), "core"),
    **dict.fromkeys(("SteadyReport", "ring_source_from_states", "simulate",
                     "steady_state_check"), "transient"),
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
