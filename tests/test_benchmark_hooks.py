"""The benchmark tracer's patch points exist in the package.

``benchmarks/tracing.py`` wraps pemsim functions and methods by attribute
name, so renaming or removing one in ``src`` breaks the benchmark run.  These
tests load the tracer by file path and install it, so such a change fails
here too.  Nothing under ``benchmarks/`` is modified.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from pemsim import fields, residuals, stationary, symmetry, transient
from pemsim.core import ModelParams
from pemsim.fields import random_polynomial_field
from pemsim.polynomials import random_harmonic

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_wraps_every_patch_point_and_uninstall_restores():
    tracer = load_tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original


def test_invariance_check_reaches_traced_residual_operator():
    field = random_polynomial_field(np.random.default_rng(3))
    element = symmetry.GroupElement.x_translation(0.25)
    tracer = load_tracer()
    tracer.install()
    try:
        symmetry.check_invariance(element, field, ModelParams.reference(),
                                  points=symmetry.DEFAULT_SAMPLE_POINTS)
    finally:
        tracer.uninstall()
    # One residual call per side over all ten points, not one per point.
    counts = tracer.counts()
    assert counts["check_invariance"] == 1
    assert counts["residual_cartesian.poly"] == 1
    assert counts["residual_cartesian.transformed"] == 1


def test_oracle_queries_reach_traced_eval():
    # The four oracle elements on a polynomial field, then two ring
    # residuals: every query is one call of a source's ``eval``, and the
    # counts are those of one query per call.
    params = ModelParams.reference(F0=16 * math.pi)
    rng = np.random.default_rng(0)
    G1, G2 = symmetry.generate_displacement_symmetry(
        symmetry.HarmonicPotentialPair(random_harmonic(rng, 6),
                                       random_harmonic(rng, 6)))
    field = random_polynomial_field(rng)
    elements = (
        symmetry.GroupElement.pressure_shift(1.0, symmetry.TimeFunction.sine()),
        symmetry.GroupElement.displacement_shift(1.0, G1, G2),
        symmetry.GroupElement.concentration_scaling(1.0, params.sigma1),
        symmetry.GroupElement.rotation(0.5 * math.pi))
    ring = stationary.neumann_solution(
        params, stationary.rst_cubic(params).r_st).as_ring_source()
    tracer = load_tracer()
    tracer.install()
    try:
        for element in elements:
            symmetry.check_invariance(element, field, params)
        for r in (1.2, 1.4):
            residuals.residual_ring(ring, params, (0.0, r))
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert {label: counts.get(label) for label in (
        "eval.poly", "eval.transformed", "eval.profile", "deriv")} == {
        "eval.poly": 300, "eval.transformed": 120, "eval.profile": 28,
        "deriv": 34}


def test_sample_grid_queries_each_component_once():
    # One array query per component: a per-node loop would show 405 * 6
    # polynomial evaluations here.
    field = random_polynomial_field(np.random.default_rng(5))
    axes = [np.linspace(0.0, 0.8, 5), np.linspace(-1.5, 1.5, 9),
            np.linspace(-1.5, 1.5, 9)]
    tracer = load_tracer()
    tracer.install()
    try:
        fields.sample_grid(field, axes, fields.CARTESIAN_COMPONENTS)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["sample_grid"] == 1
    assert tracer.sizes["sample_grid"] == 405
    assert counts["eval.poly"] <= 6


def test_simulate_band_solves_reach_tracer(monkeypatch):
    # Every (w, P) solve a step reports must pass through the traced
    # transient.solve_banded, or the tracer's transient.wp_solves undercounts.
    solves = []
    solve_step = transient._Stepper.solve_step

    def counting_solve_step(self, dt):
        result = solve_step(self, dt)
        solves.append(result[-1])
        return result

    monkeypatch.setattr(transient._Stepper, "solve_step", counting_solve_step)
    cfg = transient.SimConfig(N=32, dt=2e-3, t_end=0.02, output_every=1)
    tracer = load_tracer()
    tracer.install()
    try:
        states = transient.simulate(ModelParams.reference(F0=16 * math.pi),
                                    cfg, geometry="annulus", theta0=0.9999)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert sum(solves) > 0
    assert counts["solve_banded.wp"] == sum(solves)
    assert counts["solve_banded.transport"] == 2 * (len(states) - 1)
