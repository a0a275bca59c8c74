"""The benchmark tracer's patch points exist in the package.

``benchmarks/tracing.py`` wraps pemsim functions and methods by attribute
name, so renaming or removing one in ``src`` breaks the benchmark run.  These
tests load the tracer by file path and install it, so such a change fails
here too.  Nothing under ``benchmarks/`` is modified.
"""

import importlib.util
from pathlib import Path

import numpy as np

from pemsim import symmetry
from pemsim.core import ModelParams
from pemsim.fields import random_polynomial_field

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
                                  points=symmetry.DEFAULT_SAMPLE_POINTS[:2])
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["check_invariance"] == 1
    assert counts["residual_cartesian.poly"] == 2
    assert counts["residual_cartesian.transformed"] == 2
