"""The polynomial source's last-point memo: reuse counts and bit identity.

``PolyFieldSource`` keeps, per (component, d), the value of its last query
and that query's point.  A repeated query is answered from it, so the
polynomial runs once per distinct (component, d, point set); every answer
must equal a fresh source's bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pemsim.core import ModelParams
from pemsim.fields import (CARTESIAN_COMPONENTS, PolyFieldSource,
                           random_polynomial_field)
from pemsim.polynomials import PolyTXY, random_harmonic
from pemsim.residuals import residual_cartesian_iso
from pemsim.symmetry import (GroupElement, HarmonicPotentialPair, TimeFunction,
                             apply_group, check_invariance,
                             generate_displacement_symmetry)

PARAMS = ModelParams.reference(F0=16 * math.pi)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def bits(value):
    """Type, shape and exact bytes of an answer, for bit-for-bit comparison."""
    return type(value), np.shape(value), np.asarray(value, dtype=float).tobytes()


def fresh(source, component, point, d=None):
    """The answer of a new source on the same components, with an empty memo."""
    return PolyFieldSource(source.components).eval(component, point, d)


def point_key(point):
    return tuple((np.shape(v), np.asarray(v, dtype=float).tobytes())
                 for v in point)


@pytest.fixture
def counts(monkeypatch):
    """Polynomial evaluations, and the distinct (component, d, point) queries."""
    seen = {"calls": 0, "queries": set()}
    poly_call = PolyTXY.__call__
    source_eval = PolyFieldSource.eval

    def counted_call(self, *point):
        seen["calls"] += 1
        return poly_call(self, *point)

    def recorded_eval(self, component, point, d=None):
        seen["queries"].add((component, tuple(d or (0, 0, 0)), point_key(point)))
        return source_eval(self, component, point, d)

    monkeypatch.setattr(PolyTXY, "__call__", counted_call)
    monkeypatch.setattr(PolyFieldSource, "eval", recorded_eval)
    return seen


class TestReuseCounts:
    def test_oracle_elements_evaluate_each_query_once(self, counts):
        rng = np.random.default_rng(17)
        pair = HarmonicPotentialPair(random_harmonic(rng, 6),
                                     random_harmonic(rng, 6))
        G1, G2 = generate_displacement_symmetry(pair)
        field = random_polynomial_field(rng)
        elements = (GroupElement.pressure_shift(1.0, TimeFunction.sine()),
                    GroupElement.displacement_shift(1.0, G1, G2),
                    GroupElement.concentration_scaling(1.0, PARAMS.sigma1),
                    GroupElement.rotation(0.5 * math.pi))
        for element in elements:
            assert check_invariance(element, field, PARAMS).passed
        assert counts["calls"] == len(counts["queries"]) == 34

    def test_rotated_residual(self, counts):
        field = random_polynomial_field(np.random.default_rng(23))
        rotated = apply_group(GroupElement.rotation(0.7), field)
        residual_cartesian_iso(rotated, PARAMS, (0.3, 0.6, -0.4))
        assert counts["calls"] == 34


def signed_zero_source():
    # x + (-0.0) at t = y = -1: the Horner steps keep the sign of a zero x.
    coeffs = np.zeros((1, 2, 1))
    coeffs[0, 0, 0] = -0.0
    coeffs[0, 1, 0] = 1.0
    return PolyFieldSource({"u1": PolyTXY(coeffs)})


class TestMemoEdgeCases:
    @pytest.mark.parametrize("case", ["mutated-answer", "mutated-coordinates",
                                      "replaced-component", "signed-zero",
                                      "nan-coordinate"])
    def test_answers_equal_a_fresh_source(self, case):
        src = random_polynomial_field(np.random.default_rng(31))
        xs = np.array([0.2, -0.7, 1.1])
        point = (np.array([0.3, 0.3, 0.8]), xs, np.array([0.5, -0.1, 0.9]))
        d = (1, 1, 0)
        queries = [("u1", point, d)]
        if case == "mutated-answer":
            src.eval("u1", point, d)[...] = 99.0
        elif case == "mutated-coordinates":
            src.eval("u1", point, d)
            xs[1] = 0.4
        elif case == "replaced-component":
            src.eval("u1", point, d)
            src.components["u1"] = src.components["p"]
        elif case == "signed-zero":
            src = signed_zero_source()
            queries = [("u1", (-1.0, x, -1.0), None)
                       for x in (-0.0, 0.0, -0.0, 0.0, 0.0)]
            assert bits(fresh(src, *queries[0])) != bits(fresh(src, *queries[1]))
        else:
            queries = [("p", (0.3, math.nan, 0.2), d),
                       ("p", (0.3, math.nan, 0.2), d),
                       ("p", (point[0], np.array([0.1, math.nan, 0.4]), 0.2), d),
                       ("p", (point[0], np.array([0.1, math.nan, 0.4]), 0.2), d)]
        for query in queries:
            assert bits(src.eval(*query)) == bits(fresh(src, *query))


# A small pool of point sets, so that draws repeat queries and also move
# between float and array points with the same coordinates.
POINTS = [(0.3, 0.6, -0.4), (0.7, -1.1, 0.6), (0.3, 0.6, -0.4)]
ARRAYS = [tuple(np.array(c) for c in zip(*POINTS)),
          tuple(np.array(c) for c in zip(*POINTS[:2]))]

queries = hst.lists(
    hst.tuples(hst.sampled_from(CARTESIAN_COMPONENTS[:2]),
               hst.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 2)]),
               hst.integers(0, len(POINTS) - 1),
               hst.integers(0, len(ARRAYS) - 1)),
    min_size=1, max_size=40)


class TestMemoisedEqualsFresh:
    @PROPERTY
    @given(seed=hst.integers(0, 2**32 - 1), degree=hst.integers(0, 3),
           time_degree=hst.integers(0, 2), draws=queries)
    def test_alternating_float_and_array_queries(self, seed, degree,
                                                 time_degree, draws):
        src = random_polynomial_field(np.random.default_rng(seed),
                                      degree=degree, time_degree=time_degree)
        for n, (component, d, i, j) in enumerate(draws):
            point = POINTS[i] if n % 2 == 0 else ARRAYS[j]
            assert bits(src.eval(component, point, d)) == bits(
                fresh(src, component, point, d)), (n, component, d)
