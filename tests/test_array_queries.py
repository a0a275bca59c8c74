"""Array queries: one query at coordinate arrays equals a float query per node.

``sample_grid`` and ``polar_samples_from_cartesian`` query each component
once, at the coordinate arrays of an open mesh, and ``check_invariance``
takes one residual call per side at the stacked points.  The reference
here is the per-node or per-point loop they used to run: every value must
equal it exactly.  That holds for every polynomial table shape, since a
polynomial runs the same Horner steps on floats and on arrays, and for
value and derivative queries of every source family.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pemsim.core import AnisotropicModuli, ModelParams
from pemsim.fields import (CARTESIAN_COMPONENTS, DerivativeUnavailableError,
                           GridFieldSource, ProfileSource,
                           random_polynomial_field, sample_grid)
from pemsim.polynomials import random_harmonic
from pemsim.residuals import CARTESIAN_EQUATIONS, residual_cartesian_aniso
from pemsim.stationary import neumann_solution, rst_cubic
from pemsim.symmetry import (KINDS, GroupElement, HarmonicPotentialPair,
                             InvarianceReport, InvarianceRow, TimeFunction,
                             _trig, apply_group, cartesian_to_polar,
                             check_invariance, generate_displacement_symmetry,
                             polar_samples_from_cartesian)

PARAMS = ModelParams.reference(F0=16 * math.pi)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

seeds = hst.integers(0, 2**32 - 1)
sizes = hst.integers(2, 9)


def per_node(source, axes, components):
    """One float query per node and component, as ``sample_grid`` once ran."""
    array_axes = [ax for ax in axes if ax is not None]
    shape = tuple(ax.size for ax in array_axes)
    out = {name: np.empty(shape) for name in components}
    for idx in np.ndindex(*shape):
        nodes = iter(ax[i] for ax, i in zip(array_axes, idx))
        point = [0.0 if ax is None else next(nodes) for ax in axes]
        for name in components:
            out[name][idx] = source.eval(name, point)
    return out


def per_node_polar(field, ts, rs, phis):
    """The per-node loop ``polar_samples_from_cartesian`` once ran."""
    names = ("w1", "w2", "P", "rho", "theta", "C")
    out = {name: np.empty((ts.size, rs.size, phis.size)) for name in names}
    for i, j, k in np.ndindex(ts.size, rs.size, phis.size):
        angle = float(phis[k])
        c, s = _trig(angle)
        point = (ts[i], rs[j] * c, rs[j] * s)
        w1, w2 = cartesian_to_polar(field.eval("u1", point),
                                    field.eval("u2", point), angle)
        values = (w1, w2, field.eval("p", point), field.eval("rho", point),
                  field.eval("thetaF", point), field.eval("c", point))
        for name, value in zip(names, values):
            out[name][i, j, k] = value
    return out


def assert_equal_samples(grid, reference):
    assert sorted(grid.data) == sorted(reference)
    for name, expected in reference.items():
        assert np.array_equal(grid.data[name], expected), name


def grid_axes(n, m, t0=0.1, x0=-1.2, y0=-0.9, h=0.3):
    return (t0 + 0.25 * np.arange(3), x0 + h * np.arange(n),
            y0 + h * np.arange(m))


def polynomial_field(seed, degree, time_degree):
    return random_polynomial_field(np.random.default_rng(seed), degree=degree,
                                   time_degree=time_degree)


def displacement_generators(seed):
    rng = np.random.default_rng(seed)
    pair = HarmonicPotentialPair(random_harmonic(rng, 4), random_harmonic(rng, 4))
    return generate_displacement_symmetry(pair)


def element(kind, seed):
    if kind == "displacement-shift":
        return GroupElement.displacement_shift(0.9, *displacement_generators(seed))
    return {"time-translation": GroupElement.time_translation(0.35),
            "x-translation": GroupElement.x_translation(-0.6),
            "y-translation": GroupElement.y_translation(0.45),
            "rotation": GroupElement.rotation(0.7),
            "concentration-scaling": GroupElement.concentration_scaling(
                0.8, PARAMS.sigma1),
            "pressure-shift": GroupElement.pressure_shift(
                1.3, TimeFunction.sine())}[kind]


class TestPolynomialSampling:
    @PROPERTY
    @given(seed=seeds, degree=hst.integers(0, 3), time_degree=hst.integers(0, 2),
           n=sizes, m=sizes)
    @example(seed=0, degree=1, time_degree=0, n=9, m=9)   # table (1, 2, 2)
    def test_sample_grid_equals_float_queries(self, seed, degree, time_degree,
                                              n, m):
        field = polynomial_field(seed, degree, time_degree)
        axes = grid_axes(n, m)
        assert_equal_samples(sample_grid(field, axes, CARTESIAN_COMPONENTS),
                             per_node(field, axes, CARTESIAN_COMPONENTS))

    def test_derivative_queries_broadcast(self):
        field = polynomial_field(5, 3, 2)
        t, x, y = np.meshgrid(*grid_axes(4, 5), indexing="ij", sparse=True)
        for d in ((0, 1, 0), (1, 0, 2), (2, 1, 1)):
            got = field.eval("p", (t, x, y), d)
            assert got.shape == (3, 4, 5)
            for idx in np.ndindex(got.shape):
                exact = field.eval("p", (t[idx[0], 0, 0], x[0, idx[1], 0],
                                         y[0, 0, idx[2]]), d)
                assert got[idx] == exact, (d, idx)


class TestTransformedSampling:
    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY
    @given(seed=seeds, degree=hst.integers(0, 3), time_degree=hst.integers(0, 2),
           n=sizes, m=sizes)
    def test_every_kind_over_polynomial_field(self, kind, seed, degree,
                                              time_degree, n, m):
        field = polynomial_field(seed, degree, time_degree)
        source = apply_group(element(kind, seed), field)
        axes = grid_axes(n, m)
        assert_equal_samples(sample_grid(source, axes, CARTESIAN_COMPONENTS),
                             per_node(source, axes, CARTESIAN_COMPONENTS))

    @pytest.mark.parametrize("kind", ("time-translation", "x-translation",
                                      "y-translation", "rotation"))
    @PROPERTY
    @given(seed=seeds, n=hst.integers(3, 8), shift=hst.integers(-2, 2),
           quarter=hst.integers(0, 3))
    def test_grid_base_rotations_and_translations(self, kind, seed, n, shift,
                                                  quarter):
        # A square grid centred on 0 maps to itself under quarter turns; a
        # translation by whole steps maps the inner nodes onto nodes.
        h = 0.25
        ts = 0.2 * np.arange(7)
        xs = h * np.arange(-n, n + 1)
        base = sample_grid(polynomial_field(seed, 2, 1), [ts, xs, xs],
                           CARTESIAN_COMPONENTS)
        parameter = {"time-translation": 0.2 * shift, "x-translation": h * shift,
                     "y-translation": h * shift, "rotation": 0.5 * math.pi * quarter}
        source = apply_group(GroupElement(kind, parameter[kind]), base)
        axes = (ts[2:5], xs[2:-2], xs[2:-2])
        assert_equal_samples(sample_grid(source, axes, CARTESIAN_COMPONENTS),
                             per_node(source, axes, CARTESIAN_COMPONENTS))


class TestProfileSampling:
    @staticmethod
    def stationary():
        return neumann_solution(PARAMS, rst_cubic(PARAMS).r_st)

    @PROPERTY
    @given(n=sizes, m=sizes, r0=hst.floats(1.05, 1.3), phi0=hst.floats(-3.0, 3.0))
    def test_polar_profile_source(self, n, m, r0, phi0):
        source = self.stationary().as_polar_source(rho=1.1, theta=0.4)
        axes = (0.1 * np.arange(3), np.linspace(r0, r0 + 0.4, n),
                np.linspace(phi0, phi0 + 1.0, m))
        names = ("w1", "w2", "P", "rho", "theta", "C")
        assert_equal_samples(sample_grid(source, axes, names),
                             per_node(source, axes, names))

    @PROPERTY
    @given(n=sizes, m=sizes, x0=hst.floats(-1.8, 0.5), y0=hst.floats(1.05, 1.5))
    def test_radial_cartesian_source(self, n, m, x0, y0):
        source = self.stationary().as_cartesian_source(rho=1.1, thetaF=0.4)
        axes = (0.1 * np.arange(3), np.linspace(x0, x0 + 1.2, n),
                np.linspace(y0, y0 + 0.4, m))
        assert_equal_samples(sample_grid(source, axes, CARTESIAN_COMPONENTS),
                             per_node(source, axes, CARTESIAN_COMPONENTS))

    def test_ring_profile_source_with_constant_axis(self):
        source = ProfileSource({"w": (math.sin, math.cos, lambda r: -math.sin(r)),
                                "P": 1.5}, ndim=2)
        axes = (None, np.linspace(0.5, 2.0, 7))
        assert_equal_samples(sample_grid(source, axes, ("w", "P")),
                             per_node(source, axes, ("w", "P")))


class TestPolarSampling:
    @PROPERTY
    @given(seed=seeds, degree=hst.integers(2, 3), time_degree=hst.integers(1, 2),
           n=sizes, m=sizes, phi0=hst.floats(-3.5, 3.5))
    def test_polynomial_field(self, seed, degree, time_degree, n, m, phi0):
        field = polynomial_field(seed, degree, time_degree)
        ts, rs = 0.2 * np.arange(3), np.linspace(0.6, 1.7, n)
        # Quarter turns too: their cosines and sines are exact.
        for phis in (np.linspace(phi0, phi0 + 1.1, m), 0.5 * math.pi * np.arange(4)):
            grid = polar_samples_from_cartesian(field, ts, rs, phis)
            assert_equal_samples(grid, per_node_polar(field, ts, rs, phis))

    def test_radial_cartesian_source(self):
        field = TestProfileSampling.stationary().as_cartesian_source()
        ts, rs, phis = 0.2 * np.arange(3), np.linspace(1.1, 1.5, 6), np.linspace(
            -2.0, 2.0, 9)
        grid = polar_samples_from_cartesian(field, ts, rs, phis)
        assert_equal_samples(grid, per_node_polar(field, ts, rs, phis))


class TestArrayQueryErrors:
    @staticmethod
    def grid():
        axes = grid_axes(6, 5)
        return sample_grid(polynomial_field(3, 2, 1), axes, ("u1",)), axes

    def test_one_node_off_the_grid_raises(self):
        grid, (ts, xs, ys) = self.grid()
        t, x, y = np.meshgrid(ts, xs, ys, indexing="ij", sparse=True)
        x = x.copy()
        x[0, 3, 0] += 0.01
        with pytest.raises(DerivativeUnavailableError, match="axis 1"):
            grid.eval("u1", (t, x, y))

    def test_non_finite_node_raises(self):
        grid, (ts, xs, ys) = self.grid()
        for bad in (math.nan, math.inf):
            y = ys.copy()
            y[2] = bad
            with pytest.raises(DerivativeUnavailableError):
                grid.eval("u1", (ts[0], xs[1], y))

    def test_translation_off_the_grid_raises(self):
        grid, axes = self.grid()
        shifted = apply_group(GroupElement.x_translation(0.1), grid)
        with pytest.raises(DerivativeUnavailableError):
            sample_grid(shifted, axes, ("u1",))

    def test_scalar_component_broadcasts(self):
        ts, xs, ys = grid_axes(4, 3)
        grid = GridFieldSource([ts, xs, ys], {"c": 2.5})
        resampled = sample_grid(grid, [ts, xs, ys], ("c",))
        assert resampled.data["c"].shape == (3, 4, 3)
        assert np.all(resampled.data["c"] == 2.5)


# Every derivative multi-index the residual operators ask of a Cartesian
# source: time order up to 2, total space order up to 2.
CARTESIAN_DERIVATIVES = tuple((nt, nx, ny) for nt in range(3) for nx in range(3)
                              for ny in range(3 - nx))


def assert_equal_queries(source, component, point, d):
    """An array query equals the float query at each of its nodes."""
    nodes = np.broadcast_arrays(*point)
    got = np.broadcast_to(source.eval(component, point, d), nodes[0].shape)
    for idx in np.ndindex(got.shape):
        exact = source.eval(component, [float(v[idx]) for v in nodes], d)
        assert got[idx] == exact, (component, d, idx)


class TestDerivativeQueries:
    def test_grid_source(self):
        # Edge nodes too: their one-sided stencils run node by node as well.
        axes = (0.1 + 0.25 * np.arange(5), -1.2 + 0.3 * np.arange(6),
                -0.9 + 0.3 * np.arange(5))
        grid = sample_grid(polynomial_field(3, 2, 1), axes, CARTESIAN_COMPONENTS)
        ts, xs, ys = axes
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        for d in CARTESIAN_DERIVATIVES:
            for point in (mesh, (ts[0], xs, ys[1]), (ts, xs[:0:-1], ys)):
                assert_equal_queries(grid, "u1", point, d)
        x = xs.copy()
        x[3] += 0.01
        with pytest.raises(DerivativeUnavailableError, match="axis 1"):
            grid.eval("u1", (ts[1], x, ys[2]), (0, 1, 0))

    @PROPERTY
    @given(n=sizes, m=sizes, x0=hst.floats(-1.8, 0.5), y0=hst.floats(1.05, 1.5))
    def test_radial_cartesian_source(self, n, m, x0, y0):
        source = TestProfileSampling.stationary().as_cartesian_source(
            rho=1.1, thetaF=0.4)
        point = (0.3, np.linspace(x0, x0 + 1.2, n)[:, None],
                 np.linspace(y0, y0 + 0.4, m)[None, :])
        for name in CARTESIAN_COMPONENTS:
            for d in CARTESIAN_DERIVATIVES:
                assert_equal_queries(source, name, point, d)

    @PROPERTY
    @given(n=sizes, m=sizes, r0=hst.floats(1.05, 1.3), phi0=hst.floats(-3.0, 3.0))
    def test_profile_source(self, n, m, r0, phi0):
        solution = TestProfileSampling.stationary()
        rs = np.linspace(r0, r0 + 0.4, n)
        polar = solution.as_polar_source(rho=1.1, theta=0.4)
        point = (0.2, rs[:, None], np.linspace(phi0, phi0 + 1.0, m)[None, :])
        for name in ("w1", "w2", "P", "rho", "theta", "C"):
            for d in CARTESIAN_DERIVATIVES:
                assert_equal_queries(polar, name, point, d)
        ring = solution.as_ring_source()
        for name in ("w", "P", "rho", "theta"):
            for d in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)):
                assert_equal_queries(ring, name, (0.5 * np.arange(3)[:, None],
                                                  rs[None, :]), d)


def per_point_invariance(element, field, params, points, moduli=None,
                         rtol=1e-12):
    """The per-point loop ``check_invariance`` once ran."""
    if moduli is None:
        moduli = AnisotropicModuli.isotropic(params.lam, params.mu)
    transformed = apply_group(element, field)
    scale_factor = math.exp(element.parameter)
    A = element.rotation_matrix() if element.kind == "rotation" else None
    pre_norm = dict.fromkeys(CARTESIAN_EQUATIONS, 0.0)
    post_norm = dict.fromkeys(CARTESIAN_EQUATIONS, 0.0)
    diff = dict.fromkeys(CARTESIAN_EQUATIONS, 0.0)
    scale = dict.fromkeys(CARTESIAN_EQUATIONS, 0.0)
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
            scale[eq] = max(scale[eq], pre.scale[eq], post.scale[eq])
    floor = max(1.0, *pre_norm.values(), *post_norm.values())
    tol = {eq: rtol * max(floor, scale[eq]) for eq in CARTESIAN_EQUATIONS}
    rows = tuple(InvarianceRow(eq, pre_norm[eq], post_norm[eq], diff[eq],
                               tol[eq], diff[eq] <= tol[eq])
                 for eq in CARTESIAN_EQUATIONS)
    return InvarianceReport(element.kind, element.parameter, rows,
                            all(row.passed for row in rows))


def invariance_element(kind, seed):
    if kind == "quarter-turn":
        return GroupElement.rotation(0.5 * math.pi)
    return element(kind, seed)


ANISOTROPIC = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7, e13=0.4,
                                e23=0.2)


class TestBatchedInvariance:
    # "rotation" turns by 0.7 rad; "quarter-turn" snaps to exact trig values.
    @pytest.mark.parametrize("kind", KINDS + ("quarter-turn",))
    @PROPERTY
    @given(seed=seeds, degree=hst.integers(0, 3), time_degree=hst.integers(0, 2),
           n_points=hst.integers(1, 12))
    def test_polynomial_field(self, kind, seed, degree, time_degree, n_points):
        field = polynomial_field(seed, degree, time_degree)
        el = invariance_element(kind, seed)
        rng = np.random.default_rng(seed)
        points = tuple(zip(rng.uniform(0.0, 1.0, n_points),
                           *rng.uniform(-1.5, 1.5, (2, n_points))))
        assert (check_invariance(el, field, PARAMS, points=points)
                == per_point_invariance(el, field, PARAMS, points))
        if el.kind != "rotation":
            assert (check_invariance(el, field, PARAMS, points=points,
                                     moduli=ANISOTROPIC)
                    == per_point_invariance(el, field, PARAMS, points,
                                            moduli=ANISOTROPIC))
        stacked = tuple(np.array(v) for v in zip(*points))
        assert (residual_cartesian_aniso(field, ANISOTROPIC, PARAMS,
                                         stacked).max_abs()
                == max(residual_cartesian_aniso(field, ANISOTROPIC, PARAMS,
                                                p).max_abs() for p in points))

    @pytest.mark.parametrize("kind", KINDS + ("quarter-turn",))
    @PROPERTY
    @given(seed=seeds, n_points=hst.integers(1, 12))
    def test_stationary_embedding(self, kind, seed, n_points):
        field = TestProfileSampling.stationary().as_cartesian_source(
            rho=1.0, thetaF=0.5)
        el = invariance_element(kind, seed)
        rng = np.random.default_rng(seed)
        r = rng.uniform(PARAMS.r0 + 0.05, rst_cubic(PARAMS).r_st - 0.05, n_points)
        a = rng.uniform(-math.pi, math.pi, n_points)
        points = tuple(zip(np.full(n_points, 0.4), r * np.cos(a), r * np.sin(a)))
        assert (check_invariance(el, field, PARAMS, points=points)
                == per_point_invariance(el, field, PARAMS, points))

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY
    @given(seed=seeds, shift=hst.integers(-2, 2), quarter=hst.integers(0, 3),
           n_points=hst.integers(1, 8))
    def test_grid_field(self, kind, seed, shift, quarter, n_points):
        # Whole-step translations and quarter turns map the inner nodes of
        # a square grid centred on 0 onto nodes; the other kinds fix points.
        h = 0.25
        ts = 0.2 * np.arange(7)
        xs = h * np.arange(-5, 6)
        grid = sample_grid(polynomial_field(seed, 2, 1), [ts, xs, xs],
                           CARTESIAN_COMPONENTS)
        el = {"time-translation": GroupElement.time_translation(0.2 * shift),
              "x-translation": GroupElement.x_translation(h * shift),
              "y-translation": GroupElement.y_translation(h * shift),
              "rotation": GroupElement.rotation(0.5 * math.pi * quarter)
              }.get(kind) or element(kind, seed)
        rng = np.random.default_rng(seed)
        points = tuple(zip(rng.choice(ts[2:5], n_points),
                           *rng.choice(xs[2:-2], (2, n_points))))
        assert (check_invariance(el, grid, PARAMS, points=points)
                == per_point_invariance(el, grid, PARAMS, points))
