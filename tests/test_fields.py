import math

import numpy as np
import pytest

from pemsim.fields import (DerivativeUnavailableError, GridFieldSource,
                           PolyFieldSource, ProfileSource,
                           RadialCartesianSource, random_polynomial_field,
                           sample_grid)
from pemsim.polynomials import Poly2, PolyTXY, harmonic_basis
from pemsim.transient import fd1, fd2


def poly_source(coeffs_by_name):
    return PolyFieldSource({k: PolyTXY(v) for k, v in coeffs_by_name.items()})


class TestPolynomials:
    def test_poly2_eval_and_deriv(self):
        # phi = x^3 - 3 x y^2
        phi = Poly2([[0, 0, 0], [0, 0, -3], [0, 0, 0], [1, 0, 0]])
        assert phi(2.0, 1.0) == 8.0 - 6.0
        assert phi.eval_deriv(2.0, 1.0, nx=1) == 3 * 4 - 3 * 1
        assert phi.laplacian().is_zero()

    def test_harmonic_basis_laplacians_vanish(self):
        for poly in harmonic_basis(6):
            assert poly.laplacian().is_zero()

    def test_polytxy_derivatives_exact(self):
        rng = np.random.default_rng(3)
        poly = PolyTXY(rng.uniform(-1, 1, size=(3, 4, 4)))
        t, x, y = 0.37, -0.81, 0.55
        h = 1e-5
        fd = (poly(t, x + h, y) - poly(t, x - h, y)) / (2 * h)
        assert poly.deriv((0, 1, 0))(t, x, y) == pytest.approx(fd, rel=1e-8)
        fd_t = (poly(t + h, x, y) - 2 * poly(t, x, y) + poly(t - h, x, y)) / h**2
        assert poly.deriv((2, 0, 0))(t, x, y) == pytest.approx(fd_t, rel=1e-5)


class TestPolyFieldSource:
    def test_deterministic(self):
        rng = np.random.default_rng(11)
        src = random_polynomial_field(rng)
        q = src.eval("u1", (0.2, 0.3, 0.4), (1, 1, 0))
        assert src.eval("u1", (0.2, 0.3, 0.4), (1, 1, 0)) == q

    def test_unknown_component(self):
        src = poly_source({"u1": [[[1.0]]]})
        with pytest.raises(KeyError):
            src.eval("nope", (0, 0, 0))


class TestGridFieldSource:
    @staticmethod
    def smooth(t, x, y):
        return math.sin(1.3 * x) * math.cos(0.7 * y) + 0.5 * t * x

    def make(self, nx=41, ny=41, nt=5):
        ts = np.linspace(0.0, 1.0, nt)
        xs = np.linspace(-1.0, 1.0, nx)
        ys = np.linspace(-1.0, 1.0, ny)
        data = np.empty((nt, nx, ny))
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                for k, y in enumerate(ys):
                    data[i, j, k] = self.smooth(t, x, y)
        return GridFieldSource([ts, xs, ys], {"f": data}), (ts, xs, ys)

    def test_second_order_convergence(self):
        # interior and edge stencils must both be O(h^2)
        errs = []
        for nx in (21, 41):
            src, (ts, xs, ys) = self.make(nx=nx, ny=nx)
            worst = 0.0
            for x in (xs[0], xs[nx // 3], xs[-1]):
                got = src.eval("f", (ts[2], x, ys[nx // 2]), (0, 2, 0))
                exact = -1.3**2 * math.sin(1.3 * x) * math.cos(0.7 * ys[nx // 2])
                worst = max(worst, abs(got - exact))
            errs.append(worst)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)

    def test_mixed_partials_commute_exactly(self):
        # the point stencils of eval and the whole-array fd1/fd2 are the same
        # differences, edges included, and mixed partials commute
        src, axes = self.make(nx=9, ny=7)
        f = src.data["f"]
        hs = src.spacings
        stencils = {1: fd1, 2: fd2}

        def along(arr, axis, order):
            return np.apply_along_axis(stencils[order], axis, arr, hs[axis])

        cases = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0),
                 (0, 0, 2), (1, 1, 0), (0, 1, 1)]
        for d in cases:
            active = [axis for axis in range(3) if d[axis]]
            forward, backward = f, f
            for axis in active:
                forward = along(forward, axis, d[axis])
            for axis in reversed(active):
                backward = along(backward, axis, d[axis])
            tol = 1e-12 * np.max(np.abs(f)) / np.prod(
                [hs[axis] ** d[axis] for axis in active])
            for idx in np.ndindex(f.shape):
                point = tuple(ax[i] for ax, i in zip(axes, idx))
                got = src.eval("f", point, d)
                assert abs(got - forward[idx]) <= tol, (d, idx)
                assert abs(got - backward[idx]) <= tol, (d, idx)

    def test_off_grid_query_rejected(self):
        src, (ts, xs, ys) = self.make()
        with pytest.raises(DerivativeUnavailableError):
            src.eval("f", (ts[0], 0.123456, ys[0]))

    def test_constant_axis_and_scalar_component(self):
        xs = np.linspace(0.0, 1.0, 11)
        src = GridFieldSource([None, xs], {"f": np.linspace(0, 1, 11) ** 2,
                                           "c": 2.5})
        assert src.eval("f", (0.7, xs[5]), (1, 0)) == 0.0
        assert src.eval("f", (0.0, xs[5]), (0, 1)) == pytest.approx(
            2 * xs[5], abs=1e-12)
        assert src.eval("c", (0.0, xs[3])) == 2.5
        assert src.eval("c", (0.0, xs[3]), (0, 2)) == 0.0

    def test_order_above_two_rejected(self):
        src, (ts, xs, ys) = self.make()
        with pytest.raises(DerivativeUnavailableError):
            src.eval("f", (ts[0], xs[0], ys[0]), (0, 3, 0))


class TestProfileSource:
    def test_radial_profiles_with_constants(self):
        w = (lambda r: r**2, lambda r: 2 * r, lambda r: 2.0)
        src = ProfileSource({"w": w, "P": 1.5, "rho": 1.0, "theta": 0.5},
                            ndim=2)
        assert src.eval("w", (0.3, 2.0), (0, 1)) == 4.0
        assert src.eval("w", (0.3, 2.0), (1, 0)) == 0.0
        assert src.eval("P", (0.0, 1.7)) == 1.5
        assert src.eval("P", (0.0, 1.7), (0, 1)) == 0.0


class TestRadialCartesianSource:
    def test_derivatives_match_finite_differences(self):
        # radial state w(r) = a r ln r + b r + c / r, P = p0 + c0 ln r
        a, b, c, p0, c0 = 0.21, -0.4, 0.13, 0.7, -0.9
        w = (lambda r: a * r * math.log(r) + b * r + c / r,
             lambda r: a * (math.log(r) + 1) + b - c / r**2,
             lambda r: a / r + 2 * c / r**3)
        P = (lambda r: p0 + c0 * math.log(r),
             lambda r: c0 / r,
             lambda r: -c0 / r**2)
        src = RadialCartesianSource(w, P, rho=1.1, thetaF=0.4)
        h = 1e-5
        t, x, y = 0.0, 1.1, -0.6

        def num(comp, dx, dy):
            if (dx, dy) == (1, 0):
                return (src.eval(comp, (t, x + h, y))
                        - src.eval(comp, (t, x - h, y))) / (2 * h)
            if (dx, dy) == (0, 1):
                return (src.eval(comp, (t, x, y + h))
                        - src.eval(comp, (t, x, y - h))) / (2 * h)
            if (dx, dy) == (2, 0):
                return (src.eval(comp, (t, x + h, y)) - 2 * src.eval(comp, (t, x, y))
                        + src.eval(comp, (t, x - h, y))) / h**2
            if (dx, dy) == (0, 2):
                return (src.eval(comp, (t, x, y + h)) - 2 * src.eval(comp, (t, x, y))
                        + src.eval(comp, (t, x, y - h))) / h**2
            return (src.eval(comp, (t, x + h, y + h))
                    - src.eval(comp, (t, x + h, y - h))
                    - src.eval(comp, (t, x - h, y + h))
                    + src.eval(comp, (t, x - h, y - h))) / (4 * h**2)

        for comp in ("u1", "u2", "p"):
            for d in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
                got = src.eval(comp, (t, x, y), (0, *d))
                assert got == pytest.approx(num(comp, *d), rel=2e-5, abs=2e-5), (
                    comp, d)

    def test_time_derivatives_vanish(self):
        src = RadialCartesianSource(
            (lambda r: r, lambda r: 1.0, lambda r: 0.0),
            (lambda r: 1.0, lambda r: 0.0, lambda r: 0.0))
        assert src.eval("u1", (0.5, 1.0, 0.5), (1, 0, 0)) == 0.0
        assert src.eval("p", (0.5, 1.0, 0.5), (2, 0, 0)) == 0.0

    def test_origin_rejected(self):
        src = RadialCartesianSource(
            (lambda r: r, lambda r: 1.0, lambda r: 0.0),
            (lambda r: 1.0, lambda r: 0.0, lambda r: 0.0))
        with pytest.raises(DerivativeUnavailableError):
            src.eval("u1", (0.0, 0.0, 0.0))


class TestSampleGrid:
    def test_round_trip_values(self):
        rng = np.random.default_rng(5)
        src = random_polynomial_field(rng, degree=2, time_degree=1)
        ts = np.linspace(0, 1, 3)
        xs = np.linspace(-1, 1, 7)
        ys = np.linspace(-1, 1, 7)
        grid = sample_grid(src, [ts, xs, ys], ("u1", "p"))
        pt = (ts[1], xs[2], ys[5])
        assert grid.eval("u1", pt) == pytest.approx(src.eval("u1", pt), rel=1e-15)
