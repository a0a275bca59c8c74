import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pemsim import symmetry
from pemsim.core import AnisotropicModuli, ModelParams, lame_star
from pemsim.fields import (DerivativeUnavailableError, random_polynomial_field,
                           sample_grid)
from pemsim.polynomials import Poly2, PolyTXY, random_harmonic
from pemsim.residuals import residual_cartesian_iso
from pemsim.stationary import neumann_solution, rst_cubic
from pemsim.symmetry import (GroupElement, HarmonicPotentialPair, TimeFunction,
                             _trig, apply_group, cartesian_to_polar, check_invariance,
                             displacement_symmetry_residual,
                             generate_displacement_symmetry,
                             polar_samples_from_cartesian,
                             random_displacement_symmetry_aniso,
                             verify_displacement_symmetry,
                             verify_displacement_symmetry_aniso)

PARAMS = ModelParams.reference(F0=16 * math.pi)
LS = lame_star(PARAMS)


def stationary_field():
    r_st = rst_cubic(PARAMS).r_st
    return neumann_solution(PARAMS, r_st).as_cartesian_source(rho=1.0,
                                                              thetaF=0.5)


def annulus_points():
    r_st = rst_cubic(PARAMS).r_st
    radii = np.linspace(PARAMS.r0 + 0.05, r_st - 0.05, 3)
    return tuple((0.4, r * math.cos(a), r * math.sin(a))
                 for r in radii for a in (0.5, 2.1, 3.8))


class TestGenerators:
    def test_quadratic_potential(self):
        pair = HarmonicPotentialPair(Poly2([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
                                     Poly2.zero())
        G1, G2 = generate_displacement_symmetry(pair)
        assert G1(0.7, -0.3) == 2 * 0.7
        assert G2(0.7, -0.3) == -2 * (-0.3)
        assert verify_displacement_symmetry(G1, G2, PARAMS) == 0.0

    def test_cubic_potential(self):
        # phi = x^3 - 3 x y^2 gives G = (3x^2 - 3y^2, -6xy)
        pair = HarmonicPotentialPair(
            Poly2([[0, 0, 0], [0, 0, -3], [0, 0, 0], [1, 0, 0]]), Poly2.zero())
        G1, G2 = generate_displacement_symmetry(pair)
        assert G1(1.2, 0.5) == pytest.approx(3 * 1.2**2 - 3 * 0.25, rel=1e-15)
        assert G2(1.2, 0.5) == pytest.approx(-6 * 1.2 * 0.5, rel=1e-15)
        assert verify_displacement_symmetry(G1, G2, PARAMS) <= 1e-12

    def test_psi_only_potential(self):
        pair = HarmonicPotentialPair(Poly2.zero(),
                                     Poly2([[0, 0], [0, 1]]))  # psi = x y
        G1, G2 = generate_displacement_symmetry(pair)
        assert G1(0.4, 0.9) == 0.4
        assert G2(0.4, 0.9) == -0.9

    def test_non_harmonic_potential_rejected(self):
        with pytest.raises(ValueError, match="not harmonic"):
            HarmonicPotentialPair(Poly2([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
                                  Poly2.zero())

    def test_all_degrees_up_to_six(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pair = HarmonicPotentialPair(random_harmonic(rng, 6),
                                         random_harmonic(rng, 6))
            G1, G2 = generate_displacement_symmetry(pair)
            assert verify_displacement_symmetry(G1, G2, PARAMS) <= 1e-12 * max(
                1.0, np.max(np.abs(G1.coeffs)), np.max(np.abs(G2.coeffs)))

    def test_hand_built_solution(self):
        # G = (x^2, -(2 lam_star/(lam_star - mu)) x y) solves the system
        G1 = Poly2([[0, 0], [0, 0], [1, 0]])
        G2 = Poly2([[0, 0], [0, -2 * LS / (LS - PARAMS.mu)]])
        assert verify_displacement_symmetry(G1, G2, PARAMS) <= 1e-13

    def test_rejection_power(self):
        # G = (x^2, 0) violates the generator system with residual 2*lam_star
        G1 = Poly2([[0], [0], [1]])
        G2 = Poly2.zero()
        worst = verify_displacement_symmetry(G1, G2, PARAMS)
        assert worst == pytest.approx(2 * LS, rel=1e-15)
        assert worst > 0.1 * LS

    def test_aniso_quadratic_family(self):
        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        rng = np.random.default_rng(9)
        for _ in range(25):
            G1, G2 = random_displacement_symmetry_aniso(moduli, rng)
            assert verify_displacement_symmetry_aniso(G1, G2, moduli) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(moduli=hst.builds(
               AnisotropicModuli,
               e11=hst.floats(0.1, 10.0), e22=hst.floats(0.1, 10.0),
               e33=hst.floats(0.1, 10.0), e12=hst.floats(0.0, 5.0),
               e13=hst.floats(0.0, 5.0), e23=hst.floats(0.0, 5.0)),
           seed=hst.integers(0, 2**32 - 1))
    @example(moduli=AnisotropicModuli.isotropic(PARAMS.lam, PARAMS.mu),
             seed=9)
    @example(moduli=AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                      e13=0.4, e23=0.2), seed=9)
    def test_aniso_null_space_matches_scipy(self, moduli, seed):
        # The numpy null space is scipy.linalg.null_space bit for bit, so
        # the draw is the one the scipy version made.
        seen = []

        def scipy_null_space(M):
            seen.append(M)
            return scipy.linalg.null_space(M)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(symmetry, "_null_space", scipy_null_space)
            expected = random_displacement_symmetry_aniso(
                moduli, np.random.default_rng(seed))
        (M,) = seen
        assert np.array_equal(symmetry._null_space(M),
                              scipy.linalg.null_space(M))
        G1, G2 = random_displacement_symmetry_aniso(
            moduli, np.random.default_rng(seed))
        assert np.array_equal(G1.coeffs, expected[0].coeffs)
        assert np.array_equal(G2.coeffs, expected[1].coeffs)
        assert verify_displacement_symmetry_aniso(G1, G2, moduli) <= 1e-12

    def test_aniso_residual_rejects_wrong_pair(self):
        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        r1, r2 = displacement_symmetry_residual(
            Poly2([[0], [0], [1]]), Poly2.zero(), moduli, 0.3, 0.3)
        assert (abs(r1), abs(r2)) == (2 * moduli.e11, 2 * moduli.e13)


class TestApplyGroup:
    @pytest.mark.parametrize("element", [
        GroupElement.time_translation(0.0),
        GroupElement.x_translation(0.0),
        GroupElement.rotation(0.0),
        GroupElement.concentration_scaling(0.0, 1.0),
        GroupElement.pressure_shift(0.0, TimeFunction.sine()),
        GroupElement.displacement_shift(0.0, Poly2([[0], [1]]), Poly2.zero()),
    ])
    def test_zero_parameter_is_identity(self, element):
        rng = np.random.default_rng(17)
        field = random_polynomial_field(rng)
        moved = apply_group(element, field)
        for comp in ("u1", "u2", "p", "rho", "thetaF", "c"):
            for d in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 2, 0)):
                assert moved.eval(comp, (0.3, 0.4, -0.2), d) == pytest.approx(
                    field.eval(comp, (0.3, 0.4, -0.2), d), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        GroupElement.time_translation,
        GroupElement.x_translation,
        GroupElement.y_translation,
        GroupElement.rotation,
        lambda eps: GroupElement.concentration_scaling(eps, 1.0),
        lambda eps: GroupElement.pressure_shift(eps, TimeFunction.sine()),
        lambda eps: GroupElement.displacement_shift(
            eps, Poly2([[0], [1]]), Poly2.zero()),
    ], ids=symmetry.KINDS)
    def test_non_finite_parameter_rejected(self, make, value):
        # No residual reads p's value, so a NaN pressure shift would pass
        # check_invariance without ever entering it.
        with pytest.raises(ValueError, match="parameter"):
            make(value)

    @pytest.mark.parametrize("point, d", [((0.3, 0.4), None),
                                          ((0.3, 0.4, 0.5, 0.6), None),
                                          ((0.3, 0.4, 0.5), (0, 1)),
                                          ((0.3, 0.4, 0.5), (0, -1, 0))])
    def test_malformed_query_rejected(self, point, d):
        field = apply_group(GroupElement.x_translation(0.25),
                            random_polynomial_field(np.random.default_rng(7)))
        with pytest.raises(DerivativeUnavailableError):
            field.eval("u1", point, d)

    @pytest.mark.parametrize("component", ["u1", "u2", "p", "c"])
    @pytest.mark.parametrize("d", [(0, 3, 0), (0, 2, 1), (1, 1, 2)])
    def test_rotation_above_space_order_2_unavailable(self, component, d):
        # The rotation rule stops at the Hessian, though the polynomial base
        # answers order 3; it reports that like every other source does.
        field = apply_group(GroupElement.rotation(0.7),
                            random_polynomial_field(np.random.default_rng(7)))
        with pytest.raises(DerivativeUnavailableError, match="space order"):
            field.eval(component, (0.3, 0.4, -0.2), d)

    def test_rotation_inverse(self):
        rng = np.random.default_rng(23)
        field = random_polynomial_field(rng)
        phi = 0.83
        round_trip = apply_group(GroupElement.rotation(-phi),
                                 apply_group(GroupElement.rotation(phi), field))
        for comp in ("u1", "u2", "p", "c"):
            for d in ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 2)):
                a = round_trip.eval(comp, (0.2, 0.7, -0.4), d)
                b = field.eval(comp, (0.2, 0.7, -0.4), d)
                assert a == pytest.approx(b, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("phi", [0.0, 0.7, -1.3, 0.5 * math.pi, math.pi,
                                     1.5 * math.pi, 2.0 * math.pi])
    def test_inverse_rotation_negates_the_sine_exactly(self, phi):
        # A transformed source queries its base at the image of the point
        # under the inverse element, so _trig(-phi) must be (c, -s) bit for
        # bit, down to the sign of a zero sine.
        c, s = _trig(phi)
        assert [v.hex() for v in _trig(-phi)] == [c.hex(), (-s).hex()]

    def test_rotation_group_law(self):
        rng = np.random.default_rng(29)
        field = random_polynomial_field(rng)
        a, b = 0.37, 1.12
        composed = apply_group(GroupElement.rotation(a),
                               apply_group(GroupElement.rotation(b), field))
        direct = apply_group(GroupElement.rotation(a + b), field)
        for comp in ("u1", "u2", "p"):
            for d in ((0, 0, 0), (0, 1, 0), (0, 0, 2), (0, 1, 1)):
                x = composed.eval(comp, (0.1, 0.5, 0.8), d)
                y = direct.eval(comp, (0.1, 0.5, 0.8), d)
                assert x == pytest.approx(y, rel=1e-12, abs=1e-12)

    def test_quarter_turn_on_radial_field(self):
        # a radially symmetric state transforms into itself at mapped points
        field = stationary_field()
        rotated = apply_group(GroupElement.rotation(0.5 * math.pi), field)
        for t, x, y in annulus_points():
            for comp in ("p", "u1", "u2"):
                got = rotated.eval(comp, (t, -y, x))
                ref_u = np.array([field.eval("u1", (t, x, y)),
                                  field.eval("u2", (t, x, y))])
                if comp == "p":
                    expected = field.eval("p", (t, x, y))
                else:
                    expected = -ref_u[1] if comp == "u1" else ref_u[0]
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-14)


class TestCheckInvariance:
    def test_pressure_shift_on_smooth_fields(self):
        rng = np.random.default_rng(41)
        el = GroupElement.pressure_shift(1.0, TimeFunction.sine())
        for _ in range(5):
            field = random_polynomial_field(rng)
            report = check_invariance(el, field, PARAMS)
            assert report.passed

    def test_pressure_shift_on_stationary_solution(self):
        el = GroupElement.pressure_shift(0.7, TimeFunction.sine())
        report = check_invariance(el, stationary_field(), PARAMS,
                                  points=annulus_points())
        assert report.passed
        assert all(row.post_norm <= 1e-11 for row in report.rows)

    def test_displacement_shift_invariance(self):
        rng = np.random.default_rng(43)
        pair = HarmonicPotentialPair(random_harmonic(rng, 6),
                                     random_harmonic(rng, 6))
        G1, G2 = generate_displacement_symmetry(pair)
        el = GroupElement.displacement_shift(0.8, G1, G2)
        report = check_invariance(el, stationary_field(), PARAMS,
                                  points=annulus_points())
        assert report.passed
        field = random_polynomial_field(rng)
        assert check_invariance(el, field, PARAMS).passed

    def test_translations(self):
        rng = np.random.default_rng(47)
        field = random_polynomial_field(rng)
        for el in (GroupElement.time_translation(0.2),
                   GroupElement.x_translation(-0.4),
                   GroupElement.y_translation(0.9)):
            assert check_invariance(el, field, PARAMS).passed

    def test_concentration_scaling_scales_only_solute(self):
        rng = np.random.default_rng(53)
        el = GroupElement.concentration_scaling(1.0, PARAMS.sigma1)
        for _ in range(5):
            field = random_polynomial_field(rng)
            report = check_invariance(el, field, PARAMS)
            assert report.passed
            # the check is only meaningful if the solute residual is alive
            assert report.row("solute").pre_norm > 1e-3

    def test_concentration_scaling_zero_concentration(self):
        rng = np.random.default_rng(59)
        field = random_polynomial_field(rng)
        field.components["c"] = PolyTXY.constant(0.0)
        el = GroupElement.concentration_scaling(1.0, PARAMS.sigma1)
        report = check_invariance(el, field, PARAMS)
        assert report.passed

    def test_rotation_quarter_turn_analytic(self):
        rng = np.random.default_rng(61)
        el = GroupElement.rotation(0.5 * math.pi)
        for _ in range(5):
            field = random_polynomial_field(rng)
            report = check_invariance(el, field, PARAMS)
            assert report.passed

    def test_negative_control_fails_with_known_magnitude(self):
        field = stationary_field()
        G1 = Poly2([[0], [0], [1]])  # x^2
        el = GroupElement.displacement_shift(1.0, G1, Poly2.zero())
        report = check_invariance(el, field, PARAMS, points=annulus_points())
        assert not report.passed
        row = report.row("momentum1")
        # stationary residuals vanish, so the defect is exactly 2*lam_star
        assert row.max_diff == pytest.approx(2 * LS, rel=1e-12)

    @pytest.mark.parametrize("seed", [1017, 1090, 2120, 2218, 9305])
    def test_large_displacement_shift_passes(self, seed):
        # Degree-6 generators reach |G''| ~ 520 at these points, so the
        # shifted momentum rows round at ~1e-12 although the shift is exact.
        rng = np.random.default_rng(seed)
        G1, G2 = generate_displacement_symmetry(HarmonicPotentialPair(
            random_harmonic(rng, 6), random_harmonic(rng, 6)))
        el = GroupElement.displacement_shift(1.0, G1, G2)
        report = check_invariance(el, stationary_field(), PARAMS,
                                  points=annulus_points())
        assert report.passed, [(r.equation, r.max_diff, r.tol)
                               for r in report.rows if not r.passed]

    def test_small_defect_on_large_shift_fails(self):
        # The rounding-scaled tolerance must still see a 1e-6 x^2 defect
        # on the largest generator pair of the seeds above.
        rng = np.random.default_rng(1090)
        G1, G2 = generate_displacement_symmetry(HarmonicPotentialPair(
            random_harmonic(rng, 6), random_harmonic(rng, 6)))
        el = GroupElement.displacement_shift(
            1.0, G1 + Poly2([[0.0], [0.0], [1e-6]]), G2)
        report = check_invariance(el, stationary_field(), PARAMS,
                                  points=annulus_points())
        assert not report.passed
        assert not report.row("momentum1").passed

    def test_tolerance_scales_with_each_row(self):
        # The shift loads only the momentum rows, so only their tolerance
        # grows; every row keeps at least rtol times the largest norm.
        rng = np.random.default_rng(1090)
        G1, G2 = generate_displacement_symmetry(HarmonicPotentialPair(
            random_harmonic(rng, 6), random_harmonic(rng, 6)))
        el = GroupElement.displacement_shift(1.0, G1, G2)
        report = check_invariance(el, stationary_field(), PARAMS,
                                  points=annulus_points())
        floor = 1e-12 * max(1.0, *(n for r in report.rows
                                   for n in (r.pre_norm, r.post_norm)))
        assert all(r.tol >= floor for r in report.rows)
        assert report.row("momentum1").tol > 100 * report.row("continuity").tol

    def test_anisotropic_invariance_suite(self):
        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        rng = np.random.default_rng(67)
        field = random_polynomial_field(rng)
        G1, G2 = random_displacement_symmetry_aniso(moduli, rng)
        for el in (GroupElement.time_translation(0.3),
                   GroupElement.x_translation(0.5),
                   GroupElement.y_translation(-0.2),
                   GroupElement.concentration_scaling(0.9, PARAMS.sigma1),
                   GroupElement.pressure_shift(1.0, TimeFunction.sine()),
                   GroupElement.displacement_shift(0.7, G1, G2)):
            report = check_invariance(el, field, PARAMS, moduli=moduli)
            assert report.passed, el.kind

    def test_rotation_rejected_for_anisotropic_moduli(self):
        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        rng = np.random.default_rng(71)
        field = random_polynomial_field(rng)
        with pytest.raises(ValueError, match="isotropic"):
            check_invariance(GroupElement.rotation(0.5 * math.pi), field,
                             PARAMS, moduli=moduli)

    def test_empty_points_rejected(self):
        # A check over no points would pass with every norm 0.
        field = random_polynomial_field(np.random.default_rng(73))
        el = GroupElement.x_translation(0.3)
        for points in ((), []):
            with pytest.raises(ValueError, match="points"):
                check_invariance(el, field, PARAMS, points=points)

    @pytest.mark.parametrize("rtol", (-1e-12, math.nan, math.inf))
    def test_rtol_outside_range_rejected(self, rtol):
        field = random_polynomial_field(np.random.default_rng(79))
        with pytest.raises(ValueError, match="rtol"):
            check_invariance(GroupElement.x_translation(0.3), field, PARAMS,
                             rtol=rtol)

    def test_zero_rtol_accepted(self):
        field = random_polynomial_field(np.random.default_rng(83))
        report = check_invariance(GroupElement.time_translation(0.0), field,
                                  PARAMS, rtol=0.0)
        assert all(row.tol == 0.0 for row in report.rows)


class TestGridBackedInvariance:
    def grid_axes(self, n=25, half=1.5):
        ts = np.linspace(0.0, 0.8, 5)
        xs = np.linspace(-half, half, n)
        return ts, xs, xs.copy()

    def test_quarter_turn_exact_on_square_grid(self):
        rng = np.random.default_rng(73)
        field = random_polynomial_field(rng, degree=2, time_degree=1)
        ts, xs, ys = self.grid_axes()
        grid = sample_grid(field, [ts, xs, ys], ("u1", "u2", "p", "rho",
                                                 "thetaF", "c"))
        el = GroupElement.rotation(0.5 * math.pi)
        rotated = sample_grid(apply_group(el, grid), [ts, xs, ys],
                              ("u1", "u2", "p", "rho", "thetaF", "c"))
        # interior nodes whose quarter-turn images are also interior
        for jx in (5, 9, 14):
            for jy in (6, 11, 17):
                t = ts[2]
                x, y = xs[jx], ys[jy]
                pre = residual_cartesian_iso(grid, PARAMS, (t, x, y))
                post = residual_cartesian_iso(rotated, PARAMS, (t, -y, x))
                scale = max(1.0, pre.max_abs())
                assert abs(post["continuity"] - pre["continuity"]) <= 1e-12 * scale
                assert abs(post["momentum1"] + pre["momentum2"]) <= 1e-12 * scale
                assert abs(post["momentum2"] - pre["momentum1"]) <= 1e-12 * scale
                for eq in ("density", "porosity", "solute"):
                    assert abs(post[eq] - pre[eq]) <= 1e-12 * scale

    def test_shift_invariance_at_grid_tolerance(self):
        # resampling the shifted field and differencing keeps residual
        # changes at the discretization level, shrinking at second order
        # (degree-6 potentials give degree-5 generators, the lowest degree
        # on which central stencils are not exact)
        rng = np.random.default_rng(79)
        field = random_polynomial_field(rng, degree=2, time_degree=1)
        pair = HarmonicPotentialPair(random_harmonic(rng, 6),
                                     random_harmonic(rng, 6))
        G1, G2 = generate_displacement_symmetry(pair)
        el = GroupElement.displacement_shift(1.0, G1, G2)

        shared = ((0.4, 0.0, 0.0), (0.4, -0.375, 0.5), (0.4, 0.75, -0.625))

        def max_diff(n):
            ts, xs, ys = self.grid_axes(n=n)
            comps = ("u1", "u2", "p", "rho", "thetaF", "c")
            grid = sample_grid(field, [ts, xs, ys], comps)
            shifted = sample_grid(apply_group(el, field), [ts, xs, ys], comps)
            worst = 0.0
            for pt in shared:  # nodes of both grids
                pre = residual_cartesian_iso(grid, PARAMS, pt)
                post = residual_cartesian_iso(shifted, PARAMS, pt)
                worst = max(worst, max(abs(post[eq] - pre[eq])
                                       for eq in pre.equations))
            return worst

        coarse, fine = max_diff(25), max_diff(49)
        assert coarse / fine == pytest.approx(4.0, rel=0.35)


class TestPolarConversion:
    def test_identity_angle(self):
        assert cartesian_to_polar(1.3, -0.6, 0.0) == (1.3, -0.6)

    def test_quarter_turn(self):
        w1, w2 = cartesian_to_polar(1.3, -0.6, 0.5 * math.pi)
        assert w1 == -0.6
        assert w2 == -1.3

    def test_radial_field_has_no_tangential_part(self):
        f = 0.37
        for phi in (0.1, 1.0, 2.5, 4.4):
            u1 = f * math.cos(phi)
            u2 = f * math.sin(phi)
            w1, w2 = cartesian_to_polar(u1, u2, phi)
            assert w1 == pytest.approx(f, rel=1e-15)
            assert w2 == pytest.approx(0.0, abs=1e-16)

    def test_sampling_rejects_origin(self):
        rng = np.random.default_rng(83)
        field = random_polynomial_field(rng)
        with pytest.raises(ValueError, match="r > 0"):
            polar_samples_from_cartesian(field, [0.0], [0.0, 0.5], [0.0, 1.0])
