import math

import numpy as np
import pytest

from pemsim.core import AnisotropicModuli, ModelParams, lame_star
from pemsim.fields import (GridFieldSource, PolyFieldSource, ProfileSource,
                           random_polynomial_field)
from pemsim.polynomials import PolyTXY
from pemsim.residuals import (ResidualVector, fluxes, residual_cartesian_aniso,
                              residual_cartesian_iso, residual_radial_full,
                              residual_ring, terzaghi_stress_radial)
from pemsim.polynomials import random_harmonic
from pemsim.stationary import dirichlet_solution, neumann_solution, rst_cubic
from pemsim.symmetry import (GroupElement, HarmonicPotentialPair, TimeFunction,
                             apply_group, check_invariance,
                             generate_displacement_symmetry,
                             polar_samples_from_cartesian)

PARAMS = ModelParams.reference(F0=16 * math.pi, p_a=0.0, p_st=1.0)


def constant_field(values):
    return PolyFieldSource({k: PolyTXY.constant(v) for k, v in values.items()})


def cartesian_constants(u1=0.0, u2=0.0, p=1.0, rho=1.0, thetaF=0.5, c=0.0):
    return constant_field(dict(u1=u1, u2=u2, p=p, rho=rho, thetaF=thetaF, c=c))


class TestCartesianIso:
    def test_constant_state_annihilated(self):
        res = residual_cartesian_iso(cartesian_constants(), PARAMS,
                                     (0.3, 0.7, -0.4))
        assert res.max_abs() == 0.0

    def test_quadratic_displacement_hits_only_momentum(self):
        # u1 = x^2 with everything else zero leaves -lam_star * u1_xx.
        field = cartesian_constants(p=0.0, rho=0.0, thetaF=0.0)
        field.components["u1"] = PolyTXY([[[0.0], [0.0], [1.0]]])
        res = residual_cartesian_iso(field, PARAMS, (0.1, 0.5, 0.2))
        assert res["momentum1"] == -2.0 * lame_star(PARAMS)
        for eq in ("continuity", "momentum2", "density", "porosity", "solute"):
            assert res[eq] == 0.0

    def test_uniform_seepage_balances_continuity(self):
        # u1 = t*x against p = x^2/k: 2*d/dt(div u) = k*lap(p).
        field = cartesian_constants()
        field.components["u1"] = PolyTXY([[[0.0], [0.0]], [[0.0], [1.0]]])
        field.components["p"] = PolyTXY([[[0.0], [0.0], [1.0 / PARAMS.k]]])
        res = residual_cartesian_iso(field, PARAMS, (0.5, 0.4, 0.1))
        assert res["continuity"] == 0.0


class TestCartesianAniso:
    def test_constant_state_annihilated(self):
        moduli = AnisotropicModuli(e11=2.0, e22=1.0, e33=1.0, e12=0.5,
                                   e13=1.0, e23=0.3)
        res = residual_cartesian_aniso(cartesian_constants(), moduli, PARAMS,
                                       (0.0, 1.0, 1.0))
        assert res.max_abs() == 0.0

    def test_coupling_through_shear_moduli(self):
        # u1 = x^2 with e11=2, e13=1 feeds both momentum equations.
        moduli = AnisotropicModuli(e11=2.0, e22=1.0, e33=1.0, e12=0.0,
                                   e13=1.0, e23=0.0)
        field = cartesian_constants(p=0.0, rho=0.0, thetaF=0.0)
        field.components["u1"] = PolyTXY([[[0.0], [0.0], [1.0]]])
        res = residual_cartesian_aniso(field, moduli, PARAMS, (0.1, 0.5, 0.2))
        assert res["momentum1"] == -4.0
        assert res["momentum2"] == -2.0

    def test_isotropic_embedding_matches_iso_operator(self):
        moduli = AnisotropicModuli.isotropic(PARAMS.lam, PARAMS.mu)
        rng = np.random.default_rng(101)
        points = [(0.3, 0.4, -0.2), (0.7, -1.1, 0.6), (0.1, 0.0, 1.3)]
        for _ in range(100):
            field = random_polynomial_field(rng, degree=2, time_degree=2)
            for pt in points:
                ri = residual_cartesian_iso(field, PARAMS, pt)
                ra = residual_cartesian_aniso(field, moduli, PARAMS, pt)
                scale = max(1.0, ri.max_abs())
                for eq in ri.equations:
                    assert abs(ri[eq] - ra[eq]) <= 1e-12 * scale


class TestFluxes:
    def test_zero_field_zero_fluxes(self):
        field = cartesian_constants(p=0.0, c=0.0)
        fb = fluxes(field, PARAMS, (0.0, 0.3, 0.3))
        for vec in (fb.j_VF, fb.j_VM, fb.j_V, fb.j_rho, fb.j_S):
            assert np.all(vec == 0.0)

    def test_darcy_component(self):
        # static displacement, p = x: fluid flux is -k in x.
        field = cartesian_constants(p=0.0)
        field.components["p"] = PolyTXY([[[0.0], [1.0]]])
        fb = fluxes(field, PARAMS, (0.0, 0.5, 0.5))
        assert fb.j_VF[0] == -PARAMS.k
        assert fb.j_VF[1] == 0.0
        assert np.all(fb.j_VM == 0.0)

    def test_solute_flux_osmotic_term(self):
        # c = x, p = 0: j_S = -D*(1,0) + S*k*sigma1*x*(1,0).
        field = cartesian_constants(p=0.0)
        field.components["c"] = PolyTXY([[[0.0], [1.0]]])
        x = 0.8
        fb = fluxes(field, PARAMS, (0.0, x, 0.2))
        expected = -PARAMS.D + PARAMS.S_sieve * PARAMS.k * PARAMS.sigma1 * x
        assert fb.j_S[0] == pytest.approx(expected, rel=1e-15)
        assert fb.j_S[1] == 0.0

    def test_flux_identities(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            field = random_polynomial_field(rng, degree=2, time_degree=1)
            # porosity and density values must be physical for the mixture
            field.components["thetaF"] = PolyTXY.constant(rng.uniform(0.2, 0.8))
            field.components["rho"] = PolyTXY.constant(rng.uniform(1.0, 2.0))
            pt = (0.4, rng.uniform(-1, 1), rng.uniform(-1, 1))
            fb = fluxes(field, PARAMS, pt)
            # sum identity holds bitwise (it is the definition)
            assert np.all(fb.j_V == fb.j_VF + fb.j_VM)
            # closed forms agree to rounding
            e = field.eval
            u_t = np.array([e("u1", pt, (1, 0, 0)), e("u2", pt, (1, 0, 0))])
            grad_ps = np.array([
                e("p", pt, (0, 1, 0)) - PARAMS.sigma1 * e("c", pt, (0, 1, 0)),
                e("p", pt, (0, 0, 1)) - PARAMS.sigma1 * e("c", pt, (0, 0, 1))])
            jv_closed = -PARAMS.k * grad_ps + u_t
            jrho_closed = (-PARAMS.k * PARAMS.rho_f0 * grad_ps
                           + e("rho", pt) * u_t)
            assert np.allclose(fb.j_V, jv_closed, rtol=1e-14, atol=1e-14)
            assert np.allclose(fb.j_rho, jrho_closed, rtol=1e-13, atol=1e-13)


class TestTerzaghiStress:
    def test_hydrostatic(self):
        t11, t22 = terzaghi_stress_radial(0.0, 0.0, 3.7, 1.2, PARAMS)
        assert t11 == -3.7 and t22 == -3.7

    def test_uniform_dilation(self):
        # w = r: both stresses equal 2*lam + 2*mu.
        r = 1.6
        t11, t22 = terzaghi_stress_radial(r, 1.0, 0.0, r, PARAMS)
        assert t11 == pytest.approx(2 * PARAMS.lam + 2 * PARAMS.mu, rel=1e-15)
        assert t22 == pytest.approx(t11, rel=1e-15)

    def test_neumann_solution_balances_load_at_shrink_radius(self):
        rep = rst_cubic(PARAMS)
        sol = neumann_solution(PARAMS, rep.r_st)
        r = rep.r_st
        t11, _ = terzaghi_stress_radial(sol.displacement(r),
                                        sol.displacement_r(r),
                                        sol.pressure(r), r, PARAMS)
        # tau_rr + P is the elastic part; it must carry -F0/(2 pi r_st)
        elastic = t11 + sol.pressure(r)
        assert elastic == pytest.approx(-PARAMS.F0 / (2 * math.pi * r),
                                        rel=1e-10)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            terzaghi_stress_radial(0.0, 0.0, 0.0, 0.0, PARAMS)


class TestRadialFull:
    def test_constant_state_annihilated(self):
        src = ProfileSource({"w1": 0.0, "w2": 0.0, "P": 2.0, "rho": 1.0,
                             "theta": 0.5, "C": 0.0}, ndim=3)
        res = residual_radial_full(src, PARAMS, (0.1, 1.4, 0.8))
        assert res.max_abs() == 0.0

    def test_origin_rejected(self):
        src = ProfileSource({"w1": 0.0, "w2": 0.0, "P": 0.0, "rho": 1.0,
                             "theta": 0.5, "C": 0.0}, ndim=3)
        with pytest.raises(ValueError):
            residual_radial_full(src, PARAMS, (0.0, 0.0, 0.3))

    def test_axisymmetric_profiles_reduce_to_ring_system(self):
        # For phi-independent fields with w2 = 0 and C = 0, the polar
        # residuals are the ring residuals up to the printed r factors.
        sol = dirichlet_solution(PARAMS, 1.5)
        polar = sol.as_polar_source(rho=1.3, theta=0.4)
        ring = sol.as_ring_source(rho=1.3, theta=0.4)
        # perturb the pressure profile so residuals are nonzero
        bad_P = (lambda r: math.sin(r), lambda r: math.cos(r),
                 lambda r: -math.sin(r))
        polar.profiles["P"] = bad_P
        ring.profiles["P"] = bad_P
        for r in (1.1, 1.3, 1.45):
            full = residual_radial_full(polar, PARAMS, (0.2, r, 0.9))
            red = residual_ring(ring, PARAMS, (0.2, r))
            assert full["continuity"] == pytest.approx(r * red["continuity"],
                                                       rel=1e-14)
            assert full["momentum1"] == pytest.approx(red["momentum"],
                                                      rel=1e-14)
            assert full["momentum2"] == 0.0
            assert full["density"] == pytest.approx(r * red["density"],
                                                    rel=1e-14, abs=1e-15)
            assert full["porosity"] == pytest.approx(r * red["porosity"],
                                                     rel=1e-14)
            assert full["solute"] == 0.0

    def test_chain_rule_consistency_with_cartesian(self):
        # A smooth Cartesian field, sampled in polar coordinates and
        # differenced on the polar grid, must reproduce the transformed
        # Cartesian residuals at second order in the grid spacing.  The
        # polar system carries the plain pressure where the Cartesian one
        # uses the effective pressure, so the comparison needs sigma1 = 0
        # (the two prints coincide exactly then).
        params = ModelParams.reference(sigma1=0.0)
        rng = np.random.default_rng(77)
        field = random_polynomial_field(rng, degree=2, time_degree=1,
                                        scale=0.5)

        def polar_error(n_r):
            ts = np.linspace(0.0, 0.4, 5)
            rs = np.linspace(0.8, 1.8, n_r)
            phis = np.linspace(0.2, 1.2, n_r)
            grid = polar_samples_from_cartesian(field, ts, rs, phis)
            worst = 0.0
            j = n_r // 2
            for (jr, jp) in ((j, j), (j - 1, j + 1)):
                t, r, ph = ts[2], rs[jr], phis[jp]
                got = residual_radial_full(grid, params, (t, r, ph))
                x, y = r * math.cos(ph), r * math.sin(ph)
                cart = residual_cartesian_iso(field, params, (t, x, y))
                c, s = math.cos(ph), math.sin(ph)
                expected = {
                    "continuity": 0.5 * r * cart["continuity"],
                    "momentum1": c * cart["momentum1"] + s * cart["momentum2"],
                    "momentum2": -s * cart["momentum1"] + c * cart["momentum2"],
                    "density": r * cart["density"],
                    "porosity": r * cart["porosity"],
                    "solute": r * cart["solute"],
                }
                for eq, val in expected.items():
                    worst = max(worst, abs(got[eq] - val))
            return worst

        coarse = polar_error(33)
        fine = polar_error(65)
        assert coarse / fine == pytest.approx(4.0, rel=0.5)


class TestRing:
    def test_constant_state_annihilated(self):
        src = ProfileSource({"w": 0.0, "P": 1.0, "rho": 1.0, "theta": 0.5},
                            ndim=2)
        res = residual_ring(src, PARAMS, (0.0, 1.2))
        assert res.max_abs() == 0.0

    def test_origin_rejected(self):
        src = ProfileSource({"w": 0.0, "P": 1.0, "rho": 1.0, "theta": 0.5},
                            ndim=2)
        with pytest.raises(ValueError):
            residual_ring(src, PARAMS, (0.0, 0.0))

    @pytest.mark.parametrize("case", ["neumann", "dirichlet"])
    def test_stationary_solutions_annihilate_ring_system(self, case):
        r_st = 1.5
        sol = (neumann_solution if case == "neumann" else dirichlet_solution)(
            PARAMS, r_st)
        src = sol.as_ring_source(rho=1.2, theta=0.45)
        worst = np.max([residual_ring(src, PARAMS, (0.0, r)).max_abs()
                        for r in np.linspace(PARAMS.r0 + 1e-6, r_st, 1000)])
        assert worst <= 1e-11

    def test_grid_backed_residual_second_order(self):
        sol = neumann_solution(PARAMS, 1.5)

        def grid_residual(n):
            rs = np.linspace(PARAMS.r0, 1.5, n)
            w = np.array([sol.displacement(r) for r in rs])
            P = np.array([sol.pressure(r) for r in rs])
            grid = GridFieldSource([None, rs], {"w": w, "P": P,
                                                "rho": 1.0, "theta": 0.5})
            shared = range(2, n - 2, max(1, n // 16))
            return np.max([residual_ring(grid, PARAMS, (0.0, rs[j])).max_abs()
                           for j in shared])

        coarse = grid_residual(65)
        fine = grid_residual(129)
        assert 3.5 <= coarse / fine <= 4.5


class EvalOnly:
    """A duck-typed source: nothing but ``eval``, passed on to a base."""

    def __init__(self, base):
        self._base = base

    def eval(self, component, point, d=None):
        return self._base.eval(component, point, d)


def residual_bits(res):
    return {eq: (type(v), np.shape(v), np.asarray(v, dtype=float).tobytes())
            for eq, v in res.values.items()}


class TestEvalEntryPoint:
    """Every residual operator reaches its field through ``eval`` alone."""

    ARRAY_POINT = (np.array([0.3, 0.7, 0.5]), np.array([0.4, -1.1, 0.9]),
                   np.array([-0.2, 0.6, 1.3]))

    @pytest.mark.parametrize("kind", ["poly", "translated", "rotated",
                                      "radial"])
    @pytest.mark.parametrize("array", [False, True])
    def test_cartesian_residual_through_eval_only(self, kind, array):
        field = random_polynomial_field(np.random.default_rng(41))
        if kind == "translated":
            field = apply_group(GroupElement.x_translation(0.3), field)
        elif kind == "rotated":
            field = apply_group(GroupElement.rotation(0.7), field)
        elif kind == "radial":
            field = neumann_solution(PARAMS, 1.5).as_cartesian_source()
        point = self.ARRAY_POINT if array else (0.3, 0.4, -0.2)
        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        assert residual_bits(residual_cartesian_aniso(
            EvalOnly(field), moduli, PARAMS, point)) == residual_bits(
            residual_cartesian_aniso(field, moduli, PARAMS, point))

    def test_ring_residual_through_eval_only(self):
        sources = (dirichlet_solution(PARAMS, 1.5).as_ring_source(rho=1.2,
                                                                  theta=0.4),
                   GridFieldSource([None, np.linspace(1.0, 1.5, 11)], {
                       "w": np.linspace(0.0, -0.5, 11) ** 2,
                       "P": np.linspace(0.0, 1.0, 11), "rho": 1.0,
                       "theta": 0.5}))
        for src in sources:
            for r in (1.1, 1.25, 1.4):
                assert residual_bits(residual_ring(EvalOnly(src), PARAMS,
                                                   (0.0, r))) == residual_bits(
                    residual_ring(src, PARAMS, (0.0, r)))

    def test_invariance_check_through_eval_only(self):
        rng = np.random.default_rng(0)
        G1, G2 = generate_displacement_symmetry(HarmonicPotentialPair(
            random_harmonic(rng, 6), random_harmonic(rng, 6)))
        field = random_polynomial_field(rng)
        for element in (GroupElement.pressure_shift(1.0, TimeFunction.sine()),
                        GroupElement.displacement_shift(1.0, G1, G2),
                        GroupElement.concentration_scaling(1.0, PARAMS.sigma1),
                        GroupElement.rotation(0.5 * math.pi)):
            assert repr(check_invariance(element, EvalOnly(field),
                                         PARAMS)) == repr(
                check_invariance(element, field, PARAMS))

    @pytest.mark.parametrize("kind", ["poly", "translated"])
    def test_arrays_changed_in_place_between_calls(self, kind):
        # Each call splits its point anew: neither the polynomial memo nor
        # the transformed source's kept pre-image may answer from the last.
        rng = np.random.default_rng(43)
        field = random_polynomial_field(rng)
        same = random_polynomial_field(np.random.default_rng(43))
        if kind == "translated":
            field = apply_group(GroupElement.y_translation(-0.4), field)
            same = apply_group(GroupElement.y_translation(-0.4), same)
        point = tuple(c.copy() for c in self.ARRAY_POINT)
        residual_cartesian_iso(field, PARAMS, point)
        point[1][1] = 0.25
        assert residual_bits(residual_cartesian_iso(field, PARAMS, point)) == (
            residual_bits(residual_cartesian_iso(same, PARAMS, point)))


class TestNanStaysVisible:
    """A NaN residual never reads as a finite one."""

    @pytest.mark.parametrize("values", [
        {"a": 0.0, "b": math.nan},
        {"a": math.nan, "b": 0.0},
        {"a": np.array([0.0, 1.0]), "b": np.array([math.nan, 0.0])},
        {"a": 2.0, "b": np.array([0.5, math.nan])},
    ])
    def test_max_abs_propagates_nan(self, values):
        assert math.isnan(ResidualVector(values).max_abs())

    def test_max_abs_of_finite_values(self):
        res = ResidualVector({"a": -3.0, "b": np.array([1.0, -4.0]), "c": 2.5})
        assert res.max_abs() == 4.0

    def test_nan_radius_rejected(self):
        ring = ProfileSource({"w": 0.0, "P": 1.0, "rho": 1.0, "theta": 0.5},
                             ndim=2)
        polar = ProfileSource({"w1": 0.0, "w2": 0.0, "P": 0.0, "rho": 1.0,
                               "theta": 0.5, "C": 0.0}, ndim=3)
        with pytest.raises(ValueError, match="r > 0"):
            residual_ring(ring, PARAMS, (0.0, math.nan))
        with pytest.raises(ValueError, match="r > 0"):
            residual_radial_full(polar, PARAMS, (0.0, math.nan, 0.3))
