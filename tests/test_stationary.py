import math

import numpy as np
import pytest

from pemsim.core import ModelParams
from pemsim.residuals import residual_ring
from pemsim.stationary import (NoRootError, bisect_root,
                               boundary_traction_mismatch, dirichlet_solution,
                               neumann_solution, rst_cubic, rst_dirichlet)

REFERENCE = ModelParams.reference(F0=16 * math.pi)


class TestDirichletSolution:
    def test_boundary_values_generic(self):
        p = ModelParams.reference(p_a=0.0, p_st=1.0)
        sol = dirichlet_solution(p, 1.5)
        assert sol.pressure(p.r0) == pytest.approx(p.p_a, abs=1e-12)
        assert sol.pressure(1.5) == pytest.approx(p.p_st, abs=1e-12)
        assert sol.displacement(p.r0) == pytest.approx(0.0, abs=1e-12)
        assert sol.displacement(1.5) == pytest.approx(1.5 - p.R0, abs=1e-12)

    def test_equal_pressures_make_pressure_uniform(self):
        p = ModelParams.reference(p_a=0.7, p_st=0.7)
        sol = dirichlet_solution(p, 1.5)
        assert sol.C0 == 0.0
        for r in np.linspace(p.r0, 1.5, 20):
            assert sol.pressure(r) == pytest.approx(0.7, abs=1e-14)

    def test_undeformed_state(self):
        p = ModelParams.reference(p_a=0.3, p_st=0.3)
        sol = dirichlet_solution(p, p.R0)
        for r in np.linspace(p.r0, p.R0, 20):
            assert abs(sol.displacement(r)) <= 1e-14

    def test_degenerate_radius_rejected(self):
        for r_st in (REFERENCE.r0, math.nan, math.inf):
            with pytest.raises(ValueError, match="degenerates"):
                dirichlet_solution(REFERENCE, r_st)

    def test_residual_oracle(self):
        p = ModelParams.reference(p_a=0.2, p_st=1.4)
        sol = dirichlet_solution(p, 1.7)
        src = sol.as_ring_source(rho=1.2, theta=0.4)
        worst = max(residual_ring(src, p, (0.0, r)).max_abs()
                    for r in np.linspace(p.r0 + 1e-9, 1.7, 1000))
        assert worst <= 1e-11


class TestNeumannSolution:
    def test_structure(self):
        p = ModelParams.reference(p_st=0.9)
        sol = neumann_solution(p, 1.5)
        assert sol.C0 == 0.0
        assert sol.pressure(1.2) == 0.9
        assert sol.displacement(p.r0) == pytest.approx(0.0, abs=1e-15)
        assert sol.displacement(1.5) == pytest.approx(1.5 - p.R0, rel=1e-14)

    def test_zero_load_shape_vanishes(self):
        sol = neumann_solution(ModelParams.reference(), 2.0)
        for r in np.linspace(1.0, 2.0, 17):
            assert sol.displacement(r) == 0.0

    def test_inner_displacement_always_zero(self):
        for r_st in (1.1, 1.4, 1.9, 2.5):
            sol = neumann_solution(REFERENCE, r_st)
            assert sol.displacement(REFERENCE.r0) == pytest.approx(0.0,
                                                                   abs=1e-15)

    def test_degenerate_radius_rejected(self):
        for r_st in (REFERENCE.r0, math.nan, math.inf):
            with pytest.raises(ValueError, match="degenerates"):
                neumann_solution(REFERENCE, r_st)

    def test_residual_oracle(self):
        sol = neumann_solution(REFERENCE, 1.5)
        src = sol.as_ring_source()
        worst = max(residual_ring(src, REFERENCE, (0.0, r)).max_abs()
                    for r in np.linspace(REFERENCE.r0 + 1e-9, 1.5, 1000))
        assert worst <= 1e-11


class TestRstCubic:
    def test_zero_load_returns_initial_radius_exactly(self):
        report = rst_cubic(ModelParams.reference(F0=0.0))
        assert report.r_st == 2.0

    def test_reference_cubic_coefficients(self):
        # lam = mu = 1, r0 = 1, R0 = 2, F0 = 16*pi gives 2r^3 + r - 6.
        report = rst_cubic(REFERENCE)
        assert report.coefficients == pytest.approx((2.0, 0.0, 1.0, -6.0),
                                                    abs=1e-13)

    def test_reference_root_against_bisection_oracle(self):
        report = rst_cubic(REFERENCE)
        oracle = bisect_root(report.cubic, 1.0, 2.0, iterations=200)
        assert 1.0 < report.r_st < 2.0
        assert abs(report.r_st - oracle) <= 1e-10

    def test_bracket_signs(self):
        report = rst_cubic(REFERENCE)
        assert report.cubic_at_r0 == pytest.approx(-3.0, abs=1e-13)
        assert report.cubic_at_R0 > 0.0

    def test_random_draws_unique_root_in_interval(self):
        # heavy-load regime: exactly one admissible root, matching bisection
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            lam = rng.uniform(0.2, 5.0)
            mu = rng.uniform(0.2, 5.0)
            r0 = rng.uniform(0.2, 2.0)
            R0 = r0 + rng.uniform(0.2, 3.0)
            F0 = 4.0 * math.pi * (lam + mu) * R0 * rng.uniform(1.0, 4.0)
            p = ModelParams.reference(lam=lam, mu=mu, r0=r0, R0=R0, F0=F0)
            report = rst_cubic(p)
            assert len(report.roots_in_interval) == 1
            assert r0 < report.r_st < R0
            oracle = bisect_root(report.cubic, r0, R0)
            assert abs(report.r_st - oracle) <= 1e-10 * R0

    def test_critical_points_have_negative_real_parts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = rng.uniform(0.2, 5.0)
            mu = rng.uniform(0.2, 5.0)
            r0 = rng.uniform(0.2, 2.0)
            R0 = r0 + rng.uniform(0.2, 3.0)
            F0 = 4.0 * math.pi * (lam + mu) * R0 * rng.uniform(1.001, 5.0)
            report = rst_cubic(ModelParams.reference(lam=lam, mu=mu, r0=r0,
                                                     R0=R0, F0=F0))
            assert max(z.real for z in report.critical_points) < 0.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="F0 >= 0"):
            rst_cubic(ModelParams.reference(F0=-1.0))

    def test_boundary_closure(self):
        # the zero-flux displacement built at the cubic root balances the
        # load exactly
        report = rst_cubic(REFERENCE)
        sol = neumann_solution(REFERENCE, report.r_st)
        mismatch = boundary_traction_mismatch(sol, report.r_st, REFERENCE)
        scale = REFERENCE.F0 / (2 * math.pi * report.r_st)
        assert abs(mismatch) <= 1e-10 * scale


class TestRstDirichlet:
    def test_zero_load_equal_pressures(self):
        p = ModelParams.reference(F0=0.0, p_a=0.4, p_st=0.4)
        report = rst_dirichlet(p)
        assert report.r_st == pytest.approx(p.R0, abs=1e-12)

    def test_agrees_with_cubic_when_pressures_match(self):
        # with p_st = p_a the Dirichlet displacement reduces to the
        # zero-flux shape, so both solvers locate the same radius
        p = ModelParams.reference(F0=16 * math.pi, p_a=0.3, p_st=0.3)
        cubic_root = rst_cubic(p).r_st
        report = rst_dirichlet(p)
        assert abs(report.r_st - cubic_root) <= 1e-8

    def test_root_satisfies_traction_balance(self):
        p = ModelParams.reference(F0=8 * math.pi, p_a=0.0, p_st=0.6)
        report = rst_dirichlet(p)
        sol = dirichlet_solution(p, report.r_st)
        mismatch = boundary_traction_mismatch(sol, report.r_st, p)
        assert abs(mismatch) <= 1e-10 * max(
            1.0, p.F0 / (2 * math.pi * report.r_st))

    def test_no_root_regime_reported(self):
        # gigantic osmotic-style interior pressure with tiny load leaves
        # the balance single-signed on the scan interval
        p = ModelParams.reference(F0=0.0, p_a=0.0, p_st=-80.0)
        with pytest.raises(NoRootError):
            rst_dirichlet(p)


class TestStationaryCrossChecks:
    def test_dirichlet_reduces_to_neumann_displacement(self):
        p = ModelParams.reference(p_a=0.5, p_st=0.5)
        d = dirichlet_solution(p, 1.6)
        n = neumann_solution(p, 1.6)
        for r in np.linspace(p.r0, 1.6, 50):
            assert d.displacement(r) == pytest.approx(n.displacement(r),
                                                      abs=1e-14)

    def test_bisection_oracle_raises_without_sign_change(self):
        with pytest.raises(NoRootError):
            bisect_root(lambda x: 1.0 + x * x, 0.0, 1.0)
