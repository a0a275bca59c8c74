"""Acceptance suite: one criterion per test, one printed verdict per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import math
import time

import numpy as np
import pytest

from pemsim.cli import main as cli_main
from pemsim.core import AnisotropicModuli, ModelParams, lame_star
from pemsim.fields import (GridFieldSource, random_polynomial_field,
                           sample_grid)
from pemsim.polynomials import Poly2, random_harmonic
from pemsim.residuals import (CARTESIAN_EQUATIONS, residual_cartesian_aniso,
                              residual_cartesian_iso, residual_ring)
from pemsim.stationary import (bisect_root, boundary_traction_mismatch,
                               dirichlet_solution, neumann_solution, rst_cubic)
from pemsim.symmetry import (GroupElement, HarmonicPotentialPair, TimeFunction,
                             apply_group, check_invariance,
                             generate_displacement_symmetry,
                             random_displacement_symmetry_aniso,
                             verify_displacement_symmetry)
from pemsim.transient import SimConfig, simulate, steady_state_check

REFERENCE = ModelParams.reference(F0=16 * math.pi)
GRID_COMPONENTS = ("u1", "u2", "p", "rho", "thetaF", "c")


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_criterion_1_zero_load_identity(self):
        p = ModelParams.reference(F0=0.0)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            report = rst_cubic(p)
            best = min(best, time.perf_counter() - t0)
        ok = report.r_st == p.R0 and best < 1e-3
        verdict(1, ok, f"r_st == R0 exactly, runtime {best * 1e6:.0f} us")

    def test_criterion_2_cubic_oracle(self):
        t0 = time.perf_counter()
        report = rst_cubic(REFERENCE)
        coeff_ok = np.allclose(report.coefficients, (2.0, 0.0, 1.0, -6.0),
                               rtol=0, atol=1e-13)
        oracle = bisect_root(report.cubic, 1.0, 2.0, iterations=200)
        root_ok = abs(report.r_st - oracle) <= 1e-10 and 1.0 < report.r_st < 2.0

        rng = np.random.default_rng(12345)
        unique_ok = True
        for _ in range(1000):
            lam = rng.uniform(0.2, 5.0)
            mu = rng.uniform(0.2, 5.0)
            r0 = rng.uniform(0.2, 2.0)
            R0 = r0 + rng.uniform(0.2, 3.0)
            F0 = 4.0 * math.pi * (lam + mu) * R0 * rng.uniform(1.0, 4.0)
            rep = rst_cubic(ModelParams.reference(lam=lam, mu=mu, r0=r0,
                                                  R0=R0, F0=F0))
            if len(rep.roots_in_interval) != 1 or not r0 < rep.r_st < R0:
                unique_ok = False
                break
        elapsed = time.perf_counter() - t0
        ok = coeff_ok and root_ok and unique_ok and elapsed < 1.0
        verdict(2, ok, f"cubic 2r^3+r-6, root {report.r_st:.10f} vs bisection "
                       f"{oracle:.10f}, 1000 draws unique root, "
                       f"{elapsed:.2f} s")

    def test_criterion_3_stationary_residual_oracle(self):
        p = ModelParams.reference(F0=16 * math.pi, p_a=0.0, p_st=1.0)
        r_st = 1.5
        analytic_ok = True
        for case, sol in (("neumann", neumann_solution(p, r_st)),
                          ("dirichlet", dirichlet_solution(p, r_st))):
            src = sol.as_ring_source(rho=1.2, theta=0.4)
            worst = np.max([residual_ring(src, p, (0.0, r)).max_abs()
                            for r in np.linspace(p.r0 + 1e-9, r_st, 1000)])
            analytic_ok = analytic_ok and worst <= 1e-11

        sol = neumann_solution(p, r_st)

        def grid_residual(n):
            rs = np.linspace(p.r0, r_st, n)
            grid = GridFieldSource([None, rs], {
                "w": np.array([sol.displacement(r) for r in rs]),
                "P": np.array([sol.pressure(r) for r in rs]),
                "rho": 1.0, "theta": 0.5})
            return np.max([residual_ring(grid, p, (0.0, rs[j])).max_abs()
                           for j in range(2, n - 2, max(1, n // 16))])

        ratio = grid_residual(65) / grid_residual(129)
        ok = analytic_ok and 3.5 <= ratio <= 4.5
        verdict(3, ok, f"analytic residuals <= 1e-11 at 1000 radii, "
                       f"grid refinement ratio {ratio:.2f}")

    def test_criterion_4_boundary_closure(self):
        report = rst_cubic(REFERENCE)
        sol = neumann_solution(REFERENCE, report.r_st)
        mismatch = boundary_traction_mismatch(sol, report.r_st, REFERENCE)
        scale = REFERENCE.F0 / (2.0 * math.pi * report.r_st)
        ok = abs(mismatch) <= 1e-10 * scale
        verdict(4, ok, f"traction balance residual {abs(mismatch):.2e} "
                       f"(tolerance {1e-10 * scale:.2e})")

    def test_criterion_5_transient_to_stationary(self):
        r_st = rst_cubic(REFERENCE).r_st
        t0 = time.perf_counter()
        cfg = SimConfig(N=200, dt=2e-3, t_end=3.0, steady_tol=1e-8,
                        quasi_static=True)
        states = simulate(REFERENCE, cfg, geometry="annulus", theta0=0.9999)
        elapsed = time.perf_counter() - t0
        final = states[-1]
        report = steady_state_check(final, REFERENCE, steady_tol=1e-7)
        gap = abs(final.S - r_st)
        tol = 0.01 * (REFERENCE.R0 - r_st)
        converged_ok = report.is_steady and gap <= tol and elapsed < 60.0

        results = {200: final.S}
        for N in (100, 400):
            cfg_n = SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=1e-8)
            results[N] = simulate(REFERENCE, cfg_n, theta0=0.9999)[-1].S
        ratio = (results[100] - results[200]) / (results[200] - results[400])
        refine_ok = 2.8 <= ratio <= 5.5
        ok = converged_ok and refine_ok
        verdict(5, ok, f"|S - r_st| = {gap:.2e} <= {tol:.2e}, steady in "
                       f"{elapsed:.1f} s, refinement ratio {ratio:.2f}")

    def _invariance_fields(self):
        fields = [(("stationary",),
                   neumann_solution(REFERENCE, rst_cubic(REFERENCE).r_st)
                   .as_cartesian_source(rho=1.0, thetaF=0.5))]
        rng = np.random.default_rng(2468)
        for i in range(20):
            fields.append(((f"poly{i}",), random_polynomial_field(rng)))
        return fields

    def _points_for(self, tag):
        if tag == ("stationary",):
            r_st = rst_cubic(REFERENCE).r_st
            radii = np.linspace(REFERENCE.r0 + 0.05, r_st - 0.05, 3)
            return tuple((0.4, r * math.cos(a), r * math.sin(a))
                         for r in radii for a in (0.5, 2.1, 3.8))
        return None

    def test_criterion_6_symmetry_suite(self):
        rng = np.random.default_rng(97531)
        pair = HarmonicPotentialPair(random_harmonic(rng, 6),
                                     random_harmonic(rng, 6))
        G1, G2 = generate_displacement_symmetry(pair)
        elements = [
            GroupElement.pressure_shift(1.0, TimeFunction.sine()),
            GroupElement.displacement_shift(1.0, G1, G2),
            GroupElement.concentration_scaling(1.0, REFERENCE.sigma1),
            GroupElement.rotation(0.5 * math.pi),
        ]
        analytic_ok = True
        for tag, field in self._invariance_fields():
            points = self._points_for(tag)
            for el in elements:
                rep = check_invariance(el, field, REFERENCE, points=points)
                if not rep.passed:
                    analytic_ok = False

        # grid variant: quarter-turn equality is exact at mapped nodes and
        # the shift defects shrink at second order
        field = random_polynomial_field(np.random.default_rng(86420),
                                        degree=2, time_degree=1)
        ts = np.linspace(0.0, 0.8, 5)

        def shift_defect(n):
            xs = np.linspace(-1.5, 1.5, n)
            grid = sample_grid(field, [ts, xs, xs], GRID_COMPONENTS)
            shifted = sample_grid(
                apply_group(GroupElement.displacement_shift(1.0, G1, G2),
                            field), [ts, xs, xs], GRID_COMPONENTS)
            worst = 0.0
            for pt in ((0.4, 0.0, 0.0), (0.4, -0.375, 0.5)):
                pre = residual_cartesian_iso(grid, REFERENCE, pt)
                post = residual_cartesian_iso(shifted, REFERENCE, pt)
                worst = max(worst, max(abs(post[eq] - pre[eq])
                                       for eq in CARTESIAN_EQUATIONS))
            return worst

        grid_ratio = shift_defect(25) / shift_defect(49)
        grid_ok = 2.0 <= grid_ratio <= 8.0

        xs = np.linspace(-1.5, 1.5, 25)
        grid = sample_grid(field, [ts, xs, xs], GRID_COMPONENTS)
        rotated = sample_grid(
            apply_group(GroupElement.rotation(0.5 * math.pi), grid),
            [ts, xs, xs], GRID_COMPONENTS)
        rot_ok = True
        for jx, jy in ((5, 9), (10, 14), (16, 7)):
            t, x, y = ts[2], xs[jx], xs[jy]
            pre = residual_cartesian_iso(grid, REFERENCE, (t, x, y))
            post = residual_cartesian_iso(rotated, REFERENCE, (t, -y, x))
            scale = max(1.0, pre.max_abs())
            rot_ok = rot_ok and abs(
                post["momentum1"] + pre["momentum2"]) <= 1e-12 * scale
            rot_ok = rot_ok and abs(
                post["momentum2"] - pre["momentum1"]) <= 1e-12 * scale
            for eq in ("continuity", "density", "porosity", "solute"):
                rot_ok = rot_ok and abs(post[eq] - pre[eq]) <= 1e-12 * scale

        # negative control: G = (x^2, 0) must fail with defect 2*lam_star
        ls = lame_star(REFERENCE)
        bad = GroupElement.displacement_shift(1.0, Poly2([[0], [0], [1]]),
                                              Poly2.zero())
        sol_field = self._invariance_fields()[0][1]
        rep = check_invariance(bad, sol_field, REFERENCE,
                               points=self._points_for(("stationary",)))
        control_ok = (not rep.passed
                      and rep.row("momentum1").max_diff
                      == pytest.approx(2 * ls, rel=1e-12))
        control_ok = control_ok and verify_displacement_symmetry(
            Poly2([[0], [0], [1]]), Poly2.zero(),
            REFERENCE) == pytest.approx(2 * ls, rel=1e-15)

        ok = analytic_ok and grid_ok and rot_ok and control_ok
        verdict(6, ok, f"21 fields x 4 elements analytic 1e-12, grid shift "
                       f"ratio {grid_ratio:.2f}, quarter-turn exact, "
                       f"negative control defect 2*lam_star")

    def test_criterion_7_anisotropic_consistency(self):
        moduli_iso = AnisotropicModuli.isotropic(REFERENCE.lam, REFERENCE.mu)
        rng = np.random.default_rng(1357)
        points = [(0.3, 0.4, -0.2), (0.7, -1.1, 0.6)]
        embed_ok = True
        for _ in range(100):
            field = random_polynomial_field(rng)
            for pt in points:
                ri = residual_cartesian_iso(field, REFERENCE, pt)
                ra = residual_cartesian_aniso(field, moduli_iso, REFERENCE, pt)
                scale = max(1.0, ri.max_abs())
                if any(abs(ri[eq] - ra[eq]) > 1e-12 * scale
                       for eq in CARTESIAN_EQUATIONS):
                    embed_ok = False

        moduli = AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                   e13=0.4, e23=0.2)
        G1, G2 = random_displacement_symmetry_aniso(moduli, rng)
        field = random_polynomial_field(rng)
        elements = [
            GroupElement.time_translation(0.3),
            GroupElement.x_translation(0.5),
            GroupElement.y_translation(-0.2),
            GroupElement.concentration_scaling(0.8, REFERENCE.sigma1),
            GroupElement.pressure_shift(1.0, TimeFunction.sine()),
            GroupElement.displacement_shift(0.7, G1, G2),
        ]
        aniso_suite_ok = all(
            check_invariance(el, field, REFERENCE, moduli=moduli).passed
            for el in elements)
        ok = embed_ok and aniso_suite_ok
        verdict(7, ok, "isotropic embedding equality on 100 fields, "
                       "anisotropic operator suite passes without rotation")

    def test_criterion_8_determinism(self, tmp_path):
        heavy = str(16 * math.pi)

        def run_all(out):
            codes = [
                cli_main(["stationary", "--case", "dirichlet", "--p_st",
                          "0.8", "--F0", heavy, "--svg", "on",
                          "--out", str(out)]),
                cli_main(["rst", "--F0", heavy, "--out", str(out)]),
                cli_main(["transient", "--N", "64", "--dt", "2e-3",
                          "--t_end", "1.0", "--theta0", "0.9999",
                          "--F0", heavy, "--steady_tol", "1e-8",
                          "--svg", "on", "--out", str(out)]),
                cli_main(["symmetry", "--F0", heavy, "--out", str(out)]),
                cli_main(["sweep", "--sweep_values", "0,20,40",
                          "--out", str(out)]),
            ]
            return codes

        a, b = tmp_path / "a", tmp_path / "b"
        codes_a = run_all(a)
        codes_b = run_all(b)
        ok = codes_a == codes_b == [0, 0, 0, 0, 0]
        names = sorted(f.name for f in a.iterdir())
        identical = names == sorted(f.name for f in b.iterdir()) and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in names)
        ok = ok and identical
        verdict(8, ok, f"{len(names)} output files byte-identical across "
                       f"repeated runs of all five subcommands")
