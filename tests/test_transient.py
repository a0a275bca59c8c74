import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pemsim.core import ModelParams
from pemsim.residuals import residual_ring
from pemsim.stationary import neumann_solution, rst_cubic
from pemsim.transient import (MAX_DT_HALVINGS, PhysicalBoundsError,
                              RadialState, SimConfig, SimulationError,
                              _Stepper, fd1, fd2, ring_source_from_states,
                              simulate, steady_state_check)

HEAVY = ModelParams.reference(F0=16 * math.pi)
GENTLE = ModelParams.reference(F0=2 * math.pi)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(N=8), "N must be"),
        (dict(dt=0.0), "dt must be"),
        (dict(t_end=-1.0), "t_end"),
        (dict(steady_tol=0.0), "steady_tol"),
        (dict(load_ramp=-0.5), "load_ramp"),
        (dict(traction_form="bogus"), "traction_form"),
        (dict(output_every=0), "output_every"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SimConfig(**kwargs)


class TestFiniteDifferenceHelpers:
    def test_orders(self):
        xs = np.linspace(0.3, 1.7, 41)
        h = xs[1] - xs[0]
        f = np.sin(xs)
        d1 = fd1(f, h)
        d2 = fd2(f, h)
        assert np.max(np.abs(d1 - np.cos(xs))) < 5e-3
        assert np.max(np.abs(d2 + np.sin(xs))) < 5e-2
        # edges included
        assert abs(d1[0] - math.cos(xs[0])) < 5e-3
        assert abs(d2[-1] + math.sin(xs[-1])) < 5e-2


class TestBandAssembly:
    """The (w, P) solve against the discrete equations rebuilt from fd1/fd2."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=hst.integers(0, 2**32 - 1), N=hst.integers(16, 120),
           geometry=hst.sampled_from(["annulus", "circle"]),
           quasi=hst.booleans())
    def test_solution_satisfies_discrete_equations(self, seed, N, geometry,
                                                   quasi):
        rng = np.random.default_rng(seed)
        p = ModelParams.reference(F0=rng.uniform(0.0, 16 * math.pi),
                                  p_a=rng.uniform(-0.5, 0.5))
        st = _Stepper(p, SimConfig(N=N, quasi_static=quasi), geometry)
        # a random previous state and trial boundary
        st.S = p.R0 * rng.uniform(0.7, 1.0)
        st.w = 0.1 * rng.normal(size=N + 1)
        st.P = p.p_a + 0.1 * rng.normal(size=N + 1)
        st.rho = rng.uniform(0.5, 2.0, N + 1)
        st.V = rng.normal(size=N + 1)
        st.rho_t = rng.normal(size=N + 1)
        dt = rng.uniform(1e-4, 1e-2)
        S = st.S * (1.0 + 0.01 * rng.normal())
        w, P = st.solve_wp(S, dt, 0.5)

        h = (S - st.r_in) / N
        r = st.r_in + h * np.arange(N + 1)
        Sdot = (S - st.S) / dt
        ls = p.lam + 2.0 * p.mu
        wmax, Pmax = np.max(np.abs(w)), np.max(np.abs(P))
        i, ri = slice(1, N), r[1:N]

        # Momentum: rho (V - V^n)/dt + Q^n + P_r - ls (w_rr + w_r/r - w/r^2).
        V = (w - st.w) / dt - Sdot * st.eta * fd1(w, h)
        mom = fd1(P, h)[i] - ls * (fd2(w, h)[i] + fd1(w, h)[i] / ri
                                   - w[i] / ri**2)
        mom_scale = ls * (4.0 / h**2 + 1.0 / (h * ri) + 1.0 / ri**2) * wmax \
            + Pmax / h
        if not quasi:
            rho, Vn = st.rho[i], st.V
            Qn = Vn[i] * (st.rho_t[i] + rho * fd1(Vn, h)[i] + rho * Vn[i] / ri)
            mom = mom + rho * (V[i] - Vn[i]) / dt + Qn
            mom_scale = mom_scale + rho * (
                (wmax + np.max(np.abs(st.w))) / dt**2
                + abs(Sdot) / (h * dt) * wmax + np.abs(Vn[i]) / dt) + np.abs(Qn)
        # Volume balance: V_r + V/r - (k/2) (P_rr + P_r/r).
        vol = fd1(V, h)[i] + V[i] / ri - 0.5 * p.k * (fd2(P, h)[i]
                                                     + fd1(P, h)[i] / ri)
        Vmax = (wmax + np.max(np.abs(st.w))) / dt + abs(Sdot) * 4.0 / h * wmax
        vol_scale = Vmax * (4.0 / h + 1.0 / ri) \
            + 0.5 * p.k * (4.0 / h**2 + 2.0 / (h * ri)) * Pmax
        assert np.all(np.abs(mom) <= 1e-11 * mom_scale)
        assert np.all(np.abs(vol) <= 1e-11 * vol_scale)

        # Boundary rows: w = 0 inside, P = p_a (annulus) or P_r = 0 (circle)
        # inside, traction and P = p_a at the outer boundary.
        assert w[0] == 0.0 and P[-1] == p.p_a
        if geometry == "annulus":
            assert P[0] == p.p_a
        else:
            assert abs(fd1(P, h)[0]) <= 1e-11 * 4.0 / h * Pmax
        traction = ls * fd1(w, h)[-1] + p.lam * w[-1] / S
        target = -p.F0 / (2.0 * math.pi * S)
        assert abs(traction - target) <= 1e-11 * (
            ls * 4.0 / h * wmax + p.lam * wmax / S + abs(target))


class TestFailuresStayLoud:
    """A free-boundary solve that cannot succeed raises SimulationError
    once the step has been halved MAX_DT_HALVINGS times."""

    def _fail(self, monkeypatch, g_of_S):
        dts = []

        def fake_solve_wp(self, S, dt, t_new):
            dts.append(dt)
            w = np.full(self.N + 1, S - self.params.R0 + g_of_S(S))
            return w, np.full(self.N + 1, self.params.p_a)

        monkeypatch.setattr(_Stepper, "solve_wp", fake_solve_wp)
        cfg = SimConfig(N=16, dt=1e-3, t_end=0.1)
        with pytest.raises(SimulationError) as err:
            simulate(GENTLE, cfg, theta0=0.7)
        assert type(err.value) is SimulationError
        assert err.value.iterations > 0
        assert sorted(set(dts), reverse=True) == [
            cfg.dt * 0.5**j for j in range(MAX_DT_HALVINGS + 1)]
        return err.value

    def test_nan_solve(self, monkeypatch):
        err = self._fail(monkeypatch, lambda S: math.nan)
        assert "no bracket" in str(err)
        assert math.isnan(err.last_residual)

    def test_no_sign_change(self, monkeypatch):
        err = self._fail(monkeypatch, lambda S: 1.0)
        assert "no bracket" in str(err)
        assert err.last_residual == 1.0

    def test_sign_change_without_root(self, monkeypatch):
        # g jumps from +1 to -1 at S = 1.95: Brent closes in on the jump
        err = self._fail(monkeypatch, lambda S: 1.0 if S < 1.95 else -1.0)
        assert "rejected" in str(err)
        assert err.last_residual == 1.0


class TestTemporalOrder:
    def test_backward_euler_self_convergence(self):
        # S(t_end) under dt, dt/2, dt/4, dt/8: differences halve (order 1)
        S = []
        for dt in (8e-3, 4e-3, 2e-3, 1e-3):
            cfg = SimConfig(N=48, dt=dt, t_end=0.4, load_ramp=0.2,
                            stop_when_steady=False)
            S.append(simulate(GENTLE, cfg, theta0=0.7)[-1].S)
        d = np.diff(S)
        ratios = d[:-1] / d[1:]
        assert np.all((ratios >= 1.8) & (ratios <= 2.2)), ratios


class TestUnloadedEquilibrium:
    def test_zero_load_holds_rest_state(self):
        p = ModelParams.reference(F0=0.0)
        cfg = SimConfig(N=32, dt=0.01, t_end=1.0, steady_tol=1e-12)
        states = simulate(p, cfg, theta0=0.5)
        for s in states:
            assert s.S == pytest.approx(p.R0, abs=1e-10)
            assert np.max(np.abs(s.w)) <= 1e-10
            assert np.max(np.abs(s.P - p.p_a)) <= 1e-10


class TestAnnulusShrink:
    def test_converges_to_cubic_root(self):
        r_st = rst_cubic(HEAVY).r_st
        cfg = SimConfig(N=100, dt=2e-3, t_end=3.0, steady_tol=1e-8)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        final = states[-1]
        assert abs(final.S - r_st) <= 0.01 * (HEAVY.R0 - r_st)
        report = steady_state_check(final, HEAVY, steady_tol=1e-7)
        assert report.is_steady
        assert report.distance_P <= 1e-8
        assert report.distance_w <= 1e-5

    def test_boundary_shrinks_monotonically(self):
        cfg = SimConfig(N=64, dt=2e-3, t_end=1.0, steady_tol=1e-8)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        S = np.array([s.S for s in states])
        assert np.all(np.diff(S) <= 1e-10)
        assert S[-1] < HEAVY.R0

    def test_kinematic_condition_every_snapshot(self):
        cfg = SimConfig(N=64, dt=2e-3, t_end=0.5, steady_tol=1e-10,
                        output_every=1, stop_when_steady=False)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        for s in states[1:]:
            assert abs(s.w[-1] - (s.S - HEAVY.R0)) <= 1e-9

    def test_physical_bounds_hold_on_reference_run(self):
        cfg = SimConfig(N=64, dt=2e-3, t_end=2.0, steady_tol=1e-8,
                        output_every=1, stop_when_steady=False)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        for s in states:
            assert np.all(s.Theta > 0.0) and np.all(s.Theta < 1.0)
            assert np.all(s.varrho > 0.0)

    def test_second_order_convergence_of_steady_radius(self):
        results = {}
        for N in (50, 100, 200):
            cfg = SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=1e-8)
            results[N] = simulate(HEAVY, cfg, theta0=0.9999)[-1].S
        d1 = results[50] - results[100]
        d2 = results[100] - results[200]
        assert d1 / d2 == pytest.approx(4.0, rel=0.3)


class TestPorosityCollapseDetection:
    def test_overloaded_material_aborts_with_state(self):
        # moderate initial porosity cannot absorb the reference squeeze
        cfg = SimConfig(N=48, dt=2e-3, t_end=2.0, steady_tol=1e-8)
        with pytest.raises(PhysicalBoundsError) as err:
            simulate(HEAVY, cfg, theta0=0.5)
        state = err.value.state
        assert isinstance(state, RadialState)
        assert np.min(state.Theta) <= 0.0


class TestSteadyStateCheck:
    def test_injected_stationary_state_is_steady(self):
        r_st = rst_cubic(HEAVY).r_st
        sol = neumann_solution(HEAVY, r_st)
        N = 80
        r = np.linspace(HEAVY.r0, r_st, N + 1)
        state = RadialState(
            t=0.0, S=r_st, xi_grid=r / r_st,
            w=np.array([sol.displacement(x) for x in r]),
            P=np.full(N + 1, HEAVY.p_st),
            varrho=np.full(N + 1, 1.0), Theta=np.full(N + 1, 0.4))
        report = steady_state_check(state, HEAVY, steady_tol=1e-8)
        assert report.is_steady
        assert report.distance_w <= 1e-12
        assert report.distance_P <= 1e-12

    def test_early_transient_not_steady(self):
        cfg = SimConfig(N=48, dt=1e-3, t_end=0.01, steady_tol=1e-12,
                        stop_when_steady=False)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        report = steady_state_check(states[-1], HEAVY, steady_tol=1e-8)
        assert not report.is_steady

    def test_converged_window_satisfies_ring_system(self):
        # difference a near-steady trajectory window directly through the
        # ring residual operator: the discrete state solves the equations
        # at the discretization level
        cfg = SimConfig(N=100, dt=2e-3, t_end=3.0, steady_tol=1e-10,
                        output_every=1, stop_when_steady=True)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        window = states[-3:]
        src = ring_source_from_states(window)
        r = window[1].r_grid
        t_mid = window[1].t
        worst = max(residual_ring(src, HEAVY, (t_mid, r[j])).max_abs()
                    for j in range(2, len(r) - 2, 7))
        h = (window[1].S - HEAVY.r0) / cfg.N
        assert worst <= 50.0 * h**2

    def test_window_requires_fixed_domain(self):
        cfg = SimConfig(N=48, dt=1e-3, t_end=0.01, steady_tol=1e-12,
                        output_every=1, stop_when_steady=False)
        states = simulate(HEAVY, cfg, theta0=0.9999)
        with pytest.raises(ValueError, match="different domains"):
            ring_source_from_states(states[:4])
        with pytest.raises(ValueError, match="at least 3"):
            ring_source_from_states(states[:2])

    def test_converged_distance_shrinks_second_order(self):
        gaps = {}
        for N in (50, 100):
            cfg = SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=1e-9)
            final = simulate(HEAVY, cfg, theta0=0.9999)[-1]
            gaps[N] = steady_state_check(final, HEAVY,
                                         steady_tol=1e-7).distance_w
        assert gaps[50] / gaps[100] == pytest.approx(4.0, rel=0.5)


class TestVolumeBalance:
    def test_boundary_flux_identity(self):
        # Integrating the volume balance over the domain: the boundary
        # motion term equals the pressure-flux term to O(h^2) + O(dt).
        # The step load starts with an unresolved sqrt(t) pressure layer,
        # so the asymptotic claim applies once the layer spans a few cells
        # (t >= 0.02 here).
        p = HEAVY
        worst = {}
        for N, dt in ((64, 1e-3), (128, 2.5e-4)):
            cfg = SimConfig(N=N, dt=dt, t_end=0.04, steady_tol=1e-12,
                            output_every=1, stop_when_steady=False)
            states = simulate(p, cfg, theta0=0.9999)
            gap = 0.0
            for s in states:
                if s.rate_norms is None or s.t < 0.02:
                    continue
                V = s.w_rate
                h = (s.S - p.r0) / N
                Pr = fd1(s.P, h)
                lhs = s.S * V[-1] - p.r0 * V[0]
                rhs = 0.5 * p.k * (s.S * Pr[-1] - p.r0 * Pr[0])
                gap = max(gap, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
            h = (states[-1].S - p.r0) / N
            assert gap <= 5.0 * (h**2 / (p.R0 - p.r0) ** 2 + dt), (N, gap)
            worst[N] = gap
        # halving h and quartering dt shrinks the defect substantially
        assert worst[128] <= 0.5 * worst[64]


class TestLoadRelease:
    def test_release_returns_to_rest_and_keeps_kinematics(self):
        cfg = SimConfig(N=48, dt=1e-3, t_end=4.0, steady_tol=1e-9,
                        load_end=0.1, output_every=1, stop_when_steady=True)
        states = simulate(GENTLE, cfg, theta0=0.7)
        # kinematic closure holds at the release step and everywhere else
        for s in states[1:]:
            assert abs(s.w[-1] - (s.S - GENTLE.R0)) <= 1e-9
        final = states[-1]
        assert final.S == pytest.approx(GENTLE.R0, abs=1e-6)
        assert np.max(np.abs(final.w)) <= 1e-6

    def test_load_ramp_smooths_start(self):
        cfg = SimConfig(N=48, dt=1e-3, t_end=2.0, steady_tol=1e-8,
                        load_ramp=0.2)
        states = simulate(GENTLE, cfg, theta0=0.7)
        r_st = rst_cubic(GENTLE).r_st
        assert abs(states[-1].S - r_st) <= 0.01 * (GENTLE.R0 - r_st)


class TestInertia:
    def test_full_inertia_matches_quasi_static_steady_state(self):
        p = ModelParams.reference(F0=2 * math.pi, rho_f0=0.05)
        cfg_q = SimConfig(N=48, dt=5e-3, t_end=40.0, steady_tol=1e-9)
        cfg_i = SimConfig(N=48, dt=5e-3, t_end=40.0, steady_tol=1e-9,
                          quasi_static=False)
        S_q = simulate(p, cfg_q, rho0=0.05, theta0=0.7)[-1].S
        S_i = simulate(p, cfg_i, rho0=0.05, theta0=0.7)[-1].S
        assert abs(S_q - S_i) <= 2e-9


class TestCircle:
    def test_circle_steady_radius(self):
        # annulus traction form on the disk: S = R0 - F0/(4 pi (lam+mu))
        p = ModelParams.reference(F0=0.8 * math.pi)
        cfg = SimConfig(N=96, dt=2e-3, t_end=20.0, steady_tol=1e-9)
        states = simulate(p, cfg, geometry="circle", theta0=0.7)
        predicted = p.R0 - p.F0 / (4 * math.pi * (p.lam + p.mu))
        assert states[-1].S == pytest.approx(predicted, abs=2e-4)
        # center conditions: zero displacement, flat pressure
        final = states[-1]
        assert final.w[0] == 0.0
        h = (final.S - 0.0) / 96
        assert abs(fd1(final.P, h)[0]) <= 1e-8

    def test_circle_steady_report_uses_linear_profile(self):
        p = ModelParams.reference(F0=0.8 * math.pi)
        cfg = SimConfig(N=64, dt=2e-3, t_end=20.0, steady_tol=1e-9)
        final = simulate(p, cfg, geometry="circle", theta0=0.7)[-1]
        report = steady_state_check(final, p, steady_tol=1e-7)
        assert report.is_steady
        assert report.reference_case == "circle-linear"
        assert report.distance_w <= 1e-4

    def test_ring_traction_form(self):
        # disk under the per-area load convention: the steady radius solves
        # 2 (lam+mu) (S-R0)/S = p_a - F0
        p = ModelParams.reference(F0=0.5)
        cfg = SimConfig(N=96, dt=2e-3, t_end=20.0, steady_tol=1e-9,
                        traction_form="ring")
        states = simulate(p, cfg, geometry="circle", theta0=0.7)
        predicted = p.R0 / (1.0 - (p.p_a - p.F0) / (2 * (p.lam + p.mu)))
        assert states[-1].S == pytest.approx(predicted, abs=2e-4)


class TestMovingMeshConsistency:
    def test_static_field_has_no_advective_residual(self):
        # a time-independent field carried on the moving grid: the mapped
        # time derivative minus the advective correction vanishes at O(h^2)
        r_in, R0 = 1.0, 2.0
        S0, Sdot, dt = 1.7, -0.1, 1e-7
        f = np.sin

        def residual(N):
            eta = np.linspace(0.0, 1.0, N + 1)
            S1 = S0 + Sdot * dt
            r0_nodes = r_in + (S0 - r_in) * eta
            r1_nodes = r_in + (S1 - r_in) * eta
            f0 = f(r0_nodes)
            f1 = f(r1_nodes)
            h1 = (S1 - r_in) / N
            adv = (f1 - f0) / dt - Sdot * eta * fd1(f1, h1)
            return np.max(np.abs(adv))

        coarse, fine = residual(32), residual(64)
        assert coarse <= 1e-4
        assert coarse / fine == pytest.approx(4.0, rel=0.4)


class TestTrajectoryWellFormed:
    def test_time_strictly_increases_no_nans(self):
        cfg = SimConfig(N=48, dt=2e-3, t_end=1.0, steady_tol=1e-8)
        states = simulate(GENTLE, cfg, theta0=0.7)
        ts = np.array([s.t for s in states])
        assert np.all(np.diff(ts) > 0)
        for s in states:
            for arr in (s.w, s.P, s.varrho, s.Theta, s.xi_grid):
                assert np.all(np.isfinite(arr))
            assert math.isfinite(s.S)

    def test_initial_profile_validation(self):
        cfg = SimConfig(N=32, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError, match="porosity"):
            simulate(GENTLE, cfg, theta0=1.0)
        with pytest.raises(ValueError, match="density"):
            simulate(GENTLE, cfg, rho0=-1.0)

    def test_geometry_validated(self):
        cfg = SimConfig(N=32, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError, match="geometry"):
            simulate(GENTLE, cfg, geometry="sphere")
