import dataclasses
import importlib.machinery
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pemsim import transient
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
        (dict(load_ramp=math.nan), "load_ramp"),
        (dict(load_end=math.nan), "load_end"),
        (dict(dt=math.inf), "dt must be"),
        (dict(t_end=math.inf), "t_end"),
        (dict(steady_tol=math.inf), "steady_tol"),
        (dict(load_ramp=math.inf), "load_ramp"),
        (dict(N=20.5), "N must be an integer"),
        (dict(N=math.nan), "N must be an integer"),
        (dict(N="20"), "N must be an integer"),
        (dict(output_every=2.5), "output_every must be an integer"),
        (dict(output_every=math.nan), "output_every must be an integer"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SimConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(N=np.int64(20), output_every=np.int32(3))
        assert cfg.N == 20 and cfg.output_every == 3


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


def stencil_sum_band(st, S, dt, t_new):
    """The (w, P) band and right-hand side summed term by term into band
    storage, each stencil term in turn; the ordering rule that
    _Stepper.assemble_wp documents makes its scatter equal this bit for
    bit."""
    p, N = st.params, st.N
    h = (S - st.r_in) / N
    eta = st.eta
    Sdot = (S - st.S) / dt
    k, ls, lam = p.k, st.ls, p.lam
    lband, uband = 5, 4
    ab = np.zeros((lband + uband + 1, 2 * (N + 1)))
    rhs = np.zeros(2 * (N + 1))

    def diag(row, col, vals, n=N - 1):
        # entries (row + 2j, col + 2j), j = 0 .. n-1
        ab[uband + row - col, col:col + 2 * n:2] += vals

    def entries(row, col, vals):
        # entries (row, col + 2j) of a single row
        for j, v in enumerate(vals):
            ab[uband + row - col - 2 * j, col + 2 * j] += v

    ri = st.r_in + h * np.arange(1, N)
    Ai = -Sdot * eta[1:N]
    c1 = 1.0 / (2.0 * h)
    inv_2hr = 1.0 / (2.0 * h * ri)
    cw_m = -ls * (1.0 / h**2 - inv_2hr)
    cw_0 = -ls * (-2.0 / h**2 - 1.0 / ri**2)
    cw_p = -ls * (1.0 / h**2 + inv_2hr)
    if not st.config.quasi_static:
        rho_i = st.rho[1:N]
        Vn = st.V
        Qn = Vn[1:N] * (st.rho_t[1:N] + rho_i * fd1(Vn, h)[1:N]
                        + rho_i * Vn[1:N] / ri)
        cw_0 = cw_0 + rho_i / dt**2
        cw_m = cw_m + rho_i / dt * Ai * (-c1)
        cw_p = cw_p + rho_i / dt * Ai * c1
        rhs[2:2 * N:2] = (rho_i * st.w[1:N] / dt**2 + rho_i * Vn[1:N] / dt
                          - Qn)
    diag(2, 0, cw_m)
    diag(2, 2, cw_0)
    diag(2, 4, cw_p)
    diag(2, 1, -c1)
    diag(2, 5, c1)
    diag(3, 1, -(k / 2.0) * (1.0 / h**2 - inv_2hr))
    diag(3, 3, -(k / 2.0) * (-2.0 / h**2))
    diag(3, 5, -(k / 2.0) * (1.0 / h**2 + inv_2hr))
    for s, a in ((-1, -c1), (0, 1.0 / ri), (1, c1)):
        diag(3, 2 + 2 * s, a / dt)
        rhs[3:2 * N:2] += a * st.w[1 + s:N + s] / dt
        lo, hi = max(0, -s), N - 1 - max(0, s)
        coef = a * (-Sdot * eta[1 + s + lo:1 + s + hi])
        diag(3 + 2 * lo, 2 * (lo + s), coef * (-c1), hi - lo)
        diag(3 + 2 * lo, 2 * (lo + s + 2), coef * c1, hi - lo)
    cN = c1 * (-Sdot * eta[N])
    entries(2 * N - 1, 2 * N - 4,
            (cN * 0.5 / h, cN * (-2.0) / h, cN * 1.5 / h))
    d = ls / h**2
    entries(0, 0, (d,))
    if st.geometry == "annulus":
        entries(1, 1, (d,))
        rhs[1] = d * p.p_a
    else:
        entries(1, 1, (-1.5 / h**2, 2.0 / h**2, -0.5 / h**2))
    entries(2 * N, 2 * N - 4, (ls * 0.5 / h**2, -ls * 2.0 / h**2,
                               (ls * 1.5 / h + lam / S) / h))
    rhs[2 * N] = st.traction_rhs(t_new, S) / h
    entries(2 * N + 1, 2 * N + 1, (d,))
    rhs[2 * N + 1] = d * p.p_a
    return ab, rhs


class TestBandScatter:
    """assemble_wp's one ordered scatter equals the term-by-term stencil sum
    bit for bit, shared entries and signs of zeros included, and lays it
    out as dgbsv's workspace: the band below 5 zero fill-in rows."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=hst.integers(0, 2**32 - 1), N=hst.integers(16, 200),
           geometry=hst.sampled_from(["annulus", "circle"]),
           quasi=hst.booleans(),
           traction_form=hst.sampled_from(["annulus", "ring"]),
           resting=hst.booleans(), first_step=hst.booleans())
    def test_band_equals_stencil_sum(self, seed, N, geometry, quasi,
                                     traction_form, resting, first_step):
        rng = np.random.default_rng(seed)
        p = ModelParams.reference(F0=rng.uniform(0.0, 16 * math.pi),
                                  p_a=rng.uniform(-0.5, 0.5))
        # A load released before t_new makes the traction rhs a signed zero.
        cfg = SimConfig(N=N, quasi_static=quasi, traction_form=traction_form,
                        load_ramp=rng.choice([0.0, 0.3]),
                        load_end=rng.choice([math.inf, 0.5]))
        st = _Stepper(p, cfg, geometry)
        st.S = p.R0 * rng.uniform(0.7, 1.0)
        # w = 0 is the first step; S == st.S (Sdot = 0, a resting boundary)
        # makes every advective coefficient a signed zero.
        st.w = np.zeros(N + 1) if first_step else 0.1 * rng.normal(size=N + 1)
        st.P = p.p_a + 0.1 * rng.normal(size=N + 1)
        st.rho = rng.uniform(0.5, 2.0, N + 1)
        st.V = rng.normal(size=N + 1)
        st.rho_t = rng.normal(size=N + 1)
        dt = rng.uniform(1e-4, 1e-2)
        S = st.S if resting else st.S * (1.0 + 0.01 * rng.normal())
        t_new = rng.uniform(0.0, 1.0)
        lu, rhs = st.assemble_wp(S, dt, t_new)
        ab_ref, rhs_ref = stencil_sum_band(st, S, dt, t_new)
        assert lu.shape == (15, 2 * (N + 1)) and lu.flags.f_contiguous
        assert rhs.shape == rhs_ref.shape
        assert lu[5:].tobytes() == ab_ref.tobytes()
        assert lu[:5].tobytes() == bytes(lu[:5].nbytes)   # +0.0 throughout
        assert rhs.tobytes() == rhs_ref.tobytes()
        # A second call builds new arrays: the first call's stay as they were.
        st.assemble_wp(st.S * (1.0 + 0.02 * rng.normal()), dt, t_new)
        assert lu[5:].tobytes() == ab_ref.tobytes()
        assert rhs.tobytes() == rhs_ref.tobytes()
        # solve_banded factors this very array: no copy, no re-layout.
        x = transient.solve_banded((5, 4), lu, rhs)
        assert not np.array_equal(lu[5:], ab_ref)
        assert np.array_equal(x, scipy.linalg.solve_banded((5, 4), ab_ref,
                                                           rhs_ref))


class TestSolveBanded:
    """transient.solve_banded against scipy.linalg.solve_banded: bit-equal
    results and the same errors.  A (5, 4) band is passed as dgbsv's
    workspace, the scipy band below 5 spare rows, which the solve consumes;
    a (1, 1) band and every right-hand side are left as they were."""

    @staticmethod
    def band(seed, N, l_and_u):
        rng = np.random.default_rng(seed)
        n = 2 * (N + 1) if l_and_u == (5, 4) else N + 1
        ab = rng.normal(size=(sum(l_and_u) + 1, n)) * rng.uniform(1e-3, 1e6)
        ab[l_and_u[1]] += rng.uniform(0.0, 10.0) * np.abs(ab).sum(axis=0)
        return ab, rng.normal(size=n) * rng.uniform(1e-3, 1e3)

    @staticmethod
    def workspace(l_and_u, ab, fill=0.0):
        """What solve_banded takes for the scipy band ab."""
        if l_and_u == (1, 1):
            return ab.copy()
        lu = np.full((l_and_u[0] + ab.shape[0], ab.shape[1]), fill,
                     order="F")
        lu[l_and_u[0]:] = ab
        return lu

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=hst.integers(0, 2**32 - 1), N=hst.integers(16, 120),
           l_and_u=hst.sampled_from([(5, 4), (1, 1)]))
    def test_bit_equal_to_scipy_and_inputs_unchanged(self, seed, N, l_and_u):
        ab, b = self.band(seed, N, l_and_u)
        lu, b_in = self.workspace(l_and_u, ab), b.copy()
        x = transient.solve_banded(l_and_u, lu, b)
        assert np.array_equal(b, b_in)
        # dgbsv factors the workspace in place; dgtsv leaves its band alone.
        assert np.array_equal(lu[-len(ab):], ab) == (l_and_u == (1, 1))
        assert np.array_equal(x, scipy.linalg.solve_banded(l_and_u, ab, b))

    @pytest.mark.parametrize("fill", [1.0, -1e300, math.nan, math.inf])
    def test_fill_in_rows_are_checked_not_read(self, fill):
        # dgbsv overwrites them unread, but they are checked for finiteness
        # with the band: the whole workspace is contiguous, the band is not.
        ab, b = self.band(4, 60, (5, 4))
        lu = self.workspace((5, 4), ab, fill)
        if not math.isfinite(fill):
            with pytest.raises(ValueError, match="infs or NaNs"):
                transient.solve_banded((5, 4), lu, b)
            return
        x = transient.solve_banded((5, 4), lu, b)
        assert np.array_equal(x, scipy.linalg.solve_banded((5, 4), ab, b))

    @pytest.mark.parametrize("failure", ["missing", "not an extension"])
    def test_fallback_solves_bit_equal(self, failure, monkeypatch, tmp_path):
        # The extension loaded from its file, and the package's lapack
        # module that a failed load falls back to, solve alike.
        bands = {l_and_u: self.band(5, 40, l_and_u)
                 for l_and_u in [(5, 4), (1, 1)]}

        def solve_all():
            return {k: transient.solve_banded(k, self.workspace(k, ab), b)
                    for k, (ab, b) in bands.items()}

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(transient, "_lapack", None)
        direct = solve_all()
        assert transient._lapack is sys.modules["scipy.linalg._flapack"]
        assert transient._lapack is not scipy.linalg.lapack._flapack

        if failure == "missing":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                                [".missing.so"])
        else:
            (tmp_path / "linalg").mkdir()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(
                    b"\0" * 64)
            monkeypatch.setattr(scipy, "__file__",
                                str(tmp_path / "__init__.py"))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(transient, "_lapack", None)
        fallback = solve_all()
        assert transient._lapack is scipy.linalg.lapack
        for l_and_u, (ab, b) in bands.items():
            assert np.array_equal(direct[l_and_u], fallback[l_and_u])
            assert np.array_equal(direct[l_and_u],
                                  scipy.linalg.solve_banded(l_and_u, ab, b))

    @pytest.mark.parametrize("l_and_u", [(5, 4), (1, 1)])
    @pytest.mark.parametrize("target", ["ab", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, l_and_u, target, value):
        ab, b = self.band(1, 20, l_and_u)
        (ab[1] if target == "ab" else b)[7] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            transient.solve_banded(l_and_u, self.workspace(l_and_u, ab), b)

    @pytest.mark.parametrize("l_and_u", [(5, 4), (1, 1)])
    def test_singular_band_rejected(self, l_and_u):
        ab, b = self.band(2, 20, l_and_u)
        ab[:, 3:] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            transient.solve_banded(l_and_u, self.workspace(l_and_u, ab), b)

    @pytest.mark.parametrize("l_and_u", [(5, 4), (1, 1)])
    def test_shape_mismatch_rejected(self, l_and_u):
        ab, b = self.band(3, 20, l_and_u)
        lu = self.workspace(l_and_u, ab)
        with pytest.raises(ValueError, match="does not match"):
            transient.solve_banded(l_and_u, lu, b[:-1])
        with pytest.raises(ValueError, match="does not match"):
            transient.solve_banded(l_and_u, lu[1:], b)
        if l_and_u == (5, 4):     # the scipy band without its spare rows
            with pytest.raises(ValueError, match="does not match"):
                transient.solve_banded(l_and_u, ab, b)


class TestBoundaryRows:
    """The band LU solves the Dirichlet rows to round-off of the solution,
    so the pinned boundary values do not jump from step to step."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=hst.integers(0, 2**32 - 1), N=hst.integers(16, 120),
           geometry=hst.sampled_from(["annulus", "circle"]),
           quasi=hst.booleans())
    def test_raw_solution_meets_dirichlet_rows(self, seed, N, geometry, quasi):
        raw = []
        solve_banded = transient.solve_banded

        def spy(*args, **kwargs):
            z = solve_banded(*args, **kwargs)
            raw.append(z.copy())
            return z

        rng = np.random.default_rng(seed)
        p = ModelParams.reference(F0=rng.uniform(0.0, 16 * math.pi),
                                  p_a=rng.uniform(-0.5, 0.5))
        st = _Stepper(p, SimConfig(N=N, quasi_static=quasi), geometry)
        st.S = p.R0 * rng.uniform(0.7, 1.0)
        st.w = 0.1 * rng.normal(size=N + 1)
        st.P = p.p_a + 0.1 * rng.normal(size=N + 1)
        st.rho = rng.uniform(0.5, 2.0, N + 1)
        st.V = rng.normal(size=N + 1)
        st.rho_t = rng.normal(size=N + 1)
        dt = rng.uniform(1e-4, 1e-2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transient, "solve_banded", spy)
            st.solve_wp(st.S * (1.0 + 0.01 * rng.normal()), dt, 0.5)

        w, P = raw[-1][0::2], raw[-1][1::2]
        residue = [abs(w[0]), abs(P[-1] - p.p_a)]
        if geometry == "annulus":
            residue.append(abs(P[0] - p.p_a))
        assert max(residue) <= 1e-13 * max(1.0, abs(p.p_a))


class TestSteadyStop:
    """Past the physical transient every step rate sits below steady_tol,
    so the reference run stops steady at every resolution."""

    LATE = SimConfig(dt=2e-3, t_end=1.0, output_every=1,
                     stop_when_steady=False)

    # At F0 = 16*pi the porosity stays positive for theta0 above 0.99924
    # (N = 100) to 0.99934 (N = 800); theta0 >= 0.9995 keeps every draw
    # in bounds, with 1 - theta0 at least 20 % below that floor.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(N=hst.integers(100, 800),
           F0=hst.floats(12 * math.pi, 16 * math.pi),
           theta0=hst.floats(0.9995, 0.9999))
    def test_late_rates_below_steady_tol(self, N, F0, theta0):
        p = ModelParams.reference(F0=F0)
        states = simulate(p, dataclasses.replace(self.LATE, N=N),
                          theta0=theta0)
        late = [max(s.rate_norms.values()) for s in states if s.t > 0.6]
        assert max(late) <= 1e-8
        assert np.median(late) <= 1e-10

    @pytest.mark.parametrize("F0", [49.0, 16 * math.pi])
    def test_porosity_below_draw_range_aborts(self, F0):
        p = ModelParams.reference(F0=F0)
        with pytest.raises(PhysicalBoundsError):
            simulate(p, dataclasses.replace(self.LATE, N=100), theta0=0.999)

    @pytest.mark.parametrize("N", [400, 800])
    @pytest.mark.parametrize("steady_tol", [1e-8, 1e-9])
    def test_reference_run_stops_steady(self, N, steady_tol):
        cfg = SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=steady_tol)
        final = simulate(HEAVY, cfg, theta0=0.9999)[-1]
        assert final.t < 0.5
        assert max(final.rate_norms.values()) <= steady_tol


class TestExactLastStep:
    """A run to a t_end that is a whole number of steps away takes only full
    steps, so a steady state carries through its last step bit for bit."""

    @pytest.mark.parametrize("N", [600, 760])
    def test_last_step_keeps_steady_state(self, N):
        cfg = SimConfig(N=N, dt=2e-3, t_end=1.0, output_every=1,
                        stop_when_steady=False)
        prev, final = simulate(HEAVY, cfg, theta0=0.9999)[-2:]
        assert final.t == 1.0
        assert all(v == 0.0 for v in final.rate_norms.values()), \
            final.rate_norms
        assert final.S == prev.S
        for name in ("w", "P", "varrho", "Theta"):
            assert np.array_equal(getattr(final, name),
                                  getattr(prev, name)), name


class TestStepRetry:
    def test_failed_step_retried_at_half_size_then_full_size(
            self, monkeypatch):
        monkeypatch.setattr(transient, "MAX_DT_DOUBLINGS", 0)
        cfg = SimConfig(N=32, dt=1e-2, t_end=3.0, output_every=1)
        unforced = simulate(GENTLE, cfg, theta0=0.7)[-1]
        solve_step = _Stepper.solve_step
        attempts = []

        def fail_fourth_attempt(self, dt):
            attempts.append(dt)
            if len(attempts) == 4:   # the first attempt of the fourth step
                raise SimulationError("injected failure")
            return solve_step(self, dt)

        monkeypatch.setattr(_Stepper, "solve_step", fail_fourth_attempt)
        states = simulate(GENTLE, cfg, theta0=0.7)
        steps = np.diff([s.t for s in states])
        assert steps[:3] == pytest.approx([cfg.dt] * 3, rel=1e-12)
        assert steps[3] == pytest.approx(cfg.dt / 2, rel=1e-12)
        assert steps[4:] == pytest.approx([cfg.dt] * (len(steps) - 4),
                                          rel=1e-9)
        assert max(states[-1].rate_norms.values()) <= cfg.steady_tol
        assert abs(states[-1].S - unforced.S) <= 1e-6

    def test_step_after_halved_grown_step_is_config_dt(self, monkeypatch):
        p = ModelParams.reference(F0=0.8 * math.pi)
        cfg = SimConfig(N=24, dt=1e-2, t_end=20.0, output_every=1)
        unforced = np.diff([s.t for s in simulate(p, cfg, geometry="circle",
                                                  theta0=0.7)])
        grown = int(np.argmax(unforced > 3.5 * cfg.dt))   # first 4 dt step
        assert grown > 0
        solve_step = _Stepper.solve_step
        attempts = []

        def fail_grown_step(self, dt):
            attempts.append(dt)
            if len(attempts) == grown + 1:
                raise SimulationError("injected failure")
            return solve_step(self, dt)

        monkeypatch.setattr(_Stepper, "solve_step", fail_grown_step)
        states = simulate(p, cfg, geometry="circle", theta0=0.7)
        steps = np.diff([s.t for s in states])
        assert steps[:grown] == pytest.approx(unforced[:grown], rel=1e-12)
        assert attempts[grown] == 2 * attempts[grown + 1]
        assert steps[grown] == pytest.approx(unforced[grown] / 2, rel=1e-9)
        assert steps[grown + 1] == pytest.approx(cfg.dt, rel=1e-9)
        assert max(states[-1].rate_norms.values()) <= cfg.steady_tol


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
    def test_backward_euler_self_convergence(self, monkeypatch):
        # S(t_end) under dt, dt/2, dt/4, dt/8: differences halve (order 1)
        monkeypatch.setattr(transient, "MAX_DT_DOUBLINGS", 0)
        S = []
        for dt in (8e-3, 4e-3, 2e-3, 1e-3):
            cfg = SimConfig(N=48, dt=dt, t_end=0.4, load_ramp=0.2,
                            stop_when_steady=False)
            S.append(simulate(GENTLE, cfg, theta0=0.7)[-1].S)
        d = np.diff(S)
        ratios = d[:-1] / d[1:]
        assert np.all((ratios >= 1.8) & (ratios <= 2.2)), ratios


class TestStepGrowth:
    """Once the load is settled the step doubles along config.dt * 2**k
    while the Milne estimate of its local error stays small."""

    CIRCLE = ModelParams.reference(F0=0.8 * math.pi)

    @staticmethod
    def _fixed(*args, **kwargs):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transient, "MAX_DT_DOUBLINGS", 0)
            return simulate(*args, **kwargs)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(geometry=hst.sampled_from(["circle", "annulus"]),
           N=hst.integers(16, 40),
           F0=hst.floats(0.5 * math.pi, 2 * math.pi),
           theta0=hst.floats(0.6, 0.9),
           load_ramp=hst.sampled_from([0.0, 0.05, 1.5]),
           load_end=hst.sampled_from([math.inf, 0.1, 2.0]))
    @example(geometry="circle", N=24, F0=0.8 * math.pi, theta0=0.7,
             load_ramp=0.0, load_end=2.0)    # relaxed long before the kink
    def test_lattice_steps_settled_load_and_steady_radius(
            self, geometry, N, F0, theta0, load_ramp, load_end):
        p = ModelParams.reference(F0=F0)
        cfg = SimConfig(N=N, dt=0.04, t_end=40.0, steady_tol=1e-10,
                        load_ramp=load_ramp, load_end=load_end,
                        output_every=1)
        states = simulate(p, cfg, geometry=geometry, theta0=theta0)
        kink = load_end if load_end < math.inf else load_ramp
        t = np.array([s.t for s in states])
        k = np.log2(np.diff(t) / cfg.dt)
        lattice = np.abs(k - np.round(k)) <= 1e-9
        assert np.all(lattice[:-1]) and (lattice[-1] or t[-1] == cfg.t_end)
        assert np.all(np.round(k) <= transient.MAX_DT_DOUBLINGS)
        assert np.all((np.round(k) <= 0) | (t[:-1] >= kink))
        for s in states:
            assert np.all(s.Theta > 0.0) and np.all(s.Theta < 1.0)
            assert np.all(s.varrho > 0.0)
            assert abs(s.w[-1] - (s.S - p.R0)) <= 1e-9
        fixed = self._fixed(p, cfg, geometry=geometry, theta0=theta0)[-1]
        assert max(fixed.rate_norms.values()) <= cfg.steady_tol
        assert max(states[-1].rate_norms.values()) <= cfg.steady_tol
        assert abs(states[-1].S - fixed.S) <= 1e-9

    def test_trajectory_error_within_three_times_fixed_step(self):
        # max |S(t) - S_ref(t)| over each run's steps, S_ref at dt/8
        cfg = SimConfig(N=16, dt=1e-2, t_end=4.0, output_every=1,
                        stop_when_steady=False)
        run = dict(params=self.CIRCLE, geometry="circle", theta0=0.7)
        ref = self._fixed(config=dataclasses.replace(cfg, dt=cfg.dt / 8),
                          **run)
        t_ref, S_ref = np.array([[s.t, s.S] for s in ref]).T

        def steps_and_gap(states):
            t, S = np.array([[s.t, s.S] for s in states]).T
            return len(t) - 1, np.max(np.abs(S - np.interp(t, t_ref, S_ref)))

        n_fixed, gap_fixed = steps_and_gap(self._fixed(config=cfg, **run))
        n_grown, gap_grown = steps_and_gap(simulate(config=cfg, **run))
        assert n_grown < n_fixed / 4
        assert gap_grown <= 3.0 * gap_fixed

    def test_circle_run_takes_few_steps(self):
        # the TestCircle run: 5,966 steps at a fixed dt
        cfg = SimConfig(N=96, dt=2e-3, t_end=20.0, steady_tol=1e-9,
                        output_every=1)
        states = simulate(self.CIRCLE, cfg, geometry="circle", theta0=0.7)
        assert len(states) - 1 <= 600
        assert max(states[-1].rate_norms.values()) <= cfg.steady_tol

    def test_steady_run_keeps_its_step_size(self):
        # round-off increments past steady state must not steer the step
        cfg = SimConfig(N=24, dt=1e-2, t_end=30.0, steady_tol=1e-9,
                        output_every=1, stop_when_steady=False)
        states = simulate(self.CIRCLE, cfg, geometry="circle", theta0=0.7)
        rates = np.array([max(s.rate_norms.values()) for s in states[1:]])
        steps = np.diff([s.t for s in states])
        first = int(np.argmax(rates <= cfg.steady_tol))
        assert 0 < first < len(steps) - 10
        assert np.all(rates[first:] <= cfg.steady_tol)
        assert steps[first] > cfg.dt
        assert steps[first + 1:-1] == pytest.approx(
            [steps[first]] * (len(steps) - first - 2), rel=1e-9)

    @pytest.mark.parametrize("N", [100, 200, 400])
    def test_reference_annulus_takes_no_more_steps(self, N):
        cfg = SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=1e-8,
                        output_every=1)
        grown = simulate(HEAVY, cfg, theta0=0.9999)
        fixed = self._fixed(HEAVY, cfg, theta0=0.9999)
        assert len(grown) <= len(fixed)
        assert abs(grown[-1].S - fixed[-1].S) <= 1e-9


class TestPressureShift:
    """Under the annulus traction form no boundary row holds P, so shifting
    p_a and p_st by c shifts P by c and leaves S, w, rho and Theta as they
    were, at every snapshot of a whole run.  The ring form, p_a - F0,
    carries p_a into the traction and is the negative control."""

    CFG = SimConfig(dt=2e-3, t_end=0.1, output_every=1)

    @staticmethod
    def gap_over_tol(p, cfg, geometry, theta0, c):
        """max |difference| / tolerance over the snapshots, per variable.

        The tolerances scale with each run's magnitudes: S and w with the
        free-boundary root tolerance 1e-12*max(R0, 1), P with the largest
        pressure of either run, rho and Theta with their largest value."""
        shifted = dataclasses.replace(p, p_a=p.p_a + c, p_st=p.p_st + c)
        base = simulate(p, cfg, geometry=geometry, theta0=theta0)
        twin = simulate(shifted, cfg, geometry=geometry, theta0=theta0)
        assert [s.t for s in twin] == [s.t for s in base]
        length = max(p.R0, 1.0)
        ratios = {"S": max(abs(b.S - a.S) for a, b in zip(base, twin))
                  / (1e-11 * length)}
        for name in ("w", "P", "varrho", "Theta"):
            shift = c if name == "P" else 0.0
            gap = max(np.max(np.abs(getattr(b, name) - getattr(a, name)
                                    - shift)) for a, b in zip(base, twin))
            size = (length if name == "w" else
                    max(np.max(np.abs(getattr(s, name))) for s in base + twin))
            # An unloaded, unshifted run has P = 0 throughout: no 0 / 0.
            ratios[name] = gap / (1e-11 * max(size, np.finfo(float).tiny))
        return ratios

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(geometry=hst.sampled_from(["annulus", "circle"]),
           N=hst.integers(16, 64),
           F0=hst.floats(0.0, 2 * math.pi),
           theta0=hst.floats(0.6, 0.95),
           load_ramp=hst.sampled_from([0.0, 0.05]),
           p_a=hst.floats(-1.0, 1.0),
           c=hst.floats(-5.0, 5.0))
    @example(geometry="annulus", N=48, F0=16 * math.pi, theta0=0.9999,
             load_ramp=0.0, p_a=0.0, c=2.5)          # the reference annulus
    @example(geometry="circle", N=48, F0=0.8 * math.pi, theta0=0.7,
             load_ramp=0.0, p_a=0.0, c=2.5)          # the TestCircle load
    def test_annulus_traction_shifts_only_P(self, geometry, N, F0, theta0,
                                            load_ramp, p_a, c):
        p = ModelParams.reference(F0=F0, p_a=p_a, p_st=p_a)
        cfg = dataclasses.replace(self.CFG, N=N, load_ramp=load_ramp)
        ratios = self.gap_over_tol(p, cfg, geometry, theta0, c)
        assert all(r <= 1.0 for r in ratios.values()), ratios

    @pytest.mark.parametrize("geometry", ["annulus", "circle"])
    def test_ring_traction_is_no_symmetry(self, geometry):
        # A small load: at F0 = 0.8 pi and above the ring form leaves the
        # porosity bounds within the first steps.
        p = ModelParams.reference(F0=0.1)
        cfg = dataclasses.replace(self.CFG, N=48, traction_form="ring")
        ratios = self.gap_over_tol(p, cfg, geometry, 0.7, 0.02)
        assert ratios["S"] > 1e6, ratios


class TestTimeScaling:
    """Scaling k by s and every time by 1/s is the same run on a faster
    clock: the twin takes the same steps, scaled, and the same boundary."""

    @pytest.mark.parametrize("s", [2, 3])
    def test_twin_takes_the_same_steps(self, s):
        # At s = 3 the base run's t after 25 steps rounds just above the
        # ramp's end and the twin's just below it.
        cfg = SimConfig(N=100, dt=2e-3, t_end=0.2, steady_tol=1e-8,
                        load_ramp=0.05, output_every=1)
        twin = dataclasses.replace(
            cfg, dt=cfg.dt / s, t_end=cfg.t_end / s,
            steady_tol=s * cfg.steady_tol, load_ramp=cfg.load_ramp / s)
        base = simulate(GENTLE, cfg, theta0=0.7)
        scaled = simulate(dataclasses.replace(GENTLE, k=s * GENTLE.k), twin,
                          theta0=0.7)
        assert len(scaled) == len(base)
        steps = np.diff([st.t for st in base])
        assert s * np.diff([st.t for st in scaled]) == pytest.approx(
            steps, rel=1e-9)
        assert max(abs(a.S - b.S) for a, b in zip(base, scaled)) <= 1e-11


class TestFreeBoundarySolves:
    """The free-boundary iteration carries its slope from step to step: the
    criterion-5 ladder and the TestCircle run take few (w, P) solves per
    step, never fall back to Brent's method and meet the kinematic
    condition at the root tolerance."""

    @pytest.mark.parametrize("params, cfg, geometry, theta0, max_mean", [
        *[pytest.param(HEAVY, SimConfig(N=N, dt=2e-3, t_end=3.0,
                                        steady_tol=1e-8),
                       "annulus", 0.9999, 3.2, id=f"annulus-N{N}")
          for N in (100, 200, 400)],
        pytest.param(TestStepGrowth.CIRCLE,
                     SimConfig(N=96, dt=2e-3, t_end=20.0, steady_tol=1e-9),
                     "circle", 0.7, 2.8, id="circle"),
    ])
    def test_solves_per_step(self, monkeypatch, params, cfg, geometry,
                             theta0, max_mean):
        brent_calls, solves = [], []
        brentq, solve_step = transient.brentq, _Stepper.solve_step

        def counted_brentq(*args, **kwargs):
            brent_calls.append(args[1:3])
            return brentq(*args, **kwargs)

        def counted_solve_step(self, dt):
            result = solve_step(self, dt)
            solves.append(result[-1])
            return result

        monkeypatch.setattr(transient, "brentq", counted_brentq)
        monkeypatch.setattr(_Stepper, "solve_step", counted_solve_step)
        states = simulate(params, cfg, geometry=geometry, theta0=theta0)
        assert max(states[-1].rate_norms.values()) <= cfg.steady_tol
        assert brent_calls == []
        assert np.mean(solves) <= max_mean, (np.mean(solves), len(solves))
        tol = 1e-12 * max(params.R0, 1.0)
        for s in states:
            assert abs(s.w[-1] - (s.S - params.R0)) <= tol, s.t


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
        worst = np.max([residual_ring(src, HEAVY, (t_mid, r[j])).max_abs()
                        for j in range(2, len(r) - 2, 7)])
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
