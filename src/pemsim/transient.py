"""Time integrator for the moving-boundary ring/annulus consolidation problem.

The radially symmetric system couples a volume balance (displacement rate
against pressure diffusion), radial momentum, and two transported
diagnostics (mixture density and porosity) on a domain whose outer radius
S(t) is unknown.  The free boundary is closed by solving, at every step,
the traction balance together with the kinematic condition w(S) = S - R0
for S; this is the only closure consistent with the stationary limit, where
the same pair of conditions produces the shrink-radius cubic.  Each step
finds S as a root of the scalar kinematic mismatch, at one banded (w, P)
solve per evaluation: a secant iteration warm-started from the predicted
boundary, with Brent's method on a sign-change bracket as the fallback.

Discretization: front-fixing map r = r_in + (S(t) - r_in)*eta with eta in
[0, 1], so time derivatives at fixed eta acquire the advective correction
-Sdot*eta*d/dr.  The (w, P) subsystem is advanced by backward Euler with
second-order differences in r (one-sided second-order at the edges, which
keeps the steady radius converging at O(h^2)); density and porosity are
advected by implicit first-order upwinding, which preserves their physical
bounds.  Inertial terms are off by default (quasi-static); the full-inertia
mode keeps them with the quadratic velocity products treated explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .core import ModelParams, ParameterError, lame_star
from .stationary import neumann_solution

__all__ = [
    "SimConfig",
    "RadialState",
    "SimulationError",
    "PhysicalBoundsError",
    "SteadyReport",
    "simulate",
    "steady_state_check",
    "ring_source_from_states",
    "fd1",
    "fd2",
    "MAX_DT_HALVINGS",
]

# A step that fails is retried at half the step size this many times before
# simulate gives up and raises.
MAX_DT_HALVINGS = 12


class SimulationError(RuntimeError):
    """Per-step solve failed to converge (after adaptive step halving)."""

    def __init__(self, message: str, iterations: int = 0,
                 last_residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.last_residual = last_residual


class PhysicalBoundsError(SimulationError):
    """Porosity or density left its physical range; carries the bad state."""

    def __init__(self, message: str, state: "RadialState"):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SimConfig:
    """Numerical controls for one simulation run."""

    N: int = 200
    dt: float = 2e-3
    t_end: float = 3.0
    quasi_static: bool = True
    steady_tol: float = 1e-9
    load_ramp: float = 0.0           # 0 = step load
    load_end: float = math.inf       # time at which the load is removed
    traction_form: str = "annulus"   # "annulus": -F0/(2 pi S); "ring": p_a - F0
    output_every: int = 10
    stop_when_steady: bool = True

    def __post_init__(self) -> None:
        if self.N < 16:
            raise ValueError("N must be at least 16")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not self.steady_tol > 0:
            raise ValueError("steady_tol must be positive")
        if not self.load_ramp >= 0:
            raise ValueError("load_ramp must be >= 0")
        if math.isnan(self.load_end):
            raise ValueError("load_end must be a number")
        if self.traction_form not in ("annulus", "ring"):
            raise ValueError("traction_form must be 'annulus' or 'ring'")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


@dataclass(frozen=True)
class RadialState:
    """Discrete radial profiles on the mapped grid at one instant.

    ``xi_grid`` holds r/S(t); the physical radii are xi_grid * S.  States
    emitted by :func:`simulate` carry the displacement rate profile and the
    maximum time-derivative norms; hand-built snapshots may leave them
    ``None``, in which case they are treated as time-independent.
    """

    t: float
    S: float
    xi_grid: np.ndarray
    w: np.ndarray
    P: np.ndarray
    varrho: np.ndarray
    Theta: np.ndarray
    w_rate: np.ndarray | None = None
    rate_norms: dict[str, float] | None = None

    @property
    def r_grid(self) -> np.ndarray:
        return self.xi_grid * self.S


def fd1(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative on a uniform grid (one-sided at edges)."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def fd2(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order second derivative on a uniform grid (one-sided at edges)."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    return out


class _Stepper:
    """Holds the per-run constants and previous-step arrays."""

    def __init__(self, params: ModelParams, config: SimConfig, geometry: str):
        if geometry not in ("circle", "annulus"):
            raise ValueError("geometry must be 'circle' or 'annulus'")
        self.params = params
        self.config = config
        self.geometry = geometry
        self.r_in = 0.0 if geometry == "circle" else params.r0
        self.N = config.N
        self.eta = np.linspace(0.0, 1.0, config.N + 1)
        self.ls = lame_star(params)
        # Previous-step data, set by simulate().
        self.t = 0.0
        self.S = params.R0
        self.w = np.zeros(config.N + 1)
        self.P = np.full(config.N + 1, params.p_a)
        self.Sdot = 0.0
        self.rho = np.zeros(config.N + 1)
        self.theta = np.zeros(config.N + 1)
        self.V = np.zeros(config.N + 1)
        self.rho_t = np.zeros(config.N + 1)
        self.e = np.zeros(config.N + 1)

    def load_at(self, t: float) -> float:
        F0 = self.params.F0
        if t > self.config.load_end:
            return 0.0
        if self.config.load_ramp > 0.0:
            return F0 * min(1.0, t / self.config.load_ramp)
        return F0

    def traction_rhs(self, t: float, S: float) -> float:
        F = self.load_at(t)
        if self.config.traction_form == "ring":
            return self.params.p_a - F
        return -F / (2.0 * math.pi * S)

    # ---- linear (w, P) solve for a trial boundary position ----------------

    def solve_wp(self, S: float, dt: float, t_new: float):
        """Backward-Euler solve of the coupled displacement/pressure system
        on the grid mapped to [r_in, S], for a trial S.

        Unknowns interleave as (w_0, P_0, w_1, P_1, ...).  Every stencil
        coefficient is added straight into the (5, 4) band storage, where
        entry (row, col) lives at ``ab[uband + row - col, col]``.  Entries
        that several stencil terms share are summed in the order written
        below; reordering them changes the solution in its last bits.
        """
        p = self.params
        N = self.N
        h = (S - self.r_in) / N
        eta = self.eta
        Sdot = (S - self.S) / dt
        k, ls, lam = p.k, self.ls, p.lam
        quasi = self.config.quasi_static

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

        ri = self.r_in + h * np.arange(1, N)   # interior nodes i = 1 .. N-1
        Ai = -Sdot * eta[1:N]        # advective factor inside the w_t operator
        c1 = 1.0 / (2.0 * h)         # central D1 weight
        inv_2hr = 1.0 / (2.0 * h * ri)

        # Momentum rows 2i: inertia + P_r - elastic = rhs.
        cw_m = -ls * (1.0 / h**2 - inv_2hr)
        cw_0 = -ls * (-2.0 / h**2 - 1.0 / ri**2)
        cw_p = -ls * (1.0 / h**2 + inv_2hr)
        if not quasi:
            rho_i = self.rho[1:N]
            # Quadratic velocity products at the previous time level.
            Vn = self.V
            Qn = Vn[1:N] * (self.rho_t[1:N] + rho_i * fd1(Vn, h)[1:N]
                            + rho_i * Vn[1:N] / ri)
            cw_0 = cw_0 + rho_i / dt**2
            cw_m = cw_m + rho_i / dt * Ai * (-c1)
            cw_p = cw_p + rho_i / dt * Ai * c1
            rhs[2:2 * N:2] = (rho_i * self.w[1:N] / dt**2 + rho_i * Vn[1:N] / dt
                              - Qn)
        diag(2, 0, cw_m)             # w_{i-1}
        diag(2, 2, cw_0)             # w_i
        diag(2, 4, cw_p)             # w_{i+1}
        diag(2, 1, -c1)              # P_{i-1}
        diag(2, 5, c1)               # P_{i+1}

        # Volume-balance rows 2i+1:
        #   (D1 V)_i + V_i/r_i - (k/2)(D2 P + D1 P / r)_i = 0,
        # with V_j = (w_j - w^n_j)/dt - Sdot*eta_j*(D1 w)_j.
        diag(3, 1, -(k / 2.0) * (1.0 / h**2 - inv_2hr))
        diag(3, 3, -(k / 2.0) * (-2.0 / h**2))
        diag(3, 5, -(k / 2.0) * (1.0 / h**2 + inv_2hr))
        wn = self.w
        for s, a in ((-1, -c1), (0, 1.0 / ri), (1, c1)):
            # node j = i + s
            diag(3, 2 + 2 * s, a / dt)
            rhs[3:2 * N:2] += a * wn[1 + s:N + s] / dt
            # Advective part of V_j through its central D1 stencil, for the
            # interior nodes j only; eta[0] = 0 makes the inner node's part
            # vanish, and the outer node's one-sided stencil is patched below.
            lo, hi = max(0, -s), N - 1 - max(0, s)
            coef = a * (-Sdot * eta[1 + s + lo:1 + s + hi])
            diag(3 + 2 * lo, 2 * (lo + s), coef * (-c1), hi - lo)
            diag(3 + 2 * lo, 2 * (lo + s + 2), coef * c1, hi - lo)
        # Patch: row i = N-1 touches V_N whose D1 stencil is one-sided.
        cN = c1 * (-Sdot * eta[N])
        entries(2 * N - 1, 2 * N - 4,
                (cN * 0.5 / h, cN * (-2.0) / h, cN * 1.5 / h))

        # Boundary rows.
        entries(0, 0, (1.0,))                      # w(inner) = 0
        if self.geometry == "annulus":
            entries(1, 1, (1.0,))                  # P(inner) = p_a
            rhs[1] = p.p_a
        else:
            entries(1, 1, (-1.5 / h, 2.0 / h, -0.5 / h))   # P_r(0) = 0
        entries(2 * N, 2 * N - 4,
                (ls * 0.5 / h, -ls * 2.0 / h, ls * 1.5 / h + lam / S))
        rhs[2 * N] = self.traction_rhs(t_new, S)
        entries(2 * N + 1, 2 * N + 1, (1.0,))      # P(outer) = p_a
        rhs[2 * N + 1] = p.p_a

        z = solve_banded((lband, uband), ab, rhs)
        w_sol, P_sol = z[0::2], z[1::2]
        # pin the Dirichlet rows exactly (LU leaves rounding-level residue)
        w_sol[0] = 0.0
        if self.geometry == "annulus":
            P_sol[0] = p.p_a
        P_sol[N] = p.p_a
        return w_sol, P_sol

    # ---- free-boundary scalar solve ---------------------------------------

    def solve_step(self, dt: float):
        """Advance one step of size dt; returns (S, w, P, solves).

        The kinematic mismatch g(S) = w(S) - (S - R0) costs one (w, P) solve
        per evaluation.  The previous boundary S_n is tried first, which
        keeps a resting boundary exactly at rest.  Otherwise, g being smooth
        and monotone, a secant iteration starts from the predicted boundary
        S_n + Sdot_n*dt and accepts at |g| <= tol_g.  If |g| fails to halve,
        turns non-finite or the iterate leaves [s_min, s_max], Brent's
        method takes over on the tightest sign change seen so far, or on one
        found by expanding probes from S_n.
        """
        t_new = self.t + dt
        R0 = self.params.R0
        span = R0 - self.r_in
        s_min = self.r_in + 1e-6 * span
        s_max = R0 + 5.0 * span
        tol_g = 1e-12 * max(R0, 1.0)

        cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

        def g(S: float) -> float:
            if S not in cache:
                cache[S] = self.solve_wp(S, dt, t_new)
            w, _ = cache[S]
            return float(w[-1] - (S - R0))

        def finish(S: float):
            w, P = cache[S]
            return S, w, P, len(cache)

        def probe_bracket():
            # g decreases in S for this closure, so the root lies on the side
            # g0 points to; probe outward with growing steps until the sign
            # flips, falling back to the opposite side if it never does.
            for direction in (math.copysign(1.0, g0), -math.copysign(1.0, g0)):
                prev_s, prev_g = s0, g0
                step = max(abs(g0), 1e-9 * span) * direction
                for _ in range(60):
                    s_next = min(max(s0 + step, s_min), s_max)
                    g_next = g(s_next)
                    if (g_next > 0) != (prev_g > 0) or g_next == 0.0:
                        return (min(prev_s, s_next), max(prev_s, s_next))
                    if s_next in (s_min, s_max):
                        break
                    prev_s, prev_g = s_next, g_next
                    step *= 1.7
            return None

        s0 = self.S
        g0 = g(s0)
        if abs(g0) <= tol_g:
            return finish(s0)

        # Secant iteration from the predicted boundary; a boundary at rest
        # predicts itself, so it takes the unit-slope step s0 + g0 instead.
        s_prev, g_prev = s0, g0
        s_next = s0 + self.Sdot * dt
        if s_next == s0:
            s_next = s0 + g0
        while s_min <= s_next <= s_max:
            g_next = g(s_next)
            if abs(g_next) <= tol_g:
                return finish(s_next)
            if not abs(g_next) <= 0.5 * abs(g_prev):
                break
            s_prev, g_prev, s_next = s_next, g_next, s_next - g_next * (
                s_next - s_prev) / (g_next - g_prev)

        # Stalled: hand the tightest sign change seen to Brent's method.
        finite = sorted((s, g(s)) for s in cache if math.isfinite(g(s)))
        brackets = [(a, b) for (a, ga), (b, gb) in zip(finite, finite[1:])
                    if (ga > 0) != (gb > 0)]
        bracket = min(brackets, key=lambda ab: ab[1] - ab[0], default=None)
        if bracket is None and math.isfinite(g0):
            bracket = probe_bracket()
        if bracket is None:
            raise SimulationError(
                f"free-boundary solve found no bracket at t={t_new}",
                iterations=len(cache), last_residual=abs(g0))
        root = brentq(g, bracket[0], bracket[1],
                      xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=120)
        g_root = g(root)
        if abs(g_root) > 1e-9 * max(R0, 1.0):
            raise SimulationError(
                f"free-boundary root rejected at t={t_new}",
                iterations=len(cache), last_residual=abs(g_root))
        return finish(root)

    # ---- transported diagnostics -------------------------------------------

    def dilatation(self, S: float, w: np.ndarray) -> np.ndarray:
        """Discrete dilatation w_r + w/r (regularized limit 2*w_r at r=0)."""
        h = (S - self.r_in) / self.N
        r = self.r_in + h * np.arange(self.N + 1)
        e = fd1(w, h)
        if self.geometry == "circle":
            e[0] *= 2.0
            e[1:] += w[1:] / r[1:]
        else:
            e += w / r
        return e

    def advance_transport(self, S: float, dt: float, w: np.ndarray,
                          P: np.ndarray):
        """Update density and porosity on the new grid.

        Advection (matrix velocity minus grid velocity) is treated by
        implicit first-order upwinding with zero-gradient ghosts at
        characteristic inflow boundaries, which keeps the system an
        M-matrix for any velocity.  The relaxation toward the mixture
        targets is then integrated exactly over the step via the identity
        built into the volume balance: the time integral of the relaxation
        rate equals twice the dilatation change, so the per-node
        accumulated reaction factor telescopes to exp(-2*e) exactly and is
        immune to the stiff pressure boundary layer under a step load.
        (The cross term between advection and the reaction exponent is of
        higher order in the strain and is not retained.)
        """
        p = self.params
        N = self.N
        h = (S - self.r_in) / N
        Sdot = (S - self.S) / dt
        V = (w - self.w) / dt - Sdot * self.eta * fd1(w, h)
        v = V - Sdot * self.eta

        # Straight into the (1, 1) band storage, entry (i, j) at ab[1 + i - j, j]:
        # node i adds |v_i|/h to its diagonal and -|v_i|/h at its upwind neighbour.
        a = np.abs(v) / h
        up = np.where(v[1:] >= 0.0, a[1:], 0.0)   # backward, nodes 1..N
        dn = np.where(v[:-1] < 0.0, a[:-1], 0.0)  # forward, nodes 0..N-1
        ab = np.zeros((3, N + 1))
        ab[1] = 1.0 / dt
        ab[1, 1:] += up
        ab[2, :-1] -= up
        ab[1, :-1] += dn
        ab[0, 1:] -= dn

        e_new = self.dilatation(S, w)
        decay = np.exp(-2.0 * (e_new - self.e))
        rho_star = solve_banded((1, 1), ab, self.rho / dt)
        theta_star = solve_banded((1, 1), ab, self.theta / dt)
        rho = p.rho_f0 + (rho_star - p.rho_f0) * decay
        theta = 1.0 + (theta_star - 1.0) * decay
        return rho, theta, V, e_new


def _make_state(stepper: _Stepper, rates: dict[str, float] | None) -> RadialState:
    S = stepper.S
    xi = (stepper.r_in + (S - stepper.r_in) * stepper.eta) / S
    return RadialState(
        t=stepper.t, S=S, xi_grid=xi,
        w=stepper.w.copy(), P=stepper.P.copy(),
        varrho=stepper.rho.copy(), Theta=stepper.theta.copy(),
        w_rate=stepper.V.copy() if rates is not None else None,
        rate_norms=dict(rates) if rates is not None else None,
    )


def simulate(params: ModelParams, config: SimConfig, geometry: str = "annulus",
             rho0: float | None = None, theta0: float = 0.5
             ) -> list[RadialState]:
    """Integrate the moving-boundary problem from the undeformed rest state.

    Initial data: P = p_a, w = 0, S = R0, uniform density ``rho0`` (None
    means ``rho_f0``) and uniform porosity ``theta0``; other values than
    rho0 > 0 and 0 < theta0 < 1 raise ParameterError.  Returns snapshots
    every ``output_every`` accepted steps plus the initial and final states.
    The step size halves on per-step nonconvergence; porosity or density
    leaving their physical bounds aborts with the offending state attached.
    """
    st = _Stepper(params, config, geometry)
    if not 0.0 < theta0 < 1.0:
        raise ParameterError(["initial porosity must lie strictly in (0, 1)"])
    rho0 = params.rho_f0 if rho0 is None else rho0
    if not rho0 > 0.0:
        raise ParameterError(["initial density must be positive"])
    st.rho = np.full(config.N + 1, float(rho0))
    st.theta = np.full(config.N + 1, float(theta0))

    out = [_make_state(st, None)]
    dt = config.dt
    step_index = 0
    success_streak = 0
    while st.t < config.t_end - 1e-12 * config.t_end:
        dt_try = min(dt, config.t_end - st.t)
        halvings = 0
        while True:
            try:
                S_new, w_new, P_new, _ = st.solve_step(dt_try)
                rho_new, theta_new, V_new, e_new = st.advance_transport(
                    S_new, dt_try, w_new, P_new)
                break
            except SimulationError:
                halvings += 1
                if halvings > MAX_DT_HALVINGS:
                    raise
                dt_try *= 0.5
        if halvings > 0:
            dt = dt_try   # keep the reduced step for now ...
            success_streak = 0
        else:
            success_streak += 1
            if success_streak >= 5 and dt < config.dt:
                dt = min(2.0 * dt, config.dt)   # ... and recover gradually
                success_streak = 0

        Sdot = (S_new - st.S) / dt_try
        rates = {
            "w": float(np.max(np.abs(V_new))),
            "P": float(np.max(np.abs(P_new - st.P)) / dt_try),
            "rho": float(np.max(np.abs(rho_new - st.rho)) / dt_try),
            "theta": float(np.max(np.abs(theta_new - st.theta)) / dt_try),
            "S": abs(Sdot),
        }
        st.rho_t = (rho_new - st.rho) / dt_try
        st.t += dt_try
        st.S = S_new
        st.Sdot = Sdot
        st.w = w_new
        st.P = P_new
        st.V = V_new
        st.e = e_new

        if np.any(theta_new <= 0.0) or np.any(theta_new >= 1.0) or np.any(
                rho_new <= 0.0):
            st.rho = rho_new
            st.theta = theta_new
            raise PhysicalBoundsError(
                f"porosity/density left physical bounds at t={st.t}",
                _make_state(st, rates))
        st.rho = rho_new
        st.theta = theta_new

        step_index += 1
        is_steady = max(rates.values()) <= config.steady_tol
        if step_index % config.output_every == 0 or is_steady or (
                st.t >= config.t_end - 1e-12 * config.t_end):
            out.append(_make_state(st, rates))
        if is_steady and config.stop_when_steady:
            break
    return out


@dataclass(frozen=True)
class SteadyReport:
    """Outcome of a steady-state comparison against the stationary profile."""

    is_steady: bool
    rate_norm: float
    distance_w: float
    distance_P: float
    S: float
    reference_case: str


def steady_state_check(state: RadialState, params: ModelParams,
                       steady_tol: float = 1e-8) -> SteadyReport:
    """Decide steadiness and measure the gap to the stationary solution.

    Uses the time-derivative norms the solver recorded (hand-built
    snapshots without them are treated as time-independent).  The reference
    profile is the zero-flux stationary state for the current boundary
    radius: uniform pressure p_st with the closed-form annulus displacement,
    or the linear displacement ramp for the full circle.  For transient
    runs the steady interior pressure equals the ambient one, so configure
    p_st = p_a when the distances should vanish at convergence.
    """
    rate_norm = 0.0
    if state.rate_norms is not None:
        rate_norm = max(state.rate_norms.values())
    is_steady = rate_norm <= steady_tol
    r = state.r_grid
    S = state.S
    circle = state.xi_grid[0] == 0.0
    if circle:
        w_ref = (S - params.R0) / S * r
        case = "circle-linear"
    else:
        sol = neumann_solution(params, S)
        w_ref = np.array([sol.displacement(x) for x in r])
        case = "neumann"
    distance_w = float(np.max(np.abs(state.w - w_ref)))
    distance_P = float(np.max(np.abs(state.P - params.p_st)))
    return SteadyReport(is_steady=is_steady, rate_norm=rate_norm,
                        distance_w=distance_w, distance_P=distance_P,
                        S=S, reference_case=case)


def ring_source_from_states(states: "list[RadialState]"):
    """Grid-backed (t, r) field source from a window of trajectory snapshots.

    The snapshots must share the domain to rounding (a near-steady window;
    the free boundary makes earlier windows live on different grids) and be
    uniformly spaced in time, so the ring residual operator can difference
    them directly.
    """
    from .fields import GridFieldSource

    if len(states) < 3:
        raise ValueError("need at least 3 snapshots for time derivatives")
    S_vals = np.array([s.S for s in states])
    if np.max(np.abs(S_vals - S_vals[0])) > 1e-8 * max(abs(S_vals[0]), 1.0):
        raise ValueError(
            "snapshots live on different domains (boundary still moving); "
            "pass a near-steady window")
    ts = np.array([s.t for s in states])
    r = states[0].r_grid
    data = {
        "w": np.stack([s.w for s in states]),
        "P": np.stack([s.P for s in states]),
        "rho": np.stack([s.varrho for s in states]),
        "theta": np.stack([s.Theta for s in states]),
    }
    return GridFieldSource([ts, r], data)
