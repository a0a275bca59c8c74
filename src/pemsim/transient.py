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
The boundary rows of the (w, P) band are written at the magnitude of the
interior stencil rows, so the pivoted band LU solves them to round-off of
the solution and the step rates fall to zero once the run is steady.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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
        for name in ("N", "output_every"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.N < 16:
            raise ValueError("N must be at least 16")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.steady_tol < math.inf:
            raise ValueError("steady_tol must be positive and finite")
        if not 0 <= self.load_ramp < math.inf:
            raise ValueError("load_ramp must be finite and >= 0")
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


_lapack = None  # scipy.linalg.lapack, bound by the first solve_banded call


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for the band matrix a stored as ``ab[u + i - j, j]``.

    The storage and the checks are those of scipy.linalg.solve_banded, and so
    is the LAPACK call, which keeps its results bit for bit: a (1, 1) band
    goes to dgtsv, any other to dgbsv on a copy of ab below l zero rows.  The
    inputs are not modified.  scipy is loaded by the first call.
    """
    global _lapack
    if _lapack is None:
        from scipy.linalg import lapack as _lapack

    l, u = l_and_u
    if ab.shape != (l + u + 1, len(b)):
        raise ValueError(f"band of shape {ab.shape} does not match "
                         f"(l, u) = {l_and_u} and len(b) = {len(b)}")
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if l == u == 1:
        _, _, _, x, info = _lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    else:
        lu = np.zeros((2 * l + u + 1, ab.shape[1]), order="F")
        lu[l:] = ab
        _, _, x, info = _lapack.dgbsv(l, u, lu, b, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK "
                         "gbsv/gtsv")
    return x


def brentq(f, a: float, b: float, **options) -> float:
    # Loads scipy on a stalled step only; the benchmark tracer wraps it.
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(f, a, b, **options)


class _Stepper:
    """Holds the per-run constants and previous-step arrays."""

    def __init__(self, params: ModelParams, config: SimConfig, geometry: str):
        if geometry not in ("circle", "annulus"):
            raise ValueError("geometry must be 'circle' or 'annulus'")
        self.params = params
        self.config = config
        self.geometry = geometry
        self.r_in = 0.0 if geometry == "circle" else params.r0
        N = self.N = config.N
        self.eta = np.linspace(0.0, 1.0, N + 1)
        self.nodes = np.arange(N + 1)
        self.ones = np.ones(N - 1)   # spreads a scalar along a diagonal
        self.ls = lame_star(params)
        # Scatter plan: the flat band position of each coefficient assemble_wp
        # lists, in its order.  Term (row, col, m, drow) covers the entries
        # (row + drow*j, col + 2j), j < m: down a diagonal or along one row.
        cols, n = 2 * (N + 1), N - 1
        terms = [(2, 0, n, 2), (2, 2, n, 2), (2, 4, n, 2), (2, 1, n, 2),
                 (2, 5, n, 2), (3, 1, n, 2), (3, 3, n, 2), (3, 5, n, 2),
                 (3, 0, n, 2), (5, 0, n - 1, 2), (5, 4, n - 1, 2),
                 (3, 2, n, 2), (3, 0, n, 2), (3, 4, n, 2),
                 (3, 4, n, 2), (3, 2, n - 1, 2), (3, 6, n - 1, 2),
                 (2 * N - 1, 2 * N - 4, 3, 0), (0, 0, 1, 0),
                 (1, 1, 1 if geometry == "annulus" else 3, 0),
                 (2 * N, 2 * N - 4, 3, 0), (2 * N + 1, 2 * N + 1, 1, 0)]
        self.wp_plan = np.concatenate([
            (4 + r - c) * cols + c + (2 + (dr - 2) * cols) * np.arange(m)
            for r, c, m, dr in terms])
        # Previous-step data, set by simulate().
        self.t, self.S, self.Sdot = 0.0, params.R0, 0.0
        self.P = np.full(N + 1, params.p_a)
        self.w, self.rho, self.theta, self.V, self.rho_t, self.e = (
            np.zeros(N + 1) for _ in range(6))

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

    def assemble_wp(self, S: float, dt: float, t_new: float):
        """The (5, 4) band ab and right-hand side of the backward-Euler
        displacement/pressure system on the grid mapped to [r_in, S].

        Unknowns interleave as (w_0, P_0, w_1, P_1, ...); entry (row, col)
        lives at ``ab[4 + row - col, col]``.  The stencil coefficients are
        listed term by term, and one scatter through ``wp_plan`` (their band
        positions in the same order, built once per run) sums them into ab:
        ``np.bincount`` adds in input order from 0.0, so an entry that several
        terms share is their sum in the order listed.  Reordering the terms,
        in the list and the plan alike, changes the solution in its last bits.

        The boundary rows are scaled to the interior magnitude ls/h^2: unit
        Dirichlet rows would be pivoted below rows some 1e6 times larger,
        and the LU would leave up to about 1e-9 on them, which the pinned
        values turn into a step-to-step jump that reads as a rate above
        steady_tol.
        """
        p = self.params
        N = self.N
        h = (S - self.r_in) / N
        Sdot = (S - self.S) / dt
        k, ls, lam = p.k, self.ls, p.lam
        rhs = np.zeros(2 * (N + 1))

        ri = self.r_in + h * self.nodes[1:N]   # interior nodes i = 1 .. N-1
        A = -Sdot * self.eta         # advective factor inside the w_t operator
        c1 = 1.0 / (2.0 * h)         # central D1 weight
        inv_2hr = 1.0 / (2.0 * h * ri)
        lap_m, lap_p = 1.0 / h**2 - inv_2hr, 1.0 / h**2 + inv_2hr  # D2 + D1/r

        # Momentum rows 2i: inertia + P_r - elastic = rhs.
        cw_m = -ls * lap_m
        cw_0 = -ls * (-2.0 / h**2 - 1.0 / ri**2)
        cw_p = -ls * lap_p
        if not self.config.quasi_static:
            rho_i = self.rho[1:N]
            # Quadratic velocity products at the previous time level.
            Vn = self.V
            Qn = Vn[1:N] * (self.rho_t[1:N] + rho_i * fd1(Vn, h)[1:N]
                            + rho_i * Vn[1:N] / ri)
            cw_0 = cw_0 + rho_i / dt**2
            cw_m = cw_m + rho_i / dt * A[1:N] * (-c1)
            cw_p = cw_p + rho_i / dt * A[1:N] * c1
            rhs[2:2 * N:2] = (rho_i * self.w[1:N] / dt**2 + rho_i * Vn[1:N] / dt
                              - Qn)
        # w_{i-1}, w_i, w_{i+1}, P_{i-1}, P_{i+1}
        vals = [cw_m, cw_0, cw_p, -c1 * self.ones, c1 * self.ones]

        # Volume-balance rows 2i+1:
        #   (D1 V)_i + V_i/r_i - (k/2)(D2 P + D1 P / r)_i = 0,
        # with V_j = (w_j - w^n_j)/dt - Sdot*eta_j*(D1 w)_j.
        vals += [-(k / 2.0) * lap_m, -(k / 2.0) * (-2.0 / h**2) * self.ones,
                 -(k / 2.0) * lap_p]
        for s, a in ((-1, -c1), (0, 1.0 / ri), (1, c1)):
            # w_j at node j = i + s, then the advective part of V_j through
            # its central D1 stencil at interior j only: eta[0] = 0, and the
            # outer node's one-sided stencil is patched below.
            lo, hi = max(0, -s), N - 1 - max(0, s)
            coef = a * A[1 + s + lo:1 + s + hi]
            vals += [a / dt * self.ones, coef * (-c1), coef * c1]
            rhs[3:2 * N:2] += a * self.w[1 + s:N + s] / dt

        # Row i = N-1 touches V_N, whose D1 stencil is one-sided; then the
        # boundary rows, Dirichlet ones weighted by d, derivative ones by 1/h.
        cN = c1 * A[N]
        d = ls / h**2
        inner_P = ((d,) if self.geometry == "annulus"             # P = p_a
                   else (-1.5 / h**2, 2.0 / h**2, -0.5 / h**2))  # P_r = 0
        vals.append(np.array([
            cN * 0.5 / h, cN * (-2.0) / h, cN * 1.5 / h,  # V_N patch
            d, *inner_P,                                  # w = 0, P at r_in
            ls * 0.5 / h**2, -ls * 2.0 / h**2, (ls * 1.5 / h + lam / S) / h,
            d]))                                # traction; P(outer) = p_a
        if self.geometry == "annulus":
            rhs[1] = d * p.p_a
        rhs[2 * N:] = self.traction_rhs(t_new, S) / h, d * p.p_a

        ab = np.bincount(self.wp_plan, np.concatenate(vals), 20 * (N + 1))
        return ab.reshape(10, 2 * (N + 1)), rhs

    def solve_wp(self, S: float, dt: float, t_new: float):
        """Solve the system of :meth:`assemble_wp`; returns (w, P)."""
        z = solve_banded((5, 4), *self.assemble_wp(S, dt, t_new))
        w_sol, P_sol = z[0::2], z[1::2]
        # pin the Dirichlet rows exactly (LU leaves rounding-level residue)
        w_sol[0] = 0.0
        if self.geometry == "annulus":
            P_sol[0] = self.params.p_a
        P_sol[-1] = self.params.p_a
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

    def advance_transport(self, S: float, dt: float, w: np.ndarray):
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
        w_r = fd1(w, h)
        V = (w - self.w) / dt - Sdot * self.eta * w_r
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

        # Dilatation w_r + w/r (2*w_r at r = 0), in place of the used w_r.
        r = self.r_in + h * self.nodes
        e_new = w_r
        if self.geometry == "circle":
            e_new[0] *= 2.0
            e_new[1:] += w[1:] / r[1:]
        else:
            e_new += w / r
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
    Every step starts at ``config.dt`` and is retried at half its size, up to
    ``MAX_DT_HALVINGS`` times, when its solve fails; no step size carries
    over to the next step.  Only a last step that would overshoot t_end by
    more than rounding is cut short, so a run whose t_end is a whole number
    of steps away takes full steps throughout and ends at t = t_end exactly.
    Porosity or density leaving their physical bounds aborts with the
    offending state attached.
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
    # t sums its steps, so it meets t_end only to rounding: a step that ends
    # within this slack of t_end is the last one and ends at t_end exactly.
    slack = 1e-12 * config.t_end
    step_index = 0
    while st.t < config.t_end:
        remaining = config.t_end - st.t
        dt = config.dt if remaining > config.dt - slack else remaining
        halvings = 0
        while True:
            try:
                S_new, w_new, P_new, _ = st.solve_step(dt)
                rho_new, theta_new, V_new, e_new = st.advance_transport(
                    S_new, dt, w_new)
                break
            except SimulationError:
                halvings += 1
                if halvings > MAX_DT_HALVINGS:
                    raise
                dt *= 0.5

        Sdot = (S_new - st.S) / dt
        rates = {
            "w": float(np.abs(V_new).max()),
            "P": float(np.abs(P_new - st.P).max() / dt),
            "rho": float(np.abs(rho_new - st.rho).max() / dt),
            "theta": float(np.abs(theta_new - st.theta).max() / dt),
            "S": abs(Sdot),
        }
        st.rho_t = (rho_new - st.rho) / dt
        st.t = st.t + dt if remaining - dt > slack else config.t_end
        st.S, st.Sdot, st.w, st.P = S_new, Sdot, w_new, P_new
        st.V, st.e, st.rho, st.theta = V_new, e_new, rho_new, theta_new
        if ((theta_new <= 0.0).any() or (theta_new >= 1.0).any()
                or (rho_new <= 0.0).any()):
            raise PhysicalBoundsError(
                f"porosity/density left physical bounds at t={st.t}",
                _make_state(st, rates))

        step_index += 1
        is_steady = max(rates.values()) <= config.steady_tol
        if (step_index % config.output_every == 0 or is_steady
                or st.t == config.t_end):
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
