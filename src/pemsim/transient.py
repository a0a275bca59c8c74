"""Time integrator for the moving-boundary ring/annulus consolidation problem.

The radially symmetric system couples a volume balance (displacement rate
against pressure diffusion), radial momentum, and two transported
diagnostics (mixture density and porosity) on a domain whose outer radius
S(t) is unknown.  The free boundary is closed by solving, at every step,
the traction balance together with the kinematic condition w(S) = S - R0
for S; this is the only closure consistent with the stationary limit, where
the same pair of conditions produces the shrink-radius cubic.  Each step
finds S as a root of the scalar kinematic mismatch, at one banded (w, P)
solve per evaluation: a chord step with the slope of the previous step's
last secant pair, from the predicted boundary (or from the previous one
while the boundary is settled), then a secant iteration, with Brent's
method on a sign-change bracket as the last resort.

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

Time steps: backward Euler on the lattice config.dt * 2**k.  Steps stay at
config.dt until two steps into the load's final form, as at a run's start;
then each doubles or halves on a local error estimate that compares it with
the linear extrapolation of the step before (the Milne device), at no extra
solve.  The relaxation towards the stationary state is exponential, so the
steps grow across its tail until the estimate holds them (see simulate).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import (ModelParams, ParameterError, SimConfig, SimulationError,
                   lame_star)
from .fields import GridFieldSource, fd1
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
    "MAX_DT_HALVINGS",
    "MAX_DT_DOUBLINGS",
    "DT_ERROR_RATIO",
]

# A step that fails is retried at half the step size this many times before
# simulate gives up and raises.
MAX_DT_HALVINGS = 12

# Once the load is settled, a step may double up to this many times from
# config.dt, while its local error estimate stays within 0.45 * DT_ERROR_RATIO
# of its own increment; above DT_ERROR_RATIO it halves (see simulate).
MAX_DT_DOUBLINGS = 10
DT_ERROR_RATIO = 0.1


class PhysicalBoundsError(SimulationError):
    """Porosity or density left its physical range; carries the bad state."""

    def __init__(self, message: str, state: "RadialState"):
        super().__init__(message)
        self.state = state


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


# scipy's LAPACK wrappers (the scipy.linalg._flapack extension, or the
# scipy.linalg.lapack module that re-exports them), bound by the first
# solve_banded call.
_lapack = None


def _load_lapack():
    """scipy.linalg._flapack, loaded from its file without scipy.linalg.

    On a 2-vCPU machine the scipy.linalg package import takes about 0.2 s,
    and scipy with the extension alone about 15 ms.  A missing file or a
    failed load falls back to the package's lapack module, which wraps the
    same routines.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        spec = importlib.util.spec_from_file_location(name, stem + suffix)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:    # no such file, or not a loadable extension
            continue
        sys.modules[name] = module
        return module
    from scipy.linalg import lapack
    return lapack


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for the band matrix a stored as ``ab[u + i - j, j]``.

    A (1, 1) band is that (3, n) storage, read by dgtsv.  Any other band sits
    below l zero rows of dgbsv's Fortran-order workspace, which dgbsv factors
    in place.  Checks and results are scipy.linalg.solve_banded's, bit for bit.
    """
    global _lapack
    if _lapack is None:
        _lapack = _load_lapack()

    l, u = l_and_u
    if ab.shape != (3 if l == u == 1 else 2 * l + u + 1, len(b)):
        raise ValueError(f"band of shape {ab.shape} does not match "
                         f"(l, u) = {l_and_u} and len(b) = {len(b)}")
    # Counting finite entries costs less than .all() on arrays this small.
    finite_ab, finite_b = np.isfinite(ab), np.isfinite(b)
    if (np.count_nonzero(finite_ab) < finite_ab.size
            or np.count_nonzero(finite_b) < finite_b.size):
        raise ValueError("array must not contain infs or NaNs")
    if l == u == 1:
        _, _, _, x, info = _lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    else:
        _, _, x, info = _lapack.dgbsv(l, u, ab, b, overwrite_ab=True)
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
        self.ls = lame_star(params)
        # t sums its steps, so it meets a load time or t_end only to
        # rounding: a t within this slack of one is at it.
        self.slack = 1e-12 * config.t_end
        self._init_wp_buffers()
        # Previous-step data, set by simulate().  slope is dg/dS of the last
        # free-boundary secant pair (see solve_step); before the first it is
        # -1, the slope of g without the S-dependence of w.
        self.t, self.S, self.Sdot, self.slope = 0.0, params.R0, 0.0, -1.0
        self.P = np.full(N + 1, params.p_a)
        self.w, self.rho, self.theta, self.V, self.rho_t, self.e = (
            np.zeros(N + 1) for _ in range(6))

    def load_at(self, t: float) -> float:
        F0 = self.params.F0
        if t > self.config.load_end + self.slack:
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

    def _init_wp_buffers(self) -> None:
        """Allocate the value buffer of assemble_wp, its block views, the
        per-run constants and the scatter plan ``wp_plan``: once per run."""
        N, n = self.N, self.N - 1
        cols = 2 * (N + 1)
        self._rhs_at = 15 * cols   # the scatter output is lu, rhs, junk
        junk = self._rhs_at + cols
        self._bins = junk + 1
        i = np.arange(1, N)
        mom, vol = 2 * i, 2 * i + 1   # the two rows of interior node i

        def at(row, col, keep=True):
            return np.where(keep, 15 * col + 9 + row - col, junk)

        tail = [(2 * N - 1, 2 * N - 4), (2 * N - 1, 2 * N - 2),
                (2 * N - 1, 2 * N), (0, 0), (1, 1),
                *([(1, 3), (1, 5)] if self.geometry == "circle" else []),
                (2 * N, 2 * N - 4), (2 * N, 2 * N - 2), (2 * N, 2 * N),
                (2 * N + 1, 2 * N + 1)]
        self.wp_plan = np.concatenate([
            at(mom, mom - 2), at(mom, mom + 2),                  # L
            at(vol, vol - 2), at(vol, vol + 2),
            at(mom, mom),                                        # cw0
            at(mom, mom - 1), np.full(n, junk), at(mom, mom + 3),  # a
            at(vol, vol),                                        # vol_P
            at(vol, mom - 2), at(vol, mom), at(vol, mom + 2),    # a_dt
            at(vol, mom - 4, i > 1), at(vol, mom, i > 1),        # adv
            at(vol, mom - 2), at(vol, mom + 2),
            at(vol, mom, i < N - 1), at(vol, mom + 4, i < N - 1),
            np.tile(self._rhs_at + vol, 3),                      # rhs_v
            at(*np.array(tail).T)])                              # tail
        vals = self._wp_vals = np.empty(len(self.wp_plan))
        views, start = [], 0
        for shape in ((2, 2, n), (n,), (3, n), (n,), (3, n), (3, 2, n), (3, n)):
            views.append(vals[start:start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        (self._L, self._cw0, self._a, self._vol_P, self._a_dt, self._adv,
         self._rhs_v) = views
        self._tail = vals[start:]
        self._a_ends = self._a[0::2]              # the rows -c1, c1
        self._inner = i.astype(float)
        self._L_scale = np.array([[[-self.ls]], [[-(self.params.k / 2.0)]]])
        self._minus_plus = np.array([[-1.0], [1.0]])
        # Row s = -1, 0, 1 of a gather through _shift holds node i + s.
        self._shift = np.arange(3)[:, None] + np.arange(n)
        self._eta_shift = self.eta[self._shift]

    def assemble_wp(self, S: float, dt: float, t_new: float):
        """The (5, 4) band and right-hand side of the backward-Euler
        displacement/pressure system on the grid mapped to [r_in, S].

        Unknowns interleave as (w_0, P_0, w_1, P_1, ...); entry (row, col)
        lives at ``lu[9 + row - col, col]`` of dgbsv's (15, 2N+2) workspace.
        Interior node i = 1 .. N-1 owns the momentum row 2i and the
        volume-balance row 2i+1, and each of their stencil coefficients is
        computed for all n = N-1 nodes at once, as one row of a block of a
        value buffer allocated per run.  In buffer order, with c1 = 1/(2h)
        and a = (-c1, 1/r_i, c1) the weights of V_{i-1}, V_i, V_{i+1} in the
        volume row:

        - ``L`` (2, 2, n): -ls and -(k/2) times 1/h^2 -/+ 1/(2 h r_i), the
          momentum row at w_{i-1}, w_{i+1} and the volume row at P_{i-1},
          P_{i+1};
        - ``cw0`` (n): the momentum row at w_i;
        - ``a`` (3, n): its outer rows are the momentum row at P_{i-1},
          P_{i+1}; its 1/r_i row goes to a junk bin;
        - ``vol_P`` (n): the volume row at P_i;
        - ``a_dt`` (3, n): a/dt, the volume row at w_{i-1}, w_i, w_{i+1};
        - ``adv`` (3, 2, n): for s = -1, 0, 1, the advective part of
          V_{i+s} through its central D1 stencil, at w_{i+s-1} and
          w_{i+s+1}.  Node 0 (eta = 0) and node N (one-sided stencil,
          patched in the tail) have none, so the s = -1 row at i = 1 and the
          s = +1 row at i = N-1 go to the junk bin;
        - ``rhs_v`` (3, n): a*w^n_{i+s}/dt, the volume rows of the rhs;
        - ``tail``: the V_N patch of row 2N-1, then the boundary rows.

        One ``np.bincount`` through ``wp_plan`` (the flat position of each
        buffer value in lu, then rhs, then the junk bin) sums the buffer
        into lu and rhs.  bincount adds the values of a bin in buffer order,
        starting from 0.0, so the blocks may be laid out in any order except
        among values that share an entry.  That happens only in the volume
        rows, at w_{i-1}, w_i and w_{i+1} and in the rhs.  In each such group
        the first two values may swap, because addition commutes; the third,
        the s = +1 advective value at w_i, the V_N patch or the s = +1 rhs
        shift, must stay last, because addition does not associate; another
        order within a group can change the solution in its last bits.  The
        other rhs entries are written after the scatter, which would turn a
        -0.0 into 0.0.

        The boundary rows are scaled to the interior magnitude ls/h^2: unit
        Dirichlet rows would be pivoted below rows some 1e6 times larger,
        and the LU would leave up to about 1e-9 on them, which the pinned
        values turn into a step-to-step jump that reads as a rate above
        steady_tol.
        """
        p = self.params
        N = self.N
        h = (S - self.r_in) / N
        h2 = h**2
        Sdot = (S - self.S) / dt
        ls, a, a_ends = self.ls, self._a, self._a_ends
        c1 = 1.0 / (2.0 * h)
        ri = self.r_in + h * self._inner
        inv_2hr = 1.0 / (2.0 * h * ri)
        np.multiply(self._L_scale, 1.0 / h2 + self._minus_plus * inv_2hr,
                    out=self._L)
        np.multiply(-ls, -2.0 / h2 - 1.0 / ri**2, out=self._cw0)
        a[0].fill(-c1)
        np.divide(1.0, ri, out=a[1])
        a[2].fill(c1)
        self._vol_P.fill(-(p.k / 2.0) * (-2.0 / h2))
        np.divide(a, dt, out=self._a_dt)
        # A = -Sdot*eta, the advective factor inside the w_t operator.
        A = -Sdot * self._eta_shift
        np.multiply((a * A)[:, None], a_ends, out=self._adv)
        np.multiply(a, self.w[self._shift], out=self._rhs_v)
        self._rhs_v /= dt
        if not self.config.quasi_static:
            rho_i = self.rho[1:N]
            # Quadratic velocity products at the previous time level.
            Vn = self.V
            Qn = Vn[1:N] * (self.rho_t[1:N] + rho_i * fd1(Vn, h)[1:N]
                            + rho_i * Vn[1:N] / ri)
            self._cw0 += rho_i / dt**2
            self._L[0] += rho_i / dt * A[1] * a_ends
            rhs_mom = rho_i * self.w[1:N] / dt**2 + rho_i * Vn[1:N] / dt - Qn

        # V_N's one-sided D1 (c1*A[N] with eta[N] = 1), then the boundary
        # rows, Dirichlet ones weighted by d, derivative ones by 1/h.
        cN = c1 * -Sdot
        d = ls / h2
        inner_P = ((d,) if self.geometry == "annulus"            # P = p_a
                   else (-1.5 / h2, 2.0 / h2, -0.5 / h2))        # P_r = 0
        self._tail[:] = (
            cN * 0.5 / h, cN * (-2.0) / h, cN * 1.5 / h,  # V_N patch
            d, *inner_P,                                  # w = 0, P at r_in
            ls * 0.5 / h2, -ls * 2.0 / h2, (ls * 1.5 / h + p.lam / S) / h,
            d)                                  # traction; P(outer) = p_a

        out = np.bincount(self.wp_plan, self._wp_vals, self._bins)
        rhs = out[self._rhs_at:-1]
        if not self.config.quasi_static:
            rhs[2:2 * N:2] = rhs_mom
        if self.geometry == "annulus":
            rhs[1] = d * p.p_a
        rhs[2 * N] = self.traction_rhs(t_new, S) / h
        rhs[2 * N + 1] = d * p.p_a
        return out[:self._rhs_at].reshape(2 * (N + 1), 15).T, rhs

    def solve_wp(self, S: float, dt: float, t_new: float):
        """Solve the system of :meth:`assemble_wp`; returns (w, P)."""
        z = solve_banded((5, 4), *self.assemble_wp(S, dt, t_new))
        # pin the Dirichlet rows exactly (LU leaves rounding-level residue):
        # w_0 = 0, P_N = p_a, and P_0 = p_a on the annulus
        p_a = self.params.p_a
        z[0] = 0.0
        z[-1] = p_a
        if self.geometry == "annulus":
            z[1] = p_a
        return z[0::2], z[1::2]

    # ---- free-boundary scalar solve ---------------------------------------

    def solve_step(self, dt: float):
        """Advance one step of size dt; returns (S, w, P, slope, solves).

        The kinematic mismatch g(S) = w(S) - (S - R0) is smooth and
        decreasing in S and costs one (w, P) solve per evaluation.  The
        iteration starts at the predicted boundary S_n + Sdot_n*dt when
        that move shifts g by more than tol_g under the slope carried from
        the previous step, and at S_n otherwise, which keeps a settled
        boundary exactly at rest.  Its second point is the chord step from
        the first with that slope (-1 on a run's first step, which so steps
        from S_n to S_n + g(S_n)), and a secant iteration continues from
        there, accepting at |g| <= tol_g.  If |g| fails to halve, turns
        non-finite or the iterate leaves [s_min, s_max], Brent's method
        takes over on the tightest sign change seen so far, or on one found
        by expanding probes from the first point.  The slope returned is
        that of the last secant pair, or the carried one when the step ends
        without a pair; simulate carries it once it accepts the step.
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
            return float(cache[S][0][-1]) - (S - R0)

        def finish(S: float, slope: float = self.slope):
            w, P = cache[S]
            return S, w, P, slope, len(cache)

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

        slope, move = self.slope, self.Sdot * dt
        s0 = self.S
        if abs(move * slope) > tol_g:
            s0 += move
        g0 = g(s0)
        if abs(g0) <= tol_g:
            return finish(s0)

        s_prev, g_prev, s_next = s0, g0, s0 - g0 / slope
        while s_min <= s_next <= s_max:
            g_next = g(s_next)
            if abs(g_next) <= tol_g:
                return finish(s_next, (g_next - g_prev) / (s_next - s_prev))
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
    Porosity or density leaving their physical bounds aborts with the
    offending state attached.

    The load's last kink is ``load_end`` if it falls before t_end, else the
    end of ``load_ramp``; a time within rounding of a kink, of ``load_end``
    or of t_end is at it.  The run stops at t_end or at the first step that
    starts at or after the kink with every rate within ``steady_tol``, so a
    run steady before a release waits for it.

    Steps lie on the lattice ``config.dt * 2**k``, 0 <= k <=
    ``MAX_DT_DOUBLINGS``: ``config.dt`` is the smallest step the controller
    picks, not the largest.  The controller restarts at the kink as at the
    run's start: the first two steps of the run and of the final load,
    every step before the kink and the step after a halved retry take
    ``config.dt``, so no grown step crosses a kink and no estimate spans
    one.  After any other accepted step, the Milne estimate of its local
    error sets the next size.  Per variable y = w, P and S, with y_pred the
    linear extrapolation of the previous step, the ratio

        dt / (dt + dt_prev) * max|y_new - y_pred| / max|y_new - y_old|

    doubles the step when it is at most 0.45 * ``DT_ERROR_RATIO`` for every
    variable, halves it (never below ``config.dt``) when it exceeds
    ``DT_ERROR_RATIO`` for any, and keeps it otherwise; no step is rejected.
    The ratio is about lambda*dt/2 on a mode decaying at rate lambda, so
    "every rate <= steady_tol" stops a run at the same distance from steady
    state at any step size.  A step whose solve fails is retried at half its
    size, up to ``MAX_DT_HALVINGS`` times.  Only a last step that would
    overshoot t_end by more than rounding is cut short, and a step that ends
    within rounding of t_end ends at t = t_end exactly.
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
    slack = st.slack
    # The load is 0 after load_end, so a ramp ending later is no kink, and a
    # load_end at or after t_end is none either.
    kink = (config.load_end if config.load_end < config.t_end
            else config.load_ramp)
    step_index = doublings = 0
    prev = None    # the previous step's (dt, w, P, S increments), if settled
    # The ufunc reductions themselves: ndarray.max adds a Python layer.
    amax, fmin, fmax = np.maximum.reduce, np.fmin.reduce, np.fmax.reduce
    while st.t < config.t_end:
        settled = st.t >= kink - slack    # the step runs under the final load
        remaining = config.t_end - st.t
        h = config.dt * 2**doublings
        dt = h if remaining > h - slack else remaining
        halvings = 0
        while True:
            try:
                S_new, w_new, P_new, slope, _ = st.solve_step(dt)
                rho_new, theta_new, V_new, e_new = st.advance_transport(
                    S_new, dt, w_new)
                break
            except SimulationError:
                halvings += 1
                if halvings > MAX_DT_HALVINGS:
                    raise
                dt *= 0.5

        dw, dP, dS = w_new - st.w, P_new - st.P, S_new - st.S
        Sdot = dS / dt
        d_rho = rho_new - st.rho
        dP_max = amax(np.abs(dP))
        rates = {
            "w": float(amax(np.abs(V_new))),
            "P": float(dP_max / dt),
            "rho": float(amax(np.abs(d_rho)) / dt),
            "theta": float(amax(np.abs(theta_new - st.theta)) / dt),
            "S": abs(Sdot),
        }
        st.rho_t = d_rho / dt
        st.t = st.t + dt if remaining - dt > slack else config.t_end
        st.S, st.Sdot, st.slope, st.w, st.P = S_new, Sdot, slope, w_new, P_new
        st.V, st.e, st.rho, st.theta = V_new, e_new, rho_new, theta_new
        # fmin/fmax skip NaNs, as elementwise comparisons would.
        if (fmin(theta_new) <= 0.0 or fmax(theta_new) >= 1.0
                or fmin(rho_new) <= 0.0):
            raise PhysicalBoundsError(
                f"porosity/density left physical bounds at t={st.t}",
                _make_state(st, rates))

        step_index += 1
        stop = settled and max(rates.values()) <= config.steady_tol
        if (step_index % config.output_every == 0 or stop
                or st.t == config.t_end):
            out.append(_make_state(st, rates))
        if stop:
            break

        # The size of the next step, from the Milne estimate of this one.
        if halvings or prev is None:
            doublings = 0
        else:
            # Per variable, the gap between the step and the linear
            # extrapolation of the one before, over the step's increment.
            dt_prev, dw_prev, dP_prev, dS_prev = prev
            sizes = (amax(np.abs(dw)), dP_max, abs(dS))
            q, c = dt / dt_prev, dt / (dt + dt_prev)
            misses = (c * amax(np.abs(dw - q * dw_prev)),
                      c * amax(np.abs(dP - q * dP_prev)),
                      c * abs(dS - q * dS_prev))
            if any(m > DT_ERROR_RATIO * s for m, s in zip(misses, sizes)):
                doublings = max(doublings - 1, 0)
            elif all(m <= 0.45 * DT_ERROR_RATIO * s
                     for m, s in zip(misses, sizes)):
                doublings = min(doublings + 1, MAX_DT_DOUBLINGS)
        prev = (dt, dw, dP, dS) if settled else None
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
                       steady_tol: float) -> SteadyReport:
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
