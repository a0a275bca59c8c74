"""Field sources: evaluate model unknowns and their derivatives at a point.

A field source answers queries ``eval(component, point, d)`` where ``point``
is a coordinate tuple and ``d`` a derivative multi-index of the same length
(time order up to 2, total space order up to 2).  Sources are pure:
identical queries return identical values.

Three families cover everything the solvers and tests need:

* polynomial sources with exact derivatives (manufactured fields),
* grid-backed sources with second-order centered stencils (one-sided
  second-order at edges, so refinement-ratio tests stay clean),
* radial-profile sources that embed closed-form radial solutions either on
  the (t, r) ring domain or as full Cartesian fields.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .polynomials import PolyTXY

__all__ = [
    "DerivativeUnavailableError",
    "FieldSource",
    "CARTESIAN_COMPONENTS",
    "POLAR_COMPONENTS",
    "RING_COMPONENTS",
    "PolyFieldSource",
    "GridFieldSource",
    "ProfileSource",
    "RadialCartesianSource",
    "sample_grid",
    "random_polynomial_field",
]

CARTESIAN_COMPONENTS = ("u1", "u2", "p", "rho", "thetaF", "c")
POLAR_COMPONENTS = ("w1", "w2", "P", "rho", "theta", "C")
RING_COMPONENTS = ("w", "P", "rho", "theta")


class DerivativeUnavailableError(ValueError):
    """A requested value or derivative cannot be produced by this source."""


class FieldSource(Protocol):
    """Evaluator contract shared by all field sources."""

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        ...


def _split_query(point: Sequence[float], d: Sequence[int] | None, ndim: int):
    point = tuple(float(v) for v in point)
    if len(point) != ndim:
        raise DerivativeUnavailableError(
            f"expected a {ndim}-coordinate point, got {len(point)}")
    if d is None:
        d = (0,) * ndim
    d = tuple(int(v) for v in d)
    if len(d) != ndim or any(v < 0 for v in d):
        raise DerivativeUnavailableError(f"bad derivative multi-index {d}")
    return point, d


class PolyFieldSource:
    """Components given by trivariate polynomials in (t, x, y), exactly."""

    ndim = 3

    def __init__(self, components: Mapping[str, PolyTXY]) -> None:
        self.components = dict(components)

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        return self.components[component].deriv(d)(*point)


def _stencil(order: int, i: int, n: int, h: float) -> tuple[list[int], list[float]]:
    """1D finite-difference stencil of the given order at node i of n.

    Centered second-order stencils in the interior; one-sided second-order
    at the edges.
    """
    if order == 0:
        return [i], [1.0]
    if order == 1:
        if 1 <= i <= n - 2:
            return [i - 1, i + 1], [-0.5 / h, 0.5 / h]
        if n < 3:
            raise DerivativeUnavailableError("grid too short for first derivative")
        if i == 0:
            return [0, 1, 2], [-1.5 / h, 2.0 / h, -0.5 / h]
        return [n - 3, n - 2, n - 1], [0.5 / h, -2.0 / h, 1.5 / h]
    if order == 2:
        if 1 <= i <= n - 2:
            return [i - 1, i, i + 1], [1.0 / h**2, -2.0 / h**2, 1.0 / h**2]
        if n < 4:
            raise DerivativeUnavailableError("grid too short for second derivative")
        w = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
        if i == 0:
            return [0, 1, 2, 3], list(w)
        return [n - 4, n - 3, n - 2, n - 1], list(w[::-1])
    raise DerivativeUnavailableError(f"derivative order {order} not supported")


class GridFieldSource:
    """Snapshot data on a uniform tensor grid, differentiated by stencils.

    Axes may be ``None`` to mark a direction the source is constant along
    (a static-in-time snapshot, for instance); per-component scalar data
    marks a spatially constant field.  Queries must hit grid nodes; mixed
    partials are compositions of the same 1D stencils and therefore commute
    exactly.
    """

    def __init__(self, axes: Sequence[np.ndarray | None],
                 data: Mapping[str, np.ndarray | float]) -> None:
        self.axes: list[np.ndarray | None] = []
        self.spacings: list[float] = []
        for ax in axes:
            if ax is None:
                self.axes.append(None)
                self.spacings.append(0.0)
                continue
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 1:
                raise ValueError("grid axes must be 1D arrays")
            if ax.size > 1:
                h = ax[1] - ax[0]
                if not np.allclose(np.diff(ax), h, rtol=1e-9, atol=1e-12 * abs(h)):
                    raise ValueError("grid axes must be uniformly spaced")
            else:
                h = 0.0
            self.axes.append(ax)
            self.spacings.append(float(h))
        self.ndim = len(self.axes)
        self._array_axes = [k for k, ax in enumerate(self.axes) if ax is not None]
        shape = tuple(self.axes[k].size for k in self._array_axes)
        self.data: dict[str, np.ndarray | float] = {}
        for name, values in data.items():
            if np.isscalar(values):
                self.data[name] = float(values)
            else:
                arr = np.asarray(values, dtype=float)
                if arr.shape != shape:
                    raise ValueError(
                        f"component '{name}' has shape {arr.shape}, grid wants {shape}")
                self.data[name] = arr

    def _locate(self, axis: int, value: float) -> int:
        ax = self.axes[axis]
        assert ax is not None
        if ax.size == 1:
            i = 0
        else:
            h = self.spacings[axis]
            i = int(round((value - ax[0]) / h))
        if i < 0 or i >= ax.size or abs(ax[i] - value) > 1e-8 * max(
                self.spacings[axis], 1e-30) + 1e-12 * max(abs(value), 1.0):
            raise DerivativeUnavailableError(
                f"query {value} off the grid along axis {axis}")
        return i

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        values = self.data[component]
        if isinstance(values, float):
            return values if all(v == 0 for v in d) else 0.0
        idx_lists: list[list[int]] = []
        weight_lists: list[np.ndarray] = []
        for axis in range(self.ndim):
            ax = self.axes[axis]
            if ax is None:
                if d[axis] > 0:
                    return 0.0
                continue
            i = self._locate(axis, point[axis])
            if d[axis] > 0 and ax.size == 1:
                raise DerivativeUnavailableError(
                    f"axis {axis} has a single node, no derivative available")
            idx, w = _stencil(d[axis], i, ax.size, self.spacings[axis])
            idx_lists.append(idx)
            weight_lists.append(np.asarray(w))
        block = values[np.ix_(*idx_lists)]
        for w in reversed(weight_lists):
            block = block @ w if block.ndim > 1 else float(np.dot(block, w))
        return float(block)


_Profile = tuple[Callable[[float], float], Callable[[float], float],
                 Callable[[float], float]]


class ProfileSource:
    """Static fields varying only along r, the second query coordinate.

    Queries carry (t, r) on the ring domain (``ndim=2``) or (t, r, phi) on
    the polar domain (``ndim=3``).  Each component is a triple of callables
    (value, first, second derivative in r).  Scalars are accepted as
    constants.  Derivatives along time and angle are zero, which embeds
    stationary radial solutions on either domain.
    """

    def __init__(self, profiles: Mapping[str, _Profile | float],
                 ndim: int = 2) -> None:
        self.profiles = dict(profiles)
        self.ndim = ndim

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        prof = self.profiles[component]
        order_r = d[1]
        if sum(d) > order_r:
            return 0.0
        if np.isscalar(prof):
            return float(prof) if order_r == 0 else 0.0
        if order_r > 2:
            raise DerivativeUnavailableError(
                f"radial derivative order {order_r} not available")
        return float(prof[order_r](point[1]))


class RadialCartesianSource:
    """Cartesian embedding of a radially symmetric stationary state.

    Displacement is u = w(r) * (x/r, y/r), pressure p = P(r); density,
    porosity and concentration are constants (concentration defaults to
    zero).  All first and second space derivatives are exact via the chain
    rule; every time derivative vanishes.
    """

    ndim = 3

    def __init__(self, w: _Profile, P: _Profile,
                 rho: float = 1.0, thetaF: float = 0.5, c: float = 0.0) -> None:
        self._w = w
        self._P = P
        self._const = {"rho": float(rho), "thetaF": float(thetaF), "c": float(c)}

    def _g(self, r: float) -> tuple[float, float, float]:
        # g = w/r and its first two derivatives.
        w, dw, d2w = (f(r) for f in self._w)
        g = w / r
        dg = dw / r - w / r**2
        d2g = d2w / r - 2.0 * dw / r**2 + 2.0 * w / r**3
        return g, dg, d2g

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        nt, nx, ny = d
        if nx + ny > 2:
            raise DerivativeUnavailableError("space order above 2 not available")
        if nt > 0:
            return 0.0
        _, x, y = point
        r = float(np.hypot(x, y))
        if component in self._const:
            return self._const[component] if nx == ny == 0 else 0.0
        if r <= 0.0:
            raise DerivativeUnavailableError("radial embedding is singular at r = 0")
        if component == "p":
            P, dP, d2P = (f(r) for f in self._P)
            if (nx, ny) == (0, 0):
                return P
            if (nx, ny) == (1, 0):
                return dP * x / r
            if (nx, ny) == (0, 1):
                return dP * y / r
            if (nx, ny) == (2, 0):
                return d2P * x**2 / r**2 + dP * (1.0 / r - x**2 / r**3)
            if (nx, ny) == (0, 2):
                return d2P * y**2 / r**2 + dP * (1.0 / r - y**2 / r**3)
            return d2P * x * y / r**2 - dP * x * y / r**3
        if component not in ("u1", "u2"):
            raise KeyError(component)
        g, dg, d2g = self._g(r)
        # u1 = g(r) x; u2 mirrors with x and y swapped.
        if component == "u2":
            x, y = y, x
            nx, ny = ny, nx
        if (nx, ny) == (0, 0):
            return g * x
        if (nx, ny) == (1, 0):
            return g + dg * x**2 / r
        if (nx, ny) == (0, 1):
            return dg * x * y / r
        if (nx, ny) == (2, 0):
            return d2g * x**3 / r**2 + dg * (3.0 * x / r - x**3 / r**3)
        if (nx, ny) == (0, 2):
            return d2g * x * y**2 / r**2 + dg * (x / r - x * y**2 / r**3)
        return dg * y / r + d2g * x**2 * y / r**2 - dg * x**2 * y / r**3


def sample_grid(source: FieldSource, axes: Sequence[np.ndarray | None],
                components: Sequence[str]) -> GridFieldSource:
    """Sample a source's values on a tensor grid (values only, no derivatives).

    ``None`` axes are passed through as constant directions; sampling then
    fixes that coordinate at 0.
    """
    array_axes = [np.asarray(ax, dtype=float) for ax in axes if ax is not None]
    shape = tuple(ax.size for ax in array_axes)
    data: dict[str, np.ndarray] = {name: np.empty(shape) for name in components}
    for flat in np.ndindex(*shape):
        point = []
        k = 0
        for ax in axes:
            if ax is None:
                point.append(0.0)
            else:
                point.append(array_axes[k][flat[k]])
                k += 1
        for name in components:
            data[name][flat] = source.eval(name, point)
    return GridFieldSource(axes, data)


def random_polynomial_field(rng: np.random.Generator, degree: int = 2,
                            time_degree: int = 2,
                            scale: float = 1.0) -> PolyFieldSource:
    """Random smooth polynomial field over the six Cartesian components."""
    out: dict[str, PolyTXY] = {}
    for name in CARTESIAN_COMPONENTS:
        coeffs = scale * rng.uniform(-1.0, 1.0,
                                     size=(time_degree + 1, degree + 1, degree + 1))
        out[name] = PolyTXY(coeffs)
    return PolyFieldSource(out)
