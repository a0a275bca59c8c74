"""Field sources: evaluate model unknowns and their derivatives at a point.

A field source answers queries ``eval(component, point, d)`` where ``point``
is a coordinate tuple and ``d`` a derivative multi-index of the same length
(time order up to 2, total space order up to 2).  Sources are pure:
identical queries return identical values.

A point of floats gives a float.  A point whose coordinates are arrays
(an open mesh from ``np.meshgrid(..., sparse=True)``, say) gives values that
broadcast against them.  Every source answers every query at arrays, each
value equal to the float query at its node bit for bit: polynomials run
the same Horner steps, a grid query gathers the stencils of all its nodes
in one array operation and sums each node's terms in the same order, and
radial profiles are called element by element.

``sample_grid`` samples a whole grid with one array query per component.

A residual operator splits its point once per call: it validates the
coordinates, turns them into floats or float arrays, and passes that split
point to each of its queries.  The sources take it as it is, and its
exact-bits key (below) is computed once per call too.  Any other point,
a plain tuple included, is split by each query anew, so an array that its
caller changes in place between two calls is read afresh.

Purity lets the polynomial source answer a repeated query from memory: for
each (component, d) it keeps one value, that of its last query, with the
exact bits of the point it was computed at.  A symmetry check, which asks
the same base queries many times over, so runs each polynomial once per
distinct query.  Memory is bounded: one kept value per (component, d) ever
asked for, as large as that last answer.  A component is changed by
replacing its polynomial, never by editing its coefficient array in place,
which the derivative tables already assume.

Three families cover everything the solvers and tests need:

* polynomial sources with exact derivatives (manufactured fields),
* grid-backed sources with second-order centered stencils (one-sided
  second-order at edges, so refinement-ratio tests stay clean); ``fd1``
  and ``fd2`` are the same stencils over a whole array,
* radial-profile sources that embed closed-form radial solutions either on
  the (t, r) ring domain or as full Cartesian fields.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .polynomials import PolyTXY, _orders

__all__ = [
    "DerivativeUnavailableError",
    "FieldSource",
    "CARTESIAN_COMPONENTS",
    "PolyFieldSource",
    "GridFieldSource",
    "ProfileSource",
    "RadialCartesianSource",
    "sample_grid",
    "random_polynomial_field",
    "fd1",
    "fd2",
]

CARTESIAN_COMPONENTS = ("u1", "u2", "p", "rho", "thetaF", "c")


class DerivativeUnavailableError(ValueError):
    """A requested value or derivative cannot be produced by this source."""


class FieldSource(Protocol):
    """Evaluator contract shared by all field sources.

    ``point`` holds floats, or arrays (see the module docstring); the
    result is then an array, or a float where the value does not vary,
    that broadcasts against them.
    """

    def eval(self, component: str, point: Sequence[float | np.ndarray],
             d: Sequence[int] | None = None) -> float | np.ndarray:
        ...


_float_bits = struct.Struct("d").pack


def _point_key(point: tuple) -> tuple:
    """Exact-bits key of a split point: shape and bytes of each array, the
    bit pattern of each float, so -0.0 and 0.0 differ and a NaN matches."""
    return tuple([(v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                  else _float_bits(v) for v in point])


class _Point(tuple):
    """A split point: its coordinates as floats or float arrays.

    Only ``_split_point`` makes one.  A residual operator splits its point
    once and passes the result to every query, and the sources take it as
    it is; a plain tuple is split anew by every query.  ``key`` is its
    ``_point_key``, computed on first use and kept, which is sound because
    the point lives for one residual call and nothing changes its arrays
    meanwhile.
    """

    @functools.cached_property
    def key(self) -> tuple:
        return _point_key(self)


def _split_point(point: Sequence[float | np.ndarray], ndim: int) -> _Point:
    if type(point) is not _Point:
        point = _Point([v.astype(float, copy=False) if isinstance(v, np.ndarray)
                        else float(v) for v in point])
    if len(point) != ndim:
        raise DerivativeUnavailableError(
            f"expected a {ndim}-coordinate point, got {len(point)}")
    return point


@functools.lru_cache(maxsize=256)
def _multi_index(d: tuple | None, ndim: int) -> tuple[int, ...]:
    """``d`` as a checked tuple of ints; each distinct (d, ndim) is checked
    once, since a residual call asks the same few indices again and again."""
    checked = (0,) * ndim if d is None else _orders(d)
    if checked is None or len(checked) != ndim:
        raise DerivativeUnavailableError(f"bad derivative multi-index {d}")
    return checked


def _split_query(point: Sequence[float | np.ndarray], d: Sequence[int] | None,
                 ndim: int):
    return (_split_point(point, ndim),
            _multi_index(None if d is None else tuple(d), ndim))


class PolyFieldSource:
    """Components given by trivariate polynomials in (t, x, y), exactly.

    Each (component, d) keeps its derivative table and the value of its
    last query, keyed by that query's point (see ``_point_key``).  The same
    query again returns the kept value, a fresh copy for arrays, without
    running the polynomial.  So memory per (component, d) is one table, one
    value and the coordinates of one point; a ``sample_grid`` keeps one
    grid-sized array per component.  Both caches rely on components being
    replaced, ``components[name] = PolyTXY(...)``, never edited in place.
    """

    ndim = 3

    def __init__(self, components: Mapping[str, PolyTXY]) -> None:
        self.components = dict(components)
        # (component, d) -> [polynomial, its derivative, point key, value];
        # the polynomial is kept so that a replaced component is
        # differentiated and evaluated anew.
        self._derived: dict[tuple[str, tuple[int, ...]], list] = {}
        # Key of the last query's point: the entries at one point share one
        # key object, which keeps a source with many entries small.
        self._key: tuple | None = None

    def eval(self, component: str, point: Sequence[float | np.ndarray],
             d: Sequence[int] | None = None) -> float | np.ndarray:
        point, d = _split_query(point, d, self.ndim)
        poly = self.components[component]
        key = point.key
        if key == self._key:
            key = self._key
        self._key = key
        derived = self._derived.get((component, d))
        if derived is None or derived[0] is not poly:
            derived = self._derived[component, d] = [poly, poly.deriv(d), None, None]
        if derived[2] != key:
            derived[2:] = key, derived[1](*point)
        value = derived[3]
        return value.copy(order="K") if isinstance(value, np.ndarray) else value


# The one stencil definition, second order: order -> (c, interior terms,
# left-edge terms, right-edge terms mirroring the left).  A derivative is the
# sum of numerator * f[node + offset] over the terms (offset, numerator), in
# the listed order, divided by c * h**order.
_STENCILS = {1: (2.0, ((1, 1.0), (-1, -1.0)), ((0, -3.0), (1, 4.0), (2, -1.0))),
             2: (1.0, ((1, 1.0), (0, -2.0), (-1, 1.0)),
                 ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)))}
_STENCILS = {order: (c, interior, left, tuple((-o, (-1) ** order * num)
                                              for o, num in left))
             for order, (c, interior, left) in _STENCILS.items()}


def _combine(values, terms, at=0, stop=None):
    """Sum of numerator * values[at + offset] (or of the slice up to
    stop + offset) over the terms (offset, numerator), left to right.  The
    table's float numerators of 1 and -1 skip the multiply: same bits."""
    total = None
    for o, num in terms:
        value = values[at + o] if stop is None else values[at + o:stop + o]
        unit = type(num) is float and abs(num) == 1.0
        if total is None:
            total = value if unit and num > 0 else num * value
        elif unit:
            total = total + value if num > 0 else total - value
        else:
            total = total + num * value
    return total


def _fd(f: np.ndarray, h: float, order: int) -> np.ndarray:
    c, interior, left, right = _STENCILS[order]
    n = len(f)
    out = np.empty_like(f)
    out[1:-1] = _combine(f, interior, 1, n - 1)
    out[0] = _combine(f, left)
    out[-1] = _combine(f, right, n - 1)
    out /= c * h**order
    return out


def fd1(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative along axis 0, one-sided at the edges."""
    return _fd(f, h, 1)


def fd2(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order second derivative along axis 0, one-sided at the edges."""
    return _fd(f, h, 2)


@functools.lru_cache(maxsize=64)
def _stencil_rows(order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, n) node indices and numerators of the stencils of an n-node axis,
    term k in row k, padded to the edge length K by numerator-0 copies of
    their last node.  An axis shorter than K has interior stencils only."""
    _, interior, left, right = _STENCILS[order]
    size = len(left)
    terms = [interior] * n
    if n >= size:
        terms[0], terms[-1] = left, right
    offsets, nums = np.array([t + ((t[-1][0], 0.0),) * (size - len(t))
                              for t in terms]).T
    return np.clip(np.arange(n) + offsets, 0, n - 1).astype(np.intp), nums


class GridFieldSource:
    """Snapshot data on a uniform tensor grid, differentiated by stencils.

    Axes may be ``None`` to mark a direction the source is constant along
    (a static-in-time snapshot, for instance); per-component scalar data
    marks a spatially constant field.  Queries must hit grid nodes.  Each
    value is ``==`` to ``fd1`` and ``fd2`` applied along the differentiated
    axes from the last to the first; the other order agrees to rounding
    only.  A stencil padded to the edge length adds a term 0 * f[node], so
    a -0.0 may come out as +0.0, and an infinite value it reads gives NaN.
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
                if h == 0.0:
                    raise ValueError("grid axes must have nonzero spacing")
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

    def _locate(self, axis: int, value: float | np.ndarray) -> int | np.ndarray:
        """Node index of a coordinate, or an index array for an array of them.

        A value is on the grid if it rounds to a node within 1e-8 of the
        spacing (plus 1e-12 relative); a non-finite value never is.
        """
        ax = self.axes[axis]
        assert ax is not None
        h = self.spacings[axis]
        tol = 1e-8 * max(abs(h), 1e-30)
        if isinstance(value, np.ndarray):
            i = np.rint((value - ax[0]) / h) if ax.size > 1 else np.zeros(value.shape)
            on_grid = np.isfinite(value) & (i >= 0) & (i < ax.size)
            i = np.where(on_grid, i, 0).astype(int)
            on_grid &= np.abs(ax[i] - value) <= tol + 1e-12 * np.maximum(
                np.abs(value), 1.0)
            if np.all(on_grid):
                return i
            value = value[~on_grid][0]
        elif math.isfinite(value):
            # Python floats throughout: round() of a numpy float is slow.
            i = round((value - ax.item(0)) / h) if ax.size > 1 else 0
            if 0 <= i < ax.size and abs(ax.item(i) - value) <= tol + 1e-12 * max(
                    abs(value), 1.0):
                return i
        raise DerivativeUnavailableError(
            f"query {value} off the grid along axis {axis}")

    def eval(self, component: str, point: Sequence[float | np.ndarray],
             d: Sequence[int] | None = None) -> float | np.ndarray:
        point, d = _split_query(point, d, self.ndim)
        values = self.data[component]
        if isinstance(values, float) or any(
                order and ax is None for ax, order in zip(self.axes, d)):
            return 0.0 if any(d) else values
        nodes = [self._locate(axis, point[axis]) for axis in self._array_axes]
        lead = max([getattr(i, "ndim", 0) for i in nodes], default=0)
        # One gather: a differentiated axis puts the K nodes of its stencils
        # on a new leading dimension, ahead of those of the axes before it.
        index, weights = [], []
        for axis, i in zip(self._array_axes, nodes):
            order, n = d[axis], self.axes[axis].size
            if order:
                if order not in _STENCILS:
                    raise DerivativeUnavailableError(
                        f"derivative order {order} not supported")
                rows, nums = _stencil_rows(order, n)
                if n < len(rows) and not np.all((0 < i) & (i < n - 1)):
                    raise DerivativeUnavailableError(
                        f"axis {axis} has too few nodes for its edge stencils")
                weights.append((nums[:, i],
                                _STENCILS[order][0] * self.spacings[axis]**order))
                i = rows[:, i]
                i = i.reshape(i.shape[:1] + (1,) * (len(weights) + lead - i.ndim)
                              + i.shape[1:])
            index.append(i)
        block = values[tuple(index)]
        for nums, den in reversed(weights):
            block = _combine(block, enumerate(nums)) / den
        return block if isinstance(block, np.ndarray) else float(block)


_Profile = tuple[Callable[[float], float], Callable[[float], float],
                 Callable[[float], float]]


def _elementwise(f: Callable[[float], float], v: float | np.ndarray):
    """``f(v)``, or ``f`` called on each element when ``v`` is an array.

    Each element goes through the scalar callable as a Python float, so an
    array query rounds exactly like the float queries at its nodes.
    """
    if isinstance(v, np.ndarray):
        return np.array([f(e) for e in v.ravel().tolist()],
                        dtype=float).reshape(v.shape)
    return f(v)


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
        # Numpy scalars become floats here, so a query tells constants from
        # profile triples by type.
        self.profiles = {name: float(prof) if isinstance(prof, np.number)
                         else prof for name, prof in profiles.items()}
        self.ndim = ndim

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        prof = self.profiles[component]
        order_r = d[1]
        if sum(d) > order_r:
            return 0.0
        if isinstance(prof, (float, int)):
            return float(prof) if order_r == 0 else 0.0
        if order_r > 2:
            raise DerivativeUnavailableError(
                f"radial derivative order {order_r} not available")
        value = _elementwise(prof[order_r], point[1])
        return value if isinstance(value, np.ndarray) else float(value)


class RadialCartesianSource:
    """Cartesian embedding of a radially symmetric stationary state.

    Displacement is u = w(r) * (x/r, y/r), pressure p = P(r); density and
    porosity are constants and the concentration is zero.  All first and
    second space derivatives are exact via the chain rule; every time
    derivative vanishes.
    """

    ndim = 3

    def __init__(self, w: _Profile, P: _Profile,
                 rho: float = 1.0, thetaF: float = 0.5) -> None:
        self._w = w
        self._P = P
        self._const = {"rho": float(rho), "thetaF": float(thetaF), "c": 0.0}

    def eval(self, component: str, point: Sequence[float],
             d: Sequence[int] | None = None) -> float:
        point, d = _split_query(point, d, self.ndim)
        if component not in self._const and component not in ("p", "u1", "u2"):
            raise KeyError(component)
        nt, nx, ny = d
        if nx + ny > 2:
            raise DerivativeUnavailableError("space order above 2 not available")
        if nt > 0:
            return 0.0
        _, x, y = point
        r = np.hypot(x, y)
        if component in self._const:
            return self._const[component] if nx == ny == 0 else 0.0
        if np.any(r <= 0.0):
            raise DerivativeUnavailableError("radial embedding is singular at r = 0")
        r = r if isinstance(r, np.ndarray) else float(r)
        # Powers as products: an array ``**`` rounds unlike a float ``**``.
        r2 = r * r
        r3 = r2 * r
        if component == "p":
            P, dP, d2P = (_elementwise(f, r) for f in self._P)
            if (nx, ny) == (0, 0):
                return P
            if (nx, ny) == (1, 0):
                return dP * x / r
            if (nx, ny) == (0, 1):
                return dP * y / r
            if (nx, ny) == (2, 0):
                return d2P * (x * x) / r2 + dP * (1.0 / r - x * x / r3)
            if (nx, ny) == (0, 2):
                return d2P * (y * y) / r2 + dP * (1.0 / r - y * y / r3)
            return d2P * x * y / r2 - dP * x * y / r3
        # u1 = g(r) x with g = w/r; u2 mirrors with x and y swapped.
        w, dw, d2w = (_elementwise(f, r) for f in self._w)
        g = w / r
        dg = dw / r - w / r2
        d2g = d2w / r - 2.0 * dw / r2 + 2.0 * w / r3
        if component == "u2":
            x, y = y, x
            nx, ny = ny, nx
        if (nx, ny) == (0, 0):
            return g * x
        if (nx, ny) == (1, 0):
            return g + dg * (x * x) / r
        if (nx, ny) == (0, 1):
            return dg * x * y / r
        if (nx, ny) == (2, 0):
            x3 = x * x * x
            return d2g * x3 / r2 + dg * (3.0 * x / r - x3 / r3)
        if (nx, ny) == (0, 2):
            return d2g * x * (y * y) / r2 + dg * (x / r - x * (y * y) / r3)
        return dg * y / r + d2g * (x * x) * y / r2 - dg * (x * x) * y / r3


def sample_grid(source: FieldSource, axes: Sequence[np.ndarray | None],
                components: Sequence[str]) -> GridFieldSource:
    """Sample a source's values on a tensor grid (values only, no derivatives).

    ``None`` axes are passed through as constant directions; sampling then
    fixes that coordinate at 0.  Each component takes one array query on
    the open mesh of the grid.
    """
    array_axes = [np.asarray(ax, dtype=float) for ax in axes if ax is not None]
    shape = tuple(ax.size for ax in array_axes)
    mesh = iter(np.meshgrid(*array_axes, indexing="ij", sparse=True))
    point = tuple(0.0 if ax is None else next(mesh) for ax in axes)
    data = {name: np.broadcast_to(source.eval(name, point), shape).astype(float)
            for name in components}
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
