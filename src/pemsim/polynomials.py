"""Small dense polynomial types with exact derivatives.

Used wherever the test oracles need closed-form fields: plane polynomials
for displacement-symmetry generators and trivariate polynomials in
(t, x, y) for manufactured smooth fields.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Poly2", "PolyTXY", "harmonic_basis", "random_harmonic"]


def _horner(rows: list, v, *rest):
    """Nested Horner in ``v`` (outermost) and ``rest`` over a reversed table.

    ``rows`` holds the table reversed along every axis as Python floats.
    Poly2 and PolyTXY keep the reversed view and convert it per call: held
    as Python floats, a 27-entry table would take about 1.7 kB, and field
    sources keep thousands of derivative tables alive.  An array query runs
    the same multiplies and adds at each element as a float query at that
    node, so the two round alike for every table shape; a single row still
    enters as ``0.0 * v + row``, for the broadcast shape.  The innermost
    level runs in line, with the same steps as a call would take, so a
    (3, 3, 3) table takes 4 calls, not 13.
    """
    acc = None
    if len(rest) == 1:
        (w,) = rest
        for row in rows:
            term = None
            for c in row:
                term = c if term is None else term * w + c
            if len(row) == 1:
                term = 0.0 * w + term
            acc = term if acc is None else acc * v + term
    else:
        for row in rows:
            term = _horner(row, *rest) if rest else row
            acc = term if acc is None else acc * v + term
    return acc if len(rows) > 1 else 0.0 * v + acc


def _orders(orders) -> tuple[int, ...] | None:
    """``orders`` as ints, or None unless each equals a non-negative integer."""
    try:
        ints = tuple([int(v) for v in orders])
    except (TypeError, ValueError, OverflowError):   # "a", [1, 2], nan, inf
        return None
    return ints if ints == tuple(orders) and min(ints, default=0) >= 0 else None


def _deriv_table(coeffs: np.ndarray, orders) -> np.ndarray:
    """Coefficient table of the derivative of the given order along each axis."""
    c = coeffs
    checked = _orders(orders)
    if checked is None:
        raise ValueError(f"derivative orders {orders} are not non-negative "
                         "integers")
    for axis, order in enumerate(checked):
        for _ in range(order):   # one factor per pass, rounded after each
            n = c.shape[axis]
            if n <= 1:
                return np.zeros((1,) * c.ndim)
            shape = [1] * c.ndim
            shape[axis] = n - 1
            c = c[(slice(None),) * axis + (slice(1, None),)] * np.arange(
                1, n).reshape(shape)
    return c


class Poly2:
    """Polynomial in two plane variables, coefficient table c[i, j] * x^i * y^j."""

    def __init__(self, coeffs) -> None:
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self._reversed = self.coeffs[::-1, ::-1]   # a view, see _horner

    @classmethod
    def zero(cls) -> "Poly2":
        return cls([[0.0]])

    def __call__(self, x, y):
        # Horner in y inside Horner in x; floats or coordinate arrays.
        return _horner(self._reversed.tolist(), x, y)

    def deriv(self, nx: int = 0, ny: int = 0) -> "Poly2":
        return Poly2(_deriv_table(self.coeffs, (nx, ny)))

    def eval_deriv(self, x: float, y: float, nx: int = 0, ny: int = 0) -> float:
        return self.deriv(nx, ny)(x, y)

    def laplacian(self) -> "Poly2":
        return self.deriv(2, 0) + self.deriv(0, 2)

    def is_zero(self, tol: float = 0.0) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return bool(np.all(np.abs(self.coeffs) <= tol * scale))

    def __add__(self, other: "Poly2") -> "Poly2":
        a, b = self.coeffs, other.coeffs
        ni = max(a.shape[0], b.shape[0])
        nj = max(a.shape[1], b.shape[1])
        out = np.zeros((ni, nj))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "Poly2":
        return Poly2(self.coeffs * scalar)

    __rmul__ = __mul__


class PolyTXY:
    """Polynomial in (t, x, y), coefficient table c[i, j, k] * t^i * x^j * y^k."""

    def __init__(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=float)
        while c.ndim < 3:
            c = c[None, ...]
        self.coeffs = c
        self._reversed = c[::-1, ::-1, ::-1]   # a view, see _horner

    @classmethod
    def constant(cls, value: float) -> "PolyTXY":
        return cls(np.full((1, 1, 1), float(value)))

    def deriv(self, d: tuple[int, int, int]) -> "PolyTXY":
        return PolyTXY(_deriv_table(self.coeffs, d))

    def __call__(self, t, x, y):
        """Value at a point of floats, or broadcast over coordinate arrays."""
        return _horner(self._reversed.tolist(), t, x, y)


def harmonic_basis(degree: int) -> list[Poly2]:
    """Plane harmonic polynomial basis up to the given degree.

    Returns Re((x+iy)^n) and Im((x+iy)^n) for n = 1..degree; each has an
    identically vanishing Laplacian (the coefficient cancellation is exact
    for the binomial coefficients involved).
    """
    basis: list[Poly2] = []
    for n in range(1, degree + 1):
        re = np.zeros((n + 1, n + 1))
        im = np.zeros((n + 1, n + 1))
        # (x + iy)^n = sum_m C(n,m) x^(n-m) (iy)^m
        from math import comb

        for m in range(n + 1):
            coef = comb(n, m)
            i_pow = m % 4
            if i_pow == 0:
                re[n - m, m] = coef
            elif i_pow == 1:
                im[n - m, m] = coef
            elif i_pow == 2:
                re[n - m, m] = -coef
            else:
                im[n - m, m] = -coef
        basis.append(Poly2(re))
        basis.append(Poly2(im))
    return basis


def random_harmonic(rng: np.random.Generator, degree: int) -> Poly2:
    """Random linear combination of plane harmonics up to the given degree."""
    basis = harmonic_basis(degree)
    acc = Poly2.zero()
    for b in basis:
        acc = acc + b * float(rng.uniform(-1.0, 1.0))
    return acc
