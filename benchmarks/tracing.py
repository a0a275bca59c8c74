"""In-process tracer for the pemsim benchmark.

The tracer swaps pemsim's public functions, the field-source ``eval``
methods and the scipy entry points that ``pemsim.transient`` calls for
timing wrappers.  It does so in the benchmark's own process only, while a
traced pass runs; no file of the package changes.  The benchmark calls
every layer through its module attribute (``transient.simulate``, not a
name imported beforehand), so its calls pass through the wrappers too.

Every wrapped boundary adds to an aggregate of call count, busy time and
self time.  Self time is the call's duration minus the time of the wrapped
calls it made, so the self times of all boundaries partition the traced
time.  Low-frequency boundaries also record one span per call, with the
item id and the enclosing span.  Everything stays in memory until the run
writes it out.
"""

from __future__ import annotations

import time

# Boundaries that record a span per call; all others are aggregated only.
SPAN_NAMES = ("simulate", "steady_state_check", "rst_cubic", "rst_dirichlet",
              "check_invariance", "sample_grid", "residual_cartesian",
              "residual_ring")

_FIELD_KINDS = {"PolyFieldSource": "poly", "GridFieldSource": "grid",
                "ProfileSource": "profile", "RadialCartesianSource": "radial",
                "TransformedFieldSource": "transformed"}


def _field_kind(field, *args, **kwargs) -> str:
    return _FIELD_KINDS.get(type(field).__name__, "other")


def _band_kind(l_and_u, *args, **kwargs) -> str:
    return "wp" if tuple(l_and_u) == (5, 4) else "transport"


def _grid_nodes(source, axes, *args, **kwargs) -> int:
    nodes = 1
    for ax in axes:
        if ax is not None:
            nodes *= len(ax)
    return nodes


class Tracer:
    """Timing wrappers plus the spans and aggregates they fill."""

    def __init__(self) -> None:
        self.item: str | None = None
        self.spans: list[tuple] = []     # (id, parent, item, name, start, end)
        self.stats: dict[str, list] = {}  # label -> [count, busy_s, self_s]
        self.sizes: dict[str, int] = {}  # label -> summed work size
        self._stack: list[list] = []     # [label, child_s] per active call
        self._span_stack: list[int] = []
        self._inside: dict[str, int] = {}
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def reset_stats(self) -> None:
        self.stats = {}
        self.sizes = {}

    def counts(self) -> dict[str, int]:
        return {label: st[0] for label, st in self.stats.items()}

    # ---- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, key=None, size=None, inside: str | None = None):
        """Return a timing wrapper around ``fn``.

        ``key`` refines the label from the call's arguments, ``size`` adds a
        work size to ``sizes``, and ``inside`` labels calls made while a
        call of that boundary is active as ``name@inside``.
        """
        clock = time.perf_counter
        stack = self._stack
        span = name in SPAN_NAMES

        def wrapper(*args, **kwargs):
            label = name if key is None else f"{name}.{key(*args, **kwargs)}"
            if inside is not None and self._inside.get(inside):
                label = f"{name}@{inside}"
            span_id = None
            if span:
                span_id = self._next_id
                self._next_id += 1
                self._span_stack.append(span_id)
                self._inside[name] = self._inside.get(name, 0) + 1
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st = self.stats.get(label)
                if st is None:
                    st = self.stats[label] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                if size is not None:
                    self.sizes[label] = self.sizes.get(label, 0) + size(*args, **kwargs)
                if span:
                    self._inside[name] -= 1
                    self._span_stack.pop()
                    parent = self._span_stack[-1] if self._span_stack else None
                    self.spans.append((span_id, parent, self.item, label,
                                       start - self._origin, end - self._origin))

        return wrapper

    def _patch(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def install(self) -> None:
        """Wrap every traced boundary; undone by :meth:`uninstall`."""
        from pemsim import fields, polynomials, stationary, symmetry, transient
        from pemsim import residuals

        if self._patches:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(transient, "simulate", "simulate")
        p(transient, "steady_state_check", "steady_state_check")
        p(transient, "solve_banded", "solve_banded", key=_band_kind)
        p(transient, "brentq", "brentq")
        p(stationary, "rst_cubic", "rst_cubic")
        p(stationary, "rst_dirichlet", "rst_dirichlet")
        p(stationary, "dirichlet_solution", "dirichlet_solution",
          inside="rst_dirichlet")
        p(stationary, "bisect_root", "bisect_root")
        p(fields, "sample_grid", "sample_grid", size=_grid_nodes)
        for cls in (fields.PolyFieldSource, fields.GridFieldSource,
                    fields.ProfileSource, fields.RadialCartesianSource,
                    symmetry.TransformedFieldSource):
            p(cls, "eval", f"eval.{_FIELD_KINDS[cls.__name__]}")
        p(polynomials.PolyTXY, "deriv", "deriv")
        # pemsim.symmetry holds its own references to the Cartesian operators.
        for module in (residuals, symmetry):
            for attr in ("residual_cartesian_iso", "residual_cartesian_aniso"):
                p(module, attr, "residual_cartesian", key=_field_kind)
        p(residuals, "residual_ring", "residual_ring")
        p(symmetry, "check_invariance", "check_invariance")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _busy(stats, label: str) -> float:
    return stats[label][1] if label in stats else 0.0


def _count(stats, label: str) -> int:
    return stats[label][0] if label in stats else 0


def _per_call(stats, label: str, scale: float) -> float:
    n = _count(stats, label)
    return scale * _busy(stats, label) / n if n else 0.0


def layer_metrics(stats: dict[str, list], sizes: dict[str, int],
                  final_rate: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer is not called)."""
    m: dict[str, float] = {}
    simulate_s = _busy(stats, "simulate")
    wp_lu = _busy(stats, "solve_banded.wp")
    transport_lu = _busy(stats, "solve_banded.transport")
    steps = _count(stats, "solve_banded.transport") // 2
    wp_solves = _count(stats, "solve_banded.wp")
    m["transient.simulate_s"] = simulate_s
    m["transient.self_s"] = simulate_s - wp_lu - transport_lu if simulate_s else 0.0
    m["transient.steps"] = steps
    m["transient.wp_solves"] = wp_solves
    m["transient.wp_solves_per_step"] = wp_solves / steps if steps else 0.0
    m["transient.wp_lu_s"] = wp_lu
    m["transient.transport_lu_s"] = transport_lu
    m["transient.brent_calls"] = _count(stats, "brentq")
    m["transient.final_rate"] = final_rate
    m["transient.steady_check_s"] = _busy(stats, "steady_state_check")

    n_dirichlet = _count(stats, "rst_dirichlet")
    m["stationary.rst_cubic_us"] = _per_call(stats, "rst_cubic", 1e6)
    m["stationary.rst_dirichlet_ms"] = _per_call(stats, "rst_dirichlet", 1e3)
    m["stationary.dirichlet_evals_per_root"] = (
        _count(stats, "dirichlet_solution@rst_dirichlet") / n_dirichlet
        if n_dirichlet else 0.0)
    m["stationary.bisect_calls"] = _count(stats, "bisect_root")

    for kind in ("poly", "grid", "profile", "radial"):
        m[f"fields.eval_calls.{kind}"] = _count(stats, f"eval.{kind}")
    for kind in ("poly", "grid", "profile", "radial"):
        m[f"fields.eval_s.{kind}"] = _busy(stats, f"eval.{kind}")
    grid_s = _busy(stats, "sample_grid")
    m["fields.sample_grid_nodes_per_s"] = (
        sizes.get("sample_grid", 0) / grid_s if grid_s else 0.0)
    m["polynomials.deriv_calls"] = _count(stats, "deriv")
    m["polynomials.deriv_s"] = _busy(stats, "deriv")

    for kind in ("poly", "grid", "radial", "transformed"):
        m[f"residuals.cartesian_us_per_point.{kind}"] = _per_call(
            stats, f"residual_cartesian.{kind}", 1e6)
    m["residuals.ring_us_per_point"] = _per_call(stats, "residual_ring", 1e6)
    m["residuals.self_s"] = sum(st[2] for label, st in stats.items()
                                if label.startswith("residual_"))

    m["symmetry.check_invariance_ms"] = _per_call(stats, "check_invariance", 1e3)
    m["symmetry.transformed_eval_calls"] = _count(stats, "eval.transformed")
    m["symmetry.self_s"] = (stats.get("check_invariance", [0, 0.0, 0.0])[2]
                            + stats.get("eval.transformed", [0, 0.0, 0.0])[2])
    return m
