"""Command-line front end: config parsing, subcommands, CSV/SVG output.

Configuration is a flat ``key = value`` text file with ``#`` comments; every
key can be overridden by a command-line flag of the same name (dashed
aliases exist for multi-word keys).  The model and simulation keys are the
field names of ``ModelParams`` and ``SimConfig``, with their defaults apart
from the load F0 = 16*pi.  Unknown keys are rejected.  All output
is deterministic: numbers serialize in 17-significant-digit scientific
notation, rows come in a fixed order, and plots are hand-emitted SVG.

Exit status: 0 success, 2 configuration error, 3 solver error, 4 no
admissible root.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import ModelParams, ParameterError, SimConfig, SimulationError
from .stationary import (NoRootError, bisect_root, dirichlet_solution,
                         neumann_solution, rst_cubic, rst_dirichlet)

# Each command imports the rest of the library it needs when it runs, so a
# cold start compiles and executes only those modules.
if TYPE_CHECKING:
    from .symmetry import GroupElement

__all__ = ["main", "ConfigError", "RunConfig"]


class ConfigError(ValueError):
    """Unusable configuration (unknown key, bad value, missing input)."""


# Model keys are the ModelParams fields and simulation keys the SimConfig
# fields, with their defaults; only the load differs from the reference set.
_MODEL_DEFAULTS = asdict(ModelParams.reference(F0=16.0 * math.pi))
_SIM_DEFAULTS = {f.name: f.default for f in fields(SimConfig)}
_CHOICES = {"case": ("dirichlet", "neumann"), "geometry": ("circle", "annulus"),
            "field": ("stationary", "polynomial")}

DEFAULTS: dict[str, object] = {
    **_MODEL_DEFAULTS,
    **_SIM_DEFAULTS,
    # run options; r_st is "auto" or a number, elements a comma-separated
    # list of group element names
    "case": "neumann", "geometry": "annulus", "out": "out",
    "samples": 101, "svg": False, "r_st": "auto", "seed": 1234,
    "tol": 1e-12,
    "elements": "pressure-shift,displacement-shift,concentration-scaling,rotation",
    "field": "stationary",
    "sweep_key": "F0", "sweep_values": [],
    # the default load compresses hard; only a highly porous initial state
    # stays physical all the way to steady state
    "rho0": 1.0, "theta0": 0.9999,
}

_ALIASES = {"lambda": "lam"}


def _coerce(key: str, value: str) -> object:
    """Parse one raw value by the type of the key's default."""
    kind = type(DEFAULTS[key])
    text = value.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "on", "1", "yes"):
                return True
            if low in ("false", "off", "0", "no"):
                return False
            raise ValueError
        if kind is int:
            try:
                return int(text)
            except ValueError:   # a whole number written as "16.0" or "1e3"
                as_float = float(text)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        if kind is float:
            return float(text)
        if kind is list:
            return [float(part) for part in text.split(",")] if text else []
        if key in _CHOICES and text not in _CHOICES[key]:
            raise ValueError
        return text
    except (ValueError, OverflowError):
        raise ConfigError(f"bad value for '{key}': {value!r}") from None


@contextmanager
def _as_config_error():
    """Report a ValueError raised on the user's values as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key = value file with # comments; later keys win."""
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one subcommand invocation."""

    params: ModelParams
    sim: SimConfig
    options: dict[str, object]
    out_dir: Path


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = dict(DEFAULTS)
    if args.config is not None:
        for key, raw in parse_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    for key in DEFAULTS:
        supplied = getattr(args, key)
        if supplied is not None:
            values[key] = _coerce(key, supplied)
    with _as_config_error():
        params = ModelParams(**{key: values[key] for key in _MODEL_DEFAULTS})
        sim = SimConfig(**{key: values[key] for key in _SIM_DEFAULTS})
    out_dir = Path(values["out"]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    return RunConfig(params=params, sim=sim, options=values, out_dir=out_dir)


# ---- deterministic serialization -------------------------------------------

def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_svg_chart(path: Path, x: np.ndarray, series: dict[str, np.ndarray],
                    title: str, xlabel: str) -> None:
    """Minimal polyline chart; bit-reproducible, no plotting dependency."""
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 40, 50
    pw, ph = width - left - right, height - top - bottom
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(v, dtype=float) for v in series.values()]
    ymin = min(float(np.min(v)) for v in ys)
    ymax = max(float(np.max(v)) for v in ys)
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = float(np.min(x)), float(np.max(x))
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0

    def sx(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * pw

    def sy(v: float) -> float:
        return top + (ymax - v) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - 28}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>')
        parts.append(
            f'<text x="{left - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>')
    parts.append(
        f'<text x="{left + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    for idx, (name, y) in enumerate(series.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                          for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - right - 6}" y="{top + 18 + 16 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---- subcommands ------------------------------------------------------------

def _resolve_r_st(config: RunConfig) -> float:
    raw = str(config.options["r_st"])
    if raw != "auto":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"r_st must be 'auto' or a number, got {raw!r}")
    solve = rst_cubic if config.options["case"] == "neumann" else rst_dirichlet
    with _as_config_error():
        return solve(config.params).r_st


def cmd_stationary(config: RunConfig) -> int:
    from .residuals import terzaghi_stress_radial

    params = config.params
    case = str(config.options["case"])
    samples = int(config.options["samples"])
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    r_st = _resolve_r_st(config)
    with _as_config_error():   # an explicit r_st must exceed r0
        sol = (neumann_solution if case == "neumann" else dirichlet_solution)(
            params, r_st)
    radii = np.linspace(params.r0, r_st, samples)
    rows = []
    for r in radii:
        w = sol.displacement(r)
        w_r = sol.displacement_r(r)
        P = sol.pressure(r)
        tau11, tau22 = terzaghi_stress_radial(w, w_r, P, r, params)
        rows.append((r, P, w, tau11, tau22))
    write_csv(config.out_dir / "profiles.csv",
              ("r", "P", "w", "tau11", "tau22"), rows)
    if config.options["svg"]:
        arr = np.array(rows)
        write_svg_chart(config.out_dir / "profiles.svg", arr[:, 0],
                        {"P": arr[:, 1], "w": arr[:, 2]},
                        f"stationary profiles ({case})", "r")
    print(f"stationary case={case} r_st={_fmt(r_st)} "
          f"P0={_fmt(sol.P0)} C0={_fmt(sol.C0)} C1={_fmt(sol.C1)} "
          f"Cm1={_fmt(sol.Cm1)}")
    print(f"wrote {config.out_dir / 'profiles.csv'}")
    return 0


def cmd_rst(config: RunConfig) -> int:
    with _as_config_error():
        report = rst_cubic(config.params)
    a3, a2, a1, a0 = report.coefficients
    print(f"cubic coefficients: a3={_fmt(a3)} a2={_fmt(a2)} "
          f"a1={_fmt(a1)} a0={_fmt(a0)}")
    for root, mult in report.real_roots:
        print(f"real root: {_fmt(root)} (multiplicity {mult})")
    cp = report.critical_points
    print(f"critical points: {cp[0]:.16e} {cp[1]:.16e}")
    print(f"bracket: cubic(r0)={_fmt(report.cubic_at_r0)} "
          f"cubic(R0)={_fmt(report.cubic_at_R0)}")
    print(f"selected r_st={_fmt(report.r_st)}")
    return 0


def cmd_transient(config: RunConfig) -> int:
    from .transient import simulate, steady_state_check

    params = config.params
    geometry = str(config.options["geometry"])
    try:
        states = simulate(params, config.sim, geometry=geometry,
                          rho0=float(config.options["rho0"]),
                          theta0=float(config.options["theta0"]))
    except ParameterError as exc:   # bad initial density or porosity
        raise ConfigError(str(exc)) from None
    except SimulationError as exc:
        state = getattr(exc, "state", None)
        if state is not None:
            rows = zip(state.r_grid, state.xi_grid, state.w, state.P,
                       state.varrho, state.Theta)
            write_csv(config.out_dir / "diagnostic.csv",
                      ("r", "xi", "w", "P", "varrho", "Theta"), rows)
            print(f"wrote {config.out_dir / 'diagnostic.csv'}", file=sys.stderr)
        raise

    rows = []
    for s in states:
        rate = 0.0 if s.rate_norms is None else max(s.rate_norms.values())
        kin = abs(s.w[-1] - (s.S - params.R0))
        rows.append((s.t, s.S, s.w[-1], s.P[0], rate, kin))
    write_csv(config.out_dir / "trajectory.csv",
              ("t", "S", "w_boundary", "P_center", "rate_norm",
               "kinematic_residual"), rows)
    final = states[-1]
    write_csv(config.out_dir / "final_profile.csv",
              ("r", "xi", "w", "P", "varrho", "Theta"),
              zip(final.r_grid, final.xi_grid, final.w, final.P,
                  final.varrho, final.Theta))
    if config.options["svg"]:
        arr = np.array([(s.t, s.S) for s in states])
        write_svg_chart(config.out_dir / "trajectory.svg", arr[:, 0],
                        {"S": arr[:, 1]}, "outer radius history", "t")
    report = steady_state_check(final, params, config.sim.steady_tol)
    print(f"steady={'yes' if report.is_steady else 'no'} "
          f"rate_norm={_fmt(report.rate_norm)} S={_fmt(final.S)} "
          f"distance_w={_fmt(report.distance_w)} "
          f"distance_P={_fmt(report.distance_P)}")
    print(f"wrote {config.out_dir / 'trajectory.csv'}")
    return 0


def _symmetry_elements(names: Sequence[str], params: ModelParams,
                       seed: int) -> list[tuple[str, GroupElement]]:
    from .polynomials import Poly2, random_harmonic
    from .symmetry import (GroupElement, HarmonicPotentialPair, TimeFunction,
                           generate_displacement_symmetry)

    rng = np.random.default_rng(seed)
    out = []
    for name in names:
        if name == "pressure-shift":
            el = GroupElement.pressure_shift(1.0, TimeFunction.sine())
        elif name == "displacement-shift":
            pair = HarmonicPotentialPair(random_harmonic(rng, 3),
                                         random_harmonic(rng, 3))
            G1, G2 = generate_displacement_symmetry(pair)
            el = GroupElement.displacement_shift(1.0, G1, G2)
        elif name == "concentration-scaling":
            el = GroupElement.concentration_scaling(1.0, params.sigma1)
        elif name == "rotation":
            el = GroupElement.rotation(0.5 * math.pi)
        elif name == "time-translation":
            el = GroupElement.time_translation(0.25)
        elif name == "x-translation":
            el = GroupElement.x_translation(0.25)
        elif name == "y-translation":
            el = GroupElement.y_translation(0.25)
        elif name == "broken-displacement":
            el = GroupElement.displacement_shift(
                1.0, Poly2([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), Poly2([[0.0]]))
        else:
            raise ConfigError(f"unknown symmetry element '{name}'")
        out.append((name, el))
    return out


def cmd_symmetry(config: RunConfig) -> int:
    from .fields import random_polynomial_field
    from .symmetry import check_invariance

    params = config.params
    seed = int(config.options["seed"])
    rtol = float(config.options["tol"])
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if not 0 <= rtol < math.inf:
        raise ConfigError(f"tol must be finite and non-negative, got {rtol}")
    names = [n.strip() for n in str(config.options["elements"]).split(",")
             if n.strip()]
    if not names:
        raise ConfigError("elements list is empty")

    if config.options["field"] == "stationary":
        with _as_config_error():
            r_st = rst_cubic(params).r_st
        field = neumann_solution(params, r_st).as_cartesian_source(
            rho=params.rho_f0, thetaF=0.5)
        lo = params.r0 + 0.1 * (r_st - params.r0)
        hi = r_st - 0.1 * (r_st - params.r0)
        points = tuple(
            (0.5, r * math.cos(a), r * math.sin(a))
            for r in np.linspace(lo, hi, 3) for a in (0.4, 1.7, 3.9))
    else:
        rng = np.random.default_rng(seed)
        field = random_polynomial_field(rng, degree=2, time_degree=2)
        points = None

    rows = []
    summaries = []
    for name, element in _symmetry_elements(names, params, seed):
        report = check_invariance(element, field, params, points=points,
                                  rtol=rtol)
        for row in report.rows:
            rows.append((name, element.parameter, row.equation, row.pre_norm,
                         row.post_norm, row.max_diff, row.tol,
                         1 if row.passed else 0))
        summaries.append(f"{name}: {'pass' if report.passed else 'FAIL'}")
    write_csv(config.out_dir / "symmetry.csv",
              ("element", "parameter", "equation", "pre_norm", "post_norm",
               "max_diff", "tol", "passed"), rows)
    for line in summaries:
        print(line)
    print(f"wrote {config.out_dir / 'symmetry.csv'}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    key = str(config.options["sweep_key"])
    if key not in _MODEL_DEFAULTS:
        raise ConfigError(f"sweep_key must be a model parameter, got '{key}'")
    values = list(config.options["sweep_values"])
    if not values:
        raise ConfigError("sweep_values is empty")

    rows = []
    for value in values:
        with _as_config_error():
            params = replace(config.params, **{key: value})
            report = rst_cubic(params)
        a3, a2, a1, a0 = report.coefficients
        if params.F0 > 0:
            oracle = bisect_root(report.cubic, params.r0, params.R0)
        else:
            oracle = params.R0
        rows.append((value, a3, a2, a1, a0, report.r_st, report.cubic_at_r0,
                     report.cubic_at_R0, oracle, abs(oracle - report.r_st)))
    write_csv(config.out_dir / "rst.csv",
              (key, "a3", "a2", "a1", "a0", "r_st", "cubic_at_r0",
               "cubic_at_R0", "bisection_root", "oracle_gap"), rows)
    print(f"wrote {config.out_dir / 'rst.csv'} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "stationary": cmd_stationary,
    "rst": cmd_rst,
    "transient": cmd_transient,
    "symmetry": cmd_symmetry,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    # Every subcommand takes the same options, declared once.
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", default=None,
                         help="key = value config file")
    for key in DEFAULTS:
        flags = [f"--{key}"]
        if "_" in key:
            flags.append(f"--{key.replace('_', '-')}")
        flags += [f"--{a}" for a, target in _ALIASES.items() if target == key]
        options.add_argument(*flags, dest=key, default=None)
    parser = argparse.ArgumentParser(
        prog="pemsim",
        description="Fluid transport in 2D poroelastic materials: stationary "
                    "annulus solutions, shrink-radius root finding, "
                    "moving-boundary consolidation, and symmetry verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[options])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoRootError as exc:
        print(f"no admissible root: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
