"""The benchmark's workloads: inputs, items and per-item correctness checks.

Each workload is a fixed list of items that one pass runs in order, one at
a time.  An item returns an :class:`Outcome`: ``correct`` says whether its
outputs agree with the oracle (criteria 2, 3, 5, 6 and 7 of the acceptance
suite and ``TestCircle``, with their tolerances), ``claim`` whether it also
met the acceptance claim that the transient run stops at steady state
before ``t_end``.  A missed claim is a defect of the program, reported in
``pass_frac``; it is not a wrong output.

``annulus`` and ``circle`` are the fixed reference problems of the paper
and the ROADMAP, so they ignore the seed: a random load or initial porosity
can drive the porosity out of (0, 1) and end the run with an error.
``oracle`` and ``cli`` draw their inputs from the seed.

Layers are called through their module attributes so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from pemsim import core, fields, polynomials, residuals, stationary, symmetry
from pemsim import transient

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"

REFERENCE = core.ModelParams.reference(F0=16 * math.pi)
GRID_COMPONENTS = ("u1", "u2", "p", "rho", "thetaF", "c")


@dataclass
class Outcome:
    correct: bool
    detail: str = ""
    claim: bool = True
    S: float | None = None
    final_rate: float | None = None


@dataclass
class Item:
    id: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    items: list[Item]
    warmup: Callable[[], object]
    # Checks over a whole pass; returns the failures (empty when all hold).
    check_pass: Callable[[dict[str, Outcome]], list[str]] = lambda outcomes: []
    close: Callable[[], None] = lambda: None


def _within(value: float, expected: float, rel: float) -> bool:
    """pytest.approx semantics: relative tolerance, absolute floor 1e-12."""
    return abs(value - expected) <= max(rel * abs(expected), 1e-12)


# ---- transient workloads ------------------------------------------------------

def _transient_outcome(states, cfg, params, S_expected: float, S_tol: float,
                       extra: list[tuple[bool, str]] = ()) -> Outcome:
    final = states[-1]
    rate = max(final.rate_norms.values())
    gap = abs(final.S - S_expected)
    checks = [(gap <= S_tol, f"|S - S_st| = {gap:.2e} > {S_tol:.2e}"), *extra]
    failures = [why for ok, why in checks if not ok]
    report = transient.steady_state_check(final, params,
                                          steady_tol=10 * cfg.steady_tol)
    stopped = final.t < cfg.t_end * (1 - 1e-12) and rate <= cfg.steady_tol
    claim = stopped and report.is_steady
    detail = f"S={final.S:.10f} t={final.t:.3f} rate={rate:.1e}"
    if failures:
        detail += " WRONG: " + "; ".join(failures)
    if not claim:
        detail += f" CLAIM MISSED: not steady by t_end={cfg.t_end:g}"
    return Outcome(not failures, detail, claim, final.S, rate)


def annulus(seed: int, smoke: bool) -> Workload:
    """The criterion-5 ladder: the reference load at three resolutions."""
    ladder = (50, 100, 200) if smoke else (100, 200, 400)
    r_st = stationary.rst_cubic(REFERENCE).r_st
    S_tol = 0.01 * (REFERENCE.R0 - r_st)

    def run(N: int) -> Outcome:
        cfg = transient.SimConfig(N=N, dt=2e-3, t_end=3.0, steady_tol=1e-8)
        states = transient.simulate(REFERENCE, cfg, geometry="annulus",
                                    theta0=0.9999)
        return _transient_outcome(states, cfg, REFERENCE, r_st, S_tol)

    def check_pass(out: dict[str, Outcome]) -> list[str]:
        S = [out[f"N{N}"].S for N in ladder]
        if None in S:
            return []
        ratio = (S[0] - S[1]) / (S[1] - S[2])
        if 2.8 <= ratio <= 5.5:
            return []
        return [f"refinement ratio {ratio:.2f} outside [2.8, 5.5]"]

    warm = transient.SimConfig(N=ladder[0], dt=2e-3, t_end=0.04, steady_tol=1e-8)
    return Workload(
        items=[Item(f"N{N}", partial(run, N)) for N in ladder],
        warmup=lambda: transient.simulate(REFERENCE, warm, theta0=0.9999),
        check_pass=check_pass)


def circle(seed: int, smoke: bool) -> Workload:
    """The TestCircle consolidation: small grid, thousands of cheap steps."""
    params = core.ModelParams.reference(F0=0.8 * math.pi)
    N, dt = (48, 2e-2) if smoke else (96, 2e-3)
    cfg = transient.SimConfig(N=N, dt=dt, t_end=20.0, steady_tol=1e-9)
    predicted = params.R0 - params.F0 / (4 * math.pi * (params.lam + params.mu))

    def run() -> Outcome:
        states = transient.simulate(params, cfg, geometry="circle", theta0=0.7)
        final = states[-1]
        slope = abs(transient.fd1(final.P, final.S / N)[0])
        return _transient_outcome(states, cfg, params, predicted, 2e-4, [
            (final.w[0] == 0.0, f"w(0) = {final.w[0]:.1e} != 0"),
            (slope <= 1e-8, f"|P_r(0)| = {slope:.1e} > 1e-8")])

    warm = transient.SimConfig(N=N, dt=dt, t_end=20 * dt, steady_tol=1e-9)
    return Workload(
        items=[Item("circle", run)],
        warmup=lambda: transient.simulate(params, warm, geometry="circle",
                                          theta0=0.7))


# ---- oracle -------------------------------------------------------------------

def _invariance(elements, field, points, moduli=None) -> Outcome:
    """check_invariance of every element on one field."""
    worst = 0.0
    failed = []
    for element in elements:
        rep = symmetry.check_invariance(element, field, REFERENCE,
                                        points=points, moduli=moduli)
        worst = max(worst, *(row.max_diff / row.tol for row in rep.rows))
        if not rep.passed:
            failed.append(element.kind)
    detail = f"{len(elements)} elements, max diff/tol {worst:.2e}"
    return Outcome(not failed, detail + "".join(f", {k} FAILED" for k in failed))


def _max_gap(a, b) -> float:
    return max(abs(a[eq] - b[eq]) for eq in residuals.CARTESIAN_EQUATIONS)


def oracle(seed: int, smoke: bool) -> Workload:
    """The oracle half of the acceptance suite on seeded inputs."""
    rng = np.random.default_rng(seed)
    n_fields, n_iso, n_draws, n_dirichlet, n_radii = (
        (2, 10, 100, 5, 100) if smoke else (20, 100, 1000, 50, 1000))
    coarse, fine = (13, 25) if smoke else (25, 49)
    items: list[Item] = []

    def add(name: str, fn, *args) -> None:
        items.append(Item(name, partial(fn, *args)))

    # Criterion 6: four group elements on the stationary embedding (analytic
    # point queries) and on random polynomial fields.
    r_st = stationary.rst_cubic(REFERENCE).r_st
    stat_field = stationary.neumann_solution(REFERENCE, r_st).as_cartesian_source(
        rho=1.0, thetaF=0.5)
    stat_points = tuple(
        (0.4, r * math.cos(a), r * math.sin(a))
        for r in np.linspace(REFERENCE.r0 + 0.05, r_st - 0.05, 3)
        for a in (0.5, 2.1, 3.8))
    pair = symmetry.HarmonicPotentialPair(polynomials.random_harmonic(rng, 6),
                                          polynomials.random_harmonic(rng, 6))
    G1, G2 = symmetry.generate_displacement_symmetry(pair)
    elements = (
        symmetry.GroupElement.pressure_shift(1.0, symmetry.TimeFunction.sine()),
        symmetry.GroupElement.displacement_shift(1.0, G1, G2),
        symmetry.GroupElement.concentration_scaling(1.0, REFERENCE.sigma1),
        symmetry.GroupElement.rotation(0.5 * math.pi),
    )
    add("inv/stationary", _invariance, elements, stat_field, stat_points)
    for i in range(n_fields):
        add(f"inv/poly{i:02d}", _invariance, elements,
            fields.random_polynomial_field(rng), None)

    def negative_control() -> Outcome:
        bad_G = (polynomials.Poly2([[0], [0], [1]]), polynomials.Poly2.zero())
        bad = symmetry.GroupElement.displacement_shift(1.0, *bad_G)
        rep = symmetry.check_invariance(bad, stat_field, REFERENCE,
                                        points=stat_points)
        target = 2 * core.lame_star(REFERENCE)
        defect = rep.row("momentum1").max_diff
        generator = symmetry.verify_displacement_symmetry(*bad_G, REFERENCE)
        ok = (not rep.passed and _within(defect, target, 1e-12)
              and _within(generator, target, 1e-15))
        return Outcome(ok, f"defect {defect:.15g}, generator {generator:.15g}, "
                           f"2*lam_star {target:g}")

    add("negative-control", negative_control)

    # Criterion 6, grid variant: shift defects shrink at second order and
    # a quarter turn maps grid nodes to grid nodes exactly.
    grid_field = fields.random_polynomial_field(rng, degree=2, time_degree=1)
    ts = np.linspace(0.0, 0.8, 5)
    shift = symmetry.GroupElement.displacement_shift(1.0, G1, G2)

    def shift_defect(n: int) -> float:
        xs = np.linspace(-1.5, 1.5, n)
        grid = fields.sample_grid(grid_field, [ts, xs, xs], GRID_COMPONENTS)
        shifted = fields.sample_grid(symmetry.apply_group(shift, grid_field),
                                     [ts, xs, xs], GRID_COMPONENTS)
        return max(_max_gap(residuals.residual_cartesian_iso(grid, REFERENCE, pt),
                            residuals.residual_cartesian_iso(shifted, REFERENCE, pt))
                   for pt in ((0.4, 0.0, 0.0), (0.4, -0.5, 0.75)))

    def grid_shift() -> Outcome:
        ratio = shift_defect(coarse) / shift_defect(fine)
        return Outcome(2.0 <= ratio <= 8.0, f"refinement ratio {ratio:.2f}")

    def quarter_turn() -> Outcome:
        xs = np.linspace(-1.5, 1.5, coarse)
        grid = fields.sample_grid(grid_field, [ts, xs, xs], GRID_COMPONENTS)
        rotated = fields.sample_grid(
            symmetry.apply_group(symmetry.GroupElement.rotation(0.5 * math.pi),
                                 grid), [ts, xs, xs], GRID_COMPONENTS)
        worst = 0.0
        for a, b in ((5, 9), (10, 14), (16, 7)):
            jx, jy = a * (coarse - 1) // 24, b * (coarse - 1) // 24
            t, x, y = ts[2], xs[jx], xs[jy]
            pre = residuals.residual_cartesian_iso(grid, REFERENCE, (t, x, y))
            post = residuals.residual_cartesian_iso(rotated, REFERENCE, (t, -y, x))
            scale = max(1.0, pre.max_abs())
            gaps = [abs(post["momentum1"] + pre["momentum2"]),
                    abs(post["momentum2"] - pre["momentum1"])]
            gaps += [abs(post[eq] - pre[eq])
                     for eq in ("continuity", "density", "porosity", "solute")]
            worst = max(worst, max(gaps) / scale)
        return Outcome(worst <= 1e-12, f"max relative gap {worst:.1e}")

    add("grid-shift", grid_shift)
    add("quarter-turn", quarter_turn)

    # Criterion 7: the isotropic operator equals the anisotropic one under
    # the isotropic embedding, and the anisotropic suite passes.
    moduli_iso = core.AnisotropicModuli.isotropic(REFERENCE.lam, REFERENCE.mu)
    iso_points = ((0.3, 0.4, -0.2), (0.7, -1.1, 0.6))

    def iso_equals_aniso(iso_fields) -> Outcome:
        worst = 0.0
        for field in iso_fields:
            for pt in iso_points:
                iso = residuals.residual_cartesian_iso(field, REFERENCE, pt)
                aniso = residuals.residual_cartesian_aniso(field, moduli_iso,
                                                           REFERENCE, pt)
                worst = max(worst, _max_gap(iso, aniso) / max(1.0, iso.max_abs()))
        return Outcome(worst <= 1e-12, f"{len(iso_fields)} fields, max relative "
                                       f"gap {worst:.1e}")

    add("iso-aniso", iso_equals_aniso,
        [fields.random_polynomial_field(rng) for _ in range(n_iso)])

    moduli = core.AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7,
                                    e13=0.4, e23=0.2)
    aG1, aG2 = symmetry.random_displacement_symmetry_aniso(moduli, rng)
    aniso_field = fields.random_polynomial_field(rng)
    GE = symmetry.GroupElement
    add("aniso-suite", _invariance, (
        GE.time_translation(0.3), GE.x_translation(0.5), GE.y_translation(-0.2),
        GE.concentration_scaling(0.8, REFERENCE.sigma1),
        GE.pressure_shift(1.0, symmetry.TimeFunction.sine()),
        GE.displacement_shift(0.7, aG1, aG2)), aniso_field, None, moduli)

    # Criterion 3: stationary states annihilate the ring residuals, and the
    # grid-backed residual converges at second order.
    ring_params = core.ModelParams.reference(F0=16 * math.pi, p_a=0.0, p_st=1.0)
    ring_r_st = 1.5
    radii = rng.uniform(ring_params.r0 + 1e-9, ring_r_st, n_radii)
    ring_rho, ring_theta = rng.uniform(1.0, 1.5), rng.uniform(0.2, 0.8)

    def ring_analytic(solve) -> Outcome:
        src = solve(ring_params, ring_r_st).as_ring_source(rho=ring_rho,
                                                           theta=ring_theta)
        worst = max(residuals.residual_ring(src, ring_params, (0.0, r)).max_abs()
                    for r in radii)
        return Outcome(worst <= 1e-11, f"max residual {worst:.1e}")

    def ring_grid() -> Outcome:
        sol = stationary.neumann_solution(ring_params, ring_r_st)

        def worst(n: int) -> float:
            rs = np.linspace(ring_params.r0, ring_r_st, n)
            grid = fields.GridFieldSource([None, rs], {
                "w": np.array([sol.displacement(r) for r in rs]),
                "P": np.array([sol.pressure(r) for r in rs]),
                "rho": 1.0, "theta": 0.5})
            return max(residuals.residual_ring(grid, ring_params,
                                               (0.0, rs[j])).max_abs()
                       for j in range(2, n - 2, max(1, n // 16)))

        ratio = worst(65) / worst(129)
        return Outcome(3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.2f}")

    add("ring/neumann", ring_analytic, stationary.neumann_solution)
    add("ring/dirichlet", ring_analytic, stationary.dirichlet_solution)
    add("ring-grid", ring_grid)

    # Criterion 2: the reference cubic, then draws in the proven load regime
    # must each have exactly one root in (r0, R0).
    def cubic_reference() -> Outcome:
        report = stationary.rst_cubic(REFERENCE)
        oracle_root = stationary.bisect_root(report.cubic, 1.0, 2.0,
                                             iterations=200)
        ok = (np.allclose(report.coefficients, (2.0, 0.0, 1.0, -6.0), rtol=0,
                          atol=1e-13)
              and abs(report.r_st - oracle_root) <= 1e-10
              and 1.0 < report.r_st < 2.0)
        return Outcome(ok, f"r_st {report.r_st:.12f} vs bisection "
                           f"{oracle_root:.12f}")

    def cubic_draws(draws) -> Outcome:
        for params in draws:
            rep = stationary.rst_cubic(params)
            if len(rep.roots_in_interval) != 1 or not params.r0 < rep.r_st < params.R0:
                return Outcome(False, f"no unique root in (r0, R0) for {params}")
        return Outcome(True, f"{len(draws)} draws, unique root each")

    def draw_cubic_params():
        lam, mu = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        r0 = rng.uniform(0.2, 2.0)
        R0 = r0 + rng.uniform(0.2, 3.0)
        F0 = 4.0 * math.pi * (lam + mu) * R0 * rng.uniform(1.0, 4.0)
        return core.ModelParams.reference(lam=lam, mu=mu, r0=r0, R0=R0, F0=F0)

    add("rst-cubic/reference", cubic_reference)
    add("rst-cubic/draws", cubic_draws,
        [draw_cubic_params() for _ in range(n_draws)])

    # The Dirichlet steady radius: a root of the traction balance in
    # (r0, R0] where the balance changes sign.
    def dirichlet_roots(loads) -> Outcome:
        for params in loads:
            r = stationary.rst_dirichlet(params).r_st

            def mismatch(s: float) -> float:
                return stationary.boundary_traction_mismatch(
                    stationary.dirichlet_solution(params, s), s, params)

            ok = params.r0 < r <= params.R0
            if ok and r < params.R0:
                ok = (mismatch(r - 1e-6) > 0) != (mismatch(r + 1e-6) > 0)
            if not ok:
                return Outcome(False, f"r_st {r!r} is no root in (r0, R0] "
                                      f"for {params}")
        return Outcome(True, f"{len(loads)} loads, root bracketed each")

    add("rst-dirichlet", dirichlet_roots, [
        core.ModelParams.reference(F0=rng.uniform(0.0, 16 * math.pi),
                                   p_st=rng.uniform(0.0, 0.8))
        for _ in range(n_dirichlet)])

    return Workload(items=items, warmup=items[0].run)


# ---- cli ----------------------------------------------------------------------

def cli_env() -> dict[str, str]:
    """Environment that makes a fresh interpreter import pemsim from src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def cli(seed: int, smoke: bool) -> Workload:
    """Cold-start CLI invocations, checked against in-process results."""
    rng = np.random.default_rng(seed)
    sweep = sorted(float(v) for v in rng.uniform(0.0, 16 * math.pi,
                                                 4 if smoke else 16))
    sym_seed = int(rng.integers(1, 2**31))
    env = cli_env()
    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    r_neumann = stationary.rst_cubic(REFERENCE).r_st
    r_dirichlet = stationary.rst_dirichlet(
        core.ModelParams.reference(F0=16 * math.pi, p_st=0.8)).r_st
    r_sweep = [stationary.rst_cubic(core.ModelParams.reference(F0=v)).r_st
               for v in sweep]

    def selected(stdout: str, prefix: str) -> float:
        for line in stdout.splitlines():
            for word in line.split():
                if word.startswith(prefix):
                    return float(word[len(prefix):])
        return math.nan

    def check_rst(proc, out: Path) -> list[str]:
        got = selected(proc.stdout, "r_st=")
        return [] if got == r_neumann else [f"r_st {got!r} != {r_neumann!r}"]

    def check_stationary(expected: float):
        def check(proc, out: Path) -> list[str]:
            got = selected(proc.stdout, "r_st=")
            rows = (out / "profiles.csv").read_text().splitlines()
            failures = [] if got == expected else [f"r_st {got!r} != {expected!r}"]
            if len(rows) != 102:
                failures.append(f"profiles.csv has {len(rows) - 1} rows, not 101")
            return failures
        return check

    def check_sweep(proc, out: Path) -> list[str]:
        rows = [line.split(",")
                for line in (out / "rst.csv").read_text().splitlines()[1:]]
        got = [(float(r[0]), float(r[5]), float(r[9])) for r in rows]
        want = list(zip(sweep, r_sweep))
        if [(v, r) for v, r, _ in got] != want:
            return ["rst.csv values or r_st differ from rst_cubic"]
        gap = max(g for _, _, g in got)
        return [] if gap <= 1e-9 else [f"oracle_gap {gap:.1e} > 1e-9"]

    def check_symmetry(proc, out: Path) -> list[str]:
        verdicts = [line for line in proc.stdout.splitlines()
                    if line.endswith((": pass", ": FAIL"))]
        rows = (out / "symmetry.csv").read_text().splitlines()[1:]
        ok = (len(verdicts) == 4 and all(v.endswith(": pass") for v in verdicts)
              and len(rows) == 24 and all(r.endswith(",1") for r in rows))
        return [] if ok else ["a symmetry check did not pass"]

    commands = [
        ("rst", ["rst"], check_rst),
        ("stationary-neumann", ["stationary", "--case", "neumann"],
         check_stationary(r_neumann)),
        ("stationary-dirichlet", ["stationary", "--case", "dirichlet",
                                  "--p_st", "0.8"], check_stationary(r_dirichlet)),
        ("sweep", ["sweep", "--sweep_key", "F0", "--sweep_values",
                   ",".join(repr(v) for v in sweep)], check_sweep),
        ("symmetry-stationary", ["symmetry", "--field", "stationary",
                                 "--seed", str(sym_seed)], check_symmetry),
        ("symmetry-polynomial", ["symmetry", "--field", "polynomial",
                                 "--seed", str(sym_seed)], check_symmetry),
    ]

    def run(args, check) -> Outcome:
        out = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pemsim", *args, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                return Outcome(False, f"exit {proc.returncode}: "
                                      f"{proc.stderr.strip()[-200:]}")
            failures = check(proc, out)
            return Outcome(not failures, "; ".join(failures) or "outputs match")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Workload(
        items=[Item(name, partial(run, args, check))
               for name, args, check in commands],
        warmup=lambda: None,
        close=lambda: shutil.rmtree(tmp_root, ignore_errors=True))


def cli_probes(repeats: int = 3) -> dict[str, float]:
    """Start-up split of a cold CLI run: interpreter, import, scipy import."""
    env = cli_env()

    def timed(code: str, *flags: str):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        return time.perf_counter() - start, proc

    interpreter = statistics.median(timed("pass")[0] for _ in range(repeats))
    imported = statistics.median(timed("import pemsim")[0] for _ in range(repeats))
    scipy_s = statistics.median(
        _scipy_import_s(timed("import pemsim", "-X", "importtime")[1].stderr)
        for _ in range(repeats))
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": imported - interpreter,
            "cli.import_scipy_s": scipy_s}


def _scipy_import_s(report: str) -> float:
    """Cumulative time of the outermost scipy imports in -X importtime output.

    The report lists modules in post-order with two spaces of indent per
    nesting level; read in reverse, every parent precedes its children.
    """
    total_us = 0
    stack: list[tuple[int, bool]] = []   # (depth, inside scipy)
    for line in reversed(report.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not inside:
            total_us += int(cumulative)
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


BUILDERS = {"annulus": annulus, "circle": circle, "oracle": oracle, "cli": cli}
