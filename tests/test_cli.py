import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pemsim.cli import (DEFAULTS, _build_parser, build_run_config, main,
                        parse_config_file)
from pemsim.core import ModelParams
from pemsim.stationary import rst_cubic
from pemsim.transient import SimConfig


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(path, name):
    header, rows = read_csv(path)
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


class TestConfigParsing:
    def test_file_with_comments_and_aliases(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
# model
lambda = 2.5   # alias for lam
mu = 0.5
F0 = 0.0       # unloaded
""")
        parsed = parse_config_file(cfg)
        assert parsed["lam"] == "2.5"
        assert parsed["mu"] == "0.5"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["rst", "--config", str(cfg)]) == 2

    def test_bad_value_rejected(self, tmp_path):
        for flag, value in (("--mu", "wat"), ("--N", "2.5"), ("--N", "inf"),
                            ("--traction_form", "bogus")):
            assert main(["rst", flag, value, "--out", str(tmp_path)]) == 2

    def test_invalid_params_exit_2(self, tmp_path):
        assert main(["rst", "--mu", "-1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("args", [
        ["rst", "--F0", "-1"],
        ["stationary", "--F0", "-1"],
        ["stationary", "--case", "dirichlet", "--F0", "-1"],
        ["symmetry", "--F0", "-1"],
        ["sweep", "--sweep_values", "-1"],
        ["sweep", "--sweep_key", "mu", "--sweep_values", "1,-1"],
        ["stationary", "--r_st", "0.5"],
        ["stationary", "--samples", "-1"],
        ["stationary", "--samples", "0", "--svg", "on"],
        ["transient", "--theta0", "1.5"],
        ["transient", "--rho0", "-1"],
        ["stationary", "--r_st", "nan"],
        ["stationary", "--r_st", "inf"],
        ["stationary", "--case", "dirichlet", "--p_st", "0.8", "--r_st", "nan"],
        ["symmetry", "--seed", "-1"],
        ["symmetry", "--field", "polynomial", "--seed", "-1"],
        ["symmetry", "--tol", "-1"],
        ["symmetry", "--tol", "nan"],
        ["transient", "--load_ramp", "nan"],
        ["transient", "--load_end", "nan"],
        ["stationary", "--p_st", "nan"],
        ["stationary", "--sigma1", "inf"],
        ["stationary", "--case", "dirichlet", "--p_a", "nan"],
        ["rst", "--F0", "nan"],
        ["transient", "--F0", "inf"],
        ["symmetry", "--field", "polynomial", "--tol", "inf",
         "--elements", "broken-displacement"],
        ["transient", "--t_end", "inf"],
        ["transient", "--steady_tol", "inf"],
        ["transient", "--dt", "inf"],
        ["transient", "--load_ramp", "inf"],
        ["transient", "--k", "inf"],
        ["transient", "--rho_f0", "inf"],
        ["transient", "--R0", "inf"],
        ["stationary", "--case", "dirichlet", "--lam", "inf"],
        ["symmetry", "--k", "inf"],
        ["rst", "--r0", "1e170", "--R0", "1e200"],
    ])
    def test_value_rejected_by_solver_exits_2(self, args, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_overflowing_cubic_coefficient_named(self, tmp_path, capsys):
        assert main(["rst", "--r0", "1e170", "--R0", "1e200",
                     "--out", str(tmp_path)]) == 2
        assert "a1 = mu*r0*r0" in capsys.readouterr().err

    def test_overflowing_radius_exits_4(self, tmp_path, capsys):
        # The cubic's residual scale overflows to inf, not to a traceback.
        assert main(["rst", "--R0", "1e200", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("no admissible root: ")

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("F0 = 0.0\n")
        rc = main(["rst", "--config", str(cfg), "--out", str(tmp_path)])
        out1 = capsys.readouterr().out
        assert rc == 0
        assert "r_st=2" in out1.replace(".0000000000000000e+00", "")
        main(["rst", "--config", str(cfg), "--F0", "12.0",
              "--out", str(tmp_path)])
        out2 = capsys.readouterr().out
        assert out2 != out1


class TestSchema:
    """The CLI keys and defaults are the ModelParams and SimConfig fields."""

    OPTIONS = {"case", "geometry", "out", "samples", "svg", "r_st", "seed",
               "tol", "elements", "field", "sweep_key", "sweep_values",
               "rho0", "theta0"}

    def resolve(self, tmp_path, *args):
        return build_run_config(
            _build_parser().parse_args(["rst", *args, "--out", str(tmp_path)]))

    def test_keys_are_dataclass_fields(self):
        model = {f.name for f in dataclasses.fields(ModelParams)}
        sim = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(DEFAULTS) == model | (sim - {"stop_when_steady"}) | self.OPTIONS
        assert len(DEFAULTS) == len(model) + len(sim) - 1 + len(self.OPTIONS)

    def test_defaults_are_dataclass_defaults(self, tmp_path):
        config = self.resolve(tmp_path)
        assert config.sim == SimConfig()
        assert config.params == ModelParams.reference(F0=16 * math.pi)

    def test_whole_number_accepted_for_float_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_end = 2\n")
        sim = self.resolve(tmp_path, "--config", str(cfg)).sim
        assert sim.t_end == 2.0 and isinstance(sim.t_end, float)


class TestStationaryCommand:
    def test_neumann_unloaded_displacement_zero(self, tmp_path):
        rc = main(["stationary", "--case", "neumann", "--F0", "0",
                   "--out", str(tmp_path), "--samples", "31"])
        assert rc == 0
        w = column(tmp_path / "profiles.csv", "w")
        assert np.all(w == 0.0)

    def test_neumann_inner_displacement_zero(self, tmp_path):
        rc = main(["stationary", "--case", "neumann",
                   "--F0", str(16 * math.pi), "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "profiles.csv")
        first = dict(zip(header, map(float, rows[0])))
        assert first["r"] == 1.0
        assert abs(first["w"]) <= 1e-15

    def test_dirichlet_pressure_endpoints(self, tmp_path):
        rc = main(["stationary", "--case", "dirichlet", "--p_a", "0.25",
                   "--p_st", "1.5", "--F0", str(8 * math.pi),
                   "--out", str(tmp_path)])
        assert rc == 0
        P = column(tmp_path / "profiles.csv", "P")
        assert P[0] == pytest.approx(0.25, abs=1e-12)
        assert P[-1] == pytest.approx(1.5, abs=1e-12)

    def test_explicit_radius_and_svg(self, tmp_path):
        rc = main(["stationary", "--case", "neumann", "--r_st", "1.5",
                   "--svg", "on", "--out", str(tmp_path)])
        assert rc == 0
        svg = (tmp_path / "profiles.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_single_sample_with_svg(self, tmp_path):
        rc = main(["stationary", "--samples", "1", "--svg", "on",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert column(tmp_path / "profiles.csv", "r").tolist() == [1.0]
        assert (tmp_path / "profiles.svg").read_text().startswith("<svg")


class TestRstCommand:
    def test_unloaded_prints_initial_radius(self, tmp_path, capsys):
        rc = main(["rst", "--F0", "0", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected r_st=2.0000000000000000e+00" in out

    def test_reference_case_prints_root_and_brackets(self, tmp_path, capsys):
        rc = main(["rst", "--F0", str(16 * math.pi), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a3=2.0000000000000000e+00" in out
        assert "cubic(r0)=-3.0000000000000000e+00" in out
        assert "1.3269562" in out


class TestSweepCommand:
    def test_monotone_shrink_with_load(self, tmp_path):
        lam_mu_R0 = 4 * math.pi * 2.0 * 2.0  # 4 pi (lam+mu) R0 for lam=mu=1
        values = f"0,{lam_mu_R0},{2 * lam_mu_R0}"
        rc = main(["sweep", "--sweep_key", "F0", "--sweep_values", values,
                   "--out", str(tmp_path)])
        assert rc == 0
        r_st = column(tmp_path / "rst.csv", "r_st")
        assert np.all(np.diff(r_st) < 0.0)
        gap = column(tmp_path / "rst.csv", "oracle_gap")
        assert np.all(gap <= 1e-10 * 2.0)

    def test_rows_follow_input_order(self, tmp_path):
        values = [20.0, 0.0, 40.0, 10.0]
        rc = main(["sweep", "--sweep_values", ",".join(map(str, values)),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert list(column(tmp_path / "rst.csv", "F0")) == values
        assert list(column(tmp_path / "rst.csv", "r_st")) == [
            rst_cubic(ModelParams.reference(F0=v)).r_st for v in values]

    def test_empty_values_rejected(self, tmp_path):
        assert main(["sweep", "--sweep_values", "", "--out", str(tmp_path)]) == 2

    def test_bad_key_rejected(self, tmp_path):
        assert main(["sweep", "--sweep_key", "N", "--sweep_values", "1,2",
                     "--out", str(tmp_path)]) == 2


class TestTransientCommand:
    BASE = ["transient", "--N", "48", "--dt", "2e-3", "--t_end", "1.0",
            "--steady_tol", "1e-8", "--theta0", "0.9999"]

    def test_unloaded_trajectory_constant(self, tmp_path):
        rc = main(self.BASE + ["--F0", "0", "--out", str(tmp_path)])
        assert rc == 0
        S = column(tmp_path / "trajectory.csv", "S")
        assert np.all(S == 2.0)

    def test_loaded_run_converges_and_is_well_formed(self, tmp_path, capsys):
        rc = main(self.BASE + ["--t_end", "3.0",
                               "--F0", str(16 * math.pi),
                               "--out", str(tmp_path), "--svg", "true"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady=yes" in out
        t = column(tmp_path / "trajectory.csv", "t")
        assert np.all(np.diff(t) > 0)
        for name in ("S", "w_boundary", "P_center", "rate_norm",
                     "kinematic_residual"):
            assert np.all(np.isfinite(column(tmp_path / "trajectory.csv",
                                             name)))
        # every accepted boundary passed the root-acceptance bound 1e-9*R0
        kin = column(tmp_path / "trajectory.csv", "kinematic_residual")
        assert np.all(kin <= 1e-9 * 2.0)
        final_S = column(tmp_path / "trajectory.csv", "S")[-1]
        assert final_S == pytest.approx(1.32696, abs=5e-4)
        assert (tmp_path / "final_profile.csv").exists()
        assert (tmp_path / "trajectory.svg").exists()

    def test_defaults_stop_steady(self, tmp_path, capsys):
        assert main(["transient", "--out", str(tmp_path)]) == 0
        assert "steady=yes" in capsys.readouterr().out
        assert column(tmp_path / "trajectory.csv", "t")[-1] < 0.5

    def test_verdict_uses_steady_tol(self, tmp_path, capsys):
        # the run ends at t_end with a rate inside (steady_tol, 10*steady_tol]
        assert main(["transient", "--N", "32", "--t_end", "0.2",
                     "--steady_tol", "1e-5", "--out", str(tmp_path)]) == 0
        rate = column(tmp_path / "trajectory.csv", "rate_norm")[-1]
        assert 1e-5 < rate <= 1e-4
        assert "steady=no" in capsys.readouterr().out

    def test_bounds_violation_exits_3_with_diagnostic(self, tmp_path):
        rc = main(["transient", "--N", "48", "--dt", "2e-3", "--t_end", "2.0",
                   "--theta0", "0.5", "--F0", str(16 * math.pi),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "diagnostic.csv").exists()
        theta = column(tmp_path / "diagnostic.csv", "Theta")
        assert theta.min() <= 0.0


class TestSymmetryCommand:
    def test_standard_elements_pass(self, tmp_path, capsys):
        translations = ["time-translation", "x-translation", "y-translation"]
        # the 4 default elements, then the translations on both fields
        for args, names in (
                ([], ["pressure-shift", "displacement-shift",
                      "concentration-scaling", "rotation"]),
                (["--elements", ",".join(translations)], translations),
                (["--field", "polynomial",
                  "--elements", ",".join(translations)], translations)):
            rc = main(["symmetry", "--F0", str(16 * math.pi),
                       "--out", str(tmp_path)] + args)
            assert rc == 0
            out = capsys.readouterr().out
            assert all(f"{name}: pass" in out for name in names), out
            header, rows = read_csv(tmp_path / "symmetry.csv")
            assert header == ["element", "parameter", "equation", "pre_norm",
                              "post_norm", "max_diff", "tol", "passed"]
            assert all(r[-1] == "1" for r in rows)
            # 6 equations per element
            assert len(rows) == 6 * len(names)
            assert [r[0] for r in rows[::6]] == names

    def test_negative_control_fails(self, tmp_path):
        rc = main(["symmetry", "--F0", str(16 * math.pi),
                   "--elements", "pressure-shift,broken-displacement",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "symmetry.csv")
        broken = [r for r in rows if r[0] == "broken-displacement"]
        assert any(r[-1] == "0" for r in broken)
        good = [r for r in rows if r[0] == "pressure-shift"]
        assert all(r[-1] == "1" for r in good)

    def test_polynomial_field_variant(self, tmp_path):
        rc = main(["symmetry", "--field", "polynomial", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "symmetry.csv")
        assert all(r[-1] == "1" for r in rows)

    def test_unknown_element_rejected(self, tmp_path):
        assert main(["symmetry", "--elements", "wiggle",
                     "--out", str(tmp_path)]) == 2


class TestDeterminism:
    def run_all(self, out_dir):
        """Every subcommand once, fixed configuration, files into out_dir."""
        heavy = str(16 * math.pi)
        assert main(["stationary", "--case", "dirichlet", "--p_st", "0.8",
                     "--F0", heavy, "--out", str(out_dir)]) == 0
        assert main(["rst", "--F0", heavy, "--out", str(out_dir)]) == 0
        assert main(["transient", "--N", "48", "--dt", "2e-3",
                     "--t_end", "0.5", "--theta0", "0.9999", "--F0", heavy,
                     "--steady_tol", "1e-8", "--svg", "on",
                     "--out", str(out_dir)]) == 0
        assert main(["symmetry", "--F0", heavy, "--out", str(out_dir)]) == 0
        assert main(["sweep", "--sweep_values", "0,20,40",
                     "--out", str(out_dir)]) == 0

    def test_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        self.run_all(a)
        self.run_all(b)
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestColdPathWithoutScipy:
    """The closed-form and symmetry commands import no scipy.  A transient
    run loads scipy's _flapack extension on the first band solve and no
    other part of scipy.linalg, the anisotropic generator draw runs on
    numpy, and a default run never needs the Brent fallback that would load
    scipy.optimize."""

    SCRIPT = """
import sys
import pemsim, pemsim.cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
for args in (["rst"],
             ["stationary", "--case", "neumann"],
             ["stationary", "--case", "dirichlet", "--p_st", "0.8"],
             ["sweep", "--sweep_values", "0,20,40"],
             ["symmetry", "--field", "stationary"],
             ["symmetry", "--field", "polynomial"]):
    assert pemsim.cli.main(args + ["--out", out]) == 0, args
print("cold:", scipy_modules())
assert pemsim.cli.main(["transient", "--out", out]) == 0
import numpy as np
from pemsim.core import AnisotropicModuli
from pemsim.symmetry import random_displacement_symmetry_aniso
random_displacement_symmetry_aniso(
    AnisotropicModuli(e11=3.0, e22=2.0, e33=1.0, e12=0.7, e13=0.4, e23=0.2),
    np.random.default_rng(0))
print("flapack:", "scipy.linalg._flapack" in scipy_modules())
print("linalg:", "scipy.linalg" in scipy_modules())
print("optimize:", "scipy.optimize" in scipy_modules())
"""

    def test_cli_commands_load_no_scipy(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "cold: []" in lines
        assert "flapack: True" in lines
        assert "linalg: False" in lines
        assert "optimize: False" in lines
