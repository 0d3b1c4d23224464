"""End-to-end CLI behavior: exit codes, file outputs, determinism."""
import csv
import inspect
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import himcf.cli
import himcf.errors
import himcf.flow
from himcf.cli import _support_from_spec
from himcf.curves import PolygonGeometry
from himcf.errors import PreconditionFailed
from himcf.flow import FIXED_DT_CFL_LIMIT, FlowConfig, cfl_bound, run_support_flows
from himcf.grids import AngleGrid, support_derivatives
from himcf.lagrangian import run_lagrangian_flow
from himcf.monitors import check_containment
from himcf.presets import circle_support, cosine_series, ellipse_curve, ellipse_support

CLI = [sys.executable, "-m", "himcf"]
PAIR = {"outer": {"preset": "circle", "r0": 2.0, "speed": 0.5},
        "inner": {"preset": "circle", "r0": 1.0, "speed": 0.3}}

# The exit code of every error class: 1 for a configuration that cannot run,
# 2 for a failed internal check.  A new class fails the test until it is here.
EXIT_CODES = {
    "HimcfError": 2, "DegenerateEdge": 2, "BracketViolation": 2,
    "InvalidConfig": 1, "InvalidInitialRadius": 1, "InvalidForcing": 1, "NotConvex": 1,
    "OriginNotInterior": 1, "ConvexityLost": 1, "PreconditionFailed": 1,
    "InsufficientData": 1, "OutOfDomain": 1, "CflViolation": 1, "NonFinite": 1,
}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(himcf.errors, inspect.isclass)
                 if issubclass(cls, himcf.errors.HimcfError)]


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def run_cli(args, tmp_path, name="out", expect=0):
    # The timeout and the address-space cap stop a regression on a hostile
    # input from stepping or allocating for long.
    out_dir = tmp_path / name
    proc = subprocess.run(CLI + args + ["--out-dir", str(out_dir)],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_address_space)
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc, out_dir


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestRadial:
    def test_expanding_sphere(self, tmp_path):
        _, out = run_cli(["radial", "--geometry", "sphere", "--n", "2",
                          "--r0", "1", "--r1", "0", "--t-end", "2"], tmp_path)
        summary = load_json(out / "radial_summary.json")
        assert summary["regime"]["regime"] == "ExpandsForever"
        assert summary["passed"] is True
        with open(out / "radial.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["t"] == "0.0"
        worst = max(float(r["abs_err"]) for r in rows)
        assert worst <= 1e-8

    def test_finite_time_circle_reports_horizon(self, tmp_path):
        _, out = run_cli(["radial", "--geometry", "circle",
                          "--r0", "1", "--r1", "-2"], tmp_path)
        summary = load_json(out / "radial_summary.json")
        assert summary["regime"]["T_max"] == \
            pytest.approx(0.5 * math.log(3.0), abs=1e-9)

    def test_slow_circle_converges_in_infinite_time(self, tmp_path):
        _, out = run_cli(["radial", "--geometry", "circle",
                          "--r0", "1", "--r1", "-1"], tmp_path)
        summary = load_json(out / "radial_summary.json")
        assert summary["regime"]["regime"] == "ConvergesToPointInfiniteTime"

    def test_coarse_step_fails_the_agreement_check(self, tmp_path):
        # valid config, but RK4 at dt = 0.4 cannot meet the 1e-8 gate
        proc, out = run_cli(["radial", "--geometry", "circle", "--r0", "1",
                             "--r1", "-0.5", "--dt", "0.4", "--t-end", "1.2"],
                            tmp_path, expect=2)
        summary = load_json(out / "radial_summary.json")
        assert summary["passed"] is False

    def test_forced_run_emits_brackets(self, tmp_path):
        _, out = run_cli(["radial", "--geometry", "sphere", "--n", "2",
                          "--r0", "1", "--r1", "0", "--t-end", "1",
                          "--forcing-constant", "0.25"], tmp_path)
        with open(out / "radial.csv") as fh:
            header = fh.readline().strip().split(",")
        assert "r_lo" in header and "r_hi" in header
        summary = load_json(out / "radial_summary.json")
        assert summary["passed"] is True


class TestCurve:
    def test_shrinking_circle_summary(self, tmp_path):
        _, out = run_cli(["curve", "--preset", "circle", "--r0", "1",
                          "--speed", "-1", "--t-end", "1"], tmp_path)
        summary = load_json(out / "curve_summary.json")
        assert summary["termination"]["kind"] == "HorizonReached"
        assert summary["final_length"] == \
            pytest.approx(2 * math.pi * math.exp(-1.0), abs=1e-4)
        assert (out / "curve.csv").exists()
        assert (out / "curve.svg").exists()

    def test_collapse_is_a_classified_termination_not_an_error(self, tmp_path):
        proc, out = run_cli(["curve", "--preset", "circle", "--r0", "1",
                             "--speed", "-2", "--t-end", "1"], tmp_path)
        summary = load_json(out / "curve_summary.json")
        assert summary["termination"]["kind"] in ("LengthVanished",
                                                  "CurvatureBlowup")
        assert summary["termination"]["t"] == \
            pytest.approx(0.5 * math.log(3.0), abs=1e-2)

    def test_both_solvers_reports_hausdorff(self, tmp_path):
        _, out = run_cli(["curve", "--preset", "ellipse", "--a", "2",
                          "--b", "1", "--speed", "0.5", "--t-end", "0.5",
                          "--both-solvers"], tmp_path)
        summary = load_json(out / "curve_summary.json")
        assert summary["cross_solver_hausdorff"] <= 1e-3

    def test_invalid_resample_ends_in_convexity_lost(self, tmp_path):
        # The resample after step 350 leaves a negative turning angle; the
        # run ends there, on the last valid polygon, instead of stepping on.
        _, out = run_cli(["curve", "--solver", "lagrangian", "--preset", "circle",
                          "--r0", "1", "--speed", "0,5", "--vertices", "32",
                          "--t-end", "1"], tmp_path)
        summary = load_json(out / "curve_summary.json")
        assert summary["termination"]["kind"] == "ConvexityLost"
        assert summary["termination"]["t"] == pytest.approx(0.185779, abs=1e-6)
        assert summary["final_k_min"] > 0.0

    def test_fourier_preset_runs_and_classifies(self, tmp_path):
        _, out = run_cli(["curve", "--preset", "fourier", "--coeffs",
                          "1,0,0.05", "--speed", "-1.2"], tmp_path)
        summary = load_json(out / "curve_summary.json")
        assert summary["outcome"]["predicted"] in ("LongTime", "FiniteTime",
                                                   "Indeterminate")
        assert summary["outcome"]["agreement"] is True

    def test_svg_has_outlines(self, tmp_path):
        _, out = run_cli(["curve", "--preset", "circle", "--r0", "1",
                          "--speed", "0.3", "--t-end", "0.5"], tmp_path)
        svg = (out / "curve.svg").read_text()
        assert svg.startswith("<svg")
        assert "<polygon" in svg

    def test_a_lagrangian_csv_chunk_forms_one_frame(self, monkeypatch):
        # The normal angles and <P, nu> of a chunk of snapshots share one frame.
        curve = ellipse_curve(32, 2.0, 1.0, 0.5)
        traj = run_lagrangian_flow(curve, FlowConfig(dt=1e-3, t_end=0.04))
        frame = PolygonGeometry.frame
        formed = []

        def counted(g):
            formed.append(g)
            return frame.fget(g)

        monkeypatch.setattr(PolygonGeometry, "frame", property(counted))
        rows = list(himcf.cli._csv_blocks(traj))
        assert len(rows) == len(traj.times) == 41
        assert len(formed) == math.ceil(41 / himcf.cli._CSV_CHUNK) == 3


class TestContainment:
    def test_circle_in_circle(self, tmp_path):
        _, out = run_cli(["containment", "--scenario", "circle-in-circle"],
                         tmp_path)
        summary = load_json(out / "containment_summary.json")
        assert summary["passed"] is True
        with open(out / "containment.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["min_gap"]) > 0 for r in rows)

    def test_ellipse_in_circle_terminates_through_blowup(self, tmp_path):
        _, out = run_cli(["containment", "--scenario", "ellipse-in-circle"],
                         tmp_path)
        summary = load_json(out / "containment_summary.json")
        assert summary["passed"] is True
        kinds = {summary["outer_termination"]["kind"],
                 summary["inner_termination"]["kind"]}
        assert kinds & {"CurvatureBlowup", "LengthVanished"}

    def test_config_pair_runs_on_the_circle_in_circle_schedule(self, tmp_path):
        inner = {"preset": "circle", "r0": 1.0, "speed": 0.3}
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({"outer": {**inner, "r0": 2.0}, "inner": inner, "N": 16}))
        assert himcf.cli.main(["containment", "--config", str(cfg),
                               "--out-dir", str(tmp_path / "pair")]) == 0
        summary = load_json(tmp_path / "pair" / "containment_summary.json")
        schedule = himcf.cli._SCENARIOS["circle-in-circle"]
        for key in ("t_end", "dt", "record_every", "eps_convex"):
            assert summary[key] == schedule[key]

    @pytest.mark.parametrize("config, argv, key", [
        ({"outer": {"preset": "circle", "r0": 3.0, "speed": 0.5}}, [], "outer"),
        ({"inner": {"preset": "circle", "r0": 1.0, "speed": 0.3}}, [], "inner"),
        ({**PAIR, "scenario": "ellipse-in-circle"}, [], "outer"),
        (PAIR, ["--scenario", "circle-in-circle"], "outer"),
    ])
    def test_a_config_pair_is_whole_and_alone(self, config, argv, key, tmp_path, capsys):
        # Each of these once ran a built-in pair and ignored the configured curves.
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert himcf.cli.main(["containment", "--config", str(cfg), *argv,
                               "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig" and repr(key) in err["message"]
        assert not out.exists()


class TestVerify:
    def test_subset_passes_and_prints_lines(self, tmp_path):
        proc, out = run_cli(["verify", "radial", "sphere-identities"], tmp_path)
        report = load_json(out / "verify_report.json")
        assert report["passed"] is True
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert any("tolerance" in l for l in lines)

    def test_unknown_suite_lists_valid_names(self, tmp_path):
        proc, _ = run_cli(["verify", "nonsense"], tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert "radial" in err["message"]


class TestErrorContract:
    def test_every_error_class_has_its_exit_code_in_the_table(self):
        assert {cls.__name__: cls.exit_code for cls in ERROR_CLASSES} == EXIT_CODES

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_an_error_from_a_subcommand_exits_with_its_code_and_one_json_error(
            self, error, tmp_path, capsys, monkeypatch):
        # Reaches the classes no argv raises, such as BracketViolation.
        def raises(args, config, out_dir):
            raise error("raised by the subcommand")

        _, *rest = himcf.cli._COMMANDS["radial"]
        monkeypatch.setitem(himcf.cli._COMMANDS, "radial", (raises, *rest))
        out = tmp_path / "out"
        assert himcf.cli.main(["radial", "--out-dir", str(out)]) == EXIT_CODES[error.__name__]
        assert json.loads(capsys.readouterr().err) == {
            "error": error.__name__, "message": "raised by the subcommand"}
        assert not out.exists()

    def test_invalid_radius_is_exit_1_with_json_error(self, tmp_path):
        proc, _ = run_cli(["radial", "--geometry", "circle", "--r0", "-1"],
                          tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidInitialRadius"
        assert err["message"]

    def test_unknown_geometry_is_exit_1(self, tmp_path):
        proc, _ = run_cli(["radial", "--geometry", "banana"], tmp_path,
                          expect=1)
        err = json.loads(proc.stderr)
        assert "error" in err and "message" in err

    @pytest.mark.parametrize("geometry", ["circle", "cylinder"])
    def test_n_without_a_sphere_is_exit_1(self, geometry, tmp_path):
        proc, _ = run_cli(["radial", "--geometry", geometry, "--n", "3"], tmp_path,
                          expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "takes no dimension parameter" in err["message"]

    def test_nonconvex_fourier_preset_is_exit_1(self, tmp_path):
        proc, _ = run_cli(["curve", "--preset", "fourier", "--coeffs",
                           "1,0,0.5", "--speed", "0"], tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] in ("InvalidConfig", "NotConvex", "ConvexityLost")

    def test_lagrangian_fixed_dt_above_cfl_bound_is_exit_1(self, tmp_path):
        proc, _ = run_cli(["curve", "--solver", "lagrangian", "--preset",
                           "circle", "--r0", "1", "--speed", "0.5", "--dt",
                           "0.2", "--t-end", "1"], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "CflViolation"
        assert "exceeds CFL bound" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["curve", "--N", "17"],
        ["containment", "--N", "17"],
        ["curve", "--speed", "abc"],
        ["radial", "--config", "{forcing_table}"],
        ["radial", "--dt", "inf"],
        ["radial", "--t-end", "inf"],
        ["curve", "--dt", "inf"],
    ])
    def test_bad_config_value_is_exit_1_with_one_json_error(self, argv, tmp_path):
        table = tmp_path / "forcing.json"
        table.write_text(json.dumps({"forcing": {
            "kind": "table", "times": [0.0, "soon"], "values": [0.1, 0.2]}}))
        argv = [a.format(forcing_table=table) for a in argv]
        proc, _ = run_cli(argv, tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] in ("InvalidConfig", "InvalidForcing")
        assert proc.returncode == getattr(himcf.errors, err["error"]).exit_code

    def test_cfl_safety_is_not_an_option(self, tmp_path):
        # No CFL safety factor is settable: a tiny one puts t_end millions of steps away.
        proc, _ = run_cli(["curve", "--cfl-safety", "1e-9", "--t-end", "0.01", "--N", "32",
                           "--vertices", "32"], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "unrecognized arguments: --cfl-safety" in err["message"]

    @pytest.mark.parametrize("solver", ["support", "lagrangian"])
    def test_overflowing_speed_is_exit_1_with_one_json_error(self, solver, tmp_path):
        proc, _ = run_cli(["curve", "--preset", "circle", "--speed", "0,1e200",
                           "--t-end", "0.1", "--solver", solver], tmp_path,
                          expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] in ("NonFinite", "CflViolation")
        assert "dt must be positive" not in err["message"]
        assert proc.returncode == getattr(himcf.errors, err["error"]).exit_code

    @pytest.mark.parametrize("shape", [["--preset", "circle", "--r0", "1e300"],
                                       ["--preset", "fourier", "--coeffs", "1e300"]])
    def test_overflowing_lagrangian_geometry_is_nonfinite(self, shape, tmp_path):
        # The polygon pass overflows to NaN turning angles, so the CFL bound
        # is NaN: NonFinite, not a CflViolation about a NaN step.
        proc, _ = run_cli(["curve", "--solver", "lagrangian", *shape, "--t-end", "0.1"],
                          tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "NonFinite"


    @pytest.mark.parametrize("inner_speed, error", [
        ([0, 5], "CflViolation"),
        ([0, 1e200], "CflViolation"),
        (1e308, "NonFinite"),
    ])
    def test_batched_pair_errors_are_exit_1_with_one_json_error(self, inner_speed, error,
                                                                 tmp_path):
        # The pair starts ordered: the outer speed is a constant at the inner
        # speed's maximum, so no precondition check stops it.  In the CFL cases
        # only the inner member fails; the pair steps as one batch.
        N, dt = 32, 0.05
        theta = AngleGrid(N).theta
        outer_speed = float(np.max(cosine_series(np.atleast_1d(inner_speed), theta)))
        outer = {"preset": "circle", "r0": 2.0, "speed": outer_speed}
        inner = {"preset": "ellipse", "a": 1.2, "b": 0.8, "speed": inner_speed}
        if error == "CflViolation":
            calm = circle_support(AngleGrid(N), 2.0, outer_speed)
            assert FIXED_DT_CFL_LIMIT * cfl_bound([calm.sv, support_derivatives(calm.sv)]) > dt
            state = ellipse_support(AngleGrid(N), 1.2, 0.8, cosine_series(inner_speed, theta))
            assert FIXED_DT_CFL_LIMIT * cfl_bound([state.sv, support_derivatives(state.sv)]) < dt
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({"outer": outer, "inner": inner, "N": N, "dt": dt,
                                   "t_end": 0.2}))
        proc, out = run_cli(["containment", "--config", str(cfg)], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize("outer, inner, message", [
        ({"preset": "circle", "r0": 2.0, "speed": 0.5},
         {"preset": "circle", "r0": 1.0, "speed": 1e200},
         "inner speed is not pointwise <= outer speed at t = 0"),
        ({"preset": "circle", "r0": 1.0, "speed": 0.5},
         {"preset": "ellipse", "a": 1.2, "b": 0.8, "speed": 0.5},
         "inner curve does not start inside the outer"),
    ])
    def test_misordered_pair_fails_before_any_step(self, outer, inner, message, tmp_path,
                                                   capsys, monkeypatch):
        pair = [_support_from_spec(spec, AngleGrid(32)) for spec in (outer, inner)]
        trajectories = run_support_flows([s.S for s in pair], [s.V for s in pair],
                                         FlowConfig(N=32, dt=1e-3, t_end=2e-3))
        with pytest.raises(PreconditionFailed) as after_the_runs:
            check_containment(*trajectories)
        assert str(after_the_runs.value) == message

        def no_runs(*args):
            raise AssertionError("the pair was stepped")

        monkeypatch.setattr(himcf.cli, "run_support_flows", no_runs)
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({"outer": outer, "inner": inner, "N": 32}))
        out = tmp_path / "out"
        assert himcf.cli.main(["containment", "--config", str(cfg),
                               "--out-dir", str(out)]) == 1
        stderr = capsys.readouterr().err
        assert json.loads(stderr) == {"error": "PreconditionFailed", "message": message}
        assert not out.exists()

    def test_empty_ellipse_speed_list_is_exit_1_with_one_json_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "ellipse", "solver": "lagrangian",
                                   "speed": []}))
        proc, out = run_cli(["curve", "--config", str(cfg)], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["radial", "curve", "containment", "verify"])
    def test_non_string_out_dir_is_exit_1_with_one_json_error(self, command, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": 5}))
        # Run where the default out/ would land, so a stray write shows.
        src = os.path.dirname(os.path.dirname(himcf.cli.__file__))
        proc = subprocess.run(CLI + [command, "--config", str(cfg)], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              timeout=60, preexec_fn=cap_address_space)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "out_dir" in err["message"]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unwritable_out_dir_is_exit_1_with_one_json_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        proc, _ = run_cli(["radial"], tmp_path, name="file/x", expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "NotADirectoryError"
        assert "file" in err["message"]

    @pytest.mark.parametrize("eps", ["nan", "0", "-1", "inf"])
    def test_hostile_convexity_floor_is_exit_1_with_one_json_error(self, eps, tmp_path):
        proc, out = run_cli(["containment", "--scenario", "ellipse-in-circle",
                             "--eps-convex", eps], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "eps_convex" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("r0", ["inf", "nan"])
    @pytest.mark.parametrize("forcing", [[], ["--forcing-constant", "0.25"]])
    def test_nonfinite_initial_radius_is_exit_1(self, r0, forcing, tmp_path):
        # A forced run once took r0 = inf through the march: NaN rows, exit 2.
        proc, out = run_cli(["radial", "--r0", r0, *forcing], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidInitialRadius"
        assert "radius" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [["--r0", "1e308"], ["--r1", "1e308"]])
    @pytest.mark.parametrize("forcing", [[], ["--forcing-constant", "0.25"]])
    def test_overflowing_radial_run_is_exit_1(self, value, forcing, tmp_path):
        # The march once overflowed to inf unchecked: NaN error, RuntimeWarnings, exit 2.
        proc, out = run_cli(["radial", *value, *forcing], tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "NonFinite"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curve", "--preset", "ellipse", "--a", "1e300", "--t-end", "0.1"],
        ["curve", "--solver", "lagrangian", "--preset", "ellipse", "--a", "1e200",
         "--t-end", "0.1"],
    ])
    def test_overflowing_ellipse_preset_is_exit_1_with_one_json_error(self, argv, tmp_path):
        # The preset once put numpy's RuntimeWarnings ahead of the JSON error.
        proc, out = run_cli(argv, tmp_path, expect=1)
        assert json.loads(proc.stderr)["error"] == "NonFinite"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["radial", "--r1", "nan", "--forcing-constant", "0.25"],
        ["radial", "--r1", "inf", "--forcing-constant", "0.25"],
        ["radial", "--r1", "nan"],
    ])
    def test_nonfinite_initial_velocity_is_exit_1(self, argv, tmp_path):
        proc, out = run_cli(argv, tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidInitialRadius"
        assert "velocity" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curve", "--dt", "1e-9", "--t-end", "1"],
        ["curve", "--solver", "lagrangian", "--dt", "1e-9", "--t-end", "1"],
        ["radial", "--dt", "1e-12"],
        ["radial", "--dt", "1e-12", "--forcing-constant", "0.25"],
        ["containment", "--dt", "1e-12"],
    ])
    def test_fixed_dt_beyond_the_step_budget_is_exit_1(self, argv, tmp_path):
        # Rejected before the first step.
        proc, out = run_cli(argv, tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "step budget" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curve", "--N", "2000000000"],
        ["curve", "--solver", "lagrangian", "--vertices", "2000000000"],
    ])
    def test_huge_grid_or_vertex_count_is_exit_1(self, argv, tmp_path):
        # Rejected before the first array of that size is allocated.
        proc, out = run_cli(argv, tmp_path, expect=1)
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidConfig"
        assert "65537" in err["message"]
        assert not out.exists()


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": "circle", "r0": 2.0,
                                   "r1": -4.0}))
        _, out = run_cli(["radial", "--config", str(cfg), "--r1", "0"],
                         tmp_path)
        summary = load_json(out / "radial_summary.json")
        assert summary["r0"] == 2.0
        assert summary["r1"] == 0.0
        assert summary["regime"]["regime"] == "ExpandsForever"

    def test_file_values_apply_when_not_overridden(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": "circle", "r0": 1.0,
                                   "r1": -2.0}))
        _, out = run_cli(["radial", "--config", str(cfg)], tmp_path)
        summary = load_json(out / "radial_summary.json")
        assert summary["regime"]["regime"] == "ConvergesToPointFiniteTime"

    # A config value is read as the text of its flag, str(value).
    @pytest.mark.parametrize("command, key, value", [
        ("curve", "N", 16.9),
        ("curve", "vertices", 1.5),
        ("curve", "record_every", 1.5),
        ("radial", "r0", True),
        ("radial", "t_end", int("1" * 401)),
        ("radial", "n", int("1" * 401)),
        ("containment", "scenario", ["x"]),
        ("curve", "solver", ["x"]),
    ], ids=["N-16.9", "vertices-1.5", "record_every-1.5", "r0-true", "t_end-401-digits",
            "n-401-digits", "scenario-list", "solver-list"])
    def test_flag_and_config_key_reject_a_value_alike(self, command, key, value,
                                                      tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        errors = []
        for argv in ([f"--{key.replace('_', '-')}", str(value)], ["--config", str(cfg)]):
            out = tmp_path / "out"
            assert himcf.cli.main([command, *argv, "--out-dir", str(out)]) == 1
            errors.append(json.loads(capsys.readouterr().err))
            assert not out.exists()
        assert errors[0]["error"] == "InvalidConfig"
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("command, options", [
        ("radial", {"geometry": "sphere", "n": 3, "r0": 1.5, "r1": -0.4, "t_end": 0.5}),
        ("curve", {"preset": "ellipse", "a": 1.5, "b": 1, "speed": 0.4, "solver": "both",
                   "N": 32, "vertices": 48, "t_end": 0.05, "record_every": 2}),
        ("containment", {"scenario": "ellipse-in-circle", "N": 32, "t_end": 0.05,
                         "eps_convex": 0.05}),
    ])
    def test_flag_and_config_key_write_the_same_files(self, command, options, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(options))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
        for name, argv in (("flag", flags), ("config", ["--config", str(cfg)])):
            assert himcf.cli.main([command, *argv, "--out-dir", str(tmp_path / name)]) == 0
        names = sorted(os.listdir(tmp_path / "flag"))
        assert names == sorted(os.listdir(tmp_path / "config"))
        for name in names:
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes())

    def test_null_config_value_reads_as_absent(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": "circle", "r0": None, "r1": -2.0}))
        _, out = run_cli(["radial", "--config", str(cfg)], tmp_path)
        assert load_json(out / "radial_summary.json")["r0"] == 1.0

    @pytest.mark.parametrize("text, error", [
        ('{"forcing": {"kind": "constant", "value": %s}}' % ("1" * 401), "InvalidForcing"),
        ('{"forcing": {"kind": "table", "times": [0, 1], "values": [0, %s]}}' % ("1" * 401),
         "InvalidForcing"),
        ('{"forcing": {"kind": "constant", "value": true}}', "InvalidForcing"),
        ('{"t_end": %s}' % ("1" * 5000), "InvalidConfig"),
        ("[" * 100000 + "]" * 100000, "InvalidConfig"),
    ], ids=["huge-constant", "huge-table-value", "true-constant", "5000-digits", "deep"])
    def test_hostile_config_file_is_exit_1_with_one_json_error(self, text, error, tmp_path,
                                                               capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert himcf.cli.main(["radial", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()


class TestDeterminism:
    def test_radial_outputs_are_byte_identical(self, tmp_path):
        args = ["radial", "--geometry", "sphere", "--n", "3", "--r0", "1.5",
                "--r1", "-0.4", "--t-end", "1"]
        _, out_a = run_cli(args, tmp_path, name="a")
        _, out_b = run_cli(args, tmp_path, name="b")
        for fname in ("radial.csv", "radial_summary.json"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()

    def test_curve_outputs_are_byte_identical(self, tmp_path):
        args = ["curve", "--preset", "ellipse", "--a", "1.5", "--b", "1",
                "--speed", "0.4", "--t-end", "0.5"]
        _, out_a = run_cli(args, tmp_path, name="a")
        _, out_b = run_cli(args, tmp_path, name="b")
        for fname in ("curve.csv", "curve_summary.json", "curve.svg"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()

    def test_an_argv_run_twice_in_process_gives_the_same_bytes(self, tmp_path, capsys):
        # One process shares the parser and module state between runs; other
        # subcommands in between, one run and one refused by the parser, must
        # not leak into the second run.
        argv = ["curve", "--preset", "ellipse", "--a", "1.5", "--b", "1",
                "--speed", "0.4", "--t-end", "0.2", "--both-solvers"]

        def run(args, out):
            code = himcf.cli.main([*args, "--out-dir", str(out)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            return code, capsys.readouterr(), files

        first = run(argv, tmp_path / "a")
        assert run(["radial", "--geometry", "sphere", "--n", "3"], tmp_path / "r")[0] == 0
        assert run(["radial", "--no-such-flag"], tmp_path / "e")[0] == 1
        second = run(argv, tmp_path / "b")
        assert first[0] == 0 and sorted(first[2]) == ["curve.csv", "curve.svg",
                                                      "curve_summary.json"]
        assert second == first


def test_import_does_not_load_scipy():
    code = "import sys, himcf, himcf.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("spec", [
    {"preset": "circle", "r0": 1.5, "speed": "-1,0.2"},
    {"preset": "ellipse", "a": 1.3, "b": 0.9, "speed": 0.4},
    {"preset": "fourier", "coeffs": "1,0,0.05", "speed": "-0.5,0,0.1"},
])
def test_curve_and_containment_build_the_same_initial_state(spec, tmp_path,
                                                            monkeypatch):
    starts = []
    real_runs = himcf.cli.run_support_flows

    def recording_runs(S0s, V0s, cfg):
        starts.extend((np.array(S0), np.array(V0)) for S0, V0 in zip(S0s, V0s))
        return real_runs(S0s, V0s, cfg)

    # `curve` runs one member (run_support_flow), `containment` two in one batch.
    monkeypatch.setattr(himcf.flow, "run_support_flows", recording_runs)
    monkeypatch.setattr(himcf.cli, "run_support_flows", recording_runs)
    flags = [f"--{key}={value}" for key, value in spec.items()]
    assert himcf.cli.main(["curve", *flags, "--t-end", "0.01",
                           "--out-dir", str(tmp_path / "curve")]) == 0
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({"outer": spec, "inner": spec, "t_end": 0.01}))
    assert himcf.cli.main(["containment", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "pair")]) == 0
    (S_curve, V_curve), (S_outer, V_outer), _ = starts
    assert np.array_equal(S_curve, S_outer)
    assert np.array_equal(V_curve, V_outer)
