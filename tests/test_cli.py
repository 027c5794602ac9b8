"""Black-box CLI coverage: exit codes, formats, determinism, round trips."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from confhess import cli, conformal, radial_solver, symfun


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bubble_config(tmp_path, **overrides):
    op = symfun.SigmaKRoot(n=4, k=2)
    bub = conformal.bubble_profile(4)
    cfg = radial_solver.SolverConfig(
        operator=op, domain=(0.1, 2.0), grid=48,
        rhs=float(symfun.eval_op(op, np.full(4, 2.0))),
        boundary_left=float(bub.radial_value(0.1)),
        boundary_right=float(bub.radial_value(2.0)),
        initial_guess={"kind": "profile", "name": "bubble:scale=1",
                       "sin_amplitude": 0.05})
    doc = cfg.to_dict()
    doc.update(overrides)
    path = tmp_path / "bubble_annulus.json"
    path.write_text(json.dumps(doc))
    return path


def test_eval_prints_value_and_exits_zero(capsys):
    code, out, _ = run(capsys, "eval", "--op", "sigma-root:k=2", "--n", "3",
                       "--lambda", "1,1,1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_eval_outside_cone_exits_one(capsys):
    code, _, err = run(capsys, "eval", "--op", "sigma-root:k=2", "--n", "3",
                       "--lambda", "1,1,-0.5")
    assert code == 1
    assert "cone" in err


def test_unknown_subcommand_and_operator_are_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--op", "mystery", "--n", "3",
                       "--lambda", "1,1,1")
    assert code == 3
    assert "usage error" in err
    code, _, _ = run(capsys, "frobnicate")
    assert code == 3


#: Arguments completing a command for each descriptor flag, and malformed
#: descriptors for it: an unknown head, an unknown key, a duplicate key, a
#: key without a value and a value that is not a finite number.
DESCRIPTOR_COMMANDS = {
    "--op": ["eval", "--n", "3", "--lambda", "3,1,2"],
    "--cone": ["cone", "--n", "3", "--lambda", "1,1,1"],
    "--profile": ["schouten", "--n", "3", "--x", "0.5,0,0"],
    "--background": ["schouten", "--n", "3", "--x", "0.5,0,0", "--profile", "const:c=1"],
}
MALFORMED_DESCRIPTORS = {
    "--op": ["mystery:k=1", "pucci:k=1,delt=0.25", "sigma-root:k=2,k=3", "sigma-root:k"],
    "--cone": ["wedge:k=2", "gamma:kk=2", "gamma:k=2,k=3", "gamma:k="],
    "--profile": ["blob:scale=1", "bubble:scal=0.5", "bubble:scale=1,scale=2", "bubble:scale",
                  "bubble:scale=nan", "bubble:scale=inf", "bubble:scale=1e999"],
    "--background": ["torus:a=1", "sphere:radius=2", "sphere:a=1,a=2", "sphere:a",
                     "sphere:a=nan", "sphere:a=inf"],
}


@pytest.mark.parametrize("flag", list(MALFORMED_DESCRIPTORS))
def test_malformed_descriptors_are_usage_errors(capsys, flag):
    for text in MALFORMED_DESCRIPTORS[flag]:
        code, _, err = run(capsys, *DESCRIPTOR_COMMANDS[flag], flag, text)
        assert code == 3, text
        assert err.startswith("usage error"), text


def test_out_of_range_inputs_exit_one_without_traceback(capsys):
    for argv in (["cone", "--cone", "gamma:k=2", "--n", "3", "--lambda", "inf,1,1"],
                 ["cone", "--cone", "gamma:k=2", "--n", "3", "--lambda", "nan,1,1"],
                 ["inclusion", "--k", "2", "--n", "3", "--samples", "0"],
                 ["harnack", "--delta", "nan", "--n", "4"],
                 ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--kind", "grad",
                  "--radius", "0"],
                 ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--kind", "hess",
                  "--radius", "0"],
                 ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--kind", "grad",
                  "--radius", "1", "--samples", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "" and err.startswith("error:"), argv


def test_overflow_is_a_numeric_failure_or_a_correct_margin(capsys):
    # lam = (a, a, 1) with a = 1e308: sigma_2(lam + t 1) = (a + t)(3 t + a + 2), so
    # the margin is (a + 2)/3, though sigma_2(lam) itself overflows
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda", "1e308,1e308,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["boundary_shift"] == pytest.approx(-1e308 / 3, rel=1e-15)
    code, out, err = run(capsys, "eval", "--op", "sigma-root:k=2", "--n", "3",
                         "--lambda", "1e308,1e308,1")
    assert code == 2
    assert out == "" and err.startswith("numeric failure:")
    # the gradient is 0-homogeneous, so it is evaluated on the scaled row
    code, out, _ = run(capsys, "grad", "--op", "sigma-root:k=2", "--n", "3",
                       "--lambda", "1e308,1e308,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["gradient"] == pytest.approx([0.5, 0.5, 1.0], rel=1e-15)


def test_membership_far_from_unit_scale(capsys):
    # (a, a, c): sigma_2(lam + t 1) = (a + t)(3 t + a + 2 c), largest root -(a + 2 c)/3,
    # though sigma_2(lam) = a (a + 2 c) = 2e615 overflows
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda=1e308,1e308,-4e307", "--format", "json")
    assert code == 0
    assert json.loads(out)["boundary_shift"] == pytest.approx(-2e307 / 3, rel=1e-13)
    # all equal a: sigma_2(lam + t 1) = 3 (a + t)^2, root -a; sigma_2 = 3e-400 underflows
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda=1e-200,1e-200,1e-200", "--format", "json")
    assert code == 0
    assert json.loads(out)["boundary_shift"] == pytest.approx(-1e-200, rel=1e-13)
    # sigma_3 = 1e200 is finite but 1e200 / 2^664 = 1.3e-200 cubed would underflow
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=3", "--n", "3",
                       "--lambda=1e200,1,1")
    assert (code, out) == (0, "inside (margin 1)\n")
    code, out, _ = run(capsys, "eval", "--op", "sigma-root:k=3", "--n", "3",
                       "--lambda=1e200,1,1")
    assert code == 0 and float(out) == pytest.approx(1e200 ** (1 / 3), rel=1e-14)
    # min + delta sum = 1 + (2e308 + 1)/2 overflows; t* = -(1e308 + 1.5)/2.5
    code, out, _ = run(capsys, "cone", "--cone", "sigma:delta=0.5", "--n", "3",
                       "--lambda=1e308,1e308,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["boundary_shift"] == pytest.approx(-4e307, rel=1e-13)


def test_value_rounded_to_zero_is_a_numeric_failure(capsys):
    for op in ("sigma-root:k=2", "inv-power"):
        code, out, err = run(capsys, "eval", "--op", op, "--n", "3",
                             "--lambda=1e-200,1e-200,1e-200")
        assert code == 2, op
        assert out == "" and err.startswith("numeric failure:"), op


def test_overflow_prints_only_the_cli_message(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("always")     # print every warning, as a shell user sees it
        for lam in ("1e308,1e308,1", "1e308,1e308,-4e307"):
            code, out, err = run(capsys, "eval", "--op", "sigma-root:k=2", "--n", "3",
                                 "--lambda=" + lam)
            assert code == 2 and out == "", lam
            assert err.startswith("numeric failure:") and err.count("\n") == 1, err


def test_number_lists_may_start_with_a_minus_sign(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda", "-0.5,1,1")
    assert code == 1 and "sigma_2" in out
    code, out, _ = run(capsys, "schouten", "--profile", "bubble:scale=1", "--n", "4",
                       "--x", "-0.5,0,0,0")
    assert code == 0
    assert np.allclose([float(t) for t in out.split(",")], 2.0, atol=1e-10)
    code, _, err = run(capsys, "bishop-gromov", "--profile", "bubble:scale=1", "--n", "4",
                       "--radii", "-1,2")
    assert code == 1 and "radii" in err
    seen = []
    monkeypatch.setattr(radial_solver, "continuation_p",
                        lambda cfg, schedule: seen.append(schedule) or [])
    code, _, _ = run(capsys, "continue-p", "--config", str(write_bubble_config(tmp_path)),
                     "--p-schedule", "-1,2.5")
    assert code == 0 and seen == [[-1.0, 2.5]]


def test_cone_outside_message_and_exit(capsys):
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda", "1,1,-0.5")
    assert code == 1
    assert out.startswith("outside")
    assert "sigma_2" in out
    code, out, _ = run(capsys, "cone", "--cone", "gamma:k=2", "--n", "3",
                       "--lambda", "1,1,-0.4")
    assert code == 0
    assert out.startswith("inside")


def test_grad_json(capsys):
    code, out, _ = run(capsys, "grad", "--op", "sigma-root:k=1", "--n", "4",
                       "--lambda", "1,2,3,4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gradient"] == [1.0, 1.0, 1.0, 1.0]
    assert doc["smooth"] is True


def test_axioms_json_zero_violations(capsys):
    code, out, _ = run(capsys, "axioms", "--op", "sigma-root:k=2", "--n", "4",
                       "--samples", "2000", "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_violations"] == 0


def test_inclusion_text(capsys):
    code, out, _ = run(capsys, "inclusion", "--k", "2", "--n", "4",
                       "--samples", "5000", "--seed", "3")
    assert code == 0
    assert "0 violations" in out


def test_schouten_bubble(capsys):
    code, out, _ = run(capsys, "schouten", "--profile", "bubble:scale=1", "--n", "4",
                       "--x", "0.5,0,0,0")
    assert code == 0
    vals = [float(t) for t in out.strip().split(",")]
    assert np.allclose(vals, 2.0, atol=1e-10)


def test_schouten_sphere_background(capsys):
    code, out, _ = run(capsys, "schouten", "--profile", "const:c=1", "--n", "4",
                       "--background", "sphere:a=1", "--x", "0,0,0,0")
    assert code == 0
    vals = [float(t) for t in out.strip().split(",")]
    assert np.allclose(vals, 0.5, atol=1e-12)


def test_kelvin_round_trip_eigenvalues(capsys):
    code, out, _ = run(capsys, "kelvin", "--profile", "const:c=1", "--n", "4",
                       "--x", "2,0,0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2.0 ** (2 - 4), rel=1e-14)
    assert np.allclose(doc["eigenvalues"], 0.0, atol=1e-10)


def test_solve_json_and_determinism(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, _, _ = run(capsys, "solve", "--config", str(cfg_path), "--format", "json",
                     "--out", str(out_a))
    assert code == 0
    code, _, _ = run(capsys, "solve", "--config", str(cfg_path), "--format", "json",
                     "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["result"]["converged"] is True
    # emitted config reloads to an equivalent configuration
    again = radial_solver.SolverConfig.from_dict(doc["config"])
    assert again.to_dict() == doc["config"]


def test_solve_profile_out_reloads(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path)
    prof_path = tmp_path / "sol.txt"
    code, out, _ = run(capsys, "solve", "--config", str(cfg_path),
                       "--profile-out", str(prof_path))
    assert code == 0
    assert "converged: True" in out
    prof = conformal.load_radial_profile(prof_path, 4)
    assert prof.radial_value(1.0) == pytest.approx(0.5, abs=1e-3)


def test_solve_nonconvergence_exits_two(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path,
                                   tolerances={"residual": 1e-10, "max_newton": 1,
                                               "min_damping": 2.0 ** -20})
    code, out, _ = run(capsys, "solve", "--config", str(cfg_path))
    assert code == 2
    assert "converged: False" in out


def test_solve_fine_grid_converges_at_the_rounding_floor(capsys):
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "bubble_annulus.json"
    code, out, _ = run(capsys, "solve", "--config", str(config), "--grid", "1024")
    assert code == 0
    assert "converged: True" in out and "status: converged (rounding floor)" in out


def test_solve_csv_profile(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path)
    code, out, _ = run(capsys, "solve", "--config", str(cfg_path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,v"
    assert len(lines) == 50  # header + 49 nodes


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"operator": "sigma-root:k=2", "n": 4}))
    code, _, err = run(capsys, "solve", "--config", str(path))
    assert code == 3
    assert "domain" in err


@pytest.mark.parametrize("override, message", [
    ({"grid": 64.0}, "usage error: config: field 'grid' has wrong type\n"),
    ({"grdi": 64}, "usage error: config: unknown field 'grdi'\n"),
], ids=["grid=64.0", "grdi=64"])
def test_config_usage_error_is_prefixed_once(tmp_path, capsys, override, message):
    path = write_bubble_config(tmp_path, **override)
    assert run(capsys, "solve", "--config", str(path)) == (3, "", message)


@pytest.mark.parametrize("flag, value, field", [("--p", "nan", "exponent_p"),
                                                ("--rhs", "inf", "rhs"),
                                                ("--grid", "8", "grid")])
def test_solver_flag_overrides_are_checked(tmp_path, capsys, flag, value, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", "--config", str(write_bubble_config(tmp_path)),
                             flag, value)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["schouten", "kelvin"])
@pytest.mark.parametrize("x", ["1,2", "1,0,0,0,0", "nan,0,0,0", "1,inf,0,0"])
def test_point_must_have_n_finite_coordinates(capsys, command, x):
    code, out, err = run(capsys, command, "--profile", "bubble:scale=1", "--n", "4", f"--x={x}")
    assert (code, out) == (3, "")
    assert err == f"usage error: --x must be 4 finite numbers, got '{x}'\n"


def test_continue_p(tmp_path, capsys):
    op = symfun.SigmaKRoot(n=4, k=2)
    bub = conformal.bubble_profile(4)
    cfg = radial_solver.SolverConfig(
        operator=op, domain=(0.5, 2.0), grid=48,
        rhs=float(symfun.eval_op(op, np.full(4, 2.0))),
        boundary_left=float(bub.radial_value(0.5)),
        boundary_right=float(bub.radial_value(2.0)),
        initial_guess={"kind": "profile", "name": "bubble:scale=1"})
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code, out, _ = run(capsys, "continue-p", "--config", str(path),
                       "--p-schedule", "3.0,3.25,3.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] == [True, True, True]
    assert all(d < 0.2 for d in doc["sup_distances"])


def test_converge_study(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path, grid=32)
    code, out, _ = run(capsys, "converge", "--config", str(cfg_path),
                       "--refinements", "2", "--exact", "bubble:scale=1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 2
    assert 1.7 < doc["orders"][0] < 2.3


def test_converge_reports_no_order_for_zero_errors(tmp_path, capsys):
    # the exact bubble as guess, accepted as it is: both sup-errors are 0
    cfg_path = write_bubble_config(tmp_path, grid=16, initial_guess={
        "kind": "profile", "name": "bubble:scale=1"}, tolerances={"residual": 2})
    code, out, err = run(capsys, "converge", "--config", str(cfg_path),
                         "--refinements", "2", "--exact", "bubble:scale=1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "orders: -"


def test_monitor_and_harnack_json_are_the_report_fields(tmp_path, capsys):
    code, out, _ = run(capsys, "monitor", "--profile", "bubble", "--n", "4", "--radius", "1",
                       "--format", "json")
    assert (code, out) == (0, '{\n  "kind": "gradient",\n  "radius": 1,\n'
                              '  "supremum": 0.60056620913824832,\n  "location": 0.4859,\n'
                              '  "direction": "radial",\n  "samples": 10001\n}\n')
    table = tmp_path / "w.txt"
    table.write_text("0 1\n0.5 2\n2 -1\n")
    code, out, _ = run(capsys, "harnack", "--delta", "0.25", "--n", "4",
                       "--samples-file", str(table), "--format", "json")
    assert (code, out) == (0, '{\n  "delta": 0.25,\n  "n": 4,\n  "beta": 0.40000000000000002,\n'
                              '  "seminorm": 2.5508490012515819,\n  "samples": 3\n}\n')


def test_radial_monitor_finds_a_peak_narrower_than_its_step(capsys):
    # the sup (1 - scale^2) / scale lies at |x| = scale, inside the first step 1e-4
    # of the scan, which printed 19801.98 and 19999.9998; the rescans of the
    # first two steps find it
    for scale, rel in ((1e-5, 1e-10), (1e-150, 1e-6)):
        code, out, err = run(capsys, "monitor", "--profile", f"bubble:scale={scale:g}",
                             "--n", "4", "--radius", "1", "--format", "json")
        doc = json.loads(out)
        assert (code, err, doc["direction"]) == (0, "", "radial"), scale
        assert doc["supremum"] == pytest.approx((1.0 - scale ** 2) / scale, rel=rel), scale
        assert doc["location"] == pytest.approx(scale, rel=1e-3), scale
    # the Hessian monitor's maximizer is the center, which no rescan moves
    code, out, _ = run(capsys, "monitor", "--profile", "bubble:scale=1e-5", "--n", "4",
                       "--radius", "1", "--kind", "hess", "--format", "json")
    assert json.loads(out) == {"kind": "hessian", "radius": 1.0, "supremum": 200000.0,
                               "location": 0.0, "direction": "radial", "samples": 10001}


def test_monitor_subcommand(capsys):
    code, out, _ = run(capsys, "monitor", "--profile", "bubble:scale=1", "--n", "4",
                       "--kind", "grad", "--radius", "1.0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gradient"
    assert doc["supremum"] > 0.0


def test_bishop_gromov_csv(capsys):
    code, out, _ = run(capsys, "bishop-gromov", "--profile", "const:c=1",
                       "--gauge", "u", "--n", "3",
                       "--radii", "0.5,1.0,1.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,Q"
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-8)


def test_harnack_beta_and_seminorm(tmp_path, capsys):
    code, out, _ = run(capsys, "harnack", "--delta", "0.25", "--n", "4")
    assert code == 0
    assert float(out.strip().split("=")[1]) == 0.4
    code, _, _ = run(capsys, "harnack", "--delta", "0.5", "--n", "4")
    assert code == 1  # delta = 1/(n-2) leaves the admissible range
    radii = np.geomspace(0.1, 1.0, 20)
    table = tmp_path / "w.txt"
    np.savetxt(table, np.column_stack([radii, 2.0 * np.log(radii)]))
    code, out, _ = run(capsys, "harnack", "--delta", "0.25", "--n", "4",
                       "--samples-file", str(table), "--format", "json")
    assert code == 0
    assert json.loads(out)["seminorm"] > 0.0


@pytest.mark.parametrize("rows, code, message", [
    ("0 1\n1 nan\n2 3\n", 1, "error: sample points and values must be finite\n"),
    ("0 1\ninf 2\n2 3\n", 1, "error: sample points and values must be finite\n"),
    ("0 1e308\n1 -1e308\n", 2, "numeric failure: sampled Holder seminorm leaves the float "
                               "range\n"),
], ids=["nan", "inf", "huge"])
def test_harnack_samples_report_no_nan_or_inf_as_success(tmp_path, capsys, rows, code, message):
    # these once printed "seminorm = nan" or "= inf" with exit 0 and a RuntimeWarning
    table = tmp_path / "w.txt"
    table.write_text(rows)
    assert run(capsys, "harnack", "--delta", "0.25", "--n", "4",
               "--samples-file", str(table)) == (code, "", message)


def test_harnack_samples_far_from_unit_scale(tmp_path, capsys):
    # |x - y|^2 overflows here; the seminorm is 1e200 / (1e200)^0.4 = 1e120
    table = tmp_path / "w.txt"
    table.write_text("0 1\n1e200 1e200\n")
    code, out, err = run(capsys, "harnack", "--delta", "0.25", "--n", "4",
                         "--samples-file", str(table), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["seminorm"] == pytest.approx(1e120, rel=1e-12)


def test_flags_override_config(tmp_path, capsys):
    cfg_path = write_bubble_config(tmp_path)
    code, out, _ = run(capsys, "solve", "--config", str(cfg_path), "--grid", "32",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid"] == 32
    assert len(doc["result"]["r"]) == 33


def test_profile_file_input(tmp_path, capsys):
    r = np.linspace(0.2, 2.0, 300)
    v = conformal.bubble_profile(4).radial_value(r)
    path = tmp_path / "bubble.txt"
    np.savetxt(path, np.column_stack([r, v]), fmt="%.17g")
    code, out, _ = run(capsys, "schouten", "--profile-file", str(path), "--n", "4",
                       "--x", "1,0,0,0")
    assert code == 0
    vals = [float(t) for t in out.strip().split(",")]
    assert np.allclose(vals, 2.0, atol=1e-3)


@pytest.mark.parametrize("argv", [
    ("schouten", "--profile-file", "nope.txt", "--n", "4", "--x", "1,0,0,0"),
    ("harnack", "--delta", "0.25", "--n", "4", "--samples-file", "nope.txt"),
], ids=["profile-file", "samples-file"])
def test_missing_input_file_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and "'nope.txt'" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("schouten", "--n", "4", "--x", "1,0,0,0", "--profile-file"),
    ("harnack", "--delta", "0.25", "--n", "4", "--samples-file"),
], ids=["profile-file", "samples-file"])
def test_empty_input_file_is_a_usage_error_without_a_warning(capsys, tmp_path, argv):
    # np.loadtxt warns on a file that holds no data
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, str(empty))
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and "no data" in err and err.count("\n") == 1, err


def test_out_into_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "harnack", "--delta", "0.25", "--n", "4", "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith(f"usage error: cannot write --out '{target}'"), err
    assert err.count("\n") == 1 and not target.parent.exists()


def test_monitor_at_an_infinite_radius_is_a_domain_error(capsys):
    code, out, err = run(capsys, "monitor", "--profile", "bubble:scale=1", "--n", "4",
                         "--radius", "inf")
    assert (code, out) == (1, "")
    assert err == "error: need a finite positive radius and samples, got inf, 10001\n"


#: Address space (bytes) and seconds allowed to a child running an input that once
#: doubled its integration panels without end.
CHILD_ADDRESS_SPACE = 1 << 30
CHILD_SECONDS = 60


def run_capped(argv):
    """The CLI run on ``argv`` in a child process whose address space is capped,
    under a timeout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
             "from confhess import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True,
                          env=env, timeout=CHILD_SECONDS, check=False)


@pytest.mark.parametrize("radii", ["nan", "0.5,inf"])
def test_bishop_gromov_at_non_finite_radii_is_a_domain_error(radii):
    # A regression ran out of memory here, so the CLI runs in a capped child.
    proc = run_capped(["bishop-gromov", "--profile", "bubble:scale=1", "--n", "4",
                       f"--radii={radii}"])
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == "error: radii must be finite and positive\n"


@pytest.mark.parametrize("argv, message", [
    (["const", "--n", "5", "--radii=1e300"], "leaves the float range"),
    (["bubble", "--gauge", "w", "--n", "6", "--radii=1e300"], "leaves the float range"),
    (["bubble:scale=1e-150", "--n", "3", "--radii=2.67,1.77"], "does not converge in 2^23 points"),
], ids=["const", "bubble", "narrow-bubble"])
def test_volume_integral_that_cannot_converge_is_a_numeric_failure(argv, message):
    # the Simpson sums of an overflowing integrand, or of a peak 1e-150 wide, never
    # agreed, and the panel doublings of the whole 2048-cell table went on to 2^23
    # panels per cell, many GB: tested only in the capped child
    proc = run_capped(["bishop-gromov", "--profile", *argv])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"numeric failure: integral {message}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--grid"],
    ["inclusion", "--k", "2", "--n", "4", "--samples"],
    ["axioms", "--op", "sigma-root:k=2", "--n", "4", "--samples"],
    ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--radius", "1", "--samples"],
], ids=["solve", "inclusion", "axioms", "monitor"])
def test_inputs_too_large_for_memory_are_a_numeric_failure(tmp_path, argv):
    # Only ever in the capped child: without the cap the allocation of 80 GB
    # may succeed lazily and exhaust the machine's memory.
    if argv[0] == "solve":
        argv = [*argv[:1], "--config", str(write_bubble_config(tmp_path)), *argv[1:]]
    proc = run_capped([*argv, "10000000000"])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1, \
        proc.stderr


def test_negative_seed_is_a_usage_error_naming_its_source(capsys, monkeypatch):
    code, out, err = run(capsys, "axioms", "--op", "sigma-root:k=2", "--n", "4",
                         "--samples", "10", "--seed", "-1")
    assert (code, out, err) == (3, "", "usage error: --seed must be a non-negative "
                                       "integer, got -1\n")
    monkeypatch.setenv("CHL_SEED", "-5")
    code, out, err = run(capsys, "inclusion", "--k", "2", "--n", "4", "--samples", "10")
    assert (code, out, err) == (3, "", "usage error: CHL_SEED must be a non-negative "
                                       "integer, got -5\n")


def test_seed_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHL_SEED", "99")
    _, out_env, _ = run(capsys, "inclusion", "--k", "2", "--n", "4",
                        "--samples", "2000", "--format", "json")
    monkeypatch.delenv("CHL_SEED")
    _, out_flag, _ = run(capsys, "inclusion", "--k", "2", "--n", "4",
                         "--samples", "2000", "--seed", "99", "--format", "json")
    assert out_env == out_flag


def test_float_serialization_17_digits(capsys):
    code, out, _ = run(capsys, "eval", "--op", "sigma-root:k=2", "--n", "3",
                       "--lambda", "1,1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == np.sqrt(3.0)  # bit-faithful round trip


def test_non_finite_delta_is_a_usage_error(capsys):
    for delta in ("inf", "-inf", "nan"):
        for argv in (["cone", "--cone", f"sigma:delta={delta}", "--lambda", "1,2,3"],
                     ["eval", "--op", f"pucci:k=2,delta={delta}", "--lambda", "1,2,3"],
                     ["eval", "--op", f"shifted:delta={delta},inner=inv-power",
                      "--lambda", "1,2,3"]):
            code, out, err = run(capsys, *argv, "--n", "3")
            assert code == 3 and out == "", argv
            assert err.startswith("usage error") and "finite delta" in err, argv


def test_gamma_n_margin_is_exact_at_every_magnitude(capsys):
    # -min lam_i, though 1e-300 is below 2^-1074 of the row maximum; sigma with
    # delta = 0 is the same cone
    for cone in ("gamma:k=3", "sigma:delta=0"):
        code, out, _ = run(capsys, "cone", "--cone", cone, "--n", "3",
                           "--lambda=1e300,1e-300,1")
        assert (code, out) == (0, "inside (margin 1e-300)\n"), cone
    # sigma's sum term is taken on the scaled row, where 2e308 does not overflow
    code, out, _ = run(capsys, "cone", "--cone", "sigma:delta=0", "--n", "3",
                       "--lambda=1e308,1e308,1")
    assert (code, out) == (0, "inside (margin 1)\n")
    code, out, _ = run(capsys, "cone", "--cone", "sigma:delta=1e308", "--n", "3",
                       "--lambda=1e308,1e308,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["boundary_shift"] == pytest.approx(-1e308 / 3 * 2, rel=1e-15)


def test_gradient_is_exact_where_sigma_leaves_the_float_range(capsys):
    # sigma_k over- or underflows, but the gradient is 0-homogeneous
    cases = (("sigma-root:k=2", "1e200,1e200,1e200", [3 ** -0.5] * 3),
             ("sigma-root:k=3", "1e150,1e150,1e150", [1 / 3] * 3),
             ("quotient:k=3,l=1", "1e200,1e200,1e200", [3 ** -1.5] * 3),
             ("quotient:k=2,l=1", "1e-300,2e-300,3e-300", [19 / 36, 13 / 36, 7 / 36]),
             ("shifted:delta=1e300,inner=sigma-root:k=2", "1,2,3", [3 ** 0.5 * 1e300] * 3))
    for op, lam, want in cases:
        code, out, err = run(capsys, "grad", "--op", op, "--n", "3", f"--lambda={lam}",
                             "--format", "json")
        assert (code, err) == (0, ""), op
        assert json.loads(out)["gradient"] == pytest.approx(want, rel=1e-14), op


def test_axioms_at_a_huge_delta_is_a_numeric_failure(capsys):
    for op in ("pucci:k=2,delta=1e308", "shifted:delta=1e308,inner=sigma-root:k=2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "axioms", "--op", op, "--n", "3", "--samples", "200")
        assert code == 2 and out == "", op
        assert err.startswith("numeric failure:") and "float range" in err, op


def test_trace_shift_overflow_is_a_numeric_failure(capsys):
    # every entry is finite, but lam + sum(lam) (1,..,1) overflows
    for command in ("eval", "grad"):
        for op in ("shifted:delta=1,inner=inv-power", "ricci:inner=sigma-root:k=2",
                   "shifted:delta=1,inner=pucci:k=1,delta=0", "ricci:inner=pucci:k=1,delta=0"):
            code, out, err = run(capsys, command, "--op", op, "--n", "3",
                                 "--lambda=1e308,1e308,1e308")
            assert code == 2 and out == "", (command, op)
            assert err.startswith("numeric failure:"), (command, op)


def test_schouten_eigenvalues_out_of_float_range_are_a_numeric_failure(capsys):
    # scale^2 rounds to 0 and v^(-(n+2)/(n-2)) overflows at this scale: once printed
    # -inf,inf,inf,inf with exit 0
    for command in ("schouten", "kelvin"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--profile", "bubble:scale=1e-300",
                                 "--n", "4", "--x=1,0,0,0")
        assert code == 2 and out == "", command
        assert err.startswith("numeric failure:") and "float range" in err, command


def test_bubble_schouten_eigenvalues_far_from_unit_scale(capsys):
    # both once printed 0,0,0,0 with exit 0: at scale 1e100 v' and v'' underflowed
    # before v^-3 multiplied them; at 1e-100 scale^2 is lost against |x|^2, and
    # v'' and v'^2 / v cancel to rounding noise
    for scale, code_expected in (("1e100", 0), ("1e60", 0), ("1", 0), ("1e-100", 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "schouten", "--profile", f"bubble:scale={scale}",
                                 "--n", "4", "--x=1,0,0,0")
        assert code == code_expected, scale
        if code == 0:
            assert np.max(np.abs(np.array(out.split(","), dtype=float) - 2.0)) <= 1e-12, scale
        else:
            assert out == "" and err.startswith("numeric failure:"), scale
            assert "does not resolve its curvature at radius 1\n" in err, scale


def test_bubble_resolution_fails_only_the_schouten_eigenvalues_it_loses(capsys):
    # the gradient monitor follows scale -> 0 on v and v' alone; Schouten and Kelvin
    # keep answering where the cancellation costs digits but not all of them
    argvs = [("monitor", "--profile", "bubble:scale=1e-5", "--n", "4", "--radius", "1",
              "--kind", "grad"),
             ("monitor", "--profile", "bubble:scale=1e-8", "--n", "4", "--radius", "1",
              "--kind", "hess"),
             ("schouten", "--profile", "bubble", "--n", "4", "--x=1e4,0,0,0"),
             ("kelvin", "--profile", "bubble", "--n", "4", "--x=1e-4,0,0,0")]
    for argv in argvs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        if argv[0] != "monitor":
            eigs = np.array(out.splitlines()[-1].split(","), dtype=float)
            assert np.max(np.abs(eigs - 2.0)) <= 1e-6, argv
    code, out, err = run(capsys, "kelvin", "--profile", "bubble", "--n", "4", "--x=1e-8,0,0,0")
    assert code == 2 and out == ""
    assert err == "numeric failure: bubble:scale=1 does not resolve its curvature at radius 1e+08\n"


def test_huge_bubble_and_sphere_scales_are_a_numeric_failure(capsys):
    # scale^2 and a^2 overflow a Python float: once an OverflowError traceback
    point = ("--n", "4", "--x=1,0,0,0")
    cases = [(cmd, "--profile", f"bubble:scale={scale}") + point
             for cmd in ("schouten", "kelvin") for scale in ("1e155", "1e200", "1e300")]
    cases += [("monitor", "--profile", "bubble:scale=1e200", "--n", "4", "--radius", "1"),
              ("bishop-gromov", "--profile", "bubble:scale=1e200", "--n", "4",
               "--radii", "0.5"),
              ("schouten", "--profile", "const:c=1", "--background", "sphere:a=1e200") + point]
    for argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("numeric failure:") and "float range" in err, argv


def test_monitors_and_volume_ratios_report_no_nan_as_success(capsys):
    # each once printed nan with exit 0, or a RuntimeWarning: the cutoff's x^2 / r^2
    # is 0 / 0 at r = 1e-300, r^n and the ball volume underflow, and the U-gauge
    # chain rule overflows at scale 1e-150 (the exact sup 2 / scale is finite), as
    # do derivatives that the last two commands compute but do not use
    # (bishop-gromov at radius 1e-300 now answers: see the test below)
    bubble = ("--profile", "bubble", "--n", "4")
    cases = [(("monitor",) + bubble + ("--radius", "1e-300"), 0, 4e-300 / (3 * np.sqrt(3.0))),
             (("monitor",) + bubble + ("--radius", "1e-300", "--kind", "hess"), 0, 2.0),
             (("monitor", "--profile", "bubble:scale=1e-150", "--n", "4", "--radius", "1",
               "--kind", "hess"), 2, None),
             (("monitor", "--profile", "bubble:scale=1e-150", "--n", "4", "--radius", "1"),
              0, 9.9999984575044473e149),
             (("bishop-gromov", "--profile", "const:c=1e-200", "--n", "4", "--radii", "1"),
              1, None)]
    for argv, code_expected, sup in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == code_expected and "Traceback" not in err, (argv, err)
        if code == 0:
            assert err == "" and not NON_FINITE.search(out), (argv, out)
            assert float(out.split(" sup ")[1].split()[0]) == pytest.approx(sup, rel=1e-9), argv
        else:
            assert out == "", argv


def test_volume_ratio_at_tiny_radii_is_one(capsys):
    # Q = 1 up to the quadrature tolerance, where r^n and the ball volume
    # underflow (at 1e-81 and 1e-300 this exited 2)
    for radius in ("1e-78", "1e-81", "1e-300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bishop-gromov", "--profile", "bubble", "--n", "4",
                                 "--radii", radius)
        assert code == 0 and err == "", (radius, err)
        r, q = (float(f.split("=")[1]) for f in out.split())
        assert r == float(radius) and abs(q - 1.0) <= 1e-9, (radius, out)


def test_schouten_and_kelvin_far_from_unit_scale_warn_nothing(capsys):
    # each printed a RuntimeWarning (overflow in |x|, in a gauge power or in the
    # Kelvin value at huge |x|) before exiting with the code pinned here; the
    # exits 1 are the positivity check meeting a factor that underflowed to 0
    cases = [
        ("schouten --profile const:c=1 --n 3 --x=0,0,1e300", 0),
        ("schouten --profile bubble --gauge w --background sphere --n 4 --x=0.5,1e308,0,0", 1),
        ("schouten --profile const --gauge u --background sphere --n 4 --x=1,0,0,1e154", 2),
        ("schouten --profile inversion:C=5e-324 --gauge u --n 4 --x=1,0.5,0,0", 2),
        ("schouten --profile inversion:C=1e-100 --gauge u --n 6 --x=0.3,0.8,0,0,0.7,1.6", 2),
        ("kelvin --profile const:c=6 --n 4 --x=-1.6,-1e300,-1.4,-1.6", 1),
        ("kelvin --profile inversion --gauge u --n 5 --x=-0.5,1.5,1.2,1e154,-0.4", 1),
        ("kelvin --profile bubble:scale=1e150 --gauge u --n 4 --x=-1,1.2,-1.9,-1e-300", 2),
    ]
    for argv, code_expected in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        assert code == code_expected and "Traceback" not in err, (argv, err)
        if code == 0:
            assert err == "" and not NON_FINITE.search(out), (argv, out)
            assert [float(v) for v in out.split(",")] == [0.0] * 3, (argv, out)


# ---------------------------------------------------------------------------
# Property tests: every eval/grad/cone/axioms/inclusion/schouten/kelvin/monitor/
# bishop-gromov/harnack call, and every solve of a config document, ends with a
# documented exit code
# ---------------------------------------------------------------------------

#: Seconds an example may run before it fails as a hang.
EXAMPLE_SECONDS = 10.0


@contextlib.contextmanager
def wall_clock_limit(seconds, context):
    """Fail the running example, naming ``context``, once it has run ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s: {context}")

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)


def assert_documented_exit(argv, context=None):
    """Run the CLI in process under the wall-clock guard and check its exit
    contract: a documented code, no traceback or warning, and no non-finite
    number reported as success.  ``context`` (default ``argv``) names the
    example in failure messages."""
    context = argv if context is None else context
    out, err = io.StringIO(), io.StringIO()
    with wall_clock_limit(EXAMPLE_SECONDS, context), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), context
    assert not caught, (context, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (context, err)
    if code == 0:
        assert err == "" and not NON_FINITE.search(out), (context, out)


#: Numbers at the edges of the float range, as a shell user would type them.
EDGE_NUMBERS = ("nan", "NaN", "inf", "-inf", "+inf", "0", "-0", "1e308", "-1e308",
                "1.7976931348623157e308", "1e-308", "2.2250738585072014e-308", "5e-324",
                "-5e-324", "1e-300", "1e300", "1e400", "-1e-400")
EDGE_DELTAS = ("nan", "inf", "-inf", "0", "1e308", "-1e308", "5e-324", "-0.5")
NON_FINITE = re.compile(r"(?<![a-z])(nan|-?inf)(?![a-z])", re.IGNORECASE)


def mostly(usual, rare):
    """``usual`` five times in six, else ``rare``."""
    return st.sampled_from((False,) * 5 + (True,)).flatmap(lambda r: rare if r else usual)


def numbers():
    return st.one_of(st.floats(0.0, 10.0), st.floats(-10.0, 10.0),
                     st.floats(width=64)).map(repr) | st.sampled_from(EDGE_NUMBERS)


def deltas():
    return mostly(st.sampled_from(("0.25", "1", "0.5")), st.sampled_from(EDGE_DELTAS))


def malformed(text):
    """``text`` cut short, with a character dropped, or with junk appended."""
    return st.one_of(
        st.integers(0, len(text)).map(lambda i: text[:i]),
        st.integers(0, len(text) - 1).map(lambda i: text[:i] + text[i + 1:]),
        st.sampled_from((",", "=", ":", ",k=2", ",delta=1", ",inner=inv-power", "x"))
        .map(lambda s: text + s))


@st.composite
def operator_descriptors(draw, n, depth=0):
    k = draw(mostly(st.integers(1, n), st.integers(-1, 9)))
    l = draw(mostly(st.integers(0, k - 1), st.integers(-1, 9))) if k >= 1 else 0
    heads = ["sigma-root", "quotient", "pucci", "inv-power", "inv-monomial"]
    head = draw(st.sampled_from(heads + ["shifted", "ricci"] * (depth < 2)))
    if head in ("shifted", "ricci"):
        inner = draw(operator_descriptors(n, depth + 1))
        text = (f"shifted:delta={draw(deltas())},inner={inner}" if head == "shifted"
                else f"ricci:inner={inner}")
    else:
        text = {"sigma-root": f"sigma-root:k={k}", "quotient": f"quotient:k={k},l={l}",
                "pucci": f"pucci:k={k},delta={draw(deltas())}", "inv-power": "inv-power",
                "inv-monomial": f"inv-monomial:k={k}"}[head]
    return draw(mostly(st.just(text), malformed(text)))


@st.composite
def cone_descriptors(draw, n):
    text = draw(st.one_of(
        mostly(st.integers(1, n), st.integers(-1, 9)).map(lambda k: f"gamma:k={k}"),
        deltas().map(lambda d: f"sigma:delta={d}")))
    return draw(mostly(st.just(text), malformed(text)))


#: Profile parameters far from unit scale, or outside the domain.
EDGE_PARAMETERS = ("1e-300", "1e-150", "1e-100", "1e-8", "1e8", "1e100", "1e150", "1e300",
                   "5e-324", "1.7976931348623157e308", "0", "-1", "nan", "inf")
#: Ball radii: zero, negative, non-finite, tiny and huge.
EDGE_RADII = ("0", "-1", "nan", "inf", "1e-300", "1e300")
#: Point coordinates: zeros, huge and tiny entries.
EDGE_COORDINATES = ("0", "-0", "1e300", "-1e300", "1e154", "1e-154", "1e-300", "-1e-300",
                    "5e-324", "1.7976931348623157e308")


@st.composite
def profile_descriptors(draw):
    head, key = draw(st.sampled_from((("const", "c"), ("inversion", "C"), ("bubble", "scale"))))
    value = draw(mostly(st.floats(0.1, 10.0).map(repr), st.sampled_from(EDGE_PARAMETERS)))
    text = draw(mostly(st.just(f"{head}:{key}={value}"), st.just(head)))
    return draw(mostly(st.just(text), malformed(text)))


def backgrounds():
    radius = mostly(st.floats(0.1, 10.0).map(repr), st.sampled_from(EDGE_PARAMETERS))
    sphere = radius.map(lambda a: f"sphere:a={a}")
    return mostly(st.sampled_from(("flat", "sphere")) | sphere,
                  sphere.flatmap(malformed) | st.just("flat:a=1"))


def radii():
    return mostly(st.floats(0.1, 10.0).map(repr), st.sampled_from(EDGE_RADII))


def coordinates():
    return mostly(st.floats(-2.0, 2.0).map(repr), st.sampled_from(EDGE_COORDINATES))


def samples_files(directory):
    """No arguments, or ``--samples-file`` of drawn rows written under ``directory``:
    mostly a point and a value, else one to three numbers."""
    pairs = st.tuples(numbers(), numbers()).map(" ".join)
    rows = st.lists(mostly(pairs, st.lists(numbers(), min_size=1, max_size=3).map(" ".join)),
                    max_size=6)

    def write(lines):
        path = directory / "drawn_samples.txt"
        path.write_text("".join(line + "\n" for line in lines))
        return ["--samples-file", str(path)]

    return st.just([]) | rows.map(write)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cli_exits_with_a_documented_code_on_any_input(tmp_path_factory, data):
    n = data.draw(mostly(st.integers(3, 6), st.integers(0, 9)), label="n")
    command = data.draw(st.sampled_from(("eval", "grad", "cone", "axioms", "schouten", "kelvin",
                                         "monitor", "bishop-gromov", "inclusion", "harnack")),
                        label="command")
    fmt = data.draw(st.sampled_from(("text", "json")), label="format")
    if command == "inclusion":
        k = data.draw(mostly(st.integers(1, max(n, 1)), st.integers(-1, 9)), label="k")
        samples = data.draw(mostly(st.integers(1, 2000), st.integers(-2, 0)), label="samples")
        seed = data.draw(mostly(st.integers(0, 2 ** 64) | st.just(None), st.integers(-9, -1)),
                         label="seed")
        assert_documented_exit([command, "--k", str(k), "--n", str(n), "--samples", str(samples),
                                *([] if seed is None else ["--seed", str(seed)]),
                                "--format", fmt])
        return
    if command == "harnack":
        flag = data.draw(samples_files(tmp_path_factory.getbasetemp()), label="samples file")
        assert_documented_exit([command, "--delta", data.draw(deltas(), label="delta"),
                                "--n", str(n), *flag, "--format", fmt])
        return
    if command in ("schouten", "kelvin", "monitor", "bishop-gromov"):
        args = ["--profile", data.draw(profile_descriptors(), label="profile"),
                "--gauge", data.draw(st.sampled_from(conformal.GAUGES), label="gauge"),
                "--background", data.draw(backgrounds(), label="background")]
        if command == "monitor":
            samples = data.draw(mostly(st.integers(1, 2000), st.integers(-2, 0)), label="samples")
            args += ["--kind", data.draw(st.sampled_from(("grad", "hess")), label="kind"),
                     "--radius=" + data.draw(radii(), label="radius"), "--samples", str(samples)]
        elif command == "bishop-gromov":
            args.append("--radii=" + ",".join(data.draw(st.lists(radii(), min_size=1, max_size=4),
                                                        label="radii")))
        else:
            size = data.draw(mostly(st.just(n), st.integers(0, 9)), label="size")
            x = ",".join(data.draw(st.lists(coordinates(), min_size=size, max_size=size),
                                   label="x"))
            args += data.draw(st.sampled_from((["--x", x], ["--x=" + x])))
        assert_documented_exit([command, *args, "--n", str(n), "--format", fmt])
        return
    if command == "cone":
        flag, descriptor = "--cone", data.draw(cone_descriptors(max(n, 1)), label="cone")
    else:
        flag, descriptor = "--op", data.draw(operator_descriptors(max(n, 1)), label="op")
    if command == "axioms":
        samples = data.draw(mostly(st.integers(1, 16), st.integers(-2, 0)), label="samples")
        args = ["--samples", str(samples)]
    else:
        size = data.draw(mostly(st.just(n), st.integers(0, 9)), label="size")
        lam = ",".join(data.draw(st.lists(numbers(), min_size=size, max_size=size),
                                 label="lambda"))
        args = data.draw(st.sampled_from((["--lambda", lam], ["--lambda=" + lam])))
    assert_documented_exit([command, flag, descriptor, "--n", str(n), *args, "--format", fmt])


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "bubble_annulus.json"
#: Valid values of every field of the demo config, the demo's own first; the
#: tolerances instead come from a small set that keeps every solve cheap.
VALID_FIELDS = {
    ("operator",): ("sigma-root:k=2", "sigma-root:k=1", "quotient:k=2,l=1"),
    ("n",): (4,),
    ("cone",): (None, "gamma:k=2"),
    ("domain",): ([0.1, 2.0], [0.5, 2.0], [0.0, 2.0]),
    ("grid",): (16, 32, 64),
    ("rhs",): (4.898979485566356, 4.0, 6.0),
    ("boundary", "left"): (0.9900990099009901, 0.8, "symmetry"),
    ("boundary", "right"): (0.2, 0.25),
    ("exponent_p",): (None, 3.0, 3.5),
    ("initial_guess", "kind"): ("profile",),
    ("initial_guess", "name"): ("bubble:scale=1", "bubble:scale=0.9"),
    ("initial_guess", "sin_amplitude"): (0.05, 0.0),
    ("tolerances", "residual"): (1e-10, 1e-6),
    ("tolerances", "max_newton"): (8, 1, 4),
    ("tolerances", "min_damping"): (2.0 ** -6, 0.5, 1.0),
}
#: Invalid values by kind; in a list field one entry takes the value.
INVALID_VALUES = {
    "wrong-typed": ("text", True, [1.0], {"key": 1.0}, 2),
    "non-finite": (float("nan"), float("inf"), float("-inf")),
    "zero or negative": (0, 0.0, -1, -0.5),
}


@st.composite
def config_documents(draw):
    """The demo config with each field valid, and up to two of them missing,
    invalid or joined by an unknown key."""
    doc = json.loads(DEMO_CONFIG.read_text())
    for (*section, key), values in VALID_FIELDS.items():
        (doc[section[0]] if section else doc)[key] = draw(mostly(st.just(values[0]),
                                                                 st.sampled_from(values)))
    kinds = ("missing", "unknown key", *INVALID_VALUES)
    for (*section, key), kind in draw(st.lists(st.tuples(st.sampled_from(list(VALID_FIELDS)),
                                                         st.sampled_from(kinds)), max_size=2)):
        target = doc[section[0]] if section else doc
        if kind == "missing":
            target.pop(key, None)
        elif kind == "unknown key":
            target[key + "s"] = target.get(key)
        elif isinstance(target.get(key), list):
            target[key] = list(target[key])
            target[key][draw(st.integers(0, len(target[key]) - 1))] = draw(
                st.sampled_from(INVALID_VALUES[kind]))
        else:
            target[key] = draw(st.sampled_from(INVALID_VALUES[kind]))
    return doc


#: Exponents for ``--p-schedule``: the config's own, others that converge, and edges.
SCHEDULE_EXPONENTS = ("3.0", "3.25", "3.5", "2.5", "4", "0", "-1", "1e300", "nan", "inf")


def solver_commands():
    """``solve``, ``continue-p`` with a drawn ``--p-schedule`` of one to three
    exponents, or ``converge`` with one or two refinements (rarely an invalid
    count) and a drawn ``--exact`` profile."""
    exponents = mostly(st.sampled_from(SCHEDULE_EXPONENTS[:3]),
                       st.sampled_from(SCHEDULE_EXPONENTS) | numbers())
    schedule = st.lists(exponents, min_size=1, max_size=3).map(",".join)
    schedule = mostly(schedule, schedule.flatmap(malformed))
    refinements = mostly(st.integers(1, 2), st.integers(-1, 0))
    return st.one_of(
        st.just(["solve"]),
        schedule.map(lambda s: ["continue-p", "--p-schedule=" + s]),
        st.tuples(refinements, mostly(st.just("bubble:scale=1"), profile_descriptors()))
        .map(lambda a: ["converge", "--refinements", str(a[0]), "--exact", a[1]]))


@settings(max_examples=450, deadline=None)     # solve in over 150 of them
@given(doc=config_documents(), command=solver_commands(), fmt=st.sampled_from(("text", "json")))
def test_solve_exits_with_a_documented_code_on_any_config(tmp_path_factory, doc, command, fmt):
    path = tmp_path_factory.getbasetemp() / "drawn_config.json"
    path.write_text(json.dumps(doc))
    argv = [*command, "--config", str(path), "--format", fmt]
    event(command[0])
    assert_documented_exit(argv, (argv, json.dumps(doc)))
