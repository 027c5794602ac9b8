"""Black-box CLI coverage: exit codes, formats, determinism, round trips."""

import json
import warnings

import numpy as np
import pytest

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
#: descriptors for it: an unknown head, an unknown key, a duplicate key and
#: a key without a value.
DESCRIPTOR_COMMANDS = {
    "--op": ["eval", "--n", "3", "--lambda", "3,1,2"],
    "--cone": ["cone", "--n", "3", "--lambda", "1,1,1"],
    "--profile": ["schouten", "--n", "3", "--x", "0.5,0,0"],
    "--background": ["schouten", "--n", "3", "--x", "0.5,0,0", "--profile", "const:c=1"],
}
MALFORMED_DESCRIPTORS = {
    "--op": ["mystery:k=1", "pucci:k=1,delt=0.25", "sigma-root:k=2,k=3", "sigma-root:k"],
    "--cone": ["wedge:k=2", "gamma:kk=2", "gamma:k=2,k=3", "gamma:k="],
    "--profile": ["blob:scale=1", "bubble:scal=0.5", "bubble:scale=1,scale=2", "bubble:scale"],
    "--background": ["torus:a=1", "sphere:radius=2", "sphere:a=1,a=2", "sphere:a"],
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
                 ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--kind", "grad",
                  "--radius", "0"],
                 ["monitor", "--profile", "bubble:scale=1", "--n", "4", "--kind", "hess",
                  "--radius", "0"]):
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
    for command in ("eval", "grad"):
        code, out, err = run(capsys, command, "--op", "sigma-root:k=2", "--n", "3",
                             "--lambda", "1e308,1e308,1")
        assert code == 2, command
        assert out == "" and err.startswith("numeric failure:"), command


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
