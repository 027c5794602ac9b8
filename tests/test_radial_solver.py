"""Radial Newton solver: residuals, Jacobian, convergence, continuation."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import cones
from confhess import conformal as cf
from confhess import radial_solver as rs
from confhess import symfun
from confhess.errors import AdmissibilityError, DomainError, NumericError, UsageError

N_DIM = 4
PHI_BUBBLE = 2.0 * np.sqrt(6.0)  # sigma_2^(1/2) at (2, 2, 2, 2)


def bubble_cfg(domain=(0.1, 2.0), grid=64, sin_amplitude=0.05, operator=None, **kw):
    op = operator or symfun.SigmaKRoot(n=N_DIM, k=2)
    bub = cf.bubble_profile(N_DIM)
    phi = float(symfun.eval_op(op, np.full(N_DIM, 2.0)))
    return rs.SolverConfig(
        operator=op, domain=domain, grid=grid, rhs=phi,
        boundary_left=float(bub.radial_value(domain[0])),
        boundary_right=float(bub.radial_value(domain[1])),
        initial_guess={"kind": "profile", "name": "bubble:scale=1",
                       "sin_amplitude": sin_amplitude},
        **kw)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_of_exact_bubble_is_second_order():
    # sigma_1 of (2,2,2,2) is 8: the bubble is an exact root of the
    # continuum equation, so only the stencil truncation error remains
    op = symfun.SigmaKRoot(n=N_DIM, k=1)
    bub = cf.bubble_profile(N_DIM)
    norms = {}
    for grid in (64, 128):
        cfg = rs.SolverConfig(operator=op, domain=(0.1, 2.0), grid=grid, rhs=8.0,
                              boundary_left=float(bub.radial_value(0.1)),
                              boundary_right=float(bub.radial_value(2.0)))
        res = rs.residual(cfg, bub.radial_value(cfg.nodes()))
        norms[grid] = float(np.max(np.abs(res)))
    assert norms[64] < 0.05
    assert 3.4 < norms[64] / norms[128] < 4.6


def test_residual_constant_profile_equals_minus_phi():
    # a constant has zero eigenvalues, f = 0 on the cone boundary, so the
    # interior rows read -phi and the boundary rows vanish
    op = symfun.SigmaKRoot(n=N_DIM, k=2)
    cfg = rs.SolverConfig(operator=op, domain=(0.5, 1.5), grid=32, rhs=3.0,
                          boundary_left=2.0, boundary_right=2.0)
    res = rs.residual(cfg, np.full(33, 2.0))
    assert np.allclose(res[1:-1], -3.0, atol=1e-12)
    assert res[0] == 0.0 and res[-1] == 0.0


def test_residual_marks_undefined_nodes_with_nan():
    op = symfun.SigmaKRoot(n=N_DIM, k=2)
    cfg = rs.SolverConfig(operator=op, domain=(0.5, 1.5), grid=32, rhs=3.0,
                          boundary_left=1.0, boundary_right=1.0)
    v = np.ones(33)
    v[16] = 1.4  # spike: sigma_2 of the eigentuple goes negative nearby
    res = rs.residual(cfg, v)
    margins = rs.admissibility_margins(cfg, v)
    assert np.any(np.isnan(res)) or np.any(margins >= 0.0)


def test_residual_shape_validation():
    cfg = bubble_cfg()
    with pytest.raises(DomainError):
        rs.residual(cfg, np.ones(10))


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def banded_to_dense(ab):
    m = ab.shape[1]
    J = np.zeros((m, m))
    J[np.arange(m), np.arange(m)] = ab[1]
    J[np.arange(m - 1), np.arange(1, m)] = ab[0, 1:]
    J[np.arange(1, m), np.arange(m - 1)] = ab[2, :-1]
    return J


@pytest.mark.parametrize("op_text", ["sigma-root:k=2", "quotient:k=2,l=1",
                                     "pucci:k=1,delta=0.25"])
def test_jacobian_matches_finite_differences(op_text):
    op = symfun.parse_operator(op_text, N_DIM)
    bub = cf.bubble_profile(N_DIM)
    phi = float(symfun.eval_op(op, np.full(N_DIM, 2.0)))
    cfg = rs.SolverConfig(operator=op, domain=(0.1, 2.0), grid=32, rhs=phi,
                          boundary_left=float(bub.radial_value(0.1)),
                          boundary_right=float(bub.radial_value(2.0)))
    rng = np.random.default_rng(19)
    r = cfg.nodes()
    bump = 0.03 * np.sin(rng.uniform(1.0, 3.0) * r + rng.uniform(0.0, 6.0))
    v = bub.radial_value(r) * (1.0 + bump)
    assert np.all(rs.admissibility_margins(cfg, v) < 0.0)
    J = banded_to_dense(rs.jacobian(cfg, v))
    h = 1e-6
    for j in range(v.size):
        e = np.zeros(v.size)
        e[j] = h
        col = (rs.residual(cfg, v + e) - rs.residual(cfg, v - e)) / (2 * h)
        denom = np.maximum(np.abs(col), 1.0)
        assert np.max(np.abs(J[:, j] - col) / denom) < 1e-4


def test_jacobian_symmetry_node():
    op = symfun.SigmaKRoot(n=N_DIM, k=2)
    bub = cf.bubble_profile(N_DIM)
    cfg = rs.SolverConfig(operator=op, domain=(0.0, 0.8), grid=32, rhs=PHI_BUBBLE,
                          boundary_left="symmetry",
                          boundary_right=float(bub.radial_value(0.8)))
    v = bub.radial_value(cfg.nodes())
    J = banded_to_dense(rs.jacobian(cfg, v))
    h = 1e-6
    for j in (0, 1):
        e = np.zeros(v.size)
        e[j] = h
        col = (rs.residual(cfg, v + e) - rs.residual(cfg, v - e)) / (2 * h)
        denom = np.maximum(np.abs(col), 1.0)
        assert np.max(np.abs(J[:, j] - col) / denom) < 1e-4


# ---------------------------------------------------------------------------
# admissibility margins
# ---------------------------------------------------------------------------

def two_valued_margins(n, k, a, b):
    """``admissibility_margins`` under ``GammaK(n, k)`` of a node state whose
    tuples are the rows ``(a, b, .., b)``, and ``boundary_shift`` of the same rows."""
    lam = np.repeat(np.asarray(b, dtype=float).reshape(-1, 1), n, axis=1)
    lam[:, 0] = a
    cone = cones.GammaK(n, k)
    cfg = rs.SolverConfig(operator=symfun.SigmaKRoot(n=n, k=1), domain=(0.1, 2.0), grid=16,
                          rhs=1.0, boundary_left=1.0, boundary_right=1.0, cone=cone)
    nodes = rs._Nodes(r=None, h=None, v1=None, v2=None, lam_rad=lam[:, 0], lam_tan=lam[:, 1])
    return rs.admissibility_margins(cfg, lam[:, 0], nodes=nodes), cones.boundary_shift(cone, lam)


def assert_margins_agree(n, k, a, b):
    closed, shift = two_valued_margins(n, k, a, b)
    tol = 8 * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    assert np.all(np.abs(closed - shift) <= tol), (n, k, a, b, closed, shift)


#: Mantissas in [-2, 2] whose smallest nonzero magnitude, 2^-52, stays a normal
#: number at the scale 2^-500.
MANTISSAS = st.integers(-2 ** 53, 2 ** 53).map(lambda i: i / 2.0 ** 52)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 8), data=st.data(), a=MANTISSAS, b=MANTISSAS,
       scale=st.sampled_from((-500, 0, 500)) | st.integers(-500, 500))
def test_two_valued_gamma_k_margin_matches_boundary_shift(n, data, a, b, scale):
    k = data.draw(st.integers(1, n), label="k")
    assert_margins_agree(n, k, np.ldexp([a], scale), np.ldexp([b], scale))


@pytest.mark.parametrize("n", range(3, 9))
def test_two_valued_gamma_k_margin_fixed_cases(n):
    # a < b, a > b, a = b; rows inside and outside the cone (t* > 0); 2^-500 to 2^500
    a = np.array([0.25, 3.0, 1.0, -1.0, -5.0, 1.0, 0.0, -2.0, 2.0, 1.0, -1.0])
    b = np.array([1.0, 0.5, 1.0, -1.0, 1.0, -0.3, 1.0, 0.0, -0.1, -1.0, 0.1])
    for k in range(1, n + 1):
        for scale in (-500, 0, 500):
            assert_margins_agree(n, k, np.ldexp(a, scale), np.ldexp(b, scale))
        closed, shift = two_valued_margins(n, k, a, b)
        assert np.any(closed > 0.0) and np.any(closed < 0.0)
        assert np.array_equal(closed < 0.0, shift < 0.0)


@pytest.mark.parametrize("cone", ["gamma:k=1", "gamma:k=2", "gamma:k=4", "sigma:delta=0.5"])
def test_margins_of_non_finite_node_tuples_are_nan(cone):
    cfg = bubble_cfg(cone=cones.parse_cone(cone, N_DIM))
    lam = np.array([[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0], [-np.inf, np.inf], [2.0, 1.0]])
    lam = np.repeat(lam, [1, N_DIM - 1], axis=1)
    nodes = rs._Nodes(r=None, h=None, v1=None, v2=None, lam_rad=lam[:, 0], lam_tan=lam[:, 1])
    with np.errstate(all="raise"):
        out = rs.admissibility_margins(cfg, lam[:, 0], nodes=nodes)
    assert np.all(np.isnan(out[:-1])) and out[-1] < 0.0


def test_node_margins_match_boundary_shift_of_the_node_tuples():
    cfg = bubble_cfg(grid=64)
    v = rs.initial_vector(cfg)
    lam = rs.node_eigentuples(cfg, v)
    shift = cones.boundary_shift(cfg.admissibility_cone, lam)
    tol = 8 * np.finfo(float).eps * np.max(np.abs(lam), axis=1)
    assert np.all(np.abs(rs.admissibility_margins(cfg, v) - shift) <= tol)


@pytest.mark.parametrize("grid", [64, 256])
def test_newton_makes_one_node_pass_per_trial(monkeypatch, grid):
    # bench/spans.py counts Newton steps by the Jacobians under newton_solve and
    # line-search trials by its admissibility_margins calls, less one per solve
    calls = dict.fromkeys(("admissibility_margins", "jacobian", "node_eigentuples"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(rs, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rs, name, counted)
    eigs = []
    monkeypatch.setattr(cf, "radial_jet_eigs",
                        lambda *args, _fn=cf.radial_jet_eigs: eigs.append(1) or _fn(*args))
    out = rs.newton_solve(bubble_cfg(grid=grid))
    assert out.message == "converged"
    assert calls["jacobian"] == out.newton_steps
    assert calls["admissibility_margins"] == 1 + sum(h["trials"] for h in out.history)
    assert calls["node_eigentuples"] <= calls["admissibility_margins"]
    assert len(eigs) == calls["admissibility_margins"]


@pytest.mark.parametrize("op_text", ["sigma-root:k=2", "quotient:k=2,l=1", "inv-power",
                                     "ricci:inner=sigma-root:k=2"])
def test_newton_stays_on_the_two_valued_pair_path(monkeypatch, op_text):
    # residual and Jacobian read the operator's closed form on (lam_rad, lam_tan);
    # the sorted (m, n) path of value and gradient is never taken
    calls = []
    for name in ("value", "gradient"):
        monkeypatch.setattr(symfun.CurvatureOperator, name,
                            lambda self, lam, _fn=getattr(symfun.CurvatureOperator, name),
                            _name=name: calls.append(_name) or _fn(self, lam))
    cfg = bubble_cfg(grid=64, operator=symfun.parse_operator(op_text, N_DIM))
    calls.clear()
    out = rs.newton_solve(cfg)
    assert out.newton_steps > 0
    assert calls == []


# ---------------------------------------------------------------------------
# newton_solve
# ---------------------------------------------------------------------------

def test_newton_converges_to_bubble_with_admissible_iterates():
    cfg = bubble_cfg(grid=64)
    seen = []
    out = rs.newton_solve(cfg, iterate_hook=lambda v, m: seen.append(np.max(m)))
    assert out.converged
    assert out.residual_norm < cfg.residual_tol
    assert np.all(out.margins < 0.0)
    assert all(m < 0.0 for m in seen) and len(seen) == out.newton_steps + 1
    bub = cf.bubble_profile(N_DIM)
    assert np.max(np.abs(out.v - bub.radial_value(out.r))) < 1e-3


def test_newton_semilinear_converges_quickly():
    out = rs.newton_solve(bubble_cfg(operator=symfun.SigmaKRoot(n=N_DIM, k=1)))
    assert out.converged
    # observed iteration oracle: measured, small; only convergence is a
    # hard requirement
    assert out.newton_steps <= 12


def test_newton_exact_init_zero_steps_with_discrete_tolerance():
    # with a tolerance above the truncation error the exact profile is a
    # discrete fixed point: no Newton step is taken
    cfg = dataclasses.replace(bubble_cfg(grid=128, sin_amplitude=0.0),
                              residual_tol=5e-3)
    out = rs.newton_solve(cfg)
    assert out.converged and out.newton_steps == 0


def test_newton_rejects_inadmissible_init():
    op = symfun.SigmaKRoot(n=N_DIM, k=2)
    cfg = rs.SolverConfig(operator=op, domain=(0.5, 1.5), grid=32, rhs=3.0,
                          boundary_left=2.0, boundary_right=2.0,
                          initial_guess="geometric")
    # geometric interpolation of equal boundary values is a constant: its
    # eigenvalues sit on the cone boundary
    with pytest.raises(AdmissibilityError) as err:
        rs.newton_solve(cfg)
    assert err.value.node is not None


def test_newton_reports_damping_underflow_instead_of_spurious_root():
    # flat-metric Dirichlet data cannot support f = phi > 0: from an
    # admissible start the iterates head for the cone boundary and the line
    # search underflows; no spurious root is reported
    inv = cf.inversion_profile(N_DIM)
    cfg = rs.SolverConfig(operator=symfun.SigmaKRoot(n=N_DIM, k=2),
                          domain=(0.5, 2.0), grid=48, rhs=PHI_BUBBLE,
                          boundary_left=float(inv.radial_value(0.5)),
                          boundary_right=float(inv.radial_value(2.0)),
                          initial_guess={"kind": "profile", "name": "bubble:scale=1"})
    out = rs.newton_solve(cfg)
    assert not out.converged
    assert out.message == "damping underflow"
    assert len(out.history) >= 2


def test_history_and_result_record_why_trials_were_rejected():
    # the grid-128 stall at amplitude 0.08: every trial of its last search
    # leaves the cone at the Dirichlet node 0
    out = rs.newton_solve(bubble_cfg(grid=128, sin_amplitude=0.08))
    assert (out.message, out.newton_steps) == ("damping underflow", 7)
    assert out.residual_norm == pytest.approx(2.3186, abs=0.005)
    assert out.rejected == ["margin"] * 21
    assert out.to_dict()["rejected"] == out.rejected
    assert out.history[0]["rejected"] == []
    reasons = {"positivity", "margin", "retention", "residual"}
    for h in out.history[1:]:
        assert len(h["rejected"]) == h["trials"] - 1 and set(h["rejected"]) <= reasons
    done = rs.newton_solve(bubble_cfg(grid=256))
    assert done.converged and done.rejected == []
    assert {r for h in done.history for r in h["rejected"]} == {"margin", "residual"}


#: Bubble-annulus cells of the basin, by (grid, sin_amplitude), that converge;
#: every other cell of BASIN_GRIDS x BASIN_AMPLITUDES fails.
BASIN_GRIDS = (64, 128, 256, 512, 1024)
BASIN_AMPLITUDES = (-0.1, -0.08, -0.05, 0.0, 0.05, 0.06, 0.07, 0.08, 0.1)
BASIN = {(g, a) for g in BASIN_GRIDS for a in (-0.05, 0.0, 0.05)} | {(64, 0.06), (128, 0.06)}


def test_basin_of_the_bubble_annulus():
    # the line search's decrease test on ||F||_2 keeps the basin of the max-norm
    # test cell by cell and converges in fewer steps (16 steps and 64 trials at
    # grid 256 under the max-norm test)
    outs = {(32, 0.05): rs.newton_solve(bubble_cfg(grid=32))}
    for grid in BASIN_GRIDS:
        for amp in BASIN_AMPLITUDES:
            outs[grid, amp] = out = rs.newton_solve(bubble_cfg(grid=grid, sin_amplitude=amp))
            assert out.converged == ((grid, amp) in BASIN), (grid, amp, out.message)
    for grid, most in {32: 5, 64: 6, 128: 10, 256: 16}.items():    # under the max-norm test
        assert outs[grid, 0.05].converged and outs[grid, 0.05].newton_steps <= most, grid
    out = outs[256, 0.05]
    assert out.newton_steps <= 8 and sum(h["trials"] for h in out.history) <= 14


def test_newton_evaluates_the_operator_once_per_residual(monkeypatch):
    # the Jacobian of an accepted trial reads the two_valued triple its residual
    # computed, and is bitwise the Jacobian computed afresh
    calls = dict.fromkeys(("residual", "two_valued"), 0)
    for owner, name in ((rs, "residual"), (symfun.Quotient, "two_valued")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = bubble_cfg(grid=256)
    out = rs.newton_solve(cfg)
    assert out.converged and calls["residual"] > out.newton_steps
    assert calls["two_valued"] == calls["residual"]
    st = rs._nodes(cfg, out.v, out.r)
    rs.residual(cfg, out.v, nodes=st)
    assert st.pair is not None
    assert np.array_equal(rs.jacobian(cfg, out.v, nodes=st), rs.jacobian(cfg, out.v))


def test_tridiagonal_solve_is_lapack_gtsv():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(5)
    for m in (65, 257, 1025, 4097):
        ab = rng.standard_normal((3, m))
        b = rng.standard_normal(m)
        assert np.array_equal(rs.solve_banded((1, 1), ab, b), solve_banded((1, 1), ab, b))
    ab = np.zeros((3, 5))
    ab[1] = [1.0, 1.0, 0.0, 1.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError):
        rs.solve_banded((1, 1), ab, np.ones(5))
    ab[1] = 2.0
    assert not np.all(np.isfinite(rs.solve_banded((1, 1), ab, np.array([1, np.nan, 1, 1, 1.0]))))
    with pytest.raises(ValueError, match="tridiagonal only"):
        rs.solve_banded((2, 1), np.ones((4, 5)), np.ones(5))


def test_non_finite_residual_is_a_non_finite_newton_step(monkeypatch):
    # scipy's solve_banded rejected a non-finite right-hand side with a ValueError
    def spoiled(cfg, v, *, nodes=None, _fn=rs.residual):
        res = _fn(cfg, v, nodes=nodes)
        res[5] = np.nan
        return res

    monkeypatch.setattr(rs, "residual", spoiled)
    with pytest.raises(NumericError, match="non-finite Newton step"):
        rs.newton_solve(bubble_cfg(grid=64))


def test_newton_inversion_data_geometric_init_is_inadmissible():
    inv = cf.inversion_profile(N_DIM)
    cfg = rs.SolverConfig(operator=symfun.SigmaKRoot(n=N_DIM, k=2),
                          domain=(0.5, 2.0), grid=48, rhs=PHI_BUBBLE,
                          boundary_left=float(inv.radial_value(0.5)),
                          boundary_right=float(inv.radial_value(2.0)),
                          initial_guess="geometric")
    with pytest.raises(AdmissibilityError):
        rs.newton_solve(cfg)


def test_newton_symmetry_ball():
    bub = cf.bubble_profile(N_DIM)
    cfg = rs.SolverConfig(operator=symfun.SigmaKRoot(n=N_DIM, k=2),
                          domain=(0.0, 0.8), grid=64, rhs=PHI_BUBBLE,
                          boundary_left="symmetry",
                          boundary_right=float(bub.radial_value(0.8)))
    # even perturbation: the symmetry condition needs v'(0) = 0
    r = cfg.nodes()
    cfg = dataclasses.replace(
        cfg, initial_guess=bub.radial_value(r) * (1.0 + 0.03 * np.sin(np.pi * r / 0.8) ** 2))
    out = rs.newton_solve(cfg)
    assert out.converged
    assert abs(out.v1[0]) < 1e-12  # symmetry: v'(0) = 0 by construction
    assert np.max(np.abs(out.v - bub.radial_value(out.r))) < 2e-3


def test_sin_amplitude_guess_is_even_at_a_symmetry_boundary():
    # the sine's slope at r0 = 0 was a kink once mirrored by the ghost node,
    # which made the initial guess inadmissible at node 0
    bub = cf.bubble_profile(N_DIM)
    cfg = rs.SolverConfig(operator=symfun.SigmaKRoot(n=N_DIM, k=2),
                          domain=(0.0, 2.0), grid=64, rhs=PHI_BUBBLE,
                          boundary_left="symmetry",
                          boundary_right=float(bub.radial_value(2.0)),
                          initial_guess={"kind": "profile", "name": "bubble:scale=1",
                                         "sin_amplitude": 0.05})
    v0 = rs.initial_vector(cfg)
    assert v0[0] == pytest.approx(1.05 * bub.radial_value(0.0), rel=1e-15)
    assert v0[-1] == pytest.approx(float(bub.radial_value(2.0)), rel=1e-15)
    out = rs.newton_solve(cfg)
    assert out.converged
    assert np.max(np.abs(out.v - bub.radial_value(out.r))) < 2e-3


def test_residual_descent_along_history():
    cfg = bubble_cfg(grid=48)
    out = rs.newton_solve(cfg)
    norms = [h["residual"] for h in out.history]
    assert all(b < a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# convergence study and gauge sanity
# ---------------------------------------------------------------------------

def test_convergence_study_second_order():
    study = rs.convergence_study(bubble_cfg(grid=32), 3, cf.bubble_profile(N_DIM))
    assert len(study.levels) == 3
    for order in study.orders:
        assert 1.7 < order < 2.3


def test_convergence_study_second_order_down_to_the_rounding_floor():
    # grids 512 and 1024 stop at the rounding floor, not in damping underflow
    study = rs.convergence_study(bubble_cfg(grid=32), 6, cf.bubble_profile(N_DIM))
    assert [g for g, _ in study.levels] == [32, 64, 128, 256, 512, 1024]
    for order in study.orders:
        assert 1.7 < order < 2.3


def test_convergence_study_of_a_solution_exact_at_the_nodes_has_no_order():
    # the guess is the bubble itself, and a residual tolerance of 2 accepts it
    # unchanged: every sup-error is 0, and no order is formed from 0 / 0
    cfg = bubble_cfg(grid=16, sin_amplitude=0.0, residual_tol=2.0)
    study = rs.convergence_study(cfg, 2, cf.bubble_profile(N_DIM))
    assert [e for _, e in study.levels] == [0.0, 0.0]
    assert study.orders == [None]
    assert rs.ConvergenceStudy([(16, 1e-3), (32, 0.0), (64, 0.0)]).orders == [None, None]


@pytest.mark.parametrize("grid", [32, 64, 128, 256])
def test_coarse_grids_reach_the_residual_tolerance(grid):
    out = rs.newton_solve(bubble_cfg(grid=grid))
    assert out.converged and out.message == "converged"
    assert out.residual_norm < 1e-10


def test_fine_grid_stops_at_the_rounding_floor():
    # the residual's rounding level, about eps/h^2, lies far above 1e-10 at
    # grid 8192; the solution there is still O(h^2)-accurate
    cfg = bubble_cfg(grid=8192)
    out = rs.newton_solve(cfg)
    assert out.converged and out.message == "converged (rounding floor)"
    assert out.residual_norm > cfg.residual_tol
    err = np.max(np.abs(out.v - cf.bubble_profile(N_DIM).radial_value(out.r)))
    assert err * 8192 ** 2 == pytest.approx(1.22, abs=0.02)


def test_history_records_trials_and_step_norms():
    out = rs.newton_solve(bubble_cfg(grid=256))
    first, *steps = out.history
    assert (first["trials"], first["step_norm"]) == (0, 0.0)
    assert len(steps) == out.newton_steps
    # every rejected trial halves the damping
    assert all(h["trials"] == 1 - np.log2(h["damping"]) for h in steps)
    assert all(h["step_norm"] > 0.0 for h in steps)


def test_convergence_study_constant_data_rejected():
    # phi matched to zero eigenvalues asks for a profile on the cone
    # boundary; the admissibility gate refuses the initial guess
    op = symfun.SigmaKRoot(n=N_DIM, k=2)
    cfg = rs.SolverConfig(operator=op, domain=(0.5, 1.5), grid=32, rhs=1.0,
                          boundary_left=2.0, boundary_right=2.0,
                          initial_guess="geometric")
    with pytest.raises(AdmissibilityError):
        rs.convergence_study(cfg, 2, cf.constant_profile(N_DIM, 2.0))


def test_gauge_sanity_of_converged_solution():
    # the solution profile carries the solver's nodal derivatives, so
    # re-deriving the eigenvalues after a gauge round trip reproduces the
    # discrete residual at the nodes
    cfg = bubble_cfg(grid=48)
    out = rs.newton_solve(cfg)
    assert out.converged
    r_in = out.r[1:-1]
    phi = cfg.rhs
    for gauge in ("u", "w"):
        prof = out.profile(gauge=gauge)
        lam_rad, lam_tan = cf.radial_schouten_eigs(prof, r_in)
        lam = np.column_stack([lam_rad] + [lam_tan] * (N_DIM - 1))
        vals = cfg.operator.value(lam)
        defect = np.max(np.abs(vals - phi * out.v[1:-1] ** cfg.q))
        assert defect < 10.0 * cfg.residual_tol


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continuation_degenerate_schedule_matches_plain_solve():
    cfg = bubble_cfg(grid=48)
    plain = rs.newton_solve(cfg)
    swept = rs.continuation_p(cfg, [cfg.natural_exponent])
    assert len(swept) == 1
    assert np.array_equal(swept[0].v, plain.v)


def test_continuation_upward_sweep_on_annulus():
    cfg = bubble_cfg(domain=(0.5, 2.0), grid=64, sin_amplitude=0.0)
    schedule = np.linspace(cfg.natural_exponent, cfg.natural_exponent + 1.0, 5)
    results = rs.continuation_p(cfg, schedule)
    assert len(results) == 5
    assert all(r.converged for r in results)
    dists = [float(np.max(np.abs(a.v - b.v))) for a, b in zip(results, results[1:])]
    assert all(d < 0.2 for d in dists)


def test_continuation_out_of_range_p_fails_gracefully():
    # on the tight annulus the admissible branch dies out quickly as p
    # grows: the sweep keeps the earlier solutions and stops at the failure
    cfg = bubble_cfg(domain=(0.1, 2.0), grid=48, sin_amplitude=0.0)
    schedule = [cfg.natural_exponent, cfg.natural_exponent + 1.0,
                cfg.natural_exponent + 2.0]
    results = rs.continuation_p(cfg, schedule)
    assert results[0].converged
    assert not results[-1].converged
    assert len(results) < len(schedule) or not results[-1].converged


def test_continuation_first_step_failure_raises():
    cfg = bubble_cfg(domain=(0.1, 2.0), grid=48, sin_amplitude=0.0)
    with pytest.raises(NumericError) as err:
        rs.continuation_p(cfg, [cfg.natural_exponent + 2.0])
    assert hasattr(err.value, "result")


# ---------------------------------------------------------------------------
# configuration and serialization
# ---------------------------------------------------------------------------

def test_config_json_round_trip(tmp_path):
    cfg = bubble_cfg(grid=32)
    doc = cfg.to_dict()
    again = rs.SolverConfig.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    from_file = rs.SolverConfig.from_json(path)
    assert from_file.to_dict() == doc
    a = rs.newton_solve(cfg)
    b = rs.newton_solve(from_file)
    assert np.array_equal(a.v, b.v)


def test_config_validation_messages(tmp_path):
    with pytest.raises(UsageError) as err:
        rs.SolverConfig.from_dict({"operator": "sigma-root:k=2", "n": 4})
    assert "domain" in str(err.value)
    bad = {"operator": "sigma-root:k=2", "n": 4, "domain": [0.1, 2.0], "grid": 32,
           "rhs": 1.0, "boundary": {"left": 0.9}}
    with pytest.raises(UsageError) as err:
        rs.SolverConfig.from_dict(bad)
    assert "boundary.right" in str(err.value)
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(UsageError):
        rs.SolverConfig.from_json(path)


def test_config_invariants():
    op = symfun.SigmaKRoot(n=4, k=2)
    with pytest.raises(DomainError):
        rs.SolverConfig(operator=op, domain=(2.0, 0.1), grid=32, rhs=1.0,
                        boundary_left=1.0, boundary_right=1.0)
    with pytest.raises(DomainError):
        rs.SolverConfig(operator=op, domain=(0.1, 2.0), grid=8, rhs=1.0,
                        boundary_left=1.0, boundary_right=1.0)
    with pytest.raises(DomainError):
        rs.SolverConfig(operator=op, domain=(0.1, 2.0), grid=32, rhs=1.0,
                        boundary_left="symmetry", boundary_right=1.0)
    with pytest.raises(DomainError):
        rs.SolverConfig(operator=op, domain=(0.1, 2.0), grid=32, rhs=1.0,
                        boundary_left=1.0, boundary_right=-1.0)


def test_callable_rhs_or_guess_is_a_domain_error_naming_the_field():
    # rhs is one constant, and a guess is a name, a guess object or node values
    with pytest.raises(DomainError, match="^rhs must be finite and > 0"):
        dataclasses.replace(bubble_cfg(grid=32), rhs=lambda r: 1.0 + r)
    for guess in (lambda r: 1.0 + r, cf.bubble_profile(N_DIM)):
        with pytest.raises(DomainError, match="^initial_guess must be a name"):
            dataclasses.replace(bubble_cfg(grid=32), initial_guess=guess)


def test_unreadable_config_file_is_a_usage_error(tmp_path):
    # a missing file, and an integer literal beyond Python's 4300-digit limit
    path = tmp_path / "long.json"
    with pytest.raises(UsageError, match="config file"):
        rs.SolverConfig.from_json(path)
    path.write_text('{"grid": 1' + "0" * 5000 + "}")
    with pytest.raises(UsageError, match="config file"):
        rs.SolverConfig.from_json(path)


NAN, INF = float("nan"), float("inf")


#: A config field, a value outside its range and the start of the message
#: after "config: ".
CONFIG_FIELD_CASES = [
    (("tolerances", "min_damping"), 0, "tolerances.min_damping must be"),
    (("tolerances", "min_damping"), NAN, "tolerances.min_damping must be"),
    (("tolerances", "min_damping"), 1.5, "tolerances.min_damping must be"),
    (("tolerances", "max_newton"), -3, "tolerances.max_newton must be"),
    (("tolerances", "max_newton"), True, "field 'tolerances.max_newton' has wrong type"),
    (("tolerances", "residual"), NAN, "tolerances.residual must be"),
    (("boundary", "left"), INF, "boundary.left must be"),
    (("boundary", "right"), NAN, "boundary.right must be"),
    (("rhs",), INF, "rhs must be"),
    (("rhs",), 10 ** 400, "rhs must be"),
    (("exponent_p",), NAN, "exponent_p must be"),
    (("domain",), [0.1, INF], "domain must be"),
    (("domain",), [NAN, 2.0], "domain must be"),
    (("grid",), True, "field 'grid' has wrong type"),
    (("initial_guess", "kind"), "spline", "field 'initial_guess.kind'"),
    (("initial_guess", "sin_amplitude"), "big", "field 'initial_guess.sin_amplitude'"),
    (("initial_guess", "sin_amplitud"), 0.1, "field 'initial_guess.sin_amplitud'"),
    (("grdi",), 64, "unknown field 'grdi'"),
    (("boundary", "rigth"), 0.2, "unknown field 'boundary.rigth'"),
    (("tolerances", "max_newtons"), 8, "unknown field 'tolerances.max_newtons'"),
]


@pytest.mark.parametrize("path, value, named", CONFIG_FIELD_CASES,
                         ids=[f"{'.'.join(p)}={str(v):.12}" for p, v, _ in CONFIG_FIELD_CASES])
def test_config_field_is_checked_at_load(path, value, named):
    # loading alone: a min_damping of 0 or NaN once made the line search loop forever
    doc = bubble_cfg(grid=32).to_dict()
    *section, key = path
    (doc[section[0]] if section else doc)[key] = value
    with pytest.raises(UsageError, match="^config: " + re.escape(named)):
        rs.SolverConfig.from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("field, value", [("min_damping", 0.0), ("min_damping", NAN),
                                          ("max_newton", -3), ("max_newton", 2.5),
                                          ("residual_tol", NAN), ("grid", True),
                                          ("boundary_left", INF), ("exponent_p", NAN),
                                          ("rhs", INF), ("domain", (0.0, INF))])
def test_keyword_config_is_checked_like_the_json_reader(field, value):
    with pytest.raises(DomainError, match=" must be "):
        dataclasses.replace(bubble_cfg(grid=32), **{field: value})


def test_natural_exponent_and_q():
    cfg = bubble_cfg()
    assert cfg.natural_exponent == pytest.approx(3.0)
    assert cfg.q == 0.0
    cfg2 = dataclasses.replace(cfg, exponent_p=3.5)
    assert cfg2.q == pytest.approx(0.5)


def test_solve_result_profile_round_trip(tmp_path):
    out = rs.newton_solve(bubble_cfg(grid=32))
    path = tmp_path / "sol.txt"
    out.save_profile(path)
    prof = cf.load_radial_profile(path, N_DIM)
    assert np.allclose(prof.radial_value(out.r), out.v, rtol=1e-12)
    doc = out.to_dict()
    assert doc["converged"] is True
    assert len(doc["history"]) == out.newton_steps + 1
