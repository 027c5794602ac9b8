"""Damped Newton solve of the radial curvature equation on an annulus.

Solves f(lam(A^v)) = phi with f = sigma_2^(1/2) in dimension 4, Dirichlet
data taken from the exact bubble, starting from a 5% perturbation.  Then
certifies second-order convergence under grid refinement and sweeps the
exponent p upward with warm starts.
"""

import dataclasses

import numpy as np

from confhess import conformal, radial_solver, symfun


def main():
    n = 4
    op = symfun.SigmaKRoot(n=n, k=2)
    bubble = conformal.bubble_profile(n)
    phi = float(symfun.eval_op(op, np.full(n, 2.0)))
    cfg = radial_solver.SolverConfig(
        operator=op, domain=(0.1, 2.0), grid=64, rhs=phi,
        boundary_left=float(bubble.radial_value(0.1)),
        boundary_right=float(bubble.radial_value(2.0)),
        initial_guess={"kind": "profile", "name": "bubble:scale=1",
                       "sin_amplitude": 0.05})
    print(f"operator {op.descriptor()}, domain {cfg.domain}, phi = {phi:.12f}")

    out = radial_solver.newton_solve(cfg)
    print(f"converged: {out.converged} in {out.newton_steps} Newton steps")
    for i, h in enumerate(out.history):
        print(f"  step {i}: residual {h['residual']:.3e}  damping {h['damping']}")
    err = np.max(np.abs(out.v - bubble.radial_value(out.r)))
    print(f"sup error vs exact bubble: {err:.3e}")
    print(f"worst admissibility margin: {np.min(-out.margins):.4f}")

    print("\ngrid refinement against the exact solution:")
    study = radial_solver.convergence_study(dataclasses.replace(cfg, grid=32), 6, bubble)
    for (grid, sup), label in zip(study.levels, ["", *[f"order {o:.3f}" for o in study.orders]]):
        print(f"  N = {grid:4d}: sup error {sup:.3e}  {label}")

    print("\nexponent continuation on the [0.5, 2] annulus:")
    cfg2 = radial_solver.SolverConfig(
        operator=op, domain=(0.5, 2.0), grid=64, rhs=phi,
        boundary_left=float(bubble.radial_value(0.5)),
        boundary_right=float(bubble.radial_value(2.0)),
        initial_guess={"kind": "profile", "name": "bubble:scale=1"})
    schedule = np.linspace(cfg2.natural_exponent, cfg2.natural_exponent + 1.0, 5)
    results = radial_solver.continuation_p(cfg2, schedule)
    prev = None
    for p, r in zip(schedule, results):
        dist = "" if prev is None else f"  sup distance to previous {np.max(np.abs(r.v - prev)):.4f}"
        print(f"  p = {p:.2f}: converged {r.converged} in {r.newton_steps} steps{dist}")
        prev = r.v


if __name__ == "__main__":
    main()
