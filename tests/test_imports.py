"""scipy stays off the import path: ``import confhess`` and the commands that
need no interpolation, Sobol sampling or banded solve load numpy only."""

import json
import os
import subprocess
import sys

import numpy as np

import confhess
from confhess import conformal, symfun
from confhess import radial_solver as rs

#: Commands that must run without importing scipy.
LIGHT_COMMANDS = {
    "eval": ["eval", "--op", "sigma-root:k=2", "--n", "3", "--lambda", "1,2,3"],
    "grad": ["grad", "--op", "ricci:inner=quotient:k=2,l=1", "--n", "4",
             "--lambda", "1,2,3,4"],
    "cone": ["cone", "--cone", "gamma:k=2", "--n", "3", "--lambda", "1,2,3"],
    "inclusion": ["inclusion", "--k", "2", "--n", "4", "--samples", "1000"],
    "axioms": ["axioms", "--op", "pucci:k=2,delta=0.25", "--n", "4", "--samples", "1000"],
    "harnack": ["harnack", "--delta", "0.1", "--n", "4"],
}

# Runs in a fresh interpreter, since this one has loaded scipy already.  Prints,
# as JSON, the scipy modules loaded after the import and after each command.
PROBE = """
import io, json, sys, contextlib
sys.path.insert(0, sys.argv[1])
loaded = {}
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import confhess
loaded["import"] = scipy()
from confhess import cli
for name, argv in json.loads(sys.argv[2]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[name] = scipy() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


def test_import_and_light_commands_load_no_scipy():
    src = os.path.dirname(os.path.dirname(confhess.__file__))
    proc = subprocess.run([sys.executable, "-c", PROBE, src, json.dumps(LIGHT_COMMANDS)],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert list(loaded) == ["import", *LIGHT_COMMANDS]
    assert all(mods == [] for mods in loaded.values()), loaded


def test_banded_solve_is_a_solver_global_defined_elsewhere(monkeypatch):
    # newton_solve looks the banded solve up as a module global at every
    # step, and the global is not defined in radial_solver itself
    assert rs.solve_banded.__module__ != rs.__name__
    calls = []
    lapack = rs.solve_banded
    monkeypatch.setattr(rs, "solve_banded", lambda *a: calls.append(1) or lapack(*a))
    op, bubble = symfun.SigmaKRoot(n=4, k=2), conformal.bubble_profile(4)
    cfg = rs.SolverConfig(
        operator=op, domain=(0.1, 2.0), grid=64, rhs=float(symfun.eval_op(op, np.full(4, 2.0))),
        boundary_left=float(bubble.radial_value(0.1)),
        boundary_right=float(bubble.radial_value(2.0)),
        initial_guess={"kind": "profile", "name": "bubble:scale=1", "sin_amplitude": 0.05})
    result = rs.newton_solve(cfg)
    assert result.converged
    assert len(calls) == result.newton_steps > 0
