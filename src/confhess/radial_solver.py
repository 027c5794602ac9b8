"""Damped Newton solver for radial curvature-operator boundary value problems.

The unknown is a positive radial profile ``v`` on ``[r0, r1]`` in the V
gauge over flat space, discretized on a uniform grid with second-order
central differences.  At each node the radial and tangential Schouten
eigenvalues are assembled into the tuple ``(lam_rad, lam_tan, .., lam_tan)``
and the equation enforced is

    f(lam(A^v)) = phi(r) * v^q,      q = p - alpha (n+2)/(n-2),

so the natural exponent ``p = alpha (n+2)/(n-2)`` gives ``q = 0`` and
recovers ``f(lam(A^v)) = phi`` exactly (the remaining v-powers live inside
the eigenvalues).  Boundary rows carry Dirichlet values; at ``r0 = 0`` a
symmetry condition (ghost node ``v[-1] = v[1]``) replaces the left value.

Newton steps use the analytic operator gradient chain-ruled through the
stencil, a banded direct solve, and a backtracking line search that accepts
a step only if every node stays strictly inside the admissibility cone with
at least 10% of the previous margin and the residual max-norm decreases.
The operator degenerates on the cone boundary, so losing the margin stalls
Newton; damping protects against that.

scipy is imported on first use, not with the module: ``scipy.linalg`` on
the first Newton step, ``scipy.interpolate`` on the first
:meth:`SolveResult.profile`.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import cones, conformal, symfun
from ._lapack import solve_banded
from .errors import AdmissibilityError, DomainError, NumericError, UsageError

RESIDUAL_TOL = 1e-10
MAX_NEWTON = 50
MIN_DAMPING = 2.0 ** -20
MARGIN_RETENTION = 0.1
#: Newton has converged at the rounding floor once the residual max-norm is at
#: most this multiple of its rounding level eps ||J| |v||_inf; residuals that
#: stall there measure 0.09 to 0.6 of that level.
ROUNDING_FLOOR = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Problem description for :func:`newton_solve`.

    ``rhs`` is a positive constant or a callable ``phi(r)``;
    ``boundary_left`` is a positive value or ``"symmetry"`` (requires
    ``r0 = 0``); ``initial_guess`` accepts ``"geometric"``, a catalog
    profile descriptor (optionally via a dict with a ``sin_amplitude``
    perturbation, even about r0 at a symmetry boundary), an explicit array of
    node values, a radial profile object, or a callable of r.
    """

    operator: object
    domain: tuple
    grid: int
    rhs: object
    boundary_right: float
    boundary_left: object = "symmetry"
    exponent_p: object = None
    cone: object = None
    initial_guess: object = "geometric"
    residual_tol: float = RESIDUAL_TOL
    max_newton: int = MAX_NEWTON
    min_damping: float = MIN_DAMPING

    def __post_init__(self):
        r0, r1 = self.domain
        if not (r1 > r0 >= 0.0):
            raise DomainError(f"domain must satisfy r1 > r0 >= 0, got [{r0}, {r1}]")
        if self.grid < 16:
            raise DomainError(f"grid must have at least 16 intervals, got {self.grid}")
        if self.boundary_left == "symmetry":
            if r0 != 0.0:
                raise DomainError("symmetry condition requires r0 = 0")
        elif not float(self.boundary_left) > 0.0:
            raise DomainError("left boundary value must be positive")
        if not self.boundary_right > 0.0:
            raise DomainError("right boundary value must be positive")

    @property
    def n(self):
        return self.operator.n

    @property
    def natural_exponent(self):
        return self.operator.alpha * (self.n + 2.0) / (self.n - 2.0)

    @property
    def exponent(self):
        return self.natural_exponent if self.exponent_p is None else float(self.exponent_p)

    @property
    def q(self):
        return self.exponent - self.natural_exponent

    @property
    def admissibility_cone(self):
        return self.operator.cone if self.cone is None else self.cone

    def nodes(self):
        r0, r1 = self.domain
        return np.linspace(r0, r1, self.grid + 1)

    def phi_values(self, r):
        phi = self.rhs(r) if callable(self.rhs) else np.full_like(r, float(self.rhs))
        phi = np.asarray(phi, dtype=float)
        if not np.all(phi > 0.0):
            raise DomainError("rhs phi must be positive on the grid")
        return phi

    def to_dict(self):
        if callable(self.rhs):
            raise UsageError("only constant rhs values serialize to JSON")
        init = self.initial_guess
        if isinstance(init, np.ndarray):
            init = {"kind": "values", "values": [float(t) for t in init]}
        elif isinstance(init, str):
            init = {"kind": "geometric"} if init == "geometric" else {"kind": "profile", "name": init}
        elif not isinstance(init, dict):
            raise UsageError("this initial guess does not serialize to JSON")
        return {
            "operator": self.operator.descriptor(),
            "n": self.n,
            "cone": None if self.cone is None else self.cone.descriptor(),
            "domain": [self.domain[0], self.domain[1]],
            "grid": self.grid,
            "rhs": float(self.rhs),
            "boundary": {"left": self.boundary_left, "right": self.boundary_right},
            "exponent_p": None if self.exponent_p is None else float(self.exponent_p),
            "initial_guess": init,
            "tolerances": {
                "residual": self.residual_tol,
                "max_newton": self.max_newton,
                "min_damping": self.min_damping,
            },
        }

    @staticmethod
    def from_dict(doc):
        def require(key, types, where="config"):
            if key not in doc:
                raise UsageError(f"{where}: missing field '{key}'")
            val = doc[key]
            if types is not None and not isinstance(val, types):
                raise UsageError(f"{where}: field '{key}' has wrong type")
            return val

        n = require("n", int)
        operator = symfun.parse_operator(require("operator", str), n)
        domain = require("domain", (list, tuple))
        if len(domain) != 2:
            raise UsageError("config: field 'domain' must be [r0, r1]")
        boundary = require("boundary", dict)
        if "right" not in boundary:
            raise UsageError("config: field 'boundary.right' is missing")
        left = boundary.get("left", "symmetry")
        cone = doc.get("cone")
        tol = doc.get("tolerances", {})
        if not isinstance(tol, dict):
            raise UsageError("config: field 'tolerances' must be an object")
        init = doc.get("initial_guess", {"kind": "geometric"})
        try:
            return SolverConfig(
                operator=operator,
                domain=(float(domain[0]), float(domain[1])),
                grid=require("grid", int),
                rhs=float(require("rhs", (int, float))),
                boundary_left=left if left == "symmetry" else float(left),
                boundary_right=float(boundary["right"]),
                exponent_p=doc.get("exponent_p"),
                cone=None if cone is None else cones.parse_cone(cone, n),
                initial_guess=init,
                residual_tol=float(tol.get("residual", RESIDUAL_TOL)),
                max_newton=int(tol.get("max_newton", MAX_NEWTON)),
                min_damping=float(tol.get("min_damping", MIN_DAMPING)),
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config: {exc}") from exc

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file '{path}': {exc}") from exc
        return SolverConfig.from_dict(doc)


@dataclass
class SolveResult:
    """Converged (or diagnosed) discrete profile plus the Newton history."""

    n: int
    r: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    residual_norm: float
    margins: np.ndarray
    converged: bool
    newton_steps: int
    history: list = field(default_factory=list)
    message: str = ""

    def profile(self, gauge="v"):
        """The solution as a radial profile carrying the solver's own nodal
        derivatives, so downstream gauge conversions reproduce the discrete
        residual identically at the nodes."""
        from scipy.interpolate import CubicHermiteSpline

        sp = CubicHermiteSpline(self.r, self.v, self.v1)
        rr, vv2 = self.r.copy(), self.v2.copy()
        prof = conformal.RadialProfile(
            sp, sp.derivative(), lambda s: np.interp(s, rr, vv2),
            n=self.n, gauge="v",
            domain=(float(self.r[0]), float(self.r[-1])), label="solve")
        return conformal.gauge_convert(prof, gauge)

    def to_dict(self):
        return {
            "r": [float(t) for t in self.r],
            "v": [float(t) for t in self.v],
            "residual_norm": self.residual_norm,
            "margins": [float(t) for t in self.margins],
            "converged": self.converged,
            "newton_steps": self.newton_steps,
            "history": [dict(h) for h in self.history],
            "message": self.message,
        }

    def save_profile(self, path):
        np.savetxt(path, np.column_stack([self.r, self.v]), fmt="%.17g")


def _stencil(cfg, v):
    """Nodal v', v'' from central differences (one-sided at Dirichlet ends)."""
    r = cfg.nodes()
    h = r[1] - r[0]
    m = v.size
    v1 = np.empty(m)
    v2 = np.empty(m)
    v1[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    v2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    if cfg.boundary_left == "symmetry":
        v1[0] = 0.0
        v2[0] = 2.0 * (v[1] - v[0]) / h ** 2
    else:
        v1[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        v2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    v1[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    v2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return r, h, v1, v2


def node_eigentuples(cfg, v):
    """Eigenvalue tuples ``(lam_rad, lam_tan, .., lam_tan)`` at every node."""
    v = np.asarray(v, dtype=float)
    r, _, v1, v2 = _stencil(cfg, v)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lam_rad, lam_tan = conformal.radial_jet_eigs(cfg.n, r, v, v1, v2)
    lam = np.empty((v.size, cfg.n))
    lam[:, 0] = lam_rad
    lam[:, 1:] = lam_tan[:, None]
    return lam


def residual(cfg, v):
    """Nonlinear residual; PDE rows carry ``f(lam) - phi v^q``, boundary rows
    the Dirichlet defects.  Nodes where the operator formula is undefined
    (eigenvalues outside its domain) yield NaN entries; use
    :func:`admissibility_margins` to locate them."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cfg.grid + 1,):
        raise DomainError(f"profile must have {cfg.grid + 1} nodes")
    r = cfg.nodes()
    lam = node_eigentuples(cfg, v)
    phi = cfg.phi_values(r)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        res = cfg.operator.value(lam) - phi * v ** cfg.q
    if cfg.boundary_left != "symmetry":
        res[0] = v[0] - float(cfg.boundary_left)
    res[-1] = v[-1] - cfg.boundary_right
    return res


def admissibility_margins(cfg, v):
    """Diagonal boundary-shift values of every node's eigenvalue tuple.

    Strict admissibility at a node means a negative value; the margin is its
    absolute value."""
    lam = node_eigentuples(cfg, np.asarray(v, dtype=float))
    good = np.all(np.isfinite(lam), axis=1)
    out = np.full(lam.shape[0], np.nan)
    out[good] = cones.boundary_shift(cfg.admissibility_cone, lam[good])
    return out


def jacobian(cfg, v):
    """Analytic Jacobian of :func:`residual` in banded (1, 1) storage."""
    v = np.asarray(v, dtype=float)
    r, h, v1, v2 = _stencil(cfg, v)
    n = cfg.n
    m = v.size
    lam = node_eigentuples(cfg, v)
    grad = cfg.operator.gradient(lam)
    f_rad = grad[:, 0]
    f_tan = np.sum(grad[:, 1:], axis=1)
    phi = cfg.phi_values(r)
    q = cfg.q

    beta = (n + 2.0) / (n - 2.0)
    gam = (n - 1.0) / (n - 2.0)
    kap = 1.0 / (n - 2.0)
    pref = (2.0 / (n - 2.0)) * v ** -beta
    lam_rad, lam_tan = lam[:, 0], lam[:, 1]

    diag = np.zeros(m)
    upper = np.zeros(m)   # J[i, i+1] stored at upper[i]
    lower = np.zeros(m)   # J[i, i-1] stored at lower[i]

    i = np.arange(1, m - 1)
    ri = r[i]
    drad_c = -beta * lam_rad[i] / v[i] + pref[i] * (2.0 / h ** 2 - gam * v1[i] ** 2 / v[i] ** 2)
    dtan_c = -beta * lam_tan[i] / v[i] + pref[i] * (kap * v1[i] ** 2 / v[i] ** 2)
    drad_p = pref[i] * (-1.0 / h ** 2 + gam * v1[i] / (h * v[i]))
    drad_m = pref[i] * (-1.0 / h ** 2 - gam * v1[i] / (h * v[i]))
    dtan_p = pref[i] * (-1.0 / (2.0 * h * ri) - kap * v1[i] / (h * v[i]))
    dtan_m = pref[i] * (1.0 / (2.0 * h * ri) + kap * v1[i] / (h * v[i]))
    diag[i] = f_rad[i] * drad_c + f_tan[i] * dtan_c - q * phi[i] * v[i] ** (q - 1.0)
    upper[i] = f_rad[i] * drad_p + f_tan[i] * dtan_p
    lower[i] = f_rad[i] * drad_m + f_tan[i] * dtan_m

    if cfg.boundary_left == "symmetry":
        dlam_c = -beta * lam_rad[0] / v[0] + pref[0] * (2.0 / h ** 2)
        dlam_p = pref[0] * (-2.0 / h ** 2)
        diag[0] = (f_rad[0] + f_tan[0]) * dlam_c - q * phi[0] * v[0] ** (q - 1.0)
        upper[0] = (f_rad[0] + f_tan[0]) * dlam_p
    else:
        diag[0] = 1.0
    diag[-1] = 1.0

    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def initial_vector(cfg):
    """Materialize the configured initial guess on the grid."""
    r = cfg.nodes()
    guess = cfg.initial_guess
    if isinstance(guess, str):
        guess = {"kind": "geometric"} if guess == "geometric" else {"kind": "profile", "name": guess}
    if isinstance(guess, dict):
        kind = guess.get("kind")
        if kind == "geometric":
            right = cfg.boundary_right
            left = right if cfg.boundary_left == "symmetry" else float(cfg.boundary_left)
            s = (r - r[0]) / (r[-1] - r[0])
            v0 = left ** (1.0 - s) * right ** s
        elif kind == "profile":
            prof = conformal.parse_profile(guess["name"], cfg.n)
            v0 = np.asarray(prof.radial_value(r), dtype=float)
            amp = float(guess.get("sin_amplitude", 0.0))
            if amp:
                arg = np.pi * (r - r[0]) / (r[-1] - r[0])
                # the ghost node mirrors v at a symmetry boundary: a slope there is a kink
                bump = np.cos(0.5 * arg) if cfg.boundary_left == "symmetry" else np.sin(arg)
                v0 = v0 * (1.0 + amp * bump)
        elif kind == "values":
            v0 = np.asarray(guess["values"], dtype=float)
        else:
            raise UsageError(f"initial_guess.kind '{kind}' is not geometric/profile/values")
    elif isinstance(guess, conformal.RadialProfile):
        v0 = np.asarray(guess.radial_value(r), dtype=float)
    elif callable(guess):
        v0 = np.asarray(guess(r), dtype=float)
    else:
        v0 = np.asarray(guess, dtype=float)
    if v0.shape != r.shape:
        raise UsageError(f"initial guess has {v0.size} values, grid has {r.size} nodes")
    return v0


def newton_solve(cfg, iterate_hook=None):
    """Damped Newton iteration for the radial boundary value problem.

    Raises :class:`AdmissibilityError` when the initial guess is not
    strictly admissible at every node and :class:`NumericError` on a
    singular linearization; damping underflow or hitting the iteration cap
    returns a non-converged result carrying the history.  ``iterate_hook``
    is called as ``hook(v, margins)`` on every accepted iterate (the
    initial one included).
    """
    v = initial_vector(cfg)
    if not np.all(v > 0.0):
        raise AdmissibilityError("initial guess must be positive at every node")
    margins = admissibility_margins(cfg, v)
    if not np.all(margins < 0.0):
        bad = int(np.argmax(~(margins < 0.0)))
        raise AdmissibilityError(
            f"initial guess inadmissible at node {bad} (r = {cfg.nodes()[bad]:g})",
            node=bad)
    res = residual(cfg, v)
    norm = float(np.max(np.abs(res)))
    margin_min = float(np.min(-margins))
    history = [{"residual": norm, "damping": 1.0, "trials": 0, "step_norm": 0.0}]
    if iterate_hook is not None:
        iterate_hook(v.copy(), margins.copy())

    def finish(converged, steps, message):
        r, _, v1, v2 = _stencil(cfg, v)
        return SolveResult(n=cfg.n, r=r, v=v.copy(), v1=v1, v2=v2,
                           residual_norm=norm, margins=margins.copy(),
                           converged=converged, newton_steps=steps,
                           history=history, message=message)

    for step in range(cfg.max_newton):
        if norm < cfg.residual_tol:
            return finish(True, step, "converged")
        ab = jacobian(cfg, v)
        if not np.all(np.isfinite(ab)):
            raise NumericError("Jacobian contains non-finite entries")
        w = np.abs(ab * v)      # |J| |v| row by row: the residual's rounding level
        w[1, :-1] += w[0, 1:]
        w[1, 1:] += w[2, :-1]
        if norm <= ROUNDING_FLOOR * np.finfo(float).eps * np.max(w[1]):
            return finish(True, step, "converged (rounding floor)")
        try:
            delta = solve_banded((1, 1), ab, -res)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular linearization: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise NumericError("singular linearization: non-finite Newton step")

        s, trials = 1.0, 0
        while True:
            trials += 1
            v_try = v + s * delta
            ok = bool(np.all(v_try > 0.0))
            if ok:
                m_try = admissibility_margins(cfg, v_try)
                ok = bool(np.all(np.isfinite(m_try)) and np.all(m_try < 0.0))
            if ok:
                mm_try = float(np.min(-m_try))
                ok = mm_try >= MARGIN_RETENTION * margin_min
            if ok:
                res_try = residual(cfg, v_try)
                norm_try = float(np.max(np.abs(res_try)))
                ok = np.isfinite(norm_try) and norm_try < norm
            if ok:
                history.append({"residual": norm_try, "damping": s, "trials": trials,
                                "step_norm": s * float(np.max(np.abs(delta)) / np.max(v))})
                v, res, norm, margins, margin_min = v_try, res_try, norm_try, m_try, mm_try
                if iterate_hook is not None:
                    iterate_hook(v.copy(), margins.copy())
                break
            s *= 0.5
            if s < cfg.min_damping:
                return finish(False, step, "damping underflow")

    converged = norm < cfg.residual_tol
    return finish(converged, cfg.max_newton,
                  "converged" if converged else "iteration limit reached")


def continuation_p(cfg, p_schedule):
    """Sequential solves over an exponent schedule, warm-starting each step.

    The first exponent must converge (otherwise a :class:`NumericError`
    carrying the report is raised); a later failure stops the sweep and the
    partial list, ending with the failed result, is returned.
    """
    p_schedule = [float(p) for p in p_schedule]
    if not p_schedule:
        raise DomainError("empty exponent schedule")
    results = []
    first = newton_solve(dataclasses.replace(cfg, exponent_p=p_schedule[0]))
    if not first.converged:
        err = NumericError(f"first continuation step p={p_schedule[0]:g} failed: {first.message}")
        err.result = first
        raise err
    results.append(first)
    for p in p_schedule[1:]:
        warm = dataclasses.replace(cfg, exponent_p=p, initial_guess=results[-1].v)
        out = newton_solve(warm)
        results.append(out)
        if not out.converged:
            break
    return results


@dataclass(frozen=True)
class ConvergenceStudy:
    """Sup-errors against an exact solution over grid refinements."""

    levels: list  # [(N, sup_error), ...]

    @property
    def orders(self):
        return [float(np.log2(a[1] / b[1])) for a, b in zip(self.levels, self.levels[1:])]

    def to_dict(self):
        return {"levels": [{"grid": g, "sup_error": e} for g, e in self.levels],
                "orders": self.orders}


def convergence_study(cfg, refinements, exact):
    """Solve on ``cfg.grid, 2x, 4x, ..`` grids and compare against ``exact``.

    ``exact`` is a radial profile or a callable of r.  Non-convergence at
    any level raises :class:`NumericError` carrying the offending report.
    """
    if refinements < 1:
        raise DomainError("need at least one refinement level")
    fn = exact.radial_value if isinstance(exact, conformal.RadialProfile) else exact
    levels = []
    for i in range(refinements):
        level_cfg = dataclasses.replace(cfg, grid=cfg.grid * 2 ** i)
        out = newton_solve(level_cfg)
        if not out.converged:
            err = NumericError(f"grid {level_cfg.grid} failed: {out.message}")
            err.result = out
            raise err
        sup = float(np.max(np.abs(out.v - np.asarray(fn(out.r), dtype=float))))
        levels.append((level_cfg.grid, sup))
    return ConvergenceStudy(levels=levels)
