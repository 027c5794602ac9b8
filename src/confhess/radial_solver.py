"""Damped Newton solver for radial curvature-operator boundary value problems.

The unknown is a positive radial profile ``v`` on ``[r0, r1]`` in the V
gauge over flat space, discretized on a uniform grid with second-order
central differences.  At each node the radial and tangential Schouten
eigenvalues are assembled into the tuple ``(lam_rad, lam_tan, .., lam_tan)``
and the equation enforced is

    f(lam(A^v)) = rhs * v^q,      q = p - alpha (n+2)/(n-2),

with a constant ``rhs > 0``, so the natural exponent ``p = alpha (n+2)/(n-2)``
gives ``q = 0`` and recovers ``f(lam(A^v)) = rhs`` exactly (the remaining
v-powers live inside the eigenvalues).  Boundary rows carry Dirichlet values; at ``r0 = 0`` a
symmetry condition (ghost node ``v[-1] = v[1]``) replaces the left value.

Newton steps use the analytic operator gradient chain-ruled through the
eigenvalue partials (:func:`conformal.radial_jet_eig_partials`) and the
stencil, a tridiagonal direct solve, and a backtracking line search that
halves the damping until a trial keeps every node strictly inside the
admissibility cone with at least 10% of the previous margin and lowers the
residual's 2-norm.  The max-norm can rise at one node while the iterate
still approaches the root, so a decrease test on it creeps along at small
damping; the history's ``residual`` and both stopping tests (``residual_tol``
and the rounding floor) stay on the max-norm.  The operator degenerates on
the cone boundary, so losing the margin stalls Newton; damping protects
against that.  Each accepted step's history entry lists why its rejected
trials failed, in order: ``"positivity"`` (a node value <= 0), ``"margin"``
(a node outside the cone), ``"retention"`` (under 10% of the previous
margin) or ``"residual"`` (no decrease of the 2-norm); a solve that ends in
damping underflow keeps the reasons of its last search in
:attr:`SolveResult.rejected`.

Each line-search trial makes one pass over the nodes: the stencil and the
radial and tangential eigenvalues of the trial profile, held in a private
node state together with the nodes.  The trial's margins and residual read
that state, and on acceptance so do the Jacobian, which reads the operator's
value and partials that the residual left there, and the final report.  Node tuples are
two-valued, ``(a, b, .., b)``, so the residual and the Jacobian take the
operator's value and partials from its closed form on such tuples
(:meth:`symfun.CurvatureOperator.two_valued`), and a Gamma_k margin needs no
root finding: Garding's factorisation

    sigma_k(a + t, (b + t)^(n-1)) = C(n-1, k-1) (b + t)^(k-1) ((a + t) + (n-k)(b + t)/k)

puts the boundary at ``t* = max(-b, -(k a + (n-k) b)/n)`` for k >= 2 and at
``t* = -(a + (n-1) b)/n`` for k = 1.  Other cones use
:func:`cones.boundary_shift` on the ``(m, n)`` node tuples, which are built only
there and in :func:`node_eigentuples`.

scipy is imported on first use, not with the module: ``scipy.linalg`` on
the first Newton step, ``scipy.interpolate`` on the first
:meth:`SolveResult.profile`.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cones, conformal, symfun
from ._lapack import solve_banded
from .errors import _QUIET, AdmissibilityError, DomainError, NumericError, UsageError

RESIDUAL_TOL = 1e-10
MAX_NEWTON = 50
MIN_DAMPING = 2.0 ** -20
MARGIN_RETENTION = 0.1
#: Newton has converged at the rounding floor once the residual max-norm is at
#: most this multiple of its rounding level eps ||J| |v||_inf; residuals that
#: stall there measure 0.09 to 0.6 of that level.
ROUNDING_FLOOR = 1.0


def _finite(x):
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def _count(x, least):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


#: The keys of each kind of initial-guess object besides ``kind``, with the
#: test each value must pass.  A key left out reads as 0.0, the default
#: ``sin_amplitude``, which every other test rejects.
_GUESS_KEYS = {
    "geometric": {},
    "profile": {"name": lambda x: isinstance(x, str), "sin_amplitude": _finite},
    "values": {"values": lambda x: isinstance(x, list) and all(map(_finite, x))},
}


def _guess_doc(guess):
    """The JSON object of an initial guess given as a name, an object or node values."""
    if isinstance(guess, str):
        return {"kind": "geometric"} if guess == "geometric" else {"kind": "profile", "name": guess}
    if isinstance(guess, np.ndarray):
        return {"kind": "values", "values": [float(t) for t in guess]}
    if not isinstance(guess, dict):
        raise UsageError("this initial guess does not serialize to JSON")
    tests = {"kind": lambda x: x in _GUESS_KEYS, **_GUESS_KEYS.get(guess.get("kind"), {})}
    for key in sorted(guess.keys() | tests.keys()):
        if key not in tests or not tests[key](guess.get(key, 0.0)):
            raise UsageError(f"config: field 'initial_guess.{key}' "
                             "is unknown, missing or not valid")
    return guess


class _Field(NamedTuple):
    """A config field: its key path in the JSON document, the JSON types it may
    take (never a bool), what its value must be, and how it is read and written."""

    path: tuple
    attr: str
    types: tuple
    valid: str = ""                     # what ``check`` accepts, for its message
    check: object = None                # (value, config) -> True when valid
    decode: object = lambda x, n: x     # (JSON value, dimension n) -> value
    encode: object = lambda x: x        # value -> JSON value


_REAL, _NULL = (int, float), type(None)

#: The fields in the order of the JSON document.  ``n`` is the operator's
#: dimension: the descriptors are read at it, and it is no constructor argument.
_FIELDS = (
    _Field(("operator",), "operator", (str,), decode=symfun.parse_operator,
           encode=lambda op: op.descriptor()),
    _Field(("n",), "n", (int,), decode=None),
    _Field(("cone",), "cone", (str, _NULL),
           decode=lambda text, n: None if text is None else cones.parse_cone(text, n),
           encode=lambda cone: None if cone is None else cone.descriptor()),
    _Field(("domain",), "domain", (list,), "[r0, r1] with finite r1 > r0 >= 0",
           lambda d, _: len(d) == 2 and all(map(_finite, d)) and d[1] > d[0] >= 0.0,
           lambda d, n: tuple(d), list),
    _Field(("grid",), "grid", (int,), "an integer >= 16", lambda x, _: _count(x, 16)),
    _Field(("rhs",), "rhs", _REAL, "finite and > 0", lambda x, _: _finite(x) and x > 0.0,
           encode=float),
    _Field(("boundary", "left"), "boundary_left", _REAL + (str,),
           'finite and > 0, or "symmetry" when r0 = 0',
           lambda x, cfg: cfg.domain[0] == 0.0 if x == "symmetry" else _finite(x) and x > 0.0),
    _Field(("boundary", "right"), "boundary_right", _REAL, "finite and > 0",
           lambda x, _: _finite(x) and x > 0.0),
    _Field(("exponent_p",), "exponent_p", _REAL + (_NULL,), "null or finite",
           lambda x, _: x is None or _finite(x)),
    # a guess object that is not valid raises a usage error naming its bad key
    _Field(("initial_guess",), "initial_guess", (str, dict), "a name, a guess object or an "
           "array of node values", lambda x, _: isinstance(x, (str, np.ndarray))
           or isinstance(x, dict) and _guess_doc(x) is x, encode=_guess_doc),
    _Field(("tolerances", "residual"), "residual_tol", _REAL, "finite and > 0",
           lambda x, _: _finite(x) and x > 0.0),
    _Field(("tolerances", "max_newton"), "max_newton", (int,), "an integer >= 1",
           lambda x, _: _count(x, 1)),
    _Field(("tolerances", "min_damping"), "min_damping", _REAL, "finite and in (0, 1]",
           lambda x, _: _finite(x) and 0.0 < x <= 1.0),
)
#: Key paths of the JSON objects that group fields.
_SECTIONS = {f.path[:-1] for f in _FIELDS if len(f.path) > 1}


def _leaves(doc, path=()):
    """The document's values by key path, looking into the grouping objects."""
    if not isinstance(doc, dict):
        raise UsageError(f"config: {'.'.join(path) or 'the document'} must be an object")
    leaves = {}
    for key, value in doc.items():
        sub = path + (key,)
        leaves.update(_leaves(value, sub) if sub in _SECTIONS else {sub: value})
    return leaves


@dataclass(frozen=True)
class SolverConfig:
    """Problem description for :func:`newton_solve`.

    ``rhs`` is a finite constant > 0; ``boundary_left`` is a positive value or
    ``"symmetry"`` (requires ``r0 = 0``); ``initial_guess`` accepts
    ``"geometric"``, a catalog profile descriptor (optionally via a dict with a
    ``sin_amplitude`` perturbation, even about r0 at a symmetry boundary) or
    an explicit array of node values.  Every field is checked on construction
    as its row of ``_FIELDS`` says.
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
        for f in _FIELDS:
            if f.check is not None and not f.check(getattr(self, f.attr), self):
                raise DomainError(f"{'.'.join(f.path)} must be {f.valid}, "
                                  f"got {getattr(self, f.attr)}")

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

    def to_dict(self):
        doc = {}
        for f in _FIELDS:
            *section, key = f.path
            target = doc.setdefault(section[0], {}) if section else doc
            target[key] = f.encode(getattr(self, f.attr))
        return doc

    @staticmethod
    def from_dict(doc):
        """Read a JSON document; any field that is not as ``_FIELDS`` says is a
        :class:`UsageError` that names it."""
        leaves = _leaves(doc)
        unknown = sorted(leaves.keys() - {f.path for f in _FIELDS})
        if unknown:
            raise UsageError(f"config: unknown field '{'.'.join(unknown[0])}'")
        optional = {d.name for d in dataclasses.fields(SolverConfig)
                    if d.default is not dataclasses.MISSING}
        for f in _FIELDS:
            if f.path not in leaves:
                if f.attr not in optional:
                    raise UsageError(f"config: missing field '{'.'.join(f.path)}'")
            elif isinstance(leaves[f.path], bool) or not isinstance(leaves[f.path], f.types):
                raise UsageError(f"config: field '{'.'.join(f.path)}' has wrong type")
        try:
            return SolverConfig(**{f.attr: f.decode(leaves[f.path], leaves[("n",)])
                                   for f in _FIELDS if f.path in leaves and f.decode})
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config: {exc}") from exc

    @staticmethod
    def from_json(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:    # unreadable, not JSON, or too long an integer
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
    #: Why each trial of the final line search was rejected, when the solve
    #: ends in damping underflow: "positivity", "margin", "retention" or
    #: "residual", as in the history entries' ``rejected``.
    rejected: list = field(default_factory=list)

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
            "rejected": list(self.rejected),
        }

    def save_profile(self, path):
        np.savetxt(path, np.column_stack([self.r, self.v]), fmt="%.17g")


def _stencil(cfg, v, r):
    """Nodal v', v'' at the nodes ``r = cfg.nodes()`` from central differences
    (one-sided at Dirichlet ends)."""
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


def _tuples(n, lam_rad, lam_tan):
    lam = np.empty((lam_rad.size, n))
    lam[:, 0] = lam_rad
    lam[:, 1:] = lam_tan[:, None]
    return lam


def node_eigentuples(cfg, v):
    """Eigenvalue tuples ``(lam_rad, lam_tan, .., lam_tan)`` at every node."""
    st = _nodes(cfg, np.asarray(v, dtype=float), cfg.nodes())
    return _tuples(cfg.n, st.lam_rad, st.lam_tan)


#: One pass over the nodes of a profile: the stencil's ``(r, h, v1, v2)``, the
#: radial and tangential eigenvalues and the operator's ``two_valued`` triple
#: ``(f, f_a, f_b)`` there, which :func:`residual` computes and :func:`jacobian` reads.
_Nodes = dataclasses.make_dataclass(
    "_Nodes", ["r", "h", "v1", "v2", "lam_rad", "lam_tan", ("pair", object, None)])


def _nodes(cfg, v, r):
    r, h, v1, v2 = _stencil(cfg, v, r)
    with np.errstate(**_QUIET):
        return _Nodes(r, h, v1, v2, *conformal.radial_jet_eigs(cfg.n, r, v, v1, v2))


def residual(cfg, v, *, nodes=None):
    """Nonlinear residual; PDE rows carry ``f(lam) - rhs v^q``, boundary rows
    the Dirichlet defects.  ``f`` is the operator's ``two_valued`` value at the
    nodes' radial and tangential eigenvalues.  Nodes where the operator formula
    is undefined (eigenvalues outside its domain) yield NaN entries; use
    :func:`admissibility_margins` to locate them.  ``nodes`` is the node state
    of ``v`` where the caller has it, as for :func:`admissibility_margins` and
    :func:`jacobian`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cfg.grid + 1,):
        raise DomainError(f"profile must have {cfg.grid + 1} nodes")
    st = nodes or _nodes(cfg, v, cfg.nodes())
    if st.pair is None:
        st.pair = cfg.operator.two_valued(st.lam_rad, st.lam_tan)
    with np.errstate(**_QUIET):
        res = st.pair[0] - cfg.rhs * v ** cfg.q
    if cfg.boundary_left != "symmetry":
        res[0] = v[0] - float(cfg.boundary_left)
    res[-1] = v[-1] - cfg.boundary_right
    return res


def admissibility_margins(cfg, v, *, nodes=None):
    """Diagonal boundary-shift values of every node's eigenvalue tuple.

    Strict admissibility at a node means a negative value; the margin is its
    absolute value.  Node tuples are two-valued, ``(a, b, .., b)``, and there
    Gamma_k's shift is the largest root of ``sigma_k(a + t, (b + t)^(n-1)) =
    C(n-1, k-1) (b + t)^(k-1) ((a + t) + (n-k)(b + t)/k)``:
    ``max(-b, -(k a + (n-k) b)/n)``, or ``-(a + (n-1) b)/n`` at k = 1.  Other
    cones take :func:`cones.boundary_shift` of the built tuples."""
    st = nodes or _nodes(cfg, np.asarray(v, dtype=float), cfg.nodes())
    a, b = st.lam_rad, st.lam_tan
    cone = cfg.admissibility_cone
    if isinstance(cone, cones.GammaK) and cone.n == cfg.n:
        n, k = cone.n, cone.k
        with np.errstate(invalid="ignore", over="ignore"):     # on rows that are not finite
            t = np.maximum(-b if k > 1 else -np.inf, -(k * a + (n - k) * b) / n)
        return np.where(np.isfinite(a) & np.isfinite(b), t, np.nan)
    lam = _tuples(cfg.n, a, b)
    good = np.all(np.isfinite(lam), axis=1)
    out = np.full(lam.shape[0], np.nan)
    out[good] = cones.boundary_shift(cone, lam[good])
    return out


@np.errstate(**_QUIET)     # newton_solve checks the entries for the float range
def jacobian(cfg, v, *, nodes=None):
    """Analytic Jacobian of :func:`residual` in banded (1, 1) storage.

    A PDE row is ``F(v_i, v'_i, v''_i)``: the operator's ``two_valued`` partials
    at the node's radial and tangential eigenvalues (``f_rad`` in ``lam_rad``,
    ``f_tan`` the sum of the n-1 tangential ones), times the eigenvalues'
    partials (:func:`conformal.radial_jet_eig_partials`), less the rhs term's.
    ``v'`` and ``v''`` take their neighbour weights from the central stencil;
    the symmetry row's ghost node ``v[-1] = v[1]`` makes them ``0`` and ``2/h^2``."""
    v = np.asarray(v, dtype=float)
    st = nodes or _nodes(cfg, v, cfg.nodes())
    h, q = st.h, cfg.q
    _, f_rad, f_tan = st.pair or cfg.operator.two_valued(st.lam_rad, st.lam_tan)
    rad, tan = conformal.radial_jet_eig_partials(cfg.n, st.r, v, st.v1, st.lam_rad, st.lam_tan)
    up_1, up_2 = np.full(v.size, 0.5 / h), np.full(v.size, 1.0 / h ** 2)
    up_1[0], up_2[0] = 0.0, 2.0 / h ** 2

    def by_node(d_v, d_1, d_2):
        """An eigenvalue's partials in v[i+1], v[i] and v[i-1], through the stencil."""
        return (d_1 * up_1 + d_2 * up_2, d_v + d_2 * (-2.0 / h ** 2),
                d_1 * (-0.5 / h) + d_2 * (1.0 / h ** 2))

    upper, diag, lower = (f_rad * a + f_tan * b for a, b in zip(by_node(*rad), by_node(*tan)))
    ab = np.zeros((3, v.size))
    ab[0, 1:] = upper[:-1]      # J[i, i+1] at ab[0, i+1]
    ab[1] = diag - q * cfg.rhs * v ** (q - 1.0)
    ab[2, :-1] = lower[1:]      # J[i, i-1] at ab[2, i-1]
    if cfg.boundary_left != "symmetry":
        ab[0, 1], ab[1, 0] = 0.0, 1.0
    ab[1, -1], ab[2, -2] = 1.0, 0.0
    return ab


def initial_vector(cfg):
    """Materialize the configured initial guess on the grid."""
    r = cfg.nodes()
    guess = cfg.initial_guess
    if isinstance(guess, (str, dict)):
        guess = _guess_doc(guess)
        kind = guess["kind"]
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
        else:
            v0 = np.asarray(guess["values"], dtype=float)
    else:
        v0 = np.asarray(guess, dtype=float)
    if v0.shape != r.shape:
        raise UsageError(f"initial guess has {v0.size} values, grid has {r.size} nodes")
    return v0


def _norm2(res, norm):
    """``||res||_2`` divided by the power of two next to ``norm``, the max-norm of the
    step's residual, so that no square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.ldexp(res, -np.frexp(norm)[1])))


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
    r = cfg.nodes()
    st = _nodes(cfg, v, r)
    margins = admissibility_margins(cfg, v, nodes=st)
    if not np.all(margins < 0.0):
        bad = int(np.argmax(~(margins < 0.0)))
        raise AdmissibilityError(
            f"initial guess inadmissible at node {bad} (r = {r[bad]:g})", node=bad)
    res = residual(cfg, v, nodes=st)
    norm = float(np.max(np.abs(res)))
    margin_min = float(np.min(-margins))
    history = [{"residual": norm, "damping": 1.0, "trials": 0, "step_norm": 0.0,
                "rejected": []}]
    if iterate_hook is not None:
        iterate_hook(v.copy(), margins.copy())

    def finish(converged, steps, message, rejected=()):
        return SolveResult(n=cfg.n, r=r, v=v.copy(), v1=st.v1, v2=st.v2,
                           residual_norm=norm, margins=margins.copy(),
                           converged=converged, newton_steps=steps,
                           history=history, message=message, rejected=list(rejected))

    for step in range(cfg.max_newton):
        if norm < cfg.residual_tol:
            return finish(True, step, "converged")
        ab = jacobian(cfg, v, nodes=st)
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
        norm2 = _norm2(res, norm)

        s, rejected = 1.0, []
        while True:
            v_try = v + s * delta
            reason = None if np.all(v_try > 0.0) else "positivity"
            if reason is None:
                st_try = _nodes(cfg, v_try, r)
                m_try = admissibility_margins(cfg, v_try, nodes=st_try)
                if not (np.all(np.isfinite(m_try)) and np.all(m_try < 0.0)):
                    reason = "margin"
            if reason is None:
                mm_try = float(np.min(-m_try))
                if not mm_try >= MARGIN_RETENTION * margin_min:
                    reason = "retention"
            if reason is None:
                res_try = residual(cfg, v_try, nodes=st_try)
                if not _norm2(res_try, norm) < norm2:
                    reason = "residual"
            if reason is None:
                norm_try = float(np.max(np.abs(res_try)))
                history.append({"residual": norm_try, "damping": s,
                                "trials": len(rejected) + 1,
                                "step_norm": s * float(np.max(np.abs(delta)) / np.max(v)),
                                "rejected": rejected})
                v, res, norm, margins, margin_min, st = (v_try, res_try, norm_try, m_try,
                                                         mm_try, st_try)
                if iterate_hook is not None:
                    iterate_hook(v.copy(), margins.copy())
                break
            rejected.append(reason)
            s *= 0.5
            if s < cfg.min_damping:
                return finish(False, step, "damping underflow", rejected)

    converged = norm < cfg.residual_tol
    return finish(converged, cfg.max_newton,
                  "converged" if converged else "iteration limit reached")


def _converged(cfg, label):
    """The converged :func:`newton_solve` result, else :class:`NumericError`
    ``"<label> failed: <message>"`` carrying the result as ``.result``."""
    out = newton_solve(cfg)
    if not out.converged:
        err = NumericError(f"{label} failed: {out.message}")
        err.result = out
        raise err
    return out


def continuation_p(cfg, p_schedule):
    """Sequential solves over an exponent schedule, warm-starting each step.

    The first exponent must converge (otherwise a :class:`NumericError`
    carrying the report is raised); a later failure stops the sweep and the
    partial list, ending with the failed result, is returned.
    """
    p_schedule = [float(p) for p in p_schedule]
    if not p_schedule:
        raise DomainError("empty exponent schedule")
    results = [_converged(dataclasses.replace(cfg, exponent_p=p_schedule[0]),
                          f"first continuation step p={p_schedule[0]:g}")]
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

    ``exact`` is a radial profile.  Non-convergence at any level raises
    :class:`NumericError` carrying the offending report.
    """
    if refinements < 1:
        raise DomainError("need at least one refinement level")
    levels = []
    for i in range(refinements):
        level_cfg = dataclasses.replace(cfg, grid=cfg.grid * 2 ** i)
        out = _converged(level_cfg, f"grid {level_cfg.grid}")
        sup = float(np.max(np.abs(out.v - np.asarray(exact.radial_value(out.r), dtype=float))))
        levels.append((level_cfg.grid, sup))
    return ConvergenceStudy(levels=levels)
