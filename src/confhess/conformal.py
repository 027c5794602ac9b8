"""Conformal-geometry algebra: profiles, gauges, Schouten eigenvalues.

A conformal metric is described by a positive factor over a background
geometry in one of three gauges:

* V gauge: ``g = v^(4/(n-2)) g0``
* U gauge: ``g = u^(-2) g0``
* W gauge: ``g = exp(-2 w) g0``

so ``u = v^(-2/(n-2))`` and ``w = log u``.  Backgrounds are flat space and
the round sphere; the sphere is represented in stereographic coordinates,
where its metric is ``phi^2 * I`` with ``phi = 2 a^2 / (a^2 + |x|^2)``, so
every computation reduces to flat-chart calculus against an explicit
conformal factor.

The central quantity is the matrix

    A = (2/(n-2)) v^(-(n+2)/(n-2)) (conf_hess(v) + ((n-2)/2) v A0)

whose ordinary eigenvalues (flat chart) are the Schouten eigenvalues of g
measured in g itself; ``conf_hess`` is the conformally invariant Hessian

    conf_hess(v) = -D2 v + (n/(n-2)) (Dv x Dv)/v - (1/(n-2)) (|Dv|^2/v) I.

In the U gauge the same eigenvalues come from the independent formula
``u D2 u - (|Du|^2 / 2) I`` (flat background), which the tests use as a
second route.  Profile jets broadcast over leading axes of the chart
points, as operators and cones do over eigenvalue tuples.  Each transform
writes its chain rule once; on radial profiles it composes their 1-D jet,
whose Schouten eigenvalues take the closed form of :func:`radial_jet_eigs`.

``scipy.interpolate`` is imported on the first call of
:func:`grid_radial_profile`, not with the module.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (_QUIET, DomainError, NumericError, PositivityError, UsageError,
                     parse_descriptor)

GAUGES = ("v", "u", "w")
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Backgrounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatBackground:
    """Euclidean space; the background Schouten tensor vanishes."""

    n: int

    kind = "flat"

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"dimension n={self.n} must be >= 3")


@dataclass(frozen=True)
class SphereBackground:
    """Round sphere of the given radius, in stereographic coordinates.

    The chart metric is ``phi^2 I`` with ``phi = 2 a^2/(a^2 + |x|^2)``; the
    background Schouten endomorphism is ``1/(2 a^2)`` times the identity.
    """

    n: int
    radius: float = 1.0

    kind = "sphere"

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"dimension n={self.n} must be >= 3")
        if self.radius <= 0:
            raise DomainError(f"sphere radius must be positive, got {self.radius}")
        _float_power(self.radius, 2, f"sphere radius {self.radius:g}")

    @property
    def schouten_scale(self):
        return 1.0 / (2.0 * self.radius ** 2)

    def phi(self, x):
        a2 = self.radius ** 2
        return 2.0 * a2 / (a2 + float(np.dot(x, x)))

    def dlog_phi(self, x):
        a2 = self.radius ** 2
        return -2.0 * np.asarray(x, dtype=float) / (a2 + float(np.dot(x, x)))


def _float_power(x, p, what):
    """``x ** p`` of Python floats, ``x > 0``; overflow or rounding to 0 raises
    :class:`NumericError`."""
    try:
        y = x ** p
    except OverflowError:
        y = 0.0
    if y == 0.0:
        raise NumericError(f"{what} leaves the float range")
    return y


def _default_background(n, background):
    if background is None:
        return FlatBackground(n)
    if background.n != n:
        raise DomainError("background dimension does not match profile dimension")
    return background


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

class Profile:
    """A conformal factor with value, gradient and Hessian at chart points.

    Subclasses implement ``jet(x) -> (value, gradient, hessian)``, which
    broadcasts over leading axes the way operators and cones do: ``x`` of
    shape ``(..., n)`` gives shapes ``(...)``, ``(..., n)`` and
    ``(..., n, n)``, and a single point ``(n,)`` a NumPy float, an ``(n,)``
    gradient and an ``(n, n)`` Hessian.  Profiles are immutable after
    construction and safe for concurrent reads.
    """

    gauge = "v"
    background = None
    label = ""

    @property
    def n(self):
        return self.background.n

    def jet(self, x):
        raise NotImplementedError

    def value(self, x):
        return self.jet(x)[0]

    def gradient(self, x):
        return self.jet(x)[1]

    def hessian(self, x):
        return self.jet(x)[2]

    def __call__(self, x):
        return self.value(x)


def _outer(a, b):
    """Outer products over the trailing axis, broadcast over leading axes."""
    return a[..., :, None] * b[..., None, :]


def _dot(a, b):
    """Dot products over the trailing axis, rounded as ``np.dot`` rounds one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a):
    return np.sqrt(_dot(a, a))


class RadialProfile(Profile):
    """Profile depending only on the distance to a center point.

    ``fun``, ``d1``, ``d2`` are vectorized closures for the 1-D profile and
    its first two radial derivatives.  When the domain starts at 0 the
    profile is assumed even (``d1(0) = 0``), which is what smoothness of the
    full n-dimensional profile at the center requires.  The transforms of
    this module compose the 1-D jet ``s -> (f, f', f'')`` (:meth:`radial_jet`).
    ``curvature_resolved``, when a profile sets it, maps radii to where its jet
    still determines the Schouten eigenvalues; :func:`radial_schouten_eigs`
    raises :class:`NumericError` elsewhere.  Transforms do not carry it.
    """

    curvature_resolved = None

    def __init__(self, fun, d1, d2, n, gauge="v", background=None, center=None,
                 domain=(0.0, np.inf), excludes_origin=False, label=""):
        if gauge not in GAUGES:
            raise DomainError(f"unknown gauge '{gauge}'")
        self.background = _default_background(n, background)
        self.gauge = gauge
        self.fun, self.d1, self.d2 = fun, d1, d2
        self._jet1 = lambda s: (fun(s), d1(s), d2(s))
        self.center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != (n,):
            raise DomainError("center must be a point of dimension n")
        self.domain = (float(domain[0]), float(domain[1]))
        self.excludes_origin = excludes_origin
        self.label = label

    @property
    def centered_at_origin(self):
        return np.count_nonzero(self.center) == 0

    def _check_radius(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.domain
        s_min = np.minimum.reduce(s, axis=None, initial=np.inf)
        if self.excludes_origin and s_min <= 0.0:
            raise DomainError(f"profile {self.label or 'radial'} is undefined at the center")
        # no radius exceeds an infinite upper end, so only a finite one is compared
        if s_min < lo - 1e-12 or (hi < np.inf and s.max(initial=-np.inf) > hi * (1 + 1e-12)):
            raise DomainError(f"radius outside profile domain [{lo:g}, {hi:g}]")
        return s

    def radial_value(self, s):
        return self.fun(self._check_radius(s))

    def radial_jet(self, s):
        """``(f, f', f'')`` at radii ``s``."""
        return tuple(map(np.asarray, self._jet1(self._check_radius(s))))

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.asarray(self.radial_value(_norm(d)))[()]

    def jet(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = _norm(d)
        val, v1, v2 = self.radial_jet(s)
        unit = d / (s + (s == 0.0))[..., None]      # s >= 0: s + 1 is 1 where s is 0
        proj = _outer(unit, unit)
        tang = tangential_hessian(s, v1, v2)
        hess = v2[..., None, None] * proj + tang[..., None, None] * (np.eye(self.n) - proj)
        return val[()], v1[..., None] * unit, hess


class CallableProfile(Profile):
    """Profile given only by a value callable; derivatives by 4th-order stencils.

    Intended for sampled or ad-hoc data where no analytic closure exists.
    ``step`` is the finite-difference step (absolute).  ``f`` takes one point
    ``(n,)``, so :meth:`jet` loops over the 1 + 4n + 8n(n-1) stencil points of
    each point of a batch in Python; the stencil arithmetic is batched.
    """

    _W1 = (1.0, -8.0, 8.0, -1.0)  # at offsets -2, -1, 1, 2; /(12 h)

    def __init__(self, f, n, gauge="v", background=None, step=1e-3):
        if gauge not in GAUGES:
            raise DomainError(f"unknown gauge '{gauge}'")
        self.background = _default_background(n, background)
        self.gauge = gauge
        self.f = f
        self.step = float(step)
        # offsets in steps: the point, then 4 axial blocks (offset -2, -1, 1, 2
        # along each axis), then the 4 x 4 offsets of each pair i < j
        eye, (i, j) = np.eye(n), np.triu_indices(n, 1)
        w = np.array([-2.0, -1.0, 1.0, 2.0])
        self._offsets = np.concatenate([
            np.zeros((1, n)), (w[:, None, None] * eye).reshape(-1, n),
            (w[:, None, None, None] * eye[i] + w[:, None, None] * eye[j]).reshape(-1, n)])

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        n, h = self.n, self.step
        pts = x[..., None, :] + h * self._offsets
        fv = np.array([self.f(pt) for pt in pts.reshape(-1, n)],
                      dtype=float).reshape(pts.shape[:-1])
        val = fv[..., 0]
        fm2, fm1, fp1, fp2 = (fv[..., 1 + a * n:1 + (a + 1) * n] for a in range(4))
        grad = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
        cross = fv[..., 1 + 4 * n:].reshape(x.shape[:-1] + (4, 4, -1))
        acc = sum(wp * wq * cross[..., a, b, :]
                  for a, wp in enumerate(self._W1) for b, wq in enumerate(self._W1))
        hess = np.empty(x.shape[:-1] + (n, n))
        i, j = np.triu_indices(n, 1)
        hess[..., i, j] = hess[..., j, i] = acc / (144 * h ** 2)
        hess[..., range(n), range(n)] = (-fp2 + 16 * fp1 - 30 * val[..., None] + 16 * fm1
                                         - fm2) / (12 * h ** 2)
        return val[()], grad, hess


class _JetProfile(Profile):
    """Profile built from explicit jet and value closures (internal wrapper base)."""

    def __init__(self, jet_fn, value_fn, n, gauge, background):
        self.background = _default_background(n, background)
        self.gauge = gauge
        self._jet_fn, self._value_fn = jet_fn, value_fn

    def jet(self, x):
        return self._jet_fn(np.asarray(x, dtype=float))

    def value(self, x):
        return self._value_fn(np.asarray(x, dtype=float))


def _transform(p, jet_map, radial, gauge, background, **changes):
    """The profile whose jet at chart points ``x`` is ``jet_map(jet, x)``, where
    ``jet(q, y)`` is the jet of a profile ``q`` at points ``y``: one chain rule
    for any chart dimension m.  If ``radial``, ``p`` and each ``q`` are radial
    about one center, ``jet_map`` runs on radii as 1-D points ``(..., 1)``, and
    the result is a :class:`RadialProfile` like ``p`` (with ``changes``) that
    stores the composed 1-D jet; otherwise it is an n-D :class:`_JetProfile`.
    The value of ``jet_map`` depends on the values of the ``q`` only, so the
    value of either runs it on their values alone, with zero derivatives."""
    def value_only(q, y):
        f = np.asarray(q.radial_value(y[..., 0]) if radial else q.value(y))
        return f, np.zeros(f.shape + y.shape[-1:]), np.zeros(f.shape + y.shape[-1:] * 2)

    if not radial:
        return _JetProfile(lambda x: jet_map(lambda q, y: q.jet(y), x),
                           lambda x: jet_map(value_only, x)[0], p.n, gauge, background)

    def lifted(q, y):
        f, f1, f2 = q.radial_jet(y[..., 0])
        return f, f1[..., None], f2[..., None, None]

    def jet1(s):
        f, g, h = jet_map(lifted, np.asarray(s, dtype=float)[..., None])
        return f, g[..., 0], h[..., 0, 0]

    def fun(s):
        return jet_map(value_only, np.asarray(s, dtype=float)[..., None])[0]

    kw = {k: getattr(p, k) for k in ("center", "domain", "excludes_origin", "label")}
    out = RadialProfile(fun, lambda s: jet1(s)[1], lambda s: jet1(s)[2], p.n,
                        gauge=gauge, background=background, **{**kw, **changes})
    out._jet1 = jet1
    return out


# ---------------------------------------------------------------------------
# Gauge conversion
# ---------------------------------------------------------------------------

def _positive(y):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise PositivityError("gauge conversion requires a positive profile")
    return y


def _power_map(p):
    return (lambda y: _positive(y) ** p, lambda y: p * y ** (p - 1.0),
            lambda y: p * (p - 1.0) * y ** (p - 2.0))


def _log_map(c):
    return lambda y: c * np.log(_positive(y)), lambda y: c / y, lambda y: -c / y ** 2


def _exp_map(c):
    return (lambda y: np.exp(c * np.asarray(y, dtype=float)),
            lambda y: c * np.exp(c * y), lambda y: c * c * np.exp(c * y))


def _gauge_map(src, dst, n):
    maps = {("v", "u"): (_power_map, -2.0 / (n - 2)), ("u", "v"): (_power_map, -(n - 2) / 2.0),
            ("u", "w"): (_log_map, 1.0), ("w", "u"): (_exp_map, 1.0),
            ("v", "w"): (_log_map, -2.0 / (n - 2)), ("w", "v"): (_exp_map, -(n - 2) / 2.0)}
    if (src, dst) not in maps:
        raise DomainError(f"no gauge map {src} -> {dst}")
    make, c = maps[src, dst]
    return make(c)


def gauge_convert(profile, target):
    """Re-express a profile in another gauge; the metric is unchanged.

    Conversions compose the scalar relations ``u = v^(-2/(n-2))``,
    ``w = log u`` (and inverses) through the chain rule, so round trips are
    exact to rounding and Schouten eigenvalues are invariant.
    """
    if target not in GAUGES:
        raise DomainError(f"unknown gauge '{target}'")
    if profile.gauge == target:
        return profile
    G, G1, G2 = _gauge_map(profile.gauge, target, profile.n)

    def jet_map(jet, x):
        val, grad, hess = jet(profile, x)
        g1, g2 = G1(val)[..., None], G2(val)[..., None, None]
        return G(val), g1 * grad, g2 * _outer(grad, grad) + g1[..., None] * hess

    return _transform(profile, jet_map, isinstance(profile, RadialProfile), target,
                      profile.background)


def scale_profile(profile, t):
    """Multiply a profile by a positive constant (in its own gauge)."""
    if t <= 0:
        raise DomainError(f"scale factor must be positive, got {t}")

    def jet_map(jet, x):
        val, grad, hess = jet(profile, x)
        return t * val, t * grad, t * hess

    return _transform(profile, jet_map, isinstance(profile, RadialProfile), profile.gauge,
                      profile.background)


# ---------------------------------------------------------------------------
# Exact profile catalog
# ---------------------------------------------------------------------------

def constant_profile(n, c=1.0, gauge="v", background=None):
    """Profile identically equal to ``c`` (flat metric when c > 0, flat bg)."""
    if c <= 0 and gauge in ("v", "u"):
        raise DomainError(f"constant profile must be positive in gauge {gauge}")
    zero = lambda s: np.zeros(np.shape(s))
    return RadialProfile(lambda s: np.full(np.shape(s), float(c)),
                         zero, zero, n, gauge=gauge, background=background,
                         label=f"const:c={c:g}")


def inversion_profile(n, coefficient=1.0, gauge="v", background=None):
    """``v(x) = C |x|^(2-n)``: the flat metric pushed through inversion."""
    if coefficient <= 0:
        raise DomainError(f"inversion coefficient must be positive, got {coefficient}")
    a = 2.0 - n
    c = float(coefficient)
    return RadialProfile(
        lambda s: c * np.asarray(s, dtype=float) ** a,
        lambda s: c * a * np.asarray(s, dtype=float) ** (a - 1),
        lambda s: c * a * (a - 1) * np.asarray(s, dtype=float) ** (a - 2),
        n, gauge=gauge, background=background, excludes_origin=True,
        label=f"inversion:C={coefficient:g}")


def bubble_profile(n, scale=1.0, center=None, gauge="v", background=None):
    """``v(x) = eps^((n-2)/2) (eps^2 + |x - c|^2)^(-(n-2)/2)``.

    The induced metric is a fixed round-sphere metric for every ``scale``
    (the family is the pullback of the unit bubble under dilation), with all
    Schouten eigenvalues equal to 2.
    """
    if scale <= 0:
        raise DomainError(f"bubble scale must be positive, got {scale}")
    eps = float(scale)
    m = (n - 2) / 2.0
    c, eps2 = (_float_power(eps, p, f"bubble scale {scale:g}") for p in (m, 2))

    def fun(s):
        return c * (eps2 + np.asarray(s, dtype=float) ** 2) ** (-m)

    # The derivatives are v times rational functions of s, so that they
    # underflow no sooner than v; the jet evaluates v once.
    def jet1(s):
        s = np.asarray(s, dtype=float)
        s2 = s ** 2
        q = eps2 + s2
        v = c * q ** (-m)
        return v, v * (-2.0 * m * s / q), v * (4.0 * m * (m + 1) * s2 / q - 2.0 * m) / q

    out = RadialProfile(fun, lambda s: jet1(s)[1], lambda s: jet1(s)[2], n, gauge=gauge,
                        background=background, center=center, label=f"bubble:scale={scale:g}")
    out._jet1 = jet1
    # The Schouten eigenvalues (all 2) are v'' less a multiple of v'^2 / v, which
    # cancel: their rounding error, measured over n = 3..8 and s / scale up to 1e9,
    # is up to 6.4 n eps (s / scale)^2.  Where 8 n eps (s / scale)^2 exceeds 1 they
    # would keep no correct digit (scale = 1e-100 at s = 1 gives 0).
    out.curvature_resolved = lambda s: 8.0 * n * _EPS * np.asarray(s, dtype=float) ** 2 <= eps2
    return out


def grid_radial_profile(r, v, n, gauge="v", background=None, label="grid"):
    """Radial profile from sampled values ``(r, v)``, spline differentiated.

    ``r`` must be strictly increasing.  When the grid starts at 0 the data
    is extended evenly across the origin so the interpolant satisfies
    ``v'(0) = 0``.
    """
    from scipy.interpolate import CubicSpline

    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.ndim != 1 or r.shape != v.shape or r.size < 4:
        raise DomainError("grid profile needs matching 1-D arrays with >= 4 points")
    if np.any(np.diff(r) <= 0):
        raise DomainError("grid radii must be strictly increasing")
    if r[0] == 0.0:
        rx = np.concatenate([-r[1:][::-1], r])
        vx = np.concatenate([v[1:][::-1], v])
        sp = CubicSpline(rx, vx)
    else:
        sp = CubicSpline(r, v)
    return RadialProfile(sp, sp.derivative(1), sp.derivative(2), n, gauge=gauge,
                         background=background, domain=(float(r[0]), float(r[-1])),
                         label=label)


def load_table(path, what):
    """The rows of a text table of two or more columns; a file that is missing,
    unreadable, empty, not numbers or no such table is a :class:`UsageError`
    naming it as ``what``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)     # np.loadtxt on an empty file
            data = np.loadtxt(path)
    except (OSError, ValueError, UserWarning) as exc:
        raise UsageError(f"{what} '{path}': {exc}") from exc
    if data.ndim != 2 or data.shape[1] < 2:
        raise UsageError(f"{what} '{path}' is not a table of two or more columns")
    return data


def load_radial_profile(path, n, gauge="v", background=None):
    """Load a two-column ``(r, v)`` text file into a radial profile."""
    data = load_table(path, "profile file")
    return grid_radial_profile(data[:, 0], data[:, 1], n, gauge=gauge,
                               background=background, label=str(path))


def parse_profile(text, n, gauge="v", background=None):
    """Parse catalog profile descriptors: const:c=1, inversion:C=1, bubble:scale=1."""
    kw = dict(gauge=gauge, background=background)
    return parse_descriptor(text, "profile", {
        "const": (("c",), lambda f: constant_profile(n, c=float(f.get("c", 1.0)), **kw)),
        "inversion": (("C",), lambda f: inversion_profile(
            n, coefficient=float(f.get("C", 1.0)), **kw)),
        "bubble": (("scale",), lambda f: bubble_profile(
            n, scale=float(f.get("scale", 1.0)), **kw)),
    })


# ---------------------------------------------------------------------------
# Schouten tensor algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchoutenMatrix:
    """Symmetric matrix whose eigenvalues are the Schouten eigenvalues in g."""

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self):
        return self.matrix.shape[0]


def _positive_jet(p, x):
    val, grad, hess = p.jet(x)
    if not val > 0.0:
        raise PositivityError(f"profile must be positive, got {p.gauge}({x}) = {val:g}")
    return val, grad, hess


def _conformal_hessian(n, val, grad, hess):
    out = (n / (n - 2.0)) * _outer(grad, grad) / val - hess
    out.flat[::n + 1] -= (1.0 / (n - 2.0)) * float(grad @ grad) / val
    return out


def conformal_hessian_matrix(p, x):
    """The conformally invariant Hessian of the V-gauge factor at ``x``.

    Flat background: ``-D2 v + (n/(n-2)) Dv x Dv / v - (1/(n-2)) |Dv|^2/v I``
    with ordinary derivatives.  Sphere background: same expression with the
    covariant Hessian of the chart metric (the Christoffel correction of
    ``phi^2 I``); the trace term keeps the plain identity matrix because the
    ``phi^2`` factors of the metric and of ``|Dv|^2`` cancel in the chart.
    """
    pv = gauge_convert(p, "v")
    x = np.asarray(x, dtype=float)
    val, grad, hess = _positive_jet(pv, x)
    if pv.background.kind == "sphere":
        dlp = pv.background.dlog_phi(x)
        hess = hess - (np.outer(dlp, grad) + np.outer(grad, dlp)
                       - float(dlp @ grad) * np.eye(pv.n))
    return _conformal_hessian(pv.n, val, grad, hess)


def _eigvalsh(mat):
    # the difference is antisymmetric, so its max is its largest |entry|; an
    # exactly symmetric matrix needs no scale
    defect = (mat - mat.T).max()
    if defect > 0.0 and defect > 1e-10 * (1.0 + abs(mat).max()):
        raise NumericError(f"matrix is not symmetric (defect {defect:g})")
    try:
        return np.linalg.eigvalsh(0.5 * (mat + mat.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def flat_equivalent(p):
    """Rewrite a profile over the sphere as a V-gauge profile over flat space.

    The sphere's own stereographic factor is absorbed into the profile, so
    the returned profile induces the identical metric on the flat chart.
    """
    pv = gauge_convert(p, "v")
    if pv.background.kind == "flat":
        return pv
    # the sphere metric as a V-gauge factor over flat space: t times a bubble
    a = pv.background.radius
    bubble, t = bubble_profile(pv.n, scale=a), _float_power(2.0 * a, (pv.n - 2) / 2.0,
                                                           f"sphere radius {a:g}")

    def jet_map(jet, x):
        v1, g1, h1 = jet(pv, x)
        v2, g2, h2 = (t * d for d in jet(bubble, x))
        g12 = _outer(g1, g2)
        return (v1 * v2, g1 * v2[..., None] + v1[..., None] * g2,
                h1 * v2[..., None, None] + g12 + g12.swapaxes(-1, -2) + v1[..., None, None] * h2)

    return _transform(pv, jet_map, isinstance(pv, RadialProfile) and pv.centered_at_origin,
                      "v", FlatBackground(pv.n))


def schouten_matrix(p, x):
    """Matrix whose eigenvalues are the Schouten eigenvalues of g in g.

    Flat V gauge uses the conformal-Hessian formula; flat U gauge uses the
    independent ``u D2 u - |Du|^2/2 I`` formula; the W gauge converts to U;
    sphere backgrounds are absorbed into an equivalent flat profile first.
    """
    x = np.asarray(x, dtype=float)
    if p.background.kind != "flat":
        return schouten_matrix(flat_equivalent(p), x)
    if p.gauge == "w":
        return schouten_matrix(gauge_convert(p, "u"), x)
    n = p.n
    val, grad, hess = _positive_jet(p, x)
    if p.gauge == "u":
        mat = val * hess - 0.5 * float(grad @ grad) * np.eye(n)
    else:
        mat = ((2.0 / (n - 2.0)) * val ** (-(n + 2.0) / (n - 2.0))
               * _conformal_hessian(n, val, grad, hess))
    return SchoutenMatrix(matrix=mat, eigenvalues=_eigvalsh(mat))


def schouten_eigs(p, x):
    """Schouten eigenvalues of the metric of ``p`` at ``x`` (sorted ascending): the
    closed form :func:`radial_jet_eigs` at ``|x - c|`` when :func:`flat_equivalent`
    of ``p`` is radial about ``c``, else the eigenvalues of :func:`schouten_matrix`.
    Eigenvalues that leave the float range raise :class:`NumericError`."""
    pv = flat_equivalent(p)
    with np.errstate(**_QUIET):
        if not isinstance(pv, RadialProfile):
            eigs = schouten_matrix(p, x).eigenvalues
            _check_range(eigs)
            return eigs
        lam_rad, lam_tan = radial_schouten_eigs(pv, _norm(np.asarray(x, dtype=float) - pv.center))
    # the stable sort of (lam_rad, lam_tan, ..., lam_tan), placed: lam_rad comes
    # first where it is <= lam_tan (ties included), and last where it is larger
    eigs = lam_tan[..., None].repeat(pv.n, axis=-1)
    np.copyto(eigs[..., 0], lam_rad, where=lam_rad <= lam_tan)
    np.copyto(eigs[..., -1], lam_rad, where=lam_rad > lam_tan)
    return eigs


def _check_range(*eigs):
    """:class:`NumericError` if an eigenvalue left the float range."""
    for e in eigs:
        if np.count_nonzero(~np.isfinite(e)):
            raise NumericError("Schouten eigenvalues leave the float range")


def tangential_hessian(r, d1, d2):
    """Tangential Hessian eigenvalue ``d1 / r`` of a radial function, with
    the even-extension limit ``d2`` at ``r = 0``."""
    return np.where(at_zero := r == 0.0, d2, d1 / (r + at_zero))    # r + 1 is 1 where r is 0


def radial_jet_eigs(n, r, v, v1, v2):
    """Radial and tangential Schouten eigenvalues from the radial jet of v.

    For ``v = v(r)`` over flat space the matrix ``A`` has the radial
    eigenvalue once and the tangential eigenvalue with multiplicity n-1:

        lam_rad = (2/(n-2)) v^(-(n+2)/(n-2)) [-v'' + ((n-1)/(n-2)) v'^2/v]
        lam_tan = (2/(n-2)) v^(-(n+2)/(n-2)) [-v'/r - (1/(n-2)) v'^2/v]

    (project the conformal Hessian onto the radial direction and its
    orthogonal complement).  At ``r = 0`` the even extension gives
    ``v'/r -> v''`` and the two eigenvalues coincide.
    """
    pref, w = (2.0 / (n - 2.0)) * v ** (-(n + 2.0) / (n - 2.0)), v1 ** 2
    lam_rad = pref * (((n - 1.0) / (n - 2.0)) * w / v - v2)
    lam_tan = pref * (-tangential_hessian(r, v1, v2) - (1.0 / (n - 2.0)) * w / v)
    return lam_rad, lam_tan


def radial_jet_eig_partials(n, r, v, v1, lam_rad, lam_tan):
    """Partials of :func:`radial_jet_eigs` in ``(v, v', v'')``, given its
    eigenvalues at the same jet: ``((rad_v, rad_1, rad_2), (tan_v, tan_1, tan_2))``.

    With ``P = (2/(n-2)) v^(-(n+2)/(n-2))`` each eigenvalue is ``P`` times a
    bracket, so its v-partial is ``-((n+2)/(n-2)) lam / v`` plus ``P`` times the
    bracket's.  ``lam_tan`` depends on ``v'`` through ``-v'/r`` and not on ``v''``,
    except at ``r = 0``, where the limit ``v'/r -> v''`` moves that dependence to
    ``v''``.
    """
    pref, w, at_zero = (2.0 / (n - 2.0)) * v ** (-(n + 2.0) / (n - 2.0)), v1 / v, r == 0.0
    beta, gam, kap = (n + 2.0) / (n - 2.0), (n - 1.0) / (n - 2.0), 1.0 / (n - 2.0)
    rad = (-beta * lam_rad / v - pref * gam * w ** 2, 2.0 * gam * pref * w, -pref)
    tan = (-beta * lam_tan / v + pref * kap * w ** 2,
           -pref * (np.where(at_zero, 0.0, 1.0 / (r + at_zero)) + 2.0 * kap * w),
           np.where(at_zero, -pref, 0.0))
    return rad, tan


def radial_schouten_eigs(p, r):
    """Radial and tangential Schouten eigenvalues of a radial profile at
    radii ``r`` (see :func:`radial_jet_eigs`); :class:`NumericError` where they
    leave the float range or the profile does not resolve them
    (``curvature_resolved``)."""
    pv = flat_equivalent(p)
    if not isinstance(pv, RadialProfile):
        raise DomainError("radial_schouten_eigs requires a radial profile "
                          "(centered at 0 over the sphere)")
    r = np.asarray(r, dtype=float)
    with np.errstate(**_QUIET):
        val, v1, v2 = pv.radial_jet(r)
        if np.count_nonzero(val <= 0.0):
            raise PositivityError("profile must be positive on the requested radii")
        if pv.curvature_resolved is not None:
            lost = ~pv.curvature_resolved(r)
            if np.count_nonzero(lost):
                raise NumericError(f"{pv.label} does not resolve its curvature at radius "
                                   f"{r[lost].flat[0]:g}")
        lam_rad, lam_tan = radial_jet_eigs(pv.n, r, val, v1, v2)
    _check_range(lam_rad, lam_tan)
    return lam_rad, lam_tan


# ---------------------------------------------------------------------------
# Kelvin transform
# ---------------------------------------------------------------------------

def kelvin(p):
    """Kelvin transform ``v*(x) = |x|^(2-n) v(x / |x|^2)`` of a flat profile.

    The transform pulls the metric back under inversion through the unit
    sphere, so sorted Schouten eigenvalues at ``x`` equal those of the
    original profile at ``x / |x|^2``.  Evaluation at the origin is a
    domain error.
    """
    pv = gauge_convert(p, "v")
    if pv.background.kind != "flat":
        raise DomainError("the Kelvin transform is defined over flat space")
    a = 2.0 - pv.n

    def jet_map(jet, x):
        r2 = _dot(x, x)
        if np.count_nonzero(r2 == 0.0):
            raise DomainError("Kelvin transform is undefined at the origin")
        r = np.sqrt(r2)
        val, grad, hess = jet(pv, x / r2[..., None])
        # With V, g, H the jet of v at x / r^2, gx = g.x / r^2 and hx = H x / r^2, the
        # gradient is r^(a-2) (g + c x) with c = a V - 2 gx, and the Hessian is the
        # update r^(a-4) (H + r^2 c I + beta x x' + x z' + z x') of H, with beta below
        # and z = (a - 2) g - 2 hx: the chain rule's reflection (I - 2 x x' / r^2) H
        # (I - 2 x x' / r^2), expanded, and the derivatives of r^a and of x / r^2.
        # beta x x' + x z' + z x' is x w' + w x' with w = z + beta x / 2.
        gx = _dot(grad, x) / r2
        hx = (hess @ x[..., None])[..., 0] / r2[..., None]
        c = a * val - 2.0 * gx
        beta = a * (a - 2.0) * val + (8.0 - 4.0 * a) * gx + 4.0 * _dot(hx, x) / r2
        xw = _outer(x, (a - 2.0) * grad - 2.0 * hx + (0.5 * beta)[..., None] * x)
        update = (r2 * c)[..., None, None] * np.eye(x.shape[-1]) + xw + xw.swapaxes(-1, -2)
        return (r ** a * val, (r ** (a - 2.0))[..., None] * (grad + c[..., None] * x),
                (r ** (a - 4.0))[..., None, None] * (hess + update))

    return _transform(pv, jet_map, isinstance(pv, RadialProfile) and pv.centered_at_origin,
                      "v", pv.background, domain=(0.0, np.inf), excludes_origin=True,
                      label=f"kelvin({pv.label})")
