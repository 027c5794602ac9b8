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
second route.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, NumericError, PositivityError, UsageError, parse_descriptor

GAUGES = ("v", "u", "w")


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

    @property
    def schouten_scale(self):
        return 1.0 / (2.0 * self.radius ** 2)

    def phi(self, x):
        a2 = self.radius ** 2
        return 2.0 * a2 / (a2 + float(np.dot(x, x)))

    def dlog_phi(self, x):
        a2 = self.radius ** 2
        return -2.0 * np.asarray(x, dtype=float) / (a2 + float(np.dot(x, x)))

    def conformal_factor_profile(self):
        """The sphere metric as a V-gauge factor over flat space."""
        base = bubble_profile(self.n, scale=self.radius)
        return scale_profile(base, (2.0 * self.radius) ** ((self.n - 2) / 2.0))


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

    Subclasses implement ``jet(x) -> (value, gradient, hessian)`` for a
    single point ``x`` of shape ``(n,)``.  Profiles are immutable after
    construction and safe for concurrent reads.
    """

    gauge = "v"
    background = None

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


class RadialProfile(Profile):
    """Profile depending only on the distance to a center point.

    ``fun``, ``d1``, ``d2`` are vectorized closures for the 1-D profile and
    its first two radial derivatives.  When the domain starts at 0 the
    profile is assumed even (``d1(0) = 0``), which is what smoothness of the
    full n-dimensional profile at the center requires.
    """

    def __init__(self, fun, d1, d2, n, gauge="v", background=None, center=None,
                 domain=(0.0, np.inf), excludes_origin=False, label=""):
        if gauge not in GAUGES:
            raise DomainError(f"unknown gauge '{gauge}'")
        self.background = _default_background(n, background)
        self.gauge = gauge
        self.fun, self.d1, self.d2 = fun, d1, d2
        self.center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != (n,):
            raise DomainError("center must be a point of dimension n")
        self.domain = (float(domain[0]), float(domain[1]))
        self.excludes_origin = excludes_origin
        self.label = label

    @property
    def centered_at_origin(self):
        return bool(np.all(self.center == 0.0))

    def _check_radius(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.domain
        if self.excludes_origin and np.any(s <= 0.0):
            raise DomainError(f"profile {self.label or 'radial'} is undefined at the center")
        if np.any(s < lo - 1e-12) or np.any(s > hi * (1 + 1e-12)):
            raise DomainError(f"radius outside profile domain [{lo:g}, {hi:g}]")
        return s

    def radial_value(self, s):
        return self.fun(self._check_radius(s))

    def radial_d1(self, s):
        return self.d1(self._check_radius(s))

    def radial_d2(self, s):
        return self.d2(self._check_radius(s))

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        s = float(np.linalg.norm(d))
        val = float(self.radial_value(s))
        v1 = float(self.radial_d1(s))
        v2 = float(self.radial_d2(s))
        n = self.n
        if s == 0.0:
            return val, np.zeros(n), v2 * np.eye(n)
        unit = d / s
        proj = np.outer(unit, unit)
        grad = v1 * unit
        hess = v2 * proj + (v1 / s) * (np.eye(n) - proj)
        return val, grad, hess


class CallableProfile(Profile):
    """Profile given only by a value callable; derivatives by 4th-order stencils.

    Intended for sampled or ad-hoc data where no analytic closure exists.
    ``step`` is the finite-difference step (absolute).
    """

    _W1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}  # /(12 h)

    def __init__(self, f, n, gauge="v", background=None, step=1e-3):
        if gauge not in GAUGES:
            raise DomainError(f"unknown gauge '{gauge}'")
        self.background = _default_background(n, background)
        self.gauge = gauge
        self.f = f
        self.step = float(step)

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        n, h, f = self.n, self.step, self.f
        val = float(f(x))
        grad = np.empty(n)
        hess = np.empty((n, n))
        eye = np.eye(n)
        for i in range(n):
            fp2, fp1 = f(x + 2 * h * eye[i]), f(x + h * eye[i])
            fm1, fm2 = f(x - h * eye[i]), f(x - 2 * h * eye[i])
            grad[i] = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
            hess[i, i] = (-fp2 + 16 * fp1 - 30 * val + 16 * fm1 - fm2) / (12 * h ** 2)
        for i in range(n):
            for j in range(i + 1, n):
                acc = 0.0
                for p, wp in self._W1.items():
                    for q, wq in self._W1.items():
                        acc += wp * wq * f(x + p * h * eye[i] + q * h * eye[j])
                hess[i, j] = hess[j, i] = acc / (144 * h ** 2)
        return val, grad, hess


class _JetProfile(Profile):
    """Profile built from an explicit jet closure (internal wrapper base)."""

    def __init__(self, jet_fn, n, gauge, background):
        self.background = _default_background(n, background)
        self.gauge = gauge
        self._jet_fn = jet_fn

    def jet(self, x):
        return self._jet_fn(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Gauge conversion
# ---------------------------------------------------------------------------

def _power_map(p):
    def G(y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise PositivityError("gauge conversion requires a positive profile")
        return y ** p

    return G, lambda y: p * y ** (p - 1.0), lambda y: p * (p - 1.0) * y ** (p - 2.0)


def _log_map(c):
    def G(y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise PositivityError("gauge conversion requires a positive profile")
        return c * np.log(y)

    return G, lambda y: c / y, lambda y: -c / y ** 2


def _exp_map(c):
    exp = np.exp
    return (lambda y: exp(c * np.asarray(y, dtype=float)),
            lambda y: c * exp(c * y),
            lambda y: c * c * exp(c * y))


def _gauge_map(src, dst, n):
    if src == "v" and dst == "u":
        return _power_map(-2.0 / (n - 2))
    if src == "u" and dst == "v":
        return _power_map(-(n - 2) / 2.0)
    if src == "u" and dst == "w":
        return _log_map(1.0)
    if src == "w" and dst == "u":
        return _exp_map(1.0)
    if src == "v" and dst == "w":
        return _log_map(-2.0 / (n - 2))
    if src == "w" and dst == "v":
        return _exp_map(-(n - 2) / 2.0)
    raise DomainError(f"no gauge map {src} -> {dst}")


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

    if isinstance(profile, RadialProfile):
        fun, d1, d2 = profile.fun, profile.d1, profile.d2

        def cfun(s):
            return G(fun(s))

        def cd1(s):
            return G1(fun(s)) * d1(s)

        def cd2(s):
            y, y1 = fun(s), d1(s)
            return G2(y) * y1 ** 2 + G1(y) * d2(s)

        return RadialProfile(cfun, cd1, cd2, profile.n, gauge=target,
                             background=profile.background, center=profile.center,
                             domain=profile.domain,
                             excludes_origin=profile.excludes_origin,
                             label=profile.label)

    def jet_fn(x):
        val, grad, hess = profile.jet(x)
        g1, g2 = G1(val), G2(val)
        return (float(G(val)), g1 * grad,
                g2 * np.outer(grad, grad) + g1 * hess)

    return _JetProfile(jet_fn, profile.n, target, profile.background)


def scale_profile(profile, t):
    """Multiply a profile by a positive constant (in its own gauge)."""
    if t <= 0:
        raise DomainError(f"scale factor must be positive, got {t}")
    if isinstance(profile, RadialProfile):
        fun, d1, d2 = profile.fun, profile.d1, profile.d2
        return RadialProfile(lambda s: t * fun(s), lambda s: t * d1(s),
                             lambda s: t * d2(s), profile.n, gauge=profile.gauge,
                             background=profile.background, center=profile.center,
                             domain=profile.domain,
                             excludes_origin=profile.excludes_origin,
                             label=profile.label)

    def jet_fn(x):
        val, grad, hess = profile.jet(x)
        return t * val, t * grad, t * hess

    return _JetProfile(jet_fn, profile.n, profile.gauge, profile.background)


# ---------------------------------------------------------------------------
# Exact profile catalog
# ---------------------------------------------------------------------------

def constant_profile(n, c=1.0, gauge="v", background=None):
    """Profile identically equal to ``c`` (flat metric when c > 0, flat bg)."""
    if c <= 0 and gauge in ("v", "u"):
        raise DomainError(f"constant profile must be positive in gauge {gauge}")
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return RadialProfile(lambda s: np.full_like(np.asarray(s, dtype=float), float(c)),
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
    c = eps ** m

    def fun(s):
        return c * (eps ** 2 + np.asarray(s, dtype=float) ** 2) ** (-m)

    def d1(s):
        s = np.asarray(s, dtype=float)
        return c * (-m) * (eps ** 2 + s ** 2) ** (-m - 1) * 2.0 * s

    def d2(s):
        s = np.asarray(s, dtype=float)
        q = eps ** 2 + s ** 2
        return c * (-2.0 * m * q ** (-m - 1) + 4.0 * m * (m + 1) * s ** 2 * q ** (-m - 2))

    return RadialProfile(fun, d1, d2, n, gauge=gauge, background=background,
                         center=center, label=f"bubble:scale={scale:g}")


def grid_radial_profile(r, v, n, gauge="v", background=None, label="grid"):
    """Radial profile from sampled values ``(r, v)``, spline differentiated.

    ``r`` must be strictly increasing.  When the grid starts at 0 the data
    is extended evenly across the origin so the interpolant satisfies
    ``v'(0) = 0``.
    """
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


def load_radial_profile(path, n, gauge="v", background=None):
    """Load a two-column ``(r, v)`` text file into a radial profile."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] < 2:
        raise UsageError(f"profile file '{path}' is not a two-column table")
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
    val, grad, hess = pv.jet(x)
    if not val > 0.0:
        raise PositivityError(f"profile must be positive, got v({x}) = {val:g}")
    n = pv.n
    if pv.background.kind == "sphere":
        dlp = pv.background.dlog_phi(x)
        hess = hess - (np.outer(dlp, grad) + np.outer(grad, dlp)
                       - float(dlp @ grad) * np.eye(n))
    return (-hess + (n / (n - 2.0)) * np.outer(grad, grad) / val
            - (1.0 / (n - 2.0)) * float(grad @ grad) / val * np.eye(n))


def _eigvalsh(mat):
    defect = float(np.max(np.abs(mat - mat.T)))
    scale = 1.0 + float(np.max(np.abs(mat)))
    if defect > 1e-10 * scale:
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
    psi = pv.background.conformal_factor_profile()
    flat = FlatBackground(pv.n)
    if isinstance(pv, RadialProfile) and pv.centered_at_origin:
        f1, d11, d21 = pv.fun, pv.d1, pv.d2
        f2, d12, d22 = psi.fun, psi.d1, psi.d2
        return RadialProfile(
            lambda s: f1(s) * f2(s),
            lambda s: d11(s) * f2(s) + f1(s) * d12(s),
            lambda s: d21(s) * f2(s) + 2.0 * d11(s) * d12(s) + f1(s) * d22(s),
            pv.n, gauge="v", background=flat, domain=pv.domain,
            excludes_origin=pv.excludes_origin, label=pv.label)

    def jet_fn(x):
        v1, g1, h1 = pv.jet(x)
        v2, g2, h2 = psi.jet(x)
        return (v1 * v2, g1 * v2 + v1 * g2,
                h1 * v2 + np.outer(g1, g2) + np.outer(g2, g1) + v1 * h2)

    return _JetProfile(jet_fn, pv.n, "v", flat)


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
    if p.gauge == "u":
        val, grad, hess = p.jet(x)
        if not val > 0.0:
            raise PositivityError(f"profile must be positive, got u({x}) = {val:g}")
        mat = val * hess - 0.5 * float(grad @ grad) * np.eye(p.n)
        return SchoutenMatrix(matrix=mat, eigenvalues=_eigvalsh(mat))
    val = p.value(x)
    if not val > 0.0:
        raise PositivityError(f"profile must be positive, got v({x}) = {val:g}")
    n = p.n
    mat = (2.0 / (n - 2.0)) * val ** (-(n + 2.0) / (n - 2.0)) * conformal_hessian_matrix(p, x)
    return SchoutenMatrix(matrix=mat, eigenvalues=_eigvalsh(mat))


def schouten_eigs(p, x):
    """Schouten eigenvalues of the metric of ``p`` at ``x`` (sorted ascending)."""
    return schouten_matrix(p, x).eigenvalues


def tangential_hessian(r, d1, d2):
    """Tangential Hessian eigenvalue ``d1 / r`` of a radial function, with
    the even-extension limit ``d2`` at ``r = 0``."""
    return np.where(r == 0.0, d2, d1 / np.where(r == 0.0, 1.0, r))


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
    pref = (2.0 / (n - 2.0)) * v ** (-(n + 2.0) / (n - 2.0))
    lam_rad = pref * (-v2 + ((n - 1.0) / (n - 2.0)) * v1 ** 2 / v)
    lam_tan = pref * (-tangential_hessian(r, v1, v2) - (1.0 / (n - 2.0)) * v1 ** 2 / v)
    return lam_rad, lam_tan


def radial_schouten_eigs(p, r):
    """Radial and tangential Schouten eigenvalues of a radial profile at
    radii ``r`` (see :func:`radial_jet_eigs`)."""
    pv = flat_equivalent(p)
    if not isinstance(pv, RadialProfile):
        raise DomainError("radial_schouten_eigs requires a radial profile "
                          "(centered at 0 over the sphere)")
    r = np.asarray(r, dtype=float)
    val = pv.radial_value(r)
    if np.any(val <= 0.0):
        raise PositivityError("profile must be positive on the requested radii")
    return radial_jet_eigs(pv.n, r, val, pv.radial_d1(r), pv.radial_d2(r))


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
    n = pv.n
    a = 2.0 - n

    if isinstance(pv, RadialProfile) and pv.centered_at_origin:
        fun, d1, d2 = pv.fun, pv.d1, pv.d2

        def kfun(s):
            s = np.asarray(s, dtype=float)
            return s ** a * fun(1.0 / s)

        def kd1(s):
            s = np.asarray(s, dtype=float)
            return a * s ** (a - 1) * fun(1.0 / s) - s ** (a - 2) * d1(1.0 / s)

        def kd2(s):
            s = np.asarray(s, dtype=float)
            return (a * (a - 1) * s ** (a - 2) * fun(1.0 / s)
                    - (2 * a - 2) * s ** (a - 3) * d1(1.0 / s)
                    + s ** (a - 4) * d2(1.0 / s))

        return RadialProfile(kfun, kd1, kd2, n, gauge="v",
                             background=pv.background, excludes_origin=True,
                             label=f"kelvin({pv.label})")

    def jet_fn(x):
        r2 = float(x @ x)
        if r2 == 0.0:
            raise DomainError("Kelvin transform is undefined at the origin")
        r = np.sqrt(r2)
        y = x / r2
        val, grad, hess = pv.jet(y)
        s = r ** a
        ds = a * r ** (a - 2.0) * x
        d2s = a * (r ** (a - 2.0) * np.eye(n) + (a - 2.0) * r ** (a - 4.0) * np.outer(x, x))
        jac = (np.eye(n) - 2.0 * np.outer(x, x) / r2) / r2
        jg = jac @ grad
        # second derivatives of y_k = x_k / r^2
        kx = (-2.0 / r2 ** 2) * (np.einsum("k,jl->kjl", x, np.eye(n))
                                 + np.einsum("j,kl->kjl", x, np.eye(n))
                                 + np.einsum("l,kj->kjl", x, np.eye(n)))
        kx += (8.0 / r2 ** 3) * np.einsum("k,j,l->kjl", x, x, x)
        phess = jac @ hess @ jac + np.einsum("k,kjl->jl", grad, kx)
        kval = s * val
        kgrad = val * ds + s * jg
        khess = val * d2s + np.outer(ds, jg) + np.outer(jg, ds) + s * phess
        return kval, kgrad, khess

    return _JetProfile(jet_fn, n, "v", pv.background)
