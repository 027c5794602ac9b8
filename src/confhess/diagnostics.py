"""Estimate monitors, blow-up rescaling, volume comparison, Harnack exponent.

These are the quantities that a priori estimates and compactness arguments
for admissible conformal metrics are about:

* ``gradient_monitor``  -- sup of ``rho |Dv| / v`` over a ball, with the
  cutoff ``rho(x) = (1 - |x|^2/r^2)+``;
* ``hessian_monitor``   -- sup of ``rho^2 |u_xi,xi|`` over the ball and over
  unit directions xi (U gauge);
* ``blowup_rescale``    -- recenter at a point, dilate coordinates by the
  gradient magnitude, and normalize the value to 1 at the center: a profile
  transform like the gauge maps of :mod:`confhess.conformal`;
* ``bishop_gromov_curve`` -- geodesic-ball volume over Euclidean-ball
  volume for radial metrics ``g = u^-2 dx^2`` (non-increasing under
  nonnegative Ricci curvature, identically 1 only for flat space);
* ``harnack_beta`` / ``holder_check`` -- the Holder exponent
  ``(1 - delta (n-2)) / (1 + delta)`` and sampled Holder seminorms.

A profile radial about any center ``c`` reduces the ball monitors and the
oscillation to one scan of the radii ``s`` of the spheres about ``c`` that meet
the ball: the cutoff is largest on such a sphere at ``|x| = | |c| - s |``.  Other
profiles, and explicit ``points``, are sampled at quasi-random ball points, all
in one batched jet or value call.  ``scipy.stats`` is imported on the first
Sobol sample of a ball, not with the module.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import conformal
from .conformal import _norm
from .errors import _QUIET, DomainError, NumericError

#: Default dense 1-D scan size used by the radial monitor fast paths.
RADIAL_SCAN = 10001


def unit_ball_volume(n):
    """Volume of the unit ball in R^n, from the Gamma function."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n):
    """Area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def cutoff(x_norm, radius):
    """The clamped cutoff ``(1 - |x|^2 / r^2)+``."""
    return np.maximum(1.0 - (np.asarray(x_norm, dtype=float) / radius) ** 2, 0.0)


# ---------------------------------------------------------------------------
# Quadrature: composite Simpson with panel doubling and Richardson correction
# ---------------------------------------------------------------------------

def adaptive_simpson(f, a, b):
    """Integrate a vectorized integrand over ``[a, b]`` arrays of intervals.

    Panels are doubled until successive composite Simpson values agree to
    ``1e-14 + 1e-9 |value|`` on every interval, then the Richardson-corrected
    value is returned.  Shape of ``a``/``b`` is preserved.  A composite value that
    is not finite, or 2^23 points in all without agreement (2^23 panels for one
    interval), raise :class:`NumericError`, so that memory stays bounded.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))

    def composite(panels):
        t = np.linspace(0.0, 1.0, panels + 1)
        pts = a[..., None] + (b - a)[..., None] * t
        fv = f(pts)
        w = np.ones(panels + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = (b - a) / panels
        return (h / 3.0) * np.einsum("...k,k->...", fv, w)

    prev, panels = composite(2), 4
    while True:
        cur = composite(panels)
        if np.all(np.abs(cur - prev) <= 1e-14 + 1e-9 * np.abs(cur)):
            return cur + (cur - prev) / 15.0
        if not np.all(np.isfinite(cur)):
            raise NumericError("integral leaves the float range")
        if panels * a.size >= 2 ** 23:
            raise NumericError("integral does not converge in 2^23 points")
        prev, panels = cur, 2 * panels


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateMonitor:
    """Supremum of a cutoff-weighted derivative quantity over a ball."""

    kind: str
    radius: float
    supremum: float
    location: float      # |x| of the maximizer
    direction: str       # 'radial' / 'tangential' / 'sampled'
    samples: int

    def to_dict(self):
        return asdict(self)


def _sobol_ball(n, radius, count, seed=0):
    from scipy.stats import qmc

    eng = qmc.Sobol(d=n, scramble=True, seed=seed)
    u = eng.random(count)
    g = np.clip(u * 2.0 - 1.0, -1.0, 1.0)
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    keep = nrm[:, 0] > 1e-12
    g = g[keep] / np.maximum(nrm[keep], 1e-12)
    radii = radius * u[keep, 0:1] ** (1.0 / n)
    return g * radii


def _check_ball(radius, num_samples):
    if not (0.0 < radius < math.inf and num_samples >= 1):
        raise DomainError(f"need a finite positive radius and samples, got {radius}, {num_samples}")


def _argmax(kind, z):
    """Index of the first maximizer of ``z``; :class:`NumericError` where a value
    of ``z`` is not finite, as no supremum can be told then."""
    if not z.size:
        raise DomainError("no sample points")
    if not np.all(np.isfinite(z)):
        raise NumericError(f"{kind} monitor leaves the float range")
    return int(np.argmax(z))


def _ball_radii(p, radius, num_samples):
    """``|c|`` and ``num_samples`` even radii ``s`` of the spheres about the center
    ``c`` of a radial ``p`` that meet the ball: ``[|c| - radius, |c| + radius]``,
    clipped to the domain, and from ``(|c| + radius) / num_samples`` where ``p``
    excludes its center.  On each sphere the cutoff is largest at
    ``|x| = | |c| - s |``."""
    c = float(_norm(p.center))
    lo = max(c - radius, p.domain[0], 0.0)
    if p.excludes_origin:
        lo = max(lo, (c + radius) / num_samples)
    return c, np.linspace(lo, min(c + radius, p.domain[1]), num_samples)


def _radial(kind, p, radius, num_samples, weigh):
    """The monitor of a radial ``p`` from ``weigh(s, x) -> (z, tangential)`` on the
    radii of :func:`_ball_radii`, with ``x = | |c| - s |``.  While the maximizer is
    the first interior radius, ``[s0, s2]`` is scanned again with as many radii,
    until that bracket no longer subdivides: a peak narrower than the step lies
    there."""
    c, s = _ball_radii(p, radius, num_samples)
    while True:
        z, tangential = weigh(s, np.abs(c - s))
        i = _argmax(kind, z)
        if i != 1 or s.size < 3 or not s[0] < (t := np.linspace(s[0], s[2], s.size))[1] < s[1]:
            direction = "tangential" if np.broadcast_to(tangential, z.shape)[i] else "radial"
            return EstimateMonitor(kind, radius, float(z[i]), float(abs(c - s[i])), direction,
                                   num_samples)
        s = t


def _sampled(kind, radius, z, pts):
    """The monitor at the first maximizer of ``z`` over the sample points."""
    i = _argmax(kind, z)
    return EstimateMonitor(kind, radius, float(z[i]), float(_norm(pts[i])),
                           "sampled", len(pts))


@np.errstate(**_QUIET)
def gradient_monitor(p, radius, num_samples=RADIAL_SCAN, points=None):
    """Supremum of ``rho |Dv| / v`` over the ball of the given radius.

    Radial profiles are scanned on a dense 1-D grid of radii (:func:`_radial`);
    other profiles are sampled at quasi-random ball points (or at explicitly
    provided ``points``).
    """
    _check_ball(radius, num_samples)
    pv = conformal.gauge_convert(p, "v")
    if isinstance(pv, conformal.RadialProfile) and points is None:
        def weigh(s, x):
            val, d1, _ = pv.radial_jet(s)
            return cutoff(x, radius) * np.abs(d1) / val, False

        return _radial("gradient", pv, radius, num_samples, weigh)
    pts = _sobol_ball(pv.n, radius, num_samples) if points is None else np.asarray(points)
    val, grad, _ = pv.jet(pts)
    z = cutoff(_norm(pts), radius) * _norm(grad) / val
    return _sampled("gradient", radius, z, pts)


@np.errstate(**_QUIET)
def hessian_monitor(p, radius, num_samples=RADIAL_SCAN, points=None):
    """Supremum of ``rho^2 |u_xi,xi|`` over the ball and unit directions xi.

    The profile is converted to the U gauge; the extremal direction of the
    Hessian of a radial ``u`` is either radial (second derivative) or
    tangential (``u'/s``).  Sampled points share one batched eigendecomposition.
    """
    _check_ball(radius, num_samples)
    pu = conformal.gauge_convert(p, "u")
    if isinstance(pu, conformal.RadialProfile) and points is None:
        def weigh(s, x):
            _, d1, d2 = pu.radial_jet(s)
            tang = np.abs(conformal.tangential_hessian(s, d1, d2))
            rad = np.abs(d2)
            return cutoff(x, radius) ** 2 * np.maximum(rad, tang), rad < tang

        return _radial("hessian", pu, radius, num_samples, weigh)
    pts = _sobol_ball(pu.n, radius, num_samples) if points is None else np.asarray(points)
    hess = pu.hessian(pts)
    eigs = np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    z = cutoff(_norm(pts), radius) ** 2 * np.max(np.abs(eigs), axis=-1)
    return _sampled("hessian", radius, z, pts)


# ---------------------------------------------------------------------------
# Blow-up rescaling
# ---------------------------------------------------------------------------

def blowup_rescale(p, x_k):
    """``vt(y) = v(x_k + y / d) / v(x_k)`` with ``d = |Dv(x_k)|``: recenter, dilate by
    the gradient magnitude, normalize the value.

    ``vt(0) = 1`` exactly, and ``|Dvt(0)| = 1`` whenever ``v(x_k) = 1`` (as in the
    blow-up procedure, where the supremum normalization comes first).  A profile
    radial about ``c`` gives one radial about ``d (c - x_k)``, whose radius ``s`` is
    the base's ``s / d``; any other gives an n-D transform.
    """
    pv = conformal.gauge_convert(p, "v")
    val0, grad0, _ = pv.jet(x_k)
    d = float(np.linalg.norm(grad0))
    if not d > 0.0:
        raise DomainError("blow-up rescaling is degenerate where the gradient vanishes")
    radial, shift, changes = isinstance(pv, conformal.RadialProfile), x_k, {}
    if radial:
        center = d * (pv.center - x_k)
        shift, changes = 0.0, {"center": center, "domain": (d * pv.domain[0], d * pv.domain[1])}
        val0 = pv.radial_value(_norm(-center) / d)      # the base radius of vt(0)
    if not val0 > 0.0:
        raise DomainError("blow-up rescaling requires a positive center value")

    def jet_map(jet, y):
        val, grad, hess = jet(pv, shift + y / d)
        return val / val0, grad / (d * val0), hess / (d * d * val0)

    return conformal._transform(pv, jet_map, radial, "v", pv.background, **changes)


def oscillation_on_ball(p, radius, num_samples=4096):
    """max - min of a profile over the ball ``|y| <= radius``: over the radii of
    :func:`_ball_radii` for a radial profile, whatever its center (a blow-up of
    one included), else at quasi-random ball points."""
    _check_ball(radius, num_samples)
    if isinstance(p, conformal.RadialProfile):
        vals = p.radial_value(_ball_radii(p, radius, num_samples)[1])
    else:
        vals = p.value(_sobol_ball(p.n, radius, num_samples))
    return float(np.max(vals) - np.min(vals))


# ---------------------------------------------------------------------------
# Bishop-Gromov volume ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeRatioCurve:
    """Geodesic-ball over Euclidean-ball volume ratios ``Q(r)``."""

    n: int
    radii: np.ndarray
    ratios: np.ndarray

    def rows(self):
        return list(zip([float(t) for t in self.radii], [float(t) for t in self.ratios]))

    def to_dict(self):
        return {"n": self.n, "radii": [float(t) for t in self.radii],
                "ratios": [float(t) for t in self.ratios]}


@np.errstate(**_QUIET)
def bishop_gromov_curve(p, r_list):
    """Volume ratios ``Q(r) = Vol(B_g(0, r)) / Vol(B_euclid(0, r))``.

    The metric is ``g = u^-2 dx^2`` for a radial U-gauge profile ``u``
    (other gauges are converted).  Geodesic radius and ball volume reduce to
    the 1-D integrals

        rho(s) = int_0^s dt / u(t),
        Vol(s) = area(S^(n-1)) int_0^s t^(n-1) / u(t)^n dt,

    and ``s(r)`` is found by Newton's method inside the cell of the cumulative
    ``rho`` table that holds ``r``.  Radii beyond the reachable geodesic radius raise a domain
    error, and a ratio that is not finite and positive raises :class:`NumericError`.
    The ratio is formed from ``Vol / r^n`` integrated in the variable ``t / r``, so
    that it stays in range where ``r^n`` and ``Vol`` underflow.
    """
    pu = conformal.gauge_convert(p, "u")
    if not (isinstance(pu, conformal.RadialProfile) and pu.centered_at_origin):
        raise DomainError("volume comparison requires a radial profile centered at 0")
    if pu.background.kind != "flat":
        raise DomainError("volume comparison is defined over the flat background")
    r_list = np.asarray(r_list, dtype=float)
    if not np.all((r_list > 0.0) & (r_list < np.inf)):     # NaN fails both
        raise DomainError("radii must be finite and positive")
    n = pu.n
    u = pu.radial_value

    def inv_u(t):
        val = u(t)
        if np.any(val <= 0.0):
            raise DomainError("u must be positive on the integration range")
        return 1.0 / val

    def vol_density(t):
        return t ** (n - 1) * inv_u(t) ** n

    r_max = float(np.max(r_list))
    domain_cap = pu.domain[1]
    s_max = domain_cap if np.isfinite(domain_cap) else max(4.0 * r_max, 4.0)
    allow_growth = not np.isfinite(domain_cap)

    while True:
        nodes = np.concatenate([[0.0], np.geomspace(min(1e-4, s_max * 1e-6), s_max, 2048)])
        rho_steps = adaptive_simpson(inv_u, nodes[:-1], nodes[1:])
        vol_steps = adaptive_simpson(vol_density, nodes[:-1], nodes[1:])
        rho_tab = np.concatenate([[0.0], np.cumsum(rho_steps)])
        vol_tab = np.concatenate([[0.0], np.cumsum(vol_steps)])
        reach = float(rho_tab[-1])
        if reach >= r_max - 1e-9 or not allow_growth or s_max >= 1e10:
            break
        s_max *= 8.0

    if r_max > reach + 1e-8 * (1.0 + r_max):
        raise DomainError(
            f"radius {r_max:g} exceeds the reachable geodesic radius {reach:g}")

    area = unit_sphere_area(n)
    ball = unit_ball_volume(n)
    ratios = np.empty(r_list.size)
    for idx, r in enumerate(r_list):
        if r >= reach:
            scaled = vol_tab[-1] / r ** n
        else:
            # Newton on rho(s) = r with rho'(s) = 1/u(s), inside the table
            # cell holding r; a step leaving the shrinking bracket bisects it.
            j = int(np.searchsorted(rho_tab, r, side="right")) - 1
            lo, hi = float(nodes[j]), float(nodes[j + 1])
            s_r = lo + (hi - lo) * (r - rho_tab[j]) / (rho_tab[j + 1] - rho_tab[j])
            for _ in range(100):
                g = rho_tab[j] + adaptive_simpson(inv_u, nodes[j], s_r)[0] - r
                lo, hi = (s_r, hi) if g < 0.0 else (lo, s_r)
                s_new = s_r - g / float(inv_u(s_r))
                if not lo <= s_new <= hi:
                    s_new = 0.5 * (lo + hi)
                s_r, step = s_new, abs(s_new - s_r)
                if step <= 1e-13 * (1.0 + s_r):
                    break
            # Vol / r^n, with the last cell's integral in t = r tau: at small r
            # both r^n and Vol underflow, their quotient does not
            scaled = (vol_tab[j] / r ** n if j else 0.0) + adaptive_simpson(
                lambda tau: tau ** (n - 1) * inv_u(r * tau) ** n, nodes[j] / r, s_r / r)[0]
        ratios[idx] = area * scaled / ball
    bad = ~((ratios > 0.0) & (ratios < np.inf))
    if np.any(bad):
        raise NumericError(f"volume ratio at radius {r_list[bad][0]:g} leaves the float range")
    return VolumeRatioCurve(n=n, radii=r_list.copy(), ratios=ratios)


# ---------------------------------------------------------------------------
# Harnack exponent and Holder seminorm
# ---------------------------------------------------------------------------

def harnack_beta(delta, n):
    """Holder exponent ``(1 - delta (n-2)) / (1 + delta)``.

    Defined for ``0 <= delta < 1/(n-2)``; outside that range the exponent
    would leave (0, 1] and a domain error is raised.
    """
    if n < 3:
        raise DomainError(f"dimension n={n} must be >= 3")
    if not 0.0 <= delta < 1.0 / (n - 2):
        raise DomainError(
            f"delta must lie in [0, 1/(n-2)) = [0, {1.0 / (n - 2):g}), got {delta}")
    return (1.0 - delta * (n - 2)) / (1.0 + delta)


@np.errstate(**_QUIET)
def holder_check(points, values, beta):
    """Sampled Holder seminorm ``max |w(x) - w(y)| / |x - y|^beta``.

    Points and values must be finite (else :class:`DomainError`); a seminorm
    that leaves the float range raises :class:`NumericError`.  Each distance is
    taken as ``2^e |(x - y) / 2^e|`` with ``max |(x - y) / 2^e|`` in [1/2, 1), so
    that no square in it overflows or underflows; pairs of points or of values
    whose difference overflows are differenced halved."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] != values.shape[0] or points.shape[0] < 2:
        raise DomainError("need >= 2 sample points with matching values")
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
        raise DomainError("sample points and values must be finite")
    i, j = np.triu_indices(points.shape[0], k=1)
    diff = points[i] - points[j]
    half = ~np.all(np.isfinite(diff), axis=-1)
    diff[half] = 0.5 * points[i[half]] - 0.5 * points[j[half]]
    e = np.frexp(np.max(np.abs(diff), axis=-1))[1]
    d = np.linalg.norm(np.ldexp(diff, -e[:, None]), axis=-1)
    if np.any(d <= 0.0):
        raise DomainError("pairwise distances must be positive")
    dw = values[i] - values[j]
    halved = ~np.isfinite(dw)
    dw[halved] = 0.5 * values[i[halved]] - 0.5 * values[j[halved]]
    seminorm = float(np.max(np.abs(dw) / (d ** beta * np.exp2((e + half) * beta))
                            * (1.0 + halved)))
    if not np.isfinite(seminorm):
        raise NumericError("sampled Holder seminorm leaves the float range")
    return seminorm


@dataclass(frozen=True)
class HarnackReport:
    """Exponent and sampled seminorm for one conformal factor."""

    delta: float
    n: int
    beta: float
    seminorm: float
    samples: int

    def to_dict(self):
        return asdict(self)


def harnack_report(delta, n, points, values):
    beta = harnack_beta(delta, n)
    return HarnackReport(delta=delta, n=n, beta=beta,
                         seminorm=holder_check(points, values, beta),
                         samples=int(np.asarray(values).shape[0]))
