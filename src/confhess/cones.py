"""Admissibility cones: membership, boundary location, sampling, inclusions.

Three cone families are supported:

* ``GammaK(n, k)``  -- the Garding cone where ``sigma_1 .. sigma_k`` are all
  positive (``k = 1`` is the half-space ``sum lam_i > 0``, ``k = n`` the
  positive orthant);
* ``SigmaDelta(n, delta)`` -- ``min lam_i + delta * sum lam_i > 0``, the cone
  characterizing Ricci-curvature positivity when ``delta = 1/(n-2)``;
* ``Positivity(spec)`` -- the set where a curvature operator is defined and
  strictly positive, used by operators whose natural cone has no closed form.

Membership is strict (the cones are open); callers that need robustness
inspect the margin returned by :func:`boundary_shift`.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _poly
from .errors import DomainError, NumericError, parse_descriptor

#: A row of the Gamma_k boundary iteration stops once its step is below this fraction of max |lam_i|.
NEWTON_STEP_TOL = 1e-13
#: Cap on its Laguerre steps; Gaussian rows at n <= 8 take 4-5, two-valued rows 2.
NEWTON_MAX_STEPS = 100


def _check_dim(n):
    if n < 3:
        raise DomainError(f"dimension n={n} must be >= 3")


def _unit_rows(lam, j=1):
    """``(lam / s, log2 s)``, ``s`` the power of two per row putting the product of
    the ``j`` largest ``|lam_i|`` in ``[1, 2^(2j - 1))`` (``max |lam_i|`` in ``[1, 2)``
    at ``j = 1``): no product of ``j`` entries of ``lam / s`` overflows, and those
    lost to underflow are below 2^-1074 of the largest.  Partial products of fewer
    entries still can, in rows spanning hundreds of binary orders of magnitude."""
    lam = np.asarray(lam, dtype=float)
    if j == 1:
        e = np.frexp(_poly.reduce_columns(np.maximum, np.abs(lam)))[1] - 1
    else:
        e = np.sum(np.frexp(_poly.sort_rows(np.abs(lam))[..., -j:])[1], axis=-1) // j - 1
    return np.ldexp(lam, -e[..., None]), e


def _homogeneous(fn, lam):
    """``(v, p)``, ``fn(lam)[..., j - 1] = v[..., j - 1] * 2^(j p[..., j - 1])`` for ``fn``
    mapping rows to values of degree ``j = 1, 2, ..``.  Rows where every value is
    finite and nonzero keep ``fn(lam)``; on the others (overflow, inf - inf or
    rounding to 0) value ``j`` is evaluated again on ``_unit_rows(lam, j)``."""
    lam = np.asarray(lam, dtype=float)
    rows = lam.reshape(-1, lam.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):    # rows with inf or NaN entries too
        v = fn(rows)
        redo = np.flatnonzero(np.any(~np.isfinite(v) | (v == 0.0), axis=-1))
        p = np.broadcast_to(0, v.shape)     # no array while no row is redone
        if redo.size:
            p = np.zeros(v.shape, dtype=int)
            for j in range(1, v.shape[-1] + 1):
                x, p[redo, j - 1] = _unit_rows(rows[redo], j)
                v[redo, j - 1] = fn(x)[:, j - 1]
    shape = lam.shape[:-1] + v.shape[-1:]
    return v.reshape(shape), p.reshape(shape)


@dataclass(frozen=True)
class GammaK:
    """Cone where sigma_1 .. sigma_k of the eigenvalues are all positive."""

    n: int
    k: int

    def __post_init__(self):
        _check_dim(self.n)
        if not 1 <= self.k <= self.n:
            raise DomainError(f"GammaK requires 1 <= k <= n, got k={self.k}, n={self.n}")

    def _sigmas(self, lam):
        return _homogeneous(lambda x: _poly.elementary_all(x, self.k)[..., 1:], lam)

    def contains(self, lam):
        if self.k == self.n:
            return _poly.reduce_columns(np.minimum, lam) > 0.0
        return np.all(self._sigmas(lam)[0] > 0.0, axis=-1)

    def diagonal_shift(self, lam):
        """Largest root ``t*`` of ``q(t) = sigma_k(lam + t 1)``, real-rooted as GammaK is its
        hyperbolicity cone (Garding).  One ``elementary_all`` pass at ``t0 = -min lam_i``
        (right of ``t*``) gives the Taylor coefficients ``C(n - j, k - j) sigma_j(lam + t0 1)
        >= 0`` of ``p(s) = q(t0 + s)``.  Laguerre's method on ``p`` falls from ``s = 0``
        monotonically and cubically to its largest root, in 4-5 steps on Gaussian rows (it
        is exact where the other roots coincide, as on two-valued rows).  Each row stops on
        its own step, so its result does not depend on the other rows of the batch.  One
        Newton step on ``sigma_k`` of the shifted rows polishes ``t``.  At k = 2, ``q`` is
        quadratic: ``t* = r - mean``, ``r^2 = sum (lam_i - mean)^2 / (n (n-1))``, or
        ``-2 sigma_2 / (n (n-1) (mean + r))``, free of cancellation, if mean > 0."""
        n, k = self.n, self.k
        if k == 2:
            mean = _poly.reduce_columns(np.add, lam)
            mean /= n
            r = np.sqrt(_poly.reduce_columns(np.add, (lam - mean[..., None]) ** 2) / (n * (n - 1)))
            s2 = _poly.elementary_all(lam, 2)[..., 2]
            with np.errstate(divide="ignore", invalid="ignore"):    # rows taking r - mean
                return np.where(mean > 0.0, -2.0 * s2 / (n * (n - 1) * (mean + r)), r - mean)[()]
        if k == 1:
            return -_poly.reduce_columns(np.add, lam) / n
        t = -_poly.reduce_columns(np.minimum, lam)
        if k == n:
            return t
        lam = np.asarray(lam, dtype=float)
        shape, lam, t = lam.shape[:-1], lam.reshape(-1, n), np.reshape(t, -1)
        tol = NEWTON_STEP_TOL * np.maximum(_poly.reduce_columns(np.maximum, lam), t)   # max |lam_i|
        # planes c[j] = C(n - j, k - j) sigma_j(lam + t 1): p(s) = sum_j c[j] s^(k - j)
        c = np.moveaxis(_poly.elementary_all(lam + t[:, None], k), -1, 0)
        c *= np.array([math.comb(n - j, k - j) for j in range(k + 1)])[:, None]
        s, active = np.zeros_like(t), np.ones(t.shape, dtype=bool)
        for _ in range(NEWTON_MAX_STEPS):
            p, dp, hp = c[0], 0.0, 0.0      # p, p', p''/2 at s, by Horner
            for j in range(1, k + 1):
                hp, dp, p = hp * s + dp, dp * s + p, p * s + c[j]
            # Laguerre's step k p / (p' + sqrt((k-1)^2 p'^2 - k (k-1) p p'')); p or
            # p' <= 0 is rounding at the root, and such rows stay put
            root = dp + np.sqrt(np.maximum((k - 1) ** 2 * dp * dp - 2 * k * (k - 1) * p * hp, 0))
            step = np.divide(k * p, root, out=np.zeros_like(t),
                             where=active & (p > 0.0) & (dp > 0.0))
            s -= step
            active = step > tol
            if not np.any(active):
                del c, p, dp, hp, root      # the planes go before the second pass
                t += s
                e = _poly.elementary_all(lam + t[:, None], k)
                # q < 0 where the rounded planes left t short of t*: right by <= tol
                q, dq = e[:, k], (n - k + 1) * e[:, k - 1]
                t -= np.maximum(np.divide(q, dq, out=np.zeros_like(t), where=dq > 0), -tol)
                return t.reshape(shape)[()]
        rel = NEWTON_STEP_TOL * np.max(step[active] / tol[active])
        raise NumericError(f"{self.descriptor()}: boundary iteration hit {NEWTON_MAX_STEPS} steps "
                           f"with {np.count_nonzero(active)} of {active.size} rows unconverged, "
                           f"largest last step {rel:.3g} of max |lam_i|")

    def violation(self, lam):
        """Text of the first violated condition, or None if inside."""
        if self.contains(lam):
            return None
        # some sigma_j <= 0; with k = n, sigma_n is the product of the lam_i
        e, p = self._sigmas(lam)
        for j in range(1, self.k + 1):
            if not e[j - 1] > 0.0:
                with np.errstate(over="ignore"):    # sigma_j of lam itself, +-inf if it overflows
                    return f"sigma_{j} = {np.ldexp(e[j - 1], j * p[j - 1]):g} <= 0"

    def descriptor(self):
        return f"gamma:k={self.k}"


@dataclass(frozen=True)
class SigmaDelta:
    """Cone ``min lam_i + delta * sum lam_i > 0`` with ``delta >= 0``."""

    n: int
    delta: float

    def __post_init__(self):
        _check_dim(self.n)
        if not 0 <= self.delta < np.inf:
            raise DomainError(f"SigmaDelta requires finite delta >= 0, got {self.delta}")

    def margin_value(self, lam):
        """``min lam_i + delta * sum lam_i``, accumulated into the sum's own vector."""
        lam = np.asarray(lam, dtype=float)
        total = _poly.reduce_columns(np.add, lam)
        total *= self.delta
        total += _poly.reduce_columns(np.minimum, lam)
        return total

    def _margin(self, lam):
        return _homogeneous(lambda x: self.margin_value(x)[..., None], lam)

    def contains(self, lam):
        return self._margin(lam)[0][..., 0] > 0.0

    def diagonal_shift(self, lam):
        """``a min lam_i + b sum lam_i``, the sum on rows scaled by a power of two, and
        ``a``, ``b`` divided through by max(1, delta): nothing overflows."""
        c = max(1.0, self.delta)
        w = 1.0 / c + self.n * (self.delta / c)
        a, b = -(1.0 / c) / w, -(self.delta / c) / w
        x, p = _unit_rows(lam)
        return (a * _poly.reduce_columns(np.minimum, lam)
                + np.ldexp(b * _poly.reduce_columns(np.add, x), p))

    def violation(self, lam):
        (val,), (p,) = self._margin(lam)
        if not val > 0.0:
            with np.errstate(over="ignore"):
                return f"min lam_i + {self.delta:g} * sum lam_i = {np.ldexp(val, p):g} <= 0"
        return None

    def descriptor(self):
        return f"sigma:delta={float(self.delta)!r}"


@dataclass(frozen=True)
class Positivity:
    """Cone where an operator's evaluation chain is defined and positive.

    ``spec`` is any object exposing ``n``, ``admissible(lam) -> bool`` and
    ``diagonal_shift(lam)``, the shift ``t*`` that puts ``lam + t* (1,..,1)``
    on the boundary of the admissible set.
    """

    spec: object

    @property
    def n(self):
        return self.spec.n

    def contains(self, lam):
        return self.spec.admissible(lam)

    def diagonal_shift(self, lam):
        return self.spec.diagonal_shift(lam)

    def violation(self, lam):
        if not bool(self.spec.admissible(lam)):
            return f"{self.spec.descriptor()} not defined-and-positive"
        return None

    def descriptor(self):
        return f"positivity:{self.spec.descriptor()}"


def cone_contains(cone, lam):
    """Strict membership test; broadcasts over leading axes of ``lam``."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] != cone.n:
        raise DomainError(f"tuple length {lam.shape[-1]} != cone dimension {cone.n}")
    return _poly._by_row_blocks(cone.contains, lam)


def cone_violation(cone, lam):
    """Human-readable violated condition for a single tuple, or None."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.shape[-1] != cone.n:
        raise DomainError("cone_violation expects a single tuple of length n")
    return cone.violation(lam)


def boundary_shift(cone, lam):
    """Shift ``t*`` along the diagonal with ``lam + t* (1,..,1)`` on the boundary.

    Negative ``t*`` means ``lam`` is interior and ``-t*`` is its margin along
    the diagonal direction.  Membership along the diagonal is monotone (every
    supported cone is convex and contains the positive diagonal ray), so the
    crossing is unique and each cone's ``diagonal_shift`` locates it exactly,
    on rows scaled by a power of two to ``1 <= max |lam_i| < 2`` (``t*`` is
    homogeneous, and no symmetric polynomial overflows).  Gamma_n and SigmaDelta
    take their ``min lam_i`` on the rows as given, where no entry underflows.
    Non-finite tuples have no crossing and raise :class:`DomainError`.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] != cone.n:
        raise DomainError(f"tuple length {lam.shape[-1]} != cone dimension {cone.n}")
    if not np.all(np.isfinite(lam)):
        raise DomainError("boundary_shift requires finite tuples")
    if isinstance(cone, SigmaDelta) or (isinstance(cone, GammaK) and cone.k == cone.n):
        return _poly._by_row_blocks(cone.diagonal_shift, lam)

    def scaled(rows):
        x, p = _unit_rows(rows.reshape(-1, cone.n))
        return np.ldexp(cone.diagonal_shift(x), p).reshape(rows.shape[:-1])[()]

    return _poly._by_row_blocks(scaled, lam)


def sample_cone(cone, size, rng=None, fraction_range=(1e-3, 1.0)):
    """Draw ``size`` points strictly inside ``cone``.

    Gaussian proposals are projected to the cone boundary along the diagonal
    (via :func:`boundary_shift`) and then stepped inside by a uniformly drawn
    fraction of the local scale, which produces samples at widely varied
    distances from the boundary.  The point is ``g + (t + u max(|t|, 1))``, with the
    step accumulated into the fraction ``u`` and added to the draw ``g`` in place, so
    that the ``(size, n)`` draw is the only array of its size.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((size, cone.n))
    t = boundary_shift(cone, g)
    u = rng.uniform(fraction_range[0], fraction_range[1], size)
    scale = np.abs(t)
    u *= np.maximum(scale, 1.0, out=scale)
    u += t
    g += u[:, None]
    return g


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of a sampled cone-inclusion test."""

    k: int
    n: int
    delta: float
    samples: int
    violations: int
    worst_margin: float

    def to_dict(self):
        return asdict(self)


def inclusion_delta(k, n):
    """The diagonal-shift parameter ``(n - k) / (n (k - 1))`` of the inclusion."""
    if k < 2:
        raise DomainError("inclusion formula degenerates for k = 1")
    if not k <= n:
        raise DomainError(f"need 2 <= k <= n, got k={k}, n={n}")
    return (n - k) / (n * (k - 1))


def gamma_sigma_inclusion_test(k, n, samples, seed):
    """Sample GammaK and verify membership in the matching SigmaDelta cone.

    Checks the inclusion of the k-th Garding cone in
    ``SigmaDelta((n - k) / (n (k - 1)))``; the report carries the worst
    observed margin ``min lam_i + delta * sum lam_i`` (expected positive).
    """
    _check_dim(n)
    if samples <= 0:
        raise DomainError(f"samples must be positive, got {samples}")
    delta = inclusion_delta(k, n)
    rng = np.random.default_rng(seed)
    gamma = GammaK(n, k)
    sigma_cone = SigmaDelta(n, delta)
    lam = sample_cone(gamma, samples, rng)
    margins = sigma_cone.margin_value(lam)
    violations = int(np.count_nonzero(~(margins > 0.0)))
    return InclusionReport(
        k=k,
        n=n,
        delta=delta,
        samples=samples,
        violations=violations,
        worst_margin=float(np.min(margins)),
    )


def min_k_positive_ricci(n):
    """Smallest k such that admissibility in GammaK forces positive Ricci.

    Positive Ricci curvature follows for ``k > n/2``; the smallest such
    integer is ``floor(n/2) + 1``.
    """
    _check_dim(n)
    return n // 2 + 1


def parse_cone(text, n):
    """Parse the canonical textual cone forms ``gamma:k=K`` / ``sigma:delta=D``."""
    return parse_descriptor(text, "cone", {
        "gamma": (("k",), lambda f: GammaK(n=n, k=int(f["k"]))),
        "sigma": (("delta",), lambda f: SigmaDelta(n=n, delta=float(f["delta"]))),
    })
