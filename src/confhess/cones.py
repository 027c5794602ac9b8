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

from dataclasses import asdict, dataclass

import numpy as np

from . import _poly
from .errors import DomainError, NumericError, parse_descriptor

#: Newton stops once its step falls below this fraction of max |lam_i|.
NEWTON_STEP_TOL = 1e-13
#: Cap on Newton steps; Gaussian rows at n <= 8 need at most 9.
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
        e = np.frexp(np.max(np.abs(lam), axis=-1))[1] - 1
    else:
        e = np.sum(np.frexp(np.sort(np.abs(lam), axis=-1)[..., -j:])[1], axis=-1) // j - 1
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
            return np.min(lam, axis=-1) > 0.0
        return np.all(self._sigmas(lam)[0] > 0.0, axis=-1)

    def diagonal_shift(self, lam):
        """Largest root ``t*`` of ``q(t) = sigma_k(lam + t 1)``, real-rooted as
        GammaK is its hyperbolicity cone (Garding).  Newton starts right of
        ``t*`` at ``-min lam_i`` (the closed orthant), where ``q`` is increasing
        and convex, so the iterates fall monotonically to ``t*``."""
        n, k = self.n, self.k
        t = -np.mean(lam, axis=-1) if k == 1 else -np.min(lam, axis=-1)
        if k in (1, n):
            return t
        tol = NEWTON_STEP_TOL * np.max(np.abs(lam), axis=-1)
        rows = np.arange(t.size)
        for _ in range(NEWTON_MAX_STEPS):
            # q and q'/(n-k+1), copied out of the batch; q or q' <= 0 is rounding at t*
            q, dq = _poly.elementary_all(lam[rows] + t[rows, None], k)[:, [k, k - 1]].T
            move = (q > 0.0) & (dq > 0.0)
            rows, step = rows[move], q[move] / ((n - k + 1) * dq[move])
            t[rows] -= step
            rows = rows[step > tol[rows]]
            if rows.size == 0:
                return t
        raise NumericError(f"{self.descriptor()}: boundary Newton hit {NEWTON_MAX_STEPS} steps")

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
        if self.delta < 0:
            raise DomainError(f"SigmaDelta requires delta >= 0, got {self.delta}")

    def margin_value(self, lam):
        lam = np.asarray(lam, dtype=float)
        return np.min(lam, axis=-1) + self.delta * np.sum(lam, axis=-1)

    def _margin(self, lam):
        return _homogeneous(lambda x: self.margin_value(x)[..., None], lam)

    def contains(self, lam):
        return self._margin(lam)[0][..., 0] > 0.0

    def diagonal_shift(self, lam):
        return -self.margin_value(lam) / (1.0 + self.n * self.delta)

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
    return cone.contains(lam)


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
    homogeneous, and no symmetric polynomial overflows).  Non-finite tuples
    have no crossing and raise :class:`DomainError`.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] != cone.n:
        raise DomainError(f"tuple length {lam.shape[-1]} != cone dimension {cone.n}")
    if not np.all(np.isfinite(lam)):
        raise DomainError("boundary_shift requires finite tuples")
    x, p = _unit_rows(lam.reshape(-1, cone.n))
    return np.ldexp(cone.diagonal_shift(x), p).reshape(lam.shape[:-1])[()]


def sample_cone(cone, size, rng=None, fraction_range=(1e-3, 1.0)):
    """Draw ``size`` points strictly inside ``cone``.

    Gaussian proposals are projected to the cone boundary along the diagonal
    (via :func:`boundary_shift`) and then stepped inside by a uniformly drawn
    fraction of the local scale, which produces samples at widely varied
    distances from the boundary.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((size, cone.n))
    t = boundary_shift(cone, g)
    u = rng.uniform(fraction_range[0], fraction_range[1], size)
    step = u * np.maximum(np.abs(t), 1.0)
    return g + (t + step)[:, None]


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
