"""Symmetric curvature functions of eigenvalue tuples.

The catalog covers the operator families commonly used for fully nonlinear
conformal curvature equations:

* ``SigmaKRoot``      -- ``sigma_k(lam)^(1/k)``;
* ``Quotient``        -- ``(sigma_k / sigma_l)^(1/(k-l))``;
* ``PucciMin``        -- ``delta * sum(lam) + min over k-subsets of subset sums``;
* ``InvPowerSum``     -- ``(sum lam_i^-2)^(-1/2)``;
* ``InvMonomialSum``  -- ``[sum over |a| = k of lam^-a]^(-1/k)``;
* ``Shifted``         -- ``f(lam + delta * sum(lam) * (1,..,1))``;
* ``RicciComposite``  -- the Shifted instance with ``delta = 1/(n-2)``, i.e.
  the inner operator evaluated on the Ricci eigenvalues.

Every operator is positive on its cone, vanishes on the cone boundary, has a
strictly positive gradient, is concave, permutation symmetric, and positively
homogeneous of degree ``alpha`` (degree 1 throughout this catalog).
:func:`verify_axioms` spot-checks all of these on random cone samples.

Evaluation sorts the tuple first, which makes permutation symmetry hold
bitwise, and gradients are scattered back through the inverse permutation.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import _poly, cones
from .errors import AdmissibilityError, DomainError, NumericError, parse_descriptor

#: Type used for eigenvalue tuples throughout the package: the trailing axis
#: holds the n eigenvalues; leading axes are broadcast batch axes.
EigenTuple = np.ndarray

#: Relative gap under which the minimizing subset of PucciMin is considered
#: tied and the gradient is only a subgradient selection.
PUCCI_TIE_TOL = 1e-12

#: Default tolerances used by verify_axioms.
HOMOGENEITY_TOL = 1e-12     # relative, axiom f5
CONCAVITY_TOL = 1e-12       # absolute midpoint defect, axiom f3
PERMUTATION_TOL = 1e-14     # relative, axiom f4
ORTHOGONAL_TOL = 1e-9       # relative, invariance under conjugation
BOUNDARY_DECAY = 0.5        # required decay factor approaching the boundary

_QUIET = {"invalid": "ignore", "divide": "ignore", "over": "ignore"}


def as_eigentuple(values, n=None):
    """Validate and coerce an eigenvalue tuple (or batch of tuples)."""
    lam = np.asarray(values, dtype=float)
    if lam.ndim == 0:
        raise DomainError("eigenvalue tuple must have at least one axis")
    if n is not None and lam.shape[-1] != n:
        raise DomainError(f"tuple length {lam.shape[-1]} != expected dimension {n}")
    if lam.shape[-1] < 3:
        raise DomainError(f"dimension {lam.shape[-1]} must be >= 3")
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalue tuples must be finite")
    return lam


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of an eigenvalue tuple.

    Computed by the incremental characteristic-polynomial recurrence, which
    is stable for mixed-sign eigenvalues; exact for small integer inputs up
    to rounding.
    """
    lam = as_eigentuple(lam)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"sigma_k requires 1 <= k <= n, got k={k}, n={n}")
    return _poly.sigma(np.sort(lam, axis=-1), k)


def ricci_map(lam):
    """Ricci eigenvalues from Schouten eigenvalues: ``mu_i = lam_i + sum(lam)/(n-2)``."""
    lam = as_eigentuple(lam)
    n = lam.shape[-1]
    return lam + (np.sum(lam, axis=-1, keepdims=True) / (n - 2))


def _sort_with_order(lam):
    order = np.argsort(lam, axis=-1, kind="stable")
    return np.take_along_axis(lam, order, axis=-1), order


def _scatter(values_sorted, order):
    out = np.empty_like(values_sorted)
    np.put_along_axis(out, order, values_sorted, axis=-1)
    return out


class CurvatureOperator:
    """Shared behaviour for the operator catalog.

    Subclasses implement ``_value_sorted`` / ``_gradient_sorted`` on
    ascending-sorted tuples and ``_quadform(lam, b)`` on unsorted ones.
    ``_quadform`` returns ``d2/dt2 f(lam + t b)`` at ``t = 0`` in ``O(n k)``
    per tuple without forming the ``n x n`` Hessian: the sigma_k families
    apply the chain rule to the second-order Taylor jets of
    :func:`_poly.elementary_jet`, ``InvMonomialSum`` runs its complete
    homogeneous recurrence on jets, ``InvPowerSum`` has a closed form and
    ``PucciMin`` reports its midpoint defect at ties.  ``Shifted`` passes
    the shifted direction to its inner operator.  ``value`` and
    ``gradient`` evaluate the raw formulas wherever they make sense (NaN
    where they do not) and leave cone gating to :func:`eval_op` /
    :func:`grad_op`.
    """

    #: Degree of positive homogeneity; 1 throughout the catalog.
    alpha = 1.0

    def value(self, lam):
        lam = as_eigentuple(lam, self.n)
        ls = np.sort(lam, axis=-1, kind="stable")
        with np.errstate(**_QUIET):
            return self._value_sorted(ls)

    def gradient(self, lam):
        lam = as_eigentuple(lam, self.n)
        ls, order = _sort_with_order(lam)
        with np.errstate(**_QUIET):
            return _scatter(self._gradient_sorted(ls), order)

    def gradient_flagged(self, lam):
        """Gradient plus a smoothness mask (False only at PucciMin ties)."""
        return self.gradient(lam), np.ones(np.asarray(lam).shape[:-1], dtype=bool)

    def hessian_quadform(self, lam, b):
        lam = as_eigentuple(lam, self.n)
        b = np.asarray(b, dtype=float)
        with np.errstate(**_QUIET):
            return self._quadform(lam, b)

    def admissible(self, lam):
        return cones.cone_contains(self.cone, lam)

    def _quadform_fd(self, lam, b, h=None):
        """Second-order central difference along ``b``; the fallback when no
        analytic Hessian is coded, and the midpoint concavity defect at
        non-smooth points."""
        if h is None:
            scale = np.maximum(np.max(np.abs(lam), axis=-1, keepdims=True), 1.0)
            h = 1.22e-4 * scale / np.maximum(np.linalg.norm(b, axis=-1, keepdims=True), 1e-30)
        fp = self.value(lam + h * b)
        fm = self.value(lam - h * b)
        f0 = self.value(lam)
        return (fp - 2.0 * f0 + fm) / np.squeeze(h, axis=-1) ** 2


def _quotient_quadform(lam, b, k, l):
    """``d2/dt2 f(lam + t b)`` at ``t = 0`` for ``f = (sigma_k / sigma_l)^(1/(k-l))``.

    ``log sigma_m(lam + t b)`` has the derivatives ``c1/c0`` and
    ``2 c2/c0 - (c1/c0)^2`` in the jets of :func:`_poly.elementary_jet`
    (``sigma_0 = 1`` has the jet (1, 0, 0)), and ``f'' = f ((log f)'^2 + (log f)'')``.
    """
    c0, c1, c2 = _poly.elementary_jet(lam, b, k)
    dk, dl = c1[..., k] / c0[..., k], c1[..., l] / c0[..., l]
    d2 = 2.0 * (c2[..., k] / c0[..., k] - c2[..., l] / c0[..., l]) - dk ** 2 + dl ** 2
    f = np.power(c0[..., k] / c0[..., l], 1.0 / (k - l))
    return f * (((dk - dl) / (k - l)) ** 2 + d2 / (k - l))


@dataclass(frozen=True)
class SigmaKRoot(CurvatureOperator):
    """``f = sigma_k(lam)^(1/k)`` on the k-th Garding cone."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"SigmaKRoot requires 1 <= k <= n, got k={self.k}, n={self.n}")
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.GammaK(self.n, self.k)

    def descriptor(self):
        return f"sigma-root:k={self.k}"

    def _value_sorted(self, ls):
        return np.power(_poly.sigma(ls, self.k), 1.0 / self.k)

    def _gradient_sorted(self, ls):
        if self.k == 1:
            return np.ones_like(ls)
        s = _poly.sigma(ls, self.k)
        partial = _poly.elementary_excluding(ls, self.k - 1)[..., :, self.k - 1]
        pref = (1.0 / self.k) * np.power(s, 1.0 / self.k - 1.0)
        return pref[..., None] * partial

    def _quadform(self, lam, b):
        return _quotient_quadform(lam, b, self.k, 0)


@dataclass(frozen=True)
class Quotient(CurvatureOperator):
    """``f = (sigma_k / sigma_l)^(1/(k-l))`` on the k-th Garding cone."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        if not 0 <= self.l < self.k <= self.n:
            raise DomainError(
                f"Quotient requires 0 <= l < k <= n, got k={self.k}, l={self.l}, n={self.n}")
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.GammaK(self.n, self.k)

    def descriptor(self):
        return f"quotient:k={self.k},l={self.l}"

    def _sigmas(self, ls):
        e = _poly.elementary_all(ls, self.k)
        sl = e[..., self.l] if self.l > 0 else np.ones(ls.shape[:-1])
        return e[..., self.k], sl

    def _value_sorted(self, ls):
        sk, sl = self._sigmas(ls)
        return np.power(sk / sl, 1.0 / (self.k - self.l))

    def _gradient_sorted(self, ls):
        k, l = self.k, self.l
        sk, sl = self._sigmas(ls)
        f = np.power(sk / sl, 1.0 / (k - l))
        ex = _poly.elementary_excluding(ls, k - 1)
        dk = ex[..., :, k - 1]
        dl = ex[..., :, l - 1] if l >= 1 else np.zeros_like(ls)
        ratio = dk / sk[..., None] - dl / sl[..., None]
        return (f / (k - l))[..., None] * ratio

    def _quadform(self, lam, b):
        return _quotient_quadform(lam, b, self.k, self.l)


@dataclass(frozen=True)
class PucciMin(CurvatureOperator):
    """``delta * sum(lam) + min over k-subsets of the subset sum``.

    Piecewise linear; with ``delta > 0`` this is the uniformly elliptic
    extremal (Pucci-type) operator.  The minimizing subset is the k smallest
    entries, ties resolved toward lower original indices.
    """

    n: int
    k: int
    delta: float

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"PucciMin requires 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.delta < 0:
            raise DomainError(f"PucciMin requires delta >= 0, got {self.delta}")
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.Positivity(self)

    def descriptor(self):
        return f"pucci:k={self.k},delta={float(self.delta)!r}"

    def admissible(self, lam):
        return self.value(lam) > 0.0

    def diagonal_shift(self, lam):
        # f is linear along the diagonal: f(lam + t 1) = f(lam) + (n delta + k) t.
        return -self.value(lam) / (self.n * self.delta + self.k)

    def _value_sorted(self, ls):
        return self.delta * np.sum(ls, axis=-1) + np.sum(ls[..., :self.k], axis=-1)

    def _gradient_sorted(self, ls):
        g = np.full_like(ls, self.delta)
        g[..., :self.k] += 1.0
        return g

    def is_smooth_at(self, lam):
        """False where the two smallest k-subset sums are tied within tolerance."""
        lam = as_eigentuple(lam, self.n)
        if self.k == self.n:
            return np.ones(lam.shape[:-1], dtype=bool)
        ls = np.sort(lam, axis=-1)
        gap = ls[..., self.k] - ls[..., self.k - 1]
        return gap >= PUCCI_TIE_TOL * np.abs(self.value(lam))

    def gradient_flagged(self, lam):
        return self.gradient(lam), self.is_smooth_at(lam)

    def _quadform(self, lam, b):
        # Locally linear where smooth; at ties report the directional
        # midpoint defect (f(lam+hb) + f(lam-hb))/2 - f(lam), scaled by h^-2,
        # instead of a quadratic form.
        lam, b = np.broadcast_arrays(lam, b)
        tied = ~self.is_smooth_at(lam)
        out = np.zeros(lam.shape[:-1])
        out[tied] = self._quadform_fd(lam[tied], b[tied])
        return out


@dataclass(frozen=True)
class InvPowerSum(CurvatureOperator):
    """``f = (sum lam_i^-2)^(-1/2)`` on the positive cone."""

    n: int

    def __post_init__(self):
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.GammaK(self.n, self.n)

    def descriptor(self):
        return "inv-power"

    def _value_sorted(self, ls):
        s = np.sum(ls ** -2.0, axis=-1)
        return s ** -0.5

    def _gradient_sorted(self, ls):
        s = np.sum(ls ** -2.0, axis=-1)
        return s[..., None] ** -1.5 * ls ** -3.0

    def _quadform(self, lam, b):
        s = np.sum(lam ** -2.0, axis=-1)
        c3 = np.sum(lam ** -3.0 * b, axis=-1)
        c4 = np.sum(lam ** -4.0 * b ** 2, axis=-1)
        return 3.0 * s ** -2.5 * c3 ** 2 - 3.0 * s ** -1.5 * c4


@dataclass(frozen=True)
class InvMonomialSum(CurvatureOperator):
    """``f = [sum over multi-indices |a| = k of lam^-a]^(-1/k)``.

    The bracket is the complete homogeneous symmetric polynomial of the
    inverse eigenvalues, so the whole operator reduces to stable positive
    recurrences on the positive cone.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"InvMonomialSum requires k >= 1, got {self.k}")
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.GammaK(self.n, self.n)

    def descriptor(self):
        return f"inv-monomial:k={self.k}"

    def _value_sorted(self, ls):
        h = _poly.complete_homogeneous_all(1.0 / ls, self.k)[..., self.k]
        return np.power(h, -1.0 / self.k)

    def _gradient_sorted(self, ls):
        k = self.k
        x = 1.0 / ls
        hall = _poly.complete_homogeneous_all(x, k)
        # dh/dx_i = sum_{m=0..k-1} x_i^m h_{k-1-m}
        xp = np.ones_like(x)
        hi = np.zeros_like(x)
        for m in range(k):
            hi = hi + xp * hall[..., k - 1 - m][..., None]
            xp = xp * x
        pref = (1.0 / k) * np.power(hall[..., k], -1.0 / k - 1.0)
        return pref[..., None] * hi * x ** 2

    def _quadform(self, lam, b):
        # x = 1/(lam + t b) has the jet (x, -b x^2, b^2 x^3); h_m <- h_m + x_i h_(m-1)
        # adds one variable to the complete homogeneous sums, here on jets.
        k = self.k
        x = 1.0 / lam
        xj = (x, -b * x ** 2, b ** 2 * x ** 3)
        h = [(np.ones(x.shape[:-1]), 0.0, 0.0)] + [(0.0, 0.0, 0.0)] * k
        for i in range(self.n):
            x0, x1, x2 = (c[..., i] for c in xj)
            for m in range(1, k + 1):
                p0, p1, p2 = h[m - 1]
                q0, q1, q2 = h[m]
                h[m] = (q0 + x0 * p0, q1 + x0 * p1 + x1 * p0, q2 + x0 * p2 + x1 * p1 + x2 * p0)
        h0, h1, h2 = h[k]
        # f = h^(-1/k): f'' = (1/k)(1/k+1) h^(-1/k-2) h'^2 - (1/k) h^(-1/k-1) (2 h2)
        return ((1.0 / k) * (1.0 / k + 1.0) * np.power(h0, -1.0 / k - 2.0) * h1 ** 2
                - (1.0 / k) * np.power(h0, -1.0 / k - 1.0) * (2.0 * h2))


@dataclass(frozen=True)
class Shifted(CurvatureOperator):
    """``f(lam) = inner(lam + delta * sum(lam) * (1,..,1))`` with ``delta > 0``.

    The linear trace shift; the composite inherits the homogeneity degree of
    ``inner`` and is admissible where ``sum(lam) > 0`` and the shifted tuple
    lies in the cone of ``inner``.
    """

    n: int
    inner: CurvatureOperator
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise DomainError(f"Shifted requires delta > 0, got {self.delta}")
        if self.inner.n != self.n:
            raise DomainError("Shifted inner operator must share the dimension n")

    @property
    def alpha(self):
        return self.inner.alpha

    @property
    def cone(self):
        return cones.Positivity(self)

    def descriptor(self):
        return f"shifted:delta={float(self.delta)!r},inner={self.inner.descriptor()}"

    def _shift(self, lam):
        return lam + self.delta * np.sum(lam, axis=-1, keepdims=True)

    def admissible(self, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(**_QUIET):
            return (np.sum(lam, axis=-1) > 0.0) & self.inner.admissible(self._shift(lam))

    def diagonal_shift(self, lam):
        # lam + t 1 shifts to self._shift(lam) + (1 + n delta) t 1.
        inner = self.inner.cone.diagonal_shift(self._shift(lam))
        return np.maximum(-np.mean(lam, axis=-1), inner / (1.0 + self.n * self.delta))

    def _value_sorted(self, ls):
        return self.inner.value(self._shift(ls))

    def _gradient_sorted(self, ls):
        g1 = self.inner.gradient(self._shift(ls))
        return g1 + self.delta * np.sum(g1, axis=-1, keepdims=True)

    def _quadform(self, lam, b):
        mb = b + self.delta * np.sum(b, axis=-1, keepdims=True)
        return self.inner.hessian_quadform(self._shift(lam), mb)


@dataclass(frozen=True)
class RicciComposite(Shifted):
    """Inner operator evaluated on the Ricci eigenvalues.

    The Ricci shift ``mu = lam + sum(lam)/(n-2)`` turns an equation on
    Schouten eigenvalues into one on Ricci eigenvalues: the :class:`Shifted`
    instance with ``delta = 1/(n-2)``.
    """

    delta: float = field(init=False)

    def __post_init__(self):
        cones._check_dim(self.n)
        object.__setattr__(self, "delta", 1.0 / (self.n - 2))
        super().__post_init__()

    def descriptor(self):
        return f"ricci:inner={self.inner.descriptor()}"


def _admitted(spec, lam):
    """Validate ``lam`` and raise :class:`AdmissibilityError`, naming the
    violated condition of the first offending tuple, unless every tuple lies
    in the cone of ``spec``."""
    lam = as_eigentuple(lam, spec.n)
    ok = spec.admissible(lam)
    if not np.all(ok):
        bad = lam.reshape(-1, spec.n)[np.flatnonzero(~ok)[0]]
        raise AdmissibilityError(f"tuple outside the cone of {spec.descriptor()}",
                                 condition=spec.cone.violation(bad))
    return lam


def _finite(spec, out):
    """``out``, or :class:`NumericError` if admissible input overflowed."""
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{spec.descriptor()} overflowed to a non-finite result")
    return out


def eval_op(spec, lam):
    """Evaluate ``spec`` at ``lam`` after verifying cone admissibility; a
    value rounded to <= 0 on the cone raises :class:`NumericError`."""
    f = _finite(spec, spec.value(_admitted(spec, lam)))
    if not np.all(f > 0.0):
        raise NumericError(
            f"{spec.descriptor()} rounded to {np.min(f):g} <= 0 on an admissible tuple")
    return f


def grad_op(spec, lam, return_smooth=False):
    """Analytic gradient of ``spec`` at an interior point of its cone.

    With ``return_smooth=True`` also returns a boolean mask that is False at
    non-smooth points (tied PucciMin subsets), where the returned vector is
    one subgradient selection.
    """
    lam = _admitted(spec, lam)
    if return_smooth:
        grad, smooth = spec.gradient_flagged(lam)
        return _finite(spec, grad), smooth
    return _finite(spec, spec.gradient(lam))


def concavity_quadform(spec, lam, b):
    """Directional Hessian quadratic form ``b^T (d2 f) b`` at ``lam``.

    Analytic for the smooth catalog operators; for non-smooth points of
    PucciMin the value is the directional midpoint concavity defect instead.
    Nonpositive (up to tolerance) everywhere on the cone by concavity.
    """
    return _finite(spec, spec.hessian_quadform(_admitted(spec, lam), b))


@dataclass(frozen=True)
class AxiomReport:
    """Violation counts and worst defects from an axiom sweep."""

    operator: str
    n: int
    samples: int
    violations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @property
    def total_violations(self):
        return int(sum(self.violations.values()))

    @property
    def ok(self):
        return self.total_violations == 0

    def to_dict(self):
        return {**asdict(self), "total_violations": self.total_violations}


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def verify_axioms(spec, samples, seed, boundary_subsample=256, orthogonal_subsample=64):
    """Sample the operator's cone and count violations of its axioms.

    Checks positivity, gradient positivity, midpoint concavity, permutation
    symmetry, homogeneity for random scalings t in (0.1, 10), invariance of
    the induced matrix function under orthogonal conjugation, and decay of f
    along rays approaching the cone boundary.  Violations are counted, never
    raised.
    """
    if samples <= 0:
        raise DomainError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    cone = spec.cone
    lam = cones.sample_cone(cone, samples, rng)
    f = spec.value(lam)

    violations, worst = {}, {}

    violations["f1_positivity"] = int(np.count_nonzero(~(f > 0.0)))
    worst["f1_positivity"] = float(np.min(f))

    g = spec.gradient(lam)
    violations["f2_gradient_positive"] = int(np.count_nonzero(np.any(~(g > 0.0), axis=-1)))
    worst["f2_gradient_positive"] = float(np.min(g))

    mu = cones.sample_cone(cone, samples, rng)
    defect = spec.value(0.5 * (lam + mu)) - 0.5 * (f + spec.value(mu))
    violations["f3_concavity"] = int(np.count_nonzero(defect < -CONCAVITY_TOL))
    worst["f3_concavity"] = float(np.min(defect))

    perm_defect = np.zeros(samples)
    for _ in range(3):
        p = rng.permutation(spec.n)
        fp = spec.value(lam[:, p])
        perm_defect = np.maximum(perm_defect, np.abs(fp - f) / np.abs(f))
    violations["f4_permutation"] = int(np.count_nonzero(perm_defect > PERMUTATION_TOL))
    worst["f4_permutation"] = float(np.max(perm_defect))

    t = rng.uniform(0.1, 10.0, samples)
    ft = spec.value(t[:, None] * lam)
    target = t ** spec.alpha * f
    hom_defect = np.abs(ft - target) / np.abs(target)
    violations["f5_homogeneity"] = int(np.count_nonzero(hom_defect > HOMOGENEITY_TOL))
    worst["f5_homogeneity"] = float(np.max(hom_defect))

    m_orth = min(orthogonal_subsample, samples)
    orth_defect = 0.0
    orth_bad = 0
    for i in range(m_orth):
        q = _random_orthogonal(spec.n, rng)
        a = (q * lam[i]) @ q.T
        eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
        rel = abs(float(spec.value(eigs)) - float(f[i])) / abs(float(f[i]))
        orth_defect = max(orth_defect, rel)
        orth_bad += int(rel > ORTHOGONAL_TOL)
    violations["orthogonal_invariance"] = orth_bad
    worst["orthogonal_invariance"] = float(orth_defect)

    m_b = min(boundary_subsample, samples)
    sub = lam[:m_b]
    tstar = cones.boundary_shift(cone, sub)
    f0 = spec.value(sub)
    ratios = []
    prev = f0
    bad = np.zeros(m_b, dtype=bool)
    for s in (0.9, 0.99, 0.999, 0.9999):
        fs = spec.value(sub + (s * tstar)[:, None])
        bad |= ~(fs < prev)
        prev = fs
        ratios.append(fs / f0)
    bad |= ~(ratios[-1] < BOUNDARY_DECAY)
    violations["boundary_decay"] = int(np.count_nonzero(bad))
    worst["boundary_decay"] = float(np.max(ratios[-1]))

    return AxiomReport(
        operator=spec.descriptor(),
        n=spec.n,
        samples=samples,
        violations=violations,
        worst=worst,
        tolerances={
            "f3_concavity": CONCAVITY_TOL,
            "f4_permutation": PERMUTATION_TOL,
            "f5_homogeneity": HOMOGENEITY_TOL,
            "orthogonal_invariance": ORTHOGONAL_TOL,
            "boundary_decay": BOUNDARY_DECAY,
        },
    )


def parse_operator(text, n):
    """Parse the canonical textual operator forms.

    ``sigma-root:k=2``, ``quotient:k=2,l=1``, ``pucci:k=1,delta=0.25``,
    ``inv-power``, ``inv-monomial:k=3``, ``shifted:delta=D,inner=<operator>``,
    ``ricci:inner=<operator>``.
    """
    return parse_descriptor(text, "operator", {
        "sigma-root": (("k",), lambda f: SigmaKRoot(n=n, k=int(f["k"]))),
        "quotient": (("k", "l"), lambda f: Quotient(n=n, k=int(f["k"]), l=int(f["l"]))),
        "pucci": (("k", "delta"), lambda f: PucciMin(
            n=n, k=int(f["k"]), delta=float(f.get("delta", 0.0)))),
        "inv-power": ((), lambda f: InvPowerSum(n=n)),
        "inv-monomial": (("k",), lambda f: InvMonomialSum(n=n, k=int(f["k"]))),
        "shifted": (("delta", "inner"), lambda f: Shifted(
            n=n, inner=parse_operator(f["inner"], n), delta=float(f["delta"]))),
        "ricci": (("inner",), lambda f: RicciComposite(
            n=n, inner=parse_operator(f["inner"], n))),
    })
