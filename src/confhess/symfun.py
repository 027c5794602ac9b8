"""Symmetric curvature functions of eigenvalue tuples.

The catalog covers the operator families commonly used for fully nonlinear
conformal curvature equations:

* ``Quotient``        -- ``(sigma_k / sigma_l)^(1/(k-l))``;
* ``SigmaKRoot``      -- ``sigma_k(lam)^(1/k)``, the Quotient instance with
  ``l = 0`` (``sigma_0 = 1``);
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

A family supplies formulas only, as the hooks of :class:`CurvatureOperator`;
the base class hands the tuples to the hooks in row blocks, rescues rows whose
intermediates leave the float range, and reports where f is smooth
(``is_smooth_at``).  Sorting is a comparator network on the columns
(:func:`_poly.sort_rows`), and every row reduction runs over the columns
(:func:`_poly.reduce_columns`), so values and gradients are bitwise
permutation symmetric and independent of the memory layout of the input.
Gradients that are one formula per entry are evaluated in the input's column
order: ``InvPowerSum`` and ``InvMonomialSum`` take their row statistics from
the sorted rows, and ``PucciMin`` reads the stable ranks of the entries
(:func:`_poly.stable_ranks`).  The sigma_k families take every partial
derivative on the sorted rows from one prefix-suffix sweep of the product
recurrence (:func:`_poly.elementary_sweep`), ``Shifted`` sums its inner
partials on the sorted rows, and both gather the result back once
(:func:`_poly.unsort`).  ``InvMonomialSum`` runs the complete homogeneous
recurrence (:func:`_poly.complete_jets`).

``two_valued(a, b)`` evaluates an operator on the two-valued tuples
``(a, b, .., b)`` that a radial metric has at every point, without forming
them: it returns the value ``f``, the partial ``f_a`` in the first entry and
``f_b``, the sum of the other n-1 partials, which is the derivative along
``(0, 1, .., 1)``.  The base class defines it by ``value`` and ``gradient`` on
the built tuples; the catalog families override it with closed forms, the
sigma_k families through Garding's factorisation
``sigma_j(a, b^(n-1)) = C(n-1, j-1) b^(j-1) (a + (n-j) b / j)``.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _poly, cones
from .errors import _QUIET, AdmissibilityError, DomainError, NumericError, parse_descriptor

#: Type used for eigenvalue tuples throughout the package: the trailing axis
#: holds the n eigenvalues; leading axes are broadcast batch axes.
EigenTuple = np.ndarray

#: Relative gap under which the minimizing subset of PucciMin is considered
#: tied and the gradient is only a subgradient selection.
PUCCI_TIE_TOL = 1e-12

#: Default tolerances used by verify_axioms.
HOMOGENEITY_TOL = 1e-12     # relative, axiom f5
CONCAVITY_TOL = 1e-12       # relative to max(|f(lam)|, |f(mu)|), axiom f3
PERMUTATION_TOL = 1e-14     # relative, axiom f4
ORTHOGONAL_TOL = 1e-9       # relative, invariance under conjugation
BOUNDARY_DECAY = 0.5        # required decay factor approaching the boundary


def as_eigentuple(values, n=None):
    """Validate and coerce an eigenvalue tuple (or batch of tuples)."""
    lam = np.asarray(values, dtype=float)
    if lam.ndim == 0:
        raise DomainError("eigenvalue tuple must have at least one axis")
    if n is not None and lam.shape[-1] != n:
        raise DomainError(f"tuple length {lam.shape[-1]} != expected dimension {n}")
    if lam.shape[-1] < 3:
        raise DomainError(f"dimension {lam.shape[-1]} must be >= 3")
    with np.errstate(**_QUIET):     # a finite sum has finite terms; else test each
        if not (np.isfinite(np.sum(lam)) or np.all(np.isfinite(lam))):
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
    return _poly.sigma(_poly.sort_rows(lam), k)


def ricci_map(lam):
    """Ricci eigenvalues from Schouten eigenvalues: ``mu_i = lam_i + sum(lam)/(n-2)``."""
    lam = as_eigentuple(lam)
    n = lam.shape[-1]
    return lam + (_poly.reduce_columns(np.add, lam) / (n - 2))[..., None]


class CurvatureOperator:
    """Shared behaviour for the operator catalog.

    A family implements three formulas on ``(rows, n)`` blocks:

    * ``_value_sorted(ls)``, f on ascending-sorted rows;
    * ``_gradient(x, is_sorted=False) -> (out, checks)``, the gradient at the
      rows ``x`` in their own column order; ``is_sorted`` says that the rows
      are ascending already, so that a family working on sorted rows neither
      sorts nor gathers;
    * ``_quadform(lam, b) -> (out, checks)``, ``d2/dt2 f(lam + t b)`` at
      ``t = 0`` on unsorted rows, in ``O(n k)`` per row without forming the
      ``n x n`` Hessian: the sigma_k families apply the chain rule to the
      second-order Taylor jets of :func:`_poly.elementary_jet`,
      ``InvMonomialSum`` runs its complete homogeneous recurrence on jets,
      ``InvPowerSum`` has a closed form and ``PucciMin`` reports its midpoint
      defect at ties.

    ``checks`` are the intermediates that must stay normal numbers (an empty
    tuple where nothing can leave the float range).  The base class sorts
    for ``_value_sorted``, splits batches into row blocks, and evaluates rows
    with a failed check again on rows scaled by a power of two
    (:func:`_rescaled`); ``is_smooth_at`` is True unless a family overrides
    it.  ``Shifted`` runs its inner operator's hooks on the shifted sorted
    rows.  ``value`` and ``gradient`` evaluate the raw
    formulas wherever they make sense (NaN where they do not) and leave cone
    gating to :func:`eval_op` / :func:`grad_op`.
    """

    #: Degree of positive homogeneity; 1 throughout the catalog.
    alpha = 1.0

    def value(self, lam):
        lam = as_eigentuple(lam, self.n)
        with np.errstate(**_QUIET):
            return _poly._by_row_blocks(lambda x: self._value_sorted(_poly.sort_rows(x)), lam)

    def gradient(self, lam):
        lam = as_eigentuple(lam, self.n)
        with np.errstate(**_QUIET):
            return _poly._by_row_blocks(lambda x: _rescaled(self._gradient, 0, x), lam)

    def is_smooth_at(self, lam):
        """False where f is not differentiable at ``lam`` and its gradient is one
        subgradient selection (PucciMin ties, also under a trace shift)."""
        return np.ones(np.shape(lam)[:-1], dtype=bool)

    def two_valued(self, a, b):
        """``(f, f_a, f_b)`` at the tuples ``(a, b, .., b)``; see the class docstring."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        lam = np.empty(a.shape + (self.n,))
        lam[..., 0] = a
        lam[..., 1:] = b[..., None]
        g = self.gradient(lam)
        return self.value(lam), g[..., 0], _poly.reduce_columns(np.add, g[..., 1:])

    def hessian_quadform(self, lam, b):
        lam, b = np.broadcast_arrays(as_eigentuple(lam, self.n), np.asarray(b, dtype=float))
        with np.errstate(**_QUIET):
            return _poly._by_row_blocks(lambda x, y: _rescaled(self._quadform, -1, x, y), lam, b)

    def admissible(self, lam):
        return cones.cone_contains(self.cone, lam)

    def _quadform_fd(self, lam, b):
        """Second-order central difference along ``b``; the fallback when no
        analytic Hessian is coded, and the midpoint concavity defect at
        non-smooth points."""
        scale = np.maximum(_poly.reduce_columns(np.maximum, np.abs(lam)), 1.0)[..., None]
        h = 1.22e-4 * scale / np.maximum(np.linalg.norm(b, axis=-1, keepdims=True), 1e-30)
        fp = self.value(lam + h * b)
        fm = self.value(lam - h * b)
        f0 = self.value(lam)
        return (fp - 2.0 * f0 + fm) / np.squeeze(h, axis=-1) ** 2


def _rescaled(fn, degree, lam, *rest):
    """``fn(lam, *rest) -> (out, checks)``, evaluated again on the rows where one of
    the checks (a tuple of arrays with the rows on axis 0) is non-finite, 0 or
    subnormal, after scaling those rows of ``lam`` by a power of two ``2^-p`` to
    ``1 <= max |lam_i| < 2``.  ``out`` is homogeneous of degree ``degree`` in ``lam``
    and goes back by ``2^(degree p)``: the scaling only moves the intermediates
    back into the float range.  The other rows keep their bits."""
    n = lam.shape[-1]
    rows = [a.reshape(-1, n) for a in (lam,) + rest]
    out, checks = fn(*rows)
    tiny = np.finfo(float).tiny
    redo = np.zeros(len(rows[0]), dtype=bool)
    for c in checks:
        # entries of one sign between normal extremes are all normal; else test each
        lo, hi = (np.min(c), np.max(c)) if c.size else (1.0, 1.0)
        if not (tiny <= lo and hi < np.inf or -np.inf < lo and hi <= -tiny):
            ok = np.isfinite(c) & ((c >= tiny) | (c <= -tiny))
            redo |= ~np.all(ok, axis=tuple(range(1, c.ndim)))
    if np.any(redo):
        x, p = cones._unit_rows(rows[0][redo])
        again = fn(x, *(a[redo] for a in rows[1:]))[0]
        out[redo] = np.ldexp(again, degree * p.reshape((-1,) + (1,) * (again.ndim - 1)))
    return out.reshape(lam.shape[:-1] + out.shape[1:])[()]


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


@np.errstate(**_QUIET)
def _quotient_pair(n, k, l, a, b):
    """``two_valued`` of ``(sigma_k / sigma_l)^(1/(k-l))``.

    The value comes from Garding's factorisation ``sigma_j(a, b^(n-1)) =
    C(n-1, j-1) b^(j-1) (a + (n-j) b / j)``.  In ``t = a/b`` it reads ``sigma_j =
    c_j b^j P_j`` with ``P_j = j t + n - j`` and a constant ``c_j`` (also at j = 0,
    with ``P_0 = n``), so ``log sigma_j`` has the derivatives ``j/(b P_j)`` in
    ``a`` and ``(j/b) (1 - t/P_j)`` along ``(0, 1, .., 1)``.  Over k and l they
    combine into one fraction,

        f_a = n f / (b P_k P_l),
        f_b = f (k l t^2 + (n (k+l-1) - 2 k l) t + (n-k)(n-l)) / (b P_k P_l),

    whose coefficients are >= 0, so nothing cancels on the positive cone.
    """
    if k == 1:          # sigma_1 itself, whose partials are exactly 1
        f = a + (n - 1) * b
        return f, np.ones_like(f), np.full_like(f, n - 1.0)

    def sigma(j):       # the factorisation itself, which holds at b = 0 too
        return math.comb(n - 1, j - 1) * b ** (j - 1) * (a + (n - j) * b / j)

    f = np.power(sigma(k) / sigma(l) if l else sigma(k), 1.0 / (k - l))
    t = a / b
    p_k, p_l = k * t + (n - k), l * t + (n - l)
    g = f / (b * p_k * p_l)
    return f, n * g, g * ((k * l * t + (n * (k + l - 1) - 2 * k * l)) * t + (n - k) * (n - l))


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

    def _value_sorted(self, ls):
        e = _poly.elementary_all(ls, self.k)
        return np.power(e[..., self.k] / e[..., self.l], 1.0 / (self.k - self.l))

    def _gradient(self, x, is_sorted=False):
        k, l = self.k, self.l
        if k == 1:          # sigma_1 itself, whose partials are exactly 1
            return np.ones_like(x), ()
        ls = x if is_sorted else _poly.sort_rows(x)
        e, partials = _poly.elementary_sweep(ls, k, (k - 1, l - 1) if l > 1 else (k - 1,))
        sk, sl = e[..., k], e[..., l]
        f = np.power(sk / sl, 1.0 / (k - l))
        ratio = partials[0] / sk[..., None]
        if l:               # e_0(lam | i) = 1
            ratio = ratio - (partials[1] if l > 1 else 1.0) / sl[..., None]
        g = (f / (k - l))[..., None] * ratio
        return (g if is_sorted else _poly.unsort(g, x)), (sk, sl)

    def _quadform(self, lam, b):
        return _quotient_quadform(lam, b, self.k, self.l), ()

    def two_valued(self, a, b):
        return _quotient_pair(self.n, self.k, self.l, a, b)


@dataclass(frozen=True)
class SigmaKRoot(Quotient):
    """``f = sigma_k(lam)^(1/k)`` on the k-th Garding cone: the :class:`Quotient`
    instance with ``l = 0``, since ``sigma_0 = 1``."""

    l: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"SigmaKRoot requires 1 <= k <= n, got k={self.k}, n={self.n}")
        object.__setattr__(self, "l", 0)
        super().__post_init__()

    def descriptor(self):
        return f"sigma-root:k={self.k}"


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
        if not 0 <= self.delta < np.inf:
            raise DomainError(f"PucciMin requires finite delta >= 0, got {self.delta}")
        cones._check_dim(self.n)

    @property
    def cone(self):
        return cones.Positivity(self)

    def descriptor(self):
        return f"pucci:k={self.k},delta={float(self.delta)!r}"

    def admissible(self, lam):
        return self.value(lam) > 0.0

    def diagonal_shift(self, lam):
        # f is linear along the diagonal: f(lam + t 1) = f(lam) + (n delta + k) t,
        # divided through by max(1, delta), so that nothing overflows
        c, ls = max(1.0, self.delta), _poly.sort_rows(lam)
        low = _poly.reduce_columns(np.add, ls[..., :self.k])
        return (-((self.delta / c) * _poly.reduce_columns(np.add, ls) + low / c)
                / (self.n * (self.delta / c) + self.k / c))

    def _value_sorted(self, ls):
        return (self.delta * _poly.reduce_columns(np.add, ls)
                + _poly.reduce_columns(np.add, ls[..., :self.k]))

    def _gradient(self, x, is_sorted=False):
        # the k entries first in a stable sort carry the 1
        return np.where(_poly.stable_ranks(x) < self.k, self.delta + 1.0, self.delta), ()

    def is_smooth_at(self, lam):
        """False where the two smallest k-subset sums are tied within tolerance."""
        lam = as_eigentuple(lam, self.n)
        if self.k == self.n:
            return np.ones(lam.shape[:-1], dtype=bool)
        with np.errstate(**_QUIET):
            return _rescaled(self._tie_margin, 1, _poly.sort_rows(lam)) >= 0.0

    # gap - tol |f| is of degree 1 and its sign is exact, so rows where f leaves
    # the float range are compared again on rows scaled by a power of two
    def _tie_margin(self, ls):
        f = self._value_sorted(ls)
        return ls[..., self.k] - ls[..., self.k - 1] - PUCCI_TIE_TOL * np.abs(f), (f,)

    @np.errstate(**_QUIET)
    def two_valued(self, a, b):
        # the k smallest entries are a and k-1 b's where a <= b (a tie goes to
        # index 0) or k = n, else k b's
        n, k, d = self.n, self.k, self.delta
        first = (a <= b) | (k == n)
        f = d * (a + (n - 1) * b) + np.where(first, a + (k - 1) * b, k * b)
        return f, d + first, (n - 1) * d + (k - first)

    def _quadform(self, lam, b):
        # Locally linear where smooth; at ties report the directional
        # midpoint defect (f(lam+hb) + f(lam-hb))/2 - f(lam), scaled by h^-2,
        # instead of a quadratic form.
        lam, b = np.broadcast_arrays(lam, b)
        tied = ~self.is_smooth_at(lam)
        out = np.zeros(lam.shape[:-1])
        if np.any(tied):
            out[tied] = self._quadform_fd(lam[tied], b[tied])
        return out, ()


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
        return _poly.reduce_columns(np.add, ls ** -2.0) ** -0.5

    # lam^-2 .. lam^-4 leave the float range far from unit scale, so the results
    # themselves are checked
    def _gradient(self, x, is_sorted=False):
        s = _poly.reduce_columns(np.add, (x if is_sorted else _poly.sort_rows(x)) ** -2.0)
        out = s[..., None] ** -1.5 * x ** -3.0
        return out, (out,)

    def _quadform(self, lam, b):
        s = _poly.reduce_columns(np.add, lam ** -2.0)
        c3 = _poly.reduce_columns(np.add, lam ** -3.0 * b)
        c4 = _poly.reduce_columns(np.add, lam ** -4.0 * b ** 2)
        out = 3.0 * s ** -2.5 * c3 ** 2 - 3.0 * s ** -1.5 * c4
        return out, (out,)

    @np.errstate(**_QUIET)
    def two_valued(self, a, b):
        s = a ** -2.0 + (self.n - 1) * b ** -2.0
        c = s ** -1.5
        return s ** -0.5, c * a ** -3.0, (self.n - 1) * c * b ** -3.0


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
        h = _poly.complete_jets((1.0 / ls)[None], self.k)[0, ..., self.k]
        return np.power(h, -1.0 / self.k)

    # h_k(1/lam) leaves the float range far from unit scale, so the results and
    # the prefactor are checked
    def _gradient(self, lam, is_sorted=False):
        k = self.k
        x = 1.0 / lam
        h = _poly.complete_jets((x if is_sorted else 1.0 / _poly.sort_rows(lam))[None], k)[0]
        # dh/dx_i = sum_{m=0..k-1} x_i^m h_{k-1-m}, by Horner on the columns
        xc = np.moveaxis(x, -1, 0)
        hi = np.ones_like(xc)
        for m in range(1, k):
            hi *= xc
            hi += h[..., m]
        pref = (1.0 / k) * np.power(h[..., k], -1.0 / k - 1.0)
        out = pref[..., None] * np.moveaxis(hi, 0, -1) * x ** 2
        return out, (out, pref)

    def _quadform(self, lam, b):
        # x = 1/(lam + t b) has the jet (x, -b x^2, b^2 x^3), written to planes
        # (3, n, rows) so that the recurrence reads contiguous columns
        k = self.k
        jets = np.empty((3,) + lam.T.shape)
        x = np.divide(1.0, lam.T, out=jets[0])
        np.multiply(-b.T, x ** 2, out=jets[1])
        np.multiply(b.T ** 2, x ** 3, out=jets[2])
        h0, h1, h2 = _poly.complete_jets(np.moveaxis(jets, 1, -1), k)[..., k]
        # f = h^(-1/k): f'' = (1/k)(1/k+1) h^(-1/k-2) h'^2 - (1/k) h^(-1/k-1) (2 h2)
        out = ((1.0 / k) * (1.0 / k + 1.0) * np.power(h0, -1.0 / k - 2.0) * h1 ** 2
               - (1.0 / k) * np.power(h0, -1.0 / k - 1.0) * (2.0 * h2))
        return out, (out,)

    @np.errstate(**_QUIET)
    def two_valued(self, a, b):
        # h_k(x, y^(n-1)) = sum_i C(n-2+k-i, k-i) x^i y^(k-i) at x = 1/a, y = 1/b;
        # with T_i its terms, x dh/dx = sum_i i T_i and y dh/dy = sum_i (k-i) T_i
        n, k = self.n, self.k
        x, y = 1.0 / a, 1.0 / b
        h = hx = hy = 0.0
        for i in range(k + 1):
            t = math.comb(n - 2 + k - i, k - i) * x ** i * y ** (k - i)
            h, hx, hy = h + t, hx + i * t, hy + (k - i) * t
        pref = (1.0 / k) * np.power(h, -1.0 / k - 1.0)
        return np.power(h, -1.0 / k), pref * x * hx, pref * y * hy


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
        if not 0 < self.delta < np.inf:
            raise DomainError(f"Shifted requires finite delta > 0, got {self.delta}")
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
        return lam + (self.delta * _poly.reduce_columns(np.add, lam))[..., None]

    def admissible(self, lam):
        with np.errstate(**_QUIET):
            return _poly._by_row_blocks(self._admissible, np.asarray(lam, dtype=float))

    # membership is 0-homogeneous: rows whose shift overflows are shifted again
    # scaled by a power of two, and their value overflows instead
    def _admissible(self, lam):
        shifted = self._shift(lam)
        over = ~np.isfinite(_poly.reduce_columns(np.add, shifted))
        if np.any(over):
            shifted[over] = self._shift(cones._unit_rows(lam[over])[0])
        return (_poly.reduce_columns(np.add, lam) > 0.0) & self.inner.admissible(shifted)

    def diagonal_shift(self, lam):
        # lam + t 1 shifts to self._shift(lam) + (1 + n delta) t 1, divided through
        # by c = max(1, delta) (the inner t* is 1-homogeneous), so that delta * sum
        # and n * delta cannot overflow
        c, total = max(1.0, self.delta), _poly.reduce_columns(np.add, lam)
        t = (self.inner.cone.diagonal_shift(lam / c + ((self.delta / c) * total)[..., None])
             / (1.0 / c + self.n * (self.delta / c)))
        return np.maximum(-total / self.n, t)

    # Adding one scalar per row keeps a sorted row sorted (rounding is
    # monotone), so the inner operator runs on the shifted row as it is.  Its
    # rows are rescued shifted: a huge delta overflows the inner intermediates
    # at any scale of the unshifted row.
    def _value_sorted(self, ls):
        return self.inner._value_sorted(self._shift(ls))

    def _gradient(self, x, is_sorted=False):
        ls = x if is_sorted else _poly.sort_rows(x)
        g1 = _rescaled(lambda y: self.inner._gradient(y, is_sorted=True), 0, self._shift(ls))
        g = g1 + (self.delta * _poly.reduce_columns(np.add, g1))[..., None]
        return (g if is_sorted else _poly.unsort(g, x)), ()

    def _quadform(self, lam, b):
        mb = b + (self.delta * _poly.reduce_columns(np.add, b))[..., None]
        return self.inner.hessian_quadform(self._shift(lam), mb), ()

    @np.errstate(**_QUIET)
    def is_smooth_at(self, lam):
        shifted = self._shift(as_eigentuple(lam, self.n))
        if not np.all(np.isfinite(shifted)):
            raise NumericError(f"{self.descriptor()} overflowed to a non-finite result")
        return self.inner.is_smooth_at(shifted)

    @np.errstate(**_QUIET)
    def two_valued(self, a, b):
        # each partial gains delta times the sum of the inner partials
        n, d = self.n, self.delta
        shift = d * (a + (n - 1) * b)
        f, g_a, g_b = self.inner.two_valued(a + shift, b + shift)
        s = d * (g_a + g_b)
        return f, g_a + s, g_b + (n - 1) * s


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

    With ``return_smooth=True`` also returns the boolean mask
    ``spec.is_smooth_at(lam)``, False at non-smooth points (tied PucciMin
    subsets, also under a trace shift), where the returned vector is one
    subgradient selection.
    """
    lam = _admitted(spec, lam)
    grad = _finite(spec, spec.gradient(lam))
    return (grad, spec.is_smooth_at(lam)) if return_smooth else grad


def concavity_quadform(spec, lam, b):
    """Directional Hessian quadratic form ``b^T (d2 f) b`` at ``lam``.

    Analytic for the smooth catalog operators; for non-smooth points of
    PucciMin the value is the directional midpoint concavity defect instead.
    Nonpositive (up to tolerance) everywhere on the cone by concavity.
    """
    return _finite(spec, spec.hessian_quadform(_admitted(spec, lam), b))


@dataclass(frozen=True)
class AxiomReport:
    """Violation counts and worst defects from an axiom sweep.

    The concavity (f3), permutation (f4), homogeneity (f5) and orthogonal
    invariance defects, and their ``tolerances``, are relative to the values
    compared; ``boundary_decay`` is a ratio of values.
    """

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


@np.errstate(**_QUIET)
def verify_axioms(spec, samples, seed):
    """Sample the operator's cone and count violations of its axioms.

    Checks positivity, gradient positivity, midpoint concavity (the defect
    ``f((lam + mu)/2) - (f(lam) + f(mu))/2`` relative to ``max(|f(lam)|,
    |f(mu)|)``, so that rounding at large values is no violation), permutation
    symmetry, homogeneity for random scalings t in (0.1, 10), invariance of
    the induced matrix function under orthogonal conjugation, and decay of f
    along rays approaching the cone boundary.  Violations are counted, never
    raised; a sweep whose values or defects leave the float range (a huge
    ``delta``, say) raises :class:`NumericError`.
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
    f_mu = spec.value(mu)
    scale = np.maximum(np.abs(f), np.abs(f_mu))
    defect = (spec.value(0.5 * (lam + mu)) - 0.5 * (f + f_mu)) / np.where(scale > 0.0, scale, 1.0)
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

    m_orth = min(64, samples)
    q, r = np.linalg.qr(rng.standard_normal((m_orth, spec.n, spec.n)))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]    # Haar-distributed
    a = (q * lam[:m_orth, None, :]) @ np.swapaxes(q, -1, -2)
    eigs = np.linalg.eigvalsh(0.5 * (a + np.swapaxes(a, -1, -2)))
    orth_defect = np.abs(spec.value(eigs) - f[:m_orth]) / np.abs(f[:m_orth])
    violations["orthogonal_invariance"] = int(np.count_nonzero(orth_defect > ORTHOGONAL_TOL))
    worst["orthogonal_invariance"] = float(np.max(orth_defect, initial=0.0))

    m_b = min(256, samples)
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

    if not all(np.all(np.isfinite(a)) for a in (f, g, list(worst.values()))):
        raise NumericError(f"axiom sweep of {spec.descriptor()} leaves the float range")
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
