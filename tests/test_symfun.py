"""Operator catalog: values, gradients, concavity, axiom sweeps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import _poly, cones, symfun
from confhess.errors import AdmissibilityError, DomainError, NumericError

from oracles import complete_homogeneous_all, elementary_excluding, unblocked

EPS = np.finfo(float).eps


def sigma_oracle(lam, k):
    """Independent subset-sum enumeration of sigma_k."""
    lam = np.asarray(lam, dtype=float)
    total = 0.0
    for subset in itertools.combinations(range(lam.size), k):
        prod = 1.0
        for i in subset:
            prod *= lam[i]
        total += prod
    return total


def catalog(n):
    return [
        symfun.SigmaKRoot(n=n, k=2),
        symfun.Quotient(n=n, k=2, l=1),
        symfun.PucciMin(n=n, k=2, delta=0.5),
        symfun.InvPowerSum(n=n),
        symfun.InvMonomialSum(n=n, k=3),
        symfun.RicciComposite(n=n, inner=symfun.SigmaKRoot(n=n, k=2)),
    ]


# ---------------------------------------------------------------------------
# sigma_k
# ---------------------------------------------------------------------------

def test_sigma_k_examples():
    assert symfun.sigma_k([1.0, 2.0, 3.0], 1) == 6.0
    assert symfun.sigma_k([1.0, 1.0, 1.0], 2) == 3.0
    assert symfun.sigma_k([1.0, 2.0, 3.0], 3) == 6.0


def test_sigma_k_matches_enumeration():
    rng = np.random.default_rng(7)
    for n in range(3, 7):
        lam = rng.normal(size=(50, n)) * rng.uniform(0.1, 5.0, size=(50, 1))
        for k in range(1, n + 1):
            got = symfun.sigma_k(lam, k)
            want = np.array([sigma_oracle(row, k) for row in lam])
            scale = np.maximum(np.abs(want), 1e-8)
            assert np.max(np.abs(got - want) / scale) < 1e-13


def test_sigma_k_domain_errors():
    with pytest.raises(DomainError):
        symfun.sigma_k([1.0, 2.0, 3.0], 0)
    with pytest.raises(DomainError):
        symfun.sigma_k([1.0, 2.0, 3.0], 4)


# ---------------------------------------------------------------------------
# eval_op
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert symfun.eval_op(symfun.SigmaKRoot(n=4, k=2), [0.5] * 4) == pytest.approx(
        np.sqrt(1.5), rel=1e-14)
    assert symfun.eval_op(symfun.Quotient(n=3, k=2, l=1), [1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert symfun.eval_op(symfun.PucciMin(n=3, k=1, delta=0.0), [3.0, 1.0, 2.0]) == 1.0
    assert symfun.eval_op(symfun.InvPowerSum(n=3), [1.0, 1.0, 1.0]) == pytest.approx(
        3.0 ** -0.5, rel=1e-14)


def test_eval_rejects_inadmissible():
    with pytest.raises(AdmissibilityError) as err:
        symfun.eval_op(symfun.SigmaKRoot(n=3, k=2), [1.0, 1.0, -0.5])
    assert "sigma_2" in err.value.condition


def test_ricci_composite_uses_ricci_eigenvalues():
    inner = symfun.SigmaKRoot(n=4, k=2)
    op = symfun.RicciComposite(n=4, inner=inner)
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    mu = symfun.ricci_map(lam)
    assert np.allclose(mu, 3.0)
    assert symfun.eval_op(op, lam) == pytest.approx(float(inner.value(mu)), rel=1e-14)


def test_ricci_map_examples():
    assert np.allclose(symfun.ricci_map(np.ones(4)), 3.0)
    assert np.allclose(symfun.ricci_map(np.zeros(3)), 0.0)
    lam = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
    assert np.allclose(symfun.ricci_map(lam), lam)  # trace-free case


# ---------------------------------------------------------------------------
# grad_op
# ---------------------------------------------------------------------------

def test_gradient_sigma1_is_ones():
    g = symfun.grad_op(symfun.SigmaKRoot(n=4, k=1), [0.3, 1.0, -0.1, 2.0])
    assert np.array_equal(g, np.ones(4))
    # sigma-root:k=1 is quotient:k=1,l=0, whose quotient rule f (1/f) rounds on
    # two of these rows; both take sigma_1's exact partials
    lam = np.random.default_rng(1).uniform(0.1, 3.0, (8, 4))
    for spec in (symfun.SigmaKRoot(n=4, k=1), symfun.Quotient(n=4, k=1, l=0)):
        assert np.array_equal(symfun.grad_op(spec, lam), np.ones((8, 4))), spec
        _, f_a, f_b = spec.two_valued(lam[:, 0], lam[:, 1])
        assert np.array_equal(f_a, np.ones(8)) and np.array_equal(f_b, np.full(8, 3.0)), spec


def test_smoothness_flag_sees_pucci_ties_under_a_trace_shift():
    # (1, 1, 2) shifts to a tie of the smallest entries, where the gradient
    # jumps between (1.5, 0.5, 0.5) and (0.5, 1.5, 0.5); (1, 2, 3) does not
    pucci = symfun.PucciMin(n=3, k=1, delta=0.0)
    for spec in (symfun.Shifted(n=3, inner=pucci, delta=0.5),
                 symfun.RicciComposite(n=3, inner=pucci)):
        _, smooth = symfun.grad_op(spec, [[1.0, 1.0, 2.0], [1.0, 2.0, 3.0]],
                                   return_smooth=True)
        assert smooth.tolist() == [False, True], spec.descriptor()


def test_gradient_symmetric_point():
    # Euler relation under degree-1 homogeneity plus symmetry forces each
    # component to C(n,k)^(1/k) / n at any multiple of (1,..,1).
    from math import comb

    for n, k in [(4, 2), (5, 3), (6, 4)]:
        spec = symfun.SigmaKRoot(n=n, k=k)
        for c in (0.5, 1.0, 3.0):
            g = symfun.grad_op(spec, np.full(n, c))
            assert np.allclose(g, comb(n, k) ** (1.0 / k) / n, rtol=1e-12)


def test_gradient_rescales_only_rows_whose_sigmas_leave_the_float_range():
    lam = np.array([[1.0, 2.0, 3.0], [1e200, 1e200, 1e200], [1e-300, 2e-300, 3e-300]])
    for spec in (symfun.SigmaKRoot(n=3, k=2), symfun.Quotient(n=3, k=2, l=1)):
        g = spec.gradient(lam)
        assert np.array_equal(g[0], spec._gradient(lam[:1])[0][0]), spec
        assert np.all(np.isfinite(g) & (g > 0.0)), spec
        assert np.allclose(g[2], g[0], rtol=1e-14, atol=0.0), spec
    assert np.allclose(symfun.SigmaKRoot(n=3, k=2).gradient(lam[1]), 3 ** -0.5,
                       rtol=1e-15, atol=0.0)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for spec in catalog(4):
        lam = cones.sample_cone(spec.cone, 20, rng, fraction_range=(0.3, 1.0))
        grad = spec.gradient(lam)
        for i in range(lam.shape[0]):
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (spec.value(lam[i] + e) - spec.value(lam[i] - e)) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-10) < 1e-5, spec.descriptor()


def test_gradient_strictly_positive_on_samples():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        for spec in catalog(n):
            lam = cones.sample_cone(spec.cone, 500, rng)
            assert np.all(spec.gradient(lam) > 0.0), spec.descriptor()


def test_pucci_tie_flag_and_lexicographic_selection():
    spec = symfun.PucciMin(n=4, k=2, delta=0.25)
    lam = np.array([1.0, 1.0, 1.0, 5.0])  # three tied candidates for the pair
    grad, smooth = symfun.grad_op(spec, lam, return_smooth=True)
    assert not smooth
    # stable sort -> the two lowest original indices carry the subgradient
    assert np.array_equal(grad, np.array([1.25, 1.25, 0.25, 0.25]))
    grad2, smooth2 = symfun.grad_op(spec, [1.0, 2.0, 3.0, 4.0], return_smooth=True)
    assert smooth2
    assert np.array_equal(grad2, np.array([1.25, 1.25, 0.25, 0.25]))


def test_grad_requires_interior_point():
    with pytest.raises(AdmissibilityError):
        symfun.grad_op(symfun.SigmaKRoot(n=3, k=2), [1.0, 1.0, -0.5])


# ---------------------------------------------------------------------------
# concavity_quadform
# ---------------------------------------------------------------------------

def test_quadform_linear_operator_vanishes():
    spec = symfun.SigmaKRoot(n=5, k=1)
    rng = np.random.default_rng(3)
    lam = cones.sample_cone(spec.cone, 10, rng)
    b = rng.normal(size=(10, 5))
    assert np.allclose(spec.hessian_quadform(lam, b), 0.0)


def test_quadform_rejects_inadmissible_with_condition():
    lam = [[1.0, 1.0, 1.0], [1.0, 1.0, -0.5]]
    with pytest.raises(AdmissibilityError) as err:
        symfun.concavity_quadform(symfun.SigmaKRoot(n=3, k=2), lam, np.ones((2, 3)))
    assert "sigma_2" in err.value.condition


def test_quadform_frozen_symmetric_point_value():
    # Oracle: f = (l1 l2 l3)^(1/3) restricted to the line (1+t, 1-t, 1) is
    # (1 - t^2)^(1/3), whose second derivative at t = 0 is -2/3; the same
    # value comes from the symbolic Hessian (diag -2/9, off-diag 1/9)
    # contracted twice with b = (1, -1, 0).
    q = symfun.concavity_quadform(symfun.SigmaKRoot(n=3, k=3), [1.0, 1.0, 1.0],
                                  [1.0, -1.0, 0.0])
    assert q == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_quadform_matches_central_differences():
    rng = np.random.default_rng(23)
    for spec in catalog(4):
        if isinstance(spec, symfun.PucciMin):
            continue  # piecewise linear: analytic form is identically zero
        lam = cones.sample_cone(spec.cone, 8, rng, fraction_range=(0.3, 1.0))
        b = rng.normal(size=(8, 4))
        got = spec.hessian_quadform(lam, b)
        fd = spec._quadform_fd(lam, b)
        assert np.max(np.abs(got - fd)) < 1e-5 * np.max(1.0 + np.abs(got)), spec.descriptor()


def test_quadform_nonpositive_on_samples():
    rng = np.random.default_rng(17)
    total = 0
    for spec in catalog(4):
        lam = cones.sample_cone(spec.cone, 1700, rng)
        b = rng.normal(size=(1700, 4))
        q = spec.hessian_quadform(lam, b)
        assert np.all(q <= 1e-9), spec.descriptor()
        total += q.size
    assert total >= 10000


def test_pucci_quadform_zero_when_smooth_defect_at_tie():
    spec = symfun.PucciMin(n=4, k=2, delta=0.25)
    assert spec.hessian_quadform(np.array([1.0, 2.0, 3.0, 4.0]),
                                 np.array([1.0, -1.0, 0.5, 0.0])) == 0.0
    # at a tie the directional midpoint defect is reported; concave => <= 0
    defect = spec.hessian_quadform(np.array([1.0, 1.0, 1.0, 5.0]),
                                   np.array([1.0, -1.0, 0.0, 0.0]))
    assert defect <= 0.0


def elementary_excluding_pair(lam, k):
    """Reference ``e_0 .. e_k`` with two distinct entries removed, shape
    ``(..., n, n, k + 1)``; the diagonal holds the single exclusions."""
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n, n, k + 1))
    single = elementary_excluding(lam, k)
    for i in range(n):
        out[..., i, i, :] = single[..., i, :]
        for j in range(i + 1, n):
            idx = [m for m in range(n) if m != i and m != j]
            out[..., i, j, :] = out[..., j, i, :] = _poly.elementary_all(lam[..., idx], k)
    return out


def _sigma_derivatives(lam, b, m):
    """``b . grad sigma_m`` and ``b^T (d2 sigma_m) b`` from pairwise exclusions."""
    n = lam.shape[-1]
    if m == 0:
        return np.zeros(lam.shape[:-1]), np.zeros(lam.shape[:-1])
    gb = np.sum(elementary_excluding(lam, m - 1)[..., :, m - 1] * b, axis=-1)
    if m == 1:
        return gb, np.zeros(lam.shape[:-1])
    pair = elementary_excluding_pair(lam, m - 2)[..., m - 2]
    off = ~np.eye(n, dtype=bool)
    bb = b[..., :, None] * b[..., None, :]
    return gb, np.sum(np.where(off, pair * bb, 0.0), axis=(-2, -1))


def quadform_oracle(spec, lam, b):
    """``b^T (d2 f) b`` from the full n x n Hessian of each operator."""
    if isinstance(spec, symfun.Shifted):
        return quadform_oracle(spec.inner, spec._shift(lam),
                               b + spec.delta * np.sum(b, axis=-1, keepdims=True))
    if isinstance(spec, symfun.SigmaKRoot):
        k = spec.k
        s = _poly.sigma(lam, k)
        gb, hb = _sigma_derivatives(lam, b, k)
        return ((1.0 / k) * s ** (1.0 / k - 1.0) * hb
                + (1.0 / k) * (1.0 / k - 1.0) * s ** (1.0 / k - 2.0) * gb ** 2)
    if isinstance(spec, symfun.Quotient):
        k, l = spec.k, spec.l
        e = _poly.elementary_all(lam, k)

        def log_terms(m):
            gb, hb = _sigma_derivatives(lam, b, m)
            return hb / e[..., m] - (gb / e[..., m]) ** 2, gb / e[..., m]

        (hk, gk), (hl, gl) = log_terms(k), log_terms(l)
        f = (e[..., k] / e[..., l]) ** (1.0 / (k - l))
        return f * (((gk - gl) / (k - l)) ** 2 + (hk - hl) / (k - l))
    if isinstance(spec, symfun.InvMonomialSum):
        k, n = spec.k, spec.n
        x = 1.0 / lam
        hall = complete_homogeneous_all(x, k)
        h = hall[..., k]
        xpows = [np.ones_like(x)]
        for _ in range(k):
            xpows.append(xpows[-1] * x)
        # first and second partials of h_k in x from 1/prod(1 - x_i t)
        hi = sum(xpows[m] * hall[..., k - 1 - m][..., None] for m in range(k))
        hij = np.zeros(lam.shape[:-1] + (n, n))
        for a in range(k - 1):
            for c in range(k - 1 - a):
                hij += (xpows[a][..., :, None] * xpows[c][..., None, :]
                        * hall[..., k - 2 - a - c][..., None, None])
        ii = np.arange(n)
        hij[..., ii, ii] = sum(2.0 * (a + 1) * xpows[a] * hall[..., k - 2 - a][..., None]
                               for a in range(k - 1))
        # F = h^(-1/k) in x, then chained through x = 1/lam
        fi = -(1.0 / k) * h[..., None] ** (-1.0 / k - 1.0) * hi
        fij = ((1.0 / k) * (1.0 / k + 1.0) * h[..., None, None] ** (-1.0 / k - 2.0)
               * hi[..., :, None] * hi[..., None, :]
               - (1.0 / k) * h[..., None, None] ** (-1.0 / k - 1.0) * hij)
        x2 = x ** 2
        fij = fij * x2[..., :, None] * x2[..., None, :]
        fij[..., ii, ii] += fi * 2.0 * x ** 3
        return np.einsum("...ij,...i,...j->...", fij, b, b)
    if isinstance(spec, symfun.PucciMin):
        return np.where(spec.is_smooth_at(lam), 0.0, spec._quadform_fd(lam, b))
    return spec.hessian_quadform(lam, b)    # InvPowerSum: closed form


@st.composite
def quadform_operators(draw, n):
    """A catalog family at dimension n, alone or inside the trace shift."""
    k = draw(st.integers(1, n))
    op = draw(st.sampled_from((
        symfun.SigmaKRoot(n=n, k=k),
        symfun.Quotient(n=n, k=k, l=draw(st.integers(0, k - 1))),
        symfun.InvMonomialSum(n=n, k=draw(st.integers(1, 4))),
        symfun.PucciMin(n=n, k=k, delta=draw(st.floats(0.0, 2.0))),
        symfun.InvPowerSum(n=n))))
    wrap = draw(st.sampled_from(("none", "ricci", "shifted")))
    if wrap == "ricci":
        return symfun.RicciComposite(n=n, inner=op)
    if wrap == "shifted":
        return symfun.Shifted(n=n, inner=op, delta=draw(st.floats(0.01, 2.0)))
    return op


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quadform_jets_match_the_pairwise_hessian(data):
    n = data.draw(st.integers(3, 8))
    spec = data.draw(quadform_operators(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = cones.sample_cone(spec.cone, 64, rng)
    if isinstance(spec, symfun.PucciMin):
        # tie the k-th and (k+1)-th smallest entries of half the rows
        # (raising the k-th keeps the row in the cone)
        lam = np.sort(lam, axis=-1)
        if spec.k < n:
            lam[::2, spec.k - 1] = lam[::2, spec.k]
    b = rng.standard_normal(lam.shape)
    got = spec.hessian_quadform(lam, b)
    want = quadform_oracle(spec, lam, b)
    # 1e-9 of |q|.  The Hessian annihilates lam (degree 1), so where b lies
    # close to the ray through lam (|b_perp|^2 < 1e-2 |b|^2) q nearly cancels,
    # and there the bound is 1e-9 of the Hessian scale f |b|^2 / |lam|^2 if
    # larger.  2e4-row runs per operator at n = 3..8 reach 3.1e-12 of |q| off
    # the ray, and 2.8e-9 of |q| but 6.7e-14 of the scale near it.
    lam2, bb = np.sum(lam * lam, axis=-1), np.sum(b * b, axis=-1)
    near = bb - np.sum(b * lam, axis=-1) ** 2 / lam2 < 1e-2 * bb
    scale = np.where(near, spec.value(lam) * bb / lam2, 0.0)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), scale)), \
        spec.descriptor()


def _shifted_by_resorting(spec, lam):
    """Trace-shift value and gradient through the inner operator's public
    ``value``/``gradient``, which sort the already sorted shifted rows again."""
    x = spec._shift(_poly.sort_rows(lam))
    g1 = spec.inner.gradient(x)
    with np.errstate(invalid="ignore", over="ignore"):    # inf entries, as spec.gradient
        g = np.take_along_axis(g1 + spec.delta * np.sum(g1, axis=-1, keepdims=True),
                               _poly.stable_ranks(lam), axis=-1)
    return spec.inner.value(x), g


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_shift_skips_the_inner_sort_bitwise(data):
    n = data.draw(st.integers(3, 8))
    spec = data.draw(quadform_operators(n).filter(lambda op: isinstance(op, symfun.Shifted)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = np.concatenate([cones.sample_cone(spec.cone, 32, rng),
                          rng.standard_normal((16, n)),
                          rng.integers(-2, 3, (16, n)).astype(float)])
    lam[::3, 1] = lam[::3, 0]     # ties
    # one entry 1e17 above the rest: the shift rounds distinct entries to ties
    lam[1::5, -1] = 1e17
    got_v, got_g = spec.value(lam), spec.gradient(lam)
    want_v, want_g = _shifted_by_resorting(spec, lam)
    assert np.array_equal(_bits(got_v), _bits(want_v)), spec.descriptor()
    assert np.array_equal(_bits(got_g), _bits(want_g)), spec.descriptor()


def _innermost(spec):
    return _innermost(spec.inner) if isinstance(spec, symfun.Shifted) else spec


def gradient_oracle(spec, lam):
    """``(grad f, scale)`` on the rows as given, from exclusions recomputed from
    scratch.  ``scale`` takes the same sums in absolute values: it bounds the
    rounding of this route and of the package's alike."""
    if isinstance(spec, symfun.Shifted):
        g1, s1 = gradient_oracle(spec.inner, spec._shift(lam))
        return (g1 + spec.delta * np.sum(g1, axis=-1, keepdims=True),
                s1 + spec.delta * np.sum(s1, axis=-1, keepdims=True))
    if isinstance(spec, (symfun.SigmaKRoot, symfun.Quotient)):
        k, l = spec.k, getattr(spec, "l", 0)
        e = _poly.elementary_all(lam, k)
        f = (e[..., k] / e[..., l]) ** (1.0 / (k - l)) / (k - l)

        def dlog(m, x):     # d log sigma_m / d lam_i, the sum over x
            if m == 0:
                return 0.0
            return elementary_excluding(x, m - 1)[..., m - 1] / e[..., m, None]

        grad = f[..., None] * (dlog(k, lam) - dlog(l, lam))
        return grad, np.abs(f[..., None]) * (np.abs(dlog(k, np.abs(lam)))
                                             + np.abs(dlog(l, np.abs(lam))))
    if isinstance(spec, symfun.InvMonomialSum):
        k = spec.k
        x = 1.0 / lam
        hall = complete_homogeneous_all(x, k)
        hi = sum(x ** m * hall[..., k - 1 - m, None] for m in range(k))
        grad = (1.0 / k) * hall[..., k, None] ** (-1.0 / k - 1.0) * hi * x ** 2
        return grad, grad
    if isinstance(spec, symfun.InvPowerSum):
        grad = np.sum(lam ** -2.0, axis=-1, keepdims=True) ** -1.5 * lam ** -3.0
        return grad, grad
    # PucciMin: the k entries first in a stable sort carry the 1
    rank = np.argsort(np.argsort(lam, axis=-1, kind="stable"), axis=-1)
    grad = spec.delta + (rank < spec.k)
    return grad, grad


def _unit_scaled(lam):
    """Rows scaled by a power of two to 1 <= max |lam_i| < 2 (exact)."""
    return np.ldexp(lam, 1 - np.frexp(np.max(np.abs(lam), axis=-1, keepdims=True))[1])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gradients_match_the_exclusion_oracle(data):
    n = data.draw(st.integers(3, 8))
    spec = data.draw(quadform_operators(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = cones.sample_cone(spec.cone, 64, rng)
    if isinstance(_innermost(spec), (symfun.SigmaKRoot, symfun.Quotient)):
        # sigma_k leaves the float range: these rows are evaluated again, scaled
        lam[::4] *= 1e200
        lam[1::4] *= 1e-200
    # in sorted order, where the trace shift sums the row; the gradient is
    # 0-homogeneous, so the oracle runs on rows of unit scale
    order = np.argsort(lam, axis=-1, kind="stable")
    got = np.take_along_axis(spec.gradient(lam), order, axis=-1)
    want, scale = gradient_oracle(spec, _unit_scaled(np.take_along_axis(lam, order, axis=-1)))
    assert np.all(np.abs(got - want) <= 4 * n * EPS * scale), spec.descriptor()


def _pucci_tied_at_k(spec, lam):
    """Rows whose k-th and (k+1)-th smallest entries tie where PucciMin sees them:
    there the lowest-index selection is not symmetric."""
    inner = _innermost(spec)
    if not isinstance(inner, symfun.PucciMin) or inner.k == inner.n:
        return np.zeros(lam.shape[:-1], dtype=bool)
    while isinstance(spec, symfun.Shifted):
        lam, spec = spec._shift(lam), spec.inner
    ls = np.sort(lam, axis=-1)
    return ls[..., inner.k] == ls[..., inner.k - 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tied_entries_get_bitwise_equal_gradients(data):
    n = data.draw(st.integers(3, 8))
    spec = data.draw(quadform_operators(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # radial rows (a, b, .., b), as the solver's nodes, and rows of a few values
    lam = np.concatenate([np.repeat(rng.standard_normal((32, 2)), [1, n - 1], axis=1),
                          rng.choice(rng.standard_normal(3), size=(32, n))])
    t = cones.boundary_shift(spec.cone, lam)
    lam = lam + (t + rng.uniform(1e-3, 1.0, len(lam)) * np.maximum(np.abs(t), 1.0))[:, None]
    g = spec.gradient(lam)
    keep = ~_pucci_tied_at_k(spec, lam)
    tie = lam[:, :, None] == lam[:, None, :]
    same = _bits(g)[:, :, None] == _bits(g)[:, None, :]
    assert np.all(same[keep] | ~tie[keep]), spec.descriptor()


@st.composite
def nested_operators(draw, n):
    """A catalog family at dimension n inside up to two trace shifts."""
    op = draw(quadform_operators(n))
    if draw(st.booleans()):
        return op
    if draw(st.booleans()):
        return symfun.RicciComposite(n=n, inner=op)
    return symfun.Shifted(n=n, inner=op, delta=draw(st.floats(0.01, 2.0)))


def _gradient_by_the_sort(spec, lam):
    """The gradient as defined by the sort: the sorted rows' gradient gathered back
    through the stable ranks."""
    return np.take_along_axis(spec.gradient(_poly.sort_rows(lam)), _poly.stable_ranks(lam),
                              axis=-1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gradients_are_the_sorted_gradients_gathered_back(data):
    # the inverse families and Pucci take their gradient per entry, with no sort
    # (beyond the row statistics) and no gather; the sigma_k families and the
    # trace shift gather once by a flat np.take: all are bitwise the definition
    n = data.draw(st.integers(3, 8))
    spec = data.draw(nested_operators(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = np.concatenate([cones.sample_cone(spec.cone, 24, rng),
                          rng.integers(-2, 3, (8, n)).astype(float)])
    lam[::3, 1] = lam[::3, 0]     # ties
    inner = _innermost(spec)
    if isinstance(inner, symfun.PucciMin) and inner.k < n:
        # the k-th and (k+1)-th smallest entries tie, in unsorted positions
        for row in lam[1::4]:
            order = np.argsort(row, kind="stable")
            row[order[inner.k]] = row[order[inner.k - 1]]
    lam[2::5] *= 1e200      # rows evaluated again, scaled
    lam[3::5] *= 1e-200
    lam += 0.0              # no -0.0: the sort may swap it with a tied +0.0
    want = _gradient_by_the_sort(spec, lam)
    for x in (lam, np.asfortranarray(lam)):
        assert np.array_equal(_bits(spec.gradient(x)), _bits(want)), spec.descriptor()
    assert np.array_equal(_bits(spec.gradient(lam[5])), _bits(want[5])), spec.descriptor()
    assert spec.gradient(lam[:0]).shape == (0, n)


def two_valued_rows(rng, size):
    """Rows ``(a, b)`` of four kinds in equal shares: 0 < a < b, a > b > 0, a == b > 0
    and a < 0 < b, with |a| / b in [1/16, 16] and each row scaled by 2^-60 .. 2^60;
    then four rows with zeros, where most families have no finite gradient."""
    b = rng.uniform(1.0, 2.0, size)
    kind = np.arange(size) % 4
    t = np.exp2(np.where(kind == 3, rng.uniform(-4.0, 4.0, size), rng.uniform(0.0, 4.0, size)))
    a = b * np.select([kind == 0, kind == 1, kind == 2], [1.0 / t, t, 1.0], -t)
    p = rng.integers(-60, 61, size)
    return (np.append(np.ldexp(a, p), [0.0, 0.0, 1.0, -1.0]),
            np.append(np.ldexp(b, p), [0.0, 1.0, 0.0, 0.0]))


def two_valued_definition(spec, a, b):
    return symfun.CurvatureOperator.two_valued(spec, a, b)


def two_valued_scales(spec, a, b, h=2.0 ** -26):
    """Per output F of the definition, the scale its rounding is measured in: the
    change of F under relative perturbations h of a and of b, over h, plus |F|
    times 1 + the value's condition number (its relative change, over h).  Near a
    cancellation, in a value close to 0 or a row close to the boundary of a cone,
    either route's rounding grows with this scale.  Rows within h of a domain
    edge, where a perturbed F is NaN, get inf."""
    ref = two_valued_definition(spec, a, b)
    da = two_valued_definition(spec, a * (1.0 + h), b)
    db = two_valued_definition(spec, a, b * (1.0 + h))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        change = [(np.abs(ya - y) + np.abs(yb - y)) / h for y, ya, yb in zip(ref, da, db)]
        cond = change[0] / np.abs(ref[0])
        scales = [np.abs(y) * (1.0 + cond) + c for y, c in zip(ref, change)]
    return [np.where(np.isnan(s), np.inf, s) for s in scales]


#: Tolerance of the closed forms of two_valued against the definition, relative to
#: the scales of two_valued_scales: 4 x the worst case seen over 10^4 draws of this
#: test's operators and rows, which was 9.1e-15 (the rounded exponents of
#: the roots, about |log sigma_k| eps, at 2^60).
TWO_VALUED_TOL = 4 * 9.1e-15


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_two_valued_closed_forms_match_the_definition(data):
    n = data.draw(st.integers(3, 8))
    spec = data.draw(nested_operators(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a, b = two_valued_rows(rng, 64)
    got = spec.two_valued(a, b)
    want = two_valued_definition(spec, a, b)
    assert all(x.shape == y.shape == a.shape for x, y in zip(got, want)), spec.descriptor()
    # a row is finite where all three outputs are; either both sides are, or neither
    ok = np.all(np.isfinite(want), axis=0)
    assert np.array_equal(np.all(np.isfinite(got), axis=0), ok), spec.descriptor()
    for x, y, s in zip(got, want, two_valued_scales(spec, a, b)):
        assert np.all(np.abs(x - y)[ok] <= TWO_VALUED_TOL * s[ok]), spec.descriptor()
    if isinstance(spec, symfun.PucciMin):
        # at a tie the k smallest entries start at index 0: the same subgradient
        tie = a == b
        assert np.array_equal(got[1][tie], want[1][tie]), spec.descriptor()


@pytest.mark.parametrize("n", range(3, 11))
def test_values_and_gradients_are_bitwise_symmetric_in_any_layout(n):
    # every catalog operator, C- and F-ordered inputs, random column
    # permutations: values bitwise equal, gradients the bitwise permutation
    rng = np.random.default_rng(100 + n)
    for spec in catalog(n):
        lam = cones.sample_cone(spec.cone, 2000, rng)
        keep = ~_pucci_tied_at_k(spec, lam)
        f, g = spec.value(lam), spec.gradient(lam)
        for p in [np.arange(n)] + [rng.permutation(n) for _ in range(3)]:
            for x in (np.ascontiguousarray(lam[:, p]), np.asfortranarray(lam[:, p])):
                assert np.array_equal(_bits(spec.value(x)), _bits(f)), spec.descriptor()
                assert np.array_equal(_bits(spec.gradient(x))[keep], _bits(g[:, p])[keep]), \
                    spec.descriptor()


@pytest.mark.parametrize("n", range(3, 7))
def test_row_blocks_change_no_bit(n):
    # batches of 2 BLOCK_ROWS rows or more go to the kernels in blocks; each
    # row's result must not depend on which rows share its block
    rng = np.random.default_rng(300 + n)
    rows = 2 * _poly.BLOCK_ROWS + 17
    b = rng.standard_normal((rows, n))
    for spec in catalog(n):
        lam = cones.sample_cone(spec.cone, rows, rng)
        for x, d in ((lam, b), (np.asfortranarray(lam), np.asfortranarray(b)),
                     (lam[1:].reshape(2, -1, n), b[1:].reshape(2, -1, n)), (lam, b[0])):
            for method, args in (("value", (x,)), ("gradient", (x,)),
                                 ("hessian_quadform", (x, d)), ("admissible", (x,))):
                got = getattr(spec, method)(*args)
                want = unblocked(getattr(spec, method), *args)
                assert got.shape == want.shape == x.shape[:got.ndim], (spec.descriptor(), method)
                assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                                      np.ascontiguousarray(want).view(np.uint8)), \
                    (spec.descriptor(), method)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("inv-power", "inv-monomial:k=1", "inv-monomial:k=3", "inv-monomial:k=5")),
       st.integers(3, 8), st.integers(0, 2 ** 32 - 1), st.sampled_from((600, -600)))
def test_inverse_families_far_from_unit_scale(text, n, seed, p):
    # lam^-2 .. lam^-4 and h_k(1/lam) leave the float range at 2^+-600: those
    # rows are evaluated again on rows of unit scale.  The rows drawn here span
    # 2^-2 .. 2^2, where the unscaled evaluation is itself accurate to rounding
    # (the rounded exponent -1/k of the k-th root costs about |log h_k| eps).
    spec = symfun.parse_operator(text, n)
    rng = np.random.default_rng(seed)
    lam = np.ldexp(rng.uniform(1.0, 2.0, (16, n)), rng.integers(-2, 2, (16, n)))
    b = rng.standard_normal((16, n))
    x = np.ldexp(lam, p)
    g = symfun.grad_op(spec, lam)
    assert np.all(np.abs(symfun.grad_op(spec, x) - g) <= 4 * EPS * g)
    # the quadform has degree -1; its terms are of the size f |b / lam|^2
    q = symfun.concavity_quadform(spec, lam, b)
    scale = spec.value(lam) * np.sum((b / lam) ** 2, axis=-1)
    assert np.all(np.abs(np.ldexp(symfun.concavity_quadform(spec, x, b), p) - q) <= 64 * EPS * scale)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(((), (5,), (3, 2))), st.integers(3, 10), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_scatter_undoes_the_sort(lead, n, seed, fortran):
    rng = np.random.default_rng(seed)
    lam = rng.choice([0.0, 1.0, -1.0, 0.5, -2.5], size=lead + (n,))
    lam[rng.random(lam.shape) < 0.5] *= rng.standard_normal()
    lam += 0.0      # no -0.0: the sort may swap it with a tied +0.0
    if fortran:
        lam = np.asfortranarray(lam)
    unsorted = np.take_along_axis(_poly.sort_rows(lam), _poly.stable_ranks(lam), axis=-1)
    assert np.array_equal(_bits(unsorted), _bits(lam))


# ---------------------------------------------------------------------------
# Invariants: permutation, homogeneity, Euler relation
# ---------------------------------------------------------------------------

def test_permutation_invariance_exact():
    rng = np.random.default_rng(29)
    for spec in catalog(5):
        lam = cones.sample_cone(spec.cone, 200, rng)
        f = spec.value(lam)
        for _ in range(4):
            p = rng.permutation(5)
            fp = spec.value(lam[:, p])
            assert np.max(np.abs(fp - f) / np.abs(f)) <= 1e-14, spec.descriptor()


def test_homogeneity_degree_one():
    rng = np.random.default_rng(31)
    for spec in catalog(4):
        lam = cones.sample_cone(spec.cone, 300, rng)
        t = rng.uniform(0.1, 10.0, 300)
        ft = spec.value(t[:, None] * lam)
        target = t ** spec.alpha * spec.value(lam)
        assert np.max(np.abs(ft - target) / np.abs(target)) < 1e-12, spec.descriptor()


def test_homogeneity_spot_check_exact():
    spec = symfun.SigmaKRoot(n=4, k=2)
    lam = np.ones(4)
    assert spec.value(2.0 * lam) == 2.0 * spec.value(lam)


def test_euler_relation():
    rng = np.random.default_rng(37)
    for spec in catalog(4):
        lam = cones.sample_cone(spec.cone, 300, rng)
        f = spec.value(lam)
        lhs = np.sum(spec.gradient(lam) * lam, axis=-1)
        assert np.max(np.abs(lhs - spec.alpha * f) / np.abs(f)) < 1e-10, spec.descriptor()


# ---------------------------------------------------------------------------
# verify_axioms
# ---------------------------------------------------------------------------

def test_verify_axioms_sigma_root():
    report = symfun.verify_axioms(symfun.SigmaKRoot(n=4, k=2), 10000, seed=101)
    assert report.ok, report.violations
    assert report.samples == 10000


def test_verify_axioms_pucci():
    report = symfun.verify_axioms(symfun.PucciMin(n=3, k=2, delta=0.5), 10000, seed=102)
    for key in ("f1_positivity", "f4_permutation", "f5_homogeneity", "f3_concavity"):
        assert report.violations[key] == 0, (key, report.violations)


def test_verify_axioms_concavity_is_relative_to_the_values():
    # PucciMin is concave; at delta = 1e20 its values are ~1e20, and the
    # midpoint defect's rounding of ~1e4 is no violation
    for delta in (1e20, 1e300):
        report = symfun.verify_axioms(symfun.PucciMin(n=3, k=2, delta=delta), 200, seed=12345)
        assert report.violations["f3_concavity"] == 0, delta
        assert abs(report.worst["f3_concavity"]) < 1e-14, delta


class ScaledQuadraticOverLinear:
    """``c |lam|^2 / sum lam_i`` on the positive orthant: symmetric and
    1-homogeneous, but convex, not concave."""

    def __init__(self, n, c):
        self.n, self.c, self.alpha = n, c, 1.0
        self.cone = cones.GammaK(n, n)

    def descriptor(self):
        return f"quadratic-over-linear:c={self.c!r}"

    def value(self, lam):
        return self.c * np.sum(lam * lam, axis=-1) / np.sum(lam, axis=-1)

    def gradient(self, lam):
        s = np.sum(lam, axis=-1, keepdims=True)
        return self.c * (2.0 * lam / s - np.sum(lam * lam, axis=-1, keepdims=True) / s ** 2)


def test_verify_axioms_reports_a_convex_function():
    for c in (1.0, 1e200):
        report = symfun.verify_axioms(ScaledQuadraticOverLinear(3, c), 500, seed=5)
        assert report.violations["f3_concavity"] > 100, c
        assert report.worst["f3_concavity"] < -1e-3, c


def test_verify_axioms_requires_positive_samples():
    with pytest.raises(DomainError):
        symfun.verify_axioms(symfun.SigmaKRoot(n=3, k=1), 0, seed=1)


# ---------------------------------------------------------------------------
# Descriptors and parsing
# ---------------------------------------------------------------------------

def test_parse_operator_round_trip():
    texts = ["sigma-root:k=2", "quotient:k=2,l=1", "pucci:k=1,delta=0.25",
             "inv-power", "inv-monomial:k=3", "ricci:inner=sigma-root:k=2",
             f"pucci:k=1,delta={1 / 3!r}", "shifted:delta=0.5,inner=quotient:k=2,l=1",
             "ricci:inner=quotient:k=2,l=1"]
    for text in texts:
        spec = symfun.parse_operator(text, 4)
        assert spec.descriptor() == text
        again = symfun.parse_operator(spec.descriptor(), 4)
        assert again == spec


def test_operator_invariant_validation():
    with pytest.raises(DomainError):
        symfun.SigmaKRoot(n=4, k=5)
    with pytest.raises(DomainError):
        symfun.Quotient(n=4, k=2, l=2)
    for delta in (-0.1, np.inf, np.nan):
        with pytest.raises(DomainError):
            symfun.PucciMin(n=4, k=2, delta=delta)
    with pytest.raises(DomainError):
        symfun.InvMonomialSum(n=4, k=0)
    for delta in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            symfun.Shifted(n=4, inner=symfun.SigmaKRoot(n=4, k=2), delta=delta)


def test_shifted_general_composition():
    # delta = 1/(n-2) must agree with RicciComposite.
    n = 5
    inner = symfun.SigmaKRoot(n=n, k=2)
    shifted = symfun.Shifted(n=n, inner=inner, delta=1.0 / (n - 2))
    ricci = symfun.RicciComposite(n=n, inner=inner)
    rng = np.random.default_rng(41)
    lam = cones.sample_cone(ricci.cone, 50, rng)
    assert np.allclose(shifted.value(lam), ricci.value(lam), rtol=1e-13)
    assert np.allclose(shifted.gradient(lam), ricci.gradient(lam), rtol=1e-12)


@pytest.mark.parametrize("text", ["sigma-root:k=3", "quotient:k=3,l=1", "inv-monomial:k=3",
                                  "inv-power"])
def test_gradients_keep_their_bits_where_intermediates_are_subnormal(text):
    # the gradient has degree 0, so every row of lam = 2^p (1, 1.5, 1.75, 1.25) has the
    # gradient of the row p = 0; rows whose sigma_k or prefactor h_k^(-1/k-1) is
    # subnormal are evaluated again at unit scale
    spec = symfun.parse_operator(text, 4)
    p = np.arange(-1000, 1001)
    g = spec.gradient(np.ldexp(np.array([1.0, 1.5, 1.75, 1.25]), p[:, None]))
    assert np.all(np.abs(g - g[1000]) <= 1e-12 * np.abs(g[1000]))


def test_pucci_smoothness_where_the_value_overflows():
    # f = delta sum(lam) + (k smallest) overflows at (0, 1e308, 1e308), where the
    # subsets are far from tied, and at 2^1023 (1.5, 1.5, 1.75), where they are
    # tied; the tie test is scale-free, and raises no floating-point warning
    spec = symfun.parse_operator("pucci:k=1,delta=0.25", 3)
    with np.errstate(all="raise"):
        assert spec.is_smooth_at([0.0, 1e308, 1e308])
        grad, smooth = symfun.grad_op(spec, [0.0, 1e308, 1e308], return_smooth=True)
        tied = spec.is_smooth_at(np.ldexp([[0.0, 1.0, 1.0], [1.5, 1.5, 1.75]], 1023))
    assert smooth and np.array_equal(grad, [1.25, 0.25, 0.25])
    assert np.array_equal(tied, [True, False])


@pytest.mark.parametrize("text", ["sigma-root:k=1", "sigma-root:k=3", "quotient:k=2,l=1",
                                  "quotient:k=4,l=2", "ricci:inner=sigma-root:k=2",
                                  "ricci:inner=inv-power", "inv-power", "inv-monomial:k=3"])
def test_quadform_along_a_non_finite_direction_is_a_numeric_error(text):
    # the jets skip their products with the constant planes e_0 = h_0 = 1, which
    # turned an inf in b into nan; the result must still be non-finite
    spec = symfun.parse_operator(text, 4)
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    for i, bad in itertools.product(range(4), (np.inf, -np.inf, np.nan)):
        b = np.array([0.5, -1.0, 0.25, 2.0])
        b[i] = bad
        with pytest.raises(NumericError):
            symfun.concavity_quadform(spec, lam, b)


def test_pucci_quadform_along_a_non_finite_direction_is_zero():
    # PucciMin is linear where it is smooth: its quadform is 0 along any direction
    pucci = symfun.parse_operator("pucci:k=2,delta=0.5", 4)
    b = [np.inf, np.nan, 0.0, 1.0]
    assert symfun.concavity_quadform(pucci, [1.0, 2.0, 3.0, 4.0], b) == 0.0


@pytest.mark.parametrize("n", [3, 6])
def test_empty_batches(n):
    # a batch of no tuples gives empty results of the batch's shape
    lam = np.empty((0, n))
    for spec in catalog(n):
        assert spec.value(lam).shape == (0,)
        assert spec.gradient(lam).shape == (0, n)
        assert spec.hessian_quadform(lam, lam).shape == (0,)
        assert spec.admissible(lam).shape == (0,)
