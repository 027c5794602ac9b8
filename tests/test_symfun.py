"""Operator catalog: values, gradients, concavity, axiom sweeps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import _poly, cones, symfun
from confhess.errors import AdmissibilityError, DomainError


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


def test_gradient_symmetric_point():
    # Euler relation under degree-1 homogeneity plus symmetry forces each
    # component to C(n,k)^(1/k) / n at any multiple of (1,..,1).
    from math import comb

    for n, k in [(4, 2), (5, 3), (6, 4)]:
        spec = symfun.SigmaKRoot(n=n, k=k)
        for c in (0.5, 1.0, 3.0):
            g = symfun.grad_op(spec, np.full(n, c))
            assert np.allclose(g, comb(n, k) ** (1.0 / k) / n, rtol=1e-12)


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
    single = _poly.elementary_excluding(lam, k)
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
    gb = np.sum(_poly.elementary_excluding(lam, m - 1)[..., :, m - 1] * b, axis=-1)
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
        hall = _poly.complete_homogeneous_all(x, k)
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
    with pytest.raises(DomainError):
        symfun.PucciMin(n=4, k=2, delta=-0.1)
    with pytest.raises(DomainError):
        symfun.InvMonomialSum(n=4, k=0)
    with pytest.raises(DomainError):
        symfun.Shifted(n=4, inner=symfun.SigmaKRoot(n=4, k=2), delta=0.0)


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
