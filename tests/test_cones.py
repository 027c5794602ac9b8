"""Cone membership, boundary location, sampling, inclusion relations."""

import itertools

import numpy as np
import pytest

from confhess import cones, symfun
from confhess.errors import DomainError, UsageError


def test_gamma_membership_examples():
    g2 = cones.GammaK(3, 2)
    assert cones.cone_contains(g2, [1.0, 1.0, -0.4])   # sigma_1 = 1.6, sigma_2 = 0.2
    assert not cones.cone_contains(g2, [1.0, 1.0, -0.5])  # sigma_2 = 0 on the boundary
    assert "sigma_2" in cones.cone_violation(g2, np.array([1.0, 1.0, -0.5]))


def test_sigma_delta_zero_equals_positive_orthant():
    rng = np.random.default_rng(0)
    lam = rng.normal(size=(2000, 4))
    s0 = cones.SigmaDelta(4, 0.0)
    gn = cones.GammaK(4, 4)
    assert np.array_equal(cones.cone_contains(s0, lam), np.all(lam > 0, axis=1))
    assert np.array_equal(cones.cone_contains(s0, lam), cones.cone_contains(gn, lam))


def test_boundary_shift_sigma_delta_closed_form():
    cone = cones.SigmaDelta(3, 0.0)
    assert cones.boundary_shift(cone, [1.0, 1.0, 1.0]) == pytest.approx(-1.0, abs=1e-14)
    cone = cones.SigmaDelta(4, 0.5)
    rng = np.random.default_rng(1)
    lam = rng.normal(size=(100, 4))
    t = cones.boundary_shift(cone, lam)
    expected = -(np.min(lam, axis=1) + 0.5 * np.sum(lam, axis=1)) / (1 + 4 * 0.5)
    assert np.allclose(t, expected, atol=1e-14)


def test_boundary_shift_gamma1_example():
    # sigma_1(lam + t e) = -3 + 3 t vanishes at t = 1
    t = cones.boundary_shift(cones.GammaK(3, 1), [1.0, -2.0, -2.0])
    assert t == pytest.approx(1.0, abs=1e-11)


def test_boundary_shift_bisection_against_dense_scan():
    # Oracle: scan membership along the diagonal on a fine grid and bracket
    # the transition; the bisection value must fall in the bracketing cell.
    cone = cones.GammaK(3, 2)
    lam = np.array([1.0, 1.0, -0.4])
    t_star = float(cones.boundary_shift(cone, lam))
    assert t_star < 0.0
    ts = np.linspace(t_star - 0.5, t_star + 0.5, 20001)
    inside = np.array([bool(cones.cone_contains(cone, lam + t * np.ones(3))) for t in ts])
    flip = np.flatnonzero(np.diff(inside.astype(int)))
    assert flip.size == 1
    assert ts[flip[0]] <= t_star <= ts[flip[0] + 1]


def test_boundary_shift_rejects_non_finite_tuples():
    for bad in ([np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [[1.0, 1.0, 1.0], [1.0, -np.inf, 1.0]]):
        with pytest.raises(DomainError):
            cones.boundary_shift(cones.GammaK(3, 2), bad)


def test_boundary_shift_transition_property():
    rng = np.random.default_rng(2)
    for cone in (cones.GammaK(4, 2), cones.GammaK(5, 3), cones.SigmaDelta(4, 0.25),
                 cones.Positivity(symfun.PucciMin(n=4, k=2, delta=0.5))):
        lam = rng.normal(size=(50, cone.n))
        t = cones.boundary_shift(cone, lam)
        eps = 1e-8 * (1.0 + np.abs(t))
        e = np.ones(cone.n)
        inside_above = cones.cone_contains(cone, lam + (t + eps)[:, None] * e)
        inside_below = cones.cone_contains(cone, lam + (t - eps)[:, None] * e)
        assert np.all(inside_above)
        assert not np.any(inside_below)


def test_sample_cone_membership_and_spread():
    rng = np.random.default_rng(3)
    for cone in (cones.GammaK(4, 2), cones.GammaK(6, 6), cones.SigmaDelta(3, 0.1)):
        lam = cones.sample_cone(cone, 4000, rng)
        assert np.all(cones.cone_contains(cone, lam))
        margins = -cones.boundary_shift(cone, lam)
        assert np.all(margins > 0)
        # near-boundary behaviour is exercised: margins span two decades
        assert np.min(margins) < 0.05 * np.median(margins)


def test_convexity_and_cone_property():
    rng = np.random.default_rng(4)
    for cone in (cones.GammaK(4, 3), cones.SigmaDelta(5, 0.2)):
        lam = cones.sample_cone(cone, 10000, rng)
        mu = cones.sample_cone(cone, 10000, rng)
        s = rng.uniform(0.0, 1.0, (10000, 1))
        assert np.all(cones.cone_contains(cone, s * lam + (1 - s) * mu))
        t = rng.uniform(0.05, 20.0, (10000, 1))
        assert np.all(cones.cone_contains(cone, t * lam))


def test_permutation_symmetry_exhaustive_small_n():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        cone = cones.GammaK(n, min(2, n))
        lam = cones.sample_cone(cone, 50, rng)
        outside = lam - 2.0 * np.abs(lam)  # plainly not all inside
        for p in itertools.permutations(range(n)):
            perm = list(p)
            assert np.all(cones.cone_contains(cone, lam[:, perm]))
            assert np.array_equal(cones.cone_contains(cone, outside[:, perm]),
                                  cones.cone_contains(cone, outside))


def test_nesting_gamma_n_in_gamma_k_in_gamma_1():
    rng = np.random.default_rng(6)
    for n in (4, 6):
        inner = cones.sample_cone(cones.GammaK(n, n), 3000, rng)
        for k in range(1, n + 1):
            assert np.all(cones.cone_contains(cones.GammaK(n, k), inner))
        mid = cones.sample_cone(cones.GammaK(n, max(2, n // 2)), 3000, rng)
        assert np.all(cones.cone_contains(cones.GammaK(n, 1), mid))


def test_ricci_positivity_bridge():
    # membership in SigmaDelta(1/(n-2)) is equivalent to positivity of the
    # smallest Ricci eigenvalue, exactly as computed
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        lam = rng.normal(size=(5000, n))
        cone = cones.SigmaDelta(n, 1.0 / (n - 2))
        mu_min = np.min(symfun.ricci_map(lam), axis=1)
        assert np.array_equal(cones.cone_contains(cone, lam), mu_min > 0.0)


def test_positivity_cone_of_pucci_matches_sigma_delta():
    rng = np.random.default_rng(8)
    for delta in (0.0, 0.3):
        pucci = symfun.PucciMin(n=4, k=1, delta=delta)
        pos = cones.Positivity(pucci)
        sig = cones.SigmaDelta(4, delta)
        lam = rng.normal(size=(5000, 4))
        assert np.array_equal(cones.cone_contains(pos, lam),
                              cones.cone_contains(sig, lam))


def test_inclusion_report_and_coincidence_at_k_equals_n():
    rep = cones.gamma_sigma_inclusion_test(4, 4, 5000, seed=11)
    assert rep.delta == 0.0
    assert rep.violations == 0
    rep = cones.gamma_sigma_inclusion_test(2, 4, 20000, seed=12)
    assert rep.delta == pytest.approx(0.5)
    assert rep.violations == 0
    assert rep.worst_margin > 0.0
    # (n - k)/(n (k - 1)) at k=3, n=4 is 1/8
    rep = cones.gamma_sigma_inclusion_test(3, 4, 20000, seed=13)
    assert rep.delta == pytest.approx(1.0 / 8.0)
    assert rep.delta < 1.0 / (4 - 2)
    assert rep.violations == 0


def test_inclusion_rejects_k_equal_one():
    with pytest.raises(DomainError):
        cones.gamma_sigma_inclusion_test(1, 4, 10, seed=0)


def test_min_k_positive_ricci():
    assert cones.min_k_positive_ricci(4) == 3
    assert cones.min_k_positive_ricci(3) == 2
    assert cones.min_k_positive_ricci(6) == 4


def test_parse_cone():
    assert cones.parse_cone("gamma:k=2", 4) == cones.GammaK(4, 2)
    assert cones.parse_cone("sigma:delta=0.25", 4) == cones.SigmaDelta(4, 0.25)
    for text in ("gamma:k=2", "sigma:delta=0.25", f"sigma:delta={1 / 6!r}"):
        assert cones.parse_cone(text, 4).descriptor() == text
    with pytest.raises(UsageError):
        cones.parse_cone("gamma", 4)
    with pytest.raises(UsageError):
        cones.parse_cone("wedge:k=2", 4)


def test_cone_dimension_checks():
    with pytest.raises(DomainError):
        cones.cone_contains(cones.GammaK(4, 2), [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        cones.GammaK(4, 5)
    with pytest.raises(DomainError):
        cones.SigmaDelta(4, -0.1)
