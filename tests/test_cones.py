"""Cone membership, boundary location, sampling, inclusion relations."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import cones, symfun
from confhess.errors import DomainError, NumericError, UsageError


def _oracle_scale(lam):
    """Power of two that brings max |lam_i| of each row into [1/2, 1)."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(lam), axis=-1))[1])


def bisection_shift(cone, lam, tol=1e-14):
    """Reference boundary shift: bisect membership along the diagonal.

    On rows scaled to max |lam_i| < 1, ``t = -1`` makes every entry negative
    (outside every cone here) and ``t = 1`` every entry positive (inside),
    so [-1, 1] brackets the crossing; halving runs to ``tol`` of the scale.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    scale = _oracle_scale(lam)
    x = lam / scale[:, None]
    lo, hi = np.full(len(x), -1.0), np.full(len(x), 1.0)
    assert not np.any(cone.contains(x + lo[:, None]))
    assert np.all(cone.contains(x + hi[:, None]))
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        ok = cone.contains(x + mid[:, None])
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
    return 0.5 * (lo + hi) * scale


@st.composite
def rows(draw, n):
    """One row of n entries: generic, two-valued (a, b, .., b), all equal, or
    tied at the minimum; permuted and scaled by 10^-300 .. 10^300."""
    unit = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(("generic", "two-valued", "all-equal", "tied-min")))
    if kind == "generic":
        x = [draw(unit) for _ in range(n)]
    elif kind == "two-valued":
        x = [draw(unit)] + [draw(unit)] * (n - 1)
    elif kind == "all-equal":
        x = [draw(unit)] * n
    else:
        low, ties = draw(unit), draw(st.integers(2, n - 1))
        x = [low] * ties + [draw(st.floats(low, 1.0)) for _ in range(n - ties)]
    x = np.array(x)[draw(st.permutations(range(n)))]
    return x * 10.0 ** draw(st.integers(-300, 300))


def assert_matches_oracle(cone, lam):
    t = float(cones.boundary_shift(cone, lam))
    assert abs(t - float(bisection_shift(cone, lam)[0])) <= 1e-10 * _oracle_scale(lam)


def test_gamma_membership_examples():
    g2 = cones.GammaK(3, 2)
    assert cones.cone_contains(g2, [1.0, 1.0, -0.4])   # sigma_1 = 1.6, sigma_2 = 0.2
    assert not cones.cone_contains(g2, [1.0, 1.0, -0.5])  # sigma_2 = 0 on the boundary
    assert "sigma_2" in cones.cone_violation(g2, np.array([1.0, 1.0, -0.5]))


def test_membership_far_from_unit_scale():
    # sigma_j finite here, but the row's maximum is far from 1
    assert cones.cone_contains(cones.GammaK(3, 3), [1e200, 1.0, 1.0])
    assert cones.cone_contains(cones.GammaK(8, 8), [1e47] + [1.0] * 7)
    assert cones.cone_contains(cones.GammaK(8, 7), [1e47] + [1.0] * 7)
    # entries 2^1993 apart: Gamma_n is exactly min lam_i > 0
    assert cones.cone_contains(cones.GammaK(3, 3), [1e300, 1e-300, 1.0])
    assert cones.cone_contains(cones.SigmaDelta(3, 0.0), [1e300, 1e-320, 1.0])
    # sigma_3 = 3e540 + 1e360 overflows, and in units of the maximum underflows
    assert cones.cone_contains(cones.GammaK(4, 3), [1e300, 1e120, 1e120, 1e120])
    # sigma_2 = 1e616 - 1.8e616 overflows: the text reports -inf, not nan
    assert cones.cone_violation(cones.GammaK(3, 2), np.array([1e308, 1e308, -9e307])) \
        == "sigma_2 = -inf <= 0"
    assert cones.cone_violation(cones.SigmaDelta(3, 0.0), np.array([1e300, -1e-320, 1.0])) \
        == "min lam_i + 0 * sum lam_i = -9.99989e-321 <= 0"


def _exact_sigmas(lam, k):
    e = [Fraction(1)] + [Fraction(0)] * k
    for x in map(Fraction, lam):
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e[1:]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gamma_membership_matches_exact_arithmetic(data):
    """Rows of two magnitudes up to 2^400 apart, anywhere in the float range."""
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, n))
    low = data.draw(st.integers(-850, 420))
    gap = data.draw(st.integers(0, 400))
    high = data.draw(st.integers(1, 2))     # entries at the upper level
    lam = np.array([data.draw(st.sampled_from((1.0, 1.0, -1.0)))
                    * np.ldexp(data.draw(st.floats(0.5, 1.0)), low + gap * (i < high))
                    for i in range(n)])
    exact = _exact_sigmas(lam, k)
    size = _exact_sigmas(np.abs(lam), k)
    if all(abs(s) >= a / 10 ** 6 for s, a in zip(exact, size)):   # signs that floats resolve
        assert cones.cone_contains(cones.GammaK(n, k), lam) == all(s > 0 for s in exact)


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


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gamma_boundary_shift_matches_bisection(data):
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, n))
    assert_matches_oracle(cones.GammaK(n, k), data.draw(rows(n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pucci_boundary_shift_matches_bisection(data):
    n = data.draw(st.integers(3, 8))
    pucci = symfun.PucciMin(n=n, k=data.draw(st.integers(1, n)),
                            delta=data.draw(st.floats(0.0, 2.0)))
    assert_matches_oracle(pucci.cone, data.draw(rows(n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_shift_boundary_shift_matches_bisection(data):
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, n))
    inner = data.draw(st.sampled_from((
        symfun.SigmaKRoot(n=n, k=k), symfun.Quotient(n=n, k=k, l=k - 1),
        symfun.PucciMin(n=n, k=k, delta=0.25), symfun.InvPowerSum(n=n))))
    if data.draw(st.booleans()):
        op = symfun.RicciComposite(n=n, inner=inner)
    else:
        op = symfun.Shifted(n=n, inner=inner, delta=data.draw(st.floats(0.01, 2.0)))
    assert_matches_oracle(op.cone, data.draw(rows(n)))


def test_boundary_shift_two_valued_rows_closed_form():
    # at (a, b, .., b), sigma_k = b^(k-1) (C(n-1,k) b + C(n-1,k-1) a), so the
    # roots of sigma_k(lam + t 1) are -b and -(k a + (n - k) b)/n
    rng = np.random.default_rng(9)
    for n in range(3, 9):
        ab = rng.normal(size=(500, 2))
        lam = np.hstack([ab[:, :1], np.repeat(ab[:, 1:], n - 1, axis=1)])
        for k in range(2, n):
            t = cones.boundary_shift(cones.GammaK(n, k), lam)
            expected = np.maximum(-ab[:, 1], -(k * ab[:, 0] + (n - k) * ab[:, 1]) / n)
            assert np.allclose(t, expected, rtol=0.0, atol=1e-13)


def test_boundary_shift_newton_cap_raises(monkeypatch):
    # this row needs more than one Newton step from t = -min lam_i
    monkeypatch.setattr(cones, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(NumericError):
        cones.boundary_shift(cones.GammaK(4, 2), [-1.0, 1.0, 2.0, 3.0])


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
