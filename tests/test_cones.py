"""Cone membership, boundary location, sampling, inclusion relations."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import _poly, cones, symfun
from confhess._poly import sigma
from confhess.errors import DomainError, NumericError, UsageError

from oracles import laguerre_shift, unblocked


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
    """``boundary_shift`` within 1e-10 of the row scale, and never closer than
    one ulp of the oracle: below that the rounding of a tie decides."""
    t = float(cones.boundary_shift(cone, lam))
    want = float(bisection_shift(cone, lam)[0])
    assert abs(t - want) <= max(1e-10 * _oracle_scale(lam), np.spacing(abs(want)))


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


def test_gamma_membership_keeps_an_exact_subnormal_sigma_of_a_large_row():
    # sigma_1 sums to exactly 2^-1074 > 0 on the row as given; scaled down by
    # 2^1000, the row would lose its last entry and read sigma_1 = 0
    lam = [2.0 ** 1000, -(2.0 ** 1000), 2.0 ** -1074]
    assert _exact_sigmas(lam, 1) == [Fraction(1, 2 ** 1074)]
    assert cones.cone_contains(cones.GammaK(3, 1), lam)
    assert not cones.cone_contains(cones.GammaK(3, 2), lam)    # sigma_2 < -2^1999


def test_gamma_membership_redoes_a_subnormal_sigma_of_a_small_row():
    # sigma_2 = 7 2^-1079 > 0, but its terms round to subnormals and sum to
    # -2^-1074 on the row as given; scaled up by 2^538, exactly, it is positive
    lam = np.ldexp([16.0, -0.75, 0.5, 0.5], -539)
    assert _exact_sigmas(lam, 2) == [Fraction(65, 2 ** 541), Fraction(7, 2 ** 1079)]
    assert _poly.elementary_all(lam, 2)[2] == -(2.0 ** -1074)
    assert cones.cone_contains(cones.GammaK(4, 2), lam)
    assert cones.cone_violation(cones.GammaK(4, 2), lam) is None


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


def test_boundary_shift_sigma_delta_large_delta():
    # t* = -(min + delta sum) / (1 + n delta) -> -sum / n as delta grows; at
    # delta = 1e308 both delta * sum and n * delta overflow
    for delta in (2.0, 1e300, 1e308):
        cone = cones.SigmaDelta(3, delta)
        for lam in ([0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1e300, 1e-300, 1.0]):
            want = -(min(lam) / delta + sum(lam)) / (1.0 / delta + 3.0)
            assert cones.boundary_shift(cone, lam) == pytest.approx(want, rel=1e-15)


def test_pucci_boundary_shift_is_bitwise_permutation_invariant():
    # both sums of the divided-through formula are taken on the sorted row; a
    # total summed in column order once changed bits for delta > 1
    rng = np.random.default_rng(7)
    for n in (3, 5):
        lam = rng.standard_normal((20000, n))
        for delta in (0.5, 2.5, 1e5):
            cone = symfun.PucciMin(n, 2, delta).cone
            want = cones.boundary_shift(cone, lam)
            for _ in range(3):
                got = cones.boundary_shift(cone, lam[:, rng.permutation(n)])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, delta)


def test_boundary_shift_gamma_n_is_exact_min():
    # -min lam_i, though entries below 2^-1074 of the row maximum vanish in
    # any row scaled to unit maximum
    cone = cones.GammaK(3, 3)
    lam = np.array([[1e300, 1e-300, 1.0], [1e300, 5e-324, 1.0], [1e300, -1e-310, 1.0],
                    [2.0, 3.0, -4.0]])
    assert np.array_equal(cones.boundary_shift(cone, lam), -np.min(lam, axis=-1))
    assert cones.boundary_shift(cone, lam[0]) == -1e-300


def test_boundary_shift_gamma1_example():
    # sigma_1(lam + t e) = -3 + 3 t vanishes at t = 1
    t = cones.boundary_shift(cones.GammaK(3, 1), [1.0, -2.0, -2.0])
    assert t == pytest.approx(1.0, abs=1e-11)


def test_gamma_diagonal_shift_takes_any_leading_shape():
    # every k, the closed forms and the Laguerre iteration alike: a 1-D tuple
    # gives a scalar, bitwise the value of the same row as a 2-D batch, and a
    # batch keeps its leading shape
    rng = np.random.default_rng(41)
    for n in range(3, 7):
        lam = rng.standard_normal((3, n))
        for k in range(1, n + 1):
            cone = cones.GammaK(n, k)
            for row in lam:
                got = cone.diagonal_shift(row)
                assert np.ndim(got) == 0, (n, k)
                assert got == cone.diagonal_shift(row[None])[0], (n, k)
            batch = cone.diagonal_shift(lam.reshape(3, 1, n))
            assert np.array_equal(batch, cone.diagonal_shift(lam)[:, None]), (n, k)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gamma2_closed_form_matches_bisection_to_rounding(data):
    # sigma_2(lam + t 1) is quadratic in t: the closed form is exact to a few
    # ulps of the row scale, for either sign of the mean
    n = data.draw(st.integers(3, 8))
    lam = data.draw(rows(n))
    if data.draw(st.booleans()) != (np.mean(lam) > 0.0):
        lam = -lam
    assert_gamma2_matches_bisection(lam)


def assert_gamma2_matches_bisection(lam):
    """Within 4 eps of the row scale, or one ulp of the oracle where that is
    larger: among subnormals a tie of the exact shift is rounded either way."""
    cone = cones.GammaK(len(lam), 2)
    eps = np.finfo(float).eps
    t = float(cones.boundary_shift(cone, lam))
    want = float(bisection_shift(cone, lam, tol=eps)[0])
    assert abs(t - want) <= max(4.0 * eps * float(_oracle_scale(lam)), np.spacing(abs(want)))
    return t, want


def test_gamma2_boundary_shift_subnormal_tie():
    # the exact shift x / 4 lies halfway between two subnormals, 11258999076.5
    # steps: boundary_shift rounds it to the even one, the bisection lands on
    # the odd one, and 4 eps of the row scale is below one subnormal step
    x = 45035996306 * 2.0 ** -1074
    t, want = assert_gamma2_matches_bisection(-np.array([0.0] * 7 + [x]))
    assert t == 11258999076 * 2.0 ** -1074 and want == 11258999077 * 2.0 ** -1074


def test_pucci_boundary_shift_subnormal_tie():
    # the exact shift is 4.5 subnormal steps: boundary_shift rounds it to
    # 2e-323 (ties to even), the bisection lands on 2.5e-323
    lam = np.array([0.0, -3e-323, -3e-323, -3e-323])
    assert float(cones.boundary_shift(symfun.PucciMin(n=4, k=4, delta=0.0).cone, lam)) == 2e-323
    assert_matches_oracle(symfun.PucciMin(n=4, k=4, delta=0.0).cone, lam)


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
    # this row needs more than one Newton step from t = -min lam_i (Gamma_2 has
    # a closed form, so the cap is exercised on Gamma_3)
    monkeypatch.setattr(cones, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(NumericError):
        cones.boundary_shift(cones.GammaK(4, 3), [-1.0, 1.0, 2.0, 3.0])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gamma_k_laguerre_matches_bisection_to_rounding(data):
    # 3 <= k <= n-1: where t* is a simple root of sigma_k(lam + t 1), so that
    # sigma_(k-1) there is not small, the shift is exact to rounding; near
    # multiple roots the 1e-10 property above still holds
    n = data.draw(st.integers(4, 8))
    k = data.draw(st.integers(3, n - 1))
    lam = data.draw(rows(n))
    cone = cones.GammaK(n, k)
    eps = np.finfo(float).eps
    scale = float(_oracle_scale(lam))
    t = float(cones.boundary_shift(cone, lam))
    if sigma(lam / scale + t / scale, k - 1) >= 1e-3:
        want = float(bisection_shift(cone, lam, tol=eps)[0])
        assert abs(t - want) <= 256.0 * eps * scale


def test_boundary_shift_two_valued_rows_in_one_laguerre_step(monkeypatch):
    # Laguerre's step is exact when all other roots coincide: one step, and
    # one that confirms it
    monkeypatch.setattr(cones, "NEWTON_MAX_STEPS", 2)
    rng = np.random.default_rng(10)
    for n in range(4, 9):
        ab = rng.normal(size=(500, 2))
        lam = np.hstack([ab[:, :1], np.repeat(ab[:, 1:], n - 1, axis=1)])
        for k in range(3, n):
            t = cones.boundary_shift(cones.GammaK(n, k), lam)
            expected = np.maximum(-ab[:, 1], -(k * ab[:, 0] + (n - k) * ab[:, 1]) / n)
            assert np.allclose(t, expected, rtol=0.0, atol=1e-13)


def test_boundary_shift_cap_names_unconverged_rows(monkeypatch):
    # the constant row stands still at t = -min lam_i, its boundary
    monkeypatch.setattr(cones, "NEWTON_MAX_STEPS", 1)
    lam = [[-1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], [0.5, -2.0, 1.0, 4.0]]
    texts = set()
    for _ in range(2):
        with pytest.raises(NumericError) as err:
            cones.boundary_shift(cones.GammaK(4, 3), lam)
        texts.add(str(err.value))
    assert texts == {"gamma:k=3: boundary iteration hit 1 steps with 2 of 3 rows unconverged, "
                     "largest last step 0.224 of max |lam_i|"}


def test_boundary_shift_cap_surfaces_from_the_last_block(monkeypatch):
    # constant rows stand still at their boundary, so only the last row of the
    # last block is unconverged; the message counts the rows of that block
    monkeypatch.setattr(cones, "NEWTON_MAX_STEPS", 1)
    rows = 2 * _poly.BLOCK_ROWS + 17
    lam = np.ones((rows, 4))
    lam[-1] = [-1.0, 1.0, 2.0, 3.0]
    blocks = rows // _poly.BLOCK_ROWS
    last = rows - (blocks - 1) * -(-rows // blocks)
    with pytest.raises(NumericError) as err:
        cones.boundary_shift(cones.GammaK(4, 3), lam)
    assert str(err.value) == ("gamma:k=3: boundary iteration hit 1 steps with "
                              f"1 of {last} rows unconverged, largest last step 0.224 of max |lam_i|")


def test_boundary_shift_of_a_row_does_not_depend_on_its_batch():
    # each row of the Laguerre iteration stops on its own step
    rng = np.random.default_rng(0)
    for n in range(4, 7):
        for k in range(3, n):
            cone = cones.GammaK(n, k)
            lam = rng.standard_normal((20000, n))
            t = cones.boundary_shift(cone, lam)
            single = [cones.boundary_shift(cone, row) for row in lam[:1000]]
            assert np.array_equal(np.array(single).view(np.int64), t[:1000].view(np.int64)), (n, k)


@pytest.mark.parametrize("n", range(3, 7))
def test_row_blocks_change_no_bit_of_shift_or_membership(n):
    rng = np.random.default_rng(400 + n)
    rows = 2 * _poly.BLOCK_ROWS + 17
    lam = rng.standard_normal((rows, n)) + rng.uniform(-0.5, 1.5, (rows, 1))
    every = ([cones.GammaK(n, k) for k in range(1, n + 1)]
             + [cones.SigmaDelta(n, 0.0), cones.SigmaDelta(n, 0.25), cones.SigmaDelta(n, 4.0),
                cones.Positivity(symfun.PucciMin(n=n, k=2, delta=0.5)),
                cones.Positivity(symfun.RicciComposite(n=n, inner=symfun.SigmaKRoot(n=n, k=2)))])
    for cone in every:
        for x in (lam, np.asfortranarray(lam), lam[1:].reshape(2, -1, n)):
            for fn in (cones.boundary_shift, cones.cone_contains):
                got, want = fn(cone, x), unblocked(fn, cone, x)
                assert got.shape == want.shape == x.shape[:-1], (cone, fn)
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (cone, fn)


def test_unit_rows_are_column_planes_bitwise_the_ldexp():
    # the scaled copy is laid out by columns, each [..., i] contiguous, for any
    # leading shape and any layout of the input
    rng = np.random.default_rng(43)
    for lead in ((), (5,), (3, 4)):
        lam = rng.standard_normal(lead + (6,)) * np.exp(rng.uniform(-5, 5, lead + (1,)))
        for x in (lam, lam[..., ::-1], lam[::2]):
            for j in (1, 2):
                got, e = cones._unit_rows(x, j)
                assert got.shape == x.shape and np.shape(e) == x.shape[:-1]
                assert np.moveaxis(got, -1, 0).flags.c_contiguous
                want = np.ldexp(x, -e[..., None])
                assert got.tobytes() == want.tobytes(), (lead, j)


def test_gamma_boundary_shift_is_bitwise_the_out_of_place_iteration():
    # the Laguerre updates in place, and the rows laid out by columns, change no
    # bit: Gaussian rows at a size where the row blocks run, and two-valued rows
    rng = np.random.default_rng(44)
    rows = 2 * _poly.BLOCK_ROWS + 1
    for n in range(4, 9):
        g = rng.standard_normal((rows, n))
        two = np.repeat(rng.standard_normal((64, 1)), n, axis=1)
        two[:, 0] = rng.standard_normal(64)
        for k in range(3, n):
            cone = cones.GammaK(n, k)
            for lam in (g, two):
                got = cones.boundary_shift(cone, lam)
                assert got.tobytes() == laguerre_shift(cone, lam).tobytes(), (n, k)


EDGE_CONES = ([cones.GammaK(4, k) for k in range(1, 5)]
              + [cones.SigmaDelta(4, 0.25), cones.Positivity(symfun.PucciMin(n=4, k=2, delta=0.5)),
                 cones.Positivity(symfun.RicciComposite(n=4, inner=symfun.SigmaKRoot(n=4, k=2)))])


@pytest.mark.parametrize("cone", EDGE_CONES, ids=lambda c: c.descriptor())
def test_edge_shapes_and_strided_views_give_the_bits_of_a_contiguous_copy(cone):
    rng = np.random.default_rng(45)
    lam = rng.standard_normal((9, 4)) + 0.5
    for x in (np.empty((0, 4)), np.empty((2, 0, 4)), lam[0], lam[:, ::-1], lam[::2],
              lam.T.copy().T, lam[1:].reshape(2, 4, 4)[:, ::2]):
        for fn in (cones.boundary_shift, cones.cone_contains):
            got, want = fn(cone, x), fn(cone, np.ascontiguousarray(x))
            assert np.shape(got) == np.shape(want) == x.shape[:-1], (fn, x.shape)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (fn, x.shape)
    assert cones.sample_cone(cone, 0, 1).shape == (0, 4)


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


def test_sample_cone_is_bitwise_the_out_of_place_formula():
    # the draw is updated in place; recomputing g + (t + u max(|t|, 1)) from the
    # same seed gives the same bits, at a size where the row blocks run
    rows = 2 * _poly.BLOCK_ROWS + 1
    specs = [symfun.PucciMin(n=5, k=2, delta=0.5), symfun.InvPowerSum(n=5),
             symfun.InvMonomialSum(n=5, k=3),
             symfun.RicciComposite(n=5, inner=symfun.SigmaKRoot(n=5, k=2))]
    every = ([cones.GammaK(n, k) for n in range(3, 7) for k in range(1, n + 1)]
             + [cones.SigmaDelta(5, 0.3)]
             + [s.cone for s in specs if isinstance(s.cone, cones.Positivity)])
    assert any(isinstance(cone, cones.Positivity) for cone in every)
    for seed, cone in enumerate(every):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((rows, cone.n))
        t = cones.boundary_shift(cone, g)
        u = rng.uniform(1e-3, 1.0, rows)
        want = g + (t + u * np.maximum(np.abs(t), 1.0))[:, None]
        got = cones.sample_cone(cone, rows, seed)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), cone
    # the margin accumulates into its sum: bitwise min + delta * sum
    sigma = cones.SigmaDelta(got.shape[-1], 0.3)
    for lam in (got, got[0]):
        want = np.min(lam, axis=-1) + 0.3 * _poly.reduce_columns(np.add, lam)
        assert np.asarray(sigma.margin_value(lam)).tobytes() == np.asarray(want).tobytes()


def test_sample_cone_allocates_one_draw_sized_array():
    # traced peak of a 10^5-row draw: its result plus at most 5 floats per row
    # for the row blocks' temporaries and the per-row vectors (10 with a second
    # (N, n) array for the result, as an out-of-place step would take)
    cone, size = cones.GammaK(6, 4), 10 ** 5
    cones.sample_cone(cone, size, 1)
    tracemalloc.start()
    try:
        lam = cones.sample_cone(cone, size, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= lam.nbytes + 5 * size * lam.itemsize, peak / (size * lam.itemsize)


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


def test_inclusion_margins_in_row_blocks_are_those_of_the_whole_batch():
    # worst margin and violations of the blocked margins: bitwise min + delta sum
    rows = 2 * _poly.BLOCK_ROWS + 1
    for k, n in ((2, 4), (3, 5), (5, 6)):
        rep = cones.gamma_sigma_inclusion_test(k, n, rows, seed=k)
        assert rep == unblocked(cones.gamma_sigma_inclusion_test, k, n, rows, k)
        lam = cones.sample_cone(cones.GammaK(n, k), rows, np.random.default_rng(k))
        margins = np.min(lam, axis=-1) + rep.delta * _poly.reduce_columns(np.add, lam)
        assert rep.worst_margin == np.min(margins)
        assert rep.violations == np.count_nonzero(~(margins > 0.0)) == 0


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
    for delta in (-0.1, np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError):
            cones.SigmaDelta(4, delta)
