"""Symmetric-polynomial kernels: the coefficient-major recurrence and its jets,
the column sort and the prefix-suffix sweep."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import _poly

from oracles import complete_homogeneous_all, elementary_excluding

EPS = np.finfo(float).eps


def trailing_axis_recurrence(lam, k):
    """Reference ``e_0 .. e_k``: the product recurrence with the coefficients
    on the trailing axis, one strided update per eigenvalue."""
    lam = np.asarray(lam, dtype=float)
    coef = np.zeros(lam.shape[:-1] + (k + 1,))
    coef[..., 0] = 1.0
    for j in range(lam.shape[-1]):
        top = min(j + 1, k)
        coef[..., 1:top + 1] = coef[..., 1:top + 1] + lam[..., j:j + 1] * coef[..., 0:top]
    return coef


def jet_recurrence(lam, b, k):
    """Reference jets of ``e_0 .. e_k`` along b: the recurrence of ``elementary_jet``
    with its products by e_0's jet (1, 0, 0) kept."""
    lam, b = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(b, dtype=float))
    c = np.zeros((3, k + 1) + lam.shape[:-1])
    c[0, 0] = 1.0
    for j in range(lam.shape[-1]):
        top = min(j + 1, k)
        lo = c[:, 0:top]
        step = np.ascontiguousarray(lam[..., j]) * lo
        step[1:] += np.ascontiguousarray(b[..., j]) * lo[:-1]
        c[:, 1:top + 1] += step
    return tuple(np.moveaxis(c, 1, -1))


def complete_recurrence(x, k):
    """Reference ``complete_jets``: its recurrence with the products by h_0's jet
    (1, 0, ..) kept."""
    x = np.asarray(x, dtype=float)
    jets = x.shape[0]
    h = np.zeros((jets, k + 1) + x.shape[1:-1])
    h[0, 0] = 1.0
    for i in range(x.shape[-1]):
        xi = [np.ascontiguousarray(x[q, ..., i]) for q in range(jets)]
        for m in range(1, k + 1):
            for q in range(jets):
                h[q:, m] += xi[q] * h[:jets - q, m - 1]
    return np.moveaxis(h, 1, -1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def batches(draw, n=None):
    """Tuples of n = 1..8 entries scaled per tuple by 10^-30 .. 10^30 (so no
    e_k leaves the normal range), in a batch of leading shape (), (5,) or (3, 2)."""
    n = n or draw(st.integers(1, 8))
    lead = draw(st.sampled_from(((), (5,), (3, 2))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    shape = lead + (n,)
    lam = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=lead + (1,))
    return lam, rng.standard_normal(shape)


@settings(max_examples=300, deadline=None)
@given(batches(), st.data())
def test_elementary_all_is_bitwise_the_trailing_axis_recurrence(batch, data):
    lam, _ = batch
    k = data.draw(st.integers(0, lam.shape[-1]))
    got = _poly.elementary_all(lam, k)
    want = trailing_axis_recurrence(lam, k)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def with_signed_zeros(rng, a):
    """``a`` with about a quarter of its entries set to -0.0 and another to +0.0."""
    a = np.array(a)
    u = rng.random(a.shape)
    a[u < 0.25] = -0.0
    a[(u >= 0.25) & (u < 0.5)] = 0.0
    return a


@settings(max_examples=300, deadline=None)
@given(batches(), st.data())
def test_jets_are_bitwise_the_recurrences_with_their_constant_planes(batch, data):
    # elementary_jet and complete_jets skip their products with e_0 = h_0 = 1
    lam, b = batch
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        lam, b = with_signed_zeros(rng, lam), with_signed_zeros(rng, b)
    k = data.draw(st.integers(0, lam.shape[-1]))
    for got, want in zip(_poly.elementary_jet(lam, b, k), jet_recurrence(lam, b, k)):
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
    x = np.stack([lam, b, lam * b])[:data.draw(st.integers(1, 3))]
    got, want = _poly.complete_jets(x, k), complete_recurrence(x, k)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))
    got, want = _poly.elementary_all(lam, k), trailing_axis_recurrence(lam, k)
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=300, deadline=None)
@given(batches(), st.data())
def test_elementary_jet_first_order_is_the_directional_derivative(batch, data):
    lam, b = batch
    n = lam.shape[-1]
    k = data.draw(st.integers(1, n))
    c0, c1, c2 = _poly.elementary_jet(lam, b, k)
    assert c0.shape == c1.shape == c2.shape == lam.shape[:-1] + (k + 1,)
    assert np.array_equal(bits(c0), bits(_poly.elementary_all(lam, k)))
    # d/dt e_k(lam + t b) = sum_i b_i e_(k-1)(lam without i); rounding is
    # bounded by a few n eps times the same sum taken in absolute values
    want = np.sum(b * elementary_excluding(lam, k - 1)[..., k - 1], axis=-1)
    scale = np.sum(np.abs(b) * elementary_excluding(np.abs(lam), k - 1)[..., k - 1],
                   axis=-1)
    assert np.all(np.abs(c1[..., k] - want) <= 4 * n * EPS * scale)


def test_elementary_jet_quadratic_example():
    # e_2(lam + t b) at lam = (1, 2, 3), b = (1, 0, -1):
    # (1 + t) 2 + (1 + t)(3 - t) + 2 (3 - t) = 11 + 2 t - t^2
    c0, c1, c2 = _poly.elementary_jet([1.0, 2.0, 3.0], [1.0, 0.0, -1.0], 2)
    assert np.array_equal(c0, [1.0, 6.0, 11.0])
    assert np.array_equal(c1, [0.0, 0.0, 2.0])
    assert np.array_equal(c2, [0.0, 0.0, -1.0])


def tied_rows(rng, shape):
    """Rows drawn from a few values, +0 and -0 among them, so ties are common."""
    lam = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.5], size=shape)
    lam[rng.random(shape) < 0.5] *= rng.standard_normal()
    return lam


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((), (5,), (3, 2))), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_reduce_columns_is_bitwise_numpys_reduction(lead, n, seed):
    lam = tied_rows(np.random.default_rng(seed), lead + (n,))
    pairs = [(np.minimum, np.min, lam), (np.maximum, np.max, lam),
             (np.maximum, np.max, np.abs(lam))]
    if n < 8:
        pairs.append((np.add, np.sum, lam))
    for ufunc, reduce, x in pairs:
        got, want = _poly.reduce_columns(ufunc, x), reduce(x, axis=-1)
        assert type(got) is type(want)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("n", range(3, 11))
def test_sort_rows_sorts_every_zero_one_row(n):
    # 0-1 principle: a comparator network that sorts every 0/1 row sorts every row
    lam = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    assert np.array_equal(bits(_poly.sort_rows(lam)), bits(np.sort(lam, axis=-1)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((), (5,), (3, 2))), st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_sort_rows_is_bitwise_numpys_sort(lead, n, seed, fortran):
    lam = tied_rows(np.random.default_rng(seed), lead + (n,))
    if fortran:
        lam = np.asfortranarray(lam)
    got, want = _poly.sort_rows(lam), np.sort(lam, axis=-1, kind="stable")
    assert got.shape == want.shape
    # bitwise, up to the order of -0.0 against +0.0 within a row (the default
    # kind of np.sort may even turn -0.0 into +0.0)
    assert np.array_equal(got, want)
    assert np.array_equal(bits(got)[want != 0.0], bits(want)[want != 0.0])
    assert np.array_equal(np.sum(np.signbit(got), axis=-1), np.sum(np.signbit(want), axis=-1))
    # contiguous columns
    assert all(got[..., j].flags.c_contiguous for j in range(n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((), (5,), (3, 2))), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_stable_ranks_invert_the_stable_argsort(lead, n, seed):
    lam = tied_rows(np.random.default_rng(seed), lead + (n,))
    rank = _poly.stable_ranks(lam)
    order = np.argsort(lam, axis=-1, kind="stable")
    assert np.array_equal(np.take_along_axis(rank, order, axis=-1),
                          np.broadcast_to(np.arange(n), lam.shape))
    assert np.array_equal(np.take_along_axis(_poly.sort_rows(lam), rank, axis=-1), lam)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(((), (1,), (5,), (3, 2))), st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans())
def test_unsort_is_bitwise_the_gather_by_stable_ranks(lead, n, seed, fortran_lam, fortran_g):
    rng = np.random.default_rng(seed)
    lam = rng.choice([0.0, 1.0, -1.0, 0.5, -2.5], size=lead + (n,))
    g = rng.standard_normal(lead + (n,))
    if fortran_lam:
        lam = np.asfortranarray(lam)
    if fortran_g:
        g = np.asfortranarray(g)
    want = np.take_along_axis(g, _poly.stable_ranks(lam), axis=-1)
    got = _poly.unsort(g, lam)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))
    assert _poly.unsort(np.empty((0, n)), np.empty((0, n))).shape == (0, n)


@settings(max_examples=300, deadline=None)
@given(batches(), st.data())
def test_elementary_sweep_matches_the_exclusion_oracle(batch, data):
    lam, _ = batch
    n = lam.shape[-1]
    k = data.draw(st.integers(1, n))
    degrees = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        lam[..., n // 2:] = lam[..., :1]       # ties, some of them adjacent
    e, excluded = _poly.elementary_sweep(lam, k, degrees)
    assert np.array_equal(bits(e), bits(_poly.elementary_all(lam, k)))
    want = elementary_excluding(lam, k - 1)
    # rounding is bounded by a few n eps times the same sums in absolute values
    scale = elementary_excluding(np.abs(lam), k - 1)
    for m, got in zip(degrees, excluded):
        assert got.shape == lam.shape
        assert np.all(np.abs(got - want[..., m]) <= 2 * n * EPS * scale[..., m])
        # an entry equal to its left neighbour shares its bits
        tie = lam[..., 1:] == lam[..., :-1]
        assert np.array_equal(bits(got[..., 1:])[tie], bits(got[..., :-1])[tie])


@settings(max_examples=300, deadline=None)
@given(batches(), st.integers(0, 6))
def test_complete_jets_match_the_power_sum_oracle(batch, k):
    lam, _ = batch
    x = np.abs(lam)
    n = x.shape[-1]
    (h,) = _poly.complete_jets(x[None], k)
    assert h.shape == x.shape[:-1] + (k + 1,)
    # positive terms: both routes are accurate to a few eps relative
    want = complete_homogeneous_all(x, k)
    assert np.all(np.abs(h - want) <= 4 * (n + k) * EPS * want)
