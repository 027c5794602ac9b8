"""Symmetric-polynomial kernels: the coefficient-major recurrence and its jets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import _poly

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
    want = np.sum(b * _poly.elementary_excluding(lam, k - 1)[..., k - 1], axis=-1)
    scale = np.sum(np.abs(b) * _poly.elementary_excluding(np.abs(lam), k - 1)[..., k - 1],
                   axis=-1)
    assert np.all(np.abs(c1[..., k] - want) <= 4 * n * EPS * scale)


def test_elementary_jet_quadratic_example():
    # e_2(lam + t b) at lam = (1, 2, 3), b = (1, 0, -1):
    # (1 + t) 2 + (1 + t)(3 - t) + 2 (3 - t) = 11 + 2 t - t^2
    c0, c1, c2 = _poly.elementary_jet([1.0, 2.0, 3.0], [1.0, 0.0, -1.0], 2)
    assert np.array_equal(c0, [1.0, 6.0, 11.0])
    assert np.array_equal(c1, [0.0, 0.0, 2.0])
    assert np.array_equal(c2, [0.0, 0.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((), (5,), (3, 2))), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_reduce_columns_is_bitwise_numpys_reduction(lead, n, seed):
    # entries drawn from a few values, so ties (of +0 and -0 too) are common
    rng = np.random.default_rng(seed)
    lam = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.5], size=lead + (n,))
    lam[rng.random(lam.shape) < 0.5] *= rng.standard_normal()
    pairs = [(np.minimum, np.min, lam), (np.maximum, np.max, lam),
             (np.maximum, np.max, np.abs(lam))]
    if n < 8:
        pairs.append((np.add, np.sum, lam))
    for ufunc, reduce, x in pairs:
        got, want = _poly.reduce_columns(ufunc, x), reduce(x, axis=-1)
        assert type(got) is type(want)
        assert np.array_equal(bits(got), bits(want))
