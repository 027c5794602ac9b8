"""Reference kernels the package no longer uses, kept as test oracles.

Each recomputes its result by a route independent of the kernels under
test: ``elementary_excluding`` runs the product recurrence from scratch on
every tuple with one entry removed, and ``complete_homogeneous_all`` goes
through power sums.  ``unblocked`` evaluates a batched entry point on the
whole batch at once, the reference for its evaluation in row blocks.
"""

import numpy as np
import pytest

from confhess import _poly


def elementary_excluding(lam, k):
    """``e_0 .. e_k`` of the tuple with one entry removed, for every entry.

    Returns shape ``(..., n, k + 1)`` where ``[..., i, j]`` is
    ``e_j(lam with entry i removed)``.  Each reduced tuple is recomputed from
    scratch (no deflation), at an O(n^2 k) cost.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n, k + 1))
    for i in range(n):
        idx = [j for j in range(n) if j != i]
        out[..., i, :] = _poly.elementary_all(lam[..., idx], k)
    return out


def complete_homogeneous_all(x, k):
    """Complete homogeneous symmetric polynomials ``h_0 .. h_k``.

    Uses ``m h_m = sum_{j=1..m} p_j h_{m-j}`` with power sums ``p_j``; for
    positive inputs every term is positive, so no cancellation occurs.
    Returns shape ``(..., k + 1)``.
    """
    x = np.asarray(x, dtype=float)
    h = np.zeros(x.shape[:-1] + (k + 1,))
    h[..., 0] = 1.0
    if k == 0:
        return h
    p = np.empty(x.shape[:-1] + (k + 1,))
    xj = np.ones_like(x)
    for j in range(1, k + 1):
        xj = xj * x
        p[..., j] = np.sum(xj, axis=-1)
    for m in range(1, k + 1):
        acc = np.zeros(x.shape[:-1])
        for j in range(1, m + 1):
            acc = acc + p[..., j] * h[..., m - j]
        h[..., m] = acc / m
    return h


def unblocked(fn, *args):
    """``fn(*args)`` with every batch handed to the kernels in one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_poly, "BLOCK_ROWS", 10 ** 9)
        return fn(*args)
