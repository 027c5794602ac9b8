"""Batched symmetric-polynomial kernels.

All routines accept arrays whose trailing axis indexes the eigenvalues and
broadcast over every leading axis, so callers can evaluate thousands of
sample tuples in a handful of vectorized passes.
"""

import numpy as np

from .errors import DomainError


def elementary_all(lam, k):
    """Elementary symmetric polynomials ``e_0 .. e_k`` of the trailing axis.

    Computed with the incremental product recurrence for
    ``prod_i (1 + lam_i t)`` truncated at degree ``k``.  Each update is a
    single fused multiply-add per coefficient, which behaves much better for
    mixed-sign inputs than Newton-Girard style power-sum conversions.

    Parameters
    ----------
    lam : array_like, shape (..., n)
    k : int
        Highest degree requested, ``0 <= k <= n``.

    Returns
    -------
    ndarray, shape (..., k + 1)
        Entry ``[..., j]`` holds ``e_j(lam)``; ``e_0 = 1``.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"degree k={k} outside 0..n={n}")
    coef = np.zeros(lam.shape[:-1] + (k + 1,))
    coef[..., 0] = 1.0
    for j in range(n):
        top = min(j + 1, k)
        # RHS is materialized before assignment, so the overlapping slices
        # of `coef` are safe.
        coef[..., 1:top + 1] = coef[..., 1:top + 1] + lam[..., j:j + 1] * coef[..., 0:top]
    return coef


def sigma(lam, k):
    """k-th elementary symmetric polynomial of the trailing axis."""
    return elementary_all(lam, k)[..., k]


def elementary_excluding(lam, k):
    """``e_0 .. e_k`` of the tuple with one entry removed, for every entry.

    Returns shape ``(..., n, k + 1)`` where ``[..., i, j]`` is
    ``e_j(lam with entry i removed)``.  Each reduced tuple is recomputed from
    scratch (no deflation), which keeps the result stable for outlier
    entries at an O(n^2 k) cost that is negligible for the small n used here.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n, k + 1))
    for i in range(n):
        idx = [j for j in range(n) if j != i]
        out[..., i, :] = elementary_all(lam[..., idx], k)
    return out


def elementary_excluding_pair(lam, k):
    """``e_0 .. e_k`` with two distinct entries removed, for every pair.

    Returns shape ``(..., n, n, k + 1)``; the diagonal ``i == j`` is filled
    with the single-exclusion values so callers can index freely.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n, n, k + 1))
    single = elementary_excluding(lam, k)
    for i in range(n):
        out[..., i, i, :] = single[..., i, :]
        for j in range(i + 1, n):
            idx = [m for m in range(n) if m != i and m != j]
            e = elementary_all(lam[..., idx], k)
            out[..., i, j, :] = e
            out[..., j, i, :] = e
    return out


def complete_homogeneous_all(x, k):
    """Complete homogeneous symmetric polynomials ``h_0 .. h_k``.

    Uses ``m h_m = sum_{j=1..m} p_j h_{m-j}`` with power sums ``p_j``; for
    positive inputs every term is positive, so no cancellation occurs.
    Returns shape ``(..., k + 1)``.
    """
    x = np.asarray(x, dtype=float)
    if k < 0:
        raise DomainError(f"degree k={k} must be >= 0")
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

