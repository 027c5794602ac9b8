"""Batched symmetric-polynomial kernels.

All routines accept arrays whose trailing axis indexes the eigenvalues and
broadcast over every leading axis, so callers can evaluate thousands of
sample tuples in a handful of vectorized passes.

The product recurrences run coefficient-major: the coefficients live in
contiguous planes of shape ``(k + 1, ...)``, each eigenvalue column is
copied once into a contiguous array of the batch shape, and every update is
one contiguous multiply-add over the whole batch.  Results are returned as
trailing-axis views ``(..., k + 1)`` of those planes.
"""

import numpy as np

from .errors import DomainError


def _check_degree(k, n):
    if not 0 <= k <= n:
        raise DomainError(f"degree k={k} outside 0..n={n}")


def reduce_columns(ufunc, lam):
    """``ufunc.reduce(lam, axis=-1)`` by elementwise calls on the columns ``lam[..., j]``,
    several times faster on ``(N, n)`` batches of small n.  Bitwise ``np.min`` and
    ``np.max`` (up to the sign of a zero result at n > 8), and ``np.sum`` at n < 8."""
    lam = np.asarray(lam, dtype=float)
    out = ufunc.reduce(lam[..., :1], axis=-1, keepdims=True)[..., 0]
    for j in range(1, lam.shape[-1]):
        ufunc(out, lam[..., j], out=out)
    return out[()]


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
    _check_degree(k, lam.shape[-1])
    coef = np.zeros((k + 1,) + lam.shape[:-1])
    coef[0] = 1.0
    for j in range(lam.shape[-1]):
        top = min(j + 1, k)
        coef[1:top + 1] += np.ascontiguousarray(lam[..., j]) * coef[0:top]
    return np.moveaxis(coef, 0, -1)


def elementary_jet(lam, b, k):
    """Second-order Taylor jets of ``e_0 .. e_k`` along the direction ``b``.

    Runs the product recurrence of :func:`elementary_all` on
    ``prod_i (1 + (lam_i + s b_i) t)`` with every coefficient kept as a
    polynomial in ``s`` truncated at ``s^2``.  Returns ``(c0, c1, c2)``, each
    of shape ``(..., k + 1)``, with ``e_j(lam + s b) = c0 + c1 s + c2 s^2 +
    O(s^3)``: ``c0`` equals :func:`elementary_all` bitwise, ``c1[..., j] =
    b . grad e_j`` and ``2 c2[..., j] = b^T (d2 e_j) b``.  The cost is
    ``O(n k)`` per tuple, with no pairwise Hessian entries.
    """
    lam, b = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(b, dtype=float))
    _check_degree(k, lam.shape[-1])
    c = np.zeros((3, k + 1) + lam.shape[:-1])
    c[0, 0] = 1.0
    for j in range(lam.shape[-1]):
        top = min(j + 1, k)
        lo = c[:, 0:top]
        # (x + s y)(c0 + c1 s + c2 s^2) = x c0 + (x c1 + y c0) s + (x c2 + y c1) s^2
        step = np.ascontiguousarray(lam[..., j]) * lo
        step[1:] += np.ascontiguousarray(b[..., j]) * lo[:-1]
        c[:, 1:top + 1] += step
    return tuple(np.moveaxis(c, 1, -1))


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

