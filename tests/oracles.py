"""Reference kernels the package no longer uses, kept as test oracles.

Each recomputes its result by a route independent of the kernels under
test: ``elementary_excluding`` runs the product recurrence from scratch on
every tuple with one entry removed, and ``complete_homogeneous_all`` goes
through power sums.  ``unblocked`` evaluates a batched entry point on the
whole batch at once, the reference for its evaluation in row blocks.
``laguerre_shift`` locates the Gamma_k boundary by the Laguerre iteration
written out of place, one new array per update, on rows as given.
"""

import math

import numpy as np
import pytest

from confhess import _poly, cones


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


def laguerre_shift(cone, lam):
    """``boundary_shift(cone, lam)`` of a ``GammaK(n, k)``, 3 <= k <= n - 1, on an
    ``(N, n)`` batch: each row scaled by the power of two putting ``max |lam_i|`` in
    ``[1, 2)``, then Laguerre's method from ``t0 = -min lam_i`` by Horner from degree
    0 and one Newton polish, every update an expression with a new result array."""
    n, k = cone.n, cone.k
    e = np.frexp(np.max(np.abs(lam), axis=-1))[1] - 1
    lam = np.ldexp(lam, -e[:, None])
    t = -np.min(lam, axis=-1)
    tol = cones.NEWTON_STEP_TOL * np.maximum(np.max(lam, axis=-1), t)
    c = np.moveaxis(_poly.elementary_all(lam + t[:, None], k), -1, 0)
    c *= np.array([math.comb(n - j, k - j) for j in range(k + 1)])[:, None]
    s, active = np.zeros_like(t), np.ones(t.shape, dtype=bool)
    for _ in range(cones.NEWTON_MAX_STEPS):
        p, dp, hp = c[0], 0.0, 0.0
        for j in range(1, k + 1):
            hp, dp, p = hp * s + dp, dp * s + p, p * s + c[j]
        root = dp + np.sqrt(np.maximum((k - 1) ** 2 * dp * dp - 2 * k * (k - 1) * p * hp, 0))
        step = np.divide(k * p, root, out=np.zeros_like(t),
                         where=active & (p > 0.0) & (dp > 0.0))
        s -= step
        active = step > tol
        if not np.any(active):
            t += s
            sig = _poly.elementary_all(lam + t[:, None], k)
            q, dq = sig[:, k], (n - k + 1) * sig[:, k - 1]
            t -= np.maximum(np.divide(q, dq, out=np.zeros_like(t), where=dq > 0), -tol)
            return np.ldexp(t, e)
    raise AssertionError(f"{cone}: no convergence in {cones.NEWTON_MAX_STEPS} steps")
