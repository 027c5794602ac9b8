"""Batched symmetric-polynomial kernels.

All routines accept arrays whose trailing axis indexes the eigenvalues and
broadcast over every leading axis, so callers can evaluate thousands of
sample tuples in a handful of vectorized passes.

The kernels run column-major: the coefficients live in contiguous planes of
shape ``(k + 1, ...)``, each eigenvalue column is copied at most once into a
contiguous array of the batch shape (not at all where the rows come laid out
by columns), and every update is one contiguous elementwise call over the
whole batch.  Results are returned as trailing-axis views ``(..., k + 1)`` of
those planes.  The planes of degree
0 hold the constant 1 (``e_0 = h_0 = 1``, with the jet (1, 0, 0)): the
recurrences add the column to the plane of degree 1 instead of multiplying
it by them, which changes no bit of a finite result.  :func:`sort_rows`
sorts by a comparator network on the columns, :func:`stable_ranks` gives the
permutation back from pairwise column compares, :func:`unsort` gathers
values of the sorted rows back by one flat ``np.take``, and
:func:`elementary_sweep` differentiates the product recurrence by one
forward and one backward pass.

The batched entry points of ``symfun`` and ``cones`` hand larger batches to
these kernels in blocks of :data:`BLOCK_ROWS` to ``1.5 BLOCK_ROWS`` rows
(:func:`_by_row_blocks`), so that the k + 1 to 3 (k + 1) planes of a kernel
and its temporaries stay in a core's L2 cache instead of streaming through
it once per column.  Every kernel computes each row from that row alone, so
blocking changes no bit of any result.
"""

import functools
import math

import numpy as np

from .errors import DomainError

#: Least rows per block of :func:`_by_row_blocks`: 64 KiB per float64 plane.
BLOCK_ROWS = 8192


def _check_degree(k, n):
    if not 0 <= k <= n:
        raise DomainError(f"degree k={k} outside 0..n={n}")


def _by_row_blocks(fn, *arrays):
    """``fn(*arrays)`` on ``rows // BLOCK_ROWS`` consecutive blocks of rows of about
    equal size, with the results written into one output of the arrays' leading
    shape.  The arrays share their leading axes, which hold the rows; ``fn`` maps
    ``(rows, n)`` blocks to results with ``rows`` leading.  A batch of fewer than
    ``2 BLOCK_ROWS`` rows, a single tuple among them, goes to ``fn`` as it is: the
    cost per row is flat from about 8192 to 16384 rows and rises below, so a
    smaller block would cost more calls than it saves in cache misses."""
    lead = arrays[0].shape[:-1]
    rows = math.prod(lead)
    blocks = rows // BLOCK_ROWS
    if blocks <= 1:
        return fn(*arrays)
    flat = [a.reshape(rows, a.shape[-1]) for a in arrays]
    size = -(-rows // blocks)
    out = None
    for start in range(0, rows, size):
        part = fn(*(a[start:start + size] for a in flat))
        if out is None:     # in the memory order of the blocks, so each copies as one
            out = np.empty_like(part, shape=(rows,) + part.shape[1:])
        out[start:start + size] = part
    return out.reshape(lead + out.shape[1:])


def reduce_columns(ufunc, lam):
    """``ufunc.reduce(lam, axis=-1)`` by elementwise calls on the columns ``lam[..., j]``,
    several times faster on ``(N, n)`` batches of small n, and independent of the
    memory layout of ``lam``.  Bitwise ``np.min`` and ``np.max`` (up to the sign of a
    zero result at n > 8), and ``np.sum`` at n < 8."""
    lam = np.asarray(lam, dtype=float)
    out = ufunc.reduce(lam[..., :1], axis=-1, keepdims=True)[..., 0]
    for j in range(1, lam.shape[-1]):
        ufunc(out, lam[..., j], out=out)
    return out[()]


@functools.cache
def _sort_program(n):
    """Batcher's odd-even merge network on n columns as register moves.

    The network for the next power of two, less the comparators that reach past
    column n - 1 (with +inf padding those never swap).  Each step
    ``(i, j, src_i, src_j, lo, hi)`` reads columns i and j from buffer rows
    ``src_i``, ``src_j`` (None: the input column), writes their minimum to row
    ``lo`` and their maximum to row ``hi``; rows are numbered so that column j
    ends in row j of an ``(n + 1)``-row buffer."""
    p = 1 << max(n - 1, 0).bit_length()
    net = []
    size = 1
    while size < p:
        k = size
        while k >= 1:
            for j in range(k % size, p - k, 2 * k):
                for i in range(min(k, p - j - k)):
                    a, b = i + j, i + j + k
                    if a // (2 * size) == b // (2 * size) and b < n:
                        net.append((a, b))
            k //= 2
        size *= 2
    # the minimum goes to a free row, the maximum stays in the row of column j
    where, free, steps = [None] * n, list(range(n + 1)), []
    for i, j in net:
        lo = free.pop()
        hi = where[j] if where[j] is not None else free.pop()
        steps.append((i, j, where[i], where[j], lo, hi))
        if where[i] is not None:
            free.append(where[i])
        where[i], where[j] = lo, hi
    row = {slot: j for j, slot in enumerate(where)}
    row[free[0]] = n
    name = lambda s: None if s is None else row[s]
    return tuple((i, j, name(si), name(sj), row[lo], row[hi])
                 for i, j, si, sj, lo, hi in steps)


def sort_rows(lam):
    """Each row of the trailing axis in ascending order, bitwise ``np.sort``'s rows
    (up to the order of -0.0 against +0.0), with contiguous columns ``[..., j]``.

    One ``np.minimum`` and one ``np.maximum`` per comparator of :func:`_sort_program`,
    on whole columns."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    rows = lam.reshape(-1, n)
    buf = np.empty((n + 1, rows.shape[0]))
    if n == 1:
        buf[0] = rows[:, 0]
    for i, j, si, sj, lo, hi in _sort_program(n):
        a = rows[:, i] if si is None else buf[si]
        b = rows[:, j] if sj is None else buf[sj]
        # min and max pick the same argument of a tie (-0.0 against +0.0): with
        # the arguments swapped in one of them, no zero changes its sign
        np.minimum(a, b, out=buf[lo])
        np.maximum(b, a, out=buf[hi])
    return buf[:n].T.reshape(lam.shape)


def stable_ranks(lam):
    """Position of every entry in its row sorted by a stable sort: ``rank_i =
    #{j < i: lam_j <= lam_i} + #{j > i: lam_j < lam_i}``, the inverse of the
    stable ``argsort``, in the smallest unsigned integer type that holds n.  The value
    ``sort_rows(lam)[..., rank_i]`` equals ``lam[..., i]``."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    rows = lam.reshape(-1, n)
    cols = [np.ascontiguousarray(rows[:, j]) for j in range(n)]
    rank = np.empty((n, rows.shape[0]), dtype=np.min_scalar_type(n))
    for j in range(n):
        rank[j] = j
    below = np.empty(rows.shape[0], dtype=bool)
    step = below.view(np.uint8)
    # rank_i gains lam_j < lam_i for j > i, and rank_j loses the same compare
    # from its starting count j (wrapping in between, exact once all pairs are in)
    for i in range(n):
        for j in range(i + 1, n):
            np.less(cols[j], cols[i], out=below)
            rank[i] += step
            rank[j] -= step
    return rank.T.reshape(lam.shape)


def unsort(g, lam):
    """``g``, whose rows belong to ``sort_rows(lam)``, back in the column order of
    ``lam``: bitwise ``np.take_along_axis(g, stable_ranks(lam), -1)``.

    One flat ``np.take`` on the columns of ``g`` (contiguous when ``g`` is F-ordered,
    as the column-major kernels return it), at the flat indices ``rank * rows +
    row``; the result is F-ordered."""
    n, rows = lam.shape[-1], math.prod(lam.shape[:-1])
    flat = np.multiply(stable_ranks(lam).reshape(rows, n).T, rows, dtype=np.intp)
    flat += np.arange(rows)
    return np.take(g.reshape(rows, n).T, flat).T.reshape(lam.shape)


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
    prod = np.empty((max(k - 1, 0),) + lam.shape[:-1])     # the products of one column
    for j in range(lam.shape[-1] if k else 0):
        # e_1 gains x * e_0 = x itself, after the planes above it have read e_1
        x, m = np.ascontiguousarray(lam[..., j]), min(j, k - 1)
        coef[2:m + 2] += np.multiply(x, coef[1:m + 1], out=prod[:m])
        coef[1:2] += x
    return np.moveaxis(coef, 0, -1)


def elementary_sweep(lam, k, degrees):
    """``e_0 .. e_k`` of the trailing axis and, for each ``m`` in ``degrees`` (``0 <= m
    < k``), ``e_m(lam | i)``, the e_m of the tuple without entry i, for every i.

    Reverse-mode differentiation of the product recurrence (``d e_(m+1) / d lam_i =
    e_m(lam | i)``).  A backward pass stores the suffix planes ``e_b(lam_(i+1) ..
    lam_(n-1))`` for ``b <= max(degrees)``; the forward pass of :func:`elementary_all`
    then pairs its running prefix with them, ``e_m(lam | i) = sum_a prefix_i[a]
    suffix_i[m - a]``, with no division and no deflation, in O(n k) per tuple.
    An entry equal to its left neighbour gets that neighbour's result bitwise (the
    two sums pair different prefixes and suffixes), so tied entries of sorted rows
    share their bits.

    Returns ``(e, excluded)``: ``e`` of shape ``(..., k + 1)``, bitwise
    :func:`elementary_all`, and a list with one ``(..., n)`` array per degree.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    _check_degree(k, n)
    rows = lam.reshape(-1, n)
    cols = [np.ascontiguousarray(rows[:, j]) for j in range(n)]
    top = max(degrees)
    # the planes of degree 0 hold 1: their products are skipped, and suffix[:, 0]
    # is never read
    suffix = np.zeros((n, top + 1, rows.shape[0]))
    for i in range(n - 2, -1, -1):
        t = min(n - 1 - i, top)
        if t:
            np.multiply(cols[i + 1], suffix[i + 1, 1:t], out=suffix[i, 2:t + 1])
            suffix[i, 2:t + 1] += suffix[i + 1, 2:t + 1]
            np.add(cols[i + 1], suffix[i + 1, 1], out=suffix[i, 1])
    coef = np.zeros((k + 1, rows.shape[0]))
    coef[0] = 1.0
    out = np.empty((len(degrees), n, rows.shape[0]))
    for i in range(n):
        for d, m in enumerate(degrees):
            # prefix_i has i entries and suffix_i n - 1 - i, so the other terms vanish
            first, *rest = [coef[a] if a == m else suffix[i, m] if a == 0
                            else coef[a] * suffix[i, m - a]
                            for a in range(max(0, m - (n - 1 - i)), min(i, m) + 1)]
            out[d, i] = first
            for term in rest:
                out[d, i] += term
        coef[2:min(i + 1, k) + 1] += cols[i] * coef[1:min(i, k - 1) + 1]
        coef[1] += cols[i]
    for i in range(1, n):
        tie = cols[i] == cols[i - 1]
        if np.any(tie):
            for plane in out:
                np.copyto(plane[i], plane[i - 1], where=tie)
    return coef.T.reshape(lam.shape[:-1] + (k + 1,)), [plane.T.reshape(lam.shape) for plane in out]


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
    for j in range(lam.shape[-1] if k else 0):
        x, y = np.ascontiguousarray(lam[..., j]), np.ascontiguousarray(b[..., j])
        lo = c[:, 1:min(j, k - 1) + 1]
        # (x + s y)(c0 + c1 s + c2 s^2) = x c0 + (x c1 + y c0) s + (x c2 + y c1) s^2,
        # and e_0's jet (1, 0, 0) adds (x, y, 0) to e_1's
        step = x * lo
        step[1:] += y * lo[:-1]
        c[:, 2:min(j + 1, k) + 1] += step
        c[0, 1:2] += x
        c[1, 1:2] += y
    return tuple(np.moveaxis(c, 1, -1))


def complete_jets(x, k):
    """Truncated Taylor jets of the complete homogeneous symmetric polynomials
    ``h_0 .. h_k`` of the trailing axis.

    ``x`` has shape ``(J, ..., n)``: entry i is the jet ``x[0] + x[1] s + .. +
    x[J - 1] s^(J - 1)`` (J = 1 for plain values).  Adds one variable at a time by
    ``h_m <- h_m + x_i h_(m-1)``, m ascending, on contiguous planes ``(J, k + 1,
    ...)`` with products truncated at ``s^J``, as :func:`elementary_jet` lays out
    its jets.  For positive values every term is positive, so nothing cancels.
    Returns shape ``(J, ..., k + 1)``; ``[q, ..., m]`` is the ``s^q`` coefficient
    of ``h_m``.
    """
    x = np.asarray(x, dtype=float)
    if k < 0:
        raise DomainError(f"degree k={k} must be >= 0")
    jets = x.shape[0]
    h = np.zeros((jets, k + 1) + x.shape[1:-1])
    h[0, 0] = 1.0
    for i in range(x.shape[-1] if k else 0):
        xi = [np.ascontiguousarray(x[q, ..., i]) for q in range(jets)]
        # h_0's jet is (1, 0, ..): h_1 gains x itself
        for q in range(jets):
            h[q, 1:2] += xi[q]
        for m in range(2, k + 1):
            # (x0 + x1 s + ..)(p0 + p1 s + ..): x_q times the planes of h_(m-1)
            # added to the planes q.. of h_m, one jet order of x at a time
            for q in range(jets):
                h[q:, m] += xi[q] * h[:jets - q, m - 1]
    return np.moveaxis(h, 1, -1)


def sigma(lam, k):
    """k-th elementary symmetric polynomial of the trailing axis."""
    return elementary_all(lam, k)[..., k]
