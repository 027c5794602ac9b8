"""LAPACK's tridiagonal solve, with scipy imported on the first call.

``scipy.linalg`` takes about half a second to import, and only the Newton
step of :mod:`confhess.radial_solver` needs it, so ``import confhess``
defers it to the first solve.
"""

import numpy as np


def solve_banded(l_and_u, ab, b):
    """``ab x = b`` in floats for a tridiagonal ``ab`` in LAPACK band storage,
    ``l_and_u == (1, 1)``, as :func:`scipy.linalg.solve_banded` gives it.

    It calls LAPACK's ``dgtsv`` directly, the call scipy makes after its input
    checks: a singular ``ab`` raises :class:`numpy.linalg.LinAlgError`, and a
    non-finite ``b`` gives a non-finite ``x`` rather than a ``ValueError``.
    """
    from scipy.linalg import lapack

    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"solve_banded is tridiagonal only, got l_and_u = {l_and_u}")
    x, info = lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
