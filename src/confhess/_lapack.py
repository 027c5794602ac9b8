"""LAPACK's banded solve, with scipy imported on the first call.

``scipy.linalg`` takes about half a second to import, and only the Newton
step of :mod:`confhess.radial_solver` needs it, so ``import confhess``
defers it to the first solve.
"""


def solve_banded(l_and_u, ab, b):
    """:func:`scipy.linalg.solve_banded` of ``ab x = b``, ``ab`` in LAPACK band storage."""
    from scipy.linalg import solve_banded as lapack_solve_banded

    return lapack_solve_banded(l_and_u, ab, b)
