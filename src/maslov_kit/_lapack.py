"""np.linalg's solve, inv, det, eigvals and eigvalsh on small stacks, with no
Python wrapper.

Each function calls the LAPACK gufunc of numpy.linalg._umath_linalg that its
np.linalg namesake calls, with the signature that np.linalg picks (D for
complex128, d for float64), so every output is byte-identical to np.linalg's.
What is left out is the wrapper, which costs more than LAPACK on a 2 x 2 or
3 x 3 stack: array coercion, the common-type search, the squareness check
and an errstate per call.  So the inputs must be float64 or complex128
stacks of square matrices, and solve's right-hand side a stack of matrices,
never a vector.  eigvals always returns complex eigenvalues.

As in np.linalg, a singular solve or inv raises LinAlgError("Singular
matrix") from the error state of singular(): the gufunc sets the invalid
flag on a LAPACK failure, and the state turns it into the error.  A loop of
solves can enter that state once and call solve_in_state inside it.
"""

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg as _gufuncs


class _Raise:
    """An errstate callback raising LinAlgError(message), as np.linalg's do."""

    def __init__(self, message):
        self.message = message

    def __call__(self, err, flag):
        raise LinAlgError(self.message)


_SINGULAR = _Raise("Singular matrix")
_NO_CONVERGENCE = _Raise("Eigenvalues did not converge")


def _state(callback):
    return np.errstate(call=callback, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def singular():
    """The error state of np.linalg.solve and inv."""
    return _state(_SINGULAR)


def _kind(a):
    return "D" if a.dtype.kind == "c" else "d"


def solve_in_state(a, b):
    """solve(a, b), for a caller that holds the error state of singular()."""
    k = "D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "d"
    return _gufuncs.solve(a, b, signature=f"{k}{k}->{k}")


def solve(a, b):
    with singular():
        return solve_in_state(a, b)


def inv(a):
    k = _kind(a)
    with singular():
        return _gufuncs.inv(a, signature=f"{k}->{k}")


def det(a):
    k = _kind(a)
    return _gufuncs.det(a, signature=f"{k}->{k}")


def eigvals(a):
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    with _state(_NO_CONVERGENCE):
        return _gufuncs.eigvals(a, signature=f"{_kind(a)}->D")


def eigvalsh(a):
    """The eigenvalues of the Hermitian matrices a, read from their lower
    triangles (np.linalg's UPLO="L")."""
    k = _kind(a)
    with _state(_NO_CONVERGENCE):
        return _gufuncs.eigvalsh_lo(a, signature=f"{k}->d")
