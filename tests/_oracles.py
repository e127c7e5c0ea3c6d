"""Independent reference computations for cross-checking the library.

Everything here deliberately takes a different route than the library:
LAPACK instead of the Jacobi kernel, associative matrix products instead of
Jordan operator polynomials, operator-exponential series instead of closed
forms, angle arithmetic instead of spectral passes, a search over all
strand permutations instead of circular matching.
"""

import itertools

import numpy as np
import scipy.linalg

from maslov_kit import algebra as al


def eigh_desc(mat):
    """LAPACK eigendecomposition, eigenvalues descending."""
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def quad_rep_matrix(x, y):
    """P(x)y as the associative sandwich X Y X (matrix kinds only)."""
    xm = al.to_matrix(x)
    ym = al.to_matrix(y)
    return al.from_matrix(x.alg, xm @ ym @ xm)


def quad_rep_spin(x, y):
    """P(x)y on the spin factor via the closed form
    2(x0 y0 + xv.yv) x - (x0^2 - |xv|^2) (y0, -yv)."""
    x0, xv = x.coords[0], x.coords[1:]
    y0, yv = y.coords[0], y.coords[1:]
    bil = x0 * y0 + float(xv @ yv)
    det = x0 * x0 - float(xv @ xv)
    out = 2.0 * bil * x.coords.copy()
    out[0] -= det * y0
    out[1:] += det * yv
    return al.element(x.alg, out)


def box_operator(a, b):
    """Matrix of a box b = L(a o b) + [L(a), L(b)] on coordinates."""
    la = al.lmul_operator(a)
    lb = al.lmul_operator(b)
    lab = al.lmul_operator(al.jmul(a, b))
    return lab + la @ lb - lb @ la


def frobenius_expm(c, z, x):
    """Frobenius map via scipy's matrix exponential of 2(z box c)."""
    op = scipy.linalg.expm(2.0 * box_operator(z, c))
    return al.element(x.alg, op @ x.coords)


def det_matrix(x):
    """Determinant via LAPACK eigenvalues of the matrix realization."""
    return float(np.prod(np.linalg.eigvalsh(al.to_matrix(x))))


def wrap_angle(a):
    """Reduce to (-pi, pi]."""
    out = np.mod(np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def wrap_angle_open(a):
    """Reduce to [-pi, pi); convenient for sums that must avoid +pi."""
    return np.mod(np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def match_step_brute(prev, raw):
    """Strand matching by search over all r! permutations: continue `prev`
    by the permutation of `raw` of least total motion (the first one found
    on ties).  Returns (continued angles, max single-strand motion)."""
    best = None
    for perm in itertools.permutations(range(prev.size)):
        moves = wrap_angle(raw[list(perm)] - wrap_angle(prev))
        cost = float(np.sum(np.abs(moves)))
        if best is None or cost < best[0]:
            best = (cost, prev + moves, float(np.max(np.abs(moves))))
    return best[1], best[2]
