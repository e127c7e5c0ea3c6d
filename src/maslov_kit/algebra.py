"""Euclidean Jordan algebras: real symmetric matrices, complex Hermitian
matrices, and spin factors.

Every algebra is handled through a fixed real coordinate basis so that
elements are plain float vectors:

* ``sym-r`` (param m): diagonal units E_ii first, then (E_ij + E_ji)/sqrt(2)
  for i < j in row-major order.
* ``herm-c`` (param m): diagonal units, then (E_ij + E_ji)/sqrt(2), then
  i(E_ij - E_ji)/sqrt(2), each block row-major.
* ``spin`` (param q >= 3): coordinates (x0, xvec) with product
  (x0*y0 + xvec.yvec, x0*yvec + y0*xvec).

The trace form makes the matrix-kind bases orthonormal; for the spin factor
the Gram matrix of this basis is 2*I, which the inner product accounts for.

The same coordinate formulas applied to complex vectors realize the
complexification; the private ``_mul``/``_lmul``/``_det`` helpers are dtype
generic for that reason and the boundary module reuses them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _lapack
from .config import SPECTRAL
from .errors import DomainError

SYM_R = "sym-r"
HERM_C = "herm-c"
SPIN = "spin"
KINDS = (SYM_R, HERM_C, SPIN)

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A simple Euclidean Jordan algebra, identified by kind and size."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown algebra kind {self.kind!r}")
        if self.kind == SPIN:
            if self.param < 3:
                raise DomainError("spin factor needs param >= 3")
        elif self.param < 1:
            raise DomainError(f"{self.kind} needs param >= 1")

    @property
    def rank(self):
        return 2 if self.kind == SPIN else self.param

    @property
    def dim(self):
        if self.kind == SYM_R:
            return self.param * (self.param + 1) // 2
        if self.kind == HERM_C:
            return self.param * self.param
        return self.param

    @property
    def mult(self):
        """Dimension of each off-diagonal Peirce space J_ij."""
        if self.kind == SYM_R:
            return 1
        if self.kind == HERM_C:
            return 2
        return self.param - 2

    @property
    def gram_weight(self):
        """Squared norm of each coordinate basis vector under the trace form."""
        return 2.0 if self.kind == SPIN else 1.0

    def __repr__(self):
        return f"AlgebraDescriptor({self.kind!r}, {self.param})"


def algebra(kind, param):
    return AlgebraDescriptor(kind, int(param))


@lru_cache(maxsize=None)
def _matrix_index(alg):
    """(diag, upper-row, upper-col) index arrays for the matrix kinds."""
    if alg.kind == SPIN:
        raise DomainError("spin factor has no matrix realization")
    m = alg.param
    oi, oj = np.triu_indices(m, 1)
    return np.arange(m), oi, oj


@lru_cache(maxsize=None)
def _basis_tensor(alg):
    """Stack of basis matrices, shape (dim, m, m)."""
    eye = np.eye(alg.dim)
    return np.stack([_to_matrix(alg, eye[k]) for k in range(alg.dim)])


def _to_matrix(alg, coords):
    """Coordinates -> matrix for the matrix kinds; supports batches.  herm-c
    adds the imaginary block as (re +- 1j*im) / sqrt(2): one complex division,
    whose bits two real divisions would not reproduce."""
    m = alg.param
    di, oi, oj = _matrix_index(alg)
    re = coords[..., m:m + oi.size]
    if alg.kind == SYM_R:
        out = np.zeros(coords.shape[:-1] + (m, m), dtype=coords.dtype)
        upper = lower = re / _SQRT2
    else:
        out = np.zeros(coords.shape[:-1] + (m, m), dtype=np.complex128)
        im = 1j * coords[..., m + oi.size:]
        upper, lower = (re + im) / _SQRT2, (re - im) / _SQRT2
    out[..., di, di] = coords[..., :m]
    out[..., oi, oj] = upper
    out[..., oj, oi] = lower
    return out


def _from_matrix(alg, mat):
    """Matrix -> coordinates, the inverse of _to_matrix; supports batches.

    For herm-c the map is complex linear on all of M(m, C); real Hermitian
    callers take the real part themselves.
    """
    di, oi, oj = _matrix_index(alg)
    upper, lower = mat[..., oi, oj], mat[..., oj, oi]
    parts = [mat[..., di, di], (upper + lower) / _SQRT2]
    if alg.kind == HERM_C:
        parts.append((upper - lower) * (-1j / _SQRT2))
    return np.concatenate(parts, axis=-1)


def _mul(alg, a, b):
    """Jordan product on raw coordinate vectors, dtype generic."""
    if alg.kind == SPIN:
        out = np.empty_like(a + b)
        out[..., 0] = a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)
        out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
        return out
    x = _to_matrix(alg, a)
    y = _to_matrix(alg, b)
    prod = 0.5 * (x @ y + y @ x)
    out = _from_matrix(alg, prod)
    if alg.kind == HERM_C and not np.iscomplexobj(a) and not np.iscomplexobj(b):
        return out.real.copy()
    return out


def _lmul(alg, coords):
    """Matrix of left multiplication on raw coordinates, dtype generic."""
    if alg.kind == SPIN:
        n = alg.dim
        out = np.zeros((n, n), dtype=coords.dtype)
        out[0, 0] = coords[0]
        out[0, 1:] = coords[1:]
        out[1:, 0] = coords[1:]
        out[1:, 1:] = coords[0] * np.eye(n - 1)
        return out
    x = _to_matrix(alg, coords)
    basis = _basis_tensor(alg)
    prod = 0.5 * (x @ basis + basis @ x)
    return _from_matrix(alg, prod).T


def _det(alg, coords):
    """Determinant polynomial on raw coordinates, dtype generic.

    On the spin factor this is the bilinear form x0^2 - xvec.xvec (no
    conjugation), which is what the complexification needs.  Supports
    batches.
    """
    if alg.kind == SPIN:
        return coords[..., 0] ** 2 - (coords[..., 1:] * coords[..., 1:]).sum(axis=-1)
    return _lapack.det(_to_matrix(alg, coords))


class _Coords:
    """An algebra tag plus an immutable coordinate vector of dtype _dtype:
    the shape and finiteness checks, the read-only array and the vector
    space operations shared by ElementJ and ElementC.  Arithmetic keeps the
    left operand's type; _coerce readies the right one."""

    __slots__ = ("alg", "coords")
    _dtype = float

    def __init__(self, alg, coords):
        arr = np.array(coords, dtype=self._dtype)
        if arr.shape != (alg.dim,):
            raise DomainError(
                f"expected {alg.dim} coordinates for {alg.kind} "
                f"param={alg.param}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "coords", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _coerce(other):
        return other

    def __add__(self, other):
        other = self._coerce(other)
        _same_algebra(self, other)
        return type(self)(self.alg, self.coords + other.coords)

    def __sub__(self, other):
        other = self._coerce(other)
        _same_algebra(self, other)
        return type(self)(self.alg, self.coords - other.coords)

    def __neg__(self):
        return type(self)(self.alg, -self.coords)

    def __mul__(self, scalar):
        return type(self)(self.alg, self.coords * self._dtype(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return (f"{type(self).__name__}({self.alg.kind}:{self.alg.param}, "
                f"{np.array2string(self.coords, precision=6)})")


class ElementJ(_Coords):
    """Element of a Euclidean Jordan algebra: an algebra tag plus real coords.

    Immutable; the coordinate array is marked read-only.
    """

    __slots__ = ()

    def __init__(self, alg, coords):
        if np.iscomplexobj(coords):
            raise DomainError("ElementJ coordinates must be real")
        super().__init__(alg, coords)


def _same_algebra(x, y):
    if x.alg != y.alg:
        raise DomainError(f"algebra mismatch: {x.alg} vs {y.alg}")


def element(alg, coords):
    return ElementJ(alg, coords)


def zero(alg):
    return ElementJ(alg, np.zeros(alg.dim))


def unit(alg):
    """The Jordan unit e."""
    c = np.zeros(alg.dim)
    if alg.kind == SPIN:
        c[0] = 1.0
    else:
        c[:alg.param] = 1.0
    return ElementJ(alg, c)


def jmul(x, y):
    """Jordan product x o y."""
    _same_algebra(x, y)
    return ElementJ(x.alg, _mul(x.alg, x.coords, y.coords))


def inner(x, y):
    """Trace form <x|y> = trace(x o y)."""
    _same_algebra(x, y)
    return x.alg.gram_weight * float(np.dot(x.coords, y.coords))


def norm(x):
    return np.sqrt(inner(x, x))


def lmul_operator(x):
    """L(x) as a real symmetric matrix acting on coordinates."""
    out = _lmul(x.alg, x.coords)
    if np.iscomplexobj(out):
        out = out.real.copy()
    return out


def quad_rep_apply(x, y):
    """Quadratic representation P(x)y = 2 x o (x o y) - (x o x) o y."""
    _same_algebra(x, y)
    a, b = x.coords, y.coords
    alg = x.alg
    out = 2.0 * _mul(alg, a, _mul(alg, a, b)) - _mul(alg, _mul(alg, a, a), b)
    return ElementJ(alg, out)


@dataclass(frozen=True)
class Spectrum:
    """Spectral decomposition x = sum_j values[j] * frame[j].

    values are descending; frame is a complete orthogonal system of
    primitive idempotents (a Jordan frame).
    """

    values: np.ndarray
    frame: tuple


def _spin_spectral(alg, coords):
    x0 = coords[0]
    vec = coords[1:]
    nv = float(np.linalg.norm(vec))
    if nv > 0.0:
        u = vec / nv
    else:
        u = np.zeros(alg.dim - 1)
        u[0] = 1.0
    cplus = np.concatenate([[0.5], 0.5 * u])
    cminus = np.concatenate([[0.5], -0.5 * u])
    vals = np.array([x0 + nv, x0 - nv])
    return vals, (ElementJ(alg, cplus), ElementJ(alg, cminus))


def _frame_coords(alg, cols):
    """Coordinates of the Jordan frame {v v*} over the orthonormal columns v
    of cols, one row per column."""
    vecs = cols.T
    return np.real(_from_matrix(alg, vecs[:, :, None] * np.conj(vecs[:, None, :])))


def spectral_decompose_real(x):
    """Eigenvalues (descending) and a Jordan frame diagonalizing x."""
    alg = x.alg
    if alg.kind == SPIN:
        vals, frame = _spin_spectral(alg, x.coords)
        return Spectrum(vals, frame)
    vals, vecs = np.linalg.eigh(_to_matrix(alg, x.coords))
    vals = vals[::-1]
    frame_coords = _frame_coords(alg, vecs[:, ::-1])
    frame = tuple(ElementJ(alg, c) for c in frame_coords)
    recon = frame_coords.T @ vals
    if np.linalg.norm(recon - x.coords) > SPECTRAL * (1.0 + np.linalg.norm(x.coords)):
        raise DomainError("spectral decomposition failed to reconstruct input")
    return Spectrum(vals, frame)


def standard_frame(alg):
    """The coordinate Jordan frame (diagonal units / spin pair)."""
    if alg.kind == SPIN:
        return list(_spin_spectral(alg, unit(alg).coords)[1])
    return [ElementJ(alg, c) for c in _frame_coords(alg, np.eye(alg.param))]


def epq(alg, p, q):
    """Signature element e_{p,q}: +1 on the first p idempotents of the
    standard frame, -1 on the next q, and 0 on the rest."""
    r = alg.rank
    if p < 0 or q < 0 or p + q > r:
        raise DomainError(f"need p, q >= 0 and p + q <= rank ({r})")
    frame = standard_frame(alg)
    out = zero(alg)
    for j in range(p):
        out = out + frame[j]
    for j in range(p, p + q):
        out = out - frame[j]
    return out


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_element(alg, rng, scale=1.0):
    """Gaussian element: iid normal coordinates times scale."""
    rng = _rng(rng)
    return ElementJ(alg, scale * rng.standard_normal(alg.dim))


def random_frame(alg, rng):
    """Uniformly random Jordan frame.

    Matrix kinds: conjugate the diagonal frame by a Haar-ish orthogonal or
    unitary matrix (QR of a Gaussian).  Spin: random unit vector.
    """
    rng = _rng(rng)
    if alg.kind == SPIN:
        vec = np.concatenate([[0.0], rng.standard_normal(alg.dim - 1)])
        return list(_spin_spectral(alg, vec)[1])
    m = alg.param
    g = rng.standard_normal((m, m))
    if alg.kind == HERM_C:
        g = g + 1j * rng.standard_normal((m, m))
    qmat, _ = np.linalg.qr(g)
    return [ElementJ(alg, c) for c in _frame_coords(alg, qmat)]
