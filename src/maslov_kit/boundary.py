"""Complexified algebra, the Shilov boundary S, its universal cover, Cayley
transforms, and conformal group words with their cocycle machinery.

The complexification reuses the coordinate formulas of the real algebra with
complex vectors; conjugation is coordinate-wise because the basis is real.
A point of S is sigma = sum_j e^{i theta_j} c_j over a real Jordan frame,
characterized by conj(sigma) = sigma^{-1}.

Group elements are words in two families of generators:

* tube family (conjugated by the Cayley transform): translations z -> z + u,
  structure-group factors z -> Az with A a product of exp(L(v)) and
  derivation exponentials, and the inversion z -> -z^{-1};
* unitary family (acting linearly on the complexified algebra): products of
  exp(i L(v)) and derivation exponentials.

Words may mix both families.  A word acts on the closed disk as one
linear-fractional matrix G, built once per word, which gives g(z), j(g, z)
and the determination phi(g, z) at every point where the word is defined.
G acts on coordinates through its coordinate form (_LfForm), also built
once per word: an image is one product, one m x m solve and one product
back to coordinates, and the factors of Delta_g over a batch of rows are
elementwise sums, with no round trip through the matrix realization.

The covering group acts on the universal cover here only, through one
orbit walk: _power_lift takes K steps and act_lift is that walk at K = 1;
turn_lift is the circle action.  The unchecked image and the constructor
bypasses that the walk and the batched point test (shilov_rows) use stay
here.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import _lapack
from .algebra import (AlgebraDescriptor, ElementJ, _basis_tensor, _Coords, _det,
                      _from_matrix, _lmul, _mul, _spin_spectral, _to_matrix, element,
                      lmul_operator, random_element, random_frame,
                      spectral_decompose_real, unit)
from .config import BOUNDARY, LIFT_PHASE, RANK_CUTOFF, SPECTRAL
from .errors import AmbiguityError, DomainError

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Reduce an angle (array ok) to (-pi, pi], snapping the -pi edge to +pi."""
    out = np.mod(np.asarray(a, dtype=float) + np.pi, TWO_PI) - np.pi
    out = np.where(out <= -np.pi + 1e-12, out + TWO_PI, out)
    if np.ndim(a) == 0:
        return float(out)
    return out


def principal_arg(z):
    """np.angle with the same -pi edge snap as wrap_angle."""
    return wrap_angle(np.angle(z))


class ElementC(_Coords):
    """Element of the complexified algebra: algebra tag plus complex coords.
    The right operand of + and - is coerced by complexify."""

    __slots__ = ()
    _dtype = complex

    @staticmethod
    def _coerce(other):
        return complexify(other)

    __radd__ = _Coords.__add__


def complexify(x):
    """Coerce ElementJ (or return ElementC as-is)."""
    if isinstance(x, ElementC):
        return x
    if isinstance(x, ElementJ):
        return ElementC(x.alg, x.coords.astype(np.complex128))
    raise DomainError(f"expected ElementJ or ElementC, got {type(x).__name__}")


def celement(alg, coords_re, coords_im=None):
    re = np.asarray(coords_re, dtype=float)
    im = np.zeros_like(re) if coords_im is None else np.asarray(coords_im, dtype=float)
    return ElementC(alg, re + 1j * im)


def cdet(z):
    z = complexify(z)
    return complex(_det(z.alg, z.coords))


def cnorm(z):
    """The norm of the positive Hermitian form <z|w> = trace(z o conj(w))."""
    z = complexify(z)
    sq = z.alg.gram_weight * complex(np.dot(z.coords, np.conj(z.coords)))
    return math.sqrt(max(sq.real, 0.0))


def _cinverse_rows(alg, coords):
    """(det, inverse, invertible) over coordinate rows coords (N, dim): the
    determinants, the singularity gate |det z| > RANK_CUTOFF (1 + max_i |z_i|)^r,
    and the Jordan inverse of the rows that pass it (the other rows hold
    filler)."""
    if alg.kind == "spin":
        det = _det(alg, coords)
    else:
        mats = _to_matrix(alg, coords)
        det = _lapack.det(mats)        # _det, on the matrices built once
    ok = np.abs(det) > RANK_CUTOFF * (1.0 + np.abs(coords).max(axis=-1)) ** alg.rank
    if alg.kind == "spin":
        inv = np.concatenate([coords[:, :1], -coords[:, 1:]], axis=1)
        return det, inv / np.where(ok, det, 1.0)[:, None], ok
    if not ok.all():
        mats[~ok] = np.eye(alg.param)
    return det, _from_matrix(alg, _lapack.inv(mats)), ok


def _singular(det):
    return f"singular element (|det| = {abs(det):.2e})"


def cinverse(z):
    """Jordan inverse in the complexified algebra."""
    z = complexify(z)
    det, inv, ok = _cinverse_rows(z.alg, z.coords[None])
    if not ok[0]:
        raise DomainError(_singular(det[0]))
    return ElementC(z.alg, inv[0])


def cquad_rep_operator(z):
    z = complexify(z)
    lz = _lmul(z.alg, z.coords)
    lzz = _lmul(z.alg, _mul(z.alg, z.coords, z.coords))
    return 2.0 * (lz @ lz) - lzz


# ---------------------------------------------------------------------------
# Shilov boundary


class ShilovPoint:
    """A point of the Shilov boundary S = {conj(sigma) = sigma^{-1}}.

    Construction validates membership; use as_shilov to coerce raw elements.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        value = complexify(value)
        refused = boundary_refusals(value.alg, value.coords[None])
        if refused:
            raise DomainError(refused[0])
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("ShilovPoint is immutable")

    @property
    def alg(self):
        return self.value.alg

    def __repr__(self):
        return f"ShilovPoint({self.value!r})"


def boundary_refusals(alg, coords, thetas=None):
    """The refusals of ShilovPoint and LiftedPoint over coordinate rows, as a
    dict {row: DomainError message} of the refused rows of coords (N, dim).

    Row k is tested as ShilovPoint(z_k) tests it: the singularity gate of
    cinverse, then ||conj z - z^{-1}|| <= BOUNDARY (1 + ||z||).  With
    thetas (N,), it is also tested as LiftedPoint tests (z_k, thetas[k]), on
    the phase alone (_phase_refusals).  A row that fails both reports the
    ShilovPoint message, and a non-finite row fails the gate.  Each row's
    arithmetic is independent of the other rows, so the constructors, which
    call this with one row, give every row's verdict.
    """
    det, inv, ok = _cinverse_rows(alg, coords)
    refused = {} if thetas is None else _phase_refusals(alg, det, thetas)
    resid = _row_norms(np.conj(coords) - inv)
    norms = _row_norms(coords)
    for k, (good, res, norm) in enumerate(zip(ok.tolist(), resid.tolist(),
                                              norms.tolist())):
        if not good:
            refused[k] = f"not on the Shilov boundary: {_singular(det[k])}"
        elif not res <= BOUNDARY * (1.0 + norm):
            refused[k] = f"not on the Shilov boundary (residual {res:.2e})"
    return refused


def _phase_refusals(alg, det, thetas):
    """The LiftedPoint test of rows with determinants det (N,) and thetas
    (N,), as {row: message}: |arg(det z e^{-ir theta})| <= LIFT_PHASE.  It
    reads the phase alone; |det z| is the ShilovPoint test's."""
    phase = np.exp(-1j * alg.rank * np.asarray(thetas))
    return {k: f"invalid lift: |arg(det(sigma) e^(-ir theta))| = {res:.2e}"
            for k, res in enumerate(np.abs(np.angle(det * phase)).tolist())
            if not res <= LIFT_PHASE}


def as_shilov(x):
    if isinstance(x, ShilovPoint):
        return x
    return ShilovPoint(x)


@dataclass(frozen=True)
class UnitSpectrum:
    """sigma = sum_j e^{i angles[j]} frame[j]; angles descending in (-pi, pi]."""

    angles: np.ndarray
    frame: tuple


@dataclass(frozen=True)
class LiftedPoint:
    """Point (sigma, theta) of the universal cover: det sigma = e^{ir theta}."""

    point: ShilovPoint
    theta: float

    def __post_init__(self):
        coords = self.point.value.coords[None]
        refused = _phase_refusals(self.alg, _det(self.alg, coords), [self.theta])
        if refused:
            raise DomainError(refused[0])

    @property
    def alg(self):
        return self.point.alg


def _passed_point(alg, coords):
    """ShilovPoint(ElementC(alg, coords)) for a finite row that
    boundary_refusals(alg, rows) has passed: the constructor's test, already
    run.  coords, which nothing else holds, becomes the point's read-only
    array."""
    coords.setflags(write=False)
    value = object.__new__(ElementC)
    object.__setattr__(value, "alg", alg)
    object.__setattr__(value, "coords", coords)
    point = object.__new__(ShilovPoint)
    object.__setattr__(point, "value", value)
    return point


def _passed_lift(alg, coords, theta):
    """LiftedPoint(ShilovPoint(ElementC(alg, coords)), theta) for a row that
    boundary_refusals(alg, rows, thetas) has passed with theta, so a finite
    one (_passed_point, with the lift test also run)."""
    lifted = object.__new__(LiftedPoint)
    object.__setattr__(lifted, "point", _passed_point(alg, coords))
    object.__setattr__(lifted, "theta", theta)
    return lifted


def shilov_rows(alg, coords):
    """(points, refusals) of finite complex coordinate rows coords (N, dim),
    tested in one boundary_refusals call: refusals is its {row: message},
    and points[k] is ShilovPoint(ElementC(alg, coords[k])) built from a
    read-only copy of row k with no second test, or None where row k is
    refused.  Each row gets the verdict and the message that ShilovPoint
    gives it alone."""
    refusals = boundary_refusals(alg, coords)
    return [None if k in refusals else _passed_point(alg, row.copy())
            for k, row in enumerate(coords)], refusals


def _integer(name, value, least=-math.inf):
    """int(value) for an integer >= least (numpy integers pass, bool does not),
    else a DomainError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def lift(sigma, k=0):
    """Canonical lift with theta = (Arg det(sigma) + 2 pi k) / r, k an integer."""
    k = _integer("k", k)
    sigma = as_shilov(sigma)
    r = sigma.alg.rank
    theta = (principal_arg(cdet(sigma.value)) + TWO_PI * k) / r
    return LiftedPoint(sigma, theta)


def t_shift(lifted, n=1):
    """Deck transformation T^n: (sigma, theta) -> (sigma, theta + 2 pi n / r)."""
    n = _integer("n", n)
    return LiftedPoint(lifted.point, lifted.theta + TWO_PI * n / lifted.alg.rank)


def turn_lift(lifted, alpha):
    """Circle action (sigma, theta) -> (e^{i alpha} sigma, theta + alpha),
    alpha finite.  A unit scalar keeps conj(z) = z^{-1} and det z e^{-i r theta},
    so the image passes the constructor tests as `lifted` did, and skips them."""
    return _passed_lift(lifted.alg, np.exp(1j * alpha) * lifted.point.value.coords,
                        lifted.theta + alpha)


def unit_shilov(alg):
    return ShilovPoint(complexify(unit(alg)))


def _row_norms(x):
    """Euclidean norms of the real or complex rows x (N, n): the arithmetic
    of np.linalg.norm(x, axis=-1), bit for bit, without its wrapper."""
    return np.sqrt((x.conj() * x).real.sum(axis=-1))


def _lie_sphere(z):
    """(gamma, x, off) of spin rows z: the nearest real unit vector x to
    y = e^{-i gamma} (z0, -i zv), and its distance off from y.  Each row's
    arithmetic is independent of the other rows."""
    gamma = 0.5 * np.angle(z[:, 0] ** 2 - (z[:, 1:] * z[:, 1:]).sum(axis=1))
    y = np.exp(-1j * gamma)[:, None] * z
    y[:, 1:] *= -1j
    size = _row_norms(y.real)
    off = np.hypot(_row_norms(y.imag), size - 1.0)
    return gamma, y.real / size[:, None], off


def _descending(angles, frame):
    order = np.argsort(-angles, kind="stable")
    return UnitSpectrum(angles[order], tuple(frame[j] for j in order))


# Fixed combination directions for joint diagonalization of (Re, Im); the
# golden-angle spacing makes accidental aliasing of two distinct boundary
# angles across all entries practically impossible, while keeping runs
# deterministic.
_GOLDEN = 2.399963229728653
_COMBODIRS = [(math.cos(0.7 + k * _GOLDEN), math.sin(0.7 + k * _GOLDEN))
              for k in range(8)]


def shilov_spectral(sigma):
    """Angles and a real Jordan frame with sigma = sum e^{i theta_j} c_j.

    On the spin factor both are read off the Lie-sphere form
    sigma = e^{i gamma} (x0, i xv) of _lie_sphere: the angles are
    gamma +- atan2(|xv|, x0) on the frame (e +- (0, u)) / 2 of the real
    point x, u = xv / |xv| (e_1 when xv = 0).  Only a point farther than
    10 BOUNDARY from the Lie sphere is refused, as pair_angles refuses it.

    On the matrix kinds Re(sigma) and Im(sigma) operator-commute for sigma
    in S, so a generic real combination of the two is decomposed and the
    frame is accepted iff it actually reconstructs sigma with unit-modulus
    coefficients.  The frame is real and primitive and the basis
    orthonormal, so with the frame coordinates stacked in F the
    coefficients are F sigma and the reconstruction is zeta F.
    """
    sigma = as_shilov(sigma)
    alg = sigma.alg
    scoords = sigma.value.coords
    if alg.kind == "spin":
        gamma, x, off = _lie_sphere(scoords[None])
        if off[0] > 10.0 * BOUNDARY:
            raise DomainError("not on the Shilov boundary (the point is off "
                              f"the Lie sphere by {off[0]:.2e})")
        half = math.atan2(float(np.linalg.norm(x[0, 1:])), float(x[0, 0]))
        return _descending(wrap_angle(gamma[0] + np.array([half, -half])),
                           _spin_spectral(alg, x[0])[1])
    best = math.inf
    for mu1, mu2 in _COMBODIRS:
        comb = element(alg, mu1 * scoords.real + mu2 * scoords.imag)
        spec = spectral_decompose_real(comb)
        frame = np.array([c.coords for c in spec.frame])
        zeta = frame @ scoords
        resid = float(np.linalg.norm(zeta @ frame - scoords))
        unit_err = float(np.max(np.abs(np.abs(zeta) - 1.0)))
        if resid <= SPECTRAL * alg.rank * 10.0 and unit_err <= 10.0 * BOUNDARY:
            return _descending(principal_arg(zeta), spec.frame)
        best = min(best, resid + unit_err)
    raise DomainError(
        "not on the Shilov boundary (joint diagonalization failed; best "
        f"residual {best:.2e})")


def from_unit_spectrum(alg, angles, frame):
    """Assemble sum_j e^{i angles[j]} frame[j] as a ShilovPoint."""
    coords = np.zeros(alg.dim, dtype=np.complex128)
    for a, c in zip(angles, frame):
        coords += np.exp(1j * float(a)) * c.coords
    return ShilovPoint(ElementC(alg, coords))


def random_shilov(alg, rng):
    """Random boundary point: random frame, angles uniform on (-pi, pi]."""
    frame = random_frame(alg, rng)
    angles = rng.uniform(-math.pi, math.pi, alg.rank)
    return from_unit_spectrum(alg, angles, frame)


# ---------------------------------------------------------------------------
# Linear-fractional matrices and the Cayley transforms
#
# A word acts on the closed disk through one matrix G (Faraut-Koranyi,
# Analysis on Symmetric Cones, 1994, ch. X): on sym-r and herm-c by
# w -> (Aw + B)(Cw + D)^{-1}, with Delta_g(w) = det(Cw + D); on spin linearly
# on (1, z, det z), with Delta_g(z) the first entry of the image.  G is fixed
# up to a scalar, which cancels in j(g, z) = j(g, 0) (Delta_g(z)/Delta_g(0))^-2.


def _lf_size(alg):
    return alg.dim + 2 if alg.kind == "spin" else 2 * alg.param


def _translate_block(alg, u):
    """z -> z + u for complex coordinates u; on spin
    (a, z, b) -> (a, z + a u, b + 2 B(z, u) + a det u)."""
    g = np.eye(_lf_size(alg), dtype=np.complex128)
    if alg.kind == "spin":
        g[1:-1, 0] = u
        g[-1, 0] = _det(alg, u)
        g[-1, 1:-1] = 2.0 * np.r_[u[0], -u[1:]]
    else:
        g[:alg.param, alg.param:] = _to_matrix(alg, u)
    return g


def _inversion_block(alg):
    """z -> -z^{-1}; on spin (a, z, b) -> (b, -(z0, -zvec), a)."""
    g = np.zeros((_lf_size(alg),) * 2, dtype=np.complex128)
    if alg.kind == "spin":
        g[0, -1] = g[-1, 0] = 1.0
        g[1:-1, 1:-1] = np.diag(np.r_[-1.0, np.ones(alg.dim - 1)])
    else:
        m = alg.param
        g[:m, m:] = -np.eye(m)
        g[m:, :m] = np.eye(m)
    return g


def _structure_block(alg, h):
    """z -> hz: diag(a, b^{-1}) for X -> aXb given h = (a, b^{-1}) on the
    matrix kinds; diag(1, h, chi(h)) for a coordinate matrix h on spin."""
    g = np.eye(_lf_size(alg), dtype=np.complex128)
    if alg.kind == "spin":
        g[1:-1, 1:-1] = h
        g[-1, -1] = _det(alg, h @ unit(alg).coords)
    else:
        m = alg.param
        g[:m, :m], g[m:, m:] = h
    return g


@lru_cache(maxsize=None)
def _cayley_matrices(alg):
    """(P, P^{-1}) with P: z -> e - 2i (z + ie)^{-1}, tube to disk."""
    e = unit(alg).coords.astype(np.complex128)
    ones = np.eye(alg.dim if alg.kind == "spin" else alg.param)
    scale = 2j * ones if alg.kind == "spin" else (2j * ones, ones)   # z -> 2iz
    p = (_translate_block(alg, e) @ _structure_block(alg, scale)
         @ _inversion_block(alg) @ _translate_block(alg, 1j * e))
    return p, _lapack.inv(p)


class _LfForm:
    """The coordinate form of a linear-fractional matrix g: the read-only
    arrays through which g acts on coordinate rows, built once per word.

    On the matrix kinds, with g = [[A, B], [C, D]] and w = sum_i z_i M_i over
    the basis tensor M, the transposes of Aw + B and Cw + D are the two
    halves of z @ lin + off, with lin = [A M_i | C M_i] and off = [B | D],
    each block transposed and flattened row-major.  So an image is that
    product, one m x m solve and one product with out, the coordinates of
    the unit matrices (out[k] = _from_matrix(E_k^T)); and the factor matrix
    D^{-1} C w is sum_i z_i fac_i, with fac_i = D^{-1} C M_i flattened.  On
    spin the form is g itself, acting on (1, z, det z).
    """

    __slots__ = ("alg", "g", "lin", "off", "fac", "out")

    def __init__(self, alg, g):
        g.setflags(write=False)
        self.alg, self.g = alg, g
        self.lin = self.off = self.fac = self.out = None
        if alg.kind == "spin":
            return
        m, basis = alg.param, _basis_tensor(alg)
        flat = alg.dim, m * m
        self.lin = np.concatenate(
            [(g[:m, :m] @ basis).transpose(0, 2, 1).reshape(flat),
             (g[m:, :m] @ basis).transpose(0, 2, 1).reshape(flat)], axis=1)
        self.off = np.concatenate([g[:m, m:].T.ravel(), g[m:, m:].T.ravel()])
        self.fac = (_lapack.solve(g[m:, m:], g[m:, :m]) @ basis).reshape(flat)
        self.out = _unit_coords(alg)
        for arr in (self.lin, self.off, self.fac):
            arr.setflags(write=False)


@lru_cache(maxsize=None)
def _unit_coords(alg):
    """(m^2, dim): row k holds the coordinates of E_k^T, where E_k is the
    k-th unit matrix in row-major order, so that the coordinates of X are
    vec(X^T) @ this (complex, as _from_matrix is complex linear on herm-c)."""
    m = alg.param
    units = np.eye(m * m, dtype=np.complex128).reshape(m * m, m, m)
    out = _from_matrix(alg, units.transpose(0, 2, 1))
    out.setflags(write=False)
    return out


def _factor_rows(form, rows):
    """(mu, refused) for the coordinate form of g over coordinate rows
    (N, dim), where Delta_g(tz) / Delta_g(0) = prod(1 + t lambda_k),
    mu = 1 + lambda (N, n) and |lambda_k| < 1 on the closed disk, from one
    stacked eigvals.  refused maps each row where Delta_g vanishes to its
    DomainError; a row whose factor matrix is not finite is among them, with
    mu = nan, masked to a zero filler once eigvals refuses the stack.  Each
    row's arithmetic is independent of the other rows: the factor matrices
    are elementwise sums, whose bits do not depend on N as a BLAS matrix
    product's may, and eigvals solves each matrix alone."""
    alg = form.alg
    if alg.kind == "spin":
        # 1 + t p + t^2 s = (1 + t l1)(1 + t l2): l1, l2 solve x^2 - p x + s
        g = form.g
        mats = np.zeros((len(rows), 2, 2), dtype=np.complex128)
        mats[:, 0, 0] = (rows * g[0, 1:-1]).sum(axis=1) / g[0, 0]
        mats[:, 0, 1] = -(g[0, -1] * _det(alg, rows) / g[0, 0])
        mats[:, 1, 0] = 1.0
    else:
        m = alg.param
        mats = (rows[:, :, None] * form.fac).sum(axis=1).reshape(len(rows), m, m)
    try:
        lam = _lapack.eigvals(mats)
    except np.linalg.LinAlgError:
        finite = np.isfinite(mats).all(axis=(1, 2))
        lam = _lapack.eigvals(np.where(finite[:, None, None], mats, 0.0))
        lam[~finite] = np.nan
    mu = 1.0 + lam
    modulus, spread = np.abs(mu), np.abs(lam)
    if modulus.min() > RANK_CUTOFF * (1.0 + spread.max()):     # then every row passes
        return mu, {}
    size = modulus.min(axis=1)
    ok = size > RANK_CUTOFF * (1.0 + spread.max(axis=1))
    return mu, {k: DomainError("undefined where Delta_g vanishes "
                               f"(min |1 + lambda| = {size[k]:.2e})")
                for k in np.flatnonzero(~ok).tolist()}


def _lf_image(form, z):
    """g(z) for the coordinate form of g at one coordinate row z, unchecked:
    where Delta_g(z) vanishes the result is not finite, or LinAlgError.
    On the matrix kinds X^T = (Cw + D)^{-T} (Aw + B)^T is one m x m solve,
    a bare LAPACK call: the caller holds the error state _lapack.singular(),
    under which a singular Cw + D raises LinAlgError, as np.linalg.solve
    does."""
    alg = form.alg
    if alg.kind == "spin":
        v = np.empty(alg.dim + 2, dtype=np.complex128)
        v[0], v[1:-1], v[-1] = 1.0, z, _det(alg, z)
        head = form.g @ v
        return head[1:-1] / head[0]
    m = alg.param
    t = (z @ form.lin + form.off).reshape(2, m, m)
    return _lapack.solve_in_state(t[1], t[0]).ravel() @ form.out


def _checked(result):
    """The value of a (value, refused) pair from _factor_rows or _phi_rows,
    raising the error of the first refused row."""
    value, refused = result
    if refused:
        raise refused[min(refused)]
    return value


def _gated_image(form, z):
    """g(z) at one coordinate row z for the coordinate form of g; DomainError
    where Delta_g vanishes."""
    _checked(_factor_rows(form, z[None]))
    with _lapack.singular():
        return _lf_image(form, z)


@lru_cache(maxsize=None)
def _cayley_forms(alg):
    """The coordinate forms of (P, P^{-1})."""
    return tuple(_LfForm(alg, g) for g in _cayley_matrices(alg))


def cayley_p(z):
    """p(z) = e - 2i (z + ie)^{-1}, mapping the tube domain onto the disk."""
    z = complexify(z)
    return ElementC(z.alg, _gated_image(_cayley_forms(z.alg)[0], z.coords))


def cayley_c(w):
    """c(w) = -ie + 2i (e - w)^{-1}, inverse of cayley_p."""
    w = complexify(w)
    return ElementC(w.alg, _gated_image(_cayley_forms(w.alg)[1], w.coords))


# ---------------------------------------------------------------------------
# Group words


def _expm_hermitian(h, s):
    """exp(s H) for a Hermitian (or real symmetric) H and a scalar s."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(s * vals)) @ vecs.conj().T


def _expm_antisymmetric(k):
    """exp(K) = exp(-i (iK)) for real antisymmetric K, as a real
    orthogonal matrix."""
    out = _expm_hermitian(1j * k, -1j)
    drift = np.max(np.abs(out.imag)) if out.size else 0.0
    if drift > 1e-10 * (1.0 + np.max(np.abs(out.real))):
        raise AmbiguityError("exp of antisymmetric matrix drifted off the reals")
    return out.real.copy()


class TranslateGen:
    """Tube generator z -> z + u, u real."""

    __slots__ = ("u", "alg")
    family = "tube"

    def __init__(self, u):
        if not isinstance(u, ElementJ):
            raise DomainError("translation offset must be an ElementJ")
        self.u, self.alg = u, u.alg

    def inverse(self):
        return TranslateGen(-self.u)


class InversionGen:
    """Tube generator z -> -z^{-1}."""

    __slots__ = ()
    family = "tube"
    alg = None

    def inverse(self):
        return InversionGen()


class _StructureGen:
    """Structure-group generator: a product of factors (scalar, v), giving
    exp(phase L(v)), and ("derivation", a, b), giving exp([L(a), L(b)]).

    `block` is the generator's linear-fractional matrix.  On the spin factor
    it is built from the product of the factors' dim x dim coordinate
    exponentials.  On the matrix kinds a factor is X -> aXb, with
    a = b = exp(phase v / 2) or a = b^{-1} = exp([a, b] / 4), and only these
    m x m halves are built.
    """

    __slots__ = ("factors", "alg", "block")

    def __init__(self, factors):
        self.factors = tuple(factors)
        algs = {x.alg if isinstance(x, ElementJ) else None
                for _, *ops in self.factors for x in ops}
        if len(algs) != 1 or None in algs:
            raise DomainError(
                f"{type(self).__name__} needs ElementJ factors on one algebra")
        self.alg = alg = algs.pop()
        spin = alg.kind == "spin"
        hs = []
        for kind, *ops in self.factors:
            if kind == self.scalar:
                if spin:
                    hs.append(_expm_hermitian(lmul_operator(ops[0]), self.phase))
                else:
                    v = _to_matrix(alg, ops[0].coords)
                    hs.append((_expm_hermitian(v, 0.5 * self.phase),
                               _expm_hermitian(v, -0.5 * self.phase)))
            elif kind == "derivation":
                if spin:
                    la, lb = lmul_operator(ops[0]), lmul_operator(ops[1])
                    hs.append(_expm_antisymmetric(la @ lb - lb @ la))
                else:
                    a, b = (_to_matrix(alg, x.coords) for x in ops)
                    hs.append((_expm_hermitian(1j * (a @ b - b @ a), -0.25j),) * 2)
            else:
                raise DomainError(f"unknown {type(self).__name__} factor {kind!r}")
        self.block = (_structure_block(alg, reduce(np.matmul, hs)) if spin else
                      reduce(np.matmul, [_structure_block(alg, h) for h in hs]))

    def inverse(self):
        return type(self)([(kind, -ops[0]) if kind == self.scalar
                           else (kind, ops[1], ops[0])
                           for kind, *ops in reversed(self.factors)])


class LinearGen(_StructureGen):
    """Tube generator z -> Az, A a real structure-group product
    of exp(L(v)) and derivation exponentials exp([L(a), L(b)])."""

    __slots__ = ()
    family, scalar, phase = "tube", "lmul", 1.0


class UnitaryGen(_StructureGen):
    """Linear generator on the complexified algebra: product of exp(iL(v))
    and derivation exponentials; unitary for the Hermitian form."""

    __slots__ = ()
    family, scalar, phase = "unitary", "exp-iL", 1j


class GroupWord:
    """A word of generators applied first-to-last.

    base_arg, when set, is the chosen determination value phi(g, 0); it must
    agree with Arg j(g, 0) modulo 2 pi (checked when used).
    """

    __slots__ = ("alg", "generators", "base_arg", "_lf", "_g", "_form")

    def __init__(self, alg, generators, base_arg=None):
        if not isinstance(alg, AlgebraDescriptor):
            raise DomainError("GroupWord needs an AlgebraDescriptor")
        self.alg = alg
        self.generators = tuple(generators)
        for k, gen in enumerate(self.generators):
            if not isinstance(gen, (TranslateGen, InversionGen, _StructureGen)):
                raise DomainError(f"generator {k} is not a group generator")
            if gen.alg not in (None, alg):
                raise DomainError(
                    f"generator {k} lives on {gen.alg}, the word on {alg}")
        self.base_arg = None if base_arg is None else float(base_arg)
        if self.base_arg is not None and not math.isfinite(self.base_arg):
            raise DomainError(f"base_arg must be finite, got {self.base_arg!r}")
        self._lf = self._g = self._form = None

    def is_unitary(self):
        return all(g.family == "unitary" for g in self.generators)

    def linear_fractional(self):
        """(G, j(g, 0), phi(g, 0)), built once per word: G is the word's
        matrix on the closed disk, phi(g, 0) the principal Arg j(g, 0) or
        the validated base_arg.  G is read-only.

        Where j(g, 0) lies on the negative real axis, rounding in G picks
        -pi or +pi for the principal Arg.  The two choices are deck
        translates of one another: c(g) moves by 2, and rho mod 1 does not
        move.

        Every use of G on coordinates reads its coordinate form instead
        (coordinate_form)."""
        if self._lf is None:
            g, j0 = self._matrix()
            phi0 = principal_arg(j0)
            if self.base_arg is not None:
                if abs(np.exp(1j * self.base_arg) - j0 / abs(j0)) > 1e-6:
                    raise DomainError(
                        "base_arg is not a determination of Arg j(g, 0) "
                        f"(base_arg={self.base_arg:.6f}, principal={phi0:.6f})")
                phi0 = self.base_arg
            self._lf = (g, j0, phi0)
        return self._lf

    def _matrix(self):
        """(G, j(g, 0)), built once per word from its generators; G is
        read-only."""
        if self._g is None:
            alg, m = self.alg, self.alg.param
            p, pinv = _cayley_matrices(alg)
            g = np.eye(_lf_size(alg), dtype=np.complex128)
            for gen in self.generators:
                if isinstance(gen, TranslateGen):
                    g = p @ _translate_block(alg, gen.u.coords) @ pinv @ g
                elif isinstance(gen, InversionGen):
                    g = p @ _inversion_block(alg) @ pinv @ g
                else:
                    g = (p @ gen.block @ pinv if gen.family == "tube"
                         else gen.block) @ g
            if alg.kind == "spin":
                # j(g, 0) = det(Dg(0) e), with e = (1, 0, ..., 0)
                j0 = _det(alg, (g[1:-1, 1] * g[0, 0] - g[1:-1, 0] * g[0, 1])
                          / g[0, 0] ** 2)
            else:
                j0 = _lapack.det(g) / _lapack.det(g[m:, m:]) ** 2
            g.setflags(write=False)
            self._g = (g, complex(j0))
        return self._g

    def coordinate_form(self):
        """The coordinate form of G (_LfForm), built once, on first use by
        an image or a factor pass; each use validates base_arg first
        (linear_fractional)."""
        g = self.linear_fractional()[0]
        if self._form is None:
            self._form = _LfForm(self.alg, g)
        return self._form

    def inverse(self):
        """Inverse in the covering group: the determination is seeded at
        -phi(g, g^{-1}(0)), g^{-1}(0) being the image compose_words takes, so
        that g composed with g.inverse() is the identity element with base_arg
        exactly 0, not a deck translate of it.  The unseeded inverse word that
        gives g^{-1}(0) hands its G and coordinate form to the returned word,
        whose base_arg is still validated on first use."""
        gens = [g.inverse() for g in reversed(self.generators)]
        unseeded = GroupWord(self.alg, gens)
        word = GroupWord(self.alg, gens, base_arg=-_phi_at_image_of_zero(self, unseeded))
        word._g, word._form = unseeded._g, unseeded._form
        return word

    def __repr__(self):
        kinds = ",".join(type(g).__name__.replace("Gen", "") for g in self.generators)
        return f"GroupWord({self.alg.kind}:{self.alg.param}, [{kinds}])"


def identity_word(alg):
    return GroupWord(alg, [])


def compose_words(outer, inner):
    """The word acting as outer(inner(z)), as a covering-group element.

    The composed determination is seeded at phi(outer, inner(0)) +
    phi(inner, 0), so composition here agrees with multiplication in the
    covering group rather than silently re-basing on the principal branch
    (which could differ by a deck transformation).
    """
    if outer.alg != inner.alg:
        raise DomainError("algebra mismatch between words")
    return GroupWord(outer.alg, inner.generators + outer.generators,
                     base_arg=_phi_at_image_of_zero(outer, inner)
                     + inner.linear_fractional()[2])


def _phi_at_image_of_zero(outer, inner):
    """phi(outer, inner(0)), inner(0) through inner's coordinate form."""
    inner0 = _gated_image(inner.coordinate_form(), np.zeros(outer.alg.dim, complex))
    return _checked(_phi_rows(outer, inner0[None]))[0]


def _coords_on(word, z):
    """Complex coordinates of z (ElementC, ElementJ or ShilovPoint), which
    must lie in the word's algebra."""
    z = complexify(z.value if isinstance(z, ShilovPoint) else z)
    if z.alg != word.alg:
        raise DomainError(f"algebra mismatch: word on {word.alg}, point in {z.alg}")
    return z.coords


def apply_word(word, z):
    """Evaluate the word at z (ElementC, ElementJ, or ShilovPoint)."""
    image = _gated_image(word.coordinate_form(), _coords_on(word, z))
    if isinstance(z, ShilovPoint):
        return ShilovPoint(ElementC(word.alg, image))
    return ElementC(word.alg, image)


def cocycle_j(word, z):
    """j(g, z) = det(Dg(z) e) = j(g, 0) prod(mu)^{-2}."""
    mu = _checked(_factor_rows(word.coordinate_form(), _coords_on(word, z)[None]))[0]
    return complex(word.linear_fractional()[1] / np.prod(mu) ** 2)


def word_chi(word):
    """chi(u) for a purely unitary word (j(u, z) is constant equal to it)."""
    if not word.is_unitary():
        raise DomainError("chi shortcut only defined for unitary words")
    return word.linear_fractional()[1]


def _phi_rows(word, rows):
    """(phi, refused) over coordinate rows (N, dim): phi(g, z_k) =
    phi(g, 0) - 2 sum Arg mu, continuous along t -> t z_k while every mu
    lies in the open right half-plane, as it does on the closed disk.
    refused maps each failing row to its error: the DomainError of
    _factor_rows, or else an AmbiguityError where a factor left the
    half-plane."""
    mu, refused = _factor_rows(word.coordinate_form(), rows)
    if mu.real.min() <= 0.0:
        for k in np.flatnonzero(mu.real.min(axis=1) <= 0.0).tolist():
            refused.setdefault(k, AmbiguityError("a factor of Delta_g left the "
                                                 "right half-plane: phi(g, z) uncertified"))
    return word.linear_fractional()[2] - 2.0 * np.angle(mu).sum(axis=1), refused


def determination_phi(word, sigma):
    """phi(g, sigma), seeded at phi(g, 0): the checks of _phi_rows, then the
    image g(sigma) past that gate, which must be defined and stay on S."""
    z = _coords_on(word, as_shilov(sigma))
    phi = _checked(_phi_rows(word, z[None]))[0]
    with _lapack.singular():
        image = _lf_image(word.coordinate_form(), z)
    ShilovPoint(ElementC(word.alg, image))
    return float(phi)


def act_lift(word, lifted):
    """Action on the universal cover: (sigma, theta) ->
    (g(sigma), theta + phi(g, sigma)/r), the orbit walk at K = 1."""
    return _power_lift(word, lifted, 1)


ORBIT_BLOCK = 1024


def _power_lift(word, lifted, power):
    """g^power . lifted for power >= 1: `power` steps of (sigma, theta) ->
    (g(sigma), theta + phi(g, sigma)/r), each iterate checked by the tests of
    ShilovPoint and LiftedPoint.

    The orbit is walked in blocks of ORBIT_BLOCK steps, each handing its last
    iterate and theta to the next, so memory is bounded by one block
    whatever the power.  Pass 1 of a block walks it with the image step
    alone, _lf_image on the word's coordinate form, and keeps the block's
    iterates.  It holds the error state _lapack.singular() once for the whole
    block, so each solve is a bare LAPACK call; a step whose image raises
    LinAlgError there (a singular Cw + D, as in np.linalg.solve) ends the
    pass.  Pass 2, with every floating-point error ignored, checks the inputs
    of the block's steps in one _phi_rows call, which gives each step's phi
    (so each iterate's theta) and the verdicts of its gate and half-plane
    checks, and its iterates in one boundary_refusals call, the ShilovPoint
    and LiftedPoint tests.  The earliest failing event raises, in the order
    a loop checking each step as it lands meets them: the checks of step k,
    then the LinAlgError of its image, then the refusal of iterate k + 1,
    then step k + 1.  Iterates past a failed step may be garbage, even
    non-finite; only the earliest event raises.  The returned point is the last iterate, which
    the last block's check has passed.
    """
    alg, r = word.alg, word.alg.rank
    form = word.coordinate_form()
    z, theta = _coords_on(word, lifted.point), lifted.theta
    for start in range(0, power, ORBIT_BLOCK):
        block = min(ORBIT_BLOCK, power - start)
        rows, stop = [z], None
        with _lapack.singular():
            for _ in range(block):
                try:
                    z = _lf_image(form, z)
                except np.linalg.LinAlgError as exc:
                    stop = exc
                    break
                rows.append(z)
        rows = np.array(rows)
        with np.errstate(all="ignore"):
            phis, steps = _phi_rows(word, rows[:block])
            thetas = phis[:len(rows) - 1] / r
            thetas[:1] += theta
            thetas = thetas.cumsum()
            refused = boundary_refusals(alg, rows[1:], thetas)
        if steps or refused or stop is not None:
            events = {(k, 0): exc for k, exc in steps.items()}
            if stop is not None:
                events[(len(rows) - 1, 1)] = stop
            events.update({(k, 2): DomainError(msg) for k, msg in refused.items()})
            raise events[min(events)]
        theta = float(thetas[-1])
    return _passed_lift(alg, z, theta)


def random_word(alg, rng, mode="tube", n_gens=3, scale=0.4):
    """Random word for testing: mode in {"tube", "unitary", "mixed"}."""
    gens = []
    for _ in range(n_gens):
        if mode == "mixed":
            fam = "tube" if rng.random() < 0.5 else "unitary"
        else:
            fam = mode
        if fam == "tube":
            pick = rng.random()
            if pick < 0.4:
                gens.append(TranslateGen(random_element(alg, rng, scale)))
            elif pick < 0.75:
                gens.append(LinearGen([("lmul", random_element(alg, rng, scale))]))
            else:
                gens.append(InversionGen())
        else:
            if rng.random() < 0.6:
                gens.append(UnitaryGen([("exp-iL", random_element(alg, rng, scale))]))
            else:
                gens.append(UnitaryGen([("derivation",
                                         random_element(alg, rng, scale),
                                         random_element(alg, rng, scale))]))
    return GroupWord(alg, gens)
