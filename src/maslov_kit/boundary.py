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

Words may mix both families; consecutive tube generators are evaluated as a
single trip through the Cayley transform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraDescriptor, ElementJ, _det, _from_matrix, _lmul,
                      _mul, _to_matrix, _trace, element, lmul_operator,
                      random_element, random_frame, spectral_decompose_real,
                      unit, zero)
from .config import DEFAULT, Tolerances
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


class ElementC:
    """Element of the complexified algebra: algebra tag plus complex coords."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg, coords):
        arr = np.array(coords, dtype=np.complex128)
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
        raise AttributeError("ElementC is immutable")

    def __add__(self, other):
        other = complexify(other)
        if self.alg != other.alg:
            raise DomainError(f"algebra mismatch: {self.alg} vs {other.alg}")
        return ElementC(self.alg, self.coords + other.coords)

    __radd__ = __add__

    def __sub__(self, other):
        other = complexify(other)
        if self.alg != other.alg:
            raise DomainError(f"algebra mismatch: {self.alg} vs {other.alg}")
        return ElementC(self.alg, self.coords - other.coords)

    def __neg__(self):
        return ElementC(self.alg, -self.coords)

    def __mul__(self, scalar):
        return ElementC(self.alg, self.coords * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ElementC({self.alg.kind}:{self.alg.param}, {np.array2string(self.coords, precision=6)})"


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


def real_part(z):
    return element(z.alg, z.coords.real)


def imag_part(z):
    return element(z.alg, z.coords.imag)


def eta(z):
    """Conjugation of the complexification: eta(x + iy) = x - iy."""
    z = complexify(z)
    return ElementC(z.alg, np.conj(z.coords))


def cjmul(z, w):
    z = complexify(z)
    w = complexify(w)
    if z.alg != w.alg:
        raise DomainError(f"algebra mismatch: {z.alg} vs {w.alg}")
    return ElementC(z.alg, _mul(z.alg, z.coords, w.coords))


def ctrace(z):
    return complex(_trace(complexify(z).alg, complexify(z).coords))


def cdet(z):
    z = complexify(z)
    return complex(_det(z.alg, z.coords))


def hermitian_inner(z, w):
    """<z|w> = trace(z o eta(w)); positive definite."""
    z = complexify(z)
    w = complexify(w)
    if z.alg != w.alg:
        raise DomainError(f"algebra mismatch: {z.alg} vs {w.alg}")
    return z.alg.gram_weight * complex(np.dot(z.coords, np.conj(w.coords)))


def cnorm(z):
    return math.sqrt(max(hermitian_inner(z, z).real, 0.0))


def cinverse(z, tol: Tolerances = DEFAULT):
    """Jordan inverse in the complexified algebra."""
    z = complexify(z)
    alg = z.alg
    det = cdet(z)
    scale = (1.0 + float(np.max(np.abs(z.coords)))) ** alg.rank
    if abs(det) <= tol.rank * scale:
        raise DomainError(f"singular element (|det| = {abs(det):.2e})")
    if alg.kind == "spin":
        out = np.empty_like(z.coords)
        out[0] = z.coords[0] / det
        out[1:] = -z.coords[1:] / det
        return ElementC(alg, out)
    inv = np.linalg.inv(_to_matrix(alg, z.coords))
    return ElementC(alg, _from_matrix(alg, inv))


def clmul_operator(z):
    """Complex matrix of left multiplication by z on coordinates."""
    z = complexify(z)
    return _lmul(z.alg, z.coords)


def cquad_rep_apply(z, w):
    """P(z)w in the complexified algebra."""
    z = complexify(z)
    w = complexify(w)
    if z.alg != w.alg:
        raise DomainError(f"algebra mismatch: {z.alg} vs {w.alg}")
    a, b = z.coords, w.coords
    out = 2.0 * _mul(z.alg, a, _mul(z.alg, a, b)) - _mul(z.alg, _mul(z.alg, a, a), b)
    return ElementC(z.alg, out)


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

    def __init__(self, value, tol: Tolerances = DEFAULT):
        value = complexify(value)
        try:
            inv = cinverse(value, tol)
        except DomainError as exc:
            raise DomainError(f"not on the Shilov boundary: {exc}") from exc
        resid = float(np.linalg.norm(np.conj(value.coords) - inv.coords))
        if resid > tol.boundary * (1.0 + float(np.linalg.norm(value.coords))):
            raise DomainError(
                f"not on the Shilov boundary (residual {resid:.2e})")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("ShilovPoint is immutable")

    @property
    def alg(self):
        return self.value.alg

    def __repr__(self):
        return f"ShilovPoint({self.value!r})"


def as_shilov(x, tol: Tolerances = DEFAULT):
    if isinstance(x, ShilovPoint):
        return x
    return ShilovPoint(x, tol)


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
        r = self.point.alg.rank
        resid = abs(cdet(self.point.value) - np.exp(1j * r * self.theta))
        if resid > DEFAULT.boundary * 10.0:
            raise DomainError(
                f"invalid lift: |det(sigma) - e^(ir theta)| = {resid:.2e}")

    @property
    def alg(self):
        return self.point.alg


def lift(sigma, k=0, tol: Tolerances = DEFAULT):
    """Canonical lift with theta = (Arg det(sigma) + 2 pi k) / r."""
    sigma = as_shilov(sigma, tol)
    r = sigma.alg.rank
    theta = (principal_arg(cdet(sigma.value)) + TWO_PI * k) / r
    return LiftedPoint(sigma, theta)


def t_shift(lifted, n=1):
    """Deck transformation T^n: (sigma, theta) -> (sigma, theta + 2 pi n / r)."""
    return LiftedPoint(lifted.point, lifted.theta + TWO_PI * n / lifted.alg.rank)


def unit_shilov(alg):
    return ShilovPoint(complexify(unit(alg)))


def exp_iJ(x, tol: Tolerances = DEFAULT):
    """The boundary point sum_j e^{i lambda_j} c_j for x = sum_j lambda_j c_j."""
    spec = spectral_decompose_real(x, tol)
    coords = np.zeros(x.alg.dim, dtype=np.complex128)
    for lam, c in zip(spec.values, spec.frame):
        coords += np.exp(1j * lam) * c.coords
    return ShilovPoint(ElementC(x.alg, coords), tol)


# Fixed combination directions for joint diagonalization of (Re, Im); the
# golden-angle spacing makes accidental aliasing of two distinct boundary
# angles across all entries practically impossible, while keeping runs
# deterministic.
_GOLDEN = 2.399963229728653
_COMBODIRS = [(math.cos(0.7 + k * _GOLDEN), math.sin(0.7 + k * _GOLDEN))
              for k in range(8)]


def _spin_unit_spectrum(sigma, tol):
    alg = sigma.alg
    z = sigma.value.coords
    z0, zv = z[0], z[1:]
    nv = float(np.linalg.norm(zv))
    if nv <= tol.boundary:
        theta = principal_arg(z0)
        frame = spectral_decompose_real(unit(alg), tol).frame
        return UnitSpectrum(np.array([theta, theta]), tuple(frame))
    lam2 = complex(zv @ zv)
    lam = np.sqrt(lam2)
    if abs(lam) <= 1e-8 * nv:
        raise DomainError("not on the Shilov boundary (isotropic spin part)")
    u = zv / lam
    if float(np.max(np.abs(u.imag))) > 1e-6:
        raise DomainError("not on the Shilov boundary (no real frame)")
    u = u.real
    zeta = np.array([z0 + lam, z0 - lam])
    if np.max(np.abs(np.abs(zeta) - 1.0)) > 10.0 * tol.boundary:
        raise DomainError("not on the Shilov boundary (non-unit spectrum)")
    up = element(alg, np.concatenate([[0.5], 0.5 * u]))
    dn = element(alg, np.concatenate([[0.5], -0.5 * u]))
    angles = principal_arg(zeta)
    order = np.argsort(-angles, kind="stable")
    frame = (up, dn) if order[0] == 0 else (dn, up)
    return UnitSpectrum(angles[order], frame)


def shilov_spectral(sigma, tol: Tolerances = DEFAULT):
    """Angles and a real Jordan frame with sigma = sum e^{i theta_j} c_j.

    Re(sigma) and Im(sigma) operator-commute for sigma in S, so a generic
    real combination of the two is decomposed and the frame is accepted iff
    it actually reconstructs sigma with unit-modulus coefficients.
    """
    sigma = as_shilov(sigma, tol)
    alg = sigma.alg
    if alg.kind == "spin":
        return _spin_unit_spectrum(sigma, tol)
    x = real_part(sigma.value)
    y = imag_part(sigma.value)
    scoords = sigma.value.coords
    best = None
    for mu1, mu2 in _COMBODIRS:
        comb = element(alg, mu1 * x.coords + mu2 * y.coords)
        spec = spectral_decompose_real(comb, tol)
        zeta = np.array([ctrace(cjmul(sigma.value, c)) for c in spec.frame])
        recon = np.zeros(alg.dim, dtype=np.complex128)
        for zj, c in zip(zeta, spec.frame):
            recon += zj * c.coords
        resid = float(np.linalg.norm(recon - scoords))
        unit_err = float(np.max(np.abs(np.abs(zeta) - 1.0)))
        if best is None or resid + unit_err < best[0]:
            best = (resid + unit_err, zeta, spec.frame)
        if resid <= tol.spectral * alg.rank * 10.0 and unit_err <= 10.0 * tol.boundary:
            angles = principal_arg(zeta)
            order = np.argsort(-angles, kind="stable")
            frame = tuple(spec.frame[j] for j in order)
            return UnitSpectrum(angles[order], frame)
    raise DomainError(
        "not on the Shilov boundary (joint diagonalization failed; best "
        f"residual {best[0]:.2e})")


def from_unit_spectrum(alg, angles, frame, tol: Tolerances = DEFAULT):
    """Assemble sum_j e^{i angles[j]} frame[j] as a ShilovPoint."""
    coords = np.zeros(alg.dim, dtype=np.complex128)
    for a, c in zip(angles, frame):
        coords += np.exp(1j * float(a)) * c.coords
    return ShilovPoint(ElementC(alg, coords), tol)


def sqrt_S(sigma, branch=0, tol: Tolerances = DEFAULT):
    """A square root of sigma on S: half-angles, with `branch` a bitmask
    selecting the alternate branch (extra pi) per frame member."""
    us = shilov_spectral(sigma, tol)
    alg = as_shilov(sigma, tol).alg
    coords = np.zeros(alg.dim, dtype=np.complex128)
    for j, (a, c) in enumerate(zip(us.angles, us.frame)):
        half = 0.5 * a + (math.pi if (branch >> j) & 1 else 0.0)
        coords += np.exp(1j * half) * c.coords
    return ElementC(alg, coords)


def log_S(sigma, tol: Tolerances = DEFAULT):
    """Principal logarithm i sum theta_j c_j; needs no angle at pi."""
    us = shilov_spectral(sigma, tol)
    alg = as_shilov(sigma, tol).alg
    if np.min(np.abs(np.abs(us.angles) - math.pi)) < tol.transverse:
        raise DomainError("log undefined: an eigenangle sits on the cut at pi")
    out = np.zeros(alg.dim)
    for a, c in zip(us.angles, us.frame):
        out += a * c.coords
    return ElementC(alg, 1j * out)


def random_shilov(alg, rng, tol: Tolerances = DEFAULT):
    """Random boundary point: random frame, angles uniform on (-pi, pi]."""
    frame = random_frame(alg, rng)
    angles = rng.uniform(-math.pi, math.pi, alg.rank)
    return from_unit_spectrum(alg, angles, frame, tol)


# ---------------------------------------------------------------------------
# Cayley transforms between the tube domain and the disk realization


def cayley_p(z, tol: Tolerances = DEFAULT):
    """p(z) = e - 2i (z + ie)^{-1}, mapping the tube domain onto the disk."""
    z = complexify(z)
    e = unit(z.alg)
    shifted = ElementC(z.alg, z.coords + 1j * e.coords)
    try:
        inv = cinverse(shifted, tol)
    except DomainError as exc:
        raise DomainError(f"Cayley p undefined: {exc}") from exc
    return ElementC(z.alg, e.coords - 2j * inv.coords)


def cayley_c(w, tol: Tolerances = DEFAULT):
    """c(w) = -ie + 2i (e - w)^{-1}, inverse of cayley_p."""
    w = complexify(w)
    e = unit(w.alg)
    diff = ElementC(w.alg, e.coords - w.coords)
    try:
        inv = cinverse(diff, tol)
    except DomainError as exc:
        raise DomainError(f"Cayley c undefined: {exc}") from exc
    return ElementC(w.alg, -1j * e.coords + 2j * inv.coords)


# ---------------------------------------------------------------------------
# Group words


def _expm_symmetric(s):
    """exp(S) for real symmetric S (positive definite result)."""
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(vals)) @ vecs.T


def _expm_i_symmetric(s):
    """exp(iS) for real symmetric S, as a unitary complex matrix."""
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(1j * vals)) @ vecs.T


def _expm_antisymmetric(k):
    """exp(K) for real antisymmetric K, as a real orthogonal matrix.

    iK is Hermitian, so exp(K) = exp(-i(iK)) comes from one Hermitian
    eigendecomposition.
    """
    vals, vecs = np.linalg.eigh(1j * k)
    out = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
    drift = np.max(np.abs(out.imag)) if out.size else 0.0
    if drift > 1e-10 * (1.0 + np.max(np.abs(out.real))):
        raise AmbiguityError("exp of antisymmetric matrix drifted off the reals")
    return out.real.copy()


class TranslateGen:
    """Tube generator z -> z + u, u real."""

    __slots__ = ("u",)
    family = "tube"

    def __init__(self, u):
        if not isinstance(u, ElementJ):
            raise DomainError("translation offset must be an ElementJ")
        self.u = u

    def inverse(self):
        return TranslateGen(-self.u)


class InversionGen:
    """Tube generator z -> -z^{-1}."""

    __slots__ = ()
    family = "tube"

    def inverse(self):
        return InversionGen()


class LinearGen:
    """Tube generator z -> Az, A a real structure-group product
    of exp(L(v)) and derivation exponentials exp([L(a), L(b)])."""

    __slots__ = ("factors", "matrix")
    family = "tube"

    def __init__(self, factors):
        self.factors = tuple(factors)
        mat = None
        for kind, *ops in self.factors:
            if kind == "lmul":
                f = _expm_symmetric(lmul_operator(ops[0]))
            elif kind == "derivation":
                la = lmul_operator(ops[0])
                lb = lmul_operator(ops[1])
                f = _expm_antisymmetric(la @ lb - lb @ la)
            else:
                raise DomainError(f"unknown linear factor {kind!r}")
            mat = f if mat is None else mat @ f
        if mat is None:
            raise DomainError("linear generator needs at least one factor")
        self.matrix = mat

    def inverse(self):
        inv = []
        for kind, *ops in reversed(self.factors):
            if kind == "lmul":
                inv.append(("lmul", -ops[0]))
            else:
                inv.append(("derivation", ops[1], ops[0]))
        return LinearGen(inv)


class UnitaryGen:
    """Linear generator on the complexified algebra: product of exp(iL(v))
    and derivation exponentials; unitary for the Hermitian form."""

    __slots__ = ("factors", "matrix")
    family = "unitary"

    def __init__(self, factors):
        self.factors = tuple(factors)
        mat = None
        for kind, *ops in self.factors:
            if kind == "exp-iL":
                f = _expm_i_symmetric(lmul_operator(ops[0]))
            elif kind == "derivation":
                la = lmul_operator(ops[0])
                lb = lmul_operator(ops[1])
                f = _expm_antisymmetric(la @ lb - lb @ la).astype(np.complex128)
            else:
                raise DomainError(f"unknown unitary factor {kind!r}")
            mat = f if mat is None else mat @ f
        if mat is None:
            raise DomainError("unitary generator needs at least one factor")
        self.matrix = mat

    def inverse(self):
        inv = []
        for kind, *ops in reversed(self.factors):
            if kind == "exp-iL":
                inv.append(("exp-iL", -ops[0]))
            else:
                inv.append(("derivation", ops[1], ops[0]))
        return UnitaryGen(inv)


class GroupWord:
    """A word of generators applied first-to-last.

    base_arg, when set, is the chosen determination value phi(g, 0); it must
    agree with Arg j(g, 0) modulo 2 pi (checked when used).
    """

    __slots__ = ("alg", "generators", "base_arg")

    def __init__(self, alg, generators, base_arg=None):
        if not isinstance(alg, AlgebraDescriptor):
            raise DomainError("GroupWord needs an AlgebraDescriptor")
        self.alg = alg
        self.generators = tuple(generators)
        self.base_arg = None if base_arg is None else float(base_arg)

    def is_unitary(self):
        return all(g.family == "unitary" for g in self.generators)

    def inverse(self):
        """Inverse in the covering group: the determination is seeded at
        -phi(g, g^{-1}(0)) so that g composed with g.inverse() is the
        identity element, not a deck translate of it."""
        gens = [g.inverse() for g in reversed(self.generators)]
        bare = GroupWord(self.alg, gens)
        zero = ElementC(self.alg, np.zeros(self.alg.dim, dtype=np.complex128))
        pre = apply_word(bare, zero)
        return GroupWord(self.alg, gens,
                         base_arg=-_determination(self, pre.coords, DEFAULT)[0])

    def __repr__(self):
        kinds = ",".join(type(g).__name__.replace("Gen", "") for g in self.generators)
        return f"GroupWord({self.alg.kind}:{self.alg.param}, [{kinds}])"


def identity_word(alg):
    return GroupWord(alg, [])


def compose_words(outer, inner, tol: Tolerances = DEFAULT):
    """The word acting as outer(inner(z)), as a covering-group element.

    The composed determination is seeded at phi(outer, inner(0)) +
    phi(inner, 0), so composition here agrees with multiplication in the
    covering group rather than silently re-basing on the principal branch
    (which could differ by a deck transformation).
    """
    if outer.alg != inner.alg:
        raise DomainError("algebra mismatch between words")
    alg = outer.alg
    zero = ElementC(alg, np.zeros(alg.dim, dtype=np.complex128))
    inner0 = apply_word(inner, zero, tol)
    base = (_determination(outer, inner0.coords, tol)[0]
            + _base_determination(inner, tol)[0])
    return GroupWord(alg, inner.generators + outer.generators, base_arg=base)


def _arg_det(alg, a):
    """Sum of the principal args of the Jordan eigenvalues of a: a continuous
    branch of arg det on {Re a in the closed cone} (Faraut-Koranyi, ch. X)."""
    if alg.kind == "spin":
        root = np.sqrt(a[1:] @ a[1:])
        big = max(a[0] + root, a[0] - root, key=abs)
        return float(np.angle(big) + np.angle(_det(alg, a) / big))
    return float(np.sum(np.angle(np.linalg.eigvals(_to_matrix(alg, a)))))


def _evaluate(word, z, need_jacobian, tol):
    """(g(z), Dg(z), branch); with the Jacobian, branch sums -2 _arg_det(a)
    for a = e - z (into the tube), -iz (inversion), e - iz (back to the disk):
    arg j(g, .) on the closed disk up to a constant phase."""
    alg = word.alg
    z = complexify(z)
    if z.alg != alg:
        raise DomainError(f"algebra mismatch: word on {alg}, point in {z.alg}")
    n = alg.dim
    cur = z.coords.copy()
    jac = np.eye(n, dtype=np.complex128) if need_jacobian else None
    branch = 0.0
    e = unit(alg).coords

    idx = 0
    gens = word.generators
    while idx < len(gens):
        gen = gens[idx]
        if gen.family == "unitary":
            cur = gen.matrix @ cur
            if need_jacobian:
                jac = gen.matrix @ jac
            idx += 1
            continue
        # a maximal run of tube generators: one trip through the Cayley maps
        run_end = idx
        while run_end < len(gens) and gens[run_end].family == "tube":
            run_end += 1
        try:
            diff = e - cur
            inv = cinverse(ElementC(alg, diff), tol)
            if need_jacobian:
                jac = (2j * cquad_rep_operator(inv)) @ jac
                branch -= 2.0 * _arg_det(alg, diff)
            cur = -1j * e + 2j * inv.coords
            for k in range(idx, run_end):
                g = gens[k]
                if isinstance(g, TranslateGen):
                    cur = cur + g.u.coords
                elif isinstance(g, LinearGen):
                    cur = g.matrix @ cur
                    if need_jacobian:
                        jac = g.matrix @ jac
                elif isinstance(g, InversionGen):
                    inv = cinverse(ElementC(alg, cur), tol)
                    if need_jacobian:
                        jac = cquad_rep_operator(inv) @ jac
                        branch -= 2.0 * _arg_det(alg, -1j * cur)
                    cur = -inv.coords
                else:
                    raise DomainError(f"unknown tube generator {type(g).__name__}")
            shifted = cinverse(ElementC(alg, cur + 1j * e), tol)
            if need_jacobian:
                jac = (2j * cquad_rep_operator(shifted)) @ jac
                branch -= 2.0 * _arg_det(alg, e - 1j * cur)
            cur = e - 2j * shifted.coords
        except DomainError as exc:
            raise DomainError(
                f"word undefined at generator {idx}..{run_end - 1}: {exc}") from exc
        idx = run_end
    return ElementC(alg, cur), jac, branch


def apply_word(word, z, tol: Tolerances = DEFAULT):
    """Evaluate the word at z (ElementC, ElementJ, or ShilovPoint)."""
    if isinstance(z, ShilovPoint):
        out, _, _ = _evaluate(word, z.value, False, tol)
        return ShilovPoint(out, tol)
    out, _, _ = _evaluate(word, z, False, tol)
    return out


def differential_word(word, z, tol: Tolerances = DEFAULT):
    """The complex-linear differential Dg(z) as an n x n matrix."""
    z = z.value if isinstance(z, ShilovPoint) else z
    _, jac, _ = _evaluate(word, z, True, tol)
    return jac


def _chi(alg, mat):
    """chi(A) = det(A e) for a linear map A of the complexified algebra."""
    return complex(_det(alg, mat @ unit(alg).coords.astype(np.complex128)))


def cocycle_j(word, z, tol: Tolerances = DEFAULT):
    """j(g, z) = chi(Dg(z)) = det(Dg(z) e)."""
    z = z.value if isinstance(z, ShilovPoint) else z
    _, jac, _ = _evaluate(word, z, True, tol)
    return _chi(word.alg, jac)


def word_chi(word):
    """chi(u) for a purely unitary word (j(u, z) is constant equal to it)."""
    if not word.is_unitary():
        raise DomainError("chi shortcut only defined for unitary words")
    mat = np.eye(word.alg.dim, dtype=np.complex128)
    for g in word.generators:
        mat = g.matrix @ mat
    return _chi(word.alg, mat)


def _base_determination(word, tol):
    """(phi(g, 0), branch at 0): phi is principal by default, else the
    validated stored base_arg."""
    zero = ElementC(word.alg, np.zeros(word.alg.dim, complex))
    _, jac, branch = _evaluate(word, zero, True, tol)
    j0 = _chi(word.alg, jac)
    principal = principal_arg(j0)
    if word.base_arg is None:
        return principal, branch
    if abs(np.exp(1j * word.base_arg) - j0 / abs(j0)) > 1e-6:
        raise DomainError(
            "base_arg is not a determination of Arg j(g, 0) "
            f"(base_arg={word.base_arg:.6f}, principal={principal:.6f})")
    return word.base_arg, branch


def determination_phi(word, sigma, tol: Tolerances = DEFAULT):
    """The continuous determination phi(g, sigma), seeded at phi(g, 0)."""
    sigma = as_shilov(sigma, tol)
    phi, image = _determination(word, sigma.value.coords, tol)
    ShilovPoint(ElementC(word.alg, image), tol)   # g(sigma) must stay on S
    return phi


def _determination(word, target, tol):
    """(phi(g, z), g(z) coordinates) for target coordinates in the closed
    disk: phi(g, 0) carried by the branch sum, snapped onto Arg j(g, z)."""
    alg = word.alg
    base, start = _base_determination(word, tol)
    if word.is_unitary():
        # j(u, .) is constant, so the determination is too
        out, _, _ = _evaluate(word, ElementC(alg, target), False, tol)
        return base, out.coords
    out, jac, end = _evaluate(word, ElementC(alg, target), True, tol)
    jval = _chi(alg, jac)
    if abs(jval) < 1e-14:
        raise AmbiguityError("cocycle vanished at the target point")
    raw = base + end - start
    snap = float(np.angle(jval * np.exp(-1j * raw)))
    if abs(snap) >= 0.5 * math.pi:
        raise AmbiguityError(f"determination snap {snap:.3f} rad reaches pi/2")
    return raw + snap, out.coords


def act_lift(word, lifted, tol: Tolerances = DEFAULT):
    """Action on the universal cover: (sigma, theta) ->
    (g(sigma), theta + phi(g, sigma)/r)."""
    phi, image = _determination(word, lifted.point.value.coords, tol)
    return LiftedPoint(ShilovPoint(ElementC(word.alg, image), tol),
                       lifted.theta + phi / word.alg.rank)


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
