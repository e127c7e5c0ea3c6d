"""Pointwise indices on the Shilov boundary and its universal cover.

Central object: the relative element w(sigma, tau) = -P(tau^{-1/2}) sigma,
which carries a pair to the model pair (w, -e).  Its eigenangles drive
everything: coincidences (angles at pi) give the transversality index mu,
the sum over the other angles gives the angle functional, and combined with
lift data it yields the Souriau index m, the triple Maslov index, and the
derived inertia / Arnold indices.

The eigenangles come from pair_angles.  For the matrix kinds w is similar
to -tau^{-1} sigma, a unitary m x m matrix, so a batch of pairs costs one
stacked solve and one stacked eigvals call, with no square root and no
frame.  On the spin factor the two angles are read off the Lie-sphere form
e^{i gamma} (x0, i xv) of the two points, from one Lie-sphere pass over
all the points of a batch, again with no frame.  Each
index makes one pass per pair and shares it: inertia_j reads its three mu
terms off the passes of its triple index, arnold_nu and alm_n read mu off
the pass of their Souriau index.  A path flow makes one pass per grid.

All discrete outputs pass an integrality guard and a parity guard
(m = r - mu mod 2, a determinant identity), and the extended (non-transverse)
Souriau index is re-derived through a transverse witness tau as a runtime
cross-check, m = iota(sigma1, sigma2, tau) + m(sigma1~, tau~) + m(tau~, sigma2~).
iota is the signature of the Cayley images of the pair with tau at infinity,
read off tau and the two points with no square root of tau, and the two m
terms are transverse, so the check tests the coincidence-dropping formula
against that signature.  tau = e^{i alpha} sigma1 is read off the direct
pass, at least pi/(r + 1) from a coincidence with either point, and so are
its angles, alpha - pi with sigma1 and a_j + alpha with sigma2 for the direct
angles a_j.  The check costs one small solve and eigensolve.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .algebra import SPIN, _det, _from_matrix, _mul, _to_matrix
from .boundary import (TWO_PI, ElementC, LiftedPoint, ShilovPoint, _checked,
                       _cinverse_rows, _lie_sphere, _row_norms, as_shilov,
                       cquad_rep_operator, lift, principal_arg, shilov_spectral,
                       turn_lift, wrap_angle)
from .config import BOUNDARY, DEFAULT, GRAY_FACTOR, RANK_CUTOFF, STRICT, Tolerances
from .errors import AmbiguityError, DomainError, IntegralityError


@dataclass(frozen=True)
class IndexReport:
    """An integer index with its pre-rounding value and guard residual."""

    value: int
    raw: float
    residual: float
    witnesses: tuple = ()

    def __int__(self):
        return self.value


def _round_guarded(raw, tol, what):
    value = int(round(raw))
    residual = abs(raw - value)
    if residual > tol.integer:
        raise IntegralityError(
            f"{what} is not an integer: raw={raw!r}, residual={residual:.3e}")
    return value, residual


def relative_element(sigma, tau):
    """w = -P(tau^{-1/2}) sigma, mapping (sigma, tau) to the pair (w, -e).

    With a shared frame the angles of w are theta_j - phi_j + pi (mod 2 pi).
    The root is r = sum_j e^{-i a_j / 2} c_j over the spectrum of tau from
    shilov_spectral, and P(r) sigma is 2 r o (r o sigma) - (r o r) o sigma on
    the spin factor, R S R on the matrix kinds.  Another choice of square
    root would change nothing: it multiplies the root by a square root of e
    sharing tau's frame, and P of that factor fixes sigma's frame elements.

    This builds w itself, through the spectrum and frame of tau, for callers
    that need the point or its frame, and as the reference route of the
    tests.  Nothing else in the package builds P(tau^{-1/2}) sigma: the
    indices and path flows take the eigenangles of w from pair_angles, from
    -tau^{-1} sigma for the matrix kinds and from the Lie-sphere form of the
    two points for the spin factor, and the witness check reads its
    signature off tau and the two points (_witness_iota).
    """
    sigma, tau = as_shilov(sigma), as_shilov(tau)
    if sigma.alg != tau.alg:
        raise DomainError(f"algebra mismatch: {sigma.alg} vs {tau.alg}")
    us = shilov_spectral(tau)
    alg = tau.alg
    root = np.exp(-0.5j * us.angles) @ np.array([c.coords for c in us.frame])
    s = sigma.value.coords
    if alg.kind == SPIN:
        w = (2.0 * _mul(alg, root, _mul(alg, root, s))
             - _mul(alg, _mul(alg, root, root), s))
    else:
        root = _to_matrix(alg, root)
        w = _from_matrix(alg, root @ _to_matrix(alg, s) @ root)
    return ShilovPoint(ElementC(alg, -w))


def _coincidence_split(angles, tol):
    """Distances to pi decide coincidence vs transverse, with a gray zone
    that tol.mode refuses (STRICT) or counts as transverse (PERMISSIVE).

    Returns a boolean mask of coincidence directions.
    """
    dist = math.pi - np.abs(np.asarray(angles))
    coincident = dist < tol.transverse
    gray = (~coincident) & (dist < GRAY_FACTOR * tol.transverse)
    if tol.mode == STRICT and np.any(gray):
        raise AmbiguityError(
            f"pair: eigenangle at distance {float(np.min(dist[gray])):.3e} "
            f"from pi lies in the gray zone "
            f"[{tol.transverse:.1e}, {GRAY_FACTOR * tol.transverse:.1e}); "
            "refusing to decide transversality in strict mode")
    return coincident


def pair_angles(sigmas, taus):
    """Eigenangles of w(sigma_k, tau_k) for N pairs of one algebra: (N, r).

    Each row is sorted descending in (-pi, pi], the order of
    shilov_spectral(relative_element(sigma, tau)).angles.  For the matrix
    kinds w = -P(tau^{-1/2}) sigma is similar to -tau^{-1} sigma, whose
    eigenvalues all pairs get from one _to_matrix call over the 2N points,
    one stacked solve and one eigvals call, each a direct call of numpy's
    LAPACK gufunc (_lapack), bit for bit np.linalg's.
    The Jordan inverse (solve, not the conjugate) keeps points that are off
    S within BOUNDARY on the spectrum of w; an eigenvalue off the unit circle
    by more than 10 BOUNDARY is refused.  The spin factor takes the angles in
    closed form from the Lie-sphere form of the points, one pass over the
    2N stacked points (_spin_pair_angles), with no frame; a point off the
    Lie sphere by more than 10 BOUNDARY is refused.  Both are the kernel
    _angle_rows, which souriau_m_witness also calls.

    Each pair is checked as a one-pair call would check it.  The DomainError
    is that of the first refused pair, whether a raw element that is not a
    boundary point, a point off the boundary, or a pair of another algebra,
    and carries its index as `row` (_pair_rows).
    """
    return _checked(_pair_rows(sigmas, taus))


def _pair_rows(sigmas, taus):
    """(angles, refused) of pair_angles, in the form of _factor_rows: the
    sorted angles of the rows before the first refused row, and
    {row: DomainError} for that row, empty when no row is refused.

    The rows are scanned in order: sigma_k and then tau_k are made boundary
    points (as_shilov), and their algebras compared.  The first row whose
    coercion fails or whose algebras differ ends the scan; only the rows
    before it are passed to _angle_rows, in one call, and the first of them
    off the boundary is refused in its place."""
    sigmas, taus = list(sigmas), list(taus)
    if not sigmas or len(sigmas) != len(taus):
        raise DomainError(f"pair_angles needs N >= 1 sigmas and N taus, got "
                          f"{len(sigmas)} and {len(taus)}")
    points, refused = [], {}
    for k, (s, t) in enumerate(zip(sigmas, taus)):
        try:
            s, t = as_shilov(s), as_shilov(t)
        except DomainError as exc:
            exc.row = k
            refused = {k: exc}
            break
        alg = points[0][0].alg if points else s.alg
        if s.alg != t.alg or s.alg != alg:
            a, b = (s.alg, t.alg) if s.alg != t.alg else (alg, s.alg)
            refused = {k: _row_error(k, f"algebra mismatch: {a} vs {b}")}
            break
        points.append((s, t))
    n = len(points)
    if n == 0:
        return np.empty((0, 0)), refused
    rows = np.array([s.value.coords for s, _ in points]
                    + [t.value.coords for _, t in points])
    angles, off_boundary = _angle_rows(alg, rows, slice(0, n), slice(n, None))
    return angles, off_boundary or refused


def _angle_rows(alg, rows, s, t, mats=None):
    """(angles, refused) of the pairs (rows[s], rows[t]) of coordinate rows
    (M, dim) of boundary points of one algebra, in the form of _pair_rows;
    s and t index the rows, so a point shared by several pairs is one row.
    mats, when given, are the matrices _to_matrix(alg, rows), already built.

    The matrix kinds take -tau^{-1} sigma of every pair from one stacked
    solve and its eigenvalues from one eigvals call; an eigenvalue off the
    unit circle by more than 10 BOUNDARY is refused.  The spin factor reads
    the angles off one Lie-sphere pass over the rows (_spin_pair_angles); a
    point off the Lie sphere by more than 10 BOUNDARY is refused."""
    if alg.kind == SPIN:
        angles, off = _spin_pair_angles(rows, s, t)
        what = "a point is off the Lie sphere"
    else:
        if mats is None:
            mats = _to_matrix(alg, rows)
        zeta = _lapack.eigvals(-_lapack.solve(mats[t], mats[s]))
        angles, off = principal_arg(zeta), np.abs(np.abs(zeta) - 1.0).max(axis=1)
        what = "relative element has an eigenvalue off the unit circle"
    bad = off > 10.0 * BOUNDARY
    if not bad.any():
        return -np.sort(-angles, axis=-1), {}
    n = int(np.argmax(bad))
    return -np.sort(-angles[:n], axis=-1), {
        n: _row_error(n, f"not on the Shilov boundary ({what} by {off[n]:.2e})")}


def _row_error(row, message):
    """A DomainError naming in `row` the row it refuses: the first refused
    pair of pair_angles, or the first faulty sample of a BoundaryPath."""
    exc = DomainError(message)
    exc.row = row
    return exc


def _spin_pair_angles(rows, s, t):
    """Unsorted angles (N, 2) of w(sigma, tau) on the spin factor for the
    pairs (rows[s], rows[t]), and the distance of each pair from the Lie
    sphere, from one _lie_sphere pass over the rows.

    A spin boundary point is z = e^{i gamma} (x0, i xv) with x a real unit
    vector and e^{2 i gamma} = det z (Faraut-Koranyi, ch. X).  The relative
    angles are gamma_s - gamma_t + pi +- the angle between x_s and x_t, read
    as 2 atan2(|x_s - x_t|, |x_s + x_t|), exact where the two meet.  Either
    root gamma serves: (gamma + pi, -x) leaves the two angles unchanged
    mod 2 pi.
    """
    gamma, x, off = _lie_sphere(rows)
    between = 2.0 * np.arctan2(_row_norms(x[s] - x[t]), _row_norms(x[s] + x[t]))
    base = gamma[s] - gamma[t] + math.pi
    angles = wrap_angle(np.stack([base + between, base - between], axis=1))
    return angles, np.maximum(off[s], off[t])


def _pair_angles(sigma, tau, tol):
    """One pair through pair_angles: (angles, coincidence mask)."""
    angles = pair_angles([sigma], [tau])[0]
    return angles, _coincidence_split(angles, tol)


def transversal(sigma, tau, tol: Tolerances = DEFAULT):
    _, mask = _pair_angles(sigma, tau, tol)
    return not bool(np.any(mask))


def mu(sigma, tau, tol: Tolerances = DEFAULT):
    """Transversality index: rank of sigma - tau deficiency, counted as the
    number of relative eigenangles at pi."""
    _, mask = _pair_angles(sigma, tau, tol)
    return int(np.sum(mask))


def _admissible_coranks(alg):
    """Map corank P(sigma - tau) -> mu.

    On the joint Peirce blocks J_ij the operator P(sum lambda_j c_j) acts
    by lambda_i lambda_j, so with k vanishing eigenvalues the kernel is
    every block touching a vanishing index:
    corank = k + d (k(k-1)/2 + k(r-k)), strictly increasing in k.
    """
    d = alg.mult
    r = alg.rank
    return {k + d * (k * (k - 1) // 2 + k * (r - k)): k for k in range(r + 1)}


def mu_via_corank(sigma, tau):
    """mu recomputed from the corank of P(sigma - tau) on the
    complexification; errors if the corank fits no admissible k."""
    sigma, tau = as_shilov(sigma), as_shilov(tau)
    if sigma.alg != tau.alg:
        raise DomainError(f"algebra mismatch: {sigma.alg} vs {tau.alg}")
    alg = sigma.alg
    diff = ElementC(alg, sigma.value.coords - tau.value.coords)
    op = cquad_rep_operator(diff)
    svals = np.linalg.svd(op, compute_uv=False)
    if svals[0] < 1e-12:
        corank = alg.dim
    else:
        corank = int(np.sum(svals < RANK_CUTOFF * svals[0]))
    table = _admissible_coranks(alg)
    if corank not in table:
        raise AmbiguityError(
            f"corank {corank} of P(sigma - tau) matches no admissible "
            f"transversality profile for {alg.kind} param={alg.param}")
    return table[corank]


def psi(sigma, tau, tol: Tolerances = DEFAULT):
    """Angle functional on transverse pairs: sum of relative eigenangles."""
    angles, mask = _pair_angles(sigma, tau, tol)
    if np.any(mask):
        raise DomainError("angle functional needs a transverse pair "
                          f"(mu = {int(np.sum(mask))})")
    return float(np.sum(angles))


def psi_hat(sigma, tau, tol: Tolerances = DEFAULT):
    """Extension of the angle functional: coincidence directions dropped."""
    angles, mask = _pair_angles(sigma, tau, tol)
    return float(np.sum(angles[~mask]))


def _souriau_value(lift1, lift2, angles, mask, tol):
    """Souriau index from the pair pass (angles, mask) of the two points."""
    r = lift1.alg.rank
    m_count = int(np.sum(mask))
    raw = (float(np.sum(angles[~mask])) - r * (lift1.theta - lift2.theta)) / math.pi
    value, residual = _round_guarded(raw, tol, "Souriau index")
    if (value - (r - m_count)) % 2 != 0:
        raise IntegralityError(
            f"Souriau index parity violated: m={value}, r={r}, mu={m_count}")
    return value, raw, residual, m_count


def _witness_iota(tau, p1, p2, nulls, mats=None):
    """iota(sigma1, sigma2, tau) = -sgn(x1 - x2), x_k = c(P(tau^{-1/2}) sigma_k),
    from a point tau transverse to both points, with no root and no frame.

    Putting tau at infinity makes the Cayley images x_k real; the
    generalized Maslov index (Clerc-Orsted 2001, Clerc 2004) is minus the
    signature of their difference, and needs no transversality between
    sigma1 and sigma2.  x1 - x2 = 2i P(tau^{1/2}) m with
    m = (tau - sigma1)^{-1} - (tau - sigma2)^{-1}, so its spectrum is that of
    2i m tau, which is Hermitian: tau^{1/2} is unitary and carries x1 - x2
    to it by similarity.  The matrix kinds take one stacked solve of
    (T - S_k) X_k = T and one eigvalsh of 2i (X_1 - X_2).  The spin factor
    takes y = 2i m from two Jordan inverses; the eigenvalues are
    t/2 +- sqrt(t^2/4 - d) with t/2 = tau0 y0 + tauv.yv (the trace of
    P(tau^{1/2}) y, halved) and d = det tau det y.  Its `nulls` eigenvalues
    smallest in modulus are the coincidence directions of the pair; None
    when they are not clearly apart from the rest (_null_signature).
    mats, when given, are the matrices of (tau, sigma1, sigma2), already
    built (souriau_m_witness).
    """
    alg = tau.alg
    if alg.kind == SPIN:
        t = tau.value.coords
        inv = _cinverse_rows(alg, t - np.array([p1.value.coords, p2.value.coords]))[1]
        y = 2j * (inv[0] - inv[1])
        half = (t[0] * y[0] + t[1:] @ y[1:]).real
        gap = math.sqrt(max(half * half - (_det(alg, t) * _det(alg, y)).real, 0.0))
        eigs = np.array([half - gap, half + gap])
    else:
        if mats is None:
            mats = _to_matrix(alg, np.array([tau.value.coords, p1.value.coords,
                                             p2.value.coords]))
        x = _lapack.solve(mats[0] - mats[1:], mats[0])
        eigs = _lapack.eigvalsh(2j * (x[0] - x[1]))
    return _null_signature(eigs, nulls)


def _null_signature(eigs, nulls):
    """-sgn of eigs over all but its `nulls` smallest in modulus, or None
    unless those are clearly apart from the rest: the smallest kept modulus
    must exceed GRAY_FACTOR times the largest dropped one (times RANK_CUTOFF
    of the largest modulus when nothing is dropped)."""
    order = np.argsort(np.abs(eigs))
    size = np.abs(eigs[order])
    if nulls < size.size:
        floor = size[nulls - 1] if nulls else RANK_CUTOFF * size[-1]
        if not size[nulls] > GRAY_FACTOR * floor:
            return None
    return -int(np.sum(np.sign(eigs[order[nulls:]])))


def _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol):
    """(value, raw) of iota + m(lift1, tau~) + m(tau~, lift2), iota from
    _witness_iota and both m terms from the (tau, sigma1) and (tau, sigma2)
    angle rows: the (sigma1, tau) angles are the (tau, sigma1) ones negated,
    at the same distances to pi.  raw sums iota and the two unrounded
    Souriau values.  AmbiguityError when iota is None."""
    if iota is None:
        raise AmbiguityError("the witness does not separate the coincidence "
                             "directions of the pair")
    m1t = _souriau_value(lift1, wlift, -rows[0], masks[0], tol)
    mt2 = _souriau_value(wlift, lift2, rows[1], masks[1], tol)
    return iota + m1t[0] + mt2[0], iota + m1t[1] + mt2[1]


def _witness_turn(angles):
    """alpha of the witness e^{i alpha} sigma1 of a pair with direct angles
    a_j.  Its angles are alpha - pi with sigma1 and a_j + alpha with sigma2;
    alpha is the middle of the largest circular gap among the r + 1 points
    {0} u {-a_j - pi mod 2 pi}, so every witness angle is >= pi/(r + 1) from pi."""
    points = sorted([0.0] + [(-a - math.pi) % TWO_PI for a in angles.tolist()])
    gaps = [b - a for a, b in zip(points, points[1:] + [points[0] + TWO_PI])]
    k = gaps.index(max(gaps))
    return points[k] + 0.5 * gaps[k]


def _find_witness(lift1, lift2, angles, nulls, tol):
    """(witness point, m through it) of a pair with direct angles a_j and
    `nulls` coincidences, through (e^{i alpha} sigma1, theta1 + alpha), whose
    angles, alpha - pi with sigma1 and a_j + alpha with sigma2, are read off
    the direct angles and transverse by construction, and one _witness_iota."""
    alpha = _witness_turn(angles)
    wlift, p1, p2 = turn_lift(lift1, alpha), lift1.point, lift2.point
    rows = (np.full(angles.size, alpha - math.pi), wrap_angle(angles + alpha))
    masks = np.zeros((2, angles.size), dtype=bool)
    iota = _witness_iota(wlift.point, p1, p2, nulls)
    return wlift.point, _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol)[0]


def souriau_m(lift1, lift2, tol: Tolerances = DEFAULT):
    """Souriau index of two lifted boundary points.

    Transverse pairs use the defining formula directly.  Non-transverse
    pairs use the coincidence-dropping extension, checked against
    iota(sigma1, sigma2, tau) + m(lift1, tau~) + m(tau~, lift2) with iota
    read off a signature (_witness_iota); disagreement is an error, never
    silently resolved.  The one witness tau = e^{i alpha} sigma1 shares
    sigma1's frame and is at least pi/(r + 1) from a coincidence with either
    point (_witness_turn).  The check reads tau's angles off the direct
    pass, which it shares, and costs one solve and eigensolve.
    """
    return _souriau_report(lift1, lift2, tol)[0]


def _souriau_report(lift1, lift2, tol):
    """souriau_m and mu of the pair, read off the same pair pass."""
    if not isinstance(lift1, LiftedPoint) or not isinstance(lift2, LiftedPoint):
        raise DomainError("souriau_m needs LiftedPoint arguments")
    angles, mask = _pair_angles(lift1.point, lift2.point, tol)
    value, raw, residual, m_count = _souriau_value(lift1, lift2, angles, mask, tol)
    witnesses = ()
    if m_count > 0:
        point, check = _find_witness(lift1, lift2, angles, m_count, tol)
        if check != value:
            raise IntegralityError(
                "extended Souriau index failed its witness cross-check: "
                f"direct={value}, witness route={check}")
        witnesses = (point,)
    return IndexReport(value, raw, residual, witnesses), m_count


def souriau_m_witness(lift1, lift2, wlift, tol: Tolerances = DEFAULT):
    """Souriau index through an explicit transverse witness:
    iota(sigma1, sigma2, tau) + m(lift1, tau~) + m(tau~, lift2), iota by the
    signature of _witness_iota, with no frame of tau.  One _angle_rows call
    gives the (tau, sigma1), (tau, sigma2) and (sigma1, sigma2) angles, on
    the matrices that _witness_iota also takes.  The report's raw value is
    iota plus the two unrounded Souriau values.  AmbiguityError when the
    witness does not separate the coincidence directions of the pair."""
    p1, p2, w = lift1.point, lift2.point, wlift.point
    for p in (p1, p2):
        if p.alg != w.alg:
            raise DomainError(f"algebra mismatch: {w.alg} vs {p.alg}")
    rows = np.array([w.value.coords, p1.value.coords, p2.value.coords])
    mats = None if w.alg.kind == SPIN else _to_matrix(w.alg, rows)
    rows = _checked(_angle_rows(w.alg, rows, [0, 0, 1], [1, 2, 2], mats))
    masks = []
    for angles in rows[:2]:
        masks.append(_coincidence_split(angles, tol))
        if masks[-1].any():
            raise DomainError("witness must be transverse to both points")
    nulls = int(np.sum(_coincidence_split(rows[2], tol)))
    iota = _witness_iota(w, p1, p2, nulls, mats)
    value, raw = _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol)
    return IndexReport(value, raw, abs(raw - value), (w,))


def maslov_iota(s1, s2, s3, tol: Tolerances = DEFAULT):
    """Triple Maslov index of three boundary points.

    Depends only on the points; computed via the transverse angle-sum
    formula when possible, otherwise as a cyclic sum of extended Souriau
    indices over canonical lifts (the lift choice cancels).
    """
    return _iota_report(s1, s2, s3, tol)[0]


def _iota_report(s1, s2, s3, tol):
    """maslov_iota and the coincidence masks of its pair passes (s1, s2),
    (s2, s3), (s3, s1), all made in one pair_angles call; fast path when
    all pairs are transverse.  Its raw value is the angle sum over pi, or else
    the sum of the three unrounded Souriau values."""
    s1, s2, s3 = (as_shilov(s) for s in (s1, s2, s3))
    rows = pair_angles([s1, s2, s3], [s2, s3, s1])
    masks = [_coincidence_split(angles, tol) for angles in rows]
    if not any(np.any(mask) for mask in masks):
        raw = sum(float(np.sum(angles)) for angles in rows) / math.pi
        value, residual = _round_guarded(raw, tol, "Maslov index")
    else:
        lifts = [lift(p, 0) for p in (s1, s2, s3)]
        terms = [_souriau_value(lifts[k], lifts[(k + 1) % 3], angles, masks[k], tol)
                 for k, angles in enumerate(rows)]
        value, raw = sum(t[0] for t in terms), sum(t[1] for t in terms)
        residual = abs(raw - value)
    r = s1.alg.rank
    if abs(value) > r:
        raise IntegralityError(f"Maslov index {value} outside [-{r}, {r}]")
    return IndexReport(value, raw, residual), masks


def ord_triple(alpha, beta, gamma):
    """Cyclic order of three unit-circle points given by angles.

    0 when any two coincide (within 1e-12 rad); +1 when e^{i beta} lies on
    the open counterclockwise arc from e^{i alpha} to e^{i gamma}; else -1.
    """
    eps = 1e-12
    tb = math.fmod(beta - alpha, 2.0 * math.pi) % (2.0 * math.pi)
    tg = math.fmod(gamma - alpha, 2.0 * math.pi) % (2.0 * math.pi)
    if min(tb, 2.0 * math.pi - tb) < eps or min(tg, 2.0 * math.pi - tg) < eps \
            or abs(tb - tg) < eps:
        return 0
    return 1 if tb < tg else -1


def iota_shared_frame(angles1, angles2, angles3):
    """Closed-form triple index for three points sharing one frame."""
    return sum(ord_triple(a, b, c)
               for a, b, c in zip(angles1, angles2, angles3))


def m_shared_frame(angles1, theta1, angles2, theta2):
    """Closed-form Souriau index for shared-frame lifts.

    Pure angle arithmetic (no spectral pass): sum of theta_j - phi_j + pi
    wrapped to (-pi, pi), dropping coincidence directions (those within
    1e-9 rad of pi).
    """
    a1 = np.asarray(angles1, dtype=float)
    a2 = np.asarray(angles2, dtype=float)
    r = a1.size
    rel = wrap_angle(a1 - a2 + math.pi)
    keep = (math.pi - np.abs(rel)) >= 1e-9
    raw = (float(np.sum(rel[keep])) - r * (theta1 - theta2)) / math.pi
    value = int(round(raw))
    if abs(raw - value) > 1e-6:
        raise IntegralityError(f"shared-frame Souriau oracle non-integer: {raw!r}")
    return value


def _halved(total, raw_total, what, witnesses=()):
    """The report of the index total / 2, whose pre-rounding value is
    raw_total / 2; IntegralityError when total is odd."""
    if total % 2 != 0:
        raise IntegralityError(f"{what} came out half-integer: {total}/2")
    raw = 0.5 * raw_total
    return IndexReport(total // 2, raw, abs(raw - total // 2), witnesses)


def inertia_j(s1, s2, s3, tol: Tolerances = DEFAULT):
    """Inertia index of a triple:
    (iota + mu(1,2) - mu(1,3) + mu(2,3) + r) / 2.

    The mu terms are the coincidence counts of the triple index's pair
    passes; mu(1,3) is read off the (3,1) pass, whose angles are those of
    (1,3) negated, at the same distances to pi."""
    s1 = as_shilov(s1)
    iota, masks = _iota_report(s1, s2, s3, tol)
    mu12, mu23, mu31 = (int(np.sum(mask)) for mask in masks)
    total = iota.value + mu12 - mu31 + mu23 + s1.alg.rank
    return _halved(total, iota.raw + total - iota.value, "inertia index")


def arnold_nu(lift1, lift2, tol: Tolerances = DEFAULT):
    """Arnold index (m - mu - r) / 2 of a lifted pair."""
    m_rep, mu_val = _souriau_report(lift1, lift2, tol)
    r = lift1.alg.rank
    return _halved(m_rep.value - mu_val - r, m_rep.raw - mu_val - r,
                   "Arnold index", m_rep.witnesses)


def alm_n(lift1, lift2, tol: Tolerances = DEFAULT):
    """Arnold-Leray-Maslov index n = nu + mu + r = (m + mu + r) / 2."""
    m_rep, mu_val = _souriau_report(lift1, lift2, tol)
    r = lift1.alg.rank
    return _halved(m_rep.value + mu_val + r, m_rep.raw + mu_val + r,
                   "ALM index", m_rep.witnesses)
