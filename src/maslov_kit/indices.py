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
e^{i gamma} (x0, i xv) of the two points, again with no frame.  Each
index makes one pass per pair and shares it: inertia_j reads its three mu
terms off the passes of its triple index, arnold_nu and alm_n read mu off
the pass of their Souriau index.  A path flow makes one pass per grid.

All discrete outputs pass an integrality guard and a parity guard
(m = r - mu mod 2, a determinant identity), and the extended (non-transverse)
Souriau index is re-derived through a transverse witness tau as a runtime
cross-check, m = iota(sigma1, sigma2, tau) + m(sigma1~, tau~) + m(tau~, sigma2~).
The check is independent of the extension formula it checks: iota comes
from the signature of the Cayley images of the pair with tau at infinity,
read off tau and the two points with no square root of tau, and the two m
terms are transverse.  Its witnesses are a fixed stream, drawn once per
algebra and cached with their lifts, so a check costs one pair_angles call
and one small solve and eigensolve per candidate tried (usually one), and
builds no point and no frame.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import SPIN, _det, _from_matrix, _mul, _to_matrix
from .boundary import (ElementC, LiftedPoint, ShilovPoint, _checked,
                       _cinverse_rows, _lie_sphere, as_shilov,
                       cquad_rep_operator, lift, principal_arg, random_shilov,
                       shilov_spectral, wrap_angle)
from .config import DEFAULT, STRICT, Tolerances, check_mode
from .errors import AmbiguityError, DomainError, IntegralityError

_WITNESS_SEED = 0x6D6B5731
_WITNESS_TRIES = 48


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


def relative_element(sigma, tau, tol: Tolerances = DEFAULT):
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
    sigma = as_shilov(sigma, tol)
    tau = as_shilov(tau, tol)
    if sigma.alg != tau.alg:
        raise DomainError(f"algebra mismatch: {sigma.alg} vs {tau.alg}")
    us = shilov_spectral(tau, tol)
    alg = tau.alg
    root = np.exp(-0.5j * us.angles) @ np.array([c.coords for c in us.frame])
    s = sigma.value.coords
    if alg.kind == SPIN:
        w = (2.0 * _mul(alg, root, _mul(alg, root, s))
             - _mul(alg, _mul(alg, root, root), s))
    else:
        root = _to_matrix(alg, root)
        w = _from_matrix(alg, root @ _to_matrix(alg, s) @ root)
    return ShilovPoint(ElementC(alg, -w), tol)


def _coincidence_split(angles, tol, mode):
    """Distances to pi decide coincidence vs transverse, with a gray zone.

    Returns a boolean mask of coincidence directions.
    """
    dist = math.pi - np.abs(np.asarray(angles))
    coincident = dist < tol.transverse
    gray = (~coincident) & (dist < tol.gray_factor * tol.transverse)
    if np.any(gray):
        if mode == STRICT:
            raise AmbiguityError(
                f"pair: eigenangle at distance {float(np.min(dist[gray])):.3e} "
                f"from pi lies in the gray zone "
                f"[{tol.transverse:.1e}, {tol.gray_factor * tol.transverse:.1e}); "
                "refusing to decide transversality in strict mode")
        # permissive: gray angles count as transverse, i.e. keep them
    return coincident


def pair_angles(sigmas, taus, tol: Tolerances = DEFAULT):
    """Eigenangles of w(sigma_k, tau_k) for N pairs of one algebra: (N, r).

    Each row is sorted descending in (-pi, pi], the order of
    shilov_spectral(relative_element(sigma, tau)).angles.  For the matrix
    kinds w = -P(tau^{-1/2}) sigma is similar to -tau^{-1} sigma, whose
    eigenvalues all pairs get from one stacked solve and one eigvals call.
    The Jordan inverse (solve, not the conjugate) keeps points that are off
    S within tol.boundary on the spectrum of w; an eigenvalue off the unit
    circle by more than 10 tol.boundary is refused.  The spin factor takes
    the angles in closed form from the Lie-sphere form of the two points
    (_spin_pair_angles), with no frame; a point off the Lie sphere by more
    than 10 tol.boundary is refused.

    Each pair is checked as a one-pair call would check it.  The DomainError
    is that of the first refused pair, whether a raw element that is not a
    boundary point, a point off the boundary, or a pair of another algebra,
    and carries its index as `row` (_pair_rows).
    """
    return _checked(_pair_rows(sigmas, taus, tol))


def _pair_rows(sigmas, taus, tol):
    """(angles, refused) of pair_angles, in the form of _factor_rows: the
    sorted angles of the rows before the first refused row, and
    {row: DomainError} for that row, empty when no row is refused.

    The rows are scanned in order: sigma_k and then tau_k are made boundary
    points (as_shilov), and their algebras compared.  The first row whose
    coercion fails or whose algebras differ ends the scan; only the rows
    before it are solved, in one call, and the first of them off the
    boundary is refused in its place."""
    sigmas, taus = list(sigmas), list(taus)
    if not sigmas or len(sigmas) != len(taus):
        raise DomainError(f"pair_angles needs N >= 1 sigmas and N taus, got "
                          f"{len(sigmas)} and {len(taus)}")
    points, refused = [], {}
    for k, (s, t) in enumerate(zip(sigmas, taus)):
        try:
            s, t = as_shilov(s, tol), as_shilov(t, tol)
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
    scoords = np.array([s.value.coords for s, _ in points])
    tcoords = np.array([t.value.coords for _, t in points])
    if alg.kind == SPIN:
        angles, off = _spin_pair_angles(scoords, tcoords)
        what = "a point is off the Lie sphere"
    else:
        zeta = np.linalg.eigvals(-np.linalg.solve(_to_matrix(alg, tcoords),
                                                  _to_matrix(alg, scoords)))
        angles, off = principal_arg(zeta), np.abs(np.abs(zeta) - 1.0).max(axis=1)
        what = "relative element has an eigenvalue off the unit circle"
    bad = off > 10.0 * tol.boundary
    if bad.any():
        n = int(np.argmax(bad))
        refused = {n: _row_error(n, f"not on the Shilov boundary ({what} by "
                                    f"{off[n]:.2e})")}
    return -np.sort(-angles[:n], axis=-1), refused


def _row_error(row, message):
    """The DomainError of pair_angles for its first refused pair."""
    exc = DomainError(message)
    exc.row = row
    return exc


def _spin_pair_angles(scoords, tcoords):
    """Unsorted angles (N, 2) of w(sigma, tau) on the spin factor, and the
    distance of each pair from the Lie sphere.

    A spin boundary point is z = e^{i gamma} (x0, i xv) with x a real unit
    vector and e^{2 i gamma} = det z (Faraut-Koranyi, ch. X).  The relative
    angles are gamma_s - gamma_t + pi +- the angle between x_s and x_t, read
    as 2 atan2(|x_s - x_t|, |x_s + x_t|), exact where the two meet.  Either
    root gamma serves: (gamma + pi, -x) leaves the two angles unchanged
    mod 2 pi.
    """
    (gs, xs, offs), (gt, xt, offt) = (_lie_sphere(z) for z in (scoords, tcoords))
    between = 2.0 * np.arctan2(np.linalg.norm(xs - xt, axis=1),
                               np.linalg.norm(xs + xt, axis=1))
    base = gs - gt + math.pi
    angles = wrap_angle(np.stack([base + between, base - between], axis=1))
    return angles, np.maximum(offs, offt)


def _pair_angles(sigma, tau, tol, mode):
    """One pair through pair_angles: (angles, coincidence mask)."""
    angles = pair_angles([sigma], [tau], tol)[0]
    return angles, _coincidence_split(angles, tol, mode)


def transversal(sigma, tau, tol: Tolerances = DEFAULT, mode=STRICT):
    check_mode(mode)
    _, mask = _pair_angles(sigma, tau, tol, mode)
    return not bool(np.any(mask))


def mu(sigma, tau, tol: Tolerances = DEFAULT, mode=STRICT):
    """Transversality index: rank of sigma - tau deficiency, counted as the
    number of relative eigenangles at pi."""
    check_mode(mode)
    _, mask = _pair_angles(sigma, tau, tol, mode)
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


def mu_via_corank(sigma, tau, tol: Tolerances = DEFAULT):
    """mu recomputed from the corank of P(sigma - tau) on the
    complexification; errors if the corank fits no admissible k."""
    sigma = as_shilov(sigma, tol)
    tau = as_shilov(tau, tol)
    if sigma.alg != tau.alg:
        raise DomainError(f"algebra mismatch: {sigma.alg} vs {tau.alg}")
    alg = sigma.alg
    diff = ElementC(alg, sigma.value.coords - tau.value.coords)
    op = cquad_rep_operator(diff)
    svals = np.linalg.svd(op, compute_uv=False)
    if svals[0] < 1e-12:
        corank = alg.dim
    else:
        corank = int(np.sum(svals < tol.rank * svals[0]))
    table = _admissible_coranks(alg)
    if corank not in table:
        raise AmbiguityError(
            f"corank {corank} of P(sigma - tau) matches no admissible "
            f"transversality profile for {alg.kind} param={alg.param}")
    return table[corank]


def psi(sigma, tau, tol: Tolerances = DEFAULT, mode=STRICT):
    """Angle functional on transverse pairs: sum of relative eigenangles."""
    check_mode(mode)
    angles, mask = _pair_angles(sigma, tau, tol, mode)
    if np.any(mask):
        raise DomainError("angle functional needs a transverse pair "
                          f"(mu = {int(np.sum(mask))})")
    return float(np.sum(angles))


def psi_hat(sigma, tau, tol: Tolerances = DEFAULT, mode=STRICT):
    """Extension of the angle functional: coincidence directions dropped."""
    check_mode(mode)
    angles, mask = _pair_angles(sigma, tau, tol, mode)
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


@lru_cache(maxsize=64)
def _witness_draws(alg):
    """The witness candidates of one algebra drawn so far, and the generator
    they come from: ([(point, lift), ...], rng).  They are drawn and checked
    at the default tolerances whatever the caller's, so one list serves
    every tol."""
    return [], np.random.default_rng(_WITNESS_SEED)


def _witnesses(alg):
    """The witness candidates of one algebra: the draws of random_shilov
    from _WITNESS_SEED, each with its canonical lift.  They are drawn lazily
    into the cached list, so a search extends it only as far as it reaches."""
    drawn, rng = _witness_draws(alg)
    for k in range(_WITNESS_TRIES):
        if k == len(drawn):
            point = random_shilov(alg, rng)
            drawn.append((point, lift(point)))
        yield drawn[k]


def _witness_iota(alg, tau, p1, p2, nulls, tol):
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
    """
    rows = np.array([tau.value.coords, p1.value.coords, p2.value.coords])
    if alg.kind == SPIN:
        t = rows[0]
        inv = _cinverse_rows(alg, t - rows[1:], tol)[1]
        y = 2j * (inv[0] - inv[1])
        half = (t[0] * y[0] + t[1:] @ y[1:]).real
        gap = math.sqrt(max(half * half - (_det(alg, t) * _det(alg, y)).real, 0.0))
        eigs = np.array([half - gap, half + gap])
    else:
        mats = _to_matrix(alg, rows)
        x = np.linalg.solve(mats[0] - mats[1:], mats[0])
        eigs = np.linalg.eigvalsh(2j * (x[0] - x[1]))
    return _null_signature(eigs, nulls, tol)


def _null_signature(eigs, nulls, tol):
    """-sgn of eigs over all but its `nulls` smallest in modulus, or None
    unless those are clearly apart from the rest: the smallest kept modulus
    must exceed gray_factor times the largest dropped one (times tol.rank
    of the largest modulus when nothing is dropped)."""
    order = np.argsort(np.abs(eigs))
    size = np.abs(eigs[order])
    if nulls < size.size:
        floor = size[nulls - 1] if nulls else tol.rank * size[-1]
        if not size[nulls] > tol.gray_factor * floor:
            return None
    return -int(np.sum(np.sign(eigs[order[nulls:]])))


def _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol):
    """iota + m(lift1, tau~) + m(tau~, lift2), iota from _witness_iota and
    both m terms from the (tau, sigma1) and (tau, sigma2) rows of one pair
    pass: the (sigma1, tau) angles are the (tau, sigma1) ones negated, at
    the same distances to pi."""
    m1t = _souriau_value(lift1, wlift, -rows[0], masks[0], tol)[0]
    mt2 = _souriau_value(wlift, lift2, rows[1], masks[1], tol)[0]
    return iota + m1t + mt2


def _find_witness(lift1, lift2, nulls, tol):
    """(witness point, m through it) from the first cached candidate that is
    strictly transverse to both points and whose signature separates the
    `nulls` coincidence directions of the pair; one pair_angles call per
    candidate tried."""
    p1, p2 = lift1.point, lift2.point
    for point, wlift in _witnesses(p1.alg):
        rows = pair_angles([point, point], [p1, p2], tol)
        try:
            masks = [_coincidence_split(a, tol, STRICT) for a in rows]
        except AmbiguityError:
            continue
        if any(mask.any() for mask in masks):
            continue
        iota = _witness_iota(p1.alg, point, p1, p2, nulls, tol)
        if iota is not None:
            return point, _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol)
    raise AmbiguityError("no transverse witness found for the pair")


def souriau_m(lift1, lift2, tol: Tolerances = DEFAULT, mode=STRICT):
    """Souriau index of two lifted boundary points.

    Transverse pairs use the defining formula directly.  Non-transverse
    pairs use the coincidence-dropping extension and are re-derived through
    a transverse witness tau as
    iota(sigma1, sigma2, tau) + m(lift1, tau~) + m(tau~, lift2), with iota
    read off a signature (_witness_iota) rather than off the extension
    formula, so the check is independent; disagreement is an error, never
    silently resolved.  The witness comes from a fixed candidate stream
    cached per algebra, and each candidate tried costs one pair_angles call
    and one small eigensolve.
    """
    check_mode(mode)
    return _souriau_report(lift1, lift2, tol, mode)[0]


def _souriau_report(lift1, lift2, tol, mode):
    """souriau_m and mu of the pair, read off the same pair pass."""
    if not isinstance(lift1, LiftedPoint) or not isinstance(lift2, LiftedPoint):
        raise DomainError("souriau_m needs LiftedPoint arguments")
    angles, mask = _pair_angles(lift1.point, lift2.point, tol, mode)
    value, raw, residual, m_count = _souriau_value(lift1, lift2, angles, mask, tol)
    witnesses = ()
    if m_count > 0:
        point, check = _find_witness(lift1, lift2, m_count, tol)
        if check != value:
            raise IntegralityError(
                "extended Souriau index failed its witness cross-check: "
                f"direct={value}, witness route={check}")
        witnesses = (point,)
    return IndexReport(value, raw, residual, witnesses), m_count


def souriau_m_witness(lift1, lift2, wlift, tol: Tolerances = DEFAULT,
                      mode=STRICT):
    """Souriau index through an explicit transverse witness:
    iota(sigma1, sigma2, tau) + m(lift1, tau~) + m(tau~, lift2), iota by the
    signature of _witness_iota, with no frame of tau.  AmbiguityError when
    the witness does not separate the coincidence directions of the pair."""
    check_mode(mode)
    p1, p2, w = lift1.point, lift2.point, wlift.point
    rows = pair_angles([w, w, p1], [p1, p2, p2], tol)
    masks = []
    for angles in rows[:2]:
        masks.append(_coincidence_split(angles, tol, mode))
        if masks[-1].any():
            raise DomainError("witness must be transverse to both points")
    nulls = int(np.sum(_coincidence_split(rows[2], tol, mode)))
    iota = _witness_iota(w.alg, w, p1, p2, nulls, tol)
    if iota is None:
        raise AmbiguityError("the witness does not separate the coincidence "
                             "directions of the pair")
    value = _witness_sum(lift1, lift2, wlift, rows, masks, iota, tol)
    return IndexReport(value, float(value), 0.0, (w,))


def maslov_iota(s1, s2, s3, tol: Tolerances = DEFAULT, mode=STRICT):
    """Triple Maslov index of three boundary points.

    Depends only on the points; computed via the transverse angle-sum
    formula when possible, otherwise as a cyclic sum of extended Souriau
    indices over canonical lifts (the lift choice cancels).
    """
    check_mode(mode)
    return _iota_report(s1, s2, s3, tol, mode)[0]


def _iota_report(s1, s2, s3, tol, mode):
    """maslov_iota and the coincidence masks of its pair passes (s1, s2),
    (s2, s3), (s3, s1), all made in one pair_angles call; fast path when
    all pairs are transverse."""
    s1 = as_shilov(s1, tol)
    s2 = as_shilov(s2, tol)
    s3 = as_shilov(s3, tol)
    rows = pair_angles([s1, s2, s3], [s2, s3, s1], tol)
    masks = [_coincidence_split(angles, tol, mode) for angles in rows]
    if not any(np.any(mask) for mask in masks):
        raw = sum(float(np.sum(angles)) for angles in rows) / math.pi
        value, _ = _round_guarded(raw, tol, "Maslov index")
    else:
        lifts = [lift(p, 0, tol) for p in (s1, s2, s3)]
        value = sum(_souriau_value(lifts[k], lifts[(k + 1) % 3], angles,
                                   masks[k], tol)[0]
                    for k, angles in enumerate(rows))
    r = s1.alg.rank
    if abs(value) > r:
        raise IntegralityError(f"Maslov index {value} outside [-{r}, {r}]")
    return IndexReport(value, float(value), 0.0), masks


def ord_triple(alpha, beta, gamma, eps=1e-12):
    """Cyclic order of three unit-circle points given by angles.

    0 when any two coincide; +1 when e^{i beta} lies on the open
    counterclockwise arc from e^{i alpha} to e^{i gamma}; else -1.
    """
    tb = math.fmod(beta - alpha, 2.0 * math.pi) % (2.0 * math.pi)
    tg = math.fmod(gamma - alpha, 2.0 * math.pi) % (2.0 * math.pi)
    if min(tb, 2.0 * math.pi - tb) < eps or min(tg, 2.0 * math.pi - tg) < eps \
            or abs(tb - tg) < eps:
        return 0
    return 1 if tb < tg else -1


def iota_shared_frame(angles1, angles2, angles3, eps=1e-12):
    """Closed-form triple index for three points sharing one frame."""
    return sum(ord_triple(a, b, c, eps)
               for a, b, c in zip(angles1, angles2, angles3))


def m_shared_frame(angles1, theta1, angles2, theta2, eps=1e-9):
    """Closed-form Souriau index for shared-frame lifts.

    Pure angle arithmetic (no spectral pass): sum of theta_j - phi_j + pi
    wrapped to (-pi, pi), dropping coincidence directions.
    """
    a1 = np.asarray(angles1, dtype=float)
    a2 = np.asarray(angles2, dtype=float)
    r = a1.size
    rel = wrap_angle(a1 - a2 + math.pi)
    keep = (math.pi - np.abs(rel)) >= eps
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


def inertia_j(s1, s2, s3, tol: Tolerances = DEFAULT, mode=STRICT):
    """Inertia index of a triple:
    (iota + mu(1,2) - mu(1,3) + mu(2,3) + r) / 2.

    The mu terms are the coincidence counts of the triple index's pair
    passes; mu(1,3) is read off the (3,1) pass, whose angles are those of
    (1,3) negated, at the same distances to pi."""
    check_mode(mode)
    s1 = as_shilov(s1, tol)
    iota, masks = _iota_report(s1, s2, s3, tol, mode)
    mu12, mu23, mu31 = (int(np.sum(mask)) for mask in masks)
    total = iota.value + mu12 - mu31 + mu23 + s1.alg.rank
    return _halved(total, iota.raw + total - iota.value, "inertia index")


def arnold_nu(lift1, lift2, tol: Tolerances = DEFAULT, mode=STRICT):
    """Arnold index (m - mu - r) / 2 of a lifted pair."""
    check_mode(mode)
    m_rep, mu_val = _souriau_report(lift1, lift2, tol, mode)
    r = lift1.alg.rank
    return _halved(m_rep.value - mu_val - r, m_rep.raw - mu_val - r,
                   "Arnold index", m_rep.witnesses)


def alm_n(lift1, lift2, tol: Tolerances = DEFAULT, mode=STRICT):
    """Arnold-Leray-Maslov index n = nu + mu + r = (m + mu + r) / 2."""
    check_mode(mode)
    m_rep, mu_val = _souriau_report(lift1, lift2, tol, mode)
    r = lift1.alg.rank
    return _halved(m_rep.value + mu_val + r, m_rep.raw + mu_val + r,
                   "ALM index", m_rep.witnesses)
