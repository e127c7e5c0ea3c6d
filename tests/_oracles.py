"""Independent reference computations for cross-checking the library.

Everything here deliberately takes a different route than the library:
associative matrix products instead of Jordan operator polynomials, angle
arithmetic instead of spectral passes, a search over all strand permutations
instead of circular matching, the Cayley chart, scipy's expm of L(v) and
finite differences instead of a word's linear-fractional matrix, a sampled
radial unwrap instead of the sum over the factors of its denominator, an
eigenangle flow that solves and matches one sample at a time instead of one
pass over the grid, the spectrum of the spin relative element at 50 digits
instead of the Lie-sphere closed form, an orbit that steps through
determination_phi and apply_word and validates every iterate as it lands
instead of the orbit walk's one batch per block, images and factors
of Delta_g through the matrix realization of each point instead of a word's
coordinate form, and the witness signature through the root tau^{-1/2}
instead of tau and the two points.  The spin pair kernel is also kept in its
earlier form, one Lie-sphere pass per side with np.linalg.norm, as the
reference that the one-pass kernel must match byte for byte.
"""

import itertools
import math
from functools import reduce

import numpy as np

from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import dynamics as dy
from maslov_kit.errors import AmbiguityError, DomainError
from maslov_kit.indices import pair_angles, relative_element


def to_matrix(x):
    """Matrix realization of a matrix-kind element."""
    return al._to_matrix(x.alg, x.coords)


def from_matrix(alg, mat):
    """The matrix-kind element of a symmetric or Hermitian matrix;
    DomainError when the matrix is not Hermitian."""
    coords = al._from_matrix(alg, np.asarray(mat))
    if np.iscomplexobj(coords):
        resid = float(np.max(np.abs(coords.imag)))
        if resid > 1e-9 * (1.0 + float(np.max(np.abs(coords.real)))):
            raise DomainError("matrix is not Hermitian")
        coords = coords.real
    return al.element(alg, coords)


def trace(x):
    """The Jordan trace: 2 x0 on the spin factor, else the diagonal sum."""
    if x.alg.kind == al.SPIN:
        return 2.0 * float(x.coords[0])
    return float(np.sum(x.coords[:x.alg.param]))


def det_real(x):
    """The determinant polynomial at a real element."""
    return float(np.real(al._det(x.alg, x.coords)))


def quad_rep_matrix(x, y):
    """P(x)y as the associative sandwich X Y X (matrix kinds only)."""
    xm = to_matrix(x)
    ym = to_matrix(y)
    return from_matrix(x.alg, xm @ ym @ xm)


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


def spin_pair_angles_mp(sigma, tau, dps=50):
    """Eigenangles of w = -P(tau^{-1/2}) sigma on the spin factor at `dps`
    digits, descending in (-pi, pi].

    The float coordinates are taken as exact.  tau^{-1/2} is the principal
    root on tau's two idempotents (1, +-tv/lam)/2, lam^2 = tv.tv, or
    tau0^{-1/2} e when tv = 0; P(a)b = 2 (a0 b0 + av.bv) a - det(a) (b0, -bv);
    and the spectrum of w is w0 +- sqrt(wv.wv).
    """
    import mpmath

    with mpmath.workdps(dps):
        s = [mpmath.mpc(complex(c)) for c in sigma.value.coords]
        t = [mpmath.mpc(complex(c)) for c in tau.value.coords]
        lam = mpmath.sqrt(mpmath.fsum(c * c for c in t[1:]))
        if lam == 0:
            a = [t[0] ** -0.5] + [mpmath.mpc(0)] * (len(t) - 1)
        else:
            up, dn = (t[0] + lam) ** -0.5, (t[0] - lam) ** -0.5
            a = [(up + dn) / 2] + [(up - dn) / 2 * c / lam for c in t[1:]]
        bil = mpmath.fsum(x * y for x, y in zip(a, s))
        det = a[0] ** 2 - mpmath.fsum(x * x for x in a[1:])
        w = [-2 * bil * x for x in a]
        w[0] += det * s[0]
        w[1:] = [x - det * y for x, y in zip(w[1:], s[1:])]
        root = mpmath.sqrt(mpmath.fsum(x * x for x in w[1:]))
        angles = [float(mpmath.arg(w[0] + root)), float(mpmath.arg(w[0] - root))]
    return np.sort(angles)[::-1]


def lie_sphere_two_pass(z):
    """(gamma, x, off) of spin rows z, as boundary._lie_sphere computed them
    with np.linalg.norm."""
    gamma = 0.5 * np.angle(z[:, 0] ** 2 - (z[:, 1:] * z[:, 1:]).sum(axis=1))
    y = np.exp(-1j * gamma)[:, None] * z
    y[:, 1:] *= -1j
    size = np.linalg.norm(y.real, axis=1)
    off = np.hypot(np.linalg.norm(y.imag, axis=1), size - 1.0)
    return gamma, y.real / size[:, None], off


def spin_pair_angles_two_pass(scoords, tcoords):
    """Unsorted spin pair angles (N, 2) and the distance of each pair from
    the Lie sphere, with one Lie-sphere pass over the sigma rows and one
    over the tau rows, and np.linalg.norm for every row norm."""
    (gs, xs, offs), (gt, xt, offt) = (lie_sphere_two_pass(z)
                                      for z in (scoords, tcoords))
    between = 2.0 * np.arctan2(np.linalg.norm(xs - xt, axis=1),
                               np.linalg.norm(xs + xt, axis=1))
    base = gs - gt + math.pi
    angles = bd.wrap_angle(np.stack([base + between, base - between], axis=1))
    return angles, np.maximum(offs, offt)


def spin_spectral_angles_two_pass(sigma):
    """The descending angles of shilov_spectral on the spin factor, from
    lie_sphere_two_pass."""
    gamma, x, _ = lie_sphere_two_pass(sigma.value.coords[None])
    half = math.atan2(float(np.linalg.norm(x[0, 1:])), float(x[0, 0]))
    angles = bd.wrap_angle(gamma[0] + np.array([half, -half]))
    return angles[np.argsort(-angles, kind="stable")]


def witness_iota_rooted(tau, p1, p2):
    """The eigenvalues of x1 - x2, x_k = c(v_k) = i (e + v_k)(e - v_k)^{-1},
    v_k = P(tau^{-1/2}) sigma_k, through the root tau^{-1/2} from the frame
    of tau: v_k is minus relative_element(sigma_k, tau), and
    x1 - x2 = 2i ((e - v1)^{-1} - (e - v2)^{-1}).  The spectrum is y0 +- |yv|
    on the spin factor, eigvalsh on the matrix kinds."""
    alg = tau.alg
    v = -np.array([relative_element(p, tau).value.coords for p in (p1, p2)])
    if alg.kind == al.SPIN:
        a = -v
        a[:, 0] += 1.0
        inv = bd._cinverse_rows(alg, a)[1]
        y = (2j * (inv[0] - inv[1])).real
        size = np.linalg.norm(y[1:])
        return np.array([y[0] - size, y[0] + size])
    x = np.linalg.inv(np.eye(alg.param) - al._to_matrix(alg, v))
    return np.linalg.eigvalsh(2j * (x[0] - x[1]))


def det_matrix(x):
    """Determinant via LAPACK eigenvalues of the matrix realization."""
    return float(np.prod(np.linalg.eigvalsh(to_matrix(x))))


def wrap_angle(a):
    """Reduce to (-pi, pi]."""
    out = np.mod(np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


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


def match_step_cyclic(prev, raw):
    """Continue `prev` by the cheapest cyclic shift of the circularly sorted
    orders, near-equal costs broken by the smaller largest move.  Returns
    (continued angles, max single-strand motion)."""
    r = prev.size
    src = np.argsort(bd.wrap_angle(prev))
    shifts = (np.arange(r)[:, None] + np.arange(r)) % r
    moves = bd.wrap_angle(np.sort(raw)[shifts] - bd.wrap_angle(prev[src]))
    cost = np.sum(np.abs(moves), axis=1)
    span = np.max(np.abs(moves), axis=1)
    best = int(np.argmin(np.where(cost <= cost.min() + 1e-12, span, np.inf)))
    out = np.empty(r)
    out[src] = moves[best]
    return prev + out, float(span[best])


def eigenangle_flow_sequential(path, reference):
    """dynamics.eigenangle_flow one sample at a time: one pair_angles call
    and one matching per sample, continuing the strands step by step, with
    the same refinement, step limit and errors."""
    main_grid, main_fn, alg = dy._point_source(path)
    ref_grid, ref_fn, ref_alg = dy._point_source(reference)
    if alg != ref_alg:
        raise DomainError(f"algebra mismatch: {alg} vs {ref_alg}")
    if main_grid is None:
        raise DomainError("first argument must be a BoundaryPath")

    ts = sorted(main_grid)
    if ref_grid is not None:
        ts = sorted(set(ts) | set(ref_grid))

    def value_at(grid, fn, t):
        if grid is not None and t in grid:
            return grid[t]
        if fn is None:
            raise DomainError(
                "paths have different sample grids and no sampler to merge them")
        return bd.as_shilov(fn(t))

    def raw_at(t):
        return pair_angles([value_at(main_grid, main_fn, t)],
                           [value_at(ref_grid, ref_fn, t)])[0]

    limit = min(dy.STRAND_STEP_LIMIT, math.pi / alg.rank)
    out_t = [ts[0]]
    out_a = [np.array(raw_at(ts[0]))]

    def advance(t0, a0, t1, raw1, depth):
        cand, move = match_step_cyclic(a0, raw1)
        if move < limit:
            out_t.append(t1)
            out_a.append(cand)
            return cand
        if depth == 0:
            raise AmbiguityError(
                f"strand matching ambiguous near t={t1:.6g} even at maximum "
                "refinement")
        if (main_fn is None) or (ref_grid is not None and ref_fn is None):
            raise AmbiguityError(
                f"strands move {move:.3f} rad between t={t0:.6g} and "
                f"t={t1:.6g} (limit {limit:.3f}) and no sampler is available "
                "to refine")
        tm = 0.5 * (t0 + t1)
        am = advance(t0, a0, tm, raw_at(tm), depth - 1)
        return advance(tm, am, t1, raw1, depth - 1)

    cur = out_a[0]
    for t0, t1 in zip(ts, ts[1:]):
        cur = advance(t0, cur, t1, raw_at(t1), dy.REFINE_DEPTH)
    return dy.AngleFlow(np.array(out_t), np.vstack(out_a))


def power_lift_sequential(word, lifted, power, trail=None):
    """g^power . lifted as `power` steps through the one-row public route:
    phi = determination_phi(g, sigma) (its gate and half-plane check, then
    the image's LinAlgError, then ShilovPoint of g(sigma)), and the iterate
    LiftedPoint(apply_word(g, sigma), theta + phi / r), built and checked as
    it lands.  When given, `trail` collects the iterates, so on an error
    len(trail) + 1 is the failing one."""
    out, r = lifted, word.alg.rank
    for _ in range(power):
        phi = bd.determination_phi(word, out.point)
        out = bd.LiftedPoint(bd.apply_word(word, out.point), out.theta + phi / r)
        if trail is not None:
            trail.append(out)
    return out


def structure_matrix(gen):
    """The coordinate action of a structure-group generator: the product, in
    factor order, of scipy's expm(phase L(v)) and expm([L(a), L(b)])."""
    import scipy.linalg

    def factor(kind, *ops):
        if kind == "derivation":
            la, lb = (al.lmul_operator(x) for x in ops)
            return scipy.linalg.expm(la @ lb - lb @ la)
        return scipy.linalg.expm(gen.phase * al.lmul_operator(ops[0]))
    return reduce(np.matmul, [factor(*f) for f in gen.factors])


def cayley_apply(word, z):
    """g(z) for coordinates z through the Cayley chart: each maximal run of
    tube generators is one trip disk -> tube -> disk through Jordan inverses,
    and structure generators act by their coordinate matrices.  Raises
    DomainError where the chart is undefined."""
    alg = word.alg
    e = al.unit(alg).coords

    def inv(x):
        return bd.cinverse(bd.ElementC(alg, x)).coords

    cur = np.array(z, dtype=complex)
    gens = word.generators
    idx = 0
    while idx < len(gens):
        if gens[idx].family == "unitary":
            cur = structure_matrix(gens[idx]) @ cur
            idx += 1
            continue
        cur = -1j * e + 2j * inv(e - cur)
        while idx < len(gens) and gens[idx].family == "tube":
            gen = gens[idx]
            if isinstance(gen, bd.TranslateGen):
                cur = cur + gen.u.coords
            elif isinstance(gen, bd.LinearGen):
                cur = structure_matrix(gen) @ cur
            else:
                cur = -inv(cur)
            idx += 1
        cur = e - 2j * inv(cur + 1j * e)
    return cur


def jacobian_j(word, z, h=1e-5):
    """j(g, z) = det(Dg(z) e), with Dg(z) e by a central difference of
    cayley_apply along e."""
    alg = word.alg
    e = al.unit(alg).coords
    de = (cayley_apply(word, z + h * e) - cayley_apply(word, z - h * e)) / (2 * h)
    return bd.cdet(bd.ElementC(alg, de))


MAX_UNWRAP_STEPS = 2 ** 14


def radial_unwrap(word, target, steps=64):
    """(phi(g, z), g(z) coordinates) by unwrapping Arg j(g, t z) along the
    radial segment t in [0, 1], seeded at phi(g, 0); the sample count doubles
    until every increment is below pi/2."""
    alg = word.alg
    base = word.linear_fractional()[2]
    if word.is_unitary():
        # j(u, .) is constant, so the determination is too
        out = bd.apply_word(word, bd.ElementC(alg, target))
        return base, out.coords
    while True:
        prev = None
        ok = True
        total = base
        for k, t in enumerate(np.linspace(0.0, 1.0, steps + 1)):
            z = bd.ElementC(alg, t * target)
            if k == steps:
                out = bd.apply_word(word, z)
            jval = bd.cocycle_j(word, z)
            if abs(jval) < 1e-14:
                raise AmbiguityError("cocycle vanished along the unwrap segment")
            if prev is not None:
                delta = np.angle(jval / prev)
                if abs(delta) > 0.5 * math.pi:
                    ok = False
                    break
                total += delta
            prev = jval
        if ok:
            return total, out.coords
        if steps * 2 > MAX_UNWRAP_STEPS:
            raise AmbiguityError(
                f"argument unwrap failed at {steps} steps (jump > pi/2)")
        steps *= 2


def lf_image_matrix(alg, g, z):
    """g(z) for the matrix g at one coordinate row z, through the matrix
    realization: w = to_matrix(z), (Aw + B)(Cw + D)^{-1} by a solve, and
    back with from_matrix, instead of the word's coordinate form; on spin
    g acts on (1, z, det z) column by column.  Unchecked, like the kernel."""
    if alg.kind == al.SPIN:
        head = g[:, 0] + g[:, 1:-1] @ z + g[:, -1] * al._det(alg, z)
        return head[1:-1] / head[0]
    m = alg.param
    w = al._to_matrix(alg, z)
    num = g[:m, :m] @ w + g[:m, m:]
    den = g[m:, :m] @ w + g[m:, m:]
    return al._from_matrix(alg, np.linalg.solve(den.T, num.T).T)


def factor_rows_matrix(alg, g, rows):
    """(mu, refused) of the kernel's factor pass for the matrix g, with the
    factor matrices D^{-1} C w built as one broadcast solve over the matrix
    realizations of the rows instead of from the word's coordinate form."""
    if alg.kind == al.SPIN:
        mats = np.zeros((len(rows), 2, 2), dtype=np.complex128)
        mats[:, 0, 0] = (rows * g[0, 1:-1]).sum(axis=1) / g[0, 0]
        mats[:, 0, 1] = -(g[0, -1] * al._det(alg, rows) / g[0, 0])
        mats[:, 1, 0] = 1.0
    else:
        m = alg.param
        mats = np.linalg.solve(g[m:, m:], g[m:, :m] @ al._to_matrix(alg, rows))
    finite = np.isfinite(mats).all(axis=(1, 2))
    lam = np.linalg.eigvals(np.where(finite[:, None, None], mats, 0.0))
    lam[~finite] = np.nan
    mu = 1.0 + lam
    size = np.abs(mu).min(axis=1)
    ok = size > bd.RANK_CUTOFF * (1.0 + np.abs(lam).max(axis=1))
    return mu, {k: DomainError("undefined where Delta_g vanishes "
                               f"(min |1 + lambda| = {size[k]:.2e})")
                for k in np.flatnonzero(~ok).tolist()}


def spin_to_matrix_kind(alg):
    """(target algebra, coordinate matrix) of the Jordan isomorphism of the
    spin factor onto a matrix kind: spin 3 onto sym-r 2 and spin 4 onto
    herm-c 2, (x0, x1, x2[, x3]) -> (x0 + x1, x0 - x1, sqrt2 x2[, sqrt2 x3]),
    that is x0 I + x1 s_z + x2 s_x [- x3 s_y] over the Pauli matrices."""
    target = {3: al.algebra(al.SYM_R, 2), 4: al.algebra(al.HERM_C, 2)}[alg.param]
    mat = np.zeros((alg.dim, alg.dim))
    mat[:2, :2] = [[1.0, 1.0], [1.0, -1.0]]
    mat[2:, 2:] = math.sqrt(2.0) * np.eye(alg.dim - 2)
    return target, mat


def real_to_complex_kind(alg):
    """(target algebra, coordinate matrix) of the inclusion of sym-r n into
    herm-c n: the real coordinates are kept and zero imaginary coordinates
    appended."""
    target = al.algebra(al.HERM_C, alg.param)
    return target, np.eye(target.dim, alg.dim)


JORDAN_MAPS = [(al.algebra(al.SPIN, 3), spin_to_matrix_kind),
               (al.algebra(al.SPIN, 4), spin_to_matrix_kind),
               (al.algebra(al.SYM_R, 2), real_to_complex_kind),
               (al.algebra(al.SYM_R, 3), real_to_complex_kind)]


def index_outcome(fn, *args):
    """The integer an index or a path count returns, or the class of its
    refusal."""
    try:
        return int(fn(*args))
    except (AmbiguityError, DomainError) as exc:
        return type(exc)


def map_word(word, target, mat):
    """The word on `target` whose generators are those of `word` carried
    through the coordinate map `mat`: offsets and factor operands are
    mapped, inversions stay inversions, and base_arg is kept."""
    def carry(x):
        return al.element(target, mat @ x.coords)

    gens = []
    for gen in word.generators:
        if isinstance(gen, bd.TranslateGen):
            gens.append(bd.TranslateGen(carry(gen.u)))
        elif isinstance(gen, bd.InversionGen):
            gens.append(bd.InversionGen())
        else:
            gens.append(type(gen)([(kind, *map(carry, ops))
                                   for kind, *ops in gen.factors]))
    return bd.GroupWord(target, gens, base_arg=word.base_arg)


def map_point(point, target, mat):
    """The boundary point on `target` with the mapped coordinates."""
    return bd.ShilovPoint(bd.ElementC(target, mat @ point.value.coords))


def map_lift(lifted, target, mat):
    """The lift on `target` with the mapped coordinates and the same theta."""
    return bd.LiftedPoint(map_point(lifted.point, target, mat), lifted.theta)


def map_path(path, target, mat):
    """The path on `target` whose samples, and whose sampler's points, are
    those of `path` mapped, at the same t."""
    def sampler(t):
        return map_point(bd.as_shilov(path.sampler(t)), target, mat)

    return dy.BoundaryPath([(t, map_point(p, target, mat)) for t, p in path.samples],
                           sampler=None if path.sampler is None else sampler)
