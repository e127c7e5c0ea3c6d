"""Acceptance suites behind `maslov-kit selftest`.

Thirteen independent suites exercise the index machinery end to end on the
seven desk-scale algebras (sym-r 1..3, herm-c 1..2, spin 3 and 5).  Each
suite draws from its own seeded generator, so a fixed seed produces the
same report bytes on every run; timings go to stderr only.

A suite is a generator over (rng, scale) that yields one (ok, message) pair
per check, counted by `tally`: ok False is a failed check, ok None a failure
that is not a check (too few path splits found).  A suite that raises counts
0 checks and one "raised ..." failure.
"""

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import algebra as al
from . import boundary as bd
from . import dynamics as dy
from . import indices as ix
from .errors import AmbiguityError, DomainError

TWO_PI = 2.0 * math.pi
ROTATION_POWER = 32

ALGEBRAS = (
    al.algebra(al.SYM_R, 1),
    al.algebra(al.SYM_R, 2),
    al.algebra(al.SYM_R, 3),
    al.algebra(al.HERM_C, 1),
    al.algebra(al.HERM_C, 2),
    al.algebra(al.SPIN, 3),
    al.algebra(al.SPIN, 5),
)


@dataclass(frozen=True)
class Scale:
    leray: int = 200
    cocycle: int = 200
    cocycle_forced: int = 50
    pairs: int = 500
    witness_pairs: int = 100
    witnesses: int = 10
    words_per_alg: int = 50
    frames: int = 200
    coranks: int = 200
    primitive: int = 200
    unitary_words: int = 20
    fixing_words: int = 10
    word_pairs: int = 100
    splits: int = 50
    health: int = 100
    loop_n: int = 65
    rich_n: int = 129
    split_n: int = 97


SCALES = {
    "full": Scale(),
    "quick": Scale(
        leray=40, cocycle=40, cocycle_forced=10, pairs=80, witness_pairs=16,
        witnesses=4, words_per_alg=8, frames=40, coranks=40, primitive=30,
        unitary_words=8, fixing_words=4, word_pairs=20, splits=10,
        health=20, loop_n=33, rich_n=65, split_n=49,
    ),
}


def _alg_at(i):
    return ALGEBRAS[i % len(ALGEBRAS)]


def _neg_unit_pt(alg):
    return bd.ShilovPoint(-bd.complexify(al.unit(alg)))


def _minus_i_eps(alg, k):
    eps = al.epq(alg, k, alg.rank - k)
    return bd.ShilovPoint(bd.ElementC(alg, -1j * eps.coords))


def _random_lift(alg, rng):
    return bd.lift(bd.random_shilov(alg, rng), int(rng.integers(-2, 3)))


def _shared_points(alg, rng, n, coincide):
    """n boundary points on one frame with the first `coincide` angles shared."""
    frame = al.random_frame(alg, rng)
    base = rng.uniform(-np.pi, np.pi, alg.rank)
    angle_sets = []
    for _ in range(n):
        a = rng.uniform(-np.pi, np.pi, alg.rank)
        a[:coincide] = base[:coincide]
        angle_sets.append(a)
    pts = [bd.from_unit_spectrum(alg, a, frame) for a in angle_sets]
    return angle_sets, pts


def _shared_lift(point, angles, k=0):
    theta = (float(np.sum(angles)) + TWO_PI * k) / point.alg.rank
    return bd.LiftedPoint(point, theta)


# ----------------------------------------------------------------- suites

def suite_orbit_values(rng, s):
    """iota(e, -e, -i eps_k) = 2k - r for every k on every algebra."""
    for alg in ALGEBRAS:
        r = alg.rank
        e_pt, neg = bd.unit_shilov(alg), _neg_unit_pt(alg)
        for k in range(r + 1):
            rep = ix.maslov_iota(e_pt, neg, _minus_i_eps(alg, k))
            yield not (rep.value != 2 * k - r or rep.residual >= 1e-6), (
                f"{alg.kind}-{alg.param} k={k}: got {rep.value} "
                f"(residual {rep.residual:.2e}), want {2 * k - r}")


def suite_leray_sum(rng, s):
    """m12 + m23 + m31 = iota on random lifted triples, transverse or not."""
    for i in range(s.leray):
        alg = _alg_at(i)
        if i % 3 == 0 and alg.rank > 1:
            angle_sets, pts = _shared_points(alg, rng, 3, coincide=1)
            lifts = [_shared_lift(p, a, int(rng.integers(-1, 2)))
                     for p, a in zip(pts, angle_sets)]
        else:
            lifts = [_random_lift(alg, rng) for _ in range(3)]
            pts = [lf.point for lf in lifts]
        total = (ix.souriau_m(lifts[0], lifts[1]).value
                 + ix.souriau_m(lifts[1], lifts[2]).value
                 + ix.souriau_m(lifts[2], lifts[0]).value)
        iota = ix.maslov_iota(pts[0], pts[1], pts[2]).value
        yield total == iota, (f"triple {i} on {alg.kind}-{alg.param}: "
                              f"sum {total} != iota {iota}")


def suite_cocycle_relation(rng, s):
    """Alternating iota sum over 4-tuples vanishes, coincidences included."""
    for i in range(s.cocycle):
        alg = _alg_at(i)
        stride = max(1, s.cocycle // s.cocycle_forced)
        if i % stride == 0:
            _, pts = _shared_points(alg, rng, 4,
                                    coincide=1 if alg.rank > 1 else 0)
            if i % (2 * stride) == 0:
                pts[3] = pts[1]  # repeated point
        else:
            pts = [bd.random_shilov(alg, rng) for _ in range(4)]
        p1, p2, p3, p4 = pts
        total = (ix.maslov_iota(p1, p2, p3).value
                 - ix.maslov_iota(p1, p2, p4).value
                 + ix.maslov_iota(p1, p3, p4).value
                 - ix.maslov_iota(p2, p3, p4).value)
        yield total == 0, (f"tuple {i} on {alg.kind}-{alg.param}: "
                           f"alternating sum {total}")


def suite_pair_integrality(rng, s):
    """m is an integer, antisymmetric, and shifts by 2 under the deck map."""
    for i in range(s.pairs):
        alg = _alg_at(i)
        if i % 5 == 0 and alg.rank > 1:
            angle_sets, pts = _shared_points(alg, rng, 2, coincide=1)
            l1 = _shared_lift(pts[0], angle_sets[0])
            l2 = _shared_lift(pts[1], angle_sets[1], int(rng.integers(-1, 2)))
        else:
            l1, l2 = _random_lift(alg, rng), _random_lift(alg, rng)
        try:
            m12 = ix.souriau_m(l1, l2)
            m21 = ix.souriau_m(l2, l1)
            shifted = ix.souriau_m(l1, bd.t_shift(l2))
        except AmbiguityError as exc:
            yield False, f"pair {i} on {alg.kind}-{alg.param}: {exc}"
            continue
        if m12.residual >= 1e-6:
            yield False, f"pair {i}: residual {m12.residual:.2e}"
        elif m12.value + m21.value != 0:
            yield False, f"pair {i}: m12 {m12.value} + m21 {m21.value} != 0"
        else:
            yield shifted.value == m12.value + 2, (
                f"pair {i}: deck shift {shifted.value} != {m12.value} + 2")


def suite_witness_independence(rng, s):
    """souriau_m_witness agrees with the direct route for every witness."""
    for i in range(s.witness_pairs):
        alg = _alg_at(i)
        if i % 2 == 0 and alg.rank > 1:
            angle_sets, pts = _shared_points(alg, rng, 2, coincide=1)
            l1 = _shared_lift(pts[0], angle_sets[0])
            l2 = _shared_lift(pts[1], angle_sets[1])
        else:
            l1, l2 = _random_lift(alg, rng), _random_lift(alg, rng)
        direct = ix.souriau_m(l1, l2).value
        found = 0
        while found < s.witnesses:
            cand = bd.random_shilov(alg, rng)
            try:
                if not (ix.transversal(cand, l1.point)
                        and ix.transversal(cand, l2.point)):
                    continue
                got = ix.souriau_m_witness(l1, l2, bd.lift(cand)).value
            except AmbiguityError:
                continue
            found += 1
            yield got == direct, (f"pair {i} witness {found} on "
                                  f"{alg.kind}-{alg.param}: {got} != {direct}")


def suite_word_invariance(rng, s):
    """m, iota and mu are unchanged by the boundary action of group words."""
    for alg in ALGEBRAS:
        for i in range(s.words_per_alg):
            g = bd.random_word(alg, rng, mode="mixed")
            l1, l2 = _random_lift(alg, rng), _random_lift(alg, rng)
            p3 = bd.random_shilov(alg, rng)
            gl1, gl2 = bd.act_lift(g, l1), bd.act_lift(g, l2)
            gp3 = bd.as_shilov(bd.apply_word(g, p3.value))
            ok_m = (ix.souriau_m(gl1, gl2).value
                    == ix.souriau_m(l1, l2).value)
            ok_i = (ix.maslov_iota(gl1.point, gl2.point, gp3).value
                    == ix.maslov_iota(l1.point, l2.point, p3).value)
            ok_mu = (ix.mu(gl1.point, gp3) == ix.mu(l1.point, p3))
            yield ok_m and ok_i and ok_mu, (f"word {i} on {alg.kind}-{alg.param}: "
                                            f"m {ok_m} iota {ok_i} mu {ok_mu}")


def suite_shared_frame_oracles(rng, s):
    """Spectral iota and m match the closed-form shared-frame values."""
    for i in range(s.frames):
        alg = _alg_at(i)
        coincide = 1 if (i % 4 == 0 and alg.rank > 1) else 0
        angle_sets, pts = _shared_points(alg, rng, 3, coincide=coincide)
        want_iota = ix.iota_shared_frame(*angle_sets)
        got_iota = ix.maslov_iota(*pts).value
        k1, k2 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        l1 = _shared_lift(pts[0], angle_sets[0], k1)
        l2 = _shared_lift(pts[1], angle_sets[1], k2)
        want_m = ix.m_shared_frame(angle_sets[0], l1.theta,
                                   angle_sets[1], l2.theta)
        got_m = ix.souriau_m(l1, l2).value
        yield got_iota == want_iota and got_m == want_m, (
            f"config {i} on {alg.kind}-{alg.param}: iota "
            f"{got_iota}/{want_iota} m {got_m}/{want_m}")


def suite_corank_inversion(rng, s):
    """mu from eigenangles equals mu recovered from the operator corank."""
    for i in range(s.coranks):
        alg = _alg_at(i)
        ell = i % (alg.rank + 1)
        angle_sets, pts = _shared_points(alg, rng, 2, coincide=ell)
        spectral = ix.mu(pts[0], pts[1])
        via_corank = ix.mu_via_corank(pts[0], pts[1])
        yield spectral == via_corank == ell, (
            f"pair {i} on {alg.kind}-{alg.param}: spectral {spectral} corank "
            f"{via_corank} want {ell}")


def suite_coordinate_family(rng, s):
    """nu = k - ell on the coordinate family; alm is a primitive of inertia."""
    for alg in ALGEBRAS:
        r = alg.rank
        frame = al.standard_frame(alg)
        lift1 = bd.LiftedPoint(_neg_unit_pt(alg), -math.pi)
        for ell in range(r + 1):
            for k in range(-2, 3):
                phis = rng.uniform(-math.pi + 0.2, math.pi - 0.2, r - ell)
                angles = np.concatenate([np.full(ell, math.pi), phis])
                tau = bd.from_unit_spectrum(alg, angles, frame)
                phi = (-ell * math.pi + float(np.sum(phis))
                       + 2 * k * math.pi) / r
                lift2 = bd.LiftedPoint(tau, phi)
                nu = ix.arnold_nu(lift1, lift2).value
                mu_val = ix.mu(lift1.point, tau)
                yield nu == k - ell and mu_val == ell, (
                    f"{alg.kind}-{alg.param} ell={ell} k={k}: nu {nu} mu {mu_val}")
    for i in range(s.primitive):
        alg = _alg_at(i)
        lifts = [_random_lift(alg, rng) for _ in range(3)]
        want = ix.inertia_j(lifts[0].point, lifts[1].point,
                            lifts[2].point).value
        got = (ix.alm_n(lifts[0], lifts[1]).value
               - ix.alm_n(lifts[0], lifts[2]).value
               + ix.alm_n(lifts[1], lifts[2]).value)
        yield got == want, (f"triple {i} on {alg.kind}-{alg.param}: "
                            f"alm sum {got} != inertia {want}")


def suite_rotation_number(rng, s):
    """rho estimates track chi(u); boundary-fixing words give rho = 0 mod 1."""
    for i in range(s.unitary_words):
        alg = _alg_at(i)
        word = bd.random_word(alg, rng, mode="unitary", n_gens=int(rng.integers(1, 4)))
        rho, bound = dy.rotation_rho(word, ROTATION_POWER)
        gap = abs(np.exp(2j * np.pi * rho) - bd.word_chi(word))
        yield not gap > TWO_PI * bound + 1e-6, (
            f"word {i} on {alg.kind}-{alg.param}: chi gap {gap:.3e} > "
            f"{TWO_PI * bound:.3e}")
    for i in range(s.fixing_words):
        alg = _alg_at(i)
        scale_gen = bd.LinearGen([("lmul", 0.3 * al.unit(alg))])
        b = al.random_element(alg, rng, 0.5)
        word = bd.GroupWord(alg, [scale_gen, bd.TranslateGen(b)])
        zstar = (1.0 / (1.0 - math.exp(0.3))) * b
        sigma_star = bd.as_shilov(bd.cayley_p(bd.complexify(zstar)))
        rho, bound = dy.rotation_rho(word, 8, base=bd.lift(sigma_star))
        dist = min(rho, 1.0 - rho)
        yield not dist > bound + 1e-9, (
            f"fixing word {i} on {alg.kind}-{alg.param}: rho {rho:.6f} not 0 mod 1")


def suite_quasimorphism_bound(rng, s):
    """|c(g1 g2) - c(g1) - c(g2)| <= r at the standard base lift."""
    for i in range(s.word_pairs):
        alg = _alg_at(i)
        base = dy.standard_base_lift(alg)
        g1 = bd.random_word(alg, rng, mode="mixed")
        g2 = bd.random_word(alg, rng, mode="mixed")
        both = bd.compose_words(g1, g2)
        defect = (dy.quasimorphism_c(both, base)
                  - dy.quasimorphism_c(g1, base)
                  - dy.quasimorphism_c(g2, base))
        yield abs(defect) <= alg.rank, (f"pair {i} on {alg.kind}-{alg.param}: "
                                        f"defect {defect} > {alg.rank}")


def _phase_path_fn(sigma, turns, wiggle=0.0):
    def fn(t):
        phase = TWO_PI * turns * t + wiggle * math.sin(TWO_PI * t)
        return bd.ShilovPoint(np.exp(1j * phase) * sigma.value)
    return fn


def _rich_path(alg, rng, n):
    frame = al.random_frame(alg, rng)
    r = alg.rank
    starts = rng.uniform(0.4, 2.0, r) * rng.choice([-1.0, 1.0], r)
    drifts = rng.uniform(-3.0, 3.0, r) * math.pi
    amps = rng.uniform(0.0, 0.7, r)
    phases = rng.uniform(0.0, TWO_PI, r)
    for j in range(r):
        for _ in range(40):
            end = starts[j] + drifts[j]
            if min(abs(bd.wrap_angle(starts[j])),
                   abs(bd.wrap_angle(end))) > 0.2:
                break
            drifts[j] += 0.3

    def fn(t):
        angles = starts + drifts * t + amps * np.sin(TWO_PI * t + phases)
        return bd.from_unit_spectrum(alg, angles, frame)

    return dy.BoundaryPath.from_function(fn, n=n)


def suite_path_additivity(rng, s):
    """Full loops count r, transverse pairs count 0, splits are additive."""
    for alg in ALGEBRAS:
        sigma = bd.random_shilov(alg, rng)
        ref = bd.random_shilov(alg, rng)
        loop = dy.BoundaryPath.from_function(_phase_path_fn(sigma, 1.0), n=s.loop_n)
        got = dy.arnold_number(loop, ref)
        yield got == alg.rank, f"loop on {alg.kind}-{alg.param}: {got} != {alg.rank}"

        # phase wiggles shift the relative eigenangles rigidly, so staying
        # under the transversality margin forces a zero pair index
        margin = float(np.min(np.abs(np.abs(
            ix.pair_angles([sigma], [ref])[0]) - math.pi)))
        path1 = dy.BoundaryPath.from_function(
            _phase_path_fn(sigma, 0.0, wiggle=0.3 * margin), n=s.loop_n)
        path2 = dy.BoundaryPath.from_function(
            _phase_path_fn(ref, 0.0, wiggle=-0.3 * margin), n=s.loop_n)
        got = dy.pair_path_index(path1, path2)
        yield got == 0, f"transverse pair on {alg.kind}-{alg.param}: {got}"

    done, attempts = 0, 0
    while done < s.splits and attempts < 4 * s.splits:
        attempts += 1
        alg = _alg_at(done)
        path = _rich_path(alg, rng, s.rich_n)
        ref = bd.unit_shilov(alg)
        fn = path.sampler
        total = dy.arnold_number(path, ref)
        alpha = float(rng.uniform(0.15, 0.85))
        left = dy.BoundaryPath.from_function(
            lambda u: fn(u * alpha), n=s.split_n)
        right = dy.BoundaryPath.from_function(
            lambda u: fn(alpha + u * (1.0 - alpha)), n=s.split_n)
        try:
            parts = dy.arnold_number(left, ref) + dy.arnold_number(right, ref)
        except (AmbiguityError, DomainError):
            continue  # split landed on the cycle, draw again
        done += 1
        yield parts == total, (f"split {done} on {alg.kind}-{alg.param} at "
                               f"{alpha:.3f}: {parts} != {total}")
    if done < s.splits:
        yield None, f"only {done}/{s.splits} splits found off the cycle"


def suite_kernel_health(rng, s):
    """Spectral kernels reconstruct, frames behave, inverses conjugate."""
    e_tol = 1e-8
    for alg in ALGEBRAS:
        e = al.unit(alg)
        for i in range(s.health):
            x = al.random_element(alg, rng, 1.0)
            spec = al.spectral_decompose_real(x)
            recon = al.zero(alg)
            total = al.zero(alg)
            ortho_ok = True
            for j, (lam, c) in enumerate(zip(spec.values, spec.frame)):
                recon = recon + float(lam) * c
                total = total + c
                if al.norm(al.jmul(c, c) - c) > e_tol:
                    ortho_ok = False
                for c2 in spec.frame[j + 1:]:
                    if al.norm(al.jmul(c, c2)) > e_tol:
                        ortho_ok = False
            sq = al.quad_rep_apply(x, e)
            sigma = bd.random_shilov(alg, rng)
            conj = bd.ElementC(alg, np.conj(sigma.value.coords))
            ok = (al.norm(recon - x) < e_tol * max(1.0, al.norm(x))
                  and al.norm(total - e) < e_tol
                  and ortho_ok
                  and al.norm(sq - al.jmul(x, x)) < e_tol * max(1.0, al.norm(x)) ** 2
                  and bd.cnorm(bd.cinverse(sigma.value) - conj) < 1e-7)
            yield ok, f"element {i} on {alg.kind}-{alg.param}"


SUITES = (
    ("orbit-values", suite_orbit_values),
    ("leray-sum", suite_leray_sum),
    ("cocycle-relation", suite_cocycle_relation),
    ("pair-integrality", suite_pair_integrality),
    ("witness-independence", suite_witness_independence),
    ("word-invariance", suite_word_invariance),
    ("shared-frame-oracles", suite_shared_frame_oracles),
    ("corank-inversion", suite_corank_inversion),
    ("coordinate-family", suite_coordinate_family),
    ("rotation-number", suite_rotation_number),
    ("quasimorphism-bound", suite_quasimorphism_bound),
    ("path-additivity", suite_path_additivity),
    ("kernel-health", suite_kernel_health),
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: tuple
    seconds: float


def tally(checks):
    """(count, failures) of a suite's (ok, message) pairs: ok False is a
    failed check, ok None a failure that is not a check."""
    count, failures = 0, []
    for ok, message in checks:
        count += ok is not None
        if not ok:
            failures.append(message)
    return count, failures


def _run_one(idx, name, fn, seed, scale):
    rng = np.random.default_rng([seed, idx])
    start = time.perf_counter()
    try:
        checks, fails = tally(fn(rng, scale))
    except Exception as exc:  # a crash is a failure, not an abort
        checks, fails = 0, [f"raised {type(exc).__name__}: {exc}"]
    return SuiteResult(name, checks, tuple(fails), time.perf_counter() - start)


def run(level="full", seed=0, out=None, err=None):
    """Run every suite; returns 0 when all pass, 1 otherwise."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if level not in SCALES:
        raise DomainError(f"unknown selftest level {level!r}")
    scale = SCALES[level]
    results = [_run_one(i, name, fn, seed, scale)
               for i, (name, fn) in enumerate(SUITES)]

    out.write(f"maslov-kit selftest  level={level}  seed={seed}\n")
    passed = 0
    for i, res in enumerate(results, start=1):
        status = "PASS" if not res.failures else "FAIL"
        passed += status == "PASS"
        out.write(f"{i:3d} {res.name:<22} {status}  {res.checks:5d} checks\n")
        for line in res.failures[:3]:
            out.write(f"      {line}\n")
        if len(res.failures) > 3:
            out.write(f"      ... {len(res.failures) - 3} more\n")
        err.write(f"[{res.name}] {res.seconds:.2f}s\n")
    out.write(f"{passed}/{len(results)} suites passed\n")
    return 0 if passed == len(results) else 1
