"""Pointwise indices: mu, Psi, Souriau m, Maslov iota, inertia, Arnold, ALM."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import _oracles as orc
from _cases import (ALGEBRAS, IDS, minus_i_eps, shared_frame_lift,
                    shared_frame_points)
from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import indices as ix
from maslov_kit.config import DEFAULT, PERMISSIVE, STRICT, Tolerances
from maslov_kit.errors import AmbiguityError, DomainError, IntegralityError


def unit_pt(alg):
    return bd.unit_shilov(alg)


def neg_unit_pt(alg):
    return bd.ShilovPoint(-bd.complexify(al.unit(alg)))


# ---------------------------------------------------------------- relative w

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_relative_element_examples(alg):
    rng = np.random.default_rng(61)
    e = al.unit(alg)
    for _ in range(5):
        sigma = bd.random_shilov(alg, rng)
        w = ix.relative_element(sigma, sigma)
        assert np.allclose(w.value.coords, -e.coords.astype(complex), atol=1e-8)
    w = ix.relative_element(unit_pt(alg), neg_unit_pt(alg))
    assert np.allclose(w.value.coords, e.coords.astype(complex), atol=1e-10)


def test_relative_element_algebra_mismatch():
    a = al.algebra(al.SYM_R, 2)
    b = al.algebra(al.SPIN, 3)
    with pytest.raises(DomainError):
        ix.relative_element(unit_pt(a), unit_pt(b))


# --------------------------------------------------------------- pair angles

PAIR_ALGEBRAS = ALGEBRAS + [al.algebra(al.SYM_R, 6), al.algebra(al.HERM_C, 4)]
PAIR_IDS = [f"{a.kind}-{a.param}" for a in PAIR_ALGEBRAS]


def _pair_corpus(alg, rng):
    """Random pairs, then shared-frame pairs with k = 0..r coincidences, each
    also with the coincident angles moved by 1e-11 to 1e-3 (the band
    [1e-7, 1e-6) is the default gray zone)."""
    for _ in range(4):
        yield bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
    for k in range(alg.rank + 1):
        frame, angles, (sigma, tau) = shared_frame_points(alg, rng, 2, coincide=k)
        yield sigma, tau
        for exp in ((-11, -9, -7, -6, -5, -3) if k else ()):
            moved = angles[1].copy()
            moved[:k] += rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0) * 10.0 ** exp
            yield sigma, bd.from_unit_spectrum(alg, moved, frame)


def _refusal_class(angles_of, sigma, tau):
    try:
        angles = angles_of(sigma, tau)
    except DomainError:
        return "domain", None
    try:
        return int(np.sum(ix._coincidence_split(angles, DEFAULT))), angles
    except AmbiguityError:
        return "gray", angles


@pytest.mark.parametrize("alg", PAIR_ALGEBRAS, ids=PAIR_IDS)
def test_pair_angles_match_relative_spectrum(alg):
    rng = np.random.default_rng([72, alg.rank, alg.dim])
    pairs = list(_pair_corpus(alg, rng))
    classes = set()
    for sigma, tau in pairs:
        want, ref = _refusal_class(
            lambda s, t: bd.shilov_spectral(ix.relative_element(s, t)).angles,
            sigma, tau)
        got, angles = _refusal_class(
            lambda s, t: ix.pair_angles([s], [t])[0], sigma, tau)
        assert got == want
        classes.add(got)
        # same strand order; the circular gap absorbs the snap at -pi
        assert np.max(np.abs(bd.wrap_angle(angles - ref))) <= 1e-10
    assert {0, alg.rank, "gray"} <= classes
    rows = ix.pair_angles(*zip(*pairs))
    single = np.stack([ix.pair_angles([s], [t])[0] for s, t in pairs])
    assert rows.tobytes() == single.tobytes()


SPIN_ALGEBRAS = [al.algebra(al.SPIN, q) for q in (3, 4, 5, 7)]
SPIN_IDS = [f"spin-{a.param}" for a in SPIN_ALGEBRAS]


def _lie_point(alg, gamma, x):
    """The spin boundary point e^{i gamma} (x0, i xv) of a real unit vector x."""
    coords = np.exp(1j * gamma) * np.concatenate([x[:1], 1j * x[1:]])
    return bd.ShilovPoint(bd.ElementC(alg, coords))


def _unit_vector(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _near_scalar(alg, rng):
    """(clean, noisy, level): a spin point e^{i theta} (cos d, i sin d u) with
    d = 10^U(-8, -5), whose frame is ill-conditioned, and a copy moved by
    complex noise of size level = 10^U(-13, -10)."""
    d = 10.0 ** rng.uniform(-8, -5)
    u = _unit_vector(rng, alg.dim - 1)
    x = np.concatenate([[math.cos(d)], math.sin(d) * u])
    clean = _lie_point(alg, rng.uniform(-np.pi, np.pi), x)
    noise = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    level = 10.0 ** rng.uniform(-13, -10)
    noise *= level / np.linalg.norm(noise)
    return clean, bd.ShilovPoint(bd.ElementC(alg, clean.value.coords + noise)), level


def _spin_corpus(alg, rng):
    """The pair corpus, then pairs with a scalar tau = e^{i theta} e, with a
    scalar sigma, with sigma = tau, and with near-scalar points."""
    yield from _pair_corpus(alg, rng)
    e = bd.complexify(al.unit(alg))
    for _ in range(4):
        scalar = bd.ShilovPoint(np.exp(1j * rng.uniform(-np.pi, np.pi)) * e)
        sigma = bd.random_shilov(alg, rng)
        yield sigma, scalar
        yield scalar, sigma
        yield sigma, sigma
    yield bd.ShilovPoint(e), bd.ShilovPoint(-1.0 * e)
    for _ in range(4):
        clean, noisy, _ = _near_scalar(alg, rng)
        tau = bd.random_shilov(alg, rng)
        yield from ((clean, tau), (tau, noisy), (noisy, clean), (clean, noisy))


@pytest.mark.parametrize("alg", SPIN_ALGEBRAS, ids=SPIN_IDS)
def test_spin_pair_angles_batch(alg):
    """The closed-form spin batch gives the angles and refusal class of the
    reference route shilov_spectral(relative_element), and each row is the
    one-pair call's."""
    rng = np.random.default_rng([75, alg.param])
    pairs = list(_spin_corpus(alg, rng))
    classes = set()
    for sigma, tau in pairs:
        want, ref = _refusal_class(
            lambda s, t: bd.shilov_spectral(ix.relative_element(s, t)).angles,
            sigma, tau)
        got, angles = _refusal_class(
            lambda s, t: ix.pair_angles([s], [t])[0], sigma, tau)
        assert got == want
        classes.add(got)
        assert np.max(np.abs(bd.wrap_angle(angles - ref))) <= 1e-12
    assert {0, 1, 2, "gray"} <= classes
    rows = ix.pair_angles(*zip(*pairs))
    single = np.stack([ix.pair_angles([s], [t])[0] for s, t in pairs])
    assert rows.tobytes() == single.tobytes()


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 3), al.algebra(al.SPIN, 5)],
                         ids=["sym-r-2", "herm-c-2", "spin-3", "spin-5"])
def test_pair_angles_names_first_refused_row(alg, monkeypatch):
    """A batch raises the one-pair error of its first refused pair and
    carries that pair's index as `row`, also when a later pair mixes
    algebras, and a raw element that is not a boundary point is refused in
    its own row."""
    rng = np.random.default_rng([76, alg.dim])
    sigmas = [bd.random_shilov(alg, rng) for _ in range(7)]
    taus = [bd.random_shilov(alg, rng) for _ in range(7)]
    with monkeypatch.context() as loose:     # points off S that pair_angles refuses
        loose.setattr(bd, "BOUNDARY", 1e-3)
        for k, scale in ((2, 1 + 1e-5), (5, 1 + 1e-4)):
            sigmas[k] = bd.ShilovPoint(scale * sigmas[k].value)
    taus[6] = bd.random_shilov(al.algebra(al.SYM_R, 3), rng)
    with pytest.raises(DomainError) as batch:
        ix.pair_angles(sigmas, taus)
    with pytest.raises(DomainError) as one:
        ix.pair_angles(sigmas[2:3], taus[2:3])
    assert batch.value.row == 2 and one.value.row == 0
    assert str(batch.value) == str(one.value)
    with pytest.raises(DomainError) as mixed:
        ix.pair_angles(sigmas[:2] + sigmas[6:], taus[:2] + taus[6:])
    with pytest.raises(DomainError) as one:
        ix.pair_angles(sigmas[6:], taus[6:])
    assert mixed.value.row == 2 and str(mixed.value) == str(one.value)
    with pytest.raises(DomainError):
        ix.relative_element(sigmas[2], taus[2])
    assert ix.pair_angles(sigmas[:2], taus[:2]).shape == (2, alg.rank)
    # a raw element is made a boundary point in its own row: off the
    # boundary, it is refused there, after the mismatch of an earlier row
    raw = bd.ElementC(alg, 1.01 * sigmas[1].value.coords)
    with pytest.raises(DomainError) as mixed:
        ix.pair_angles([sigmas[0], raw], [taus[6], sigmas[0]])
    with pytest.raises(DomainError) as one:
        ix.pair_angles(sigmas[:1], taus[6:])
    assert mixed.value.row == 0 and str(mixed.value) == str(one.value)
    with pytest.raises(DomainError) as off:
        bd.ShilovPoint(raw)
    for k in (0, 1, 2):
        with pytest.raises(DomainError) as alone:
            ix.pair_angles(sigmas[:k] + [raw], taus[:k + 1])
        assert alone.value.row == k and str(alone.value) == str(off.value)


def test_pair_angles_refuses_mixed_algebras_and_empty_calls():
    a = al.algebra(al.SYM_R, 2)
    b = al.algebra(al.HERM_C, 2)
    with pytest.raises(DomainError):
        ix.pair_angles([unit_pt(a), unit_pt(b)], [unit_pt(a), unit_pt(b)])
    with pytest.raises(DomainError):
        ix.pair_angles([unit_pt(a)], [unit_pt(b)])
    with pytest.raises(DomainError):
        ix.pair_angles([], [])


def _circular_gap(a, b):
    """Largest circular gap between two rank-two angle rows, under the
    better of the two pairings (rows sorted apart across the -pi edge)."""
    return min(np.max(np.abs(bd.wrap_angle(a - b))),
               np.max(np.abs(bd.wrap_angle(a - b[::-1]))))


NEAR_SCALAR_ALGEBRAS = [al.algebra(al.SPIN, q) for q in (3, 5, 7)]


@pytest.mark.parametrize("alg", NEAR_SCALAR_ALGEBRAS,
                         ids=[f"spin-{a.param}" for a in NEAR_SCALAR_ALGEBRAS])
def test_spin_pair_angles_near_scalar_points(alg):
    """Points e^{i theta} (cos d, i sin d u) near a scalar, plus complex
    noise: their frame is ill-conditioned, but their angles are not.  No
    pair with a random tau is refused, and the noise moves the angles by at
    most ten times its size."""
    rng = np.random.default_rng([77, alg.param])
    clean, noisy, taus, level = [], [], [], []
    for _ in range(500):
        point, moved, size = _near_scalar(alg, rng)
        clean.append(point)
        noisy.append(moved)
        level.append(size)
        taus.append(bd.random_shilov(alg, rng))
    for got, want in ((ix.pair_angles(noisy, taus), ix.pair_angles(clean, taus)),
                      (ix.pair_angles(taus, noisy), ix.pair_angles(taus, clean))):
        gap = np.max(np.abs(bd.wrap_angle(got - want)), axis=1)
        assert np.all(gap <= 10.0 * np.array(level))


def _mp_corpus(alg, rng):
    """Spin pairs for the 50-digit oracle: relative angles 1e-3 to 1e-11
    apart, sigma = tau, a scalar tau, and det sigma = -1 +- 1e-17 i, where
    gamma = Arg(det sigma) / 2 flips between +pi/2 and -pi/2."""
    for exp in range(-3, -12, -1):
        x, v = _unit_vector(rng, alg.dim), _unit_vector(rng, alg.dim)
        v = v - (v @ x) * x
        apart = 10.0 ** exp
        moved = math.cos(apart) * x + math.sin(apart) * v / np.linalg.norm(v)
        yield (_lie_point(alg, rng.uniform(-np.pi, np.pi), x),
               _lie_point(alg, rng.uniform(-np.pi, np.pi), moved))
    e = bd.complexify(al.unit(alg))
    for _ in range(3):
        sigma = bd.random_shilov(alg, rng)
        yield sigma, sigma
        yield sigma, bd.ShilovPoint(np.exp(1j * rng.uniform(-np.pi, np.pi)) * e)
    x = _unit_vector(rng, alg.dim)
    x *= np.sign(x[0])
    flips = []
    for sign in (1.0, -1.0):
        coords = np.concatenate([[complex(sign * 0.5e-17 / x[0], x[0])], -x[1:]])
        flips.append(bd.ShilovPoint(bd.ElementC(alg, coords)))
        assert np.sign(bd.cdet(flips[-1].value).imag) == sign
    tau = bd.random_shilov(alg, rng)
    yield from ((flips[0], flips[1]), (flips[1], flips[0]), (flips[0], flips[0]),
                (flips[0], tau), (tau, flips[1]))


@pytest.mark.parametrize("alg", SPIN_ALGEBRAS, ids=SPIN_IDS)
def test_spin_pair_angles_match_mp_oracle(alg):
    pytest.importorskip("mpmath")
    rng = np.random.default_rng([79, alg.param])
    for sigma, tau in _mp_corpus(alg, rng):
        want = orc.spin_pair_angles_mp(sigma, tau)
        got = ix.pair_angles([sigma], [tau])[0]
        assert _circular_gap(got, want) <= 1e-12
        ref = bd.shilov_spectral(ix.relative_element(sigma, tau)).angles
        assert _circular_gap(ref, want) <= 1e-12


BYTE_ALGEBRAS = [al.algebra(al.SPIN, q) for q in (3, 5, 8)]


@pytest.mark.parametrize("alg", BYTE_ALGEBRAS,
                         ids=[f"spin-{a.param}" for a in BYTE_ALGEBRAS])
def test_spin_kernel_matches_two_pass_oracle(alg, monkeypatch):
    """The one Lie-sphere pass over the stacked rows returns the bytes of
    the two-pass, np.linalg.norm form: the angles and distances of the spin,
    near-scalar and 50-digit corpora, batched and one pair at a time, and
    the shilov_spectral angles of every point.  A point off the Lie sphere
    at row k is refused at row k with the message of the two-pass form."""
    rng = np.random.default_rng([80, alg.param])
    near = []
    for _ in range(8):
        clean, noisy, _ = _near_scalar(alg, rng)
        tau = bd.random_shilov(alg, rng)
        near += [(clean, tau), (tau, noisy), (noisy, clean)]
    for pairs in (list(_spin_corpus(alg, rng)), near, list(_mp_corpus(alg, rng))):
        sigmas, taus = zip(*pairs)
        scoords = np.array([s.value.coords for s in sigmas])
        tcoords = np.array([t.value.coords for t in taus])
        want, want_off = orc.spin_pair_angles_two_pass(scoords, tcoords)
        n = len(pairs)
        got, got_off = ix._spin_pair_angles(np.concatenate([scoords, tcoords]),
                                            slice(0, n), slice(n, None))
        assert got.tobytes() == want.tobytes()
        assert got_off.tobytes() == want_off.tobytes()
        assert (ix.pair_angles(sigmas, taus).tobytes()
                == (-np.sort(-want, axis=-1)).tobytes())
        for s, t, row in zip(sigmas, taus, want):
            assert ix.pair_angles([s], [t])[0].tobytes() == (-np.sort(-row)).tobytes()
        for p in sigmas + taus:
            assert (bd.shilov_spectral(p).angles.tobytes()
                    == orc.spin_spectral_angles_two_pass(p).tobytes())
    sigmas = [bd.random_shilov(alg, rng) for _ in range(6)]
    taus = [bd.random_shilov(alg, rng) for _ in range(6)]
    for k in (0, 3, 5):
        moved = list(sigmas), list(taus)
        with monkeypatch.context() as loose:
            loose.setattr(bd, "BOUNDARY", 1e-3)
            side = moved[k % 2]
            side[k] = bd.ShilovPoint((1 + 1e-5) * side[k].value)
        want, want_off = orc.spin_pair_angles_two_pass(
            *(np.array([p.value.coords for p in ps]) for ps in moved))
        assert int(np.argmax(want_off > 10.0 * ix.BOUNDARY)) == k
        with pytest.raises(DomainError) as refused:
            ix.pair_angles(*moved)
        assert refused.value.row == k
        assert str(refused.value) == ("not on the Shilov boundary (a point is off "
                                      f"the Lie sphere by {want_off[k]:.2e})")
        angles, _ = ix._pair_rows(*moved)
        assert angles.tobytes() == (-np.sort(-want[:k], axis=-1)).tobytes()


@pytest.mark.parametrize("alg", ALGEBRAS + [al.algebra(al.SPIN, 7)],
                         ids=IDS + ["spin-7"])
def test_pair_angles_are_k_invariant(alg):
    """pair_angles(u sigma, u tau) = pair_angles(sigma, tau) for unitary
    words u, on random and coincident pairs; the spin closed form rests on
    this identity."""
    rng = np.random.default_rng([78, alg.rank, alg.dim])
    for _ in range(5):
        word = bd.random_word(alg, rng, mode="unitary")
        pairs = [(bd.random_shilov(alg, rng), bd.random_shilov(alg, rng))
                 for _ in range(3)]
        pairs.append(shared_frame_points(alg, rng, 2, coincide=1)[2])
        sigmas, taus = zip(*pairs)
        moved = ix.pair_angles([bd.apply_word(word, s) for s in sigmas],
                               [bd.apply_word(word, t) for t in taus])
        gap = np.abs(bd.wrap_angle(moved - ix.pair_angles(sigmas, taus)))
        assert np.max(gap) <= 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_mu_at_tight_transverse_tolerance(alg):
    # a double root of a characteristic polynomial would be off by ~sqrt(eps)
    tight = replace(DEFAULT, transverse=1e-10)
    rng = np.random.default_rng(73)
    for _ in range(4):
        sigma = bd.random_shilov(alg, rng)
        assert ix.mu(sigma, sigma, tight) == alg.rank
        turned = bd.ShilovPoint(sigma.value * np.exp(1j * rng.uniform(0.1, 3.0)))
        assert ix.mu(sigma, turned, tight) == 0


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 3), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 5)],
                         ids=["sym-r-3", "herm-c-2", "spin-5"])
def test_indices_make_one_pair_pass_per_pair(alg, monkeypatch):
    """No index builds w or a frame; each pair is passed through pair_angles
    once, including the mu terms of inertia_j, arnold_nu and alm_n, and the
    witness makes no second pass of the angle kernel."""
    frames, rows = [], []

    def count(mod, name, log, size=lambda *args: 1):
        orig = getattr(mod, name)

        def counted(*args, **kwargs):
            log.append(size(*args))
            return orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    for mod in (bd, ix):
        count(mod, "shilov_spectral", frames)
    count(ix, "relative_element", frames)
    count(ix, "pair_angles", rows, size=lambda sigmas, taus, *rest: len(sigmas))

    rng = np.random.default_rng(74)
    s1, s2, s3 = (bd.random_shilov(alg, rng) for _ in range(3))
    l1, l2 = bd.lift(s1), bd.lift(s2, 1)
    for call, passes in ((lambda: ix.mu(s1, s2), 1),
                         (lambda: ix.souriau_m(l1, l2), 1),
                         (lambda: ix.maslov_iota(s1, s2, s3), 3),
                         (lambda: ix.inertia_j(s1, s2, s3), 3),
                         (lambda: ix.arnold_nu(l1, l2), 1),
                         (lambda: ix.alm_n(l1, l2), 1)):
        rows.clear()
        call()
        assert sum(rows) == passes
    # coincident pairs take the witness route, still without a frame
    _, angles, (c1, c2) = shared_frame_points(alg, rng, 2, coincide=1)
    ix.inertia_j(c1, c2, s3)
    ix.arnold_nu(shared_frame_lift(c1, angles[0]), shared_frame_lift(c2, angles[1]))
    assert frames == []

    # the witness route: the direct pass is the one call of the angle kernel,
    # since the witness's angles are read off it, and a matrix kind builds
    # matrices twice, for that pass and for _witness_iota; the witness is
    # e^{i alpha} sigma1 under the gap rule, bit for bit
    calls, builds = [], []
    count(ix, "_angle_rows", calls)
    count(ix, "_to_matrix", builds)
    lifts = (shared_frame_lift(c1, angles[0]), shared_frame_lift(c2, angles[1]))
    rep = ix.souriau_m(*lifts)
    assert len(calls) == 1
    assert len(builds) == (0 if alg.kind == al.SPIN else 2)
    alpha = gap_rule_alpha(ix.pair_angles([c1], [c2])[0])
    want = np.exp(1j * alpha) * c1.value.coords
    assert rep.witnesses[0].value.coords.tobytes() == want.tobytes()
    # an explicit witness takes no frame either
    wlift = bd.LiftedPoint(bd.ShilovPoint(bd.ElementC(alg, want)),
                           lifts[0].theta + alpha)
    assert ix.souriau_m_witness(*lifts, wlift).value == rep.value
    assert frames == []


def gap_rule_alpha(angles):
    """The middle of the largest circular gap between the r + 1 points
    {0} u {-a_j - pi mod 2 pi}, in numpy: the witness turn of a pair with
    direct angles a_j."""
    points = np.sort(np.r_[0.0, np.mod(-angles - np.pi, 2.0 * np.pi)])
    gaps = np.diff(np.r_[points, points[0] + 2.0 * np.pi])
    k = int(np.argmax(gaps))
    return points[k] + 0.5 * gaps[k]


MATRIX_ALGEBRAS = [a for a in ALGEBRAS if a.kind != al.SPIN]


@pytest.mark.parametrize("alg", MATRIX_ALGEBRAS,
                         ids=[f"{a.kind}-{a.param}" for a in MATRIX_ALGEBRAS])
def test_witness_route_builds_matrices_once_per_pass(alg, monkeypatch):
    """A witness-route souriau_m on a matrix kind makes exactly 2 _to_matrix
    calls: one for the direct pass, and one for the witness, shared by its
    angle pass and its iota solve."""
    rng = np.random.default_rng(81)
    for _ in range(4):
        _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=1)
        lifts = (shared_frame_lift(s1, a1), shared_frame_lift(s2, a2))
        want = ix.souriau_m(*lifts)
        builds = []
        with monkeypatch.context() as patched:
            def counted(*args, _orig=ix._to_matrix, **kwargs):
                builds.append(1)
                return _orig(*args, **kwargs)
            patched.setattr(ix, "_to_matrix", counted)
            got = ix.souriau_m(*lifts)
        assert (got.value, got.raw) == (want.value, want.raw)
        assert len(builds) == 2


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_witness_report_carries_the_raw_value_it_rounds(alg):
    """souriau_m_witness reports the value it rounded: iota plus the two
    unrounded Souriau values through the witness, with residual
    |raw - value|.  On random pairs and witnesses the raw value is not
    always an exact integer."""
    rng = np.random.default_rng(6)
    pairs = [(bd.lift(bd.random_shilov(alg, rng)), bd.lift(bd.random_shilov(alg, rng), k))
             for k in (-1, 0, 1, 2) for _ in range(3)]
    _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=1)
    pairs.append((shared_frame_lift(s1, a1), shared_frame_lift(s2, a2)))
    inexact = 0
    for l1, l2 in pairs:
        wit = bd.random_shilov(alg, rng)
        while not (ix.transversal(wit, l1.point) and ix.transversal(wit, l2.point)):
            wit = bd.random_shilov(alg, rng)
        wlift = bd.lift(wit)
        rep = ix.souriau_m_witness(l1, l2, wlift)
        raw = (ix.maslov_iota(l1.point, l2.point, wit).value
               + ix.souriau_m(l1, wlift).raw + ix.souriau_m(wlift, l2).raw)
        assert rep.raw == pytest.approx(raw, abs=1e-12)
        assert rep.residual == abs(rep.raw - rep.value) <= DEFAULT.integer
        assert rep.value == ix.souriau_m(l1, l2).value
        inexact += rep.residual > 0.0
    assert inexact > 0


# ------------------------------------------------------------------------ mu

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_mu_examples(alg):
    rng = np.random.default_rng(63)
    sigma = bd.random_shilov(alg, rng)
    assert ix.mu(sigma, sigma) == alg.rank
    assert ix.mu(unit_pt(alg), neg_unit_pt(alg)) == 0
    assert ix.transversal(unit_pt(alg), neg_unit_pt(alg))
    assert not ix.transversal(sigma, sigma)
    tau = bd.random_shilov(alg, rng)
    assert ix.mu(sigma, tau) == ix.mu(tau, sigma)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_mu_forced_coincidences_and_corank(alg):
    rng = np.random.default_rng(64)
    for ell in range(alg.rank + 1):
        for _ in range(3):
            _, _, (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
            assert ix.mu(s1, s2) == ell
            assert ix.mu_via_corank(s1, s2) == ell


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_mu_via_corank_degenerate_and_random(alg):
    rng = np.random.default_rng(65)
    sigma = bd.random_shilov(alg, rng)
    assert ix.mu_via_corank(sigma, sigma) == alg.rank
    for _ in range(5):
        s1 = bd.random_shilov(alg, rng)
        s2 = bd.random_shilov(alg, rng)
        assert ix.mu_via_corank(s1, s2) == ix.mu(s1, s2)


# ----------------------------------------------------------------------- Psi

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_psi_examples(alg):
    r = alg.rank
    assert ix.psi(unit_pt(alg), neg_unit_pt(alg)) == pytest.approx(0.0, abs=1e-9)
    for k in range(r + 1):
        got = ix.psi(minus_i_eps(alg, k), unit_pt(alg))
        assert got == pytest.approx((2 * k - r) * math.pi / 2, abs=1e-9)
    sigma = bd.random_shilov(alg, np.random.default_rng(66))
    with pytest.raises(DomainError):
        ix.psi(sigma, sigma)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_psi_antisymmetry_and_det_relation(alg):
    rng = np.random.default_rng(67)
    for _ in range(8):
        s1 = bd.random_shilov(alg, rng)
        s2 = bd.random_shilov(alg, rng)
        p12 = ix.psi(s1, s2)
        assert p12 == pytest.approx(-ix.psi(s2, s1), abs=1e-8)
        lhs = np.exp(2j * p12)
        rhs = bd.cdet(s1.value) ** 2 / bd.cdet(s2.value) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-8)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_psi_unitary_invariance(alg):
    rng = np.random.default_rng(68)
    for _ in range(4):
        s1 = bd.random_shilov(alg, rng)
        s2 = bd.random_shilov(alg, rng)
        u = bd.random_word(alg, rng, mode="unitary")
        got = ix.psi(bd.apply_word(u, s1), bd.apply_word(u, s2))
        assert got == pytest.approx(ix.psi(s1, s2), abs=1e-8)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_psi_hat(alg):
    rng = np.random.default_rng(69)
    sigma = bd.random_shilov(alg, rng)
    assert ix.psi_hat(sigma, sigma) == pytest.approx(0.0, abs=1e-8)
    tau = bd.random_shilov(alg, rng)
    assert ix.psi_hat(sigma, tau) == pytest.approx(ix.psi(sigma, tau), abs=1e-9)
    for ell in range(alg.rank + 1):
        _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
        expect = float(np.sum(bd.wrap_angle(a1[ell:] - a2[ell:] + math.pi)))
        assert ix.psi_hat(s1, s2) == pytest.approx(expect, abs=1e-8)
        assert ix.psi_hat(s2, s1) == pytest.approx(-expect, abs=1e-8)


# ------------------------------------------------------------------ Souriau m

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_orbit_values(alg):
    r = alg.rank
    lift_e = bd.LiftedPoint(unit_pt(alg), 0.0)
    lift_neg = bd.LiftedPoint(neg_unit_pt(alg), math.pi)
    assert ix.souriau_m(lift_e, lift_neg).value == r
    for k in range(r + 1):
        lift_eps = bd.LiftedPoint(minus_i_eps(alg, k), (r - 2 * k) * math.pi / (2 * r))
        assert ix.souriau_m(lift_neg, lift_eps).value == -r
        assert ix.souriau_m(lift_eps, lift_e).value == 2 * k - r


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_coordinate_family(alg):
    # sigma1 = (-e, -pi) against ell frozen angles at pi and a lift offset k:
    # the index is 2k + r - ell.
    rng = np.random.default_rng(70)
    r = alg.rank
    frame = al.standard_frame(alg)
    lift1 = bd.LiftedPoint(neg_unit_pt(alg), -math.pi)
    for ell in range(r + 1):
        for k in range(-2, 3):
            phis = rng.uniform(-math.pi + 0.2, math.pi - 0.2, r - ell)
            angles = np.concatenate([np.full(ell, math.pi), phis])
            tau = bd.from_unit_spectrum(alg, angles, frame)
            phi = (-ell * math.pi + float(np.sum(phis)) + 2 * k * math.pi) / r
            lift2 = bd.LiftedPoint(tau, phi)
            rep = ix.souriau_m(lift1, lift2)
            assert rep.value == 2 * k + r - ell
            assert ix.mu(lift1.point, tau) == ell
            nu = ix.arnold_nu(lift1, lift2)
            assert nu.value == k - ell


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_antisymmetry_and_deck_action(alg):
    rng = np.random.default_rng(71)
    for _ in range(6):
        l1 = bd.lift(bd.random_shilov(alg, rng), int(rng.integers(-2, 3)))
        l2 = bd.lift(bd.random_shilov(alg, rng), int(rng.integers(-2, 3)))
        m12 = ix.souriau_m(l1, l2).value
        assert m12 + ix.souriau_m(l2, l1).value == 0
        assert ix.souriau_m(l1, bd.t_shift(l2)).value == m12 + 2
        assert ix.souriau_m(bd.t_shift(l1), l2).value == m12 - 2


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_word_invariance(alg):
    rng = np.random.default_rng(72)
    for _ in range(4):
        l1 = bd.lift(bd.random_shilov(alg, rng))
        l2 = bd.lift(bd.random_shilov(alg, rng))
        g = bd.random_word(alg, rng, mode="mixed")
        want = ix.souriau_m(l1, l2).value
        got = ix.souriau_m(bd.act_lift(g, l1), bd.act_lift(g, l2)).value
        assert got == want


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_report_integrality_and_parity(alg):
    rng = np.random.default_rng(73)
    r = alg.rank
    for ell in (0, min(1, r), r):
        _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
        rep = ix.souriau_m(shared_frame_lift(s1, a1), shared_frame_lift(s2, a2))
        assert rep.value == round(rep.raw)
        assert rep.residual <= 1e-6
        assert (rep.value - (r - ix.mu(s1, s2))) % 2 == 0
        if ell > 0:
            assert len(rep.witnesses) == 1
        else:
            assert rep.witnesses == ()
        assert int(rep) == rep.value


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_witness_operation(alg):
    rng = np.random.default_rng(74)
    l1 = bd.lift(bd.random_shilov(alg, rng))
    l2 = bd.lift(bd.random_shilov(alg, rng))
    direct = ix.souriau_m(l1, l2).value
    values = set()
    for _ in range(10):
        wit = bd.random_shilov(alg, rng)
        if not (ix.transversal(wit, l1.point) and ix.transversal(wit, l2.point)):
            continue
        values.add(ix.souriau_m_witness(l1, l2, bd.lift(wit)).value)
    assert values == {direct}


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_witness_coincident_pair(alg):
    rng = np.random.default_rng(75)
    _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=min(1, alg.rank))
    l1 = shared_frame_lift(s1, a1)
    l2 = shared_frame_lift(s2, a2)
    direct = ix.souriau_m(l1, l2).value
    seen = set()
    count = 0
    while count < 10:
        wit = bd.random_shilov(alg, rng)
        if not (ix.transversal(wit, s1) and ix.transversal(wit, s2)):
            continue
        seen.add(ix.souriau_m_witness(l1, l2, bd.lift(wit)).value)
        count += 1
    assert seen == {direct}
    # same point, same lift: antisymmetry forces 0
    assert ix.souriau_m(l1, l1).value == 0


def test_souriau_witness_near_scalar_spin():
    """A near-scalar spin witness is a valid point of S: souriau_m_witness
    agrees with souriau_m through it, and the reference route w(sigma, tau)
    keeps the angles of pair_angles."""
    alg = al.algebra(al.SPIN, 5)
    rng = np.random.default_rng(82)
    for _ in range(200):
        _, tau, _ = _near_scalar(alg, rng)
        sigma = bd.random_shilov(alg, rng)
        l1, l2 = bd.lift(sigma), bd.lift(sigma, 1)
        assert (ix.souriau_m_witness(l1, l2, bd.lift(tau)).value
                == ix.souriau_m(l1, l2).value)
        ref = bd.shilov_spectral(ix.relative_element(sigma, tau)).angles
        assert _circular_gap(ref, ix.pair_angles([sigma], [tau])[0]) <= 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_witness_route_catches_shifted_extension(alg, monkeypatch):
    """A +2 error in every non-transverse Souriau value, which keeps its
    parity, fails the runtime cross-check: the witness route does not
    re-derive the extension formula."""
    orig = ix._souriau_value

    def shifted(lift1, lift2, angles, mask, tol):
        value, raw, residual, count = orig(lift1, lift2, angles, mask, tol)
        return value + (2 if np.any(mask) else 0), raw, residual, count

    monkeypatch.setattr(ix, "_souriau_value", shifted)
    rng = np.random.default_rng(77)
    for ell in range(1, alg.rank + 1):
        _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
        with pytest.raises(IntegralityError, match="witness cross-check"):
            ix.souriau_m(shared_frame_lift(s1, a1), shared_frame_lift(s2, a2))


SIGNATURE_ALGEBRAS = [al.algebra(al.SYM_R, 1), al.algebra(al.SYM_R, 2),
                      al.algebra(al.SYM_R, 3), al.algebra(al.SYM_R, 4),
                      al.algebra(al.HERM_C, 2), al.algebra(al.HERM_C, 3),
                      al.algebra(al.SPIN, 3), al.algebra(al.SPIN, 5),
                      al.algebra(al.SPIN, 8)]


@pytest.mark.parametrize("alg", SIGNATURE_ALGEBRAS,
                         ids=[f"{a.kind}-{a.param}" for a in SIGNATURE_ALGEBRAS])
def test_witness_signature_matches_maslov_iota(alg, monkeypatch):
    """-sgn(x1 - x2) with tau at infinity is the triple index, also when
    (sigma1, sigma2) share 1..r coincidences.  Its eigenvalues, taken from
    tau and the two points, are those of the rooted route through
    tau^{-1/2} to 1e-9 of the largest, with the same null signature."""
    orig, eigs = ix._null_signature, []

    def recorded(values, nulls):
        eigs.append(values)
        return orig(values, nulls)

    monkeypatch.setattr(ix, "_null_signature", recorded)
    rng = np.random.default_rng(78)
    checked = 0
    for ell in range(alg.rank + 1):
        for _ in range(8):
            _, _, (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
            tau = bd.random_shilov(alg, rng)
            if not (ix.transversal(tau, s1) and ix.transversal(tau, s2)):
                continue
            nulls = ix.mu(s1, s2)
            got = ix._witness_iota(tau, s1, s2, nulls)
            rooted = orc.witness_iota_rooted(tau, s1, s2)
            assert got == orig(rooted, nulls)
            assert np.max(np.abs(np.sort(eigs[-1]) - np.sort(rooted))) \
                <= 1e-9 * np.max(np.abs(rooted))
            assert got == ix.maslov_iota(s1, s2, tau).value
            checked += 1
    assert checked >= 6 * (alg.rank + 1)


def test_null_signature_needs_a_clear_gap():
    eigs = np.array([2.0, -3e-16, 0.5, -1.5])
    assert ix._null_signature(eigs, 1) == -1
    assert ix._null_signature(eigs, 4) == 0
    assert ix._null_signature(np.array([1e-9, -4e-9, 2.0]), 1) is None
    assert ix._null_signature(np.array([1e-12, 1.0]), 0) is None


def test_witness_route_refuses_an_unclear_gap(monkeypatch):
    """A witness whose null eigenvalues are not clearly apart from the rest
    is never read: the route refuses with AmbiguityError."""
    alg = al.algebra(al.SYM_R, 3)
    rng = np.random.default_rng(79)
    _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=1)
    lifts = (shared_frame_lift(s1, a1), shared_frame_lift(s2, a2))
    ix.souriau_m(*lifts)
    orig = ix._null_signature
    blurred = []

    def blur(eigs, nulls):
        order = np.argsort(np.abs(eigs))
        eigs = eigs.copy()
        eigs[order[0]] = 0.5 * eigs[order[1]]
        blurred.append(orig(eigs, nulls))
        return blurred[-1]

    monkeypatch.setattr(ix, "_null_signature", blur)
    with pytest.raises(AmbiguityError, match="does not separate"):
        ix.souriau_m(*lifts)
    assert blurred == [None]


WITNESS_ALGEBRAS = ALGEBRAS + [al.algebra(al.SYM_R, 5), al.algebra(al.SPIN, 8)]


def witness_cases(alg, rng):
    """(lifts, closed-form m) of non-transverse pairs: shared frames with
    1..r coincidences, 4 each, and the deck shifts (sigma, k), k in -2..2."""
    cases = []
    for ell in range(1, alg.rank + 1):
        for _ in range(4):
            _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=ell)
            k1, k2 = (int(k) for k in rng.integers(-2, 3, 2))
            lifts = (shared_frame_lift(s1, a1, k1), shared_frame_lift(s2, a2, k2))
            cases.append((lifts, ix.m_shared_frame(a1, lifts[0].theta,
                                                   a2, lifts[1].theta)))
    for k in range(-2, 3):
        sigma = bd.random_shilov(alg, rng)
        cases.append(((bd.lift(sigma), bd.lift(sigma, k)), 2 * k))
    return cases


@pytest.mark.parametrize("alg", WITNESS_ALGEBRAS,
                         ids=[f"{a.kind}-{a.param}" for a in WITNESS_ALGEBRAS])
def test_closed_form_witness_on_non_transverse_pairs(alg):
    """On shared frames with 1..r coincidences and on deck shifts
    (sigma, k), souriau_m equals the closed form (m_shared_frame, or 2k),
    its witness is at least pi/(r + 1) from pi against both points, and
    strict and permissive mode return the same report."""
    r = alg.rank
    loose = Tolerances(mode=PERMISSIVE)
    for lifts, want in witness_cases(alg, np.random.default_rng(84)):
        strict, permissive = ix.souriau_m(*lifts), ix.souriau_m(*lifts, loose)
        assert strict.value == want
        (tau,) = strict.witnesses
        rows = ix.pair_angles([tau, tau], [lift.point for lift in lifts])
        assert np.min(np.pi - np.abs(rows)) >= np.pi / (r + 1) - 1e-9
        assert (permissive.value, permissive.raw, permissive.residual) \
            == (strict.value, strict.raw, strict.residual)
        assert permissive.witnesses[0].value.coords.tobytes() == tau.value.coords.tobytes()


@pytest.mark.parametrize("alg", WITNESS_ALGEBRAS,
                         ids=[f"{a.kind}-{a.param}" for a in WITNESS_ALGEBRAS])
def test_witness_rows_are_an_angle_pass_of_the_witness(alg, monkeypatch):
    """The witness rows read off the direct angles a_j, alpha - pi with
    sigma1 and a_j + alpha with sigma2, are the rows that an _angle_rows
    pass of (tau, sigma1) and (tau, sigma2) gives, within 1e-12 and on the
    same side of the -pi/pi cut, and no coincidence is masked."""
    orig, seen = ix._witness_sum, []

    def recorded(lift1, lift2, wlift, rows, masks, iota, tol):
        seen.append((wlift.point, rows, masks))
        return orig(lift1, lift2, wlift, rows, masks, iota, tol)

    monkeypatch.setattr(ix, "_witness_sum", recorded)
    for (l1, l2), _ in witness_cases(alg, np.random.default_rng(85)):
        seen.clear()
        ix.souriau_m(l1, l2)
        ((tau, rows, masks),) = seen
        coords = np.array([p.value.coords for p in (tau, l1.point, l2.point)])
        passed = bd._checked(ix._angle_rows(alg, coords, [0, 0], [1, 2]))
        assert not np.any(masks)
        for got, want in zip(rows, passed):
            assert np.abs(-np.sort(-got) - want).max() <= 1e-12


@pytest.mark.parametrize("alg, carry", orc.JORDAN_MAPS,
                         ids=[f"{a.kind}-{a.param}" for a, _ in orc.JORDAN_MAPS])
def test_indices_commute_with_jordan_isomorphism(alg, carry):
    """The Jordan isomorphisms spin 3 -> sym-r 2 and spin 4 -> herm-c 2 and
    the inclusion sym-r n -> herm-c n carry points by their coordinates and
    lifts with theta kept; mu, maslov_iota, inertia_j, souriau_m and alm_n
    are the same on both sides.  The pairs are random, shared frames with
    0..r coincidences and deck shifts (sigma, k), so the witness route runs
    on both sides."""
    target, mat = carry(alg)
    rng = np.random.default_rng(86)
    triples, pairs = [], []
    for _ in range(10):
        triples.append([bd.random_shilov(alg, rng) for _ in range(3)])
        pairs.append((bd.lift(triples[-1][0], 0), bd.lift(triples[-1][1], 1)))
    for ell in range(alg.rank + 1):
        for _ in range(4):
            _, (a1, a2, _), points = shared_frame_points(alg, rng, 3, coincide=ell)
            triples.append(points)
            pairs.append((shared_frame_lift(points[0], a1, int(rng.integers(-2, 3))),
                          shared_frame_lift(points[1], a2)))
    for k in range(-2, 3):
        sigma = bd.random_shilov(alg, rng)
        pairs.append((bd.lift(sigma), bd.lift(sigma, k)))
    witnessed = 0
    for points in triples:
        mapped = [orc.map_point(p, target, mat) for p in points]
        for fn in (ix.maslov_iota, ix.inertia_j):
            assert orc.index_outcome(fn, *points) == orc.index_outcome(fn, *mapped)
        assert (orc.index_outcome(ix.mu, *points[:2])
                == orc.index_outcome(ix.mu, *mapped[:2]))
    for lifts in pairs:
        mapped = [orc.map_lift(lifted, target, mat) for lifted in lifts]
        for fn in (ix.souriau_m, ix.alm_n):
            assert orc.index_outcome(fn, *lifts) == orc.index_outcome(fn, *mapped)
        witnessed += len(ix.souriau_m(*mapped).witnesses)
    assert witnessed >= 4 * alg.rank + 5


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_souriau_witness_rejects_non_transverse(alg):
    rng = np.random.default_rng(76)
    sigma = bd.random_shilov(alg, rng)
    l1 = bd.lift(sigma)
    l2 = bd.lift(bd.random_shilov(alg, rng))
    with pytest.raises(DomainError):
        ix.souriau_m_witness(l1, l2, l1)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_gray_zone_policy(alg):
    frame = al.standard_frame(alg)
    r = alg.rank
    base = np.linspace(-2.0, 2.0, r)
    # strand 0 sits near-coincident; the others are well separated
    near = base + 1.0
    near[0] = base[0] + 3e-7  # inside the strict-refusal gray band
    s_near = bd.from_unit_spectrum(alg, near, frame)
    s_base = bd.from_unit_spectrum(alg, base, frame)
    with pytest.raises(AmbiguityError):
        ix.mu(s_near, s_base, Tolerances(mode=STRICT))
    assert ix.mu(s_near, s_base, Tolerances(mode=PERMISSIVE)) == 0
    # distance 3e-8: a genuine coincidence in both modes
    close = base + 1.0
    close[0] = base[0] + 3e-8
    s_close = bd.from_unit_spectrum(alg, close, frame)
    assert ix.mu(s_close, s_base, Tolerances(mode=STRICT)) == 1
    assert ix.mu(s_close, s_base, Tolerances(mode=PERMISSIVE)) == 1


# --------------------------------------------------------------------- iota

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_orbit_values(alg):
    r = alg.rank
    e = unit_pt(alg)
    neg = neg_unit_pt(alg)
    for k in range(r + 1):
        rep = ix.maslov_iota(e, neg, minus_i_eps(alg, k))
        assert rep.value == 2 * k - r
    rng = np.random.default_rng(77)
    sigma = bd.random_shilov(alg, rng)
    tau = bd.random_shilov(alg, rng)
    assert ix.maslov_iota(sigma, sigma, tau).value == 0
    assert ix.maslov_iota(sigma, tau, tau).value == 0
    assert ix.maslov_iota(tau, sigma, tau).value == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_total_antisymmetry(alg):
    rng = np.random.default_rng(78)
    pts = [bd.random_shilov(alg, rng) for _ in range(3)]
    base = ix.maslov_iota(*pts).value
    assert abs(base) <= alg.rank
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        got = ix.maslov_iota(pts[perm[0]], pts[perm[1]], pts[perm[2]]).value
        assert got == sign * base


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_word_invariance(alg):
    rng = np.random.default_rng(79)
    for _ in range(3):
        pts = [bd.random_shilov(alg, rng) for _ in range(3)]
        g = bd.random_word(alg, rng, mode="mixed")
        want = ix.maslov_iota(*pts).value
        got = ix.maslov_iota(*[bd.apply_word(g, p) for p in pts]).value
        assert got == want


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_leray_formula(alg):
    rng = np.random.default_rng(80)
    for coincide in (0, min(1, alg.rank)):
        for _ in range(3):
            _, angle_sets, pts = shared_frame_points(alg, rng, 3, coincide=coincide)
            lifts = [bd.lift(p, int(rng.integers(-1, 2))) for p in pts]
            msum = (ix.souriau_m(lifts[0], lifts[1]).value
                    + ix.souriau_m(lifts[1], lifts[2]).value
                    + ix.souriau_m(lifts[2], lifts[0]).value)
            assert ix.maslov_iota(*pts).value == msum


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_cocycle_relation(alg):
    rng = np.random.default_rng(81)
    tuples = []
    for _ in range(3):
        tuples.append([bd.random_shilov(alg, rng) for _ in range(4)])
    pts = [bd.random_shilov(alg, rng) for _ in range(3)]
    tuples.append(pts + [pts[1]])  # repeated point
    _, _, shared = shared_frame_points(alg, rng, 4, coincide=min(1, alg.rank))
    tuples.append(shared)
    for q in tuples:
        total = (ix.maslov_iota(q[0], q[1], q[2]).value
                 - ix.maslov_iota(q[0], q[1], q[3]).value
                 + ix.maslov_iota(q[0], q[2], q[3]).value
                 - ix.maslov_iota(q[1], q[2], q[3]).value)
        assert total == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_iota_reports_the_raw_value_it_rounds(alg):
    """maslov_iota reports the value it rounded: on a transverse triple the
    angle sum over pi of its three pair passes, otherwise the sum of the
    three Souriau values of canonical lifts before rounding, with residual
    |raw - value|; inertia_j's residual is half of it.  On random triples
    the raw value is not always an exact integer."""
    rng = np.random.default_rng(5)
    triples = [[bd.random_shilov(alg, rng) for _ in range(3)] for _ in range(12)]
    triples.append(shared_frame_points(alg, rng, 3, coincide=1)[2])
    inexact = 0
    for pts in triples:
        rep = ix.maslov_iota(*pts)
        rows = ix.pair_angles(pts, pts[1:] + pts[:1])
        if all(ix.transversal(p, q) for p, q in zip(pts, pts[1:] + pts[:1])):
            assert rep.raw == sum(float(np.sum(a)) for a in rows) / math.pi
        else:
            lifts = [bd.lift(p) for p in pts]
            assert rep.raw == sum(ix.souriau_m(lifts[k], lifts[(k + 1) % 3]).raw
                                  for k in range(3))
        assert rep.residual == abs(rep.raw - rep.value) <= DEFAULT.integer
        inexact += rep.residual > 0.0
        assert ix.inertia_j(*pts).residual == pytest.approx(0.5 * rep.residual,
                                                            abs=1e-15)
    assert inexact > 0


# ------------------------------------------------------------ closed oracles

def test_ord_examples():
    assert ix.ord_triple(0.0, math.pi / 2, math.pi) == 1
    assert ix.ord_triple(0.0, 0.0, math.pi) == 0
    assert ix.ord_triple(0.0, -math.pi / 2, math.pi) == -1
    assert ix.ord_triple(0.0, math.pi / 2, math.pi) == -ix.ord_triple(
        math.pi, math.pi / 2, 0.0)
    # coincidence modulo 2 pi
    assert ix.ord_triple(0.0, 2 * math.pi, math.pi) == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_shared_frame_oracles(alg):
    rng = np.random.default_rng(82)
    for _ in range(10):
        coincide = int(rng.integers(0, alg.rank + 1))
        _, angle_sets, pts = shared_frame_points(alg, rng, 3, coincide=coincide)
        a1, a2, a3 = angle_sets
        want = ix.iota_shared_frame(a1, a2, a3)
        assert ix.maslov_iota(*pts).value == want
        k1, k2 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        l1 = shared_frame_lift(pts[0], a1, k1)
        l2 = shared_frame_lift(pts[1], a2, k2)
        want_m = ix.m_shared_frame(a1, l1.theta, a2, l2.theta)
        assert ix.souriau_m(l1, l2).value == want_m


# ---------------------------------------------------- inertia / Arnold / ALM

@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_inertia_values(alg):
    r = alg.rank
    e = unit_pt(alg)
    neg = neg_unit_pt(alg)
    for k in range(r + 1):
        assert ix.inertia_j(e, neg, minus_i_eps(alg, k)).value == k
    sigma = bd.random_shilov(alg, np.random.default_rng(83))
    assert ix.inertia_j(sigma, sigma, sigma).value == r


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_inertia_cocycle(alg):
    rng = np.random.default_rng(84)
    for _ in range(3):
        q = [bd.random_shilov(alg, rng) for _ in range(4)]
        total = (ix.inertia_j(q[0], q[1], q[2]).value
                 - ix.inertia_j(q[0], q[1], q[3]).value
                 + ix.inertia_j(q[0], q[2], q[3]).value
                 - ix.inertia_j(q[1], q[2], q[3]).value)
        assert total == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_and_alm(alg):
    r = alg.rank
    le = bd.LiftedPoint(unit_pt(alg), 0.0)
    assert ix.arnold_nu(le, le).value == -r
    rng = np.random.default_rng(85)
    for coincide in (0, min(1, r)):
        _, (a1, a2), (s1, s2) = shared_frame_points(alg, rng, 2, coincide=coincide)
        l1 = shared_frame_lift(s1, a1)
        l2 = shared_frame_lift(s2, a2)
        m = ix.souriau_m(l1, l2).value
        muv = ix.mu(s1, s2)
        nu = ix.arnold_nu(l1, l2).value
        nn = ix.alm_n(l1, l2).value
        assert nu == (m - muv - r) // 2
        assert nn == (m + muv + r) // 2
        assert nn == nu + muv + r


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_alm_is_primitive_of_inertia(alg):
    rng = np.random.default_rng(86)
    for _ in range(3):
        pts = [bd.random_shilov(alg, rng) for _ in range(3)]
        lifts = [bd.lift(p, int(rng.integers(-1, 2))) for p in pts]
        jv = ix.inertia_j(*pts).value
        total = (ix.alm_n(lifts[0], lifts[1]).value
                 - ix.alm_n(lifts[0], lifts[2]).value
                 + ix.alm_n(lifts[1], lifts[2]).value)
        assert jv == total
