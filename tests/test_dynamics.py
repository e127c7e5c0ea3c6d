"""Path crossing indices, quasimorphism, translation and rotation numbers."""

import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import _oracles as orc
from _cases import ALGEBRAS, IDS
from maslov_kit import _lapack
from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import dynamics as dy
from maslov_kit import indices as ix
from maslov_kit.config import DEFAULT, PERMISSIVE, STRICT, Tolerances
from maslov_kit.errors import AmbiguityError, DomainError, MaslovKitError
from maslov_kit.schemas import parse_path, serialize_algebra

TWO_PI = 2.0 * math.pi


def phase_loop(sigma, turns=1.0):
    """Path t -> e^{2 pi i turns t} sigma."""
    def fn(t):
        return bd.ShilovPoint(np.exp(2j * math.pi * turns * t) * sigma.value)
    return fn


def off_boundary(value):
    """ShilovPoint(value) for a value up to 1e-3 off S: built while the
    constructor's BOUNDARY reads 1e-3, for a sample that pair_angles refuses
    at the fixed cutoff."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(bd, "BOUNDARY", 1e-3)
        return bd.ShilovPoint(value)


def transverse_pair(alg, rng):
    """Random (sigma, ref) whose relative eigenangles stay 0.05 from pi."""
    while True:
        sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
        angles = bd.shilov_spectral(ix.relative_element(sigma, ref)).angles
        if float(np.min(math.pi - np.abs(angles))) >= 0.05:
            return sigma, ref


def frame_path_fn(alg, frame, starts, drifts, amps, phases):
    def fn(t):
        angles = starts + drifts * t + amps * np.sin(TWO_PI * t + phases)
        return bd.from_unit_spectrum(alg, angles, frame)
    return fn


def rich_path(alg, seed):
    """A crossing-rich shared-frame path with transverse endpoints w.r.t. e."""
    rng = np.random.default_rng(seed)
    frame = al.random_frame(alg, rng)
    r = alg.rank
    starts = rng.uniform(0.4, 2.0, r) * rng.choice([-1.0, 1.0], r)
    drifts = rng.uniform(-3.0, 3.0, r) * math.pi
    amps = rng.uniform(0.0, 0.7, r)
    phases = rng.uniform(0.0, TWO_PI, r)
    # keep both endpoints clearly off the cycle {angle = 0 mod 2 pi}
    for j in range(r):
        for _ in range(40):
            end = starts[j] + drifts[j]
            if min(abs(bd.wrap_angle(starts[j])), abs(bd.wrap_angle(end))) > 0.2:
                break
            drifts[j] += 0.3
    return dy.BoundaryPath.from_function(
        frame_path_fn(alg, frame, starts, drifts, amps, phases), n=129)


def test_boundary_path_validation():
    alg = al.algebra(al.SYM_R, 2)
    sigma = bd.unit_shilov(alg)
    with pytest.raises(DomainError):
        dy.BoundaryPath([(0.0, sigma)])
    with pytest.raises(DomainError):
        dy.BoundaryPath([(0.1, sigma), (1.0, sigma)])
    with pytest.raises(DomainError):
        dy.BoundaryPath([(0.0, sigma), (0.0, sigma), (1.0, sigma)])
    other = bd.unit_shilov(al.algebra(al.SPIN, 3))
    with pytest.raises(DomainError):
        dy.BoundaryPath([(0.0, sigma), (1.0, other)])
    path = dy.BoundaryPath([(0.0, sigma), (1.0, sigma)])
    with pytest.raises(AttributeError):
        path.samples = ()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_boundary_path_refusal_names_its_sample(alg):
    """BoundaryPath tests the start, then the order (a NaN or an infinity
    fails it), then the end, and its refusal names the first faulty sample
    in `row`; so does a sample of another algebra."""
    sigma = bd.random_shilov(alg, np.random.default_rng(5))
    other = bd.unit_shilov(al.algebra(al.SPIN, 4) if alg.kind != al.SPIN
                           else al.algebra(al.SYM_R, 2))
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    increasing = "sample times must be strictly increasing, got "
    for changes, row, message in [
            ({0: 0.001}, 0, "the path must start at t = 0, got 0.001"),
            ({0: math.nan}, 0, "the path must start at t = 0, got nan"),
            ({2: 0.25}, 2, increasing + "0.25 after 0.25"),
            ({2: 0.125}, 2, increasing + "0.125 after 0.25"),
            ({2: math.nan}, 2, increasing + "nan after 0.25"),
            ({2: math.inf}, 3, increasing + "0.75 after inf"),
            ({2: -math.inf}, 2, increasing + "-inf after 0.25"),
            ({4: math.nan}, 4, increasing + "nan after 0.75"),
            ({4: 0.9999}, 4, "the path must end at t = 1, got 0.9999"),
            ({4: math.inf}, 4, "the path must end at t = 1, got inf"),
            ({3: 0.5, 4: 0.9}, 3, increasing + "0.5 after 0.5")]:
        times = [changes.get(k, t) for k, t in enumerate(ts)]
        with pytest.raises(DomainError) as err:
            dy.BoundaryPath([(t, sigma) for t in times])
        assert (str(err.value), err.value.row) == (message, row), changes
    points = [sigma, sigma, sigma, other, sigma]
    with pytest.raises(DomainError) as err:
        dy.BoundaryPath(zip(ts, points))
    assert (str(err.value), err.value.row) == ("all path samples must share one algebra", 3)
    assert len(dy.BoundaryPath([(t, sigma) for t in ts]).samples) == 5


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_eigenangle_flow_constant_path(alg):
    rng = np.random.default_rng(91)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    flow = dy.eigenangle_flow(dy.constant_path(sigma, n=9), ref)
    assert flow.strands.shape == (9, alg.rank)
    assert np.allclose(flow.strands, flow.strands[0], atol=1e-8)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_eigenangle_flow_full_loop_gains_two_pi(alg):
    rng = np.random.default_rng(92)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    path = dy.BoundaryPath.from_function(phase_loop(sigma), n=65)
    flow = dy.eigenangle_flow(path, ref)
    gains = flow.strands[-1] - flow.strands[0]
    assert np.allclose(gains, TWO_PI, atol=1e-6)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_full_loop_and_reverse(alg):
    rng = np.random.default_rng(93)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    loop = dy.BoundaryPath.from_function(phase_loop(sigma), n=65)
    assert dy.arnold_number(loop, ref) == alg.rank
    back = dy.BoundaryPath.from_function(phase_loop(sigma, turns=-1.0), n=65)
    assert dy.arnold_number(back, ref) == -alg.rank
    records = dy.crossing_records(dy.eigenangle_flow(loop, ref))
    assert [rec.sign for rec in records] == [1] * alg.rank


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_transverse_path_is_zero(alg):
    rng = np.random.default_rng(94)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    margin = float(np.min(np.abs(np.abs(
        bd.shilov_spectral(ix.relative_element(sigma, ref)).angles) - math.pi)))
    wig = 0.4 * margin

    def fn(t):
        return bd.ShilovPoint(
            np.exp(1j * wig * math.sin(TWO_PI * t)) * sigma.value)

    path = dy.BoundaryPath.from_function(fn, n=33)
    assert dy.arnold_number(path, ref) == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_endpoint_on_cycle_rejected(alg):
    rng = np.random.default_rng(95)
    sigma = bd.random_shilov(alg, rng)
    path = dy.BoundaryPath.from_function(phase_loop(sigma), n=33)
    with pytest.raises(DomainError):
        dy.arnold_number(path, sigma)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_concatenation_additivity(alg):
    path = rich_path(alg, seed=96)
    ref = bd.unit_shilov(alg)
    total = dy.arnold_number(path, ref)
    fn = path.sampler
    for alpha in (0.25, 0.37, 0.5, 0.75):
        left = dy.BoundaryPath.from_function(lambda s: fn(s * alpha), n=97)
        right = dy.BoundaryPath.from_function(
            lambda s: fn(alpha + s * (1 - alpha)), n=97)
        assert dy.arnold_number(left, ref) + dy.arnold_number(right, ref) == total


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_arnold_refinement_invariance(alg):
    path = rich_path(alg, seed=97)
    ref = bd.unit_shilov(alg)
    fn = path.sampler
    fine = dy.BoundaryPath.from_function(fn, n=257)
    assert dy.arnold_number(path, ref) == dy.arnold_number(fine, ref)
    coarse = dy.BoundaryPath.from_function(fn, n=5)
    assert dy.arnold_number(coarse, ref) == dy.arnold_number(fine, ref)


def match_step(prev, raw):
    """Continue `prev` by the flow's matching kernel on one step: sort the
    wrapped angles, match by one cyclic shift, scatter the moves back.
    Returns (continued angles, max single-strand motion)."""
    src = np.argsort(bd.wrap_angle(prev))
    _, moves, span = dy._match_shifts(bd.wrap_angle(prev[src])[None],
                                      np.sort(raw)[None])
    out = np.empty(prev.size)
    out[src] = moves[0]
    return prev + out, float(span[0])


def assert_matching_optimal(prev, raw):
    """Circular matching against the permutation search: the same total
    motion, no larger largest move, the same sum of continued angles."""
    got, got_max = match_step(prev, raw)
    want, want_max = orc.match_step_brute(prev, raw)
    assert np.sum(np.abs(got - prev)) == pytest.approx(
        np.sum(np.abs(want - prev)), abs=1e-12)
    assert got_max <= want_max + 1e-12
    assert np.sum(got) == pytest.approx(np.sum(want), abs=1e-12)
    return got, want


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_match_step_matches_permutation_search(r):
    rng = np.random.default_rng(200 + r)
    for _ in range(150):
        prev = rng.uniform(-10.0, 10.0, r)
        assert_matching_optimal(prev, rng.uniform(-math.pi, math.pi, r))
        # path-like step: small moves, labels shuffled by the eigensolver
        step = rng.uniform(-1.0, 1.0, r) * min(math.pi / 4, math.pi / r)
        assert_matching_optimal(prev, bd.wrap_angle(rng.permutation(prev + step)))


def test_match_step_same_direction_tie():
    # both strands move up, by 0.327 and 0.040 or by 0.319 and 0.048: the
    # crossing and non-crossing matchings tie in cost, so the two searches
    # may label the strands differently but agree on the set of angles
    prev = np.array([3.717, 3.996])
    raw = np.array([-2.239, -2.247])
    got, want = assert_matching_optimal(prev, raw)
    assert np.allclose(np.sort(got), np.sort(want), atol=1e-12)


def test_coarse_path_without_sampler_errors():
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(98)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    fn = phase_loop(sigma)
    ts = np.linspace(0.0, 1.0, 5)
    bare = dy.BoundaryPath([(t, fn(t)) for t in ts])  # no sampler
    with pytest.raises(AmbiguityError):
        dy.eigenangle_flow(bare, ref)


def bare_phase_loop(sigma, turns, ts, off=None):
    """Samples of e^{2 pi i turns t} sigma on ts, with no sampler; sample
    `off` is scaled by 1 + 1e-5 and admitted under a loose boundary check."""
    samples = [(t, phase_loop(sigma, turns)(t)) for t in ts]
    if off is not None:
        t, p = samples[off]
        samples[off] = (t, off_boundary((1 + 1e-5) * p.value))
    return dy.BoundaryPath(samples)


def outcome(fn):
    try:
        return fn()
    except MaslovKitError as exc:
        return exc


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_one_boundary_cutoff_on_every_route(alg):
    """A raw element 1e-5 off S is refused with the message of ShilovPoint
    as a stored path sample, as a sampler's value inside eigenangle_flow
    and as a parsed path sample; one 1e-9 off S is accepted by all four."""
    rng = np.random.default_rng(3)
    sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
    grid = dy.BoundaryPath([(t, ref) for t in (0.0, 0.5, 1.0)])
    for scale, refused in ((1 + 1e-5, True), (1 + 1e-9, False)):
        raw = scale * sigma.value
        merged = dy.BoundaryPath([(0.0, sigma), (1.0, sigma)],
                                 sampler=lambda t, raw=raw: raw if t == 0.5 else sigma)
        doc = {"algebra": serialize_algebra(alg), "samples": [
            {"t": t, "coords_re": z.coords.real.tolist(),
             "coords_im": z.coords.imag.tolist()}
            for t, z in ((0.0, raw), (1.0, sigma.value))]}
        got = [outcome(route) for route in (
            lambda: bd.ShilovPoint(raw),
            lambda: dy.BoundaryPath([(0.0, raw), (1.0, sigma)]),
            lambda: dy.eigenangle_flow(merged, grid),
            lambda: parse_path(doc))]
        if refused:
            message = str(got[0])
            assert message.startswith("not on the Shilov boundary (residual")
            assert all(type(exc) is DomainError and str(exc).endswith(message)
                       for exc in got)
        else:
            assert not any(isinstance(exc, MaslovKitError) for exc in got)


def test_flow_raises_earliest_error():
    """A batched grid raises the error of the earliest failing step: the
    ambiguous first step, not the refusal of a later sample or the missing
    sample of a later merged time."""
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(5)
    sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
    ts = np.linspace(0.0, 1.0, 9)
    loop = bare_phase_loop(sigma, 3, ts, off=6)
    with pytest.raises(DomainError, match="off the unit circle"):
        ix.pair_angles([loop.samples[6][1]], [ref])
    with pytest.raises(AmbiguityError,
                       match=r"between t=0 and t=0\.125 .* no sampler"):
        dy.eigenangle_flow(loop, ref)
    # a missing sample at t = 0.25 on the merged grid, after the same step
    other = dy.BoundaryPath([(t, ref) for t in (0.0, 0.125, 0.3, 1.0)])
    with pytest.raises(AmbiguityError,
                       match=r"between t=0 and t=0\.125 .* no sampler"):
        dy.eigenangle_flow(bare_phase_loop(sigma, 3, ts), other)
    # with no ambiguous step before them, the later errors are raised
    fine = np.linspace(0.0, 1.0, 33)
    with pytest.raises(DomainError, match="off the unit circle"):
        dy.eigenangle_flow(bare_phase_loop(sigma, 1, fine, off=6), ref)
    with pytest.raises(DomainError, match="different sample grids"):
        dy.eigenangle_flow(bare_phase_loop(sigma, 1, fine), other)
    for path, reference in ((loop, ref), (bare_phase_loop(sigma, 1, fine, off=6), ref),
                            (bare_phase_loop(sigma, 1, fine), other)):
        got = outcome(lambda: dy.eigenangle_flow(path, reference))
        want = outcome(lambda: orc.eigenangle_flow_sequential(path, reference))
        assert type(got) is type(want) and str(got) == str(want)


def test_flow_takes_a_path_and_a_reference_on_its_algebra():
    """The first argument must be a path, and the reference, a point or a
    path, must lie on the path's algebra."""
    alg, other = al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2)
    rng = np.random.default_rng(7)
    sigma, stranger = bd.random_shilov(alg, rng), bd.random_shilov(other, rng)
    path = dy.constant_path(sigma)
    with pytest.raises(DomainError, match="^first argument must be a BoundaryPath$"):
        dy.eigenangle_flow(sigma, path)
    for reference in (stranger, dy.constant_path(stranger)):
        with pytest.raises(DomainError) as info:
            dy.eigenangle_flow(path, reference)
        assert str(info.value) == f"algebra mismatch: {alg} vs {other}"


def test_flow_raises_a_midpoint_on_another_algebra_at_once(monkeypatch):
    """A sampler value on another algebra at the first midpoint of a level is
    the first row of that level's pair pass, refused there: the error is
    raised at once, with no further match, as the sequential walk raises
    it."""
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(5)
    sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
    stranger = bd.random_shilov(al.algebra(al.SPIN, 3), rng)
    loop = phase_loop(sigma, 3)
    path = dy.BoundaryPath([(t, loop(t)) for t in np.linspace(0.0, 1.0, 9)],
                           sampler=lambda t: stranger if t == 0.0625 else loop(t))
    match_shifts, matches = dy._match_shifts, []

    def counted(a, b):
        matches.append(len(a))
        return match_shifts(a, b)

    monkeypatch.setattr(dy, "_match_shifts", counted)
    got = outcome(lambda: dy.eigenangle_flow(path, ref))
    assert type(got) is DomainError
    assert str(got) == f"algebra mismatch: {stranger.alg} vs {alg}"
    assert matches == [8]
    want = outcome(lambda: orc.eigenangle_flow_sequential(path, ref))
    assert type(want) is DomainError and str(want) == str(got)


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 5)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_flow_makes_one_pair_pass_per_grid(alg, monkeypatch):
    """One pair pass and one batched match cover the whole grid, and one
    more of each every refinement level, the pass over the level's
    midpoints; no kind builds w or a frame."""
    calls, matches, frames = [], [], []
    match_shifts = dy._match_shifts

    def counted(sigmas, taus, *rest):
        calls.append(len(sigmas))
        return ix._pair_rows(sigmas, taus, *rest)

    def matched(a, b):
        matches.append(len(a))
        return match_shifts(a, b)

    def framed(name):
        orig = getattr(ix, name)

        def wrapper(*args, **kwargs):
            frames.append(name)
            return orig(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dy, "_pair_rows", counted)
    monkeypatch.setattr(dy, "_match_shifts", matched)
    for name in ("relative_element", "shilov_spectral"):
        monkeypatch.setattr(ix, name, framed(name))
    rng = np.random.default_rng(109)
    sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
    dy.eigenangle_flow(dy.BoundaryPath.from_function(phase_loop(sigma), n=65), ref)
    assert calls == [65] and matches == [64]
    calls.clear()
    matches.clear()
    path = rich_path(alg, seed=97)
    flow = dy.eigenangle_flow(path, bd.unit_shilov(alg))
    assert calls == [129] and matches == [128] and len(flow.t) == 129
    calls.clear()
    matches.clear()
    coarse = dy.BoundaryPath.from_function(path.sampler, n=5)
    flow = dy.eigenangle_flow(coarse, bd.unit_shilov(alg))
    deepest = math.log2(0.25 / float(np.min(np.diff(flow.t))))
    assert calls[0] == 5 and sum(calls) == len(flow.t)
    assert len(calls) - 1 == deepest >= 1
    assert len(matches) == len(calls) and matches[-1] == len(flow.t) - 1
    assert frames == []


def refined_only_at_the_limit(flow, other):
    """Every sample time of `other` missing from `flow` halves a step of
    `flow` whose largest move is the step limit to rounding: there the
    refine decision rests on the last bits of the move."""
    limit = min(dy.STRAND_STEP_LIMIT, math.pi / flow.strands.shape[1])
    for tm in np.setdiff1d(other.t, flow.t):
        k = int(np.searchsorted(flow.t, tm))
        move = float(np.max(np.abs(flow.strands[k] - flow.strands[k - 1])))
        assert abs(move - limit) <= 1e-12, (tm, move, limit)


def assert_flows_agree(path, reference):
    """The batched flow against the sequential oracle: the same refusal
    class, or the same times (but for steps at the limit), the same strands
    up to ties at every common time, and the same counts."""
    got = outcome(lambda: dy.eigenangle_flow(path, reference))
    want = outcome(lambda: orc.eigenangle_flow_sequential(path, reference))
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        return
    refined_only_at_the_limit(got, want)
    refined_only_at_the_limit(want, got)
    _, i, j = np.intersect1d(got.t, want.t, return_indices=True)
    gap = np.abs(np.sort(got.strands[i], axis=1) - np.sort(want.strands[j], axis=1))
    assert float(np.max(gap)) <= 1e-12
    for count in (dy.arnold_count, dy.pair_path_count):
        a, b = outcome(lambda: count(got)[0]), outcome(lambda: count(want)[0])
        assert type(a) is type(b) and (isinstance(a, Exception) or a == b)
    return np.array_equal(got.t, want.t)


@pytest.mark.parametrize("kind,m", [(al.SYM_R, 5), (al.SYM_R, 6), (al.HERM_C, 4)],
                         ids=["sym-r-5", "sym-r-6", "herm-c-4"])
def test_flow_matches_sequential_oracle_undersampled(kind, m):
    # the 144-loop corpus of test_arnold_undersampled_phase_loop; phase
    # loops move every strand by the same step, and on sym-r 6 at n = 13
    # and herm-c 4 at n = 17 (2 turns) a step or its half is the limit
    alg = al.algebra(kind, m)
    same = []
    for seed in range(12):
        sigma, ref = transverse_pair(alg, np.random.default_rng(seed))
        for n, turns in ((8, 1), (10, 1), (13, 2), (17, 2)):
            loop = dy.BoundaryPath.from_function(phase_loop(sigma, turns), n=n)
            same.append(assert_flows_agree(loop, ref))
    assert sum(same) >= 36


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, m) for m in (7, 8, 10, 12, 16)]
                         + [al.algebra(al.HERM_C, m) for m in (6, 8)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_flow_matches_sequential_oracle_rank_sweep(alg):
    sigma, ref = transverse_pair(alg, np.random.default_rng(alg.param))
    for turns in (-1, 1, 2):
        assert_flows_agree(
            dy.BoundaryPath.from_function(phase_loop(sigma, turns), n=33), ref)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_flow_matches_sequential_oracle_refining(alg):
    # the paths of test_arnold_refinement_invariance, and the merged grid of
    # a pair path against a constant one
    path = rich_path(alg, seed=97)
    ref = bd.unit_shilov(alg)
    for n in (5, 129):
        assert_flows_agree(dy.BoundaryPath.from_function(path.sampler, n=n), ref)
    assert_flows_agree(path, dy.constant_path(ref))


def jump_path(fn, n, jump, window, off=False):
    """The path fn on n samples, turned by e^{1.5 i} from t = jump on
    (the steps across it exceed the limit at every depth), whose sampler
    refuses every t strictly inside window; the grid samples are taken
    directly, and with `off` the last but one is moved off the boundary as
    in bare_phase_loop, so that pair_angles refuses it."""

    def turned(t):
        p = fn(t)
        if jump is not None and t >= jump:
            p = bd.ShilovPoint(np.exp(1.5j) * p.value)
        return p

    def sampler(t):
        if window is not None and window[0] < t < window[1]:
            raise DomainError(f"sample refused at t={t:.6g}")
        return turned(t)

    samples = [(t, turned(t)) for t in np.linspace(0.0, 1.0, n)]
    if off:
        t, p = samples[-2]
        samples[-2] = (t, off_boundary((1 + 1e-5) * p.value))
    return dy.BoundaryPath(samples, sampler=sampler)


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 5)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_flow_error_order_across_levels(alg, monkeypatch):
    """Stuck steps at maximum refinement, refused midpoint samples and a
    refused grid sample after them: the error raised is the sequential
    walk's, class and message; where none is met, the flows agree."""
    fn, ref = rich_path(alg, seed=97).sampler, bd.unit_shilov(alg)
    seen = set()
    for jump in (0.3, 0.8, None):
        for window in ((0.6, 0.7), (0.26, 0.3), None):
            for n, off in ((2, False), (5, False), (9, False), (5, True), (9, True)):
                path = jump_path(fn, n, jump, window, off)
                got = outcome(lambda: dy.eigenangle_flow(path, ref))
                want = outcome(lambda: orc.eigenangle_flow_sequential(path, ref))
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want)
                    seen.add(str(want).split(" ")[0])
                else:
                    assert_flows_agree(path, ref)
                    seen.add("flow")
    assert seen == {"strand", "sample", "not", "flow"}
    # one level's midpoints hold a pair off the boundary, then one of another
    # algebra; the next level's first midpoint cannot be taken, and is
    # raised first
    loop = phase_loop(bd.random_shilov(alg, np.random.default_rng(112)))
    other = bd.random_shilov(al.algebra(al.SYM_R, 3), np.random.default_rng(113))

    def sampler(t):
        if 0.0 < t < 0.1:
            raise DomainError(f"sample refused at t={t:.6g}")
        if abs(t - 0.5) < 1e-9:
            return bd.ShilovPoint((1 + 1e-9) * loop(t).value)
        return other if 0.8 < t < 0.9 else loop(t)

    path = dy.BoundaryPath([(t, loop(t)) for t in np.linspace(0.0, 1.0, 4)],
                           sampler=sampler)
    monkeypatch.setattr(ix, "BOUNDARY", 1e-12)
    got = outcome(lambda: dy.eigenangle_flow(path, ref))
    want = outcome(lambda: orc.eigenangle_flow_sequential(path, ref))
    assert type(got) is type(want) is DomainError
    assert str(got) == str(want) == "sample refused at t=0.0833333"


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_pair_path_reproduces_arnold(alg):
    path = rich_path(alg, seed=99)
    ref = bd.unit_shilov(alg)
    want = dy.arnold_number(path, ref)
    got = dy.pair_path_index(dy.constant_path(ref), path)
    assert got == want


@pytest.mark.parametrize("alg, carry", orc.JORDAN_MAPS,
                         ids=[f"{a.kind}-{a.param}" for a, _ in orc.JORDAN_MAPS])
def test_path_counts_commute_with_jordan_isomorphism(alg, carry):
    """The Jordan isomorphisms spin 3 -> sym-r 2 and spin 4 -> herm-c 2 and
    the inclusion sym-r n -> herm-c n carry a path sample by sample, and
    its sampler point by point (orc.map_path): arnold_number and
    pair_path_index are the same on both sides, on crossing-rich paths
    against e and a random point, pairs of them, and phase loops of 1 and
    -3 turns."""
    target, mat = carry(alg)
    rng = np.random.default_rng(87)
    paths = [rich_path(alg, seed) for seed in (96, 97, 101)]
    loops = [dy.BoundaryPath.from_function(
        phase_loop(bd.random_shilov(alg, rng), turns), n=33) for turns in (1, -3)]
    refs = [bd.unit_shilov(alg), bd.random_shilov(alg, rng)]
    arnold = [(path, ref) for path in paths + loops for ref in refs]
    pairs = list(zip(paths, paths[1:] + loops[:1]))
    crossings = 0
    for path, ref in arnold:
        want = orc.index_outcome(dy.arnold_number, path, ref)
        got = orc.index_outcome(dy.arnold_number, orc.map_path(path, target, mat),
                           orc.map_point(ref, target, mat))
        assert got == want
        crossings += isinstance(want, int) and want != 0
    for path1, path2 in pairs:
        want = orc.index_outcome(dy.pair_path_index, path1, path2)
        got = orc.index_outcome(dy.pair_path_index, orc.map_path(path1, target, mat),
                           orc.map_path(path2, target, mat))
        assert got == want
        crossings += isinstance(want, int) and want != 0
    assert crossings >= 8


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_pair_transverse_is_zero(alg):
    rng = np.random.default_rng(100)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    margin = float(np.min(np.abs(np.abs(
        bd.shilov_spectral(ix.relative_element(sigma, ref)).angles) - math.pi)))

    def fn(t):
        return bd.ShilovPoint(
            np.exp(1j * 0.3 * margin * math.sin(TWO_PI * t)) * sigma.value)

    pair = dy.pair_path_index(dy.constant_path(ref),
                              dy.BoundaryPath.from_function(fn, n=33))
    assert pair == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_pair_word_invariance(alg):
    rng = np.random.default_rng(101)
    path = rich_path(alg, seed=101)
    ref_path = dy.constant_path(bd.unit_shilov(alg))
    want = dy.pair_path_index(ref_path, path)
    g = bd.random_word(alg, rng, mode="mixed", scale=0.2)

    def push(fn):
        return lambda t: bd.apply_word(g, fn(t))

    moved1 = dy.BoundaryPath.from_function(push(ref_path.sampler), n=129)
    moved2 = dy.BoundaryPath.from_function(push(path.sampler), n=129)
    assert dy.pair_path_index(moved1, moved2) == want


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_pair_perturbation_theta_independent(alg):
    # endpoint angle of one strand parked exactly on pi: non-proper pair
    rng = np.random.default_rng(102)
    frame = al.random_frame(alg, rng)
    r = alg.rank
    starts = np.full(r, -2.5)
    drifts = np.linspace(1.0, 2.0, r) * math.pi

    def fn(t):
        angles = starts + drifts * t
        angles[0] = -math.pi + 1.5 * math.pi * t  # hits 0 (i.e. w-angle pi) at no interior grid point, ends at pi/2
        return bd.from_unit_spectrum(alg, angles, frame)

    # force endpoint degeneracy: strand 0 of w ends at pi when angle ends at 0
    def fn_deg(t):
        angles = starts + drifts * t
        angles[0] = -1.5 + 1.5 * t  # ends exactly at 0 -> w-angle pi
        return bd.from_unit_spectrum(alg, angles, frame)

    path = dy.BoundaryPath.from_function(fn_deg, n=129)
    ref = dy.constant_path(bd.unit_shilov(alg))
    value = dy.pair_path_index(ref, path)
    flow = dy.eigenangle_flow(path, bd.unit_shilov(alg))
    end_angles = np.concatenate([flow.strands[0], flow.strands[-1]])
    dists = np.abs(bd.wrap_angle(end_angles - math.pi))
    theta_max = 0.5 * float(np.min(dists[dists >= 1e-7]))
    for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
        count = sum(rec.sign for rec in dy.crossing_records(
            flow, math.pi - frac * theta_max))
        assert count == value


def test_pair_fully_degenerate_endpoint_errors():
    alg = al.algebra(al.SYM_R, 2)
    sigma = bd.unit_shilov(alg)
    path = dy.constant_path(sigma, n=5)
    with pytest.raises(DomainError):
        dy.pair_path_index(path, path)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_tangency_policy(alg):
    frame = al.standard_frame(alg)
    r = alg.rank
    base = np.linspace(1.0, 2.0, r)

    def fn(t):
        angles = base.copy()
        angles[0] = 0.4 * (t - 0.5) ** 2  # touches 0 tangentially at t = 0.5
        return bd.from_unit_spectrum(alg, angles, frame)

    path = dy.BoundaryPath.from_function(fn, n=65)
    ref = bd.unit_shilov(alg)
    with pytest.raises(AmbiguityError):
        dy.arnold_number(path, ref, Tolerances(mode=STRICT))
    assert dy.arnold_number(path, ref, Tolerances(mode=PERMISSIVE)) == 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_quasimorphism_identity_and_scalar_phase(alg):
    r = alg.rank
    base = dy.standard_base_lift(alg)
    assert dy.quasimorphism_c(bd.identity_word(alg), base) == 0
    rng = np.random.default_rng(103)
    for phi0 in (0.7, 2.0, -1.3):
        u = bd.GroupWord(alg, [bd.UnitaryGen([("exp-iL", phi0 * al.unit(alg))])])
        want = round((r * bd.wrap_angle(phi0 + math.pi)
                      - bd.wrap_angle(r * phi0)) / math.pi)
        assert dy.quasimorphism_c(u, base) == want
        other = bd.lift(bd.random_shilov(alg, rng), 1)
        assert dy.quasimorphism_c(u, other) == want


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_quasimorphism_defect_bounded(alg):
    rng = np.random.default_rng(104)
    r = alg.rank
    for _ in range(8):
        g1 = bd.random_word(alg, rng, mode="mixed", scale=0.3)
        g2 = bd.random_word(alg, rng, mode="mixed", scale=0.3)
        base = bd.lift(bd.random_shilov(alg, rng))
        c12 = dy.quasimorphism_c(bd.compose_words(g1, g2), base)
        defect = abs(c12 - dy.quasimorphism_c(g1, base)
                     - dy.quasimorphism_c(g2, base))
        assert defect <= r


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_translation_identity(alg):
    est, bound = dy.translation_tau(bd.identity_word(alg), 8)
    assert est == 0.0
    assert bound == pytest.approx(alg.rank / 8)


@pytest.mark.parametrize("power", [0, -3, 2.5, 8.0, math.nan, math.inf, True, False,
                                   "8", None, np.float64(8)],
                         ids=repr)
def test_translation_power_must_be_an_integer(power):
    """A power that is not an integer >= 1 is refused with a DomainError
    naming `power`, by translation_tau and rotation_rho alike: a float, even
    an integral one, NaN, inf, a bool (True is not K = 1) or a string."""
    word = bd.random_word(al.algebra(al.SYM_R, 2), np.random.default_rng(2), "mixed")
    for estimate in (dy.translation_tau, dy.rotation_rho):
        with pytest.raises(DomainError, match="^power must be an integer >= 1"):
            estimate(word, power)


def test_translation_power_takes_numpy_integers():
    """A numpy integer is a power like the Python int of the same value."""
    word = bd.random_word(al.algebra(al.SPIN, 5), np.random.default_rng(2), "mixed")
    want = dy.rotation_rho(word, 8)
    for power in (np.int64(8), np.int32(8), np.uint8(8)):
        assert dy.rotation_rho(word, power) == want
        assert dy.translation_tau(word, power) == dy.translation_tau(word, 8)
    with pytest.raises(DomainError, match="power must be an integer >= 1"):
        dy.translation_tau(word, np.int64(0))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_translation_scalar_phase(alg):
    r = alg.rank
    K = 12
    # K phi0 a multiple of 2 pi: the estimate is exact at finite K
    phi0 = 2 * TWO_PI / K
    u = bd.GroupWord(alg, [bd.UnitaryGen([("exp-iL", phi0 * al.unit(alg))])],
                     base_arg=r * phi0)
    est, bound = dy.translation_tau(u, K)
    assert est == pytest.approx(-r * phi0 / math.pi, abs=1e-9)
    # generic phi0: within the stated bound of the true value
    phi0 = 0.37
    u = bd.GroupWord(alg, [bd.UnitaryGen([("exp-iL", phi0 * al.unit(alg))])],
                     base_arg=r * phi0)
    est_k, bound_k = dy.translation_tau(u, K)
    assert abs(est_k - (-r * phi0 / math.pi)) <= bound_k + 1e-9
    est_2k, _ = dy.translation_tau(u, 2 * K)
    assert abs(est_2k - est_k) <= r / K + r / (2 * K) + 1e-9


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_translation_fixed_point_word(alg):
    # affine word z -> e^{0.3} z + b has the interior fixed point
    # z* = b / (1 - e^{0.3}); its boundary image is fixed by the word
    rng = np.random.default_rng(105)
    b = al.random_element(alg, rng, 0.3)
    g = bd.GroupWord(alg, [bd.LinearGen([("lmul", 0.3 * al.unit(alg))]),
                           bd.TranslateGen(b)])
    zstar = (1.0 / (1.0 - math.exp(0.3))) * b
    sigma_star = bd.as_shilov(bd.cayley_p(bd.complexify(zstar)))
    moved = bd.apply_word(g, sigma_star)
    assert np.allclose(moved.value.coords, sigma_star.value.coords, atol=1e-8)
    base = bd.lift(sigma_star)
    for K in (1, 2, 8):
        est, _ = dy.translation_tau(g, K, base=base)
        assert est == 0.0
    rho, _ = dy.rotation_rho(g, 8, base=base)
    assert min(rho, 1.0 - rho) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_rotation_matches_chi(alg):
    rng = np.random.default_rng(106)
    K = 24
    for _ in range(4):
        u = bd.random_word(alg, rng, mode="unitary")
        rho, bound = dy.rotation_rho(u, K)
        chi = bd.word_chi(u)
        assert abs(chi) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.exp(2j * math.pi * rho) - chi) <= TWO_PI * bound + 1e-6


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_rotation_conjugation_invariance(alg):
    rng = np.random.default_rng(107)
    K = 24
    u = bd.random_word(alg, rng, mode="unitary")
    h = bd.random_word(alg, rng, mode="mixed", scale=0.2)
    conj = bd.compose_words(bd.compose_words(h, u), h.inverse())
    rho_u, bound = dy.rotation_rho(u, K)
    rho_c, _ = dy.rotation_rho(conj, K)
    gap = abs(rho_u - rho_c)
    gap = min(gap, 1.0 - gap)
    assert gap <= 2 * bound + 1e-6


@pytest.mark.parametrize("mode", ["tube", "mixed"])
@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.SYM_R, 3),
                                 al.algebra(al.HERM_C, 2), al.algebra(al.HERM_C, 3),
                                 al.algebra(al.SPIN, 5)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_iterated_lifts_stay_defined(alg, mode):
    """32 iterated lifts of a valid word stay on the boundary and keep a
    determination, so no rotation number over these seeds is refused."""
    for seed in range(12):
        word = bd.random_word(alg, np.random.default_rng(seed), mode)
        rho, _ = dy.rotation_rho(word, 32)
        assert 0.0 <= rho < 1.0


ORBIT_ALGEBRAS = [al.algebra(al.SYM_R, 2), al.algebra(al.SYM_R, 3),
                  al.algebra(al.HERM_C, 2), al.algebra(al.HERM_C, 3),
                  al.algebra(al.SPIN, 5)]


def assert_same_lift(got, want):
    assert got.theta == want.theta
    assert np.array_equal(got.point.value.coords, want.point.value.coords)


def assert_same_outcome(got, want):
    """The same lift bit for bit, or the same error class and message."""
    if isinstance(want, MaslovKitError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert_same_lift(got, want)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_standard_base_lift_is_built_once(alg):
    """One build per algebra, which rotation numbers read under any tol."""
    dy.standard_base_lift.cache_clear()
    base, *others = [dy.standard_base_lift(alg) for _ in range(3)]
    assert dy.standard_base_lift.cache_info().misses == 1
    assert all(other is base for other in others)
    fresh = dy.standard_base_lift.__wrapped__(alg)
    assert fresh is not base
    assert_same_lift(fresh, base)
    tol = replace(DEFAULT, transverse=2e-7)
    word = bd.random_word(alg, np.random.default_rng(3), "mixed")
    assert dy.rotation_rho(word, 8, tol=tol) == dy.rotation_rho(
        word, 8, base=fresh, tol=tol)


@pytest.mark.parametrize("mode", ["unitary", "tube", "mixed"])
@pytest.mark.parametrize("alg", ORBIT_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_power_lift_matches_sequential_oracle(alg, mode):
    """The orbit walked once and checked in one batch is bit-identical to
    K calls of act_lift."""
    base = dy.standard_base_lift(alg)
    for seed in range(4):
        word = bd.random_word(alg, np.random.default_rng(seed), mode)
        other = bd.lift(bd.random_shilov(alg, np.random.default_rng(seed)), 1)
        for lifted in (base, other):
            for power in (1, 2, 32, 128):
                assert_same_outcome(
                    outcome(lambda: bd._power_lift(word, lifted, power)),
                    outcome(lambda: orc.power_lift_sequential(word, lifted, power)))


@pytest.mark.parametrize("alg", [al.algebra(al.SPIN, 3), al.algebra(al.SPIN, 4)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_orbit_walk_commutes_with_jordan_isomorphism(alg):
    """The Jordan isomorphisms spin 3 -> sym-r 2 and spin 4 -> herm-c 2 of
    tests/_oracles carry a word, generator by generator, and a lift, by its
    coordinates with theta kept.  The spin walk's (q + 2) x (q + 2) block
    and the matrix kind's 4 x 4 block then give the same orbit at K = 1, 8
    and 32 on tube, mixed and unitary words: images and theta within 1e-8
    and the same integer c(g^K)."""
    target, mat = orc.spin_to_matrix_kind(alg)
    for seed in range(40):
        for mode in ("tube", "mixed", "unitary"):
            rng = np.random.default_rng([seed, 73])
            word = bd.random_word(alg, rng, mode)
            base = bd.lift(bd.random_shilov(alg, rng), seed % 3 - 1)
            mword, mbase = orc.map_word(word, target, mat), orc.map_lift(base, target, mat)
            for power in (1, 8, 32):
                spin, matrix = bd._power_lift(word, base, power), bd._power_lift(
                    mword, mbase, power)
                image = mat @ spin.point.value.coords
                assert np.abs(image - matrix.point.value.coords).max() <= 1e-8
                assert abs(spin.theta - matrix.theta) <= 1e-8
                assert (ix.souriau_m(spin, base).value
                        == ix.souriau_m(matrix, mbase).value)


@pytest.mark.parametrize("mode", ["unitary", "tube", "mixed"])
@pytest.mark.parametrize("alg", ORBIT_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_rotation_orbit_makes_one_factor_pass_and_one_check(alg, mode, monkeypatch):
    """A rotation_rho orbit of K steps takes K image steps, one batched
    factor pass over the K step inputs and one boundary_refusals call over
    the K iterates, which also passes the returned point.  No image step
    goes through the matrix realization (_to_matrix, _from_matrix)."""
    log, running = [], []

    def count(name, size, module=bd):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            log.append((name,) + size(*args, **kwargs))
            running.append(name)
            try:
                return orig(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(module, name, counted)

    def in_image_step(*args):
        return ("in image step",) if "_lf_image" in running else ()

    for module in (al, bd):
        count("_to_matrix", in_image_step, module)
        count("_from_matrix", in_image_step, module)
    count("_lf_image", lambda form, z: ())
    count("_factor_rows", lambda form, rows: (len(rows),))
    count("boundary_refusals", lambda alg_, coords, thetas=None:
          (len(coords), thetas is not None))
    word = bd.random_word(alg, np.random.default_rng(5), mode)
    dy.standard_base_lift(alg)     # the cached base rotation_rho reads
    for power in (1, 2, 32):
        log.clear()
        dy.rotation_rho(word, power)
        assert log.count(("_lf_image",)) == power
        assert not [e for e in log if e[1:] == ("in image step",)]
        assert [e for e in log if e[0] == "_factor_rows"] == [("_factor_rows", power)]
        assert [e for e in log if e[0] == "boundary_refusals"] == [
            ("boundary_refusals", power, True)]


ROUTE_ALGEBRAS = ([al.algebra(al.SYM_R, m) for m in (2, 3, 6)]
                  + [al.algebra(al.HERM_C, m) for m in (2, 4)] + [al.algebra(al.SPIN, 5)])


@pytest.mark.parametrize("mode", ["unitary", "tube", "mixed"])
@pytest.mark.parametrize("alg", ROUTE_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_rotation_orbit_agrees_with_matrix_route(alg, mode, monkeypatch):
    """Orbits walked with the coordinate form and with the matrix route of
    tests/_oracles give equal c(g^K), or refusals of one class, at K = 32
    and 1 024: the form's rounding does not walk an orbit off S."""
    words = [bd.random_word(alg, np.random.default_rng([seed, 71]), mode)
             for seed in range(10)]

    def outcomes():
        return [outcome(lambda: dy.translation_tau(word, power))
                for word in words for power in (32, 1024)]

    got = outcomes()
    monkeypatch.setattr(bd, "_lf_image",
                        lambda form, z: orc.lf_image_matrix(form.alg, form.g, z))
    monkeypatch.setattr(bd, "_factor_rows", lambda form, rows: (
        orc.factor_rows_matrix(form.alg, form.g, rows)))
    want = outcomes()
    for new, old in zip(got, want):
        if isinstance(old, MaslovKitError):
            assert type(new) is type(old)
        else:
            assert new == old
    assert sum(not isinstance(old, MaslovKitError) for old in want) >= len(want) // 2


@pytest.mark.parametrize("alg", ORBIT_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_coordinate_form_is_built_once_and_read_only(alg, monkeypatch):
    """act_lift, compose_words and rotation_rho on one word build its
    coordinate form once, and nothing can write to its arrays."""
    built = []

    class Counted(bd._LfForm):
        def __init__(self, alg_, g):
            built.append(g)
            super().__init__(alg_, g)

    monkeypatch.setattr(bd, "_LfForm", Counted)
    word = bd.random_word(alg, np.random.default_rng(13), "mixed")
    bd.act_lift(word, dy.standard_base_lift(alg))
    bd.compose_words(word, word)
    dy.rotation_rho(word, 32)
    assert len(built) == 1 and built[0] is word.linear_fractional()[0]
    form = word.coordinate_form()
    arrays = [a for a in (form.g, form.lin, form.off, form.fac, form.out)
              if a is not None]
    assert len(arrays) == (1 if alg.kind == al.SPIN else 5)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0


@pytest.mark.parametrize("boundary", [1e-15, 3e-15, 1e-14])
@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 3),
                                 al.algebra(al.SPIN, 5)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_power_lift_raises_earliest_error(alg, boundary, monkeypatch):
    """Under a tight BOUNDARY, tube orbits are refused at inner iterates; the
    batched orbit raises the class and message of the sequential loop, at
    the same iterate."""
    monkeypatch.setattr(bd, "BOUNDARY", boundary)
    base = dy.standard_base_lift(alg)
    inner = []
    for seed in range(40):
        word = bd.random_word(alg, np.random.default_rng(seed), "tube")
        trail = []
        want = outcome(lambda: orc.power_lift_sequential(word, base, 32, trail))
        assert_same_outcome(outcome(lambda: bd._power_lift(word, base, 32)), want)
        if not isinstance(want, MaslovKitError):
            continue
        failing = len(trail) + 1
        inner.append(failing)
        # the iterate before the failing one is reached, the failing one raises
        if trail:
            assert_same_lift(bd._power_lift(word, base, failing - 1), trail[-1])
        assert_same_outcome(
            outcome(lambda: bd._power_lift(word, base, failing)), want)
    assert any(f < 32 for f in inner)


@pytest.mark.parametrize("lift_phase", [1e-14, 3e-15])
@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 5)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_power_lift_refuses_a_drifted_theta_as_the_loop(alg, lift_phase, monkeypatch):
    """Under a tight LIFT_PHASE the LiftedPoint test refuses orbits at inner
    iterates, where theta has drifted from Arg det sigma / r by rounding;
    the walk raises the class and message of the sequential loop at the same
    iterate, and its orbit one step shorter ends at the loop's last lift."""
    base = dy.standard_base_lift(alg)     # built at the fixed LIFT_PHASE
    monkeypatch.setattr(bd, "LIFT_PHASE", lift_phase)
    inner = []
    for seed in range(12):
        word = bd.random_word(alg, np.random.default_rng(seed),
                              ("tube", "mixed", "unitary")[seed % 3])
        trail = []
        want = outcome(lambda: orc.power_lift_sequential(word, base, 32, trail))
        assert_same_outcome(outcome(lambda: bd._power_lift(word, base, 32)), want)
        if isinstance(want, MaslovKitError):
            assert str(want).startswith("invalid lift")
            inner.append(len(trail) + 1)
            if trail:
                assert_same_lift(bd._power_lift(word, base, len(trail)), trail[-1])
    assert any(f < 32 for f in inner)


@pytest.mark.parametrize("alg, seed, boundary, failing", [
    (al.algebra(al.SYM_R, 2), 4, 1e-15, 17),
    (al.algebra(al.HERM_C, 3), 0, 1e-14, 15),
])
def test_power_lift_step_and_check_errors_in_order(monkeypatch, alg, seed,
                                                   boundary, failing):
    """A step error planted before the refused iterate is raised, and so is
    one planted at the step that yields it; one planted at the refused
    iterate or after it is not reached.  Step errors are planted in the
    verdicts of the batched checks; a step that fails the gate raises the
    gate's error even where its image raises."""
    base = dy.standard_base_lift(alg)
    word = bd.random_word(alg, np.random.default_rng(seed), "tube")
    loose = []      # the same orbit, accepted at the fixed BOUNDARY
    orc.power_lift_sequential(word, base, 32, loose)
    monkeypatch.setattr(bd, "BOUNDARY", boundary)
    trail = []
    with pytest.raises(DomainError, match="not on the Shilov boundary"):
        orc.power_lift_sequential(word, base, 32, trail)
    assert len(trail) + 1 == failing
    orbit = [base.point.value.coords] + [p.point.value.coords for p in loose]

    def at_step(step, rows):
        return [k for k, z in enumerate(rows) if np.array_equal(z, orbit[step - 1])]

    real_phi_rows = bd._phi_rows

    def plant(step):
        def phi_rows(word_, rows):
            phis, refused = real_phi_rows(word_, rows)
            for k in at_step(step, rows):
                refused[k] = AmbiguityError(f"planted at step {step}")
            return phis, refused
        return phi_rows

    for step, raised in [(failing - 3, f"planted at step {failing - 3}"),
                         (failing, f"planted at step {failing}"),
                         (failing + 1, "not on the Shilov boundary"),
                         (failing + 3, "not on the Shilov boundary")]:
        monkeypatch.setattr(bd, "_phi_rows", plant(step))
        want = outcome(lambda: orc.power_lift_sequential(word, base, 32))
        assert str(want).startswith(raised)
        assert_same_outcome(outcome(lambda: bd._power_lift(word, base, 32)), want)
    monkeypatch.setattr(bd, "_phi_rows", real_phi_rows)

    # step k fails the |mu| gate and its image solve raises LinAlgError: the
    # gate's DomainError wins; with the gate passing, the LinAlgError is raised
    step = failing - 3
    real_factor_rows, real_image = bd._factor_rows, bd._lf_image

    def factor_rows(form, rows):
        mu, refused = real_factor_rows(form, rows)
        for k in at_step(step, rows):
            refused[k] = DomainError(f"planted gate at step {step}")
        return mu, refused

    def lf_image(form, z):
        if np.array_equal(z, orbit[step - 1]):
            raise np.linalg.LinAlgError("planted singular image")
        return real_image(form, z)

    monkeypatch.setattr(bd, "_lf_image", lf_image)
    for lift_orbit in (lambda: orc.power_lift_sequential(word, base, 32),
                       lambda: bd._power_lift(word, base, 32)):
        with pytest.raises(np.linalg.LinAlgError, match="planted singular image"):
            lift_orbit()
    monkeypatch.setattr(bd, "_factor_rows", factor_rows)
    want = outcome(lambda: orc.power_lift_sequential(word, base, 32))
    assert str(want) == f"planted gate at step {step}"
    assert_same_outcome(outcome(lambda: bd._power_lift(word, base, 32)), want)


def singular_word(alg):
    """A word whose linear-fractional matrix is g = [[I, I], [C, D]] with
    C = I and D = -I, so that Cw + D is exactly 0 at w = e: its form and
    (g, j(g, 0), phi(g, 0)) are set in place of those of its generators."""
    m = alg.param
    eye = np.eye(m, dtype=np.complex128)
    g = np.block([[eye, eye], [eye, -eye]])
    g.setflags(write=False)
    j0 = complex(np.linalg.det(g) / np.linalg.det(g[m:, m:]) ** 2)
    word = bd.identity_word(alg)
    word._lf, word._form = (g, j0, bd.principal_arg(j0)), bd._LfForm(alg, g)
    return word


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.SYM_R, 3),
                                 al.algebra(al.HERM_C, 2)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_singular_image_raises_linalgerror(alg, monkeypatch):
    """At w = e the image step of singular_word solves against the zero
    matrix: it raises np.linalg.solve's LinAlgError from LAPACK itself, in
    _power_lift's pass 1 and through the single-row callers (act_lift,
    apply_word) alike.  With the real gate, which refuses that step first,
    the orbit's outcome is that of K calls of act_lift."""
    word = singular_word(alg)
    base = bd.lift(bd.ShilovPoint(bd.complexify(al.unit(alg))), 0)
    form, z = word.coordinate_form(), bd._coords_on(word, base.point)
    t = (z @ form.lin + form.off).reshape(2, alg.param, alg.param)
    assert not t[1].any()
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.solve(t[1], t[0])
    with pytest.raises(np.linalg.LinAlgError, match=str(want.value)), _lapack.singular():
        bd._lf_image(form, z)

    seq = outcome(lambda: orc.power_lift_sequential(word, base, 32))
    assert isinstance(seq, DomainError) and "Delta_g vanishes" in str(seq)
    assert_same_outcome(outcome(lambda: bd._power_lift(word, base, 32)), seq)
    assert_same_outcome(outcome(lambda: bd.act_lift(word, base)), seq)

    monkeypatch.setattr(bd, "_factor_rows", lambda form_, rows: (
        np.ones((len(rows), alg.rank), dtype=np.complex128), {}))
    for image in (lambda: bd._power_lift(word, base, 32),
                  lambda: orc.power_lift_sequential(word, base, 32),
                  lambda: bd.act_lift(word, base),
                  lambda: bd.apply_word(word, base.point)):
        with pytest.raises(np.linalg.LinAlgError, match=str(want.value)):
            image()


@pytest.mark.parametrize("alg, mode", zip(ORBIT_ALGEBRAS, ["unitary", "tube", "mixed"] * 2),
                         ids=lambda x: f"{x.kind}-{x.param}" if hasattr(x, "kind") else x)
def test_multi_block_orbit_matches_sequential_oracle(alg, mode):
    """An orbit of 2 blocks and 3 steps, handed on from block to block, is
    bit-identical to K calls of act_lift."""
    power = 2 * bd.ORBIT_BLOCK + 3
    base = dy.standard_base_lift(alg)
    word = bd.random_word(alg, np.random.default_rng(alg.param), mode)
    assert_same_lift(bd._power_lift(word, base, power),
                     orc.power_lift_sequential(word, base, power))


def test_multi_block_orbit_raises_in_its_second_block(monkeypatch):
    """With BOUNDARY at 1e-13 a sym-r 2 tube orbit is refused at iterate
    1 289, in its second block: the orbit raises the sequential loop's error
    there, and the orbit of 1 288 steps ends at the loop's last accepted
    iterate."""
    alg = al.algebra(al.SYM_R, 2)
    monkeypatch.setattr(bd, "BOUNDARY", 1e-13)
    base = dy.standard_base_lift(alg)
    word = bd.random_word(alg, np.random.default_rng(11), "tube")
    power, trail = 2 * bd.ORBIT_BLOCK + 3, []
    want = outcome(lambda: orc.power_lift_sequential(word, base, power, trail))
    assert isinstance(want, DomainError) and len(trail) + 1 == 1289
    assert_same_outcome(outcome(lambda: bd._power_lift(word, base, power)), want)
    assert_same_lift(bd._power_lift(word, base, 1288), trail[-1])


@pytest.mark.parametrize("block", [1, 5])
def test_orbit_errors_keep_their_order_across_blocks(monkeypatch, block):
    """With blocks of 1 and 5 steps the refusals of the tight-BOUNDARY tube
    orbits and the planted step errors fall in later blocks; each raises as
    the sequential loop does."""
    monkeypatch.setattr(bd, "ORBIT_BLOCK", block)
    for alg in (al.algebra(al.SYM_R, 2), al.algebra(al.SPIN, 5)):
        with monkeypatch.context() as patched:
            test_power_lift_raises_earliest_error(alg, 1e-14, patched)
    for case in ((al.algebra(al.SYM_R, 2), 4, 1e-15, 17),
                 (al.algebra(al.HERM_C, 3), 0, 1e-14, 15)):
        with monkeypatch.context() as patched:
            test_power_lift_step_and_check_errors_in_order(patched, *case)


def test_orbit_memory_is_bounded_by_one_block():
    """A unitary orbit of 8 blocks on sym-r 2 keeps one block of iterates:
    its traced peak stays under 1 MiB, where keeping all 8 192 took 2.4 MiB."""
    alg = al.algebra(al.SYM_R, 2)
    word = bd.random_word(alg, np.random.default_rng(0), "unitary")
    dy.rotation_rho(word, 2)        # builds the cached base and the word's form
    tracemalloc.start()
    try:
        dy.rotation_rho(word, 8 * bd.ORBIT_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_csv_output():
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(108)
    sigma = bd.random_shilov(alg, rng)
    ref = bd.random_shilov(alg, rng)
    flow = dy.eigenangle_flow(
        dy.BoundaryPath.from_function(phase_loop(sigma), n=33), ref)
    records = dy.crossing_records(flow)
    buf = io.StringIO()
    dy.write_strand_csv(flow, records, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,strand_id,angle,crossing_flag,sign"
    assert len(lines) == 1 + 33 * alg.rank + len(records)
    assert sum(1 for ln in lines[1:] if ln.split(",")[3] == "1") == alg.rank


@pytest.mark.parametrize("turns", [-1, 1, 2])
@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, m) for m in (7, 8, 10, 12, 16)]
                         + [al.algebra(al.HERM_C, m) for m in (6, 8)],
                         ids=lambda a: f"{a.kind}-{a.param}")
def test_arnold_phase_loop_rank_sweep(alg, turns):
    # strand steps of 2 pi turns / 32 exceed pi/r from rank 9 on (turns 2):
    # only the rank-safe step limit refines them
    sigma, ref = transverse_pair(alg, np.random.default_rng(alg.param))
    loop = dy.BoundaryPath.from_function(phase_loop(sigma, turns), n=33)
    assert dy.arnold_number(loop, ref) == turns * alg.rank


def undersampled_corpus():
    """Phase loops on sym-r 5, 6 and herm-c 4 at 8-17 samples.  Stored
    strand steps run from pi/4 to pi/3, at or past the sampling contract, so
    each loop relies on refinement; the search over all permutations with a
    pi/4 limit at every rank returned 12 of these 144 wrong."""
    for kind, m in ((al.SYM_R, 5), (al.SYM_R, 6), (al.HERM_C, 4)):
        for seed in range(12):
            for n, turns in ((8, 1), (10, 1), (13, 2), (17, 2)):
                case = (kind, m, seed, n, turns)
                marks = ()
                if case == (al.HERM_C, 4, 7, 13, 2):
                    marks = pytest.mark.xfail(
                        strict=True, reason="the true strand step pi/3 breaks "
                        "the sampling contract min(pi/4, pi/r) and a wrong "
                        "matching stays under the limit")
                yield pytest.param(*case, marks=marks,
                                   id=f"{kind}-{m}-s{seed}-n{n}-t{turns}")


@pytest.mark.parametrize("kind,m,seed,n,turns", undersampled_corpus())
def test_arnold_undersampled_phase_loop(kind, m, seed, n, turns):
    alg = al.algebra(kind, m)
    sigma, ref = transverse_pair(alg, np.random.default_rng(seed))
    loop = dy.BoundaryPath.from_function(phase_loop(sigma, turns), n=n)
    assert dy.arnold_number(loop, ref) == turns * alg.rank
