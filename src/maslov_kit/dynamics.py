"""Path indices and the generalized rotation number.

Paths on the Shilov boundary are sampled; the eigenangle strands of the
relative element against a reference are matched between samples (minimal
total angular displacement) and unwrapped, so crossings of the Maslov cycle
become passages of a strand through pi + 2 pi Z.  The Arnold number and the
pair-path index are signed crossing counts; the translation number and the
rotation number come from iterating a group word on the universal cover,
an orbit that boundary._power_lift walks (act_lift is its K = 1).

Sampling contract: between consecutive samples (stored or refined) every
true strand must move by less than min(pi/4, pi/r) at rank r.  Under it a
step whose matched moves all stay below that limit has the true sum of
moves (both sums lie in (-pi, pi) and agree mod 2 pi), and the crossing
counts depend only on that sum.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boundary as bd
from .algebra import standard_frame
from .config import DEFAULT, STRICT, Tolerances
from .errors import AmbiguityError, DomainError, MaslovKitError
from .indices import _pair_rows, souriau_m

TWO_PI = 2.0 * math.pi
STRAND_STEP_LIMIT = math.pi / 4
REFINE_DEPTH = 12
TANGENT_SLOPE = 1e-6     # a strand slower than this on the level is tangent


@dataclass(frozen=True)
class CrossingRecord:
    """A strand passing the counting level: +1 increasing, -1 decreasing."""

    t: float
    strand: int
    sign: int
    level: float


class BoundaryPath:
    """Sampled path on S over t in [0, 1].

    `samples` is a list of (t, ShilovPoint) with t strictly increasing from
    0 to 1.  A `sampler` callback t -> ShilovPoint allows adaptive
    refinement when strands move too fast between stored samples.
    """

    __slots__ = ("samples", "sampler")

    def __init__(self, samples, sampler=None):
        samples = [(float(t), bd.as_shilov(p)) for t, p in samples]
        if len(samples) < 2:
            raise DomainError("a path needs at least two samples")
        ts = np.array([t for t, _ in samples])
        if not (abs(ts[0]) < 1e-12 and abs(ts[-1] - 1.0) < 1e-12):
            raise DomainError("path parameter must run from 0 to 1")
        if not np.all(np.diff(ts) > 0):     # a NaN or an infinity fails too
            raise DomainError("path sample times must be finite and strictly "
                              "increasing")
        alg = samples[0][1].alg
        for _, p in samples:
            if p.alg != alg:
                raise DomainError("all path samples must share one algebra")
        object.__setattr__(self, "samples", tuple(samples))
        object.__setattr__(self, "sampler", sampler)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryPath is immutable")

    @property
    def alg(self):
        return self.samples[0][1].alg

    @classmethod
    def from_function(cls, fn, n=65):
        ts = np.linspace(0.0, 1.0, n)
        return cls([(t, fn(t)) for t in ts], sampler=fn)


def constant_path(sigma, n=2):
    sigma = bd.as_shilov(sigma)
    return BoundaryPath.from_function(lambda t: sigma, n=n)


@dataclass(frozen=True)
class AngleFlow:
    """Continuous eigenangle strands: strands[i, j] at time t[i]."""

    t: np.ndarray
    strands: np.ndarray


def _point_source(obj):
    """(grid dict or None, sampler or None) for a path or fixed point."""
    if isinstance(obj, BoundaryPath):
        return dict(obj.samples), obj.sampler, obj.alg
    sigma = bd.as_shilov(obj)
    return None, (lambda t: sigma), sigma.alg


def _match_shifts(a, b):
    """Match each row of sorted angles a[k] to the sorted angles b[k].

    Some cyclic shift of two circularly sorted orders is an optimal
    matching under arc-length cost (Karp & Li, Discrete Math. 13, 1975), so
    only the r shifts of each row are scored, all rows at once.  Near-equal
    costs come from strands moving the same way; among those the smallest
    largest move is kept, so a step is never refined where the search over
    all permutations would accept it.

    a, b: (B, r), each row ascending.  Returns (shift, moves, largest move):
    slot p of a[k] goes to slot (p + shift[k]) mod r of b[k] and moves by
    moves[k, p].
    """
    r = a.shape[1]
    slots = (np.arange(r)[:, None] + np.arange(r)) % r
    moves = bd.wrap_angle(b[:, slots] - a[:, None, :])
    cost = np.sum(np.abs(moves), axis=2)
    span = np.max(np.abs(moves), axis=2)
    near = cost <= cost.min(axis=1, keepdims=True) + 1e-12
    shift = np.argmin(np.where(near, span, np.inf), axis=1)
    rows = np.arange(a.shape[0])
    return shift, moves[rows, shift], span[rows, shift]


def _grid_angles(pair_at, ts):
    """The pair angles of the samples at ts (the grid, or one level's
    midpoints) from one _pair_rows call, up to the first sample that cannot
    be taken or whose pair is refused, and that error (or None) for the
    caller to raise once the steps before it are walked.  An error at the
    first sample is raised at once."""
    pairs, pending = [], None
    try:
        for t in ts:
            pairs.append(pair_at(t))
    except MaslovKitError as exc:
        if not pairs:
            raise
        pending = exc
    angles, refused = _pair_rows(*zip(*pairs))
    if 0 in refused:
        raise refused[0]
    return angles, refused.get(len(angles), pending)


def eigenangle_flow(path, reference):
    """Angle strands of w(t) = relative_element(path(t), reference(t)).

    reference may be a fixed ShilovPoint or a second BoundaryPath; grids
    are merged, resampling through the paths' samplers where needed.

    The flow is walked level by level from the grid.  Each level takes one
    pair_angles call over its new samples and one batched match of every
    step.  Each true strand step between samples must stay below
    min(pi/4, pi/r) at rank r; every step whose matched moves reach that
    limit is halved through the samplers, its midpoint taken in the next
    level's call, at most REFINE_DEPTH times.  Such a step with no sampler,
    or at that depth, is stuck: AmbiguityError.  The strands are carried
    through the matched cyclic shifts of the last level.

    The error raised is that of the earliest failing step, as if the grid
    were walked one sample at a time: a stuck step, a sample that cannot be
    taken, or a pair that pair_angles refuses, is raised only once every
    step before it has been matched and refined without error.  Each such
    error cuts the grid at the start of its step, so a later level can only
    find an earlier one.
    """
    main_grid, main_fn, alg = _point_source(path)
    ref_grid, ref_fn, ref_alg = _point_source(reference)
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

    def pair_at(t):
        return value_at(main_grid, main_fn, t), value_at(ref_grid, ref_fn, t)

    raw, pending = _grid_angles(pair_at, ts)
    rows = np.sort(raw, axis=1)
    times = np.array(ts[:len(rows)])
    depth = np.full(len(rows) - 1, REFINE_DEPTH)

    limit = min(STRAND_STEP_LIMIT, math.pi / alg.rank)
    can_refine = main_fn is not None and (ref_grid is None or ref_fn is not None)

    while True:
        shift, moves, span = _match_shifts(rows[:-1], rows[1:])
        flagged = np.flatnonzero(span >= limit)
        stuck = flagged[(depth[flagged] == 0) | (not can_refine)]
        if stuck.size:
            k = stuck[0]
            t0, t1 = times[k], times[k + 1]
            pending = AmbiguityError(
                f"strand matching ambiguous near t={t1:.6g} even at maximum "
                "refinement" if depth[k] == 0 else
                f"strands move {span[k]:.3f} rad between t={t0:.6g} and "
                f"t={t1:.6g} (limit {limit:.3f}) and no sampler is available "
                "to refine")
            flagged = flagged[flagged < k]
            times, rows, depth = times[:k + 1], rows[:k + 1], depth[:k]
        if not flagged.size:
            break
        mids = 0.5 * (times[flagged] + times[flagged + 1])
        raw_mids, error = _grid_angles(pair_at, mids)
        if error is not None:
            pending, k = error, flagged[len(raw_mids)]
            times, rows, depth = times[:k + 1], rows[:k + 1], depth[:k]
            flagged = flagged[:len(raw_mids)]
        depth[flagged] -= 1
        times = np.insert(times, flagged + 1, mids[:len(flagged)])
        rows = np.insert(rows, flagged + 1, np.sort(raw_mids, axis=1), axis=0)
        depth = np.insert(depth, flagged + 1, depth[flagged])
    if pending is not None:
        raise pending

    # strand j starts in slot r - 1 - j of the ascending first row and moves
    # on by the shifts matched so far
    r = alg.rank
    carried = np.concatenate([[0], np.cumsum(shift)[:-1]])
    slots = (np.arange(r)[::-1] + carried[:, None]) % r
    steps = np.take_along_axis(moves, slots, axis=1)
    return AngleFlow(times, np.cumsum(np.vstack([raw[:1], steps]), axis=0))


def crossing_records(flow, level=math.pi):
    """Signed passages of each strand through level + 2 pi Z."""
    records = []
    t = flow.t
    for j in range(flow.strands.shape[1]):
        a = flow.strands[:, j]
        floors = np.floor((a - level) / TWO_PI)
        for i in range(len(t) - 1):
            jump = int(floors[i + 1] - floors[i])
            if jump == 0:
                continue
            sign = 1 if jump > 0 else -1
            lo, hi = sorted((floors[i], floors[i + 1]))
            for step in range(abs(jump)):
                line = level + TWO_PI * (lo + 1 + step)
                frac = (line - a[i]) / (a[i + 1] - a[i])
                records.append(CrossingRecord(
                    float(t[i] + frac * (t[i + 1] - t[i])), j, sign, level))
    records.sort(key=lambda rec: (rec.t, rec.strand))
    return records


def _circle_dist(a, level):
    return np.abs(bd.wrap_angle(a - level))


def _tangency_times(flow, level, tol):
    """Samples sitting on the counting level with a vanishing slope."""
    t, a = flow.t, flow.strands
    hits = []
    for j in range(a.shape[1]):
        near = _circle_dist(a[:, j], level) < tol.transverse
        for i in np.nonzero(near)[0]:
            lo = max(i - 1, 0)
            hi = min(i + 1, len(t) - 1)
            slope = abs(a[hi, j] - a[lo, j]) / (t[hi] - t[lo])
            if slope < TANGENT_SLOPE:
                hits.append((float(t[i]), j))
    return hits


def _counted_level(flow, level, tol, margin, what):
    """Pick a counting level, handling tangencies per tol.mode: STRICT
    refuses a tangent strand, PERMISSIVE lowers the level up to three times."""
    for attempt, lv in enumerate((level, level - margin / 2,
                                  level - margin / 6, level - margin / 18)):
        tangent = _tangency_times(flow, lv, tol)
        if not tangent:
            return lv
        if tol.mode == STRICT or attempt == 3:
            t0, strand = tangent[0]
            raise AmbiguityError(
                f"{what}: strand {strand} is tangent to the counting level "
                f"near t={t0:.6g}; rerun in permissive mode or refine the path")


def arnold_number(path, sigma0, tol: Tolerances = DEFAULT):
    """Signed count of eigenangle strands crossing pi along the path,
    relative to the vertex sigma0.  Endpoints must be transverse."""
    return arnold_count(eigenangle_flow(path, sigma0), tol)[0]


def arnold_count(flow, tol: Tolerances = DEFAULT):
    """(arnold_number, the crossings it counts) from the flow
    eigenangle_flow(path, sigma0)."""
    end_dist = min(float(np.min(_circle_dist(flow.strands[0], math.pi))),
                   float(np.min(_circle_dist(flow.strands[-1], math.pi))))
    if end_dist < tol.transverse:
        raise DomainError(
            "path endpoint lies on the Maslov cycle of the reference point "
            f"(strand distance {end_dist:.3e} to pi)")
    level = _counted_level(flow, math.pi, tol, end_dist, "arnold_number")
    records = crossing_records(flow, level)
    return sum(rec.sign for rec in records), records


def pair_path_index(path1, path2, tol: Tolerances = DEFAULT):
    """Signed crossing count for the pair (sigma1(t), sigma2(t)).

    Proper pairs (endpoints transverse) are counted at level pi; otherwise
    the second component is rotated by e^{i theta}, theta half the smallest
    nonvanishing endpoint angle distance, per the perturbation step.
    """
    return pair_path_count(eigenangle_flow(path2, path1), tol)[0]


def pair_path_count(flow, tol: Tolerances = DEFAULT):
    """(pair_path_index, the crossings it counts) from the flow
    eigenangle_flow(path2, path1)."""
    end_angles = np.concatenate([flow.strands[0], flow.strands[-1]])
    dists = _circle_dist(end_angles, math.pi)
    if float(np.min(dists)) >= tol.transverse:
        level = _counted_level(flow, math.pi, tol, float(np.min(dists)),
                               "pair_path_index")
    else:
        admissible = dists[dists >= tol.transverse]
        if admissible.size == 0:
            raise DomainError(
                "pair path is fully degenerate at an endpoint "
                "(sigma1 = sigma2); no admissible perturbation")
        theta = 0.5 * float(np.min(admissible))
        level = _counted_level(flow, math.pi - theta, tol, theta,
                               "pair_path_index")
    records = crossing_records(flow, level)
    return sum(rec.sign for rec in records), records


def write_strand_csv(flow, records, fileobj):
    """Table of strands and crossings: t, strand_id, angle, crossing_flag,
    sign.  Sample rows carry flag 0; crossing rows carry the interpolated t
    and the counting level as angle."""
    writer = csv.writer(fileobj)
    writer.writerow(["t", "strand_id", "angle", "crossing_flag", "sign"])
    rows = []
    for j in range(flow.strands.shape[1]):
        for t, a in zip(flow.t, flow.strands[:, j]):
            rows.append((float(t), j, float(a), 0, 0))
    for rec in records:
        rows.append((rec.t, rec.strand, rec.level, 1, rec.sign))
    rows.sort(key=lambda row: (row[1], row[0], row[3]))
    for row in rows:
        writer.writerow([f"{row[0]:.12g}", row[1], f"{row[2]:.12g}",
                         row[3], row[4]])


# ------------------------------------------------------------ quasimorphism

def quasimorphism_c(word, lifted, tol: Tolerances = DEFAULT):
    """c(g) = m(g . o~, o~) for a base point o~ on the universal cover."""
    image = bd.act_lift(word, lifted)
    return souriau_m(image, lifted, tol).value


# golden-angle spectrum: a base with no eigenangle symmetries (unlike -e,
# whose tube image 0 every linear generator fixes); every rotation output
# depends on it
_BASE_STEP = 2.399963229728653


@lru_cache(maxsize=64)
def standard_base_lift(alg, /):
    """The fixed base lift used by default for c(g) and rotation numbers,
    built once per algebra (alg is positional, so one call form, one key)."""
    angles = bd.wrap_angle(0.7 + _BASE_STEP * np.arange(1, alg.rank + 1))
    sigma = bd.from_unit_spectrum(alg, angles, standard_frame(alg))
    return bd.lift(sigma, 0)


def translation_tau(word, power, base=None, tol: Tolerances = DEFAULT):
    """Translation number estimate (c(g^K)/K, error bound r/K).

    The bound comes from the quasimorphism defect |c(gh) - c(g) - c(h)| <= r.
    K is a Python or numpy integer >= 1.  The orbit of the base lift is
    walked once by boundary._power_lift.
    """
    power = bd._integer("power", power, 1)
    if base is None:
        base = standard_base_lift(word.alg)
    iterated = bd._power_lift(word, base, power)
    c_val = souriau_m(iterated, base, tol).value
    r = word.alg.rank
    return c_val / power, r / power


def rho_from_tau(est, bound):
    """The rotation number -tau/2 mod 1 and its bound from a translation
    number estimate and its bound."""
    return (-0.5 * est) % 1.0, 0.5 * bound


def rotation_rho(word, power, base=None, tol: Tolerances = DEFAULT):
    """Generalized rotation number: -tau/2 mod 1, with bound r/(2K)."""
    return rho_from_tau(*translation_tau(word, power, base, tol))
