"""Shared test fixtures: the supported desk-scale algebras and samplers."""

import numpy as np

from maslov_kit import algebra as al
from maslov_kit import boundary as bd

ALGEBRAS = [
    al.algebra(al.SYM_R, 1),
    al.algebra(al.SYM_R, 2),
    al.algebra(al.SYM_R, 3),
    al.algebra(al.HERM_C, 1),
    al.algebra(al.HERM_C, 2),
    al.algebra(al.SPIN, 3),
    al.algebra(al.SPIN, 5),
]

IDS = [f"{a.kind}-{a.param}" for a in ALGEBRAS]


def random_idempotent(alg, rng, rank=None):
    """Sum of a random subset of a random frame (rank members)."""
    frame = al.random_frame(alg, rng)
    if rank is None:
        rank = int(rng.integers(0, alg.rank + 1))
    out = al.zero(alg)
    for c in frame[:rank]:
        out = out + c
    return out, rank


def from_frame(alg, frame, values):
    out = al.zero(alg)
    for lam, c in zip(values, frame):
        out = out + float(lam) * c
    return out


def minus_i_eps(alg, k):
    """The boundary point -i * e_{k, r-k}: k angles -pi/2, r-k angles +pi/2."""
    eps = al.epq(alg, k, alg.rank - k)
    return bd.ShilovPoint(bd.ElementC(alg, -1j * eps.coords))


def shared_frame_points(alg, rng, n=2, coincide=0):
    """n boundary points on one frame; the first `coincide` angles shared.

    Returns (frame, angle arrays, points).
    """
    frame = al.random_frame(alg, rng)
    base = rng.uniform(-np.pi, np.pi, alg.rank)
    angle_sets = []
    for _ in range(n):
        a = rng.uniform(-np.pi, np.pi, alg.rank)
        a[:coincide] = base[:coincide]
        angle_sets.append(a)
    pts = [bd.from_unit_spectrum(alg, a, frame) for a in angle_sets]
    return frame, angle_sets, pts


def shared_frame_lift(point, angles, k=0):
    """Lift of a shared-frame point: theta = (sum of angles + 2 pi k) / r."""
    theta = (float(np.sum(angles)) + 2.0 * np.pi * k) / point.alg.rank
    return bd.LiftedPoint(point, theta)
