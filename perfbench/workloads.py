"""The benchmark's four workloads: seeded inputs, timed ops and oracles.

Each workload is a single client in a closed loop: the next op starts when
the previous one returned.  Work is cut into rounds.  Round k draws its
inputs from `default_rng([seed, k])`, and every round holds the same op mix,
so stopping at a round boundary keeps the mix fixed whatever the speed of the
code under test.  A run builds a pool of the first `pool_rounds` rounds
before timing and cycles through it, so which ops run, and which of them
fail, depends only on the seed.

An op is a label, a zero-argument call (the timed part) and a check that
turns the call's result into the integers it certifies.  Checks compare
against an independent oracle (a closed form or another route through the
library) and raise `Wrong` on a mismatch; they run outside the timing.
"""

import functools
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import cli
from maslov_kit import dynamics as dy
from maslov_kit import indices as ix
from maslov_kit._serialize import dumps
from maslov_kit.schemas import serialize_element, serialize_path, serialize_word

TWO_PI = 2.0 * math.pi

# Smallest circular distance between angles that a configuration keeps
# apart unless it shares them on purpose; far outside the gray zone, so no
# op is refused for an ambiguous input.
SEPARATION = 0.05

PATH_SAMPLES = 33     # strand steps of 2 pi * turns / 32 stay below pi/4
ROTATION_POWER = 32
# Parameters that set an op's cost (coincidences, loop turns, generator
# counts) cycle with the round number instead of being drawn, so every
# seed has the same mix of them and runs differ only in the random points.
TURNS = (-1, 1, 2)


class Wrong(Exception):
    """An op returned an integer its oracle rejects."""


class CliExit(Exception):
    """The CLI exited with a documented error code (2 domain, 3 ambiguity)."""

    def __init__(self, code):
        super().__init__(f"exit code {code}")
        self.code = code


class Workload:
    """A named op sequence; `workdir` holds generated files."""

    name = ""
    algebras = ()
    pool_rounds = 1    # distinct rounds; a run cycles through all of them
    repeats = 1        # timed runs of each op; its latency is the fastest

    def __init__(self, seed, workdir=None):
        self.seed = seed
        self.workdir = workdir

    def round(self, k):
        raise NotImplementedError

    @functools.cached_property
    def pool(self):
        """The ops of rounds 0 .. pool_rounds - 1, built once."""
        return [self.round(k) for k in range(self.pool_rounds)]


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def alg_name(alg):
    return f"{alg.kind}-{alg.param}"


def expect(got, want, what):
    if got != want:
        raise Wrong(f"{what}: got {got}, oracle {want}")
    return got


# ------------------------------------------------------------------ inputs

def separated_angles(rng, rank, n, coincide=0):
    """n angle vectors for points on one frame: in every frame direction the
    n angles stay SEPARATION apart on the circle, except that the first
    `coincide` directions of points 0 and 1 are equal."""
    while True:
        angles = rng.uniform(-math.pi, math.pi, (n, rank))
        angles[1, :coincide] = angles[0, :coincide]
        ok = True
        for i in range(n):
            for k in range(i + 1, n):
                gap = np.abs(bd.wrap_angle(angles[i] - angles[k]))
                if (i, k) == (0, 1):
                    gap = gap[coincide:]
                if gap.size and float(np.min(gap)) < SEPARATION:
                    ok = False
        if ok:
            return angles


def shared_frame(alg, rng, n, coincide=0):
    """(angle vectors, points) of n boundary points on one random frame."""
    frame = al.random_frame(alg, rng)
    angles = separated_angles(rng, alg.rank, n, coincide)
    return angles, [bd.from_unit_spectrum(alg, a, frame) for a in angles]


def shared_lift(point, angles, k):
    """Lift with theta = (sum of angles + 2 pi k) / r."""
    return bd.LiftedPoint(point, (float(np.sum(angles)) + TWO_PI * k)
                          / point.alg.rank)


def phase_path(sigma, turns, wiggle=0.0):
    """t -> e^{i(2 pi turns t + wiggle sin 2 pi t)} sigma, sampled."""
    def fn(t):
        phase = TWO_PI * turns * t + wiggle * math.sin(TWO_PI * t)
        return bd.ShilovPoint(np.exp(1j * phase) * sigma.value)
    return dy.BoundaryPath.from_function(fn, n=PATH_SAMPLES)


def transverse_pair(alg, rng):
    """Random pair whose relative eigenangles stay SEPARATION from pi;
    returns the pair and that smallest distance."""
    while True:
        sigma, ref = bd.random_shilov(alg, rng), bd.random_shilov(alg, rng)
        angles = bd.shilov_spectral(ix.relative_element(sigma, ref)).angles
        margin = float(np.min(math.pi - np.abs(angles)))
        if margin >= SEPARATION:
            return sigma, ref, margin


def rotation_residue(rho, power=ROTATION_POWER):
    """rho = -c(g^K) / 2K mod 1, so 2K rho recovers c(g^K) mod 2K."""
    return int(round(2 * power * rho)) % (2 * power)


def check_chi(word, power=ROTATION_POWER):
    """Unitary words: e^{2 pi i rho} lies within 2 pi bound of chi(u)."""
    chi = bd.word_chi(word)

    def check(result):
        rho, bound = result
        gap = abs(np.exp(2j * math.pi * rho) - chi)
        if gap > TWO_PI * bound + 1e-6:
            raise Wrong(f"rotation_rho: chi gap {gap:.3e} > {TWO_PI * bound:.3e}")
        return (rotation_residue(rho, power),)
    return check


# ----------------------------------------------------------------- indices

class Indices(Workload):
    """Pointwise indices on independent shared-frame pairs and triples."""

    name = "indices"
    algebras = (al.algebra(al.SYM_R, 2), al.algebra(al.SYM_R, 3),
                al.algebra(al.HERM_C, 2), al.algebra(al.SPIN, 5))
    pool_rounds = 84   # a multiple of every r + 1
    # Ops of a millisecond see the machine's bursts of contention unevenly;
    # the fastest of three back-to-back runs is steady across runs.
    repeats = 3

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for alg in self.algebras:
            ops += self._ops(alg, rng, k)
        return ops

    def _ops(self, alg, rng, k):
        r, tag = alg.rank, alg_name(alg)
        lifts = [int(v) for v in rng.integers(-1, 2, 4)]

        ell = k % (r + 1)
        _, (p, q) = shared_frame(alg, rng, 2, coincide=ell)

        def check_mu(got):
            expect(got, ell, "mu")
            return (expect(ix.mu_via_corank(p, q), got, "mu_via_corank"),)

        angles, pts = shared_frame(alg, rng, 3)
        l1 = shared_lift(pts[0], angles[0], lifts[0])
        l2 = shared_lift(pts[1], angles[1], lifts[1])
        m_oracle = ix.m_shared_frame(angles[0], l1.theta, angles[1], l2.theta)
        iota_oracle = ix.iota_shared_frame(*angles)

        wangles, wpts = shared_frame(alg, rng, 2, coincide=1)
        w1 = shared_lift(wpts[0], wangles[0], lifts[2])
        w2 = shared_lift(wpts[1], wangles[1], lifts[3])
        mw_oracle = ix.m_shared_frame(wangles[0], w1.theta, wangles[1], w2.theta)

        def value_is(want, what):
            return lambda rep: (expect(rep.value, want, what),)

        return [
            Op(f"mu/{tag}", lambda: ix.mu(p, q), check_mu),
            Op(f"souriau_m/{tag}", lambda: ix.souriau_m(l1, l2),
               value_is(m_oracle, "souriau_m")),
            Op(f"maslov_iota/{tag}", lambda: ix.maslov_iota(*pts),
               value_is(iota_oracle, "maslov_iota")),
            # transverse triple: every mu term is 0
            Op(f"inertia_j/{tag}", lambda: ix.inertia_j(*pts),
               value_is((iota_oracle + r) // 2, "inertia_j")),
            Op(f"arnold_nu/{tag}", lambda: ix.arnold_nu(l1, l2),
               value_is((m_oracle - r) // 2, "arnold_nu")),
            Op(f"souriau_m_witness/{tag}", lambda: ix.souriau_m(w1, w2),
               value_is(mw_oracle, "souriau_m (witness route)")),
        ]


# ------------------------------------------------------------------- words

class Words(Workload):
    """Covering-group action: act_lift, c(g) and rotation numbers."""

    name = "words"
    algebras = (al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                al.algebra(al.SPIN, 5))
    modes = ("tube", "mixed")
    # An iterated tube or mixed lift costs about a second and varies 3x
    # between words, so it runs once every SLICE_EVERY rounds: a few
    # percent of the time, which keeps the run-to-run spread down.
    SLICE_EVERY = 12
    pool_rounds = 2 * SLICE_EVERY

    def __init__(self, *args):
        super().__init__(*args)
        self.bases = {alg: dy.standard_base_lift(alg) for alg in self.algebras}

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for alg in self.algebras:
            base, tag = self.bases[alg], alg_name(alg)
            for mode in self.modes:
                g1 = bd.random_word(alg, rng, mode=mode)
                g2 = bd.random_word(alg, rng, mode=mode)
                g12 = bd.compose_words(g1, g2)
                ops += self._defect_ops(alg, base, f"{mode}/{tag}", g1, g2, g12)
            for j in range(2):
                u = bd.random_word(alg, rng, mode="unitary",
                                   n_gens=1 + (2 * k + j) % 3)
                ops.append(Op(f"rotation_rho/unitary/{tag}",
                              lambda u=u: dy.rotation_rho(u, ROTATION_POWER),
                              check_chi(u)))
        if k % self.SLICE_EVERY == 0:
            alg = self.algebras[int(rng.integers(len(self.algebras)))]
            mode = self.modes[(k // self.SLICE_EVERY) % len(self.modes)]
            word = bd.random_word(alg, rng, mode=mode)
            ops.append(Op(f"rotation_rho/{mode}/{alg_name(alg)}",
                          lambda: dy.rotation_rho(word, ROTATION_POWER),
                          self._rho_form(alg)))
        return ops

    @staticmethod
    def _defect_ops(alg, base, tag, g1, g2, g12):
        """act_lift on g1 and g2, then c(g1 g2); the last check holds the
        quasimorphism bound |c(g1 g2) - c(g1) - c(g2)| <= r."""
        seen = {}

        def c_of(key):
            def check(image):
                seen[key] = ix.souriau_m(image, base).value
                return (seen[key],)
            return check

        def check_defect(c12):
            for key, word in (("g1", g1), ("g2", g2)):
                if key not in seen:      # its act_lift op failed
                    seen[key] = dy.quasimorphism_c(word, base)
            defect = c12 - seen["g1"] - seen["g2"]
            if abs(defect) > alg.rank:
                raise Wrong(f"quasimorphism defect {defect} exceeds r={alg.rank}")
            return (c12,)

        return [
            Op(f"act_lift/{tag}", lambda: bd.act_lift(g1, base), c_of("g1")),
            Op(f"act_lift/{tag}", lambda: bd.act_lift(g2, base), c_of("g2")),
            Op(f"quasimorphism_c/{tag}", lambda: dy.quasimorphism_c(g12, base),
               check_defect),
        ]

    @staticmethod
    def _rho_form(alg):
        """No closed form exists for these words: c(g^K) is known only mod
        2K and the quasimorphism window is wider than that, so only the
        shape of the estimate is checked."""
        def check(result):
            rho, bound = result
            if not (0.0 <= rho < 1.0) or bound != 0.5 * alg.rank / ROTATION_POWER:
                raise Wrong(f"rotation_rho: malformed estimate {result}")
            return (rotation_residue(rho),)
        return check


# ------------------------------------------------------------------- paths

class Paths(Workload):
    """Crossing counts along sampled paths, over a rank sweep."""

    name = "paths"
    algebras = tuple(al.algebra(al.SYM_R, m) for m in range(2, 7)) + tuple(
        al.algebra(al.HERM_C, m) for m in range(2, 5)) + (al.algebra(al.SPIN, 5),)
    pool_rounds = 9

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for i, alg in enumerate(self.algebras):
            sigma, ref, margin = transverse_pair(alg, rng)
            # wiggles shift the relative angles rigidly by less than the
            # margin to pi, so the pair never crosses: index 0
            p1 = phase_path(sigma, 0, wiggle=0.3 * margin)
            p2 = phase_path(ref, 0, wiggle=-0.3 * margin)
            ops += [self._loop(alg, sigma, ref, TURNS[(k + i) % 3]),
                    Op(f"pair_path_index/{alg_name(alg)}",
                       lambda p1=p1, p2=p2: dy.pair_path_index(p1, p2),
                       lambda got: (expect(got, 0, "pair_path_index"),))]
        # Op costs are set by the algebra and spread over two orders of
        # magnitude; an odd op count puts the median inside one op's
        # spread rather than in the gap between two.
        alg = self.algebras[-1]
        sigma, ref, _ = transverse_pair(alg, rng)
        ops.append(self._loop(alg, sigma, ref, TURNS[(k + 1) % 3]))
        return ops

    @staticmethod
    def _loop(alg, sigma, ref, turns):
        loop = phase_path(sigma, turns)
        return Op(f"arnold_number/{alg_name(alg)}",
                  lambda: dy.arnold_number(loop, ref),
                  lambda got: (expect(got, turns * alg.rank, "arnold_number"),))


# --------------------------------------------------------------------- cli

class Cli(Workload):
    """The `maslov-kit` command line (click parsing, schema parsing, compute,
    JSON output) run in-process on generated documents.  Its cold start is
    in this workload's set-up time."""

    name = "cli"
    algebras = (al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                al.algebra(al.SPIN, 5))
    pool_rounds = 96

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        return path

    @staticmethod
    def _invoke(args):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                cli.main(args=args, prog_name="maslov-kit")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        if code in (2, 3):
            raise CliExit(code)
        if code != 0:
            raise RuntimeError(f"cli {' '.join(args)} exited {code}")
        return json.loads(out.getvalue())

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for i, alg in enumerate(self.algebras):
            ops += self._ops(alg, rng, k + i, f"r{k}-{alg_name(alg)}-")
        return ops

    def _ops(self, alg, rng, k, pre):
        r, tag = alg.rank, alg_name(alg)
        ell = k % (r + 1)
        _, (p, q) = shared_frame(alg, rng, 2, coincide=ell)
        mu_files = [self._write(pre + "mu-p.json", serialize_element(p)),
                    self._write(pre + "mu-q.json", serialize_element(q))]

        angles, pts = shared_frame(alg, rng, 3)
        iota_files = [self._write(pre + f"iota-{i}.json", serialize_element(x))
                      for i, x in enumerate(pts)]
        iota_oracle = ix.iota_shared_frame(*angles)

        ks = [int(v) for v in rng.integers(-1, 2, 2)]
        l1 = shared_lift(pts[0], angles[0], ks[0])
        l2 = shared_lift(pts[1], angles[1], ks[1])
        lift_files = [self._write(pre + "lift-1.json", serialize_element(l1)),
                      self._write(pre + "lift-2.json", serialize_element(l2))]
        m_oracle = ix.m_shared_frame(angles[0], l1.theta, angles[1], l2.theta)

        turns = TURNS[k % 3]
        sigma, ref, _ = transverse_pair(alg, rng)
        path_files = [
            self._write(pre + "loop.json", serialize_path(phase_path(sigma, turns))),
            self._write(pre + "ref.json", serialize_element(ref))]

        word = bd.random_word(alg, rng, mode="unitary", n_gens=1 + k % 3)
        word_file = self._write(pre + "word.json", serialize_word(word))
        chi = check_chi(word)

        def value_is(want, what):
            return lambda doc: (expect(doc["value"], want, what),)

        def op(name, args, check):
            return Op(f"{name}/{tag}", lambda: self._invoke(args), check)

        return [
            op("compute-mu", ["compute", "--op", "mu", *mu_files],
               value_is(ell, "compute --op mu")),
            op("compute-iota", ["compute", "--op", "iota", *iota_files],
               value_is(iota_oracle, "compute --op iota")),
            op("compute-souriau", ["compute", "--op", "souriau", *lift_files],
               value_is(m_oracle, "compute --op souriau")),
            op("path-arnold", ["path", "--op", "arnold", *path_files],
               value_is(turns * r, "path --op arnold")),
            op("rotation", ["rotation", "--k", str(ROTATION_POWER), word_file],
               lambda doc: chi((doc["rho_mod1"], doc["error_bound"]))),
        ]


WORKLOADS = {w.name: w for w in (Indices, Words, Paths, Cli)}
