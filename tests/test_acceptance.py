"""Acceptance: the thirteen contract criteria at full scale, seed 0.

Each criterion runs as its own test and prints one PASS/FAIL line to the
terminal, bypassing capture, so the report survives any pytest options.
"""

import io
import time
from dataclasses import replace

import numpy as np
import pytest

from maslov_kit import dynamics as dy
from maslov_kit import indices as ix
from maslov_kit import selftest as st
from maslov_kit.errors import AmbiguityError

FULL = st.SCALES["full"]
# checks per criterion at full scale from the seed-0 streams of selftest.run
FULL_CHECKS = (20, 200, 200, 500, 1000, 350, 200, 200, 300, 30, 100, 64, 700)
_durations = {}


def test_contract_has_thirteen_criteria():
    assert len(st.SUITES) == 13


def test_full_scales_match_the_contract():
    assert FULL.leray == 200
    assert FULL.cocycle == 200 and FULL.cocycle_forced == 50
    assert FULL.pairs == 500
    assert FULL.witness_pairs == 100 and FULL.witnesses == 10
    assert FULL.words_per_alg == 50
    assert FULL.frames == 200
    assert FULL.coranks == 200
    assert FULL.unitary_words == 20 and FULL.fixing_words == 10
    assert st.ROTATION_POWER == 32
    assert FULL.word_pairs == 100
    assert FULL.splits == 50
    assert FULL.health == 100


@pytest.mark.parametrize(
    "index,name,suite",
    [(i, name, fn) for i, (name, fn) in enumerate(st.SUITES)],
    ids=[name for name, _ in st.SUITES])
def test_criterion(index, name, suite, capsys):
    rng = np.random.default_rng([0, index])
    start = time.perf_counter()
    checks, failures = st.tally(suite(rng, FULL))
    _durations[name] = time.perf_counter() - start
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {index + 1:2d} {name:<22} {status} "
              f"({checks} checks)")
    assert checks == FULL_CHECKS[index]
    assert not failures, f"{name}: {failures[:3]}"


def test_full_suite_under_two_minutes():
    if len(_durations) < len(st.SUITES):
        pytest.skip("criteria were not all run in this session")
    total = sum(_durations.values())
    assert total < 120.0, f"criteria took {total:.1f}s"


def fake_suite(rng, s, then_raise=True):
    """Yields passes, failed checks and a failure that is not a check."""
    yield True, "first passes"
    yield False, "second fails"
    yield np.bool_(True), "third passes"
    yield None, "only 0/10 splits found off the cycle"
    yield np.bool_(False), "fifth fails"
    if then_raise:
        raise ValueError("after five yields")


def test_tally_counts_checks_and_keeps_failure_lines():
    assert st.tally(fake_suite(None, None, then_raise=False)) == (
        4, ["second fails", "only 0/10 splits found off the cycle", "fifth fails"])
    assert st.tally(iter(())) == (0, [])
    with pytest.raises(ValueError, match="after five yields"):
        st.tally(fake_suite(None, None))


def test_run_one_reports_a_raising_suite_as_no_checks_and_one_line():
    res = st._run_one(0, "fake", fake_suite, 0, st.SCALES["quick"])
    assert (res.name, res.checks, res.failures) == (
        "fake", 0, ("raised ValueError: after five yields",))
    res = st._run_one(0, "fake", lambda rng, s: fake_suite(rng, s, False), 0,
                      st.SCALES["quick"])
    assert (res.checks, res.failures) == (4, (
        "second fails", "only 0/10 splits found off the cycle", "fifth fails"))


PLANTED_REPORT_SEED_3 = """\
maslov-kit selftest  level=quick  seed=3
  1 orbit-values           PASS     20 checks
  2 leray-sum              FAIL     40 checks
      triple 6 on spin-5: sum 7 != iota 1
      triple 9 on sym-r-3: sum 8 != iota 2
      triple 12 on spin-3: sum 5 != iota -1
      ... 7 more
  3 cocycle-relation       PASS     40 checks
  4 pair-integrality       FAIL     80 checks
      pair 5: m12 5 + m21 -1 != 0
      pair 15: m12 -1 + m21 5 != 0
      pair 20: m12 1 + m21 3 != 0
      ... 8 more
  5 witness-independence   FAIL     64 checks
      pair 2 witness 1 on sym-r-3: -2 != 0
      pair 2 witness 2 on sym-r-3: -2 != 0
      pair 2 witness 3 on sym-r-3: -2 != 0
      ... 17 more
  6 word-invariance        PASS     56 checks
  7 shared-frame-oracles   FAIL     40 checks
      config 4 on herm-c-2: iota 1/1 m 3/1
      config 8 on sym-r-2: iota 1/1 m 5/3
      config 12 on spin-3: iota -1/-1 m 1/-1
      ... 4 more
  8 corank-inversion       PASS     40 checks
  9 coordinate-family      PASS    130 checks
 10 rotation-number        FAIL      0 checks
      raised RuntimeError: planted
 11 quasimorphism-bound    PASS     20 checks
 12 path-additivity        FAIL      0 checks
      raised AmbiguityError: planted after 9 calls
 13 kernel-health          PASS    140 checks
7/13 suites passed
"""


def test_planted_faults_give_the_pinned_failure_lines(monkeypatch):
    """Three planted faults: the witness route of souriau_m off by 2, the
    tenth arnold_number call refused, rotation_rho crashing.  Six suites
    fail, with the pinned lines and counts."""
    souriau_m, arnold_number = ix.souriau_m, dy.arnold_number
    calls = []

    def shifted_m(*args, **kwargs):
        rep = souriau_m(*args, **kwargs)
        return replace(rep, value=rep.value + 2) if rep.witnesses else rep

    def refused_arnold(*args, **kwargs):
        calls.append(args)
        if len(calls) > 9:
            raise AmbiguityError("planted after 9 calls")
        return arnold_number(*args, **kwargs)

    def crashing_rho(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(ix, "souriau_m", shifted_m)
    monkeypatch.setattr(dy, "arnold_number", refused_arnold)
    monkeypatch.setattr(dy, "rotation_rho", crashing_rho)
    out = io.StringIO()
    assert st.run(level="quick", seed=3, out=out, err=io.StringIO()) == 1
    assert out.getvalue() == PLANTED_REPORT_SEED_3


def test_splits_refused_everywhere_give_one_line_that_is_not_a_check(monkeypatch):
    """Every split refused: path-additivity counts its 14 loop checks and
    reports the missing splits once, as a failure that is not a check."""
    quick, arnold_number = st.SCALES["quick"], dy.arnold_number

    def refused_on_splits(path, ref, *args, **kwargs):
        if len(path.samples) == quick.split_n:
            raise AmbiguityError("planted on a split")
        return arnold_number(path, ref, *args, **kwargs)

    monkeypatch.setattr(dy, "arnold_number", refused_on_splits)
    res = st._run_one(11, "path-additivity", st.suite_path_additivity, 3, quick)
    assert (res.checks, res.failures) == (14, ("only 0/10 splits found off the cycle",))
