"""Acceptance: the thirteen contract criteria at full scale, seed 0.

Each criterion runs as its own test and prints one PASS/FAIL line to the
terminal, bypassing capture, so the report survives any pytest options.
"""

import time

import numpy as np
import pytest

from maslov_kit import selftest as st

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
    assert FULL.power == 32
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
    checks, failures = suite(rng, FULL)
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
