"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import maslov_kit  # noqa: E402
from maslov_kit import boundary as bd  # noqa: E402
from maslov_kit import indices as ix  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] and b [5,9]; b holds c [6,8]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert list(spans.self_times(start, end, parent)) == [3.0, 3.0, 2.0, 2.0]


def test_self_time_counts_overlapping_children_once_inside_parent():
    # children [1,5] and [3,7] cover 6; [8,12] sticks out past the parent
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(2.0)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = summary.tail([float(v) for v in range(100, 0, -1)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert summary.tail([float(v) for v in range(11)])[0] == 0.0
    with pytest.raises(ValueError):
        summary.tail([1.0] * 10)


def _indices_ops():
    return workloads.Indices(0).round(0)


def test_oracle_flags_a_wrong_integer():
    ops = {op.label: op for op in _indices_ops()}
    op = ops["souriau_m/sym-r-2"]
    rep = op.call()
    assert op.check(rep) == (rep.value,)
    with pytest.raises(workloads.Wrong):
        op.check(ix.IndexReport(rep.value + 2, rep.raw, rep.residual))
    mu_op = ops["mu/herm-c-2"]
    with pytest.raises(workloads.Wrong):
        mu_op.check(mu_op.call() + 1)


class _OffByOne(workloads.Workload):
    """Round 0 of `indices`, with every mu result shifted by one."""

    name = "indices"
    pool_rounds = 1

    def round(self, k):
        ops = _indices_ops()
        for op in ops:
            if op.label.startswith("mu/"):
                op.call = (lambda f: lambda: f() + 1)(op.call)
        return ops


def test_run_phase_records_wrong_integers():
    records, wrong, _ = run.run_phase(_OffByOne(0), 0.0)
    by_status = summary.failures(records)["by_class"]
    assert by_status == {"wrong": 4}
    assert len(wrong) == 4 and all("mu/" in line for line in wrong)


class _Flaky(workloads.Workload):
    """Two rounds: a failing op, and an op whose value changes per call."""

    name = "flaky"
    pool_rounds = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def _bump(self):
        self.calls += 1
        return self.calls

    def _fail(self):
        raise maslov_kit.errors.DomainError("drift")

    def round(self, k):
        if k == 0:
            return [workloads.Op("fails", self._fail, lambda got: ())]
        return [workloads.Op("drifts", self._bump, lambda got: (got,))]


def test_failures_count_each_pool_op_once_and_flag_changed_outcomes():
    records, wrong, _ = run.run_phase(_Flaky(0), 0.0, rounds=6)
    fails = summary.failures(records)
    assert (fails["attempted"], fails["failed"], fails["runs"]) == (2, 1, 6)
    assert fails["by_class"] == {"domain": 1}
    assert len(wrong) == 2 and all("drifts" in line for line in wrong)
    assert summary.digest(records)[1] == 2


def _bindings():
    """Every maslov_kit module attribute and ShilovPoint.__init__."""
    mods = [m for k, m in sys.modules.items()
            if k == "maslov_kit" or k.startswith("maslov_kit.")]
    out = {(m.__name__, key): val for m in mods for key, val in vars(m).items()}
    out["ShilovPoint.__init__"] = bd.ShilovPoint.__dict__["__init__"]
    return out


def test_traced_run_wraps_every_namespace_then_restores():
    import maslov_kit.cli  # noqa: F401  (binds the schema parsers too)

    before = _bindings()
    e = bd.unit_shilov(maslov_kit.algebra.algebra("sym-r", 2))
    tracer = spans.Tracer()
    with tracer:
        # dynamics binds relative_element by name, not through indices
        assert maslov_kit.dynamics.relative_element is not before[
            ("maslov_kit.dynamics", "relative_element")]
        with tracer.op("mu"):
            ix.mu(e, bd.ShilovPoint(1j * e.value))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summ = tracer.summary()
    assert summ["ops"] == {"mu": 1}
    layers = summ["layers"]["mu"]
    assert layers["indices.relative_element"][0] == 1
    assert summ["edges"]["indices.mu>indices.relative_element"][:2] == [1, 1]
    assert layers["indices.mu"][1] < layers["indices.mu"][2]


def test_targets_missing_from_the_package_are_skipped():
    tracer = spans.Tracer(targets=(("maslov_kit.gone", "f", "gone.f"),
                                   ("maslov_kit.boundary", "Gone.f", "gone.g"),
                                   ("maslov_kit.indices", "gone", "gone.h")))
    with tracer:
        pass
    assert tracer.summary()["layers"] == {}
