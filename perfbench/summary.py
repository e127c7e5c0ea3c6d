"""Statistics over op records: host speed, latency percentiles, failures
and the integer digest."""

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass

TAIL_BEYOND = 10

# A shared host's speed drifts by a factor of two within minutes as other
# tenants load it.  After every op the benchmark times one run of
# `reference_loop`, and the op times of each step are multiplied by
# (REF_S / t) ** ELASTICITY, t being the mean of that step's reference
# times.  On a shared 2-vCPU Xeon VM the library's ops slowed more than
# this loop: over ten runs per workload, ELASTICITY 1.0 left spreads
# (quartile distance over median) of 5-19% across the end-to-end times,
# 1.4 left 4-11%, and every workload preferred 1.3-1.5.  Timing one loop
# after each op tracked the ops far better than the fastest of several
# loops between steps.  REF_S is t on that VM unloaded.
REF_S = 6.0e-4
ELASTICITY = 1.4


def reference_loop():
    """Fixed pure-Python integer work, sharing no code with maslov_kit."""
    acc = 0
    for i in range(10_000):
        acc += (i * 7) % 13
    return acc


def reference_time():
    """Seconds that one run of the reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def host_factors(step_refs):
    """Per step, the multiplier that takes op times to the nominal host
    speed, from the reference times taken in that step: below 1 on a slow
    host."""
    return [(REF_S / statistics.fmean(refs)) ** ELASTICITY
            for refs in step_refs]


@dataclass
class Record:
    label: str
    round: int            # round of the workload's pool
    pos: int              # place of the op in its round
    step: int             # step of the run; host_factors has one per step
    seconds: float        # as measured, not host-scaled
    status: str           # "ok" or a failure class
    ints: tuple = ()


def tail(values, beyond=TAIL_BEYOND):
    """The value at the highest percentile with at least `beyond` samples
    above it: (value, percentile, sample count)."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def latency_stats(records, factors):
    """Each distinct op's time is its fastest run, each run multiplied by
    its step's host factor; ops_per_s counts verified ops over the sum of
    those times, failed ops included; latencies are those of verified ops."""
    best = {}
    for r in records:
        key = (r.round, r.pos)
        scaled = r.seconds * factors[r.step]
        if key not in best or scaled < best[key][0]:
            best[key] = (scaled, r)
    ops = list(best.values())
    ok = [scaled for scaled, r in ops if r.status == "ok"]
    tail_s, pct, n = tail(ok)
    return {
        "ops_per_s": len(ok) / sum(scaled for scaled, _ in ops),
        "unscaled_ops_per_s": len(ok) / sum(r.seconds for _, r in ops),
        "latency_p50_ms": statistics.median(ok) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "tail_percentile": pct,
        "samples": n,
    }


def first_runs(records):
    """The first record of each distinct op, in pool order."""
    first = {}
    for r in records:
        first.setdefault((r.round, r.pos), r)
    return [first[key] for key in sorted(first)]


def failures(records):
    """Failure counts over the distinct ops of the pool; an op that ran
    several times counts once (run_phase holds its outcome fixed)."""
    ops = first_runs(records)
    bad = [r for r in ops if r.status != "ok"]
    counts = Counter(r.status for r in bad)
    return {"attempted": len(ops), "failed": len(bad), "runs": len(records),
            "by_class": dict(sorted(counts.items())),
            "by_op": dict(sorted(Counter((r.status, r.label) for r in bad).items()))}


def digest(records):
    """sha256 over the integers (or failure class) of every distinct op, in
    pool order: (hex prefix, op count)."""
    h = hashlib.sha256()
    ops = first_runs(records)
    for r in ops:
        outcome = ",".join(map(str, r.ints)) if r.status == "ok" else "!" + r.status
        h.update(f"{r.label}={outcome};".encode())
    return h.hexdigest()[:16], len(ops)
