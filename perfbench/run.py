"""maslov-kit benchmark: one workload driven by a single closed-loop client.

    python3 perfbench/run.py --workload {indices,words,paths,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `src/` of
that checkout and writes only under `.bench_out/` there.  Every op's
integers are checked against an oracle (see workloads.py); a wrong integer
makes the run exit 1.

A run cycles through a pool of seeded rounds (workloads.py) for the given
seconds, and at least once through all of it; `attempted` and `failed`
count the pool's distinct ops, so they depend only on the seed.  An op's
time is its fastest run.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import the package and make one warm call per algebra),
verified ops per second, median and tail latency per op, and peak RSS.
--trace 1 spends half the time untraced, then runs the same rounds with
every layer function wrapped (spans.py), and prints per-layer metrics, each
per op execution, plus the tracing overhead.  The last line of stdout is
one JSON object.

Op times are scaled to a nominal host speed measured by a fixed reference
loop run after every op (summary.host_factors); the report also prints the
median factor and the unscaled throughput.  Set-up time (fresh processes) is
reported unscaled.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 60
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("indices", "words", "paths", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads(nproc):
    """One BLAS thread unless set otherwise, and never more than nproc:
    the ops are small, and extra threads only add noise."""
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(nproc, cpu):
    import numpy

    try:
        from maslov_kit.jacobi import active_backend
        backend = active_backend()
    except ImportError:
        backend = "none (no maslov_kit.jacobi)"
    return {
        "commit": git_commit(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "MASLOV_KIT_BACKEND": os.environ.get("MASLOV_KIT_BACKEND"),
        "MASLOV_KIT_THREADS": os.environ.get("MASLOV_KIT_THREADS"),
        **{var: os.environ[var] for var in BLAS_VARS},
    }


def run_probe(argv, env):
    """Start a fresh interpreter; return (its JSON line, start time)."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"probe {argv} exited {out.returncode}")
    return json.loads(out.stdout), start


def measure_setup(wl_cls, env):
    """Median seconds from process start to ready-for-the-first-op."""
    kind = "cli" if wl_cls.name == "cli" else "lib"
    specs = [f"{a.kind}:{a.param}" for a in wl_cls.algebras]
    times = []
    for _ in range(SETUP_PROBES):
        doc, start = run_probe(["setup", kind, *specs], env)
        if not Path(doc["file"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imported maslov_kit from {doc['file']}")
        times.append(doc["ready"] - start)
    return statistics.median(times)


def measure_import_ms(env):
    """Median fresh-process import time of maslov_kit.cli."""
    times = [run_probe(["import"], env)[0]["import_s"]
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times) * 1e3


def run_phase(wl, seconds, tracer=None, rounds=None):
    """Cycle through the workload's pool of rounds (step k runs round
    k % pool_rounds) until `seconds` have passed and every round has run
    once, or for exactly `rounds` steps.  Each op runs `wl.repeats` times on
    the same inputs and records its fastest run.  Every run of an op must
    give the outcome of its first run.  Returns the records, the
    wrong-integer messages and, per step, the reference-loop times taken
    after each op."""
    from maslov_kit.errors import AmbiguityError, DomainError, IntegralityError
    from summary import Record, reference_time
    from workloads import CliExit, Wrong

    def failure_class(exc):
        if isinstance(exc, IntegralityError):
            return "integrality"
        if isinstance(exc, AmbiguityError):
            return "ambiguity"
        if isinstance(exc, DomainError):
            return "domain"
        if isinstance(exc, CliExit):
            return f"exit{exc.code}"
        return "wrong"

    expected = (AmbiguityError, DomainError, CliExit)
    pool = wl.pool
    records, wrong, refs = [], [], []
    first_outcome = {}
    deadline = time.monotonic() + seconds
    k = 0
    while (k < rounds if rounds is not None else
           k < len(pool) or time.monotonic() < deadline):
        rnd = k % len(pool)
        refs.append([])
        for pos, op in enumerate(pool[rnd]):
            best, ints, status = float("inf"), None, "ok"
            for _ in range(wl.repeats):
                ctx = tracer.op(op.label) if tracer is not None else nullcontext()
                start = time.perf_counter()
                try:
                    with ctx:
                        result = op.call()
                except expected as exc:
                    best = min(best, time.perf_counter() - start)
                    status = failure_class(exc)
                    break
                best = min(best, time.perf_counter() - start)
                try:
                    got = op.check(result)
                    if ints is not None and got != ints:
                        raise Wrong(f"repeat gave {got}, first run {ints}")
                    ints = got
                except expected + (Wrong,) as exc:
                    status = failure_class(exc)
                    if isinstance(exc, Wrong):
                        wrong.append(f"round {rnd} {op.label}: {exc}")
                    break
            outcome = (status, ints if status == "ok" else ())
            seen = first_outcome.setdefault((rnd, pos), outcome)
            if seen != outcome and status != "wrong":
                wrong.append(f"round {rnd} {op.label}: gave {outcome}, "
                             f"its first run {seen}")
            records.append(Record(op.label, rnd, pos, k, best, *outcome))
            refs[-1].append(reference_time())
        k += 1
    return records, wrong, refs


def layer_metrics(summ, factor):
    """Per-layer metrics from a span summary, per op execution;
    times are multiplied by the host-speed `factor`."""
    n_ops = sum(summ["ops"].values())
    totals = {}
    for cells in summ["layers"].values():
        for name, (calls, self_s, _) in cells.items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    edges, notes = summ["edges"], summ["notes"]

    def calls(name):
        return totals.get(name, [0, 0.0])[0] / n_ops

    def self_ms(name):
        return totals.get(name, [0, 0.0])[1] * 1e3 * factor / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    def edge(parent, child):
        return edges.get(f"{parent}>{child}", [0, 0, 0, 0])

    out = {}
    for name in ("jacobi.eigh", "algebra.spectral_decompose_real",
                 "boundary.shilov_spectral", "indices.relative_element",
                 "boundary.ShilovPoint", "boundary.act_lift",
                 "boundary.cocycle_j", "dynamics.eigenangle_flow"):
        out[f"{name}.calls"] = (calls(name), "count/op")
        out[f"{name}.self_ms"] = (self_ms(name), "ms/op")
    for name in ("indices.mu", "indices.souriau_m", "indices.maslov_iota",
                 "indices.inertia_j", "boundary.cinverse",
                 "boundary.apply_word", "dynamics.rotation_rho",
                 "schemas.parse", "serialize.dumps"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms/op")
    tries = edge("boundary.shilov_spectral", "algebra.spectral_decompose_real")
    out["boundary.shilov_spectral.tries"] = (ratio(tries[0], tries[1]), "ratio")
    wit = edge("indices.souriau_m", "indices.transversal")
    n_souriau = totals.get("indices.souriau_m", [0])[0]
    out["indices.souriau_m.witness_share"] = (ratio(wit[1], n_souriau), "ratio")
    out["indices.transversal.calls_per_witness"] = (ratio(wit[0], wit[1]), "ratio")
    # lifts of unitary words make one cocycle_j call and no unwrap
    unwrap = edge("boundary.act_lift", "boundary.cocycle_j")
    out["boundary.cocycle_j.per_lift"] = (ratio(unwrap[3], unwrap[2]), "ratio")
    out["dynamics.eigenangle_flow.samples_per_grid"] = (
        ratio(edge("dynamics.eigenangle_flow", "indices.relative_element")[0],
              notes.get("dynamics.eigenangle_flow", 0)), "ratio")
    return out


def op_table(summ, factor, top=4):
    """Lines of the per-op breakdown: the largest self times per op,
    multiplied by the host-speed `factor`."""
    lines = []
    for label in sorted(summ["ops"]):
        n = summ["ops"][label]
        cells = sorted(summ["layers"].get(label, {}).items(),
                       key=lambda kv: -kv[1][1])[:top]
        parts = [f"{name} {self_s * 1e3 * factor / n:.3f} ms x{calls / n:.1f}"
                 for name, (calls, self_s, _) in cells]
        lines.append(f"  {label:<34} n={n:<4} " + "; ".join(parts))
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "maslov_kit" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}")
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    # One CPU for this process and every child it starts: the host-speed
    # probe then measures the CPU the timed work runs on.
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    # BLAS reads its thread settings when numpy loads, so pin them first
    pin_blas_threads(nproc)
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import maslov_kit

    if not Path(maslov_kit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: maslov_kit imported from {maslov_kit.__file__}")
    import spans
    import summary
    import workloads
    from child import warm

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    env_block = environment(nproc, cpu)
    wl_cls = workloads.WORKLOADS[args.workload]

    if not args.trace:
        setup_s = measure_setup(wl_cls, env)
    wl = wl_cls(args.seed, str(workdir))
    wl.pool                 # inputs are made before timing
    for alg in wl.algebras:
        warm(alg)

    seconds = args.seconds / 2 if args.trace else args.seconds
    records, wrong, refs = run_phase(wl, seconds)
    factors = summary.host_factors(refs)
    stats = summary.latency_stats(records, factors)
    fails = summary.failures(records)
    digest, digest_ops = summary.digest(records)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = [f"maslov-kit benchmark: workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    report += [f"  env {key}: {val}" for key, val in env_block.items()]
    report.append(f"  integer digest {digest} over the {wl.pool_rounds} "
                  f"round(s) of the pool, {digest_ops} ops")
    report.append(f"  host speed factor: median {statistics.median(factors)!r} "
                  f"over {len(factors)} rounds (op times below are scaled)")
    report += [f"  WRONG {line}" for line in wrong]

    if args.trace:
        # the traced phase repeats the untraced steps, so the overhead
        # compares one op mix on the same inputs
        tracer = spans.Tracer()
        with tracer:
            traced, wrong2, traced_refs = run_phase(wl, seconds, tracer,
                                                    len(factors))
        summ = tracer.summary()
        tracer.dump(workdir / "spans.json")
        wrong += wrong2
        report += [f"  WRONG (traced) {line}" for line in wrong2]
        traced_factors = summary.host_factors(traced_refs)
        traced_stats = summary.latency_stats(traced, traced_factors)
        traced_factor = statistics.median(traced_factors)
        metrics = layer_metrics(summ, traced_factor)
        metrics["cli.import_ms"] = (measure_import_ms(env), "ms")
        metrics["trace.ops_per_s_untraced"] = (stats["ops_per_s"], "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_stats["ops_per_s"], "1/s")
        metrics["trace.overhead_pct"] = (
            100.0 * (1.0 - traced_stats["ops_per_s"] / stats["ops_per_s"]), "%")
        report.append("  per-op self time, largest layers (traced run):")
        report += op_table(summ, traced_factor)
        with open(workdir / "trace-summary.json", "w") as fh:
            json.dump({"env": env_block, "summary": summ,
                       "metrics": {k: v[0] for k, v in metrics.items()}},
                      fh, indent=1)
        fails = summary.failures(records + traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
            "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        report.append(f"  tail = p{stats['tail_percentile']:.2f} of "
                      f"{stats['samples']} verified ops; unscaled ops_per_s "
                      f"{stats['unscaled_ops_per_s']!r}")
    report.append(f"  attempted {fails['attempted']} distinct ops in "
                  f"{fails['runs']} runs, failed {fails['failed']} "
                  f"(failed_frac {fails['failed'] / fails['attempted']!r})")
    for cls_name, count in fails["by_class"].items():
        report.append(f"    {cls_name}: {count}/{fails['attempted']}")
    for (cls_name, label), count in fails["by_op"].items():
        report.append(f"      {cls_name} {label}: {count}")
    report += [f"  {name} = {value!r} {unit}"
               for name, (value, unit) in metrics.items()]
    print("\n".join(report))
    print(json.dumps({
        "correct": not wrong,
        "attempted": fails["attempted"],
        "failed": fails["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
