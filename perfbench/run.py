"""stairlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload perceive --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run repeats the workload's call for ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it makes
each call twice, once with every layer wrapped in spans, and reports the
per-layer metrics. Either way the
outputs are checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: BLAS threads would contend with the Python loop
# on a small machine and make timings depend on what else runs there.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up is sampled this many times (this process and fresh ones) and the median reported.
SETUP_SAMPLES = 5


def attempt(workload, i):
    """(seconds, output) of call ``i``; output None when the call raised."""
    t0 = time.perf_counter()
    try:
        out = workload.call(i)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def run_for(workload, seconds):
    """Calls 0, 1, ... until ``seconds`` have passed; at least one call."""
    calls = []
    t0 = time.perf_counter()
    while not calls or time.perf_counter() - t0 < seconds:
        calls.append(attempt(workload, len(calls)))
    return calls, time.perf_counter() - t0


def counts(workload, calls):
    attempted = len(calls) * workload.ops_per_call
    failed = sum(out is None for _, out in calls) * workload.ops_per_call
    return attempted, failed


def setup_samples(args, own):
    """This process's set-up time plus that of fresh processes doing the same set-up."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(workload, args, setup_own, info):
    import numpy as np

    calls, wall = run_for(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [(i, dt, out) for i, (dt, out) in enumerate(calls) if out is not None]
    latencies_ms = [dt / workload.ops_per_call * 1e3 for _, dt, _ in ok]
    ops = len(ok) * workload.ops_per_call
    faults = workload.check({i: out for i, _, out in ok}, info) if ok else ["every call failed"]
    setups = setup_samples(args, setup_own)
    info.append(
        f"{len(calls)} calls of {workload.ops_per_call} operation(s) in {wall:.2f} s; "
        f"{ops * workload.items_per_op / wall:.1f} {workload.item}/s; "
        f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tokens_or_env_steps_per_s": (ops * workload.items_per_op / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms) if ok else 0.0, "ms"),
        "op_p90_ms": (float(np.percentile(latencies_ms, 90)) if ok else 0.0, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    attempted, failed = counts(workload, calls)
    return faults, attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, args, info):
    """Each call untraced and traced in turn, the order alternating, for ``--seconds`` in all.

    Alternating puts both sides under the same host speed, so their ratio
    is the tracing overhead rather than drift of the machine.
    """
    import tracing

    tracer = tracing.Tracer()
    calls, again = [], []
    t0 = time.perf_counter()
    while not calls or time.perf_counter() - t0 < args.seconds:
        i = len(calls)
        for traced_turn in (i % 2 == 1, i % 2 == 0):
            if not traced_turn:
                calls.append(attempt(workload, i))
                continue
            tracing.install_stairlab(tracer)
            try:
                again.append(attempt(workload, i))
            finally:
                tracer.uninstall()

    ok = {i: out for i, (_, out) in enumerate(calls) if out is not None}
    faults = workload.check(ok, info) if ok else ["every call failed"]
    changed = [i for i in ok if again[i][1] is None or not workload.same(ok[i], again[i][1])]
    if changed:
        faults.append(f"tracing changed the output of calls {changed}")
    untraced_s = sum(dt for dt, _ in calls)
    traced_s = sum(dt for dt, _ in again)
    info.append(f"{len(calls)} calls, untraced {untraced_s:.2f} s, traced {traced_s:.2f} s")
    attempted, failed = counts(workload, calls)
    n_ops = max(1, len(ok) * workload.ops_per_call)
    return faults, attempted, failed, tracing.layer_metrics(tracer, n_ops, traced_s, untraced_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "stairlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'stairlab'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    # Warm-up: the first call fills lazy caches and imports before timing.
    if attempt(workload, 0)[1] is None:
        sys.exit("error: the warm-up call failed")
    setup_own = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup_own))
        return

    info = []
    if args.trace:
        faults, attempted, failed, metrics = traced(workload, args, info)
    else:
        faults, attempted, failed, metrics = end_to_end(workload, args, setup_own, info)
    for line in info:
        print(f"# {line}")
    for fault in faults:
        print(f"# FAULT {fault}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {not faults}")
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
