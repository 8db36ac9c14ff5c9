"""One benchmark process: set up one workload and run its ops.

Started by ``bench/run.py`` once per measurement, in a fresh interpreter
with the BLAS and OpenMP thread counts pinned to 1.  Prints one JSON
object as its last line.

Modes:

* ``setup``: import polaray, build the workload's fixed inputs, report
  the time that took, exit.
* ``run``: closed loop of ops with one client, untraced; reports per-op
  latencies, the peak resident set and ``orbit_err``.
* ``trace``: an untraced phase, then a traced phase with spans at the
  layer boundaries; reports per-layer metrics and writes the spans.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

WARMUP_OPS = 2
# a run ends by this many seconds even when ops are slower than expected
HARD_LIMIT_S = 120.0
# traced phases stop at an op boundary past this many spans (~28 bytes each)
SPAN_CAP = 1_500_000


class Loop:
    """Closed-loop op runner with one client; counts failed ops."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []

    def one(self, run=None) -> float:
        t0 = time.perf_counter()
        try:
            digest = run(self.workload.op) if run else self.workload.op()
        except Exception as exc:  # any exception fails the op; the loop keeps going
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        else:
            if len(self.digests) < 3:
                self.digests.append(digest)
        self.attempted += 1
        return time.perf_counter() - t0

    def phase(self, seconds: float, min_ops: int, deadline: float, run=None, stop=None):
        """Latencies of ops run for ``seconds`` and at least ``min_ops`` ops."""
        latencies = []
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if now - start >= seconds and len(latencies) >= min_ops:
                break
            if stop is not None and stop():
                break
            latencies.append(self.one(run))
        return latencies, time.perf_counter() - start


def _p90(latencies) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10)[8]


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    import numpy
    import workloads

    lib = workloads.Library()
    workload = workloads.WORKLOADS[args.workload](args.seed, lib, args.workdir, args.size)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    deadline = time.perf_counter() + HARD_LIMIT_S
    loop = Loop(workload)
    for _ in range(WARMUP_OPS):
        loop.one()

    if args.mode == "run":
        min_ops = workloads.SIZES[args.size]["min_ops"]
        latencies, elapsed = loop.phase(args.seconds, min_ops, deadline)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["op_p50_ms"] = 1e3 * statistics.median(latencies)
        out["op_p90_ms"] = 1e3 * _p90(latencies)
        out["ops_per_s"] = len(latencies) / elapsed
        out["measured_ops"] = len(latencies)
        out["orbit_err"] = _orbit_err(workload, loop, args)
    else:
        from spans import SpanRecorder, layer_metrics

        min_ops = max(1, workloads.SIZES[args.size]["min_ops"] // 10)
        untraced, _ = loop.phase(args.seconds / 3.0, min_ops, deadline)
        recorder = SpanRecorder()
        recorder.install(lib)
        ops = iter(range(1 << 30))
        try:
            traced, _ = loop.phase(
                args.seconds * 2.0 / 3.0,
                min_ops,
                deadline,
                run=lambda fn: recorder.run_op(next(ops), fn),
                stop=lambda: len(recorder) > SPAN_CAP,
            )
        finally:
            recorder.uninstall()
        metrics = layer_metrics(
            recorder, statistics.median(untraced), statistics.median(traced)
        )
        metrics["wavepacket.estimate_peak_mb"] = (_estimate_peak_mb(workload), "MB")
        out["metrics"] = metrics
        if args.spans:
            recorder.save(args.spans)
    out.update(
        attempted=loop.attempted, failed=loop.failed, errors=loop.errors, digests=loop.digests
    )
    print(json.dumps(out))
    return 0


def _orbit_err(workload, loop: Loop, args) -> float:
    """orbit_err of the code under test, from outside the timed loop.

    curved-orbit measures it on every op; the other workloads run one
    curved-orbit op for the same seed, counted as one more attempted op.
    """
    import workloads

    if not isinstance(workload, workloads.CurvedOrbit):
        probe = Loop(workloads.CurvedOrbit(args.seed, workloads.Library(), args.workdir, args.size))
        probe.one()
        loop.attempted += probe.attempted
        loop.failed += probe.failed
        loop.errors += probe.errors
        workload = probe.workload
    return workload.orbit_err


def _estimate_peak_mb(workload) -> float:
    """tracemalloc peak of one estimate call (0 where the workload has none)."""
    if not hasattr(workload, "estimate_once") or workload.last_field is None:
        return 0.0
    tracemalloc.start()
    try:
        workload.estimate_once()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
