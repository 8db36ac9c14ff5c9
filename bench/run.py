"""polaray benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload curved-orbit --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; polaray is imported from
``src``.  Each measurement runs in its own fresh process
(``bench/child.py``) with one client and one thread.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics
of a traced run.  ``--workload all`` runs every workload both ways and
prints every metric with its unit.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, environment and spans also go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("curved-orbit", "ray-bundle", "packet-estimate")
# fresh processes timed for setup_s before and again after the timed run
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "orbit_err": "rel",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _child(workload: str, seed: int, seconds: float, mode: str, size: str, workdir: str,
           spans: str | None = None) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--size", size, "--workdir", workdir,
    ]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(workload: str, seed: int, size: str, workdir: str) -> float:
    return _child(workload, seed, 0.0, "setup", size, workdir)["setup_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: str) -> dict:
    """One result in the output contract's shape, plus details."""
    if trace:
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")
        res = _child(workload, seed, seconds, "trace", size, workdir, spans)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    else:
        # set-up probes on both sides of the timed run, so that a slow
        # spell of the machine sways fewer of them
        setups = [_setup_s(workload, seed, size, workdir) for _ in range(SETUP_PROBES)]
        res = _child(workload, seed, seconds, "run", size, workdir)
        setups += [_setup_s(workload, seed, size, workdir) for _ in range(SETUP_PROBES)]
        values = {k: res[k] for k in ("op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        values["ok_rate"] = (res["attempted"] - res["failed"]) / res["attempted"]
        values["orbit_err"] = res["orbit_err"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        res["setup_probes_s"] = setups
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "details": {k: v for k, v in res.items() if k != "metrics"},
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {workload:16s} {name:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polaray", "__init__.py")):
        print("bench: no polaray sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.workload == "all":
            final, record = _run_all(args, env, workdir)
        else:
            final = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.size, workdir)
            record = {"env": env, "args": vars(args), "result": final}
            print(f"env: python {env['python']}, numpy {final['details']['numpy']}, "
                  f"{env['cpu']}, nproc {env['nproc']}")
            _print_metrics(args.workload, final)
            final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(final))
    return 0


def _run_all(args, env: dict, workdir: str):
    """Every workload untraced and traced; prints each metric with its unit."""
    results = {}
    for workload in WORKLOADS:
        results[workload] = {
            "untraced": measure(workload, args.seed, args.seconds, False, args.size, workdir),
            "traced": measure(workload, args.seed, args.seconds, True, args.size, workdir),
        }
    numpy_version = results[WORKLOADS[0]]["untraced"]["details"]["numpy"]
    print(f"env: python {env['python']}, numpy {numpy_version}, {env['cpu']}, "
          f"nproc {env['nproc']}, seed {args.seed}, {args.seconds:g} s per run")
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, pair in results.items():
        print(f"{workload}:")
        for kind in ("untraced", "traced"):
            res = pair[kind]
            _print_metrics(workload, res)
            final["correct"] &= res["correct"]
            final["attempted"] += res["attempted"]
            final["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                final["metrics"][f"{workload}/{name}"] = m
        res = pair["untraced"]
        print(f"  {workload:16s} {'error_rate':32s} "
              f"{res['failed'] / res['attempted']:>16.6g} ratio")
    record = {"env": env, "args": vars(args), "numpy": numpy_version, "results": results}
    return final, record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
