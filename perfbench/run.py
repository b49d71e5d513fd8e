"""Run one qlinsys benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in fresh worker processes
(`worker.py`) with BLAS and OpenMP pinned to one thread and the package
imported from `src/`.  Several workers are started one after another to
measure set-up; the last one also runs the timed phase.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are printed, with --trace 1 the
per-layer ones.  The last line of standard output is one JSON object; the
exit code is nonzero when any output failed its check or the run broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only workers before and after the timed one.  Set-up time is the
#: median of all their set-ups; the timed phase between the two groups
#: spreads them over more than one spell of host speed.
SETUPS_AROUND = 3
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _worker(args, setup_only: bool) -> tuple[float, list[dict]]:
    """Start one worker, wait for it, and return its set-up time and JSON lines."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    # A session of its own lets a timeout stop the worker's CLI children too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=60 if setup_only else args.seconds + 90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("worker timed out")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    # Both clocks are CLOCK_MONOTONIC, so the worker's reading compares with ours.
    return lines[0]["ready"] - start, lines


def _commit() -> str:
    """HEAD of the checkout's git metadata, when the checkout has any."""
    head = ROOT / ".git" / "HEAD"
    ref = head.read_text().strip() if head.is_file() else "unknown"
    if ref.startswith("ref: "):
        loose = ROOT / ".git" / ref[5:]
        ref = loose.read_text().strip() if loose.is_file() else ref[5:]
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(numpy_version: str) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "pinned": PINNED,
        "setups": 2 * SETUPS_AROUND + 1,
    }


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (metric values by name, the timed worker's result)."""
    setups, setup_layers = [], []
    for k in range(2 * SETUPS_AROUND + 1):
        setup_s, lines = _worker(args, setup_only=k != SETUPS_AROUND)
        setups.append(setup_s)
        setup_layers.append(lines[0].get("layers", {}))
        if k == SETUPS_AROUND:
            result = lines[1]
    if not args.trace:
        return {
            "ops_per_s": result["ops_per_s"],
            "latency_p90_ms": result["p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }, result
    metrics = dict(result["layers"])
    for name in setup_layers[0]:
        metrics[name] = statistics.median(layers[name] for layers in setup_layers)
    return metrics, result


def main(argv=None) -> int:
    declared_path = ROOT / "BENCHMARK.json"
    declared = json.loads(declared_path.read_text()) if declared_path.is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in declared["workloads"]] if declared else None
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if declared is None or not (ROOT / "src" / "qlinsys" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a qlinsys checkout (no BENCHMARK.json or src/qlinsys)", file=sys.stderr)
        return 2

    try:
        values, result = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    import numpy

    attempted, failed = result["attempted"], result["failed"]
    print("environment " + json.dumps(_environment(numpy.__version__)))
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  latency samples = {result['samples']} over {result.get('inputs', 0)} distinct inputs")
    print(f"  failed_ratio = {failed / attempted:g} ({failed}/{attempted})")
    # Printed, not declared: host speed here switches between two levels for
    # seconds at a time, so the median flips between them from run to run.
    print(f"  latency_p50_ms = {result['p50_ms']:.6g} ms")
    print(f"  op_latency_p90_ms = {result['op_p90_ms']:.6g} ms")
    print(f"  wall_ops_per_s = {result['wall_ops_per_s']:.6g} 1/s (passing ops per second spent in ops)")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
