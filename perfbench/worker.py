"""One workload process: set up, report ready, run the timed phase, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

`run.py` starts it with a pinned environment.  It prints one JSON line
holding its clock reading when set-up ends and, without --setup-only, one
JSON result line after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracer as tracing
from workloads import CLI_COMMANDS, STARTUP_FLOORS, WORKLOADS, InProcess

ROOT = Path(__file__).resolve().parents[1]


def _ms(ns) -> float:
    return ns / 1e6


def _p50(samples) -> float:
    return statistics.median(samples) if len(samples) else 0.0


def _p90(ordered) -> float:
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _latency(samples: array, keys: list, best_of_run: bool) -> dict:
    """Latency figures of the passing ops; `keys[j]` is the input of sample j.

    With `best_of_run`, `ops_per_s` and `p90_ms` are taken over the distinct
    inputs, each at its fastest latency of the run: the rate of one pass
    over them, and the slow tail of the input mix.  Like timeit's best-of-N
    they track the program's cost at the host's fast speed level, where the
    wall-clock rate (`wall_ops_per_s`) and the op latency p90 (`op_p90_ms`)
    move with how long the host was slow.  Best-of-N needs many ops per
    input, so a workload with few (a cold CLI call takes a third of a
    second) reports the wall-clock rate and the op latency p90.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return {"samples": 0, "p50_ms": 0.0, "p90_ms": 0.0, "op_p90_ms": 0.0, "ops_per_s": 0.0, "wall_ops_per_s": 0.0}
    best: dict = {}
    for key, ns in zip(keys, samples):
        best[key] = min(ns, best.get(key, ns))
    basis = sorted(best.values()) if best_of_run else ordered
    wall = n / (sum(ordered) / 1e9)
    return {
        "samples": n,
        "inputs": len(best),
        "p50_ms": _ms(statistics.median(ordered)),
        "op_p90_ms": _ms(_p90(ordered)),
        "p90_ms": _ms(_p90(basis)),
        "ops_per_s": len(basis) / (sum(basis) / 1e9),
        "wall_ops_per_s": wall,
    }


def setup_metrics(tracer) -> dict:
    """Per-layer numbers that only set-up sees: the cold synthesis call and the catalog."""
    first_synth = tracer.durations.get("synth.synthesize", ())
    return {
        "synth.synthesize.cold_ms": _ms(first_synth[0]) if first_synth else 0.0,
        "family.enumerate_family.busy_ms": _ms(tracer.busy_ns("family.enumerate_family")),
    }


def layer_metrics(run_tracer, pass_tracer, plain: array, traced: array) -> dict:
    """Per-layer numbers from the traced half of the timed phase and the counting pass."""
    durations = run_tracer.durations
    out = {}
    busy = 0
    for name in tracing.TRACED:
        if name == "family.enumerate_family":  # set-up only, see setup_metrics
            continue
        calls = durations.get(name, ())
        busy += sum(calls)
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.busy_ms"] = _ms(sum(calls))
        out[f"{name}.p50_us"] = _p50(calls) / 1e3
    for name in tracing.COUNTERS:
        out[name] = pass_tracer.counts[name]
    run_s = run_tracer.busy_ns("sim.run") / 1e9
    out["sim.amp_updates_per_s"] = run_tracer.counts["sim.amp_updates"] / run_s if run_s else 0.0

    floors = {f: _ms(_p50(durations.get(f"cli.startup.{f}", ()))) for f in STARTUP_FLOORS}
    for name in CLI_COMMANDS:
        main_ms = _ms(_p50(durations.get(f"cli.main.{name}", ())))
        cold = durations.get(f"cli.cold.{name}", ())
        out[f"cli.main.{name}.p50_ms"] = main_ms
        out[f"cli.cold.{name}.p50_ms"] = _ms(_p50(cold))
        # A cold call is covered by the import floor plus the warm command time.
        busy += len(cold) * 1e6 * (floors["qlinsys_ms"] + main_ms)
    for floor, value in floors.items():
        out[f"cli.startup.{floor}"] = value

    out["bench.unattributed_pct"] = 100.0 * (1.0 - busy / sum(traced)) if len(traced) else 0.0
    out["bench.trace_overhead_pct"] = (
        100.0 * (_p50(traced) / _p50(plain) - 1.0) if len(traced) and len(plain) else 0.0
    )
    return out


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Outcome:
    """Checked items (ops, or whole-program check passes) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors


def timed_phase(workload, plain, traced, seconds: float, outcome: Outcome) -> tuple[dict[bool, array], list]:
    """Run ops until `seconds` have passed.

    Return op latencies (ns) of untraced and traced ops, and the input key
    (`workload.key`) of each untraced latency.  With `traced` given,
    untraced and traced ops alternate, so host drift cancels out of the
    tracing overhead.  Each op's check runs outside its timed region; only
    ops that pass contribute a latency.
    """
    latencies = {False: array("q"), True: array("q")}
    keys = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        is_traced = traced is not None and i % 2 == 1
        start = perf_counter_ns()
        try:
            out = workload.op(traced if is_traced else plain, i)
            elapsed = perf_counter_ns() - start
            error = workload.check(i, out)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            error = f"op {i} raised {exc!r}"
        outcome.add([] if error is None else [error])
        if error is None:
            latencies[is_traced].append(elapsed)
            if not is_traced:
                keys.append(workload.key(i))
        i += 1
        if perf_counter() >= deadline:
            return latencies, keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, ROOT, setup_tracer)
    error = workload.warm_up(workload.layers(setup_tracer))
    if error is not None:
        print(f"warm-up op failed its check: {error}", file=sys.stderr)
        return 1
    ready = {"ready": perf_counter()}
    if args.trace:
        ready["layers"] = setup_metrics(setup_tracer)
    print(json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    outcome = Outcome()
    run_tracer = tracing.Tracer()
    seconds = args.seconds
    if args.trace and hasattr(workload, "profile"):
        start = perf_counter()
        outcome.add(workload.profile(run_tracer))
        seconds -= perf_counter() - start
    traced = workload.layers(run_tracer) if args.trace else None
    latencies, keys = timed_phase(workload, workload.layers(), traced, seconds, outcome)
    outcome.add(workload.final_checks())

    in_process = isinstance(workload, InProcess)
    result = _latency(latencies[False], keys, best_of_run=in_process)
    result["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    if args.trace:
        # One counted full pass over the input mix, so work counts repeat exactly.
        pass_tracer = tracing.Tracer()
        if in_process:
            counted = workload.layers(pass_tracer)
            for j in range(workload.cycle):
                error = workload.check(j, workload.op(counted, j))
                outcome.add([] if error is None else [error])
        result["layers"] = layer_metrics(run_tracer, pass_tracer, latencies[False], latencies[True])
    result.update(attempted=outcome.attempted, failed=outcome.failed, errors=outcome.errors[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
