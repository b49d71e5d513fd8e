"""Print best-of-N per-call times, in microseconds, of the solve -> sample -> QASM and tomography chains and layers.

Run it from anywhere:

    python3 tests/per_call.py                       # this tree, 5 processes
    python3 tests/per_call.py --other ../parent     # 5 processes per tree, alternating

Each figure comes from one fresh process that imports the package from one
tree's `src`, never an installed copy, with the BLAS thread counts pinned to
1.  It is the best of `--repeat` timeit repeats, each of timeit's autorange
loop count (or `--loops`), per call.  The host's speed varies between
processes, so compare each side's best.  The other tree needs only `src`: this
script times it from here, so a parent commit that predates the script works.
With `--other`, the trees alternate process by process and each round swaps
which runs first.

The calls, on catalog label index 5 and basis input 1, 1024 shots, seed 7:

* `inverse_operator`, `synthesize` (warm), `run`, `probabilities`,
  `sample_distribution` and `circuit_to_qasm`, each on the previous one's
  output;
* `solve_sample_chain`: all six in order, one op of the `solve_sample`
  workload;
* `solve_sample_catalog`: the chain over all 48 labels times 4 basis inputs,
  per (label, basis) pair, the workload's mix;
* `circuit_to_qasm_catalog`: the 48 catalog circuits, per circuit;
* `solve`, `density_from_state`, `apply_depolarizing` at the calibrated p,
  sampled `pauli_expectations`, `reconstruct` and `fidelity`, each on the
  previous one's output, the solution for basis input 0 as the target;
* `tomography_catalog`: those six calls over all 48 labels, per label, one
  op of the `tomography` workload each, shot seed the label's index.

It prints one JSON object in the shape of a BENCH file's `per_call_us`:
`method`, then `change_best_us` and `change_us` (per process) for this tree,
and with `--other` the same under `parent_` and `change_pct_of_best`, change
best over parent best minus one, in percent.

Not a pytest module: its name has no test_ prefix.
"""

import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LABEL, BASIS, SHOTS, SEED = 5, 1, 1024, 7


def calls() -> dict:
    """The timed calls, each a no-argument function, on the package imported from `sys.path`."""
    import numpy as np
    from qlinsys import family, linsys, qasm, sim, synth, tomo

    matrices = [spec.matrix for spec in family.enumerate_family()]
    matrix = matrices[LABEL]
    operator = linsys.inverse_operator(matrix)
    circuit = synth.synthesize(operator).circuit
    state = sim.run(circuit, BASIS)
    probs = sim.probabilities(state)
    circuits = [synth.synthesize(linsys.inverse_operator(m)).circuit for m in matrices]
    first, p = np.eye(4)[0], tomo.CALIBRATED_DEPOLARIZING_P
    solution = linsys.solve(matrix, first)
    pure = tomo.density_from_state(solution)
    noisy = tomo.apply_depolarizing(pure, p)
    table = tomo.pauli_expectations(noisy, "sampled", SHOTS, SEED)
    rebuilt = tomo.reconstruct(table)

    def chain(m, basis, seed):
        result = synth.synthesize(linsys.inverse_operator(m))
        out = sim.run(result.circuit, basis)
        table = sim.sample_distribution(sim.probabilities(out), SHOTS, seed)
        return out, table, qasm.circuit_to_qasm(result.circuit)

    def catalog():
        for i, m in enumerate(matrices):
            for basis in range(4):
                chain(m, basis, 4 * i + basis)

    def all_qasm():
        for c in circuits:
            qasm.circuit_to_qasm(c)

    def tomography(m, seed):
        x = linsys.solve(m, first)
        noisy = tomo.apply_depolarizing(tomo.density_from_state(x), p)
        rho = tomo.reconstruct(tomo.pauli_expectations(noisy, "sampled", SHOTS, seed))
        return rho, tomo.fidelity(rho, x)

    def tomography_catalog():
        for i, m in enumerate(matrices):
            tomography(m, i)

    return {
        "inverse_operator": (lambda: linsys.inverse_operator(matrix), 1),
        "synthesize": (lambda: synth.synthesize(operator), 1),
        "run": (lambda: sim.run(circuit, BASIS), 1),
        "probabilities": (lambda: sim.probabilities(state), 1),
        "sample_distribution": (lambda: sim.sample_distribution(probs, SHOTS, SEED), 1),
        "circuit_to_qasm": (lambda: qasm.circuit_to_qasm(circuit), 1),
        "solve_sample_chain": (lambda: chain(matrix, BASIS, SEED), 1),
        "solve_sample_catalog": (catalog, 4 * len(matrices)),
        "circuit_to_qasm_catalog": (all_qasm, len(circuits)),
        "solve": (lambda: linsys.solve(matrix, first), 1),
        "density_from_state": (lambda: tomo.density_from_state(solution), 1),
        "apply_depolarizing": (lambda: tomo.apply_depolarizing(pure, p), 1),
        "pauli_expectations": (lambda: tomo.pauli_expectations(noisy, "sampled", SHOTS, SEED), 1),
        "reconstruct": (lambda: tomo.reconstruct(table), 1),
        "fidelity": (lambda: tomo.fidelity(rebuilt, solution), 1),
        "tomography_catalog": (tomography_catalog, len(matrices)),
    }


def measure(repeat: int, loops: int) -> dict:
    """Best per-call time in us of each call, in this process."""
    best = {}
    for name, (fn, per_loop) in calls().items():
        timer = timeit.Timer(fn)
        number = loops or timer.autorange()[0]
        best[name] = round(min(timer.repeat(repeat, number)) / number / per_loop * 1e6, 3)
    return best


def child(src: Path, repeat: int, loops: int) -> dict:
    warn = [f"-W{option}" for option in sys.warnoptions]  # a -W error run makes warnings errors in its children too
    command = [sys.executable, *warn, __file__, "--child", str(src), "--repeat", str(repeat), "--loops", str(loops)]
    done = subprocess.run(command, capture_output=True, text=True, env={**os.environ, **PINNED}, check=False)
    if done.returncode:
        raise SystemExit(f"timing {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="root of a second tree, timed as the parent")
    parser.add_argument("--processes", type=int, default=5, help="processes per tree (default 5)")
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats per call (default 7)")
    parser.add_argument("--loops", type=int, default=0, help="loops per repeat (default: timeit's autorange)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(args.child))
        print(json.dumps(measure(args.repeat, args.loops)))
        return
    trees = {"change": ROOT / "src"}
    if args.other:
        trees["parent"] = args.other.resolve() / "src"
    runs = {side: [] for side in trees}
    for k in range(args.processes):
        for side in list(trees)[:: -1 if k % 2 else 1]:
            runs[side].append(child(trees[side], args.repeat, args.loops))
    loops = args.loops or "timeit's autorange"
    out = {
        "method": f"tests/per_call.py: best of {args.repeat} timeit repeats of {loops} loops, per call in us; "
        f"{args.processes} processes per side{', alternating' if args.other else ''}; catalog label index {LABEL}, "
        f"basis input {BASIS}, {SHOTS} shots, seed {SEED}.",
    }
    for side in ("parent", "change"):
        if side in runs:
            names = runs[side][0]
            out[f"{side}_best_us"] = {name: min(run[name] for run in runs[side]) for name in names}
            out[f"{side}_us"] = {name: [run[name] for run in runs[side]] for name in names}
    if args.other:
        out["change_pct_of_best"] = {
            name: round(100 * (out["change_best_us"][name] / best - 1), 2) for name, best in out["parent_best_us"].items()
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
