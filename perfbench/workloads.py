"""The four benchmark workloads: seeded inputs, one op each, and its check.

Each op is a closed-loop call sequence made by a single caller.  Inputs come
from the benchmark seed and are cycled in seed-shuffled full passes, so every
run does the same mix of work whatever the seed.  `check` compares an op's
outputs with values from `reference` (numpy only) and runs outside the timed
region; it returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

import reference
import tracer as tracing

SHOTS = 1024


def _shot_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def fidelity_in_band(fid: float, p: float) -> bool:
    """Whether a sampled tomography fidelity is consistent with depolarizing strength p.

    The exact fidelity is 1 - 3p/4.  With 1024 shots per setting, sampling
    noise that survives the physicality projection puts estimates 0.022 +-
    0.008 below it (6000 draws at the calibrated p: 0.936 to 0.988), so the
    band reaches about eight standard deviations below the mean.
    """
    exact = 1.0 - 0.75 * p
    return exact - 0.09 <= fid <= exact + 0.01


class InProcess:
    """A workload that calls the library in this process."""

    #: Ops in one full pass over the input mix.
    cycle = 1

    def __init__(self, seed: int, root: Path, setup_tracer: tracing.Tracer | None = None):
        self.seed = seed
        self.functions = tracing.layer_functions()
        self.setup_layers = self.layers(setup_tracer)

    def layers(self, tracer: tracing.Tracer | None = None) -> SimpleNamespace:
        return tracing.layers(self.functions, tracer)

    def _load_catalog(self) -> None:
        """The program's 48 matrices, with the reference matrix for each label."""
        specs = self.setup_layers.enumerate_family()
        expected = reference.catalog()
        self.labels = [str(spec.label) for spec in specs]
        if sorted(self.labels) != sorted(expected):
            raise RuntimeError("catalog labels differ from the 48 reference labels")
        self.matrices = [spec.matrix for spec in specs]
        self.expected = [expected[label] for label in self.labels]

    def key(self, i) -> int:
        """The input of op i; ops with one key do the same work."""
        return i % self.cycle

    def warm_up(self, L) -> str | None:
        """One checked op before timing, so lazy set-up has finished."""
        return self.check(0, self.op(L, 0))

    def final_checks(self) -> list[str]:
        """Checks on the program as a whole, run once after the timed phase."""
        return []


class SolveSample(InProcess):
    """Catalog solve operator -> warm synthesis -> simulate -> sample -> QASM."""

    cycle = 48 * 4

    def __init__(self, seed, root, setup_tracer=None):
        super().__init__(seed, root, setup_tracer)
        self._load_catalog()
        # One op per (label, basis input) pair, every pair once per pass.
        self.order = [divmod(int(k), 4) for k in np.random.default_rng(seed).permutation(self.cycle)]
        self.solving_qasm: set[tuple[int, str]] = set()

    def op(self, L, i):
        label, basis = self.order[i % self.cycle]
        result = L.synthesize(L.inverse_operator(self.matrices[label]))
        state = L.run(result.circuit, basis)
        table = L.sample_distribution(L.probabilities(state), SHOTS, _shot_seed(self.seed, i))
        return state, table, L.circuit_to_qasm(result.circuit)

    def check(self, i, out):
        state, table, text = out
        label, basis = self.order[i % self.cycle]
        x = self.expected[label].T[:, basis]
        if reference.sign_distance(state, x) > 1e-9:
            return f"{self.labels[label]} basis {basis}: state {state} is not +-{x}"
        counts = [table.counts.get(format(k, "02b")) for k in range(4)]
        want = reference.expected_counts(x**2, SHOTS, _shot_seed(self.seed, i))
        if counts != want or table.shots != SHOTS:
            return f"{self.labels[label]} basis {basis}: counts {counts}, expected {want}"
        if (label, text) not in self.solving_qasm:
            if not reference.solves(reference.parse_qasm(text), self.expected[label]):
                return f"{self.labels[label]}: QASM circuit does not realize A^T"
            self.solving_qasm.add((label, text))
        return None

    def final_checks(self):
        L = self.layers()
        histogram = reference.histogram(L.synthesize(L.inverse_operator(m)).gate_count for m in self.matrices)
        if histogram != reference.GATE_COUNT_HISTOGRAM:
            return [f"catalog gate-count histogram {histogram}, expected {reference.GATE_COUNT_HISTOGRAM}"]
        return []


class Tomography(InProcess):
    """Solution state -> depolarize -> sampled Pauli tomography -> reconstruct -> fidelity."""

    cycle = 48

    def __init__(self, seed, root, setup_tracer=None):
        super().__init__(seed, root, setup_tracer)
        from qlinsys.tomo import CALIBRATED_DEPOLARIZING_P

        self.p = CALIBRATED_DEPOLARIZING_P
        self._load_catalog()
        self.order = [int(k) for k in np.random.default_rng(seed).permutation(self.cycle)]
        self.e1 = np.eye(4)[0]

    def op(self, L, i):
        x = L.solve(self.matrices[self.order[i % self.cycle]], self.e1)
        noisy = L.apply_depolarizing(L.density_from_state(x), self.p)
        table = L.pauli_expectations(noisy, mode="sampled", shots=SHOTS, seed=_shot_seed(self.seed, i))
        rho = L.reconstruct(table)
        return x, rho, L.fidelity(rho, x)

    def check(self, i, out):
        x, rho, fid = out
        label = self.order[i % self.cycle]
        want = self.expected[label].T[:, 0]
        name = self.labels[label]
        if np.max(np.abs(x - want)) > 1e-12:
            return f"{name}: solution {x}, expected {want}"
        error = reference.physical_error(rho)
        if error is not None:
            return f"{name}: reconstruction is not physical ({error})"
        if abs(fid - float(np.real(want @ rho @ want))) > 1e-9:
            return f"{name}: fidelity {fid} disagrees with <x|rho|x>"
        if not fidelity_in_band(fid, self.p):
            return f"{name}: fidelity {fid} outside the sampling band below {1.0 - 0.75 * self.p}"
        signs = reference.leading_signs(rho)
        if reference.sign_distance(signs, np.sign(want)) != 0.0:
            return f"{name}: recovered sign pattern {signs}, expected +-{np.sign(want)}"
        return None


class GroverWide(InProcess):
    """One 10-qubit Grover search for a single seed-drawn marked index."""

    QUBITS = 10
    ITERATIONS = 25
    #: 10 H, then per iteration: marked flip, 10 H, zero flip, 10 H.
    GATES = 560

    def __init__(self, seed, root, setup_tracer=None):
        super().__init__(seed, root, setup_tracer)
        self.marked = [int(m) for m in np.random.default_rng(seed).integers(0, 2**self.QUBITS, 4096)]
        self.success = reference.grover_success(self.QUBITS, 1, self.ITERATIONS)

    def op(self, L, i):
        marked = self.marked[i % len(self.marked)]
        circuit = L.build_grover_circuit(self.QUBITS, [marked], self.ITERATIONS)
        return circuit, L.probabilities(L.run(circuit, 0))

    def check(self, i, out):
        circuit, probs = out
        marked = self.marked[i % len(self.marked)]
        if len(circuit.ops) != self.GATES:
            return f"circuit has {len(circuit.ops)} ops, expected {self.GATES}"
        if abs(probs[marked] - self.success) > 1e-9:
            return f"marked {marked}: success probability {probs[marked]}, expected {self.success}"
        rest = np.delete(probs, marked)
        if np.ptp(rest) > 1e-9 or abs(probs.sum() - 1.0) > 1e-9:
            return f"marked {marked}: unmarked probabilities are not uniform or do not sum to 1"
        return None


#: Cold CLI commands: the seven golden commands of tests/make_golden.py plus
#: sampled tomography and whole-catalog synthesis.  name -> (argv, golden file).
CLI_COMMANDS = {
    "family_list": (["family", "list"], "family_list.txt"),
    "solve_a1234": (["solve", "--label", "A_1234"], "solve_a1234.txt"),
    "run_a1324": (["run", "--label", "A_1324", "--output", "json"], "run_a1324_default.json"),
    "table1": (["table1"], "table1_default.csv"),
    "qasm_a1234": (["qasm", "--label", "A_1234"], "a_1234.qasm"),
    "qasm_a1342": (["qasm", "--label", "A_1342"], "a_1342.qasm"),
    "grover": (["grover"], "grover_default.json"),
    "tomo_a1234": (["tomo", "--label", "A_1234"], None),
    "synth_all": (["synth", "--all"], None),
}

#: Fresh-interpreter floors under a cold CLI call.
STARTUP_FLOORS = {"python_ms": "pass", "numpy_ms": "import numpy", "qlinsys_ms": "import qlinsys"}


def _check_tomo_json(out: bytes) -> str | None:
    payload = json.loads(out)
    if payload["label"] != "A_1234" or payload["mode"] != "sampled" or payload["shots"] != SHOTS:
        return f"unexpected tomo header {payload}"
    rho = np.array(payload["density"]["re"]) + 1j * np.array(payload["density"]["im"])
    if rho.shape != (4, 4) or payload["density"]["dim"] != 4:
        return f"tomo density has shape {rho.shape}"
    error = reference.physical_error(rho)
    if error is not None:
        return f"tomo density is not physical ({error})"
    x = reference.catalog()["A_1234"].T[:, 0]
    fid = payload["fidelity"]
    if abs(fid - float(np.real(x @ rho @ x))) > 1e-9 or not fidelity_in_band(fid, payload["noise_p"]):
        return f"tomo fidelity {fid} disagrees with <x|rho|x> or is outside the sampling band"
    return None


def _check_synth_all_json(out: bytes) -> str | None:
    entries = json.loads(out)
    catalog = reference.catalog()
    if [e["label"] for e in entries] != list(catalog):
        return "synth --all labels differ from the catalog order"
    histogram = reference.histogram(e["gate_count"] for e in entries)
    if histogram != reference.GATE_COUNT_HISTOGRAM:
        return f"synth --all gate-count histogram {histogram}"
    for e in entries:
        gates = [(g["kind"], tuple(g["targets"])) for g in e["gates"]]
        if len(gates) != e["gate_count"] or not reference.solves(gates, catalog[e["label"]]):
            return f"synth --all circuit for {e['label']} does not realize A^T"
        if e["matched_sign"] not in (1, -1) or not 0.0 <= e["max_deviation"] <= 1e-9:
            return f"synth --all entry {e['label']} has sign {e['matched_sign']}, deviation {e['max_deviation']}"
    return None


class CliCold:
    """One cold `python -m qlinsys.cli` subprocess per op."""

    def __init__(self, seed: int, root: Path, setup_tracer=None):
        self.root = root
        golden = root / "tests" / "golden"
        self.golden = {
            name: (golden / file).read_bytes() if file else None
            for name, (_, file) in CLI_COMMANDS.items()
        }
        names = list(CLI_COMMANDS)
        rng = np.random.default_rng(seed)
        # Seed-shuffled passes that each run every command once.
        self.order = [names[int(k)] for _ in range(64) for k in rng.permutation(len(names))]

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, capture_output=True, timeout=60
        )

    def layers(self, tracer: tracing.Tracer | None = None) -> SimpleNamespace:
        def cold(name):
            return self._spawn(["-m", "qlinsys.cli", *CLI_COMMANDS[name][0]])

        def traced(name):
            start = perf_counter_ns()
            out = cold(name)
            tracer.record(f"cli.cold.{name}", perf_counter_ns() - start)
            return out

        return SimpleNamespace(cold=cold if tracer is None else traced)

    def key(self, i) -> str:
        return self.order[i % len(self.order)]

    def op(self, L, i):
        return L.cold(self.key(i))

    def warm_up(self, L) -> str | None:
        """Whole-catalog synthesis, whatever the seed, so set-up does the same work every run."""
        return self._check("synth_all", L.cold("synth_all"))

    def check(self, i, out):
        return self._check(self.key(i), out)

    def _check(self, name, out):
        if out.returncode != 0:
            return f"{name}: exit code {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}"
        if self.golden[name] is not None:
            return None if out.stdout == self.golden[name] else f"{name}: stdout differs from its golden file"
        return _check_tomo_json(out.stdout) if name == "tomo_a1234" else _check_synth_all_json(out.stdout)

    def final_checks(self):
        return []

    def profile(self, tracer: tracing.Tracer, repeats: int = 5) -> list[str]:
        """Startup floors from fresh interpreters and warm in-process `cli.main` times.

        Warm output is checked against the same oracle as the cold output.
        """
        from qlinsys import cli

        for _ in range(repeats):
            for metric, code in STARTUP_FLOORS.items():
                start = perf_counter_ns()
                self._spawn(["-c", code]).check_returncode()
                tracer.record(f"cli.startup.{metric}", perf_counter_ns() - start)
        errors = []
        for name, (argv, _) in CLI_COMMANDS.items():
            for rep in range(repeats + 1):
                buffer = io.StringIO()
                start = perf_counter_ns()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
                if rep:
                    tracer.record(f"cli.main.{name}", perf_counter_ns() - start)
            done = subprocess.CompletedProcess(argv, code, buffer.getvalue().encode(), b"")
            error = self._check(name, done)
            if error is not None:
                errors.append(f"warm {error}")
        return errors


WORKLOADS = {
    "solve_sample": SolveSample,
    "tomography": Tomography,
    "grover_wide": GroverWide,
    "cli_cold": CliCold,
}
