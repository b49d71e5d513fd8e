"""Print one sha256 over a fixed, seeded set of qlinsys outputs.

A change meant to keep every output bit for bit should print the same
digest lines as its parent.  A header line above them names the Python,
numpy, BLAS and LAPACK that computed them, since numpy's generator and
LAPACK's eigh feed the bits and only one build has been checked.  Run it
from the root of each checkout:

    python3 tests/identity_digest.py

It imports the package from this checkout's `src`, never an installed copy.
So to compare with the parent commit, check the parent out beside this tree,
copy this script into it, and run the same script in both:

    git worktree add ../parent HEAD~1
    cp tests/identity_digest.py ../parent/tests/
    python3 tests/identity_digest.py
    (cd ../parent && python3 tests/identity_digest.py)

The set, each array hashed by dtype, shape and `tobytes`, each
`tomo.ExpectationTable` as its values array and then (mode, shots, seed), and
everything else by `repr`:

* `sim.run` on every basis input, `sim.unitary_of`, and a (2**n, 3) block
  through `sim.apply_gate` after every gate, on random circuits of all six
  gate kinds at 1 to 9 qubits.  Block entries are real, drawn from +-0, +-1,
  denormals and 1/2, where two kernels could differ by a bit.
* Every entry of the synthesis table: the int8 key of sign * U, circuit, sign
  and U, U being `sim.unitary_of` of the circuit.
* The 48 catalog systems times 4 basis inputs: solution, state, 1024-shot
  counts, and each circuit's QASM.
* H-heavy wide circuits at 4 to 10 qubits: ascending H layers between
  phase flips, CZs and X gates, ending on a partial layer, so that runs and
  unitaries end on a rotated layout, which every circuit width uses.
* Z, CZ, X and phase flips placed part way through ascending H layers, and
  between layers, at 8 to 10 qubits: runs on 4 basis inputs, one 8-qubit
  `sim.unitary_of`, and `sim._apply_circuit` of every prefix on a block of an
  all-ones column (a full layer leaves it with exact zeros for a flip to
  sign) and three seeded columns, then that block itself, which no run may
  change.
* Grover runs at 8, 9 and 10 qubits with one and with two marked states.
* Sampled tomography of all 48 labels at the calibrated noise.

A second line digests the tomography layer on its own, so the first keeps
its historical value:

* `tomo.reconstruct` on seeded tables, and its projection `tomo._project` on
  4x4 matrices of +-0, +-1, +-denormals, 1/2, 1e-300 and -1/4 (II often
  negative or zero), and of uniform values.
* Analytic expectations of seeded mixed states.
* `sim.sample_counts` on a probability vector and on blocks of 0, 1 and 9
  rows.

A third line digests off-catalog inputs to the functions that validate and
convert on the paper's one-system path, each call's result or its error
class and message:

* `synth.synthesize` of every catalog target plus seeded noise at scales
  from 1e-13 to 1e-10 per entry, so `max_deviation` is nonzero and some
  targets miss a bound, at both signs.
* `linsys.inverse_operator` and `linsys.solve` of seeded orthogonal 4x4 and
  8x8 matrices, some perturbed past the orthonormality bound.
* `sim.probabilities` of seeded states at 1 to 10 qubits, some entries
  zeroed, and `sim.sample_distribution` of them, by the repr of its table,
  whose counts dict shows its key order.
* `qasm.circuit_to_qasm` of random circuits over h, x, z, cx and cz at
  1 to 5 qubits, a few with a phase flip, which has no QASM form.

Not a pytest module: its name has no test_ prefix.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qlinsys import family, grover, linsys, qasm, sim, synth, tomo  # noqa: E402

SEEDED_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5])
TABLE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5, 1e-300, -0.25])


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.items = 0

    def feed(self, value) -> None:
        if isinstance(value, tomo.ExpectationTable):
            self.feed(value.values)
            value = (value.mode, value.shots, value.seed)
        if isinstance(value, np.ndarray):
            self.sha.update(repr((value.dtype.str, value.shape)).encode())
            self.sha.update(value.tobytes())
        else:
            self.sha.update(repr(value).encode())
        self.items += 1


def random_circuit(n: int, length: int, rng) -> sim.Circuit:
    ops = []
    for _ in range(length):
        kind = int(rng.integers(6 if n >= 2 else 4))
        if kind < 3:
            ops.append((sim.h, sim.x, sim.z)[kind](int(rng.integers(n))))
        elif kind == 3:
            flips = rng.choice(2**n, size=int(rng.integers(1, 2**n + 1)), replace=False)
            ops.append(sim.phase_flip(int(i) for i in flips))
        else:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append((sim.cx, sim.cz)[kind - 4](a, b))
    return sim.Circuit(n, tuple(ops))


def seeded_block(n: int, rng) -> np.ndarray:
    return rng.choice(SEEDED_VALUES, size=(2**n, 3))


def feed_circuits(digest: Digest, rng) -> None:
    for n in range(1, 10):
        for _ in range(40 if n <= 6 else 6):
            circuit = random_circuit(n, int(rng.integers(1, 41)), rng)
            digest.feed(circuit)
            for j in range(2**n):
                digest.feed(sim.run(circuit, j))
            digest.feed(sim.unitary_of(circuit))
            block = seeded_block(n, rng)
            for gate in circuit.ops:
                block = sim.apply_gate(block, gate)
                digest.feed(block)


def h_heavy_circuit(n: int, rng) -> sim.Circuit:
    ops = []
    for _ in range(int(rng.integers(2, 6))):
        ops += [sim.h(q) for q in range(n)]
        flips = rng.choice(2**n, size=int(rng.integers(1, 2**n + 1)), replace=False)
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        ops += [sim.phase_flip(int(i) for i in flips), sim.cz(a, b), sim.x(int(rng.integers(n)))]
    ops += [sim.h(q) for q in range(int(rng.integers(1, n)))]
    return sim.Circuit(n, tuple(ops))


def feed_wide_circuits(digest: Digest, rng) -> None:
    for n in range(4, 11):
        for _ in range(8 if n <= 8 else 3):
            circuit = h_heavy_circuit(n, rng)
            digest.feed(circuit)
            for j in rng.choice(2**n, size=4, replace=False):
                digest.feed(sim.run(circuit, int(j)))
            if n <= 8:
                digest.feed(sim.unitary_of(circuit))


def inner_gate_circuit(n: int, first_cut: int, rng) -> sim.Circuit:
    """H layers, each with one Z, CZ, X or phase flip after its first `cut` gates.

    The first layer's gate is a phase flip after `first_cut` gates: at 0 it
    leads the circuit, at n it follows a full layer.
    """
    ops = []
    for layer in range(int(rng.integers(2, 5))):
        cut = first_cut if layer == 0 else int(rng.integers(n + 1))
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        size = int(rng.choice([1, int(rng.integers(1, 2**n + 1)), 2**n]))
        flips = sim.phase_flip(int(i) for i in rng.choice(2**n, size=size, replace=False))
        inner = flips if layer == 0 else (sim.z(a), sim.cz(a, b), sim.x(a), flips)[int(rng.integers(4))]
        ops += [sim.h(q) for q in range(cut)] + [inner] + [sim.h(q) for q in range(cut, n)]
    return sim.Circuit(n, tuple(ops))


def feed_inner_gate_circuits(digest: Digest, rng) -> None:
    for n in range(8, 11):
        for i, first_cut in enumerate([0, n, int(rng.integers(1, n)), int(rng.integers(1, n))]):
            circuit = inner_gate_circuit(n, first_cut, rng)
            digest.feed(circuit)
            for j in rng.choice(2**n, size=4, replace=False):
                digest.feed(sim.run(circuit, int(j)))
            if n == 8 and i == 0:
                digest.feed(sim.unitary_of(circuit))
            block = np.column_stack([np.ones(2**n), seeded_block(n, rng)])
            for k in range(1, len(circuit.ops) + 1):
                digest.feed(sim._apply_circuit(sim.Circuit(n, circuit.ops[:k]), block))
            digest.feed(block)


def feed_grover(digest: Digest) -> None:
    for n, marked in [(10, {37}), (8, {3, 200}), (9, {0, 511}), (10, {37, 700})]:
        iterations = grover.optimal_iterations(grover.theta(2**n, len(marked)))
        digest.feed(sim.run(grover.build_grover_circuit(n, marked, iterations), 0))


def feed_synthesis(digest: Digest) -> None:
    # Each entry in the form of the earlier int8-keyed table, so that the digest keeps its value:
    # the key sign(m) round(4 m^2) of sign * U, the circuit and the sign, then U itself.
    for result in synth._table().values():
        unitary = sim.unitary_of(result.circuit)
        signed = result.matched_sign * unitary
        digest.feed((np.rint(4.0 * signed * np.abs(signed)).astype(np.int8).tobytes(), result.circuit, result.matched_sign))
        digest.feed(unitary)


def feed_catalog(digest: Digest) -> None:
    specs = family.enumerate_family()
    for i, spec in enumerate(specs):
        result = synth.synthesize(linsys.inverse_operator(spec.matrix))
        digest.feed((str(spec.label), result))
        digest.feed(qasm.circuit_to_qasm(result.circuit))
        for b in range(4):
            digest.feed(linsys.solve(spec.matrix, np.eye(4)[b]))
            state = sim.run(result.circuit, b)
            digest.feed(state)
            digest.feed(sim.sample_distribution(sim.probabilities(state), 1024, 4 * i + b))
    for i, spec in enumerate(specs):
        x = linsys.solve(spec.matrix, np.eye(4)[0])
        rho = tomo.apply_depolarizing(tomo.density_from_state(x), tomo.CALIBRATED_DEPOLARIZING_P)
        table = tomo.pauli_expectations(rho, mode="sampled", shots=1024, seed=i)
        rebuilt = tomo.reconstruct(table)
        digest.feed(table)
        digest.feed(rebuilt)
        digest.feed(tomo.fidelity(rebuilt, x))


def feed_tomography(digest: Digest, rng) -> None:
    for k in range(3000):
        values = rng.uniform(-1.0, 1.0, size=16) if k % 3 == 2 else rng.choice(TABLE_VALUES, size=16)
        table = tomo.ExpectationTable(values, "analytic")
        digest.feed(tomo.reconstruct(table))
        matrix = np.empty((4, 4), dtype=complex)
        matrix.real = rng.choice(TABLE_VALUES, size=(4, 4))
        matrix.imag = rng.choice(TABLE_VALUES, size=(4, 4))
        digest.feed(tomo._project(matrix))
    for _ in range(500):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        digest.feed(tomo.pauli_expectations(rho / np.trace(rho).real))
    for seed, rows in enumerate([None, 0, 1, 9] * 50):
        block = rng.random(4 if rows is None else (rows, 4))
        block /= block.sum(axis=-1, keepdims=True)
        digest.feed(sim.sample_counts(block, int(rng.integers(1, 2048)), seed))


def outcome(fn, *args):
    """fn(*args), or the class and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as error:
        return type(error).__name__, str(error)


def qasm_circuit(n: int, rng) -> sim.Circuit:
    ops = []
    for _ in range(int(rng.integers(41))):
        kind = int(rng.integers(5 if n >= 2 else 3))
        if kind < 3:
            ops.append((sim.h, sim.x, sim.z)[kind](int(rng.integers(n))))
        else:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append((sim.cx, sim.cz)[kind - 3](a, b))
    if rng.random() < 0.1:
        ops.insert(int(rng.integers(len(ops) + 1)), sim.phase_flip([int(rng.integers(2**n))]))
    return sim.Circuit(n, tuple(ops))


def feed_off_catalog(digest: Digest, rng) -> None:
    for spec in family.enumerate_family():
        target = linsys.inverse_operator(spec.matrix)
        for _ in range(6):
            perturbed = target + rng.uniform(-1.0, 1.0, size=(4, 4)) * 10.0 ** rng.uniform(-13, -10)
            for signed in (perturbed, -perturbed):
                digest.feed(outcome(synth.synthesize, signed))
    for n in (4, 8):
        for k in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            if k % 4 == 3:
                q = q + rng.uniform(-1e-10, 1e-10, size=(n, n))
            digest.feed(outcome(linsys.inverse_operator, q))
            digest.feed(outcome(linsys.solve, q, np.eye(n)[k % n]))
    for n in range(1, 11):
        for _ in range(20):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            zeroed = rng.random(2**n) < 0.3
            zeroed[int(rng.integers(2**n))] = False
            amps[zeroed] = 0.0
            probs = sim.probabilities(amps / np.linalg.norm(amps))
            digest.feed(probs)
            digest.feed(sim.sample_distribution(probs, int(rng.integers(1, 4096)), int(rng.integers(2**31))))
    for n in range(1, 6):
        for _ in range(60):
            digest.feed(outcome(qasm.circuit_to_qasm, qasm_circuit(n, rng)))


def build() -> str:
    """The header line: the Python, numpy, BLAS and LAPACK versions of this process."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libraries = [f"{kind} {deps[kind]['name']} {deps[kind]['version']}" for kind in ("blas", "lapack")]
    except (TypeError, KeyError):  # a numpy whose show_config returns no dicts
        libraries = ["blas unknown", "lapack unknown"]
    return ", ".join([f"# python {sys.version.split()[0]}", f"numpy {np.__version__}", *libraries])


def main() -> None:
    print(build())
    digest = Digest()
    feed_circuits(digest, np.random.default_rng(2018))
    feed_wide_circuits(digest, np.random.default_rng(1968))
    feed_synthesis(digest)
    feed_catalog(digest)
    feed_grover(digest)
    feed_inner_gate_circuits(digest, np.random.default_rng(2026))
    print(f"{digest.sha.hexdigest()}  ({digest.items} outputs)")
    tomography = Digest()
    feed_tomography(tomography, np.random.default_rng(1124))
    print(f"{tomography.sha.hexdigest()}  ({tomography.items} tomography outputs)")
    off_catalog = Digest()
    feed_off_catalog(off_catalog, np.random.default_rng(1313))
    print(f"{off_catalog.sha.hexdigest()}  ({off_catalog.items} off-catalog outputs)")


if __name__ == "__main__":
    main()
