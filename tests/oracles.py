"""Independent reference computations used as test oracles.

Deliberately written with plain Python loops and Gaussian elimination so
they share no code path with the package: agreement between the two is
evidence, not tautology.  The synthesis group is enumerated from numpy
literals of the vocabulary, and two-qubit tomography is rebuilt from numpy
literals of the Pauli and basis-change matrices, again without importing the
package.  CX and CZ are also written as index-array gathers and masks, the
formulations the simulator's slice kernel replaced, and a whole circuit as a
gate-by-gate fold over index arrays with H as the unscaled butterfly and one
exact scale at the end, the arithmetic the simulator's rotating layout must
match byte for byte.  H as the einsum contraction with 1/sqrt(2) is kept as
a rounding reference.
"""

import numpy as np


def dot(u, v):
    assert len(u) == len(v)
    total = 0.0
    for a, b in zip(u, v):
        total += float(a) * float(b)
    return total


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(row) == inner for row in a)
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = float(a[i][k])
            for j in range(cols):
                out[i][j] += aik * float(b[k][j])
    return out


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def transpose(a):
    return [[float(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def gauss_solve(matrix, rhs):
    """Solve a square system by Gaussian elimination with partial pivoting."""
    n = len(matrix)
    aug = [[float(v) for v in row] + [float(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-14:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            for j in range(col, n + 1):
                aug[row][j] -= factor * aug[col][j]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for j in range(row + 1, n):
            acc -= aug[row][j] * x[j]
        x[row] = acc / aug[row][row]
    return x


def max_abs_diff(a, b):
    flat_a = [v for row in a for v in row] if hasattr(a[0], "__len__") else list(a)
    flat_b = [v for row in b for v in row] if hasattr(b[0], "__len__") else list(b)
    assert len(flat_a) == len(flat_b)
    return max(abs(float(u) - float(v)) for u, v in zip(flat_a, flat_b))


_R = 0.5**0.5

#: The synthesis vocabulary as 4x4 matrices, in tie-breaking order.  Qubit 0
#: is the least significant bit, so h0 is kron(I, H) and h1 is kron(H, I).
VOCABULARY_MATRICES = {
    "h0": np.array([[_R, _R, 0, 0], [_R, -_R, 0, 0], [0, 0, _R, _R], [0, 0, _R, -_R]]),
    "h1": np.array([[_R, 0, _R, 0], [0, _R, 0, _R], [_R, 0, -_R, 0], [0, _R, 0, -_R]]),
    "x0": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
    "x1": np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
    "z0": np.diag([1.0, -1.0, 1.0, -1.0]),
    "z1": np.diag([1.0, 1.0, -1.0, -1.0]),
    "cx01": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float),
    "cx10": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
    "cz01": np.diag([1.0, 1.0, 1.0, -1.0]),
}


def _key_up_to_sign(matrix):
    flat = [round(float(v), 9) + 0.0 for v in matrix.ravel()]
    first = next(v for v in flat if v != 0.0)
    return tuple(flat) if first > 0 else tuple(-v + 0.0 for v in flat)


def vocabulary_group():
    """Every element the vocabulary generates, up to sign, with its BFS depth.

    Returns a list of (matrix, depth) pairs, depth being the fewest
    vocabulary gates whose product is +-matrix.
    """
    identity = np.eye(4)
    seen = {_key_up_to_sign(identity)}
    elements = [(identity, 0)]
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        grown = []
        for u in frontier:
            for g in VOCABULARY_MATRICES.values():
                candidate = g @ u
                key = _key_up_to_sign(candidate)
                if key not in seen:
                    seen.add(key)
                    elements.append((candidate, depth))
                    grown.append(candidate)
        frontier = grown
    return elements


#: Two-qubit tomography, rebuilt from numpy literals: words in I < X < Y < Z
#: order, letter 0 on qubit 1 (the most significant bit), and the nine
#: {X, Y, Z}^2 measurement settings in the same order.
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
TOMOGRAPHY_WORDS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
TOMOGRAPHY_SETTINGS = tuple(a + b for a in "XYZ" for b in "XYZ")
_WORD_MATRICES = {w: np.kron(_PAULI_1Q[w[0]], _PAULI_1Q[w[1]]) for w in TOMOGRAPHY_WORDS}

_H_1Q = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
#: Per-letter basis change to Z: H for X, H * S-dagger for Y.
_TO_Z_BASIS = {
    "X": _H_1Q,
    "Y": _H_1Q @ np.diag([1, -1j]),
    "Z": np.eye(2, dtype=complex),
}


def tomography_expectations(rho, mode, shots, seed):
    """All sixteen word expectations of a 4x4 density matrix, as a list.

    "analytic": trace(rho @ P) per word matrix P = kron(P1, P2), with II
    fixed at 1.
    "sampled": setting i is drawn with default_rng(seed + i).multinomial
    from the clipped diagonal of R rho R^dagger; a word is read from the
    setting with its I letters replaced by Z, as the signed sum of the
    outcome frequencies.
    """
    if mode == "analytic":
        values = [float(np.trace(rho @ _WORD_MATRICES[w]).real) for w in TOMOGRAPHY_WORDS]
    else:
        freqs = {}
        for index, setting in enumerate(TOMOGRAPHY_SETTINGS):
            r = np.kron(_TO_Z_BASIS[setting[0]], _TO_Z_BASIS[setting[1]])
            p = np.clip(np.real(np.diag(r @ rho @ r.conj().T)), 0.0, None)
            counts = np.random.default_rng(seed + index).multinomial(shots, p / p.sum())
            freqs[setting] = counts / shots
        values = []
        for w in TOMOGRAPHY_WORDS:
            signs = np.array(
                [
                    (-1.0 if w[0] != "I" and (outcome >> 1) & 1 else 1.0)
                    * (-1.0 if w[1] != "I" and outcome & 1 else 1.0)
                    for outcome in range(4)
                ]
            )
            values.append(float(np.sum(signs * freqs[w.replace("I", "Z")])))
    values[0] = 1.0
    return values


def tomography_reconstruct(values):
    """Linear inversion, then a valid state by eigenvalue clipping.

    (1/4) sum <P> P is accumulated word by word in TOMOGRAPHY_WORDS order;
    negative eigenvalues are clipped to 0 and the rest renormalized (the
    maximally mixed state if none is positive).
    """
    linear = np.zeros((4, 4), dtype=complex)
    for value, w in zip(values, TOMOGRAPHY_WORDS):
        linear += value * _WORD_MATRICES[w]
    linear = linear / 4.0
    vals, vecs = np.linalg.eigh((linear + linear.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    total = float(vals.sum())
    if total <= 0.0:
        return np.eye(4, dtype=complex) / 4
    return (vecs * (vals / total)) @ vecs.conj().T


def leading_sign_pattern(rho):
    """Signs (+1, -1, or 0) of the real parts of rho's dominant eigenvector.

    The eigenvector's global phase is removed first by turning its
    largest-magnitude entry real and positive.
    """
    _, vecs = np.linalg.eigh(np.asarray(rho))
    v = vecs[:, -1]
    v = v * np.conj(v[np.argmax(np.abs(v))])
    return [1 if re > 0 else -1 if re < 0 else 0 for re in v.real.tolist()]


def cx_by_index(amps, control, target):
    """CX as an index gather: basis index i reads i ^ (1 << target) where the control bit is set."""
    idx = np.arange(amps.shape[0])
    control_set = ((idx >> control) & 1).astype(bool)
    return amps[np.where(control_set, idx ^ (1 << target), idx)]


def cz_by_index(amps, a, b):
    """CZ as a masked sign flip of every basis index with bits a and b both set."""
    idx = np.arange(amps.shape[0])
    both = (((idx >> a) & 1) * ((idx >> b) & 1)).astype(bool)
    out = amps.copy()
    out[both] *= -1.0
    return out


def h_by_einsum(amps, qubit):
    """H as the contraction of the target axis of a (high, 2, low[, columns]) view with the 2x2 matrix."""
    n = amps.shape[0].bit_length() - 1
    cube = amps.reshape((2 ** (n - qubit - 1), 2, 2**qubit) + amps.shape[1:])
    return np.einsum("ab,ibj...->iaj...", _H_1Q, cube).reshape(amps.shape)


#: X, Z and S-dagger, contracted with einsum as the simulator does.
_ONE_QUBIT = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def one_qubit_by_einsum(amps, matrix, qubit):
    n = amps.shape[0].bit_length() - 1
    cube = amps.reshape((2 ** (n - qubit - 1), 2, 2**qubit) + amps.shape[1:])
    return np.einsum("ab,ibj...->iaj...", matrix, cube).reshape(amps.shape)


def butterfly_by_index(amps, qubit):
    """H without its 1/sqrt(2): index i with the qubit clear gets a_i + a_j, and j = i | (1 << qubit) gets a_i - a_j."""
    idx = np.arange(amps.shape[0])
    clear = idx[((idx >> qubit) & 1) == 0]
    out = np.empty_like(amps)
    out[clear] = amps[clear] + amps[clear | (1 << qubit)]
    out[clear | (1 << qubit)] = amps[clear] - amps[clear | (1 << qubit)]
    return out


def flip_by_index(amps, flips):
    out = amps.copy()
    out[sorted(flips)] *= -1.0
    return out


def scale_parts(amps, factor):
    """Real and imaginary parts each times a real factor, so no zero changes sign."""
    out = amps.copy()
    out.real *= factor
    out.imag *= factor
    return out


def run_by_index(amps, gates):
    """A circuit's gates, each with .kind, .targets and .flips, folded over a state or block.

    H is the unscaled butterfly.  After every 1024th H, before the norm can
    overflow, the amplitudes are multiplied by 2**-512; at the end, with m the
    H count modulo 1024, by 2**-(m // 2), and by sqrt(1/2) too if m is odd, as
    one factor.  Powers of two scale exactly, so only that sqrt(1/2) rounds.
    """
    count = 0
    for gate in gates:
        if gate.kind == "h":
            amps = butterfly_by_index(amps, gate.targets[0])
            count += 1
            if count % 1024 == 0:
                amps = scale_parts(amps, 2.0**-512)
        elif gate.kind in _ONE_QUBIT:
            amps = one_qubit_by_einsum(amps, _ONE_QUBIT[gate.kind], gate.targets[0])
        elif gate.kind == "cx":
            amps = cx_by_index(amps, *gate.targets)
        elif gate.kind == "cz":
            amps = cz_by_index(amps, *gate.targets)
        else:
            amps = flip_by_index(amps, gate.flips)
    m = count % 1024
    return scale_parts(amps, 0.5 ** (m // 2) * (np.sqrt(0.5) if m % 2 else 1.0))
