"""Independent reference computations used as test oracles.

Deliberately written with plain Python loops and Gaussian elimination so
they share no code path with the package: agreement between the two is
evidence, not tautology.  The synthesis group is enumerated from numpy
literals of the vocabulary, again without importing the package.
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
