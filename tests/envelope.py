"""Print the sampled sign-recovery envelope that the `tomo` docstring states.

Each cell counts the runs, of 960, whose reconstruction misses +-sign(x):
the 192 catalog solutions x (48 systems times 4 basis inputs, in catalog
order), solution k depolarized with strength p and sampled with seeds
10007 + 5k + j for j < 5.  A run misses when the sign pattern of its
reconstruction's dominant eigenvector (`oracles.leading_sign_pattern`) is
neither sign(x) nor -sign(x).  Rows are the calibrated p and p = 0.1, 0.3,
0.5 and 0.8; columns are 4, 16, 64, 128 and 1024 shots per setting.  Run it
from the repository root:

    python3 tests/envelope.py

Not a pytest module: its name has no test_ prefix.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qlinsys import family, linsys, tomo  # noqa: E402

from oracles import leading_sign_pattern  # noqa: E402

STRENGTHS = {"calibrated": tomo.CALIBRATED_DEPOLARIZING_P, "0.1": 0.1, "0.3": 0.3, "0.5": 0.5, "0.8": 0.8}
SHOTS = (4, 16, 64, 128, 1024)
SEEDS_PER_SOLUTION = 5


def solutions() -> list[np.ndarray]:
    return [linsys.solve(spec.matrix, np.eye(4)[b]) for spec in family.enumerate_family() for b in range(4)]


def misses(p: float, shots: int, xs: list[np.ndarray]) -> int:
    count = 0
    for k, x in enumerate(xs):
        want = np.sign(x).astype(int).tolist()
        noisy = tomo.apply_depolarizing(tomo.density_from_state(x), p)
        for j in range(SEEDS_PER_SOLUTION):
            table = tomo.pauli_expectations(noisy, "sampled", shots, 10007 + SEEDS_PER_SOLUTION * k + j)
            signs = leading_sign_pattern(tomo.reconstruct(table))
            count += signs != want and signs != [-s for s in want]
    return count


def main() -> None:
    xs = solutions()
    print("p \\ shots " + "".join(f"{shots:>6}" for shots in SHOTS))
    for name, p in STRENGTHS.items():
        print(f"{name:<10}" + "".join(f"{misses(p, shots, xs):>6}" for shots in SHOTS))


if __name__ == "__main__":
    main()
