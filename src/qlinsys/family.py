"""Catalog of 4x4 sign matrices with orthonormal columns.

Among the sixteen vectors in {+1/2, -1/2}^4, the eight whose first entry is
positive split into exactly two sets of four mutually orthogonal columns.
Ordering each set's columns in all 4! ways gives 2 * 24 = 48 distinct
matrices, labelled A_1234 ... B_4321 by column order.  Labels group into
subsets A1..A4 and B1..B4 according to which column comes first.

The classes are two operators of 2-qubit Grover search, columns permuted:
class A is H (x) H (A_1342 itself), and class B is the iterate D O0 (B_4321
itself), where O0 negates |00> and D = 2|s><s| - I inverts about the mean.
So a class-B solve x = A^T y inverts y about the mean, negates its first
entry, and reorders the unknowns.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, shown

# Class A columns: each pair differs in exactly two positions.
_COLUMNS_A = (
    (1, 1, 1, 1),
    (1, -1, -1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
)
# Class B columns: each pair differs in exactly two positions as well, but no
# signed column permutation maps one class onto the other.
_COLUMNS_B = (
    (1, 1, 1, -1),
    (1, 1, -1, 1),
    (1, -1, 1, 1),
    (1, -1, -1, -1),
)

#: Each class's four columns, scaled to +-1/2, in index order 1..4.
_CLASS_COLUMNS = {"A": np.array(_COLUMNS_A) / 2.0, "B": np.array(_COLUMNS_B) / 2.0}

_LABEL_RE = re.compile(r"([AB])_([1-4]{4})")


@dataclass(frozen=True)
class FamilyLabel:
    """Identifier like A_1234: column class plus the order its columns appear in."""

    kind: str
    perm: tuple[int, int, int, int]

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValidationError(f"column class must be 'A' or 'B', got {shown(self.kind)}")
        if not np.iterable(self.perm):
            raise ValidationError(f"{shown(self.perm)} is not a permutation of (1, 2, 3, 4)")
        object.__setattr__(self, "perm", tuple(check_int(p, "permutation entry") for p in self.perm))
        if sorted(self.perm) != [1, 2, 3, 4]:
            raise ValidationError(f"{shown(self.perm)} is not a permutation of (1, 2, 3, 4)")

    @classmethod
    def parse(cls, text: str) -> "FamilyLabel":
        m = _LABEL_RE.fullmatch(text) if isinstance(text, str) else None
        if m is None:
            raise ValidationError(f"malformed label {shown(text)}, expected e.g. 'A_1234'")
        return cls(m.group(1), tuple(int(c) for c in m.group(2)))

    @property
    def subset(self) -> str:
        """Subset name A1..B4, determined by the leading column."""
        return f"{self.kind}{self.perm[0]}"

    def __str__(self) -> str:
        return f"{self.kind}_{''.join(str(p) for p in self.perm)}"


@dataclass(frozen=True, eq=False)
class LinearSystemSpec:
    """One catalog entry: the matrix and its canonical right-hand side; `equations_for` renders it."""

    label: FamilyLabel
    matrix: np.ndarray
    y: np.ndarray


def matrix_for(label: FamilyLabel) -> np.ndarray:
    """Build the matrix named by `label`; the result is marked read-only."""
    cols = _CLASS_COLUMNS[label.kind]
    out = np.column_stack([cols[p - 1] for p in label.perm])
    out.setflags(write=False)
    return out


def equations_for(label: FamilyLabel) -> list[str]:
    """Render the system A x = e1 with denominators cleared, one string per row."""
    lines = []
    for i, row in enumerate(matrix_for(label)):
        terms = [f"{'+' if c > 0 else '-'} x{j + 1}" for j, c in enumerate(row)]
        terms[0] = "x1" if row[0] > 0 else "-x1"
        lines.append(f"{' '.join(terms)} = {2 if i == 0 else 0}")
    return lines


def enumerate_family() -> list[LinearSystemSpec]:
    """All 48 systems, class A first, permutations in lexicographic order."""
    e1 = np.zeros(4)
    e1[0] = 1.0
    e1.setflags(write=False)
    out = []
    for kind in ("A", "B"):
        for perm in itertools.permutations((1, 2, 3, 4)):
            label = FamilyLabel(kind, perm)
            out.append(LinearSystemSpec(label=label, matrix=matrix_for(label), y=e1))
    return out
