"""Derandomized property tests for tomography and block sampling.

Hypothesis runs a fixed example sequence (derandomize=True, no example
database), so a failure reproduces on every run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qlinsys import sim, tomo

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def mixed_states(draw):
    """rho = A A^dagger / trace for a random complex 4x4 A."""
    parts = draw(hnp.arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


@st.composite
def probability_blocks(draw):
    """A (k, d) block of probability rows, some entries exactly zero."""
    k = draw(st.integers(1, 9))
    d = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(float, (k, d), elements=st.floats(0.0, 1.0)))
    totals = raw.sum(axis=1, keepdims=True)
    assume(np.all(totals > 1e-3))
    return raw / totals


@FIXED
@given(mixed_states())
def test_analytic_round_trip_recovers_the_state(rho):
    rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12


@FIXED
@given(probability_blocks(), st.integers(1, 5000), st.integers(0, 2**32))
def test_block_rows_sum_to_shots_and_match_single_rows(block, shots, seed):
    counts = sim.sample_counts(block, shots, seed)
    assert counts.shape == block.shape
    assert np.all(counts.sum(axis=1) == shots)
    assert np.all(counts[block == 0.0] == 0)
    last = len(block) - 1
    assert np.array_equal(counts[last], sim.sample_counts(block[last], shots, seed + last))
