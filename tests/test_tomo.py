import itertools
import warnings

import numpy as np
import pytest

from qlinsys import family, linsys, tomo
from qlinsys.errors import (
    DimensionMismatchError,
    InvalidProbabilityError,
    NotNormalizedError,
    ValidationError,
)

from oracles import tomography_expectations, tomography_reconstruct

UNIFORM_STATE = np.full(4, 0.5, dtype=complex)
SIGNED_STATE = np.array([0.5, -0.5, -0.5, 0.5], dtype=complex)

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _random_mixed_states(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        yield rho / np.trace(rho).real


def _trace_expectation(rho, word):
    # Oracle: explicit kron and an elementwise trace loop.
    p = np.kron(_PAULI_1Q[word[0]], _PAULI_1Q[word[1]])
    total = 0.0 + 0.0j
    for i in range(4):
        for j in range(4):
            total += rho[i, j] * p[j, i]
    return total.real


class TestPauliWords:
    def test_sixteen_words_in_order(self):
        assert len(tomo.PAULI_WORDS) == 16
        assert tomo.PAULI_WORDS[0] == "II"
        assert tomo.PAULI_WORDS[-1] == "ZZ"
        assert set(tomo.PAULI_WORDS) == {
            a + b for a in "IXYZ" for b in "IXYZ"
        }

    def test_word_matrices_are_hermitian_involutions(self):
        for word in tomo.PAULI_WORDS:
            m = tomo.pauli_word_matrix(word)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)

    def test_words_are_trace_orthogonal(self):
        for a, b in itertools.combinations(tomo.PAULI_WORDS, 2):
            product = tomo.pauli_word_matrix(a) @ tomo.pauli_word_matrix(b)
            assert abs(np.trace(product)) <= 1e-12

    def test_bad_word(self):
        with pytest.raises(ValueError):
            tomo.pauli_word_matrix("XQ")

    def test_mutating_a_word_matrix_leaves_reconstruction_unchanged(self):
        table = tomo.pauli_expectations(tomo.density_from_state(SIGNED_STATE))
        before = tomo.reconstruct(table)
        for word in tomo.PAULI_WORDS:
            tomo.pauli_word_matrix(word)[:] = 7.0
        assert tomo.reconstruct(table).tobytes() == before.tobytes()
        np.testing.assert_array_equal(tomo.pauli_word_matrix("XY"), np.kron(_PAULI_1Q["X"], _PAULI_1Q["Y"]))


class TestDensityFromState:
    def test_uniform_state(self):
        rho = tomo.density_from_state(UNIFORM_STATE)
        np.testing.assert_allclose(rho, np.full((4, 4), 0.25), atol=1e-15)

    def test_signed_state_shows_signs(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        assert rho[0, 1] == pytest.approx(-0.25)
        assert rho[0, 3] == pytest.approx(0.25)
        assert tomo.is_physical(rho)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            tomo.density_from_state([1.0, 1.0, 0.0, 0.0])

    def test_nan_state_rejected(self):
        with pytest.raises(NotNormalizedError):
            tomo.density_from_state([np.nan, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)])
    def test_infinite_state_rejected_without_a_warning(self, bad):
        psi = [bad, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalizedError, match="finite"):
                tomo.density_from_state(psi)
            with pytest.raises(NotNormalizedError, match="finite"):
                tomo.fidelity(np.eye(4) / 4, psi)


class TestPhysicality:
    def test_pure_and_mixed_pass(self):
        assert tomo.is_physical(np.eye(4) / 4)
        assert tomo.is_physical(tomo.density_from_state(SIGNED_STATE))

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(4),  # trace 4
            np.diag([1.5, -0.5, 0.0, 0.0]),  # negative eigenvalue
            np.array([[0.5, 1j], [1j, 0.5]]),  # not Hermitian
        ],
    )
    def test_unphysical_rejected(self, bad):
        assert not tomo.is_physical(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_not_physical(self, bad):
        assert not tomo.is_physical(np.full((4, 4), bad))
        one_entry = np.eye(4) / 4
        one_entry[1, 1] = bad
        assert not tomo.is_physical(one_entry)

    def test_non_finite_input_raises_validation_error(self):
        nan_rho = np.full((4, 4), np.nan)
        with pytest.raises(ValidationError, match="physical"):
            tomo.apply_depolarizing(nan_rho, 0.1)
        with pytest.raises(ValidationError, match="physical"):
            tomo.pauli_expectations(nan_rho)


class TestDepolarizing:
    def test_zero_strength_is_identity_map(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        np.testing.assert_allclose(tomo.apply_depolarizing(rho, 0.0), rho, atol=1e-15)

    def test_full_strength_is_maximally_mixed(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        np.testing.assert_allclose(
            tomo.apply_depolarizing(rho, 1.0), np.eye(4) / 4, atol=1e-15
        )

    def test_fidelity_drops_affinely(self):
        # For a pure target, overlap with the depolarized state is 1 - 3p/4.
        rho = tomo.density_from_state(UNIFORM_STATE)
        for p in (0.0, 0.1, 0.25, 0.5, 1.0):
            noisy = tomo.apply_depolarizing(rho, p)
            assert tomo.fidelity(noisy, UNIFORM_STATE) == pytest.approx(
                1.0 - 0.75 * p, abs=1e-12
            )

    def test_calibrated_strength_reproduces_published_fidelity(self):
        rho = tomo.density_from_state(UNIFORM_STATE)
        noisy = tomo.apply_depolarizing(rho, tomo.CALIBRATED_DEPOLARIZING_P)
        assert tomo.fidelity(noisy, UNIFORM_STATE) == pytest.approx(0.9878, abs=1e-4)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_strength_range(self, p):
        with pytest.raises(InvalidProbabilityError):
            tomo.apply_depolarizing(np.eye(4) / 4, p)

    def test_unphysical_input_rejected(self):
        with pytest.raises(ValueError):
            tomo.apply_depolarizing(np.eye(4), 0.1)


class TestExpectations:
    def test_maximally_mixed_has_no_signal(self):
        table = tomo.pauli_expectations(np.eye(4) / 4)
        assert table.mode == "analytic"
        assert table.values["II"] == 1.0
        for word in tomo.PAULI_WORDS[1:]:
            assert table.values[word] == pytest.approx(0.0, abs=1e-12)

    def test_analytic_matches_trace_oracle(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        table = tomo.pauli_expectations(rho)
        for word in tomo.PAULI_WORDS:
            assert table.values[word] == pytest.approx(
                _trace_expectation(rho, word), abs=1e-12
            )

    def test_plus_plus_state_signature(self):
        # |++> has unit X expectations and vanishing Y/Z signal.
        table = tomo.pauli_expectations(tomo.density_from_state(UNIFORM_STATE))
        assert table.values["XI"] == pytest.approx(1.0, abs=1e-12)
        assert table.values["IX"] == pytest.approx(1.0, abs=1e-12)
        assert table.values["XX"] == pytest.approx(1.0, abs=1e-12)
        for word in ("ZI", "IZ", "ZZ", "YI", "IY", "YY", "XY", "YX"):
            assert table.values[word] == pytest.approx(0.0, abs=1e-12)

    def test_sampled_mode_is_seeded(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        a = tomo.pauli_expectations(rho, mode="sampled", shots=512, seed=9)
        b = tomo.pauli_expectations(rho, mode="sampled", shots=512, seed=9)
        assert a.values == b.values
        assert a.values["II"] == 1.0
        assert a.mode == "sampled"
        assert a.shots == 512
        assert a.seed == 9

    def test_sampled_approaches_analytic(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        exact = tomo.pauli_expectations(rho)
        sampled = tomo.pauli_expectations(rho, mode="sampled", shots=100_000, seed=0)
        for word in tomo.PAULI_WORDS:
            assert sampled.values[word] == pytest.approx(exact.values[word], abs=0.02)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tomo.pauli_expectations(np.eye(4) / 4, mode="guess")

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            tomo.pauli_expectations(np.eye(2) / 2)

    def test_state_at_the_physicality_tolerance_samples(self):
        # Trace off by just under 1e-8 and an eigenvalue just above -1e-8:
        # is_physical accepts it, so the clipped setting rows must sample.
        rho = np.diag([0.5 + 0.99e-8, 0.5 + 0.99e-8, -0.99e-8, 0.0]).astype(complex)
        assert tomo.is_physical(rho)
        table = tomo.pauli_expectations(rho, mode="sampled", shots=64, seed=3)
        assert table.values["ZI"] == 1.0
        assert table.values["XX"] == pytest.approx(0.0, abs=0.5)


class TestAgainstOracle:
    """The package must reproduce the numpy-only oracle bit for bit."""

    # Analytic mode ignores shots, so it runs once.
    @pytest.mark.parametrize("mode, shots", [("sampled", 7), ("sampled", 1024), ("analytic", 1024)])
    def test_expectations_and_reconstruction_are_byte_equal(self, mode, shots):
        for index, rho in enumerate(_random_mixed_states(200, seed=2024)):
            seed = 1000 + 9 * index
            table = tomo.pauli_expectations(rho, mode=mode, shots=shots, seed=seed)
            got = np.array([table.values[word] for word in tomo.PAULI_WORDS])
            want = np.array(tomography_expectations(rho, mode, shots, seed))
            assert got.tobytes() == want.tobytes(), (index, got, want)
            rebuilt = tomo.reconstruct(table)
            assert rebuilt.tobytes() == tomography_reconstruct(want).tobytes(), index


class TestReconstruct:
    def test_analytic_roundtrip_uniform(self):
        rho = tomo.density_from_state(UNIFORM_STATE)
        rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
        assert np.max(np.abs(rebuilt - rho)) <= 1e-10

    def test_analytic_roundtrip_across_catalog(self):
        for spec in family.enumerate_family():
            x = linsys.solve(spec.matrix, spec.y)
            rho = tomo.density_from_state(x)
            rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
            assert np.max(np.abs(rebuilt - rho)) <= 1e-10

    def test_roundtrip_of_mixed_states(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
            assert np.max(np.abs(rebuilt - rho)) <= 1e-10

    def test_sign_recovery(self):
        # The square-root readout cannot distinguish SIGNED_STATE from the
        # uniform state; the reconstructed off-diagonals can.
        rho = tomo.reconstruct(
            tomo.pauli_expectations(tomo.density_from_state(SIGNED_STATE))
        )
        expected = np.outer(SIGNED_STATE, SIGNED_STATE.conj())
        assert np.max(np.abs(rho - expected)) <= 1e-10

    def test_sampled_reconstruction_is_close(self):
        rho = tomo.density_from_state(UNIFORM_STATE)
        table = tomo.pauli_expectations(rho, mode="sampled", shots=8192, seed=1)
        rebuilt = tomo.reconstruct(table)
        assert tomo.is_physical(rebuilt)
        assert tomo.fidelity(rebuilt, UNIFORM_STATE) >= 0.99

    def test_identity_only_table_gives_maximally_mixed(self):
        values = {word: 0.0 for word in tomo.PAULI_WORDS}
        values["II"] = 1.0
        rebuilt = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
        np.testing.assert_allclose(rebuilt, np.eye(4) / 4, atol=1e-12)

    def test_incomplete_table_rejected(self):
        table = tomo.ExpectationTable(values={"II": 1.0}, mode="analytic")
        with pytest.raises(ValueError):
            tomo.reconstruct(table)

    def test_output_is_always_physical(self):
        # Even a heavily corrupted table must map to a valid state.
        rng = np.random.default_rng(13)
        values = {word: float(rng.uniform(-1, 1)) for word in tomo.PAULI_WORDS}
        values["II"] = 1.0
        rebuilt = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
        assert tomo.is_physical(rebuilt)


class TestProjection:
    def test_physical_input_unchanged(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        np.testing.assert_allclose(tomo.project_to_physical(rho), rho, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(4, 4))
        raw = (raw + raw.T) / 2
        raw /= np.trace(raw)
        once = tomo.project_to_physical(raw)
        twice = tomo.project_to_physical(once)
        assert np.max(np.abs(twice - once)) <= 1e-10
        assert tomo.is_physical(once)


class TestFidelity:
    def test_pure_state_with_itself(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        assert abs(tomo.fidelity(rho, SIGNED_STATE) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        assert tomo.fidelity(np.eye(4) / 4, UNIFORM_STATE) == pytest.approx(0.25)

    def test_orthogonal_states(self):
        rho = tomo.density_from_state([1, 0, 0, 0])
        assert tomo.fidelity(rho, [0, 1, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_density_argument(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            w = float(rng.uniform(0, 1))
            a = tomo.density_from_state(UNIFORM_STATE)
            b = tomo.apply_depolarizing(tomo.density_from_state(SIGNED_STATE), 0.4)
            mixed = w * a + (1 - w) * b
            expected = w * tomo.fidelity(a, UNIFORM_STATE) + (1 - w) * tomo.fidelity(
                b, UNIFORM_STATE
            )
            assert tomo.fidelity(mixed, UNIFORM_STATE) == pytest.approx(
                expected, abs=1e-12
            )

    def test_sqrt_convention(self):
        rho = tomo.apply_depolarizing(tomo.density_from_state(UNIFORM_STATE), 0.3)
        overlap = tomo.fidelity(rho, UNIFORM_STATE)
        assert tomo.fidelity(rho, UNIFORM_STATE, square_root=True) == pytest.approx(
            overlap**0.5, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tomo.fidelity(np.eye(4) / 4, [1.0, 0.0])

    @pytest.mark.parametrize("psi", [np.ones(4), np.full(4, 0.5 + 1e-9), np.full(4, np.nan), np.zeros(4)])
    def test_unnormalized_state_rejected(self, psi):
        with pytest.raises(NotNormalizedError):
            tomo.fidelity(np.eye(4) / 4, psi)

    def test_rounding_overshoot_is_clipped(self):
        rho = tomo.density_from_state(UNIFORM_STATE) * (1.0 + 5e-10)
        assert tomo.fidelity(rho, UNIFORM_STATE) == 1.0
        assert tomo.fidelity(-1e-10 * np.eye(4), UNIFORM_STATE) == 0.0

    @pytest.mark.parametrize("scale", [1.5, -0.5, np.nan])
    def test_overlap_outside_unit_interval_rejected(self, scale):
        rho = tomo.density_from_state(UNIFORM_STATE) * scale
        with pytest.raises(ValidationError, match="outside"):
            tomo.fidelity(rho, UNIFORM_STATE)
