import ast
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlinsys import family, linsys, tomo
from qlinsys.errors import (
    DimensionMismatchError,
    InvalidProbabilityError,
    NotNormalizedError,
    ValidationError,
)

import envelope
from oracles import leading_sign_pattern, setting_probabilities, tomography_expectations, tomography_reconstruct

UNIFORM_STATE = np.full(4, 0.5, dtype=complex)
SIGNED_STATE = np.array([0.5, -0.5, -0.5, 0.5], dtype=complex)

#: Each Pauli word's index in a table's values.
WORD_INDEX = {word: i for i, word in enumerate(tomo.PAULI_WORDS)}

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


#: Values where a vectorized sum and a word-by-word loop could differ by a bit.
ADVERSARIAL_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5, 1e-300, -0.25])


def _adversarial_tables(count, seed):
    """Tables of adversarial values, and of uniform ones, with II often negative or zero."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            values = rng.uniform(-1.0, 1.0, size=16)
        else:
            values = rng.choice(ADVERSARIAL_VALUES, size=16)
        yield values


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
        for word, m in zip(tomo.PAULI_WORDS, tomo._PAULI_MATRICES, strict=True):
            np.testing.assert_array_equal(m, np.kron(_PAULI_1Q[word[0]], _PAULI_1Q[word[1]]))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)

    def test_words_are_trace_orthogonal(self):
        for a, b in itertools.combinations(tomo._PAULI_MATRICES, 2):
            assert abs(np.trace(a @ b)) <= 1e-12


def _outcome_probabilities(rho):
    """The (9, 4) setting probabilities that sampled mode draws from: the fixed table times rho's entries."""
    return (tomo._OUTCOME_TABLE @ np.asarray(rho, dtype=complex).ravel()).real.reshape(9, 4)


class TestOutcomeTable:
    def test_catalog_probabilities_are_exact_at_zero_noise(self):
        # A catalog state's entries are +-1/2, so every setting reads 0, 1/4, 1/2 or 1 exactly.
        for spec in family.enumerate_family():
            for b in range(4):
                x = linsys.solve(spec.matrix, np.eye(4)[b])
                probs = _outcome_probabilities(tomo.apply_depolarizing(tomo.density_from_state(x), 0.0))
                assert np.isin(probs, [0.0, 0.25, 0.5, 1.0]).all(), (spec.label, b, probs)
                assert (probs.sum(axis=1) == 1.0).all()

    def test_random_mixed_states_match_the_rotation_oracle(self):
        for rho in _random_mixed_states(200, 23):
            probs = _outcome_probabilities(rho)
            assert np.max(np.abs(probs.clip(0.0) - setting_probabilities(rho))) <= 4.4e-16

    def test_import_simulates_no_measurement_circuit(self):
        # sim serves tomo only as the sampler; the table stands in for rotation circuits.
        tree = ast.parse(Path(tomo.__file__).read_text())
        used = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sim"
        }
        assert used == {"sample_counts"}


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

    def test_huge_state_rejected_without_a_warning(self):
        psi = [1e200, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalizedError, match="norm 1e"):
                tomo.density_from_state(psi)
            with pytest.raises(NotNormalizedError, match="norm 1e"):
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
            np.zeros((0, 0)),  # empty
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


def _hermitian_off_by(deviation):
    """I/4 with entry (0, 1) set: rho - rho^H is exactly `deviation` there."""
    rho = np.eye(4) / 4
    rho[0, 1] = deviation
    return rho


def _eigenvalue_at(value):
    """diag(1 - value, value, 0, 0): its least eigenvalue is exactly `value`, its trace 1 within 1e-15."""
    return np.diag([1.0 - value, value, 0.0, 0.0])


def _strided(rho):
    """A view of `rho` with a stride of 2 in both axes."""
    wide = np.zeros((8, 8), dtype=rho.dtype)
    wide[::2, ::2] = rho
    return wide[::2, ::2]


def _with_entry(value, at=(2, 3)):
    rho = np.eye(4, dtype=complex) / 4
    rho[at] = value
    return rho


_PHYSICAL_TOL_STEPS = {"below": np.nextafter(1e-8, 0.0), "at": 1e-8, "above": np.nextafter(1e-8, 1.0)}
_COMPLEX_RHO = tomo.density_from_state(np.array([0.5, 0.5j, -0.5, -0.5j]))

#: Inputs on both sides of every rule the physicality verdict meets.
_ADVERSARIAL_DENSITIES = {
    **{f"hermitian_{name}": _hermitian_off_by(d) for name, d in _PHYSICAL_TOL_STEPS.items()},
    **{f"hermitian_{name}_transposed": _hermitian_off_by(d).T for name, d in _PHYSICAL_TOL_STEPS.items()},
    **{f"eigenvalue_{name}": _eigenvalue_at(-d) for name, d in _PHYSICAL_TOL_STEPS.items()},
    "nan": _with_entry(np.nan),
    "nan_imag": _with_entry(complex(0.0, np.nan)),
    "inf": _with_entry(np.inf),
    "-inf": _with_entry(-np.inf),
    "plus_zero": np.eye(4) / 4,
    "minus_zero": np.where(np.eye(4) == 1.0, 0.25, -0.0),
    "minus_zero_imag": np.eye(4) / 4 + complex(0.0, -0.0),
    "float": np.diag([0.5, 0.25, 0.25, 0.0]),
    "complex": np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex),
    "complex_transposed": _COMPLEX_RHO.T,
    "complex_strided": _strided(_COMPLEX_RHO),
    "not_hermitian_strided": _strided(_with_entry(0.1j, (0, 1))),
}

_PHYSICALITY_CALLS = {
    "is_physical": tomo.is_physical,
    "apply_depolarizing": lambda rho: tomo.apply_depolarizing(rho, 0.1).tobytes(),
    "pauli_expectations": lambda rho: tomo.pauli_expectations(rho).values.tobytes(),
}


def _outcome(call, rho):
    """The call's result, or the error's class and message."""
    try:
        return call(rho)
    except ValidationError as exc:
        return type(exc), str(exc)


class TestPhysicalityMemo:
    """A cached physicality verdict gives what a fresh check gives, and the memo stays bounded."""

    @pytest.mark.parametrize("call", _PHYSICALITY_CALLS)
    @pytest.mark.parametrize("name", _ADVERSARIAL_DENSITIES)
    def test_repeat_and_cleared_calls_match_the_first(self, name, call):
        call, rho = _PHYSICALITY_CALLS[call], _ADVERSARIAL_DENSITIES[name]
        tomo._physical.cache_clear()
        first = _outcome(call, rho)
        again = _outcome(call, rho)
        tomo._physical.cache_clear()
        assert first == again == _outcome(call, rho)

    @pytest.mark.parametrize("call", _PHYSICALITY_CALLS)
    @pytest.mark.parametrize("name", [name for name in _ADVERSARIAL_DENSITIES if "transposed" in name or "strided" in name])
    def test_a_view_gets_its_c_ordered_copys_verdict(self, name, call):
        call, view = _PHYSICALITY_CALLS[call], _ADVERSARIAL_DENSITIES[name]
        assert not view.flags.c_contiguous
        tomo._physical.cache_clear()
        of_view = _outcome(call, view)
        tomo._physical.cache_clear()
        assert of_view == _outcome(call, np.ascontiguousarray(view))

    def test_the_tolerances_hold_on_each_side_of_one_ulp(self):
        for name, expected in [("below", True), ("at", True), ("above", False)]:
            d = _PHYSICAL_TOL_STEPS[name]
            for rho in (_hermitian_off_by(d), _hermitian_off_by(d).T, _eigenvalue_at(-d)):
                assert [tomo.is_physical(rho) for _ in range(2)] == [expected] * 2, name

    def test_a_float_and_a_complex_rho_with_equal_values_agree(self):
        for name, expected in [("float", True), ("hermitian_above", False), ("eigenvalue_above", False), ("minus_zero", True)]:
            rho = _ADVERSARIAL_DENSITIES[name]
            tomo._physical.cache_clear()
            assert [tomo.is_physical(rho), tomo.is_physical(rho.astype(complex))] == [expected] * 2, name
            assert tomo._physical.cache_info().currsize == 1  # one key: both are checked as complex

    def test_equal_bytes_in_other_shapes_get_their_own_verdict(self):
        rho = np.eye(4, dtype=complex) / 4
        for shapes in itertools.permutations([(4, 4), (2, 8), (16,)]):
            tomo._physical.cache_clear()
            for shape in shapes:
                assert tomo.is_physical(rho.reshape(shape)) == (shape == (4, 4)), shapes

    def test_a_non_finite_density_is_refused_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValidationError, match="^input is not a physical density matrix$"):
                tomo.apply_depolarizing(_with_entry(np.nan), 0.1)

    @pytest.mark.parametrize("call", ["apply_depolarizing", "pauli_expectations"])
    @pytest.mark.parametrize(
        "rho",
        [_with_entry(np.nan), _with_entry(-np.inf), _with_entry(np.inf, (1, 1)), _with_entry(complex(0.25, np.nan), (0, 0))],
        ids=["nan", "-inf", "inf_diagonal", "nan_imag_diagonal"],
    )
    def test_a_cached_false_verdict_still_refuses_a_non_finite_density(self, rho, call):
        """The verdict covers finiteness: a cached False one raises the same error."""
        tomo._physical.cache_clear()
        for _ in range(3):
            with pytest.raises(ValidationError, match="^input is not a physical density matrix$") as raised:
                _PHYSICALITY_CALLS[call](rho)
            assert type(raised.value) is ValidationError
        assert tomo._physical.cache_info()[:2] == (2, 1)  # hits, misses

    def test_catalog_densities_take_the_memo(self, monkeypatch):
        p = tomo.CALIBRATED_DEPOLARIZING_P
        clean = [
            tomo.density_from_state(linsys.solve(spec.matrix, np.eye(4)[b]))
            for spec in family.enumerate_family()
            for b in range(4)
        ]
        noisy = [tomo.apply_depolarizing(rho, p) for rho in clean]
        for rho in noisy:
            tomo.pauli_expectations(rho)

        def fail(*args):
            raise AssertionError("a catalog density's physicality was checked again")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert len(clean + noisy) == 384
        for rho in clean + noisy:
            tomo.apply_depolarizing(rho, p)
            tomo.pauli_expectations(rho)

    def test_a_density_wider_than_64_entries_is_checked_on_every_call(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(m):
            calls.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        before = tomo._physical.cache_info()
        for _ in range(3):
            assert tomo.is_physical(np.eye(16) / 16)
        assert calls == [(16, 16)] * 3
        assert tomo._physical.cache_info() == before

    def test_eight_by_eight_is_cached_and_nine_by_nine_is_not(self):
        tomo._physical.cache_clear()
        for n in (8, 9):
            for _ in range(2):
                assert tomo.is_physical(np.eye(n) / n)
            assert tomo._physical.cache_info().currsize == 1

    def test_the_memo_holds_at_most_512_verdicts(self):
        tomo._physical.cache_clear()
        for k in range(2000):
            assert tomo.is_physical(np.diag([k / 2000, 1 - k / 2000]))
            assert tomo._physical.cache_info().currsize <= 512
        assert tomo._physical.cache_info().currsize == 512


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

    @pytest.mark.parametrize("p", [1, np.int64(1), np.float64(1.0), np.float32(1.0)])
    def test_numpy_and_integer_strengths_accepted(self, p):
        rho = tomo.density_from_state(SIGNED_STATE)
        assert tomo.apply_depolarizing(rho, p).tobytes() == tomo.apply_depolarizing(rho, 1.0).tobytes()

    @pytest.mark.parametrize("p", [np.float16(0.1), np.float32(0.1), np.longdouble(0.1)])
    def test_narrow_and_wide_float_strengths_act_as_their_double(self, p):
        rho = tomo.density_from_state(SIGNED_STATE)
        noisy = tomo.apply_depolarizing(rho, p)
        assert noisy.dtype == complex and tomo.is_physical(noisy)
        assert noisy.tobytes() == tomo.apply_depolarizing(rho, float(p)).tobytes()

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
        assert table.values[WORD_INDEX["II"]] == 1.0
        for word in tomo.PAULI_WORDS[1:]:
            assert table.values[WORD_INDEX[word]] == pytest.approx(0.0, abs=1e-12)

    def test_analytic_matches_trace_oracle(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        table = tomo.pauli_expectations(rho)
        for word in tomo.PAULI_WORDS:
            assert table.values[WORD_INDEX[word]] == pytest.approx(
                _trace_expectation(rho, word), abs=1e-12
            )

    def test_plus_plus_state_signature(self):
        # |++> has unit X expectations and vanishing Y/Z signal.
        table = tomo.pauli_expectations(tomo.density_from_state(UNIFORM_STATE))
        assert table.values[WORD_INDEX["XI"]] == pytest.approx(1.0, abs=1e-12)
        assert table.values[WORD_INDEX["IX"]] == pytest.approx(1.0, abs=1e-12)
        assert table.values[WORD_INDEX["XX"]] == pytest.approx(1.0, abs=1e-12)
        for word in ("ZI", "IZ", "ZZ", "YI", "IY", "YY", "XY", "YX"):
            assert table.values[WORD_INDEX[word]] == pytest.approx(0.0, abs=1e-12)

    def test_sampled_mode_is_seeded(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        a = tomo.pauli_expectations(rho, mode="sampled", shots=512, seed=9)
        b = tomo.pauli_expectations(rho, mode="sampled", shots=512, seed=9)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values[WORD_INDEX["II"]] == 1.0
        assert a.mode == "sampled"
        assert a.shots == 512
        assert a.seed == 9

    def test_sampled_approaches_analytic(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        exact = tomo.pauli_expectations(rho)
        sampled = tomo.pauli_expectations(rho, mode="sampled", shots=100_000, seed=0)
        for word in tomo.PAULI_WORDS:
            i = WORD_INDEX[word]
            assert sampled.values[i] == pytest.approx(exact.values[i], abs=0.02)

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
        assert table.values[WORD_INDEX["ZI"]] == 1.0
        assert table.values[WORD_INDEX["XX"]] == pytest.approx(0.0, abs=0.5)


class TestAgainstOracle:
    """The package must reproduce the numpy-only oracle bit for bit."""

    # Analytic mode ignores shots, so it runs once.
    @pytest.mark.parametrize("mode, shots", [("sampled", 7), ("sampled", 1024), ("analytic", 1024)])
    def test_expectations_and_reconstruction_are_byte_equal(self, mode, shots):
        for index, rho in enumerate(_random_mixed_states(200, seed=2024)):
            seed = 1000 + 9 * index
            table = tomo.pauli_expectations(rho, mode=mode, shots=shots, seed=seed)
            got = table.values
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
        values = np.zeros(16)
        values[WORD_INDEX["II"]] = 1.0
        rebuilt = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
        np.testing.assert_allclose(rebuilt, np.eye(4) / 4, atol=1e-12)

    def test_adversarial_tables_match_the_sequential_oracle_byte_for_byte(self):
        for k, values in enumerate(_adversarial_tables(2000, seed=77)):
            rebuilt = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
            want = tomography_reconstruct(values.tolist())
            assert rebuilt.tobytes() == want.tobytes(), (k, values)

    def test_integer_bool_and_numpy_values_are_accepted(self):
        floats = [0.0] * 16
        floats[WORD_INDEX["II"]], floats[WORD_INDEX["ZZ"]] = 1.0, -1.0
        want = tomo.reconstruct(tomo.ExpectationTable(values=floats, mode="analytic")).tobytes()
        for convert in (int, np.float32, np.int64):
            values = [convert(v) for v in floats]
            assert tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic")).tobytes() == want
        # Bools are real numbers too, read as 0 and 1 whether or not the table mixes in floats.
        identity = tomo.reconstruct(tomo.ExpectationTable(values=[1.0] + [0.0] * 15, mode="analytic")).tobytes()
        for other in (False, 0.0):
            values = [other] * 16
            values[WORD_INDEX["II"]] = True
            assert tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic")).tobytes() == identity

    def test_incomplete_table_rejected(self):
        table = tomo.ExpectationTable(values=np.array([1.0]), mode="analytic")
        with pytest.raises(ValueError):
            tomo.reconstruct(table)

    def test_output_is_always_physical(self):
        # Even a heavily corrupted table must map to a valid state.
        rng = np.random.default_rng(13)
        values = np.array([float(rng.uniform(-1, 1)) for _ in tomo.PAULI_WORDS])
        values[WORD_INDEX["II"]] = 1.0
        rebuilt = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
        assert tomo.is_physical(rebuilt)


class TestProjection:
    """`reconstruct` clips negative eigenvalues and renormalizes."""

    def test_physical_input_unchanged(self):
        rho = tomo.density_from_state(SIGNED_STATE)
        np.testing.assert_allclose(tomo.reconstruct(tomo.pauli_expectations(rho)), rho, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(-1, 1, size=16)
        values[WORD_INDEX["II"]] = 1.0
        once = tomo.reconstruct(tomo.ExpectationTable(values=values, mode="analytic"))
        twice = tomo.reconstruct(tomo.pauli_expectations(once))
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_rho_rejected_without_a_warning(self, bad):
        # The zero entries of psi meet the bad entry, so a product would give NaN.
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="outside"):
                tomo.fidelity(rho, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [1.5, -0.5, np.nan])
    def test_overlap_outside_unit_interval_rejected(self, scale):
        rho = tomo.density_from_state(UNIFORM_STATE) * scale
        with pytest.raises(ValidationError, match="outside"):
            tomo.fidelity(rho, UNIFORM_STATE)


class TestSignRecoveryAcrossCatalog:
    """Every catalog system and basis input: tomography recovers the solution's signs up to a global sign."""

    @staticmethod
    def _solutions():
        for spec in family.enumerate_family():
            for b in range(4):
                yield str(spec.label), b, linsys.solve(spec.matrix, np.eye(4)[b])

    @staticmethod
    def _recovered(rho, x):
        signs = leading_sign_pattern(rho)
        want = np.sign(x).astype(int).tolist()
        return signs == want or signs == [-s for s in want]

    def test_analytic_recovers_every_sign_pattern(self):
        for label, b, x in self._solutions():
            assert 0 not in np.sign(x), (label, b)
            pure = tomo.density_from_state(x)
            for rho in (pure, tomo.apply_depolarizing(pure, tomo.CALIBRATED_DEPOLARIZING_P)):
                rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
                assert self._recovered(rebuilt, x), (label, b)

    def test_sampled_at_the_calibrated_noise_recovers_every_sign_pattern(self):
        for k, (label, b, x) in enumerate(self._solutions()):
            noisy = tomo.apply_depolarizing(tomo.density_from_state(x), tomo.CALIBRATED_DEPOLARIZING_P)
            for seed in (9 * k, 5000 + 9 * k):
                table = tomo.pauli_expectations(noisy, mode="sampled", shots=1024, seed=seed)
                assert self._recovered(tomo.reconstruct(table), x), (label, b, seed)

    @staticmethod
    def _sampled_recovery(label, b, p, shots, seed):
        x = linsys.solve(family.matrix_for(family.FamilyLabel.parse(label)), np.eye(4)[b])
        noisy = tomo.apply_depolarizing(tomo.density_from_state(x), p)
        table = tomo.pauli_expectations(noisy, mode="sampled", shots=shots, seed=seed)
        return TestSignRecoveryAcrossCatalog._recovered(tomo.reconstruct(table), x)

    def test_calibrated_noise_recovers_with_four_shots_per_setting(self):
        # Inside the envelope in the tomo docstring.
        assert self._sampled_recovery("A_1234", 0, tomo.CALIBRATED_DEPOLARIZING_P, 4, 0)

    def test_half_depolarized_with_sixteen_shots_can_lose_the_signs(self):
        # Outside the envelope; 1024 shots of the same state and seed recover the signs.
        # Seed 9 is the first seed from 0 up that loses them at 16 shots.
        assert not self._sampled_recovery("A_1324", 0, 0.5, 16, 9)
        assert self._sampled_recovery("A_1324", 0, 0.5, 1024, 9)

    def test_envelope_cell_at_the_calibrated_noise_and_four_shots_matches_the_docstring(self):
        # tests/envelope.py prints the docstring's whole table; this reruns its 960-run first cell.
        doc = " ".join(tomo.__doc__.split())
        stated = re.search(r"per setting: (\d+), \d+, \d+, \d+, \d+ at the calibrated p;", doc)
        assert stated, "the tomo docstring no longer states the envelope's calibrated row"
        misses = envelope.misses(tomo.CALIBRATED_DEPOLARIZING_P, 4, envelope.solutions())
        assert misses == int(stated.group(1))
