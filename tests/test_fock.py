"""Engine-level checks: preparations, optical elements, signs, and the dense
matrix-exponential oracle."""

from __future__ import annotations

import numpy as np
import pytest

from feqc import circuit, fock
from feqc.circuit import (BeamSplitter, PolarizingBeamSplitter, SpinRotation, SwapArms,
                          apply_instruction)
from feqc.errors import FeqcError, PreconditionError
from feqc.fock import (
    BEAM_SPLITTER_MATRIX,
    FockState,
    Spin,
    apply_single_particle_unitary,
    arm_charge,
    create,
    fidelity,
    format_key,
    inner_product,
    prepare_bell,
    prepare_spin,
    prepare_two_spin,
    vacuum,
)
from helpers import (
    always_pruned_unitary,
    amplitude_bits,
    dense_bilinear_unitary,
    dense_vector,
    random_state,
    random_unitary,
)

UP, DOWN = Spin.UP, Spin.DOWN


def test_vacuum_is_single_empty_key():
    state = vacuum(2)
    assert state.amplitudes == {0: 1.0 + 0.0j}
    assert vacuum(1).norm() == pytest.approx(1.0)
    assert all(bin(k).count("1") == 0 for k in vacuum(4).amplitudes)


def test_vacuum_rejects_zero_arms():
    with pytest.raises(ValueError):
        vacuum(0)


def test_create_single_mode():
    state = create(vacuum(1), (1, UP))
    assert state.amplitudes == {0b01: 1.0 + 0.0j}
    assert format_key(0b01, 1) == "10"


def test_create_twice_annihilates():
    state = create(create(vacuum(1), (1, UP)), (1, UP))
    assert state.amplitudes == {}


@pytest.mark.parametrize(
    "mode_a,mode_b",
    [((1, DOWN), (1, UP)), ((1, UP), (2, DOWN)), ((2, UP), (1, DOWN)), ((3, DOWN), (1, UP))],
)
def test_create_order_flips_sign_exactly(mode_a, mode_b):
    forward = create(create(vacuum(3), mode_a), mode_b)
    backward = create(create(vacuum(3), mode_b), mode_a)
    (key_a, amp_a), = forward.amplitudes.items()
    (key_b, amp_b), = backward.amplitudes.items()
    assert key_a == key_b
    assert amp_a == -amp_b  # exact integer signs, no float tolerance


def test_prepare_spin_up_and_normalization():
    up = prepare_spin(vacuum(1), 1, 1, 0)
    assert up.amplitudes == {0b01: 1.0 + 0.0j}
    plus = prepare_spin(vacuum(1), 1, 1, 1)
    assert plus.norm() == pytest.approx(1.0)
    assert plus.amplitudes[0b01] == pytest.approx(1 / np.sqrt(2))
    assert plus.amplitudes[0b10] == pytest.approx(1 / np.sqrt(2))


def test_prepare_spin_born_weights():
    state = prepare_spin(vacuum(2), 2, 0.6, 0.8j)
    weights = {k: abs(a) ** 2 for k, a in state.amplitudes.items()}
    up_key = 1 << 2
    down_key = 1 << 3
    assert weights[up_key] == pytest.approx(0.36)
    assert weights[down_key] == pytest.approx(0.64)


def test_prepare_spin_rejects_occupied_arm():
    state = prepare_spin(vacuum(1), 1, 1, 0)
    with pytest.raises(PreconditionError):
        prepare_spin(state, 1, 0, 1)


def test_prepare_spin_rejects_zero_spinor():
    with pytest.raises(ValueError):
        prepare_spin(vacuum(1), 1, 0, 0)


def test_spinor_fidelity_scales_a_spinor_whose_squared_norm_underflows():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    assert fock.spinor_fidelity(rho, 1e-170, 0) == 1.0


def test_bell_singlet_amplitudes():
    state = prepare_bell(vacuum(2), 0, 1, 2)
    up_down = (1 << 0) | (1 << 3)
    down_up = (1 << 1) | (1 << 2)
    assert state.amplitudes[up_down] == pytest.approx(1 / np.sqrt(2))
    assert state.amplitudes[down_up] == pytest.approx(-1 / np.sqrt(2))


def test_bell_aligned_pair_amplitudes():
    state = prepare_bell(vacuum(2), 2, 1, 2)
    up_up = (1 << 0) | (1 << 2)
    down_down = (1 << 1) | (1 << 3)
    assert state.amplitudes[up_up] == pytest.approx(1 / np.sqrt(2))
    assert state.amplitudes[down_down] == pytest.approx(1 / np.sqrt(2))


def test_bell_states_are_orthonormal():
    states = [prepare_bell(vacuum(2), k, 1, 2) for k in range(4)]
    for j in range(4):
        for k in range(4):
            expected = 1.0 if j == k else 0.0
            assert abs(inner_product(states[j], states[k])) == pytest.approx(expected, abs=1e-12)


def test_bell_rejects_bad_index_and_arms():
    with pytest.raises(ValueError):
        prepare_bell(vacuum(2), 4, 1, 2)
    with pytest.raises(ValueError):
        prepare_bell(vacuum(2), 0, 1, 1)


def test_unitary_identity_is_noop():
    rng = np.random.default_rng(3)
    state = random_state(rng, 2)
    out = apply_single_particle_unitary(state, [(1, UP), (2, DOWN)], np.eye(2))
    assert fidelity(state, out) == pytest.approx(1.0)


def test_unitary_single_particle_sector_is_matrix():
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 2)
    state = create(vacuum(2), (1, UP))
    out = apply_single_particle_unitary(state, [(1, UP), (2, UP)], u)
    assert out.amplitudes[1 << 0] == pytest.approx(u[0, 0])
    assert out.amplitudes.get(1 << 2, 0j) == pytest.approx(u[1, 0])


def test_unitary_full_sector_multiplies_by_determinant():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    state = create(create(vacuum(1), (1, DOWN)), (1, UP))
    out = apply_single_particle_unitary(state, [(1, UP), (1, DOWN)], u)
    (key, amp), = out.amplitudes.items()
    assert key == 0b11
    assert amp == pytest.approx(np.linalg.det(u))


def test_unitary_rejects_bad_input():
    state = vacuum(2)
    with pytest.raises(ValueError):
        apply_single_particle_unitary(state, [(1, UP), (1, UP)], np.eye(2))
    with pytest.raises(ValueError):
        apply_single_particle_unitary(state, [(1, UP), (1, DOWN)], np.array([[1, 1], [0, 1]]))


# Tolerance edges of the unitarity check: the identity's diagonal allows
# UNITARY_ATOL + 1e-5, its off-diagonal UNITARY_ATOL alone.
_DIAG_EDGE = (fock.UNITARY_ATOL + 1e-5) / 2
_OFF_EDGE = fock.UNITARY_ATOL


@pytest.mark.parametrize("matrix, unitary", [
    (np.eye(2), True),
    (BEAM_SPLITTER_MATRIX, True),
    (np.array([[1, 1], [0, 1]]), False),
    (np.array([[np.nan, 0], [0, 1]]), False),
    (np.array([[np.inf, 0], [0, 1]]), False),
    (np.diag([1 + 0.99 * _DIAG_EDGE, 1]), True),
    (np.diag([1 + 1.01 * _DIAG_EDGE, 1]), False),
    (np.array([[1, 0.99 * _OFF_EDGE], [0, 1]]), True),
    (np.array([[1, 1.01 * _OFF_EDGE], [0, 1]]), False),
])
def test_check_unitary_verdicts_match_allclose(matrix, unitary):
    u = np.asarray(matrix, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0 in the products
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=fock.UNITARY_ATOL) == unitary
        if unitary:
            np.testing.assert_array_equal(fock.check_unitary(matrix, 2), u)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                fock.check_unitary(matrix, 2)


@pytest.mark.parametrize("matrix", [np.eye(3), np.eye(2)[0], [[1, 0]]])
def test_check_unitary_rejects_wrong_shape(matrix):
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        fock.check_unitary(matrix, 2)


def test_moved_electron_takes_the_parity_of_modes_between():
    # c0^ c1^ |0> under c0^ -> c2^ becomes c2^ c1^ |0> = -c1^ c2^ |0>.
    state = create(create(vacuum(2), (1, DOWN)), (1, UP))
    out = apply_single_particle_unitary(state, [(1, UP), (2, UP)], fock.PAULI_X)
    assert out.amplitudes == {0b110: -1}
    back = apply_single_particle_unitary(out, [(2, UP), (1, UP)], fock.PAULI_X)
    assert back.amplitudes == state.amplitudes


@pytest.mark.parametrize("element, calls", [
    (lambda s: apply_instruction(s, BeamSplitter(2, 1)), 2),
    (lambda s: apply_instruction(s, PolarizingBeamSplitter(1, 2)), 1),
    (lambda s: apply_instruction(s, SwapArms(1, 2)), 2),
    (lambda s: apply_instruction(s, SpinRotation(1, "h")), 1),
    (lambda s: circuit.apply_instruction(s, circuit.BeamSplitter(1, 2)), 2),
    (lambda s: circuit.apply_instruction(s, circuit.PolarizingBeamSplitter(2, 1)), 1),
    (lambda s: circuit.apply_instruction(s, circuit.SwapArms(1, 2)), 2),
    (lambda s: circuit.apply_instruction(s, circuit.SpinRotation(2, "y")), 1),
])
def test_each_element_step_is_one_kernel_call(monkeypatch, element, calls):
    # The benchmark's fock.kernel counters wrap this module attribute.
    seen = []
    kernel = fock.apply_single_particle_unitary

    def counting(state, modes, matrix):
        seen.append(len(modes))
        return kernel(state, modes, matrix)

    monkeypatch.setattr(fock, "apply_single_particle_unitary", counting)
    element(prepare_spin(prepare_spin(vacuum(2), 1, 1, 0), 2, 0.6, 0.8))
    assert seen == [2] * calls


TABLE_MATRICES = [m for _, m in fock.TWO_ARM_ELEMENTS.values()] + list(fock.ROTATIONS.values())


def test_table_matrices_are_read_only_and_checked_once(monkeypatch):
    for matrix in TABLE_MATRICES:
        assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        with pytest.raises(TypeError):
            matrix[0][0] = 2
    checked = []
    check = fock.check_unitary
    monkeypatch.setattr(fock, "check_unitary",
                        lambda matrix, dim: checked.append(dim) or check(matrix, dim))
    state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 0), 2, 0.6, 0.8)
    for keyword in fock.TWO_ARM_ELEMENTS:
        for modes, matrix in fock.two_arm_steps(keyword, 1, 2):
            apply_single_particle_unitary(state, modes, matrix)
    for matrix in fock.ROTATIONS.values():
        apply_single_particle_unitary(state, [(1, UP), (1, DOWN)], matrix)
    assert checked == []
    # equal matrices, not the table's: an array and a tuple
    apply_single_particle_unitary(state, [(1, UP), (1, DOWN)], np.array(fock.HADAMARD))
    apply_single_particle_unitary(state, [(1, UP), (1, DOWN)], tuple(map(tuple, fock.HADAMARD)))
    assert checked == [2, 2]


def test_every_table_matrix_is_unitary():
    for matrix in TABLE_MATRICES:
        fock.check_unitary(matrix, 2)  # raises ValueError on a non-unitary matrix


def entry_bits(entries):
    """The exact bits of a 2x2's entries, signed zeros included."""
    return [(z.real.hex(), z.imag.hex()) for row in entries for z in row]


def test_table_entries_are_the_kernel_entries_of_their_arrays():
    for matrix in TABLE_MATRICES:
        assert all(type(e) is complex for row in matrix for e in row)
        assert entry_bits(matrix) == entry_bits(fock._kernel_entries(np.array(matrix)))
    assert fock.PAULI_Y[0][1].real.hex() == "-0x0.0p+0"  # as the array of -1j holds it


def python_complex_only(state) -> bool:
    # np.complex128 subclasses complex, so isinstance would not tell them apart.
    return all(type(a) is complex for a in state.amplitudes.values())


def test_preparations_and_kernel_make_only_python_complex_amplitudes():
    rng = np.random.default_rng(7)
    state = prepare_spin(vacuum(4), 1, 0.6, 0.8j)
    assert python_complex_only(state)
    state = prepare_two_spin(state, 2, 3, np.array([[0.5, 0.5j], [0, -1]]))
    assert python_complex_only(state)
    assert python_complex_only(prepare_bell(vacuum(2), 0, 1, 2))
    state = prepare_spin(state, 4, 1, 1)
    for matrix in [*TABLE_MATRICES, random_unitary(rng, 2)]:
        assert python_complex_only(apply_single_particle_unitary(state, [(1, UP), (4, DOWN)], matrix))
    givens = apply_single_particle_unitary(state, [(1, UP), (2, DOWN), (4, UP)], random_unitary(rng, 3))
    assert python_complex_only(givens)


@pytest.mark.parametrize("index", range(len(TABLE_MATRICES)))
def test_table_tuples_give_the_same_amplitudes_as_an_array_copy(index):
    matrix = TABLE_MATRICES[index]
    copy = np.array(matrix)  # read through _kernel_entries
    rng = np.random.default_rng(index)
    for _ in range(4):
        dense = random_state(rng, 3).amplitudes
        keep = rng.random(len(dense)) < 0.5
        amplitudes = {k: a for (k, a), kept in zip(dense.items(), keep) if kept}
        for p in range(6):
            for q in range(6):
                if p == q:
                    continue
                out = fock._two_mode(amplitudes, p, q, matrix)
                expected = fock._two_mode(amplitudes, p, q, copy)
                assert list(out) == list(expected)
                assert [repr(a) for a in out.values()] == [repr(a) for a in expected.values()]


def kernel_cases(rng):
    """(state, modes, matrix) kernel calls: random states under table, Haar
    and Givens-path unitaries, and Hong-Ou-Mandel pairs whose coincidence
    term cancels exactly."""
    table = [fock.BEAM_SPLITTER_MATRIX, fock._SWAP2, *fock.ROTATIONS.values()]
    for trial in range(40):
        arms = int(rng.integers(1, 4))
        state = random_state(rng, arms, particles=int(rng.integers(0, 2 * arms + 1)))
        count = 2 if trial % 4 else int(rng.integers(1, min(4, 2 * arms) + 1))
        modes = [(p // 2 + 1, Spin(p % 2)) for p in rng.permutation(2 * arms)[:count].tolist()]
        matrix = table[trial % len(table)] if count == 2 and trial % 2 else random_unitary(rng, count)
        yield state, modes, matrix
    for k in range(4):
        # The splitter's down step after its up step on an entangled pair: for
        # pairs 0 and 1 two of the four keys cancel exactly.
        half = apply_single_particle_unitary(prepare_bell(vacuum(2), k, 1, 2),
                                             [(1, UP), (2, UP)], BEAM_SPLITTER_MATRIX)
        yield half, [(1, DOWN), (2, DOWN)], BEAM_SPLITTER_MATRIX
    yield random_state(rng, 2), [], np.zeros((0, 0))


def test_kernel_output_equals_the_always_pruned_reference_and_is_never_the_input():
    rng = np.random.default_rng(12)
    cancelled = 0
    for state, modes, matrix in kernel_cases(rng):
        out = apply_single_particle_unitary(state, modes, matrix)
        reference = always_pruned_unitary(state, modes, matrix)
        assert amplitude_bits(out) == amplitude_bits(reference), (modes, matrix)
        assert out.amplitudes is not state.amplitudes
        cancelled += len(out.amplitudes) < len(state.amplitudes)
    # The HOM pairs lost the keys that cancel: the prune path ran.
    assert cancelled >= 2


def test_a_step_keeps_a_small_hand_built_amplitude_on_a_key_it_leaves_alone():
    """A two-mode step checks only the amplitudes it computes: an input
    amplitude below PRUNE_THRESHOLD on a key with neither mode occupied
    (mode 1, between the step's modes 0 and 2) is kept, unless a computed
    amplitude falls below the threshold too; then the whole output is pruned."""
    modes = [(1, UP), (2, UP)]
    out = apply_single_particle_unitary(FockState(2, {0b0010: 1e-13 + 0j, 0b0001: 1 + 0j}),
                                        modes, BEAM_SPLITTER_MATRIX)
    assert list(out.amplitudes) == [0b0010, 0b0001, 0b0100]
    assert out.amplitudes[0b0010] == 1e-13
    # The electron on mode 2 cancels: key 0b0100 ends at 0, so 0b0010 is dropped with it.
    out = apply_single_particle_unitary(
        FockState(2, {0b0010: 1e-13 + 0j, 0b0001: 0.5 + 0j, 0b0100: 0.5 + 0j}),
        modes, BEAM_SPLITTER_MATRIX)
    assert list(out.amplitudes) == [0b0001]


def test_kernel_and_preparation_refuse_a_state_over_the_key_limit(monkeypatch):
    state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 1), 2, 1, 0)  # two keys
    monkeypatch.setattr(fock, "MAX_KEYS", 3)
    assert len(apply_instruction(state, PolarizingBeamSplitter(1, 2)).amplitudes) == 2
    with pytest.raises(FeqcError, match="a state of 4 keys exceeds the limit MAX_KEYS = 3"):
        apply_instruction(state, SpinRotation(2, "h"))
    with pytest.raises(FeqcError, match="a state of 4 keys exceeds the limit MAX_KEYS = 3"):
        prepare_spin(prepare_spin(vacuum(2), 1, 1, 1), 2, 1, 1)


@pytest.mark.parametrize("spinor", [(1, 0), (0, 1j)])
def test_an_electron_of_one_spin_keeps_the_key_count_at_the_limit(monkeypatch, spinor):
    state = prepare_spin(prepare_spin(vacuum(3), 1, 1, 1), 2, 1, -1)  # four keys
    expected = prepare_spin(state, 3, *spinor)
    monkeypatch.setattr(fock, "MAX_KEYS", 4)
    out = prepare_spin(state, 3, *spinor)
    assert list(out.amplitudes.items()) == list(expected.amplitudes.items())


def test_preparation_refuses_an_oversized_state_before_building_it(monkeypatch):
    state = prepare_spin(prepare_spin(vacuum(4), 1, 1, 1), 2, 1, -1)  # four keys
    monkeypatch.setattr(fock, "MAX_KEYS", 7)
    built = []
    monkeypatch.setattr(fock, "_append_mode", lambda *args: built.append(args))
    with pytest.raises(FeqcError, match="a state of 8 keys exceeds the limit MAX_KEYS = 7"):
        prepare_spin(state, 3, 0.6, 0.8)
    # A pair counts its nonzero amplitudes times the keys: two for the singlet ...
    with pytest.raises(FeqcError, match="a state of 8 keys exceeds the limit MAX_KEYS = 7"):
        prepare_bell(state, 0, 3, 4)
    # ... and four for a full coefficient matrix.
    with pytest.raises(FeqcError, match="a state of 16 keys exceeds the limit MAX_KEYS = 7"):
        prepare_two_spin(state, 3, 4, np.array([[1, 2], [3j, -4]]))
    assert built == []


@pytest.mark.parametrize("writeable", [True, False])
def test_spin_rotation_still_rejects_a_non_unitary_matrix(writeable):
    matrix = np.array([[1, 1], [0, 1]], dtype=complex)
    matrix.setflags(write=writeable)
    with pytest.raises(ValueError, match="not unitary"):
        apply_single_particle_unitary(prepare_spin(vacuum(1), 1, 1, 0), [(1, UP), (1, DOWN)],
                                      matrix)


def test_beam_splitter_bunches_singlet():
    out = apply_instruction(prepare_bell(vacuum(2), 0, 1, 2), BeamSplitter(1, 2))
    for key in out.amplitudes:
        assert arm_charge(key, 1) in (0, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beam_splitter_flips_triplet_sign(k):
    state = prepare_bell(vacuum(2), k, 1, 2)
    out = apply_instruction(state, BeamSplitter(1, 2))
    assert fidelity(state, out) == pytest.approx(1.0, abs=1e-12)
    assert inner_product(state, out) == pytest.approx(-1.0)
    for key in out.amplitudes:
        assert arm_charge(key, 1) == 1


def test_beam_splitter_splits_single_electron():
    out = apply_instruction(create(vacuum(2), (1, UP)), BeamSplitter(1, 2))
    assert abs(out.amplitudes[1 << 0]) == pytest.approx(1 / np.sqrt(2))
    assert abs(out.amplitudes[1 << 2]) == pytest.approx(1 / np.sqrt(2))


def test_pbs_bunches_opposite_spins():
    state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 0), 2, 0, 1)
    out = apply_instruction(state, PolarizingBeamSplitter(1, 2))
    (key,) = out.amplitudes
    assert arm_charge(key, 1) == 2 and arm_charge(key, 2) == 0


def test_pbs_keeps_aligned_spins():
    state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 0), 2, 1, 0)
    out = apply_instruction(state, PolarizingBeamSplitter(1, 2))
    assert fidelity(state, out) == pytest.approx(1.0)


def test_pbs_twice_is_identity():
    rng = np.random.default_rng(6)
    state = random_state(rng, 2)
    pbs = PolarizingBeamSplitter(1, 2)
    out = apply_instruction(apply_instruction(state, pbs), pbs)
    assert inner_product(state, out) == pytest.approx(1.0)


def test_swap_moves_arm_contents():
    state = prepare_spin(vacuum(2), 1, 0.6, 0.8)
    out = apply_instruction(state, SwapArms(1, 2))
    expected = prepare_spin(vacuum(2), 2, 0.6, 0.8)
    assert fidelity(out, expected) == pytest.approx(1.0)


def test_sigma_z_turns_plus_pair_into_singlet():
    state = prepare_bell(vacuum(2), 1, 1, 2)
    out = apply_instruction(state, SpinRotation(2, "z"))
    singlet = prepare_bell(vacuum(2), 0, 1, 2)
    assert inner_product(singlet, out) == pytest.approx(-1.0)


def test_sigma_x_sigma_z_turns_aligned_pair_into_singlet():
    state = prepare_bell(vacuum(2), 2, 1, 2)
    out = apply_instruction(apply_instruction(state, SpinRotation(2, "z")), SpinRotation(2, "x"))
    singlet = prepare_bell(vacuum(2), 0, 1, 2)
    assert inner_product(singlet, out) == pytest.approx(1.0)


def test_hadamard_squares_to_identity():
    rng = np.random.default_rng(7)
    state = random_state(rng, 1)
    out = apply_instruction(apply_instruction(state, SpinRotation(1, "h")), SpinRotation(1, "h"))
    assert inner_product(state, out) == pytest.approx(1.0)


def test_fidelity_properties():
    rng = np.random.default_rng(8)
    state = random_state(rng, 2)
    assert fidelity(state, state) == pytest.approx(1.0)
    assert fidelity(prepare_bell(vacuum(2), 0, 1, 2), prepare_bell(vacuum(2), 1, 1, 2)) == pytest.approx(0.0, abs=1e-12)
    phased = FockState(2, {k: np.exp(0.7j) * a for k, a in state.amplitudes.items()})
    assert fidelity(state, phased) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(vacuum(1), vacuum(2))


def test_norm_and_particle_number_preserved_by_random_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = random_state(rng, 3)
        modes = [(1, UP), (2, UP), (2, DOWN), (3, DOWN)]
        out = apply_single_particle_unitary(state, modes, random_unitary(rng, 4))
        assert abs(out.norm() - 1.0) <= 1e-9
        before = {k: bin(k).count("1") for k in state.amplitudes}
        assert {bin(k).count("1") for k in out.amplitudes} <= set(before.values())


def test_unitary_composition():
    rng = np.random.default_rng(10)
    modes = [(1, UP), (1, DOWN), (2, UP)]
    for _ in range(5):
        state = random_state(rng, 2)
        u = random_unitary(rng, 3)
        v = random_unitary(rng, 3)
        two_step = apply_single_particle_unitary(
            apply_single_particle_unitary(state, modes, u), modes, v
        )
        one_step = apply_single_particle_unitary(state, modes, v @ u)
        for key in set(two_step.amplitudes) | set(one_step.amplitudes):
            assert two_step.amplitudes.get(key, 0j) == pytest.approx(
                one_step.amplitudes.get(key, 0j), abs=1e-9
            )


def test_engine_matches_dense_exponential_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        state = random_state(rng, 2)
        modes = [(1, UP), (1, DOWN), (2, UP), (2, DOWN)]
        u = random_unitary(rng, 4)
        engine = apply_single_particle_unitary(state, modes, u)
        oracle_vec = dense_bilinear_unitary(2, modes, u) @ dense_vector(state)
        assert np.allclose(dense_vector(engine), oracle_vec, atol=1e-9)


def test_beam_splitter_matches_dense_oracle_on_two_particle_sector():
    rng = np.random.default_rng(12)
    modes = [(1, UP), (2, UP)]
    oracle_up = dense_bilinear_unitary(2, modes, BEAM_SPLITTER_MATRIX)
    oracle_down = dense_bilinear_unitary(2, [(1, DOWN), (2, DOWN)], BEAM_SPLITTER_MATRIX)
    for _ in range(4):
        state = random_state(rng, 2, particles=2)
        engine = apply_instruction(state, BeamSplitter(1, 2))
        oracle_vec = oracle_down @ oracle_up @ dense_vector(state)
        assert np.allclose(dense_vector(engine), oracle_vec, atol=1e-9)


def test_prepare_two_spin_matches_componentwise_construction():
    rng = np.random.default_rng(13)
    coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = prepare_two_spin(vacuum(2), 1, 2, coeffs)
    flat = np.zeros(16, dtype=complex)
    for sa in (0, 1):
        for sb in (0, 1):
            key = (1 << sa) | (1 << (2 + sb))
            flat[key] = coeffs[sa, sb]
    flat /= np.linalg.norm(flat)
    assert np.allclose(dense_vector(state), flat, atol=1e-12)


@pytest.mark.parametrize("coeffs, message", [
    (np.array([[np.nan, 0], [0, 1]]), "coeffs must be finite"),
    (np.array([[np.inf, 0], [0, 1]]), "coeffs must be finite"),
    (((0, complex(0, -np.inf)), (1, 0)), "coeffs must be finite"),
    (np.zeros((2, 2)), "coeffs must be nonzero"),
    (np.ones(4), "coeffs must be a 2x2 array"),
    ([[1, 0], [0, 1], [0, 0]], "coeffs must be a 2x2 array"),
])
def test_prepare_two_spin_refuses_non_finite_zero_and_misshapen_coefficients(coeffs, message):
    # A NaN or infinite coefficient used to give an empty state.
    with pytest.raises(ValueError, match=message):
        prepare_two_spin(vacuum(2), 1, 2, coeffs)
