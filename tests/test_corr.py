"""Correlation-matrix backend against the exact Fock oracle."""

from __future__ import annotations

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from feqc import cli, corr, fock, measurement
from feqc.circuit import (
    BeamSplitter,
    Circuit,
    Measure,
    PolarizingBeamSplitter,
    PrepBell,
    PrepSpin,
    SpinRotation,
    SwapArms,
    apply_instruction,
)
from feqc.corr import (
    add_electron,
    enumerate_charge_branches,
    evolve,
    init_from_occupations,
    project_occupation,
    single_occupancy_probability,
    single_occupancy_terms,
)
from feqc.errors import FeqcError, NonGaussianOperationError, PreconditionError
from feqc.fock import BEAM_SPLITTER_MATRIX, Spin, prepare_bell, prepare_spin, vacuum
from feqc.parser import parse
from helpers import (charge1_probability, dense_two_point, dense_vector, from_dense,
                     merged_probabilities, mode_branches, mode_occupation, principal_minor,
                     random_spinor, random_unitary)

UP, DOWN = Spin.UP, Spin.DOWN
DATA = Path(__file__).parent / "data"


def test_init_examples():
    assert np.allclose(init_from_occupations([], 2).matrix, np.zeros((4, 4)))
    single = init_from_occupations([(1, UP)], 2).matrix
    assert single[0, 0] == 1 and np.count_nonzero(single) == 1
    full = init_from_occupations([(a, s) for a in (1, 2) for s in (UP, DOWN)], 2)
    assert np.allclose(full.matrix, np.eye(4))


def test_add_electron_requires_empty_arm():
    M = add_electron(init_from_occupations([], 1), 1, 1, 1)
    with pytest.raises(PreconditionError):
        add_electron(M, 1, 1, 0)


def test_evolve_identity_and_composition():
    rng = np.random.default_rng(41)
    M = add_electron(init_from_occupations([], 2), 1, 0.6, 0.8)
    out = evolve(M, [(1, UP), (2, UP)], np.eye(2))
    assert np.allclose(out.matrix, M.matrix)
    u = random_unitary(rng, 2)
    v = random_unitary(rng, 2)
    modes = [(1, DOWN), (2, UP)]
    two_step = evolve(evolve(M, modes, u), modes, v)
    one_step = evolve(M, modes, v @ u)
    assert np.allclose(two_step.matrix, one_step.matrix, atol=1e-12)


def test_evolve_splitter_entries():
    M = init_from_occupations([(1, UP)], 2)
    out = evolve(M, [(1, UP), (2, UP)], BEAM_SPLITTER_MATRIX)
    assert out.matrix[0, 0].real == pytest.approx(0.5)
    assert out.matrix[2, 2].real == pytest.approx(0.5)
    assert abs(out.matrix[0, 2]) == pytest.approx(0.5)


def test_evolve_diagonals_match_fock_expectations():
    """Binding index convention: diagonals equal the Fock <n> after the same
    one-particle unitary."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = prepare_spin(vacuum(2), 1, alpha, beta)
        M = add_electron(init_from_occupations([], 2), 1, alpha, beta)
        modes = [(1, UP), (1, DOWN), (2, UP), (2, DOWN)]
        u = random_unitary(rng, 4)
        state = fock.apply_single_particle_unitary(state, modes, u)
        M = evolve(M, modes, u)
        for mode in modes:
            expected = sum(
                abs(a) ** 2
                for k, a in state.amplitudes.items()
                if k >> fock.mode_position(mode, 2) & 1
            )
            assert mode_occupation(M, mode) == pytest.approx(expected, abs=1e-9)


def test_evolve_rejects_non_unitary():
    M = init_from_occupations([], 1)
    with pytest.raises(ValueError):
        evolve(M, [(1, UP), (1, DOWN)], np.array([[1, 1], [0, 1]]))


def test_evolve_checks_every_matrix_but_the_element_table(monkeypatch):
    checked = []
    check = fock.check_unitary
    monkeypatch.setattr(fock, "check_unitary",
                        lambda matrix, dim: checked.append(dim) or check(matrix, dim))
    M = add_electron(add_electron(init_from_occupations([], 2), 1, 1, 0), 2, 0.6, 0.8)
    steps = [step for keyword in fock.TWO_ARM_ELEMENTS for step in fock.two_arm_steps(keyword, 1, 2)]
    steps += [step for matrix in fock.ROTATIONS.values() for step in fock.rotation_steps(1, matrix)]
    for modes, matrix in steps:
        evolve(M, modes, matrix)
    assert checked == []
    evolve(M, [(1, UP), (1, DOWN)], np.array(fock.HADAMARD))  # an equal matrix, not the table's
    assert checked == [2]
    with pytest.raises(ValueError, match="not unitary"):
        evolve(M, [(1, UP), (1, DOWN)], np.array([[1, 1], [0, 1]], dtype=complex))
    assert checked == [2, 2]


@pytest.mark.parametrize("count", [1, 2, 7, 40])
def test_a_stacked_conjugation_gives_each_matrix_the_bits_of_evolve(count):
    """The walk conjugates a stack of branches at once by the element
    table's matrices: every matrix gets the bits evolve gives it alone, on
    modes of one arm or two, in either order, in stacks of any size."""
    rng = np.random.default_rng(count)
    steps = [step for keyword in fock.TWO_ARM_ELEMENTS for arms in ((4, 2), (1, 5))
             for step in fock.two_arm_steps(keyword, *arms)]
    steps += [step for matrix in fock.ROTATIONS.values() for step in fock.rotation_steps(3, matrix)]
    steps += [(modes[::-1], matrix) for modes, matrix in steps]
    for modes, matrix in steps:
        z = rng.normal(size=(10, 10, count)) + 1j * rng.normal(size=(10, 10, count))
        stack = z + z.conj().transpose(1, 0, 2)
        alone = [evolve(corr.CorrelationMatrix(5, stack[..., b].copy()), modes, matrix).matrix
                 for b in range(count)]
        corr._conjugate(stack, [fock.mode_position(mode, 5) for mode in modes], matrix)
        assert np.array_equal(stack.view(float), np.stack(alone, -1).view(float))


def test_project_definite_occupancy_is_identity():
    M = init_from_occupations([(1, UP)], 1)
    prob, out = project_occupation(M, (1, UP), 1)
    assert prob == pytest.approx(1.0)
    assert np.allclose(out.matrix, M.matrix)


def test_project_split_electron():
    M = add_electron(init_from_occupations([], 2), 1, 1, 0)
    M = evolve(M, [(1, UP), (2, UP)], BEAM_SPLITTER_MATRIX)
    prob, kept = project_occupation(M, (1, UP), 1)
    assert prob == pytest.approx(0.5)
    assert mode_occupation(kept, (1, UP)) == pytest.approx(1.0)
    assert mode_occupation(kept, (2, UP)) == pytest.approx(0.0, abs=1e-12)
    prob, emptied = project_occupation(M, (1, UP), 0)
    assert prob == pytest.approx(0.5)
    assert mode_occupation(emptied, (2, UP)) == pytest.approx(1.0)


def test_project_rejects_impossible_outcome():
    M = init_from_occupations([(1, UP)], 1)
    with pytest.raises(ValueError):
        project_occupation(M, (1, UP), 0)


def _random_gaussian_pair(rng, num_arms=3, electrons=2, elements=6):
    """Matched (FockState, CorrelationMatrix) evolved through the same random
    bilinear elements."""
    state = vacuum(num_arms)
    M = init_from_occupations([], num_arms)
    arms = rng.permutation(np.arange(1, num_arms + 1))[:electrons]
    for arm in arms:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = prepare_spin(state, int(arm), v[0], v[1])
        M = add_electron(M, int(arm), v[0], v[1])
    all_modes = [(a, s) for a in range(1, num_arms + 1) for s in (UP, DOWN)]
    for _ in range(elements):
        size = int(rng.integers(2, min(4, 2 * num_arms + 1)))  # one arm has two modes
        chosen = [all_modes[i] for i in rng.choice(len(all_modes), size=size, replace=False)]
        u = random_unitary(rng, size)
        state = fock.apply_single_particle_unitary(state, chosen, u)
        M = evolve(M, chosen, u)
    return state, M


def test_projection_update_matches_oracle_two_point_functions():
    """The conditional-state closed form is pinned by the Fock oracle: every
    entry of the post-measurement correlation matrix must match."""
    rng = np.random.default_rng(43)
    for _ in range(8):
        state, M = _random_gaussian_pair(rng)
        mode = (int(rng.integers(1, 4)), Spin(int(rng.integers(0, 2))))
        for outcome, prob_fock, post in mode_branches(state, mode):
            prob_corr, M_post = project_occupation(M, mode, outcome)
            assert prob_corr == pytest.approx(prob_fock, abs=1e-9)
            oracle = dense_two_point(post)
            assert np.allclose(M_post.matrix, oracle, atol=1e-8)


def _oracle_arm_children(state, arm: int) -> list[tuple[int, int, float, fock.FockState]]:
    """(n_up, n_down, probability, post-state) of each outcome of an arm's
    spin-resolved charge readout above PROBABILITY_FLOOR, in (n_up, n_down)
    order: the dense vector projected on the outcome's keys and renormalized."""
    up = 2 * (arm - 1)
    vec = dense_vector(state)
    keys = np.arange(len(vec))
    children = []
    for n_up in (0, 1):
        for n_down in (0, 1):
            part = np.where((keys >> up & 1 == n_up) & (keys >> (up + 1) & 1 == n_down), vec, 0)
            p = float(np.vdot(part, part).real)
            if p > corr.PROBABILITY_FLOOR:
                children.append((n_up, n_down, p, from_dense(part / np.sqrt(p), state.num_arms, 0)))
    return children


def _assert_readout_matches_oracle(states, matrices, arm: int, tol=1e-12):
    """corr._charge_readout of arm ``arm`` on the stacked matrices, in both
    forms, against the dense oracle's children of the matched Fock states:
    the same children in (parent, n_up, n_down) order, and each child's
    probability and conditioned matrix within ``tol``.  The keep form reads
    the arm in place and keeps it as diag(n_up, n_down); the drop form reads
    it at the front of the stack and drops it."""
    num_arms = states[0].num_arms
    up = 2 * (arm - 1)
    order = [up, up + 1, *(p for p in range(2 * num_arms) if p not in (up, up + 1))]
    stack = np.stack(matrices, axis=2)
    kept = corr._charge_readout(stack, up, np.ones(len(states)), lambda n: None)
    dropped = corr._charge_readout(stack[order][:, order], 0, np.ones(len(states)),
                                   lambda n: None, drop=True)
    expected = [(b, n_up, n_down, p, dense_two_point(post)) for b, state in enumerate(states)
                for n_up, n_down, p, post in _oracle_arm_children(state, arm)]
    for (parents, charges, probs, post), oracles in (
            (kept, [oracle for *_, oracle in expected]),
            (dropped, [oracle[order][:, order][2:, 2:] for *_, oracle in expected])):
        assert parents.tolist() == [b for b, *_ in expected]
        assert charges.tolist() == [n_up + n_down for _, n_up, n_down, *_ in expected]
        assert probs == pytest.approx([p for *_, p, _ in expected], rel=0, abs=tol)
        for k, oracle in enumerate(oracles):
            assert np.abs(post[..., k] - oracle).max(initial=0.0) <= tol  # 0 x 0 once one arm drops
    return kept


def test_charge_readout_matches_the_dense_oracle():
    """One arm readout of a stack of drawn Gaussian states (1-4 arms, 1-5
    entries) gives each (n_up, n_down) child of the projected and
    renormalized Fock state, its probability and matrix within 1e-12."""
    rng = np.random.default_rng(47)
    for _ in range(40):
        num_arms = int(rng.integers(1, 5))
        drawn = [_random_gaussian_pair(rng, num_arms, int(rng.integers(1, num_arms + 1)))
                 for _ in range(int(rng.integers(1, 6)))]
        _assert_readout_matches_oracle([state for state, _ in drawn], [M.matrix for _, M in drawn],
                                       int(rng.integers(1, num_arms + 1)))


def _split_electron(beta: float):
    """An electron of spinor (1, beta) on arm 1, split with arm 2 by a beam
    splitter, as a matched (FockState, CorrelationMatrix)."""
    state = apply_instruction(prepare_spin(vacuum(2), 1, 1, beta), BeamSplitter(1, 2))
    M = evolve(add_electron(init_from_occupations([], 2), 1, 1, beta), [(1, DOWN), (2, DOWN)],
               BEAM_SPLITTER_MATRIX)
    return state, evolve(M, [(1, UP), (2, UP)], BEAM_SPLITTER_MATRIX)


def test_charge_readout_keeps_a_child_just_above_the_probability_floor():
    # Arm 1 holds the down part with probability beta^2 / 2: 1.125e-12 is kept,
    # 5e-13 dropped; the oracle prunes at the same floor.
    drawn = [_split_electron(1.5e-6), _split_electron(1e-6), _split_electron(0.6)]
    parents, _, probs, _ = _assert_readout_matches_oracle(
        [state for state, _ in drawn], [M.matrix for _, M in drawn], 1)
    assert parents.tolist() == [0, 0, 0, 1, 1, 2, 2, 2]
    assert probs[1] == pytest.approx(1.125e-12, rel=1e-9)


def test_charge_readout_of_an_arm_read_twice():
    """The keep form leaves the arm definite: reading it again gives each
    child once, with probability 1 and its matrix unchanged, as the oracle's
    second projection does."""
    rng = np.random.default_rng(53)
    drawn = [_random_gaussian_pair(rng, 3, 2) for _ in range(3)]
    parents, _, _, once = _assert_readout_matches_oracle(
        [state for state, _ in drawn], [M.matrix for _, M in drawn], 2)
    children = [post for state, _ in drawn for *_, post in _oracle_arm_children(state, 2)]
    twice = _assert_readout_matches_oracle(children, list(once.transpose(2, 0, 1)), 2)
    assert twice[0].tolist() == list(range(len(children)))
    assert twice[2].tolist() == [1.0] * len(children)
    assert np.array_equal(twice[3], once)


def test_purity_preserved_by_evolution_and_projection():
    rng = np.random.default_rng(44)
    for _ in range(5):
        _, M = _random_gaussian_pair(rng)
        m = M.matrix
        assert np.linalg.norm(m @ m - m) <= 1e-8
        mode = (1, UP)
        occ = mode_occupation(M, mode)
        if 1e-6 < occ < 1 - 1e-6:
            _, post = project_occupation(M, mode, 1)
            pm = post.matrix
            assert np.linalg.norm(pm @ pm - pm) <= 1e-8
        corr._check_spectrum(M.matrix[..., None], np.ones(1))  # Hermitian, eigenvalues in [0, 1]


def test_trace_conserved_by_evolution():
    rng = np.random.default_rng(45)
    _, M = _random_gaussian_pair(rng)
    u = random_unitary(rng, 3)
    out = evolve(M, [(1, UP), (2, DOWN), (3, UP)], u)
    assert np.trace(out.matrix).real == pytest.approx(np.trace(M.matrix).real, abs=1e-12)


def test_principal_minor_examples():
    M = add_electron(init_from_occupations([], 2), 1, 1, 0)
    assert principal_minor(M, [(1, UP)]) == pytest.approx(1.0)
    diag = init_from_occupations([(1, UP), (2, DOWN)], 2)
    assert principal_minor(diag, [(1, UP), (2, DOWN)]) == pytest.approx(1.0)
    assert principal_minor(diag, [(1, UP), (2, UP)]) == pytest.approx(0.0)


def test_principal_minor_matches_fock_double_occupancy():
    # bunched-singlet statistics: both modes of one arm occupied half the time
    state = apply_instruction(prepare_bell(vacuum(2), 0, 1, 2), BeamSplitter(1, 2))
    p_both = sum(
        abs(a) ** 2
        for k, a in state.amplitudes.items()
        if k & 0b0011 == 0b0011
    )
    assert p_both == pytest.approx(0.5)
    # the bunched pair state itself is not Gaussian; the Gaussian analogue is
    # two opposite spins routed into one arm, which is doubly occupied for sure
    M = add_electron(add_electron(init_from_occupations([], 2), 1, 1, 0), 2, 0, 1)
    M = evolve(M, [(1, DOWN), (2, DOWN)], np.array([[0, 1], [1, 0]], dtype=complex))
    assert principal_minor(M, [(1, UP), (1, DOWN)]) == pytest.approx(1.0)


def test_principal_minors_match_oracle_on_gaussian_states():
    rng = np.random.default_rng(46)
    for _ in range(5):
        state, M = _random_gaussian_pair(rng)
        modes = [(1, UP), (2, DOWN)]
        positions = [fock.mode_position(m, 3) for m in modes]
        expected = sum(
            abs(a) ** 2
            for k, a in state.amplitudes.items()
            if all(k >> p & 1 for p in positions)
        )
        assert principal_minor(M, modes) == pytest.approx(expected, abs=1e-9)


def test_single_occupancy_monomial_count_is_three_to_the_m():
    for m in (1, 2, 3):
        M = init_from_occupations([], 4)
        assert len(single_occupancy_terms(M, range(1, m + 1))) == 3 ** m


def test_single_occupancy_examples():
    M = add_electron(init_from_occupations([], 1), 1, 1, 0)
    assert single_occupancy_probability(M, [1]) == pytest.approx(1.0)
    # two opposite-spin electrons routed into the same arm: never singly occupied
    M = add_electron(add_electron(init_from_occupations([], 2), 1, 1, 0), 2, 0, 1)
    bunched = evolve(M, [(1, DOWN), (2, DOWN)], np.array([[0, 1], [1, 0]], dtype=complex))
    assert single_occupancy_probability(bunched, [1]) == pytest.approx(0.0, abs=1e-12)
    # and kept apart they are: one per arm with certainty
    assert single_occupancy_probability(M, [1, 2]) == pytest.approx(1.0)


def test_single_occupancy_matches_charge1_expectation():
    rng = np.random.default_rng(47)
    for _ in range(10):
        state, M = _random_gaussian_pair(rng)
        arm = int(rng.integers(1, 4))
        assert single_occupancy_probability(M, [arm]) == pytest.approx(
            charge1_probability(state, arm), abs=1e-9
        )


def test_single_occupancy_joint_matches_fock():
    rng = np.random.default_rng(48)
    for _ in range(10):
        state, M = _random_gaussian_pair(rng, electrons=3, elements=8)
        for arms in ([1], [1, 2], [1, 2, 3]):
            expected = sum(
                abs(a) ** 2
                for k, a in state.amplitudes.items()
                if all(fock.arm_charge(k, arm) == 1 for arm in arms)
            )
            assert single_occupancy_probability(M, arms) == pytest.approx(expected, abs=1e-9)


def test_dual_backend_equivalence_on_random_circuits():
    """Identical joint probabilities and post-measurement diagonals for random
    bilinear circuits with sequential mode-occupation readouts."""
    rng = np.random.default_rng(49)
    for _ in range(20):
        num_arms = int(rng.integers(2, 5))
        electrons = int(rng.integers(1, min(num_arms, 4) + 1))
        state, M = _random_gaussian_pair(rng, num_arms=num_arms, electrons=electrons,
                                         elements=int(rng.integers(3, 11)))
        for _ in range(3):
            mode = (int(rng.integers(1, num_arms + 1)), Spin(int(rng.integers(0, 2))))
            fock_branches = {o: (p, post) for o, p, post in mode_branches(state, mode)}
            outcomes = sorted(fock_branches)
            weights = [fock_branches[o][0] for o in outcomes]
            pick = outcomes[int(rng.choice(len(outcomes), p=np.array(weights) / sum(weights)))]
            prob_fock, state = fock_branches[pick][0], fock_branches[pick][1]
            prob_corr, M = project_occupation(M, mode, pick)
            assert prob_corr == pytest.approx(prob_fock, abs=1e-9)
            for arm in range(1, num_arms + 1):
                for spin in (UP, DOWN):
                    expected = sum(
                        abs(a) ** 2
                        for k, a in state.amplitudes.items()
                        if k >> fock.mode_position((arm, spin), num_arms) & 1
                    )
                    assert mode_occupation(M, (arm, spin)) == pytest.approx(
                        expected, abs=1e-9
                    )


def test_backend_rejects_non_gaussian_circuits():
    with pytest.raises(NonGaussianOperationError):
        enumerate_charge_branches(Circuit(2, [PrepBell(0, 1, 2), Measure("q", "charge", 1)]))
    with pytest.raises(NonGaussianOperationError):
        enumerate_charge_branches(
            Circuit(2, [PrepSpin(1, 1, 0), PrepSpin(2, 1, 1), Measure("p", "parity", 1)])
        )
    with pytest.raises(NonGaussianOperationError):
        enumerate_charge_branches(Circuit(1, [PrepSpin(1, 1, 0), Measure("z", "spin", 1)]))


READ_ARM_1 = "arms 3\nelectron 1 plus\nelectron 2 up\nbs 1 2\nq = charge 1\n"


@pytest.mark.parametrize("element", ["rot 1 h", "if q == 1 : rot 1 x", "pbs 2 1", "swap 1 3"])
def test_backend_refuses_elements_on_an_arm_after_its_charge_readout(element):
    circuit = parse(READ_ARM_1 + element + "\nr = charge 2\n").circuit
    with pytest.raises(NonGaussianOperationError, match="arm 1 after charge measurement 'q'"):
        enumerate_charge_branches(circuit)


def test_backend_allows_later_readouts_and_elements_on_other_arms():
    from feqc.measurement import enumerate_branches

    source = READ_ARM_1 + "if q == 1 : rot 2 h\nbs 2 3\nr = charge 1\ns = charge 2\n"
    circuit = parse(source).circuit
    records, _ = enumerate_charge_branches(circuit)
    assert all(rec.outcomes["r"] == rec.outcomes["q"] for rec in records)
    fock_probs = merged_probabilities(enumerate_branches(circuit, vacuum(3)))
    corr_probs = merged_probabilities(records)
    assert corr_probs.keys() == fock_probs.keys()
    for key, p in fock_probs.items():
        assert corr_probs[key] == pytest.approx(p, abs=1e-12)


def test_charge_readout_reports_probability_drift(monkeypatch):
    circuit = parse("arms 1\nelectron 1 up\nq = charge 1\n").circuit
    records, _ = enumerate_charge_branches(circuit)
    assert [(rec.outcomes, rec.probability) for rec in records] == [({"q": 1}, 1.0)]
    exact = corr.occupation_probabilities
    monkeypatch.setattr(corr, "occupation_probabilities",
                        lambda stack, pos: [1.01 * q for q in exact(stack, pos)])
    with pytest.raises(FeqcError, match="sum to 1.01"):
        enumerate_charge_branches(circuit)


def test_terminal_block_reports_drift_in_a_later_parent(monkeypatch):
    # The split electron gives the last readout two parents; only the second drifts.
    circuit = parse("arms 3\nelectron 1 plus\nelectron 3 up\n"
                    "q1 = charge 1\nq2 = charge 2\nq3 = charge 3\n").circuit
    records, _ = enumerate_charge_branches(circuit)
    assert [rec.probability for rec in records] == pytest.approx([0.5, 0.5])
    exact = corr.occupation_probabilities
    monkeypatch.setattr(corr, "occupation_probabilities",
                        lambda stack, pos: [q * (1.01 if b else 1.0)
                                            for b, q in enumerate(exact(stack, pos))])
    with pytest.raises(FeqcError, match="sum to 1.01"):
        enumerate_charge_branches(circuit)


TWO_ARM_SPLIT = "arms 2\nelectron 1 (1,0) (0,0)\nbs 1 2\n"


@pytest.mark.parametrize("readouts", ["q = charge 1\nr = charge 2\n",  # the terminal block
                                      "q = charge 1\nrot 2 h\nr = charge 2\n"])  # one at a time
@pytest.mark.parametrize("factor, number", [(1.5, "2.249999999999999"),
                                            (0.5, "0.24999999999999994")])
def test_a_run_refuses_a_matrix_whose_particle_number_drifted(tmp_path, capsys, monkeypatch,
                                                             readouts, factor, number):
    """A kernel that scales M changes its trace, the particle number, which
    must equal the electrons added: the run stops with one error line instead
    of reporting branches that lost or gained an electron."""
    src = tmp_path / "split.feqc"
    src.write_text(TWO_ARM_SPLIT + readouts)
    assert cli.main(["run", str(src), "--backend", "corr"]) == 0
    capsys.readouterr()
    exact = corr._conjugate

    def scaled(stack, positions, matrix):
        exact(stack, positions, matrix)
        stack *= factor

    monkeypatch.setattr(corr, "_conjugate", scaled)
    assert cli.main(["run", str(src), "--backend", "corr"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: correlation matrix drifted: particle number {number} "
                                f"where 1 electrons were added "
                                f"(drift {float(number) - 1!r})"]


@pytest.mark.parametrize("readouts", ["q = charge 1\nr = charge 2\n",  # the terminal block
                                      "q = charge 1\nrot 2 h\nr = charge 2\n"])  # one at a time
@pytest.mark.parametrize("delta, line", [
    (1e-3, "error: correlation matrix drifted: occupation -0.0015 outside [0, 1] (drift -0.0015)"),
    (1e-8, "error: correlation matrix drifted: occupation -1.5e-08 outside [0, 1] (drift -1.5e-08)"),
    (1e-12, None),  # inside EIGENVALUE_SLACK: clipped
])
def test_a_run_refuses_an_occupation_outside_the_unit_interval(tmp_path, capsys, monkeypatch,
                                                                readouts, delta, line):
    """A kernel that adds the traceless diag(delta, -delta) on arm 1 keeps the
    particle number but drives the down mode's occupation below 0."""
    src = tmp_path / "split.feqc"
    src.write_text(TWO_ARM_SPLIT + readouts)
    exact = corr._conjugate

    def drifting(stack, positions, matrix):
        exact(stack, positions, matrix)
        stack[0, 0] += delta
        stack[1, 1] -= delta

    monkeypatch.setattr(corr, "_conjugate", drifting)
    assert cli.main(["run", str(src), "--backend", "corr"]) == (0 if line is None else 1)
    out, err = capsys.readouterr()
    assert err.splitlines() == ([] if line is None else [line])
    assert (out == "") == (line is not None)


@pytest.mark.parametrize("entries, message", [
    # Hermitian, trace and diagonal kept: M's eigenvalues become 0.999 and 1.001.
    ([(0, 2), (2, 0)], r"eigenvalue (\S+) outside \[0, 1\] \(drift \S+\)"),
    ([(0, 2)], r"not Hermitian \(\|M - M\^dag\| reaches (\S+)\)"),
], ids=["hermitian", "non-hermitian"])
def test_a_run_refuses_a_block_whose_spectrum_drifted(tmp_path, capsys, monkeypatch, entries,
                                                      message):
    """A kernel that adds 1e-3 off the diagonal between the two read up modes
    keeps every occupation in [0, 1] and the particle number: the terminal
    block's spectrum check refuses the run with one error line."""
    src = tmp_path / "ups.feqc"
    src.write_text("arms 2\nelectron 1 up\nelectron 2 up\nrot 1 z\nq1 = charge 1\nq2 = charge 2\n")
    exact = corr._conjugate

    def drifting(stack, positions, matrix):
        exact(stack, positions, matrix)
        for entry in entries:
            stack[entry] += 1e-3

    monkeypatch.setattr(corr, "_conjugate", drifting)
    assert cli.main(["run", str(src), "--backend", "corr"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    found = re.fullmatch("error: correlation matrix drifted: " + message, line)
    assert found, line
    assert float(found.group(1)) == pytest.approx(1.001 if len(entries) == 2 else 1e-3, abs=1e-12)


def test_occupations_are_clipped_only_inside_the_weighted_slack():
    # Two matrices on the last axis; only the second one's mode 2 leaves the slack.
    stack = np.stack([np.diag([1 + 1e-10, -1e-10, 0.5]), np.diag([0.25, 0.5, 1 + 2e-9])],
                     axis=2).astype(complex)
    assert corr.occupation_probabilities(stack, 0).tolist() == [1.0, 0.25]
    assert corr.occupation_probabilities(stack, 1).tolist() == [0.0, 0.5]
    assert corr.occupation_probabilities(stack, 2).tolist() == [0.5, 1.0]
    corr._check_unit("occupation", stack[[0, 1], [0, 1]].real, np.ones(2))
    with pytest.raises(FeqcError, match=r"occupation 1.000000002 outside \[0, 1\] \(drift "):
        corr._check_unit("occupation", stack[[1, 2], [1, 2]].real, np.ones(2))
    # On a branch of probability 0.1 the drift of 2e-9 weighs 2e-10.
    corr._check_unit("occupation", stack[[1, 2], [1, 2]].real, np.array([1.0, 0.1]))


# Electrons whose readouts have a kept branch of probability 1e-8 to 4e-12:
# conditioning on it divides by that probability, and so does its rounding.
@pytest.mark.parametrize("source", [
    "arms 1\nelectron 1 (1,0) (2e-6,0)\nq = charge 1\n",
    "arms 1\nelectron 1 (1,0) (1e-4,0)\nq = charge 1\n",
    "arms 2\nelectron 1 (1,0) (2e-6,0)\nq = charge 1\nrot 2 h\nr = charge 2\n",
    "arms 2\nelectron 1 (1,0) (1e-4,0)\nq = charge 1\nrot 2 h\nr = charge 2\n",
    "arms 2\nelectron 1 (2e-6,0) (1,0)\nelectron 2 (1,0) (3e-6,0)\nbs 1 2\n"
    "q1 = charge 1\nq2 = charge 2\n",
    "arms 2\nelectron 1 (1,0) (2e-6,0)\nelectron 2 (1,0) (1e-4,0)\nbs 1 2\n"
    "q1 = charge 1\nrot 2 h\nq2 = charge 2\n",
])
def test_low_probability_branches_are_read_as_fock_reads_them(source):
    """A branch's rounding drift is weighed by its probability: a valid
    circuit with a branch of probability 1e-8 or less runs on corr, in the
    terminal block and at a mid-circuit readout, and agrees with fock."""
    circuit = parse(source).circuit
    records, _ = enumerate_charge_branches(circuit)
    corr_probs = merged_probabilities(records)
    fock_probs = merged_probabilities(measurement.enumerate_branches(
        circuit, vacuum(circuit.arm_count)))
    for key in corr_probs.keys() | fock_probs.keys():
        assert corr_probs.get(key, 0.0) == pytest.approx(fock_probs.get(key, 0.0), abs=1e-12)


@pytest.mark.parametrize("diagonal, total", [((1.5, 0.0), "1.5"), ((1 + 2e-9, 0.0), "1.000000002")])
def test_joint_query_refuses_a_total_above_one(diagonal, total):
    M = corr.CorrelationMatrix(1, np.diag(diagonal).astype(complex))
    with pytest.raises(FeqcError, match=rf"joint charge-1 probability {total} outside \[0, 1\]"):
        single_occupancy_probability(M, [1])
    inside = corr.CorrelationMatrix(1, np.diag([1 + 1e-10, 0.0]).astype(complex))
    assert single_occupancy_probability(inside, [1]) == 1.0


def test_corr_walks_the_circuits_own_light_cone(monkeypatch):
    circuit = parse("arms 8\nelectron 2 plus\nelectron 7 up\nbs 2 5\nrot 7 h\nswap 3 4\n"
                    "electron 4 down\nq = charge 5\nif q == 1 : rot 2 x\nbs 7 8\n"
                    "r = charge 2\n").circuit
    cones, stacks = [], []
    cone, readout = corr.light_cone, corr._charge_readout
    monkeypatch.setattr(corr, "light_cone", lambda ins: cones.append(cone(ins)) or cones[-1])
    monkeypatch.setattr(corr, "_charge_readout",
                        lambda stack, *args: stacks.append(stack.shape) or readout(stack, *args))
    corr.charge_branch_tree(circuit)
    # Arm 7's electron and elements, and arm 3's swap, act outside the cone;
    # arm 4's electron lands on an arm the swap touched, so it is a read of arm 4.
    expected = parse("arms 8\nelectron 2 plus\nbs 2 5\nswap 3 4\nelectron 4 down\n"
                     "q = charge 5\nif q == 1 : rot 2 x\nr = charge 2\n").circuit
    assert cones == [list(expected.instructions)]
    assert [shape[:2] for shape in stacks] == [(8, 8), (2, 2)]  # arms 2, 3, 4 and 5; then arm 2


def test_a_readout_before_an_element_outside_its_cone_is_spin_resolved():
    """rot 2 x follows the readout of arm 7, outside its cone, so the
    readout is not a trailing one: it still gives its spin-resolved
    children, (n_up, n_down) = (0, 0), (0, 1) and (1, 0), with their charges,
    and no leaf keeps a post-state."""
    circuit = parse("arms 8\nelectron 5 plus\nbs 5 7\nq = charge 7\nrot 2 x\n").circuit
    records, _ = enumerate_charge_branches(circuit)
    assert [rec.outcomes["q"] for rec in records] == [0, 1, 1]
    assert [rec.probability for rec in records] == pytest.approx([0.5, 0.25, 0.25], abs=1e-15)
    assert all(rec.post_state is None for rec in records)


def test_light_cone_names_the_trees_leaves_as_the_full_circuit_does(monkeypatch):
    """An element outside the cone between readouts (rot 7 x) leaves the
    readouts before it out of the trailing run, as in the full circuit, so a
    refused tree names the leaf count the full circuit names: the live
    branches after the readout that outgrew the budget, 144 after t5 of 216
    in all.  Each leaf is charged the matrix its walk holds: the cone's 6
    arms, or all 7 when the walk runs the full circuit."""
    circuit = parse("arms 7\n" + "".join(f"electron {a} (0.6,0) (0,0.8)\n" for a in range(1, 7))
                    + "".join(f"bs {a} {a + 1}\nrot {a} h\nbs {a} {a + 1}\n" for a in (1, 3, 5))
                    + "m1 = charge 1\nm2 = charge 2\nrot 7 x\n"
                    + "".join(f"t{a} = charge {a}\n" for a in range(3, 7))).circuit
    assert len(enumerate_charge_branches(circuit)[0]) == 216
    for arms in (6, 7):
        if arms == 7:
            monkeypatch.setattr(corr, "light_cone", list)
        leaf_bytes = 16 * (2 * arms) ** 2
        monkeypatch.setattr(corr, "MAX_TREE_BYTES", 100 * leaf_bytes)
        message = f"144 leaves of {leaf_bytes} bytes each exceed the limit MAX_TREE_BYTES"
        with pytest.raises(FeqcError, match=message):
            enumerate_charge_branches(circuit)


def test_a_leaf_is_charged_the_cones_matrix_not_the_declared_arms():
    """Three split electrons read on arms 1, 3 and 5, then rot 7 x: at
    1024 declared arms the walk holds a 12 x 12 matrix per leaf, so the
    27-leaf tree fits MAX_TREE_BYTES as it does under arms 7."""
    body = "".join(f"electron {a} plus\n" for a in (1, 3, 5)) + "bs 1 2\nbs 3 4\nbs 5 6\n" \
        + "".join(f"q{a} = charge {a}\n" for a in (1, 3, 5)) + "rot 7 x\n"
    trees = [corr.charge_branch_tree(parse(f"arms {n}\n" + body).circuit) for n in (7, 1024)]
    narrow, wide = ([(rec.outcomes, rec.probability) for rec in measurement.leaves(root)]
                    for root, _ in trees)
    assert len(wide) == 27 and wide == narrow
    assert len(corr.merged_branches(trees[1][0])) == 8
    assert trees[1][1].measured_arms == [1, 3, 5]


def test_a_deep_terminal_frontier_gives_its_leaves_without_a_node_per_readout():
    """600 trailing readouts alternating between two arms: the library reads
    the frontier's leaf records from its arrays, not through 600 nested
    levels of nodes, so it does not run out of Python's recursion limit."""
    circuit = parse("arms 2\nelectron 1 plus\nbs 1 2\n"
                    + "".join(f"q{i} = charge {1 + i % 2}\n" for i in range(600))).circuit
    records, _ = enumerate_charge_branches(circuit)
    assert len(records) == 4
    assert abs(sum(rec.probability for rec in records) - 1) <= 1e-12
    root, _ = corr.charge_branch_tree(circuit)
    assert measurement.leaves(root) == records


def test_charge_branches_match_fock_for_terminal_measurements():
    circuit = Circuit(3, [
        PrepSpin(1, 1, 0),
        PrepSpin(2, 1, 1),
        BeamSplitter(1, 2),
        SwapArms(2, 3),
        SpinRotation(3, "h"),
        PolarizingBeamSplitter(1, 3),
        Measure("q1", "charge", 1),
        Measure("q2", "charge", 2),
        Measure("q3", "charge", 3),
    ])
    records, stats = enumerate_charge_branches(circuit)
    from feqc.measurement import enumerate_branches

    fock_records = enumerate_branches(circuit, vacuum(3))
    fock_probs: dict[tuple, float] = {}
    for rec in fock_records:
        key = tuple(sorted(rec.outcomes.items()))
        fock_probs[key] = fock_probs.get(key, 0.0) + rec.probability
    corr_probs: dict[tuple, float] = {}
    for rec in records:
        key = tuple(sorted(rec.outcomes.items()))
        corr_probs[key] = corr_probs.get(key, 0.0) + rec.probability
    assert set(corr_probs) == set(fock_probs)
    for key, p in fock_probs.items():
        assert corr_probs[key] == pytest.approx(p, abs=1e-9)
    assert stats.terms == 3 ** 3
    assert stats.joint_charge1 is not None
    assert all(rec.post_state is None for rec in records)  # terminal leaves keep no matrix


def _random_terminal_charge_circuit(rng, num_arms=4, electrons=4, elements=8) -> Circuit:
    arms = [int(a) for a in rng.permutation(np.arange(1, num_arms + 1))[:electrons]]
    instructions = [PrepSpin(arm, *random_spinor(rng)) for arm in arms]
    for _ in range(elements):
        i, j = (int(a) for a in rng.choice(np.arange(1, num_arms + 1), size=2, replace=False))
        kind = int(rng.integers(4))
        if kind == 3:
            instructions.append(SpinRotation(i, str(rng.choice(["x", "y", "z", "h"]))))
        else:
            instructions.append((BeamSplitter, PolarizingBeamSplitter, SwapArms)[kind](i, j))
    instructions += [Measure(f"q{a}", "charge", a) for a in range(1, num_arms + 1)]
    return Circuit(num_arms, instructions)


def _corpus_terminal_charge_circuits() -> list[Circuit]:
    circuits = []
    for path in sorted(DATA.glob("*.feqc")):
        circuit = parse(path.read_text(encoding="utf-8")).circuit
        try:
            _, stats = enumerate_charge_branches(circuit)
        except NonGaussianOperationError:
            continue
        if stats.joint_charge1 is not None:
            circuits.append(circuit)
    return circuits


def test_joint_charge1_equals_all_charge1_leaves():
    """The joint query, priced on the state the walker's first readout sees,
    agrees with the sequential spin-resolved projections of the tree."""
    corpus = _corpus_terminal_charge_circuits()
    assert len(corpus) >= 2
    rng = np.random.default_rng(50)
    for circuit in corpus + [_random_terminal_charge_circuit(rng) for _ in range(6)]:
        records, stats = enumerate_charge_branches(circuit)
        leaves_charge1 = sum(
            r.probability for r in records if all(q == 1 for q in r.outcomes.values())
        )
        assert stats.joint_charge1 == pytest.approx(leaves_charge1, abs=1e-9)
        assert stats.terms == 3 ** len(stats.measured_arms)


def test_arm_limit_admits_max_arms(monkeypatch):
    monkeypatch.setattr(corr, "MAX_ARMS", 2)
    assert init_from_occupations([], 2).matrix.shape == (4, 4)
    with pytest.raises(FeqcError, match="3 arms exceed the limit MAX_ARMS = 2"):
        init_from_occupations([], 3)


def test_joint_term_limit_admits_twelve_arms_and_guards_both_queries():
    assert corr.MAX_JOINT_TERMS == 3 ** 12
    # Twelve arms are admitted.  Six beam-split pairs of electrons share
    # nothing, so the joint query over all twelve is one pair's to the sixth.
    def split_pairs(pairs: int) -> corr.CorrelationMatrix:
        M = init_from_occupations([], 2 * pairs)
        for first in range(1, 2 * pairs, 2):
            M = add_electron(add_electron(M, first, 0.6, 0.8), first + 1, 1, 0)
            for spin in Spin:
                M = evolve(M, [(first, spin), (first + 1, spin)], BEAM_SPLITTER_MATRIX)
        return M

    one = single_occupancy_probability(split_pairs(1), [1, 2])
    assert 0.5 < one < 1
    assert single_occupancy_probability(split_pairs(6), range(1, 13)) == pytest.approx(
        one ** 6, abs=1e-14)
    message = r"over 13 arms has 3\^13 terms, more than the limit MAX_JOINT_TERMS = 531441"
    with pytest.raises(FeqcError, match=message):
        corr.single_occupancy_probability(init_from_occupations([], 13), range(1, 14))
    with pytest.raises(FeqcError, match=message):
        corr.single_occupancy_terms(init_from_occupations([], 13), range(1, 14))


def test_an_empty_first_read_arm_ends_the_twelve_arm_joint_query():
    """Every pivot of an empty arm is 0, so a query whose first read arm is
    empty drops all three children of its first level and ends there: its
    3^12 terms are 0.0 and its peak is that array's.  The doubly occupied
    query, whose pivots are all 1, drops nothing and takes about 38 MiB."""
    def traced(occupied):
        M = init_from_occupations(occupied, 12)
        tracemalloc.start()  # numpy reports its array buffers here
        try:
            terms = single_occupancy_terms(M, range(1, 13))
            return terms, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    terms, peak = traced([(arm, spin) for arm in range(2, 13) for spin in Spin])
    assert len(terms) == 3 ** 12 and not terms.any()
    assert peak < 16 * 2**20
    terms, peak = traced([(arm, spin) for arm in range(1, 13) for spin in Spin])
    assert len(terms) == 3 ** 12 and terms.all() and terms.sum() == 0.0
    assert peak > 16 * 2**20  # so only a query that ends early keeps under the bound above
