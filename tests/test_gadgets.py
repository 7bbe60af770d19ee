"""Analyzer, encoder, controlled-NOT, the Hadamard-PBS block, and teleport."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from feqc import fock, gadgets, measurement
from feqc.circuit import (Circuit, Conditional, Measure, PolarizingBeamSplitter, PrepBell,
                          PrepSpin, SpinRotation, apply_instruction)
from feqc.errors import PreconditionError
from feqc.fock import (
    FockState,
    Spin,
    arm_qubit_density,
    fidelity,
    inner_product,
    prepare_bell,
    prepare_spin,
    prepare_two_spin,
    spinor_fidelity,
    vacuum,
)
from feqc.gadgets import (
    TELEPORT_CORRECTIONS,
    bell_analyzer,
    bell_statistic,
    cnot,
    control_branch_formula,
    derive_teleport_corrections,
    encoder,
    hadamard_pbs_gadget,
    spin_parity_readout,
    teleport,
)
from feqc.measurement import enumerate_branches, measure_spin
from feqc.parser import parse
import helpers
from helpers import haar_two_qubit, random_spinor

UP, DOWN = Spin.UP, Spin.DOWN
DATA = Path(__file__).parent / "data"


def spin_state(num_arms, preps):
    state = vacuum(num_arms)
    for arm, alpha, beta in preps:
        state = prepare_spin(state, arm, alpha, beta)
    return state


def encoded_pair(alpha, beta, arm_a=1, arm_b=2, num_arms=2):
    coeffs = np.array([[alpha, 0], [0, beta]], dtype=complex)
    return prepare_two_spin(vacuum(num_arms), arm_a, arm_b, coeffs)


@pytest.mark.parametrize("detector", ["parity", "charge"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_analyzer_identifies_every_pair_state(k, detector):
    state = prepare_bell(vacuum(2), k, 1, 2)
    results = bell_analyzer(state, 1, 2, detector=detector)
    prob = sum(rec.probability for rec in results if rec.outcomes["b"] == k)
    assert prob == pytest.approx(1.0, abs=1e-9)


def test_analyzer_statistic_identity_holds_on_records():
    for k in range(4):
        state = prepare_bell(vacuum(2), k, 1, 2)
        for rec in bell_analyzer(state, 1, 2):
            o = rec.outcomes
            assert o["b"] == bell_statistic(o["p1"], o["p2"], o["p3"])


def test_analyzer_parities_for_last_pair_state():
    state = prepare_bell(vacuum(2), 3, 1, 2)
    (rec,) = bell_analyzer(state, 1, 2)
    assert (rec.outcomes["p1"], rec.outcomes["p2"], rec.outcomes["p3"]) == (1, 1, 1)
    assert rec.probability == pytest.approx(1.0, abs=1e-9)


def test_analyzer_on_superposed_input_splits():
    singlet = prepare_bell(vacuum(2), 0, 1, 2)
    aligned = prepare_bell(vacuum(2), 2, 1, 2)
    amps: dict[int, complex] = {}
    for part in (singlet, aligned):
        for key, amp in part.amplitudes.items():
            amps[key] = amps.get(key, 0j) + amp / np.sqrt(2)
    state = fock.normalize(FockState(2, amps))
    results = bell_analyzer(state, 1, 2)
    by_class: dict[int, float] = {}
    for rec in results:
        b = rec.outcomes["b"]
        by_class[b] = by_class.get(b, 0.0) + rec.probability
    assert by_class[0] == pytest.approx(0.5, abs=1e-9)
    assert by_class[2] == pytest.approx(0.5, abs=1e-9)
    assert set(by_class) == {0, 2}


def test_analyzer_detector_modes_agree_on_class_statistics():
    rng = np.random.default_rng(31)
    for _ in range(5):
        state = prepare_two_spin(vacuum(2), 1, 2, haar_two_qubit(rng))
        dists = []
        for detector in ("parity", "charge"):
            dist: dict[int, float] = {}
            for rec in bell_analyzer(state, 1, 2, detector=detector):
                b = rec.outcomes["b"]
                dist[b] = dist.get(b, 0.0) + rec.probability
            dists.append(dist)
        for b in range(4):
            assert dists[0].get(b, 0.0) == pytest.approx(dists[1].get(b, 0.0), abs=1e-9)


def test_analyzer_rejects_bad_occupancy():
    with pytest.raises(PreconditionError):
        bell_analyzer(spin_state(2, [(1, 1, 0)]), 1, 2)


@pytest.mark.parametrize("detector", ["spin", "count"])
def test_analyzer_rejects_other_detectors(detector):
    with pytest.raises(ValueError, match="unknown detector mode"):
        bell_analyzer(prepare_bell(vacuum(2), 0, 1, 2), 1, 2, detector=detector)


def test_encoder_on_spin_up():
    state = spin_state(2, [(1, 1, 0), (2, 1, 1)])
    ideal = encoded_pair(1, 0)
    for rec in encoder(state, 1, 2):
        assert rec.probability == pytest.approx(0.5, abs=1e-9)
        assert fidelity(rec.output_state, ideal) == pytest.approx(1.0, abs=1e-9)


def test_encoder_parity_one_branch_is_direct():
    alpha, beta = 0.8, 0.6j
    state = spin_state(2, [(1, alpha, beta), (2, 1, 1)])
    branches = encoder(state, 1, 2, apply_correction=False)
    direct = {rec.outcomes["p"]: rec.output_state for rec in branches}
    assert fidelity(direct[1], encoded_pair(alpha, beta)) == pytest.approx(1.0, abs=1e-9)
    # without the flip, the parity-0 branch has the arm-2 spin inverted
    swapped = prepare_two_spin(
        vacuum(2), 1, 2, np.array([[0, alpha], [beta, 0]], dtype=complex)
    )
    assert fidelity(direct[0], swapped) == pytest.approx(1.0, abs=1e-9)
    corrected = apply_instruction(direct[0], SpinRotation(2, "x"))
    assert fidelity(corrected, encoded_pair(alpha, beta)) == pytest.approx(1.0, abs=1e-9)


def test_encoder_random_qubits():
    rng = np.random.default_rng(32)
    for _ in range(20):
        alpha, beta = random_spinor(rng)
        state = spin_state(2, [(1, alpha, beta), (2, 1, 1)])
        ideal = encoded_pair(alpha, beta)
        branches = encoder(state, 1, 2)
        assert len(branches) == 2
        for rec in branches:
            assert rec.probability == pytest.approx(0.5, abs=1e-9)
            assert fidelity(rec.output_state, ideal) >= 1 - 1e-9


def test_encoder_records_its_flip_as_a_correction():
    state = spin_state(3, [(3, 0.8, 0.6j), (1, 1, 1)])
    flipped = encoder(state, 3, 1)
    assert [rec.outcomes["p"] for rec in flipped] == [0, 1]
    assert [rec.applied_corrections for rec in flipped] == [[(1, "x")], []]
    plain = encoder(state, 3, 1, apply_correction=False)
    assert [rec.applied_corrections for rec in plain] == [[], []]
    # the flip is the circuit's last instruction, made on the uncorrected branch state
    corrected = apply_instruction(plain[0].output_state, SpinRotation(1, "x"))
    assert flipped[0].output_state.amplitudes == corrected.amplitudes


def test_occupancy_checks_name_an_arm_out_of_range():
    state = prepare_bell(vacuum(2), 0, 1, 2)
    calls = [
        (lambda: prepare_bell(vacuum(2), 0, 0, 2), 0),
        (lambda: bell_analyzer(state, 0, 2), 0),
        (lambda: encoder(state, 1, 0), 0),
        (lambda: bell_analyzer(state, 1, 5), 5),
    ]
    for call, arm in calls:
        with pytest.raises(ValueError, match=rf"^arm {arm} out of range 1\.\.2$"):
            call()


def test_encoder_rejects_shared_arm_occupancy():
    both_in_one = prepare_two_spin(
        vacuum(2), 1, 2, np.array([[1, 0], [0, 1]], dtype=complex)
    )
    both_in_one = apply_instruction(
        spin_state(2, [(1, 1, 0), (2, 0, 1)]), PolarizingBeamSplitter(1, 2)
    )  # bunches both electrons into arm 1
    with pytest.raises(PreconditionError):
        encoder(both_in_one, 1, 2)


def test_encoder_decoding_identity():
    """Projecting the second arm onto (|up>+|down>)/sqrt(2) undoes the encoding."""
    rng = np.random.default_rng(33)
    for _ in range(5):
        alpha, beta = random_spinor(rng)
        state = spin_state(2, [(1, alpha, beta), (2, 1, 1)])
        for rec in encoder(state, 1, 2):
            rotated = apply_instruction(rec.output_state, SpinRotation(2, "h"))  # maps |+> to |up>
            survivors = [post for z, _, post in measure_spin(rotated, 2) if z == 0]
            assert len(survivors) == 1
            rho = arm_qubit_density(survivors[0], 1)
            assert spinor_fidelity(rho, alpha, beta) == pytest.approx(1.0, abs=1e-9)


def test_spin_parity_readout_on_eigenstates():
    aligned = spin_state(2, [(1, 1, 0), (2, 1, 0)])
    branches = spin_parity_readout(aligned, 1, 2)
    assert len(branches) == 1
    (rec,) = branches
    assert (rec.outcomes["p"], rec.probability) == (1, pytest.approx(1.0))
    assert fidelity(rec.output_state, aligned) == pytest.approx(1.0)

    opposite = spin_state(2, [(1, 1, 0), (2, 0, 1)])
    branches = spin_parity_readout(opposite, 1, 2)
    assert len(branches) == 1
    (rec,) = branches
    assert (rec.outcomes["p"], rec.probability) == (0, pytest.approx(1.0))
    assert fidelity(rec.output_state, opposite) == pytest.approx(1.0)


def test_spin_parity_readout_on_singlet_is_deterministic():
    # the aligned-spin projection of the singlet vanishes, so only p=0 fires
    singlet = prepare_bell(vacuum(2), 0, 1, 2)
    branches = spin_parity_readout(singlet, 1, 2)
    assert len(branches) == 1
    (rec,) = branches
    assert (rec.outcomes["p"], rec.probability) == (0, pytest.approx(1.0, abs=1e-9))
    assert fidelity(rec.output_state, singlet) == pytest.approx(1.0, abs=1e-9)


def test_control_branch_formula():
    assert control_branch_formula(0, 1) == 0
    assert control_branch_formula(1, 1) == 1
    assert control_branch_formula(0, 0) == 1
    assert control_branch_formula(1, 0) == 0


def test_control_side_box_matches_formula():
    """The splitter pair hands the ancilla the spin x + p1 + 1."""
    from feqc.measurement import measure_parity

    for x in (0, 1):
        state = spin_state(2, [(1, 1 - x, x), (2, 1, 1)])
        mixed = apply_instruction(state, PolarizingBeamSplitter(1, 2))
        for p1, prob, post in measure_parity(mixed, 1):
            out = apply_instruction(post, PolarizingBeamSplitter(1, 2))
            assert prob == pytest.approx(0.5)
            expected = spin_state(
                2, [(1, 1 - x, x), (2, 1 - control_branch_formula(x, p1), control_branch_formula(x, p1))]
            )
            assert inner_product(expected, out) == pytest.approx(1.0)  # phase +1, not just fidelity


def test_hadamard_pbs_closed_form_on_basis_inputs():
    for a in (0, 1):
        for y in (0, 1):
            state = spin_state(2, [(1, 1 - a, a), (2, 1 - y, y)])
            branches = hadamard_pbs_gadget(state, 1, 2)
            assert len(branches) == 4
            for rec in branches:
                p2, z, out = rec.outcomes["p2"], rec.outcomes["z"], rec.output_state
                assert rec.probability == pytest.approx(0.25, abs=1e-9)
                bit = (a + y + z) % 2
                phase = (-1) ** (((p2 + 1) * (a + z)) % 2)
                expected = spin_state(2, [(1, 1 - z, z), (2, 1 - bit, bit)])
                assert inner_product(expected, out) == pytest.approx(phase, abs=1e-9)


def test_hadamard_pbs_relative_sign_on_superposed_input():
    # upper arm in (|0> + |1>)/sqrt(2): branch output carries the relative
    # sign (-1)^(p2+1) between the two upper-bit components
    for y in (0, 1):
        state = spin_state(2, [(1, 1, 1), (2, 1 - y, y)])
        for rec in hadamard_pbs_gadget(state, 1, 2):
            p2, z = rec.outcomes["p2"], rec.outcomes["z"]
            rho = arm_qubit_density(rec.output_state, 2)
            sign = (-1) ** ((p2 + 1) % 2)  # relative phase between a=0 and a=1 terms
            amp0 = (-1) ** (((p2 + 1) * (0 + z)) % 2)
            amp1 = (-1) ** (((p2 + 1) * (1 + z)) % 2)
            coeffs = np.zeros(2, dtype=complex)
            coeffs[(0 + y + z) % 2] += amp0
            coeffs[(1 + y + z) % 2] += amp1
            coeffs /= np.linalg.norm(coeffs)
            assert spinor_fidelity(rho, coeffs[0], coeffs[1]) == pytest.approx(1.0, abs=1e-9)
            assert sign in (-1, 1)


def cnot_input(coeffs, num_arms=3, control=1, target=2, ancilla=3):
    state = prepare_two_spin(vacuum(num_arms), control, target, coeffs)
    return prepare_spin(state, ancilla, 1, 1)


def cnot_ideal(coeffs, z, num_arms=3, control=1, target=2, ancilla=3):
    flipped = np.empty((2, 2), dtype=complex)
    for x in (0, 1):
        for w in (0, 1):
            flipped[x, w] = coeffs[x, (w + x) % 2]
    state = prepare_two_spin(vacuum(num_arms), control, target, flipped)
    return prepare_spin(state, ancilla, 1 - z, z)


@pytest.mark.parametrize("x", [0, 1])
@pytest.mark.parametrize("y", [0, 1])
def test_cnot_basis_action(x, y):
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[x, y] = 1.0
    records = cnot(cnot_input(coeffs), 1, 2, 3)
    assert len(records) == 8
    total = 0.0
    for rec in records:
        assert rec.probability == pytest.approx(0.125, abs=1e-9)
        ideal = cnot_ideal(coeffs, rec.outcomes["z"])
        assert fidelity(rec.output_state, ideal) >= 1 - 1e-9
        total += rec.probability
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cnot_on_haar_random_two_qubit_states():
    rng = np.random.default_rng(34)
    for _ in range(20):
        coeffs = haar_two_qubit(rng)
        records = cnot(cnot_input(coeffs), 1, 2, 3)
        success = 0.0
        for rec in records:
            ideal = cnot_ideal(coeffs, rec.outcomes["z"])
            fid = fidelity(rec.output_state, ideal)
            assert fid >= 1 - 1e-9
            success += rec.probability * fid
        assert success == pytest.approx(1.0, abs=1e-9)


def test_cnot_corrections_depend_only_on_outcomes():
    rng = np.random.default_rng(35)
    seen: dict[tuple[int, int, int], list] = {}
    for _ in range(6):
        records = cnot(cnot_input(haar_two_qubit(rng)), 1, 2, 3)
        for rec in records:
            key = (rec.outcomes["p1"], rec.outcomes["p2"], rec.outcomes["z"])
            if key in seen:
                assert seen[key] == rec.applied_corrections
            else:
                seen[key] = rec.applied_corrections
    assert len(seen) == 8


def test_cnot_works_with_permuted_arm_layout():
    # ancilla between control and target in the mode order
    rng = np.random.default_rng(36)
    for _ in range(5):
        coeffs = haar_two_qubit(rng)
        state = prepare_two_spin(vacuum(3), 2, 3, coeffs)  # control=2, target=3
        state = prepare_spin(state, 1, 1, 1)               # ancilla=1
        records = cnot(state, control_arm=2, target_arm=3, ancilla_arm=1)
        for rec in records:
            z = rec.outcomes["z"]
            flipped = np.empty((2, 2), dtype=complex)
            for x in (0, 1):
                for w in (0, 1):
                    flipped[x, w] = coeffs[x, (w + x) % 2]
            ideal = prepare_spin(prepare_two_spin(vacuum(3), 2, 3, flipped), 1, 1 - z, z)
            assert fidelity(rec.output_state, ideal) >= 1 - 1e-9


@pytest.mark.parametrize("x", [0, 1])
@pytest.mark.parametrize("y", [0, 1])
def test_cnot_is_spin_parity_readout_then_hadamard_pbs_gadget(x, y):
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[x, y] = 1.0
    # ancilla between control and target in the mode order
    control, target, ancilla = 2, 3, 1
    state = cnot_input(coeffs, control=control, target=target, ancilla=ancilla)
    composed = [
        ({"p1": first.outcomes["p"], **second.outcomes}, first.probability * second.probability,
         second.output_state)
        for first in spin_parity_readout(state, control, ancilla)
        for second in hadamard_pbs_gadget(first.output_state, ancilla, target)
    ]
    records = cnot(state, control, target, ancilla,
                   apply_control_correction=False, apply_target_correction=False)
    assert [rec.applied_corrections for rec in records] == [[]] * len(composed)
    assert [(rec.outcomes, rec.probability, rec.output_state) for rec in records] == composed


def test_cnot_with_electrometers_is_nearly_deterministic(monkeypatch):
    """Parity meters make the CNOT fully deterministic; electrometers in their
    place, with the same corrections read mod 2, only nearly."""
    run_parity = gadgets._run

    def run_charge(state, circuit):
        """Each parity meter made an electrometer, and each correction on a
        reading of 0 also made on a reading of 2."""
        changed = []
        for ins in circuit.instructions:
            if isinstance(ins, Measure) and ins.kind == "parity":
                ins = dataclasses.replace(ins, kind="charge")
            changed.append(ins)
            if isinstance(ins, Conditional) and ins.value == 0:
                changed.append(dataclasses.replace(ins, value=2))
        return run_parity(state, Circuit(circuit.arm_count, changed))

    def run(x, y):
        """Largest p2 reading and fidelity-weighted success on the input |x, y>."""
        coeffs = np.zeros((2, 2), dtype=complex)
        coeffs[x, y] = 1.0
        records = cnot(cnot_input(coeffs), 1, 2, 3)
        by_parity: dict[tuple, list] = {}  # corrections read the outcomes mod 2
        for rec in records:
            key = tuple(v % 2 for v in rec.outcomes.values())
            assert by_parity.setdefault(key, rec.applied_corrections) == rec.applied_corrections
        success = sum(rec.probability * fidelity(rec.output_state,
                                                 cnot_ideal(coeffs, rec.outcomes["z"]))
                      for rec in records)
        return max(rec.outcomes["p2"] for rec in records), success

    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [run(x, y) for x, y in basis] == [(1, pytest.approx(1.0, abs=1e-12))] * 4
    monkeypatch.setattr(gadgets, "_run", run_charge)
    assert [run(x, y) for x, y in basis] == [(2, pytest.approx(0.75, abs=1e-12))] * 4


def corpus_run(name):
    """A corpus circuit's branches, and the state its electron and bell lines prepare."""
    circuit = parse((DATA / f"{name}.feqc").read_text(encoding="utf-8")).circuit
    state = vacuum(circuit.arm_count)
    for ins in circuit.instructions:
        if isinstance(ins, (PrepSpin, PrepBell)):
            state = apply_instruction(state, ins)
    return enumerate_branches(circuit, vacuum(circuit.arm_count)), state


# Each corpus file next to the gadget call that runs the same box on its arms.
CORPUS_GADGETS = {
    "encoder": lambda s: encoder(s, 1, 2),
    "encoder_basis": lambda s: encoder(s, 1, 2),
    "spin_parity_readout": lambda s: spin_parity_readout(s, 1, 2),
    "hpbs_block": lambda s: hadamard_pbs_gadget(s, 1, 2),
    "cnot_core": lambda s: cnot(s, 1, 3, 2, apply_target_correction=False),
}


@pytest.mark.parametrize("name", sorted(CORPUS_GADGETS))
def test_corpus_circuits_and_gadgets_agree_exactly(name):
    records, state = corpus_run(name)
    expected = [(rec.outcomes, rec.probability, rec.post_state.amplitudes) for rec in records]
    got = [(rec.outcomes, rec.probability, rec.output_state.amplitudes)
           for rec in CORPUS_GADGETS[name](state)]
    assert got == expected


# The corpus files a gadget walks as they are, after their preparations.
WALKED_CORPUS = {**CORPUS_GADGETS, "gadgets/bell_analyzer": lambda s: bell_analyzer(s, 1, 2)}


@pytest.mark.parametrize("name", ["encoder", "cnot_core", "gadgets/bell_analyzer"])
def test_gadgets_walk_their_corpus_circuits(name, monkeypatch):
    """The encoder, the controlled-NOT and the analyzer walk the corpus
    circuit's instructions after its preparation lines, corrections and
    conditional stages included."""
    circuit = parse((DATA / f"{name}.feqc").read_text(encoding="utf-8")).circuit
    _, state = corpus_run(name)
    walked = []
    walk = measurement.branch_tree
    monkeypatch.setattr(measurement, "branch_tree",
                        lambda circuit, state: walked.append(circuit.instructions)
                        or walk(circuit, state))
    WALKED_CORPUS[name](state)
    assert walked == [tuple(ins for ins in circuit.instructions
                            if not isinstance(ins, (PrepSpin, PrepBell)))]


def test_no_gadget_applies_anything_after_its_walk(monkeypatch):
    """Every element a gadget applies, corrections included, runs inside its
    one walk: bell_analyzer and teleport walk one circuit per call."""
    walks = []
    walk = measurement.branch_tree

    def counted(circuit, state):
        walks.append(True)
        try:
            return walk(circuit, state)
        finally:
            walks[-1] = False

    kernel = fock.apply_kernel_steps

    def inside_only(*args):
        assert walks and walks[-1], "an element applied outside the walk"
        return kernel(*args)

    monkeypatch.setattr(measurement, "branch_tree", counted)
    monkeypatch.setattr(fock, "apply_kernel_steps", inside_only)
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[1, 0] = 1.0
    calls = [
        (lambda: encoder(spin_state(2, [(1, 0.6, 0.8j), (2, 1, 1)]), 1, 2), 2),
        (lambda: cnot(cnot_input(coeffs), 1, 2, 3), 8),
        (lambda: hadamard_pbs_gadget(spin_state(2, [(1, 1, 0), (2, 0, 1)]), 1, 2), 4),
        (lambda: bell_analyzer(prepare_bell(vacuum(2), 2, 1, 2), 1, 2, "charge"), 2),
        (lambda: teleport(teleport_input(0.6, 0.8j), 1, 2, 3), 4),
    ]
    for call, branches in calls:
        walks.clear()
        assert len(call()) == branches
        assert walks == [False]


def walked_circuits(monkeypatch) -> list:
    """The circuits measurement.branch_tree walks from now on, in order."""
    circuits = []
    walk = measurement.branch_tree
    monkeypatch.setattr(measurement, "branch_tree",
                        lambda circuit, state: circuits.append(circuit) or walk(circuit, state))
    return circuits


def test_a_gadget_called_again_walks_the_same_circuit_and_program(monkeypatch):
    """Each gadget builds and checks its circuit once per arms and options,
    and its program is prepared on the first walk: a second call walks the
    same Circuit object, whose program is the one the first walk made."""
    circuits = walked_circuits(monkeypatch)
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[1, 0] = 1.0
    calls = [
        lambda: encoder(spin_state(2, [(1, 0.6, 0.8j), (2, 1, 1)]), 1, 2),
        lambda: cnot(cnot_input(coeffs), 1, 2, 3),
        lambda: hadamard_pbs_gadget(spin_state(2, [(1, 1, 0), (2, 0, 1)]), 1, 2),
        lambda: bell_analyzer(prepare_bell(vacuum(2), 2, 1, 2), 1, 2, "charge"),
        lambda: teleport(teleport_input(0.6, 0.8j), 1, 2, 3),
    ]
    for call in calls:
        circuits.clear()
        first = call()
        (circuit,) = circuits
        programs = dict(circuit.programs)
        assert list(programs) == [False]
        again = call()
        assert circuits == [circuit] * 2 and circuits[1] is circuit
        assert circuit.programs == programs and circuit.programs[False] is programs[False]
        assert [(rec.outcomes, rec.probability) for rec in again] == [
            (rec.outcomes, rec.probability) for rec in first]


def test_encoder_with_and_without_its_correction_walks_two_circuits(monkeypatch):
    """The encoder's two forms are two circuits, each the same on every call:
    the correction is never appended to a cached circuit or list."""
    circuits = walked_circuits(monkeypatch)
    state = spin_state(2, [(1, 0.6, 0.8j), (2, 1, 1)])
    for correction in (True, False, True, False):
        encoder(state, 1, 2, apply_correction=correction)
    corrected, plain = circuits[:2]
    assert corrected is not plain and circuits[2:] == [corrected, plain]
    assert circuits[2] is corrected and circuits[3] is plain
    assert corrected.instructions[:3] == plain.instructions and len(plain.instructions) == 3
    assert corrected.instructions[3:] == (Conditional("p", 0, SpinRotation(2, "x")),)


def test_cnot_flips_the_target_at_most_once_per_leaf(monkeypatch):
    """sigma_x on the target is applied once on the leaves where z + p1 is
    even and never on the others: no leaf applies it twice."""
    circuits = []
    walk = measurement.branch_tree
    monkeypatch.setattr(measurement, "branch_tree",
                        lambda circuit, state: circuits.append(circuit) or walk(circuit, state))
    state = cnot_input(haar_two_qubit(np.random.default_rng(5)))
    cnot(state, 1, 2, 3)
    flip = SpinRotation(2, "x")

    def apply(counted, ins):  # a state paired with the flips applied on its path
        return apply_instruction(counted[0], ins), counted[1] + (ins == flip)

    def branches(counted, ins):
        return [(outcome, p, (post, counted[1]))
                for outcome, p, post in measurement._MEASURE_FNS[ins.kind](counted[0], ins.arm)]

    (circuit,) = circuits
    root = helpers.walk(circuit.instructions, (state, 0), apply, branches)
    records = measurement.leaves(root)
    flips = {(rec.outcomes["p1"], rec.outcomes["z"]): rec.post_state[1] for rec in records}
    assert len(records) == 8
    assert flips == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}


@pytest.mark.parametrize("control, target, ancilla", [(1, 2, 3), (2, 3, 1)])
def test_cnot_records_the_corrections_its_outcomes_call_for(control, target, ancilla):
    """sigma_z on the control when p2 is even, then sigma_x on the target
    when z + p1 is even, on Haar inputs."""
    rng = np.random.default_rng(38)
    for _ in range(3):
        state = cnot_input(haar_two_qubit(rng), control=control, target=target, ancilla=ancilla)
        records = cnot(state, control, target, ancilla)
        assert len(records) == 8
        for rec in records:
            p1, p2, z = rec.outcomes["p1"], rec.outcomes["p2"], rec.outcomes["z"]
            expected = [(control, "z")] * (p2 % 2 == 0) + [(target, "x")] * ((z + p1) % 2 == 0)
            assert rec.applied_corrections == expected


def test_cnot_requires_plus_ancilla():
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[0, 0] = 1.0
    state = prepare_two_spin(vacuum(3), 1, 2, coeffs)
    state = prepare_spin(state, 3, 1, 0)  # ancilla |up>, not |+>
    with pytest.raises(PreconditionError):
        cnot(state, 1, 2, 3)


def test_cnot_ablation_of_control_correction_breaks_phase():
    plus_zero = np.array([[1, 0], [1, 0]], dtype=complex) / np.sqrt(2)
    records = cnot(cnot_input(plus_zero), 1, 2, 3, apply_control_correction=False)
    fids = [
        fidelity(rec.output_state, cnot_ideal(plus_zero, rec.outcomes["z"]))
        for rec in records
    ]
    assert min(fids) <= 0.51
    assert any(f >= 1 - 1e-9 for f in fids)  # p2=1 branches never needed it


def test_cnot_ablation_of_target_correction_breaks_bit():
    basis = np.zeros((2, 2), dtype=complex)
    basis[0, 0] = 1.0
    records = cnot(cnot_input(basis), 1, 2, 3, apply_target_correction=False)
    fids = [
        fidelity(rec.output_state, cnot_ideal(basis, rec.outcomes["z"]))
        for rec in records
    ]
    assert min(fids) <= 0.51


def teleport_input(alpha, beta, resource=0):
    state = prepare_spin(vacuum(3), 1, alpha, beta)
    return prepare_bell(state, resource, 2, 3)


def test_teleport_eigenstate():
    records = teleport(teleport_input(1, 0), 1, 2, 3)
    for rec in records:
        rho = arm_qubit_density(rec.output_state, 3)
        assert spinor_fidelity(rho, 1, 0) >= 1 - 1e-9


def test_teleport_random_qubits():
    rng = np.random.default_rng(37)
    for _ in range(20):
        alpha, beta = random_spinor(rng)
        records = teleport(teleport_input(alpha, beta), 1, 2, 3)
        assert len(records) == 4
        for rec in records:
            assert rec.probability == pytest.approx(0.25, abs=1e-9)
            rho = arm_qubit_density(rec.output_state, 3)
            assert spinor_fidelity(rho, alpha, beta) >= 1 - 1e-9


def test_teleport_with_wrong_resource_fails_somewhere():
    alpha, beta = 0.6, 0.8
    records = teleport(teleport_input(alpha, beta, resource=2), 1, 2, 3)
    fids = [
        spinor_fidelity(arm_qubit_density(rec.output_state, 3), alpha, beta)
        for rec in records
    ]
    assert min(fids) < 1 - 1e-6


def test_teleport_correction_table_regression():
    assert derive_teleport_corrections() == TELEPORT_CORRECTIONS
