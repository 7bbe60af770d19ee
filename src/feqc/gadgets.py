"""Feedforward gadgets built from linear optics and charge detection.

Four constructions are provided.  Each is a list of ``circuit`` instructions
over caller-chosen arms of a FockState, expanded into explicit outcome
branches by the one branch walker, ``measurement.branch_tree``:

* ``bell_analyzer`` sorts a two-electron spin pair into one of the four
  maximally entangled classes through up to three rounds of splitter +
  charge detector, each later round, with its feedforward spin rotation,
  run under a conditional on an odd reading of the round before.
* ``encoder`` entangles a spin qubit with a fresh ancilla through a pair of
  polarizing beam splitters and a parity meter in between, turning
  alpha|up> + beta|down> into alpha|up,up> + beta|down,down>.
* ``cnot`` chains two encoder boxes, ``spin_parity_readout`` and
  ``hadamard_pbs_gadget`` (the second conjugated by Hadamards and closed by
  an ancilla spin readout), into an exactly deterministic controlled-NOT on
  two spin qubits.
* ``teleport`` consumes a singlet pair and a Bell analysis to move a spin
  qubit between arms; its corrections give, for each analyzer class, the
  correction table derived by exhaustive search and frozen here.

Every gadget returns one ``GadgetBranchRecord`` per branch: its outcomes,
the Pauli corrections applied, its probability and its output state.
Correction rules depend only on measurement outcomes, never on the input
state.  A gadget's corrections are the conditional rotations after its last
readout, and the walker runs them with the rest of its one circuit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import fock, measurement
from .circuit import (BeamSplitter, Circuit, Conditional, Measure, PolarizingBeamSplitter,
                      SpinRotation, apply_instruction, readout_of)
from .errors import PreconditionError
from .fock import FockState, arm_qubit_density, require_single_occupancy, spinor_fidelity
# Not called here: bench/tracing.py patches these names, and the walker's meters are the same.
from .measurement import measure_charge, measure_parity, measure_spin  # noqa: F401


def bell_statistic(p1: int, p2: int, p3: int) -> int:
    """Combine the three detector parities into the class index 0..3."""
    return p1 + p1 * p2 + p1 * p2 * p3


@dataclass
class GadgetBranchRecord:
    """One gadget branch: its outcomes, the (arm, "x" | "z") Pauli corrections
    applied in order, its probability, and the corrected output state."""

    outcomes: dict[str, int]
    applied_corrections: list[tuple[int, str]]
    probability: float
    output_state: FockState


@functools.lru_cache(maxsize=256, typed=True)
def _circuit(build, num_arms: int, *options) -> Circuit:
    """The circuit of the instructions ``build(*options)`` on ``num_arms``
    arms, built and checked once per arms and options: a gadget called again
    walks the same Circuit, and its program, prepared on the first walk."""
    return Circuit(num_arms, build(*options))


def _run(state: FockState, circuit: Circuit) -> list[GadgetBranchRecord]:
    """Expand a gadget's circuit from ``state`` through the branch walker;
    its corrections are the conditionals after its last readout."""
    tree = measurement.branch_tree(circuit, state)
    instructions = circuit.instructions
    last = len(instructions)  # just after the last readout
    while readout_of(instructions[last - 1]) is None:
        last -= 1
    corrections = [ins for ins in instructions[last:] if isinstance(ins, Conditional)]
    return [GadgetBranchRecord(rec.outcomes, _fired(corrections, rec.outcomes),
                               rec.probability, rec.post_state)
            for rec in measurement.leaves(tree)]


def _fired(conditionals: list[Conditional], outcomes: dict[str, int]) -> list[tuple[int, str]]:
    """The (arm, name) rotations of the conditionals, nested ones unwrapped,
    that fire on ``outcomes``, in order of first firing; a Pauli that fires
    an even number of times squares to the identity and is left out."""
    counts: dict[tuple[int, str], int] = {}
    for ins in conditionals:
        while isinstance(ins, Conditional) and outcomes.get(ins.label) == ins.value:
            ins = ins.op
        if not isinstance(ins, Conditional):
            pauli = (ins.arm, ins.name)
            counts[pauli] = counts.get(pauli, 0) + 1
    return [pauli for pauli, n in counts.items() if n % 2]


def _parity_box(arm_a: int, arm_b: int, label: str) -> list:
    """Polarizing splitter pair with a parity meter on arm_a in between."""
    pbs = PolarizingBeamSplitter(arm_a, arm_b)
    return [pbs, Measure(label, "parity", arm_a), pbs]


def _hadamard_pbs_box(upper_arm: int, lower_arm: int) -> list:
    """Parity box p2 between Hadamards on both arms, then spin readout z of upper_arm."""
    hadamards = [SpinRotation(upper_arm, "h"), SpinRotation(lower_arm, "h")]
    return [*hadamards, *_parity_box(upper_arm, lower_arm, "p2"), *hadamards,
            Measure("z", "spin", upper_arm)]


def bell_analyzer(
    state: FockState, arm_a: int, arm_b: int, detector: str = "parity"
) -> list[GadgetBranchRecord]:
    """Three-stage analyzer: splitter + detector, with sigma_z then sigma_x
    feedforward on arm_b between stages.

    The detector on arm_a may count charge (0, 1, 2) or only its parity; the
    measurement is destructive either way, so both modes give the same class
    statistics.  Bunching at a stage (parity 0) fixes the class and later
    stages are skipped.  Records carry the parities p1, p2, p3 and the class
    index b; a skipped stage reports parity 0, which adds nothing to b because
    its term already carries a factor p1 or p1*p2.
    """
    require_single_occupancy(state, arm_a, "bell_analyzer")
    require_single_occupancy(state, arm_b, "bell_analyzer")
    if detector not in ("charge", "parity"):
        raise ValueError(f"unknown detector mode {detector!r}")
    return _classified(_run(state, _circuit(_analyzer, state.num_arms, arm_a, arm_b, detector)))


def _analyzer(arm_a: int, arm_b: int, detector: str) -> list:
    """The analyzer as one circuit: a splitter and the reading q1 of arm_a;
    then, each under 'if q1 == 1', sigma_z on arm_b, a splitter and q2; then,
    each under 'if q2 == 1', sigma_x on arm_b, a splitter and q3.  A reading
    of 1 is odd for both detectors."""
    bs = BeamSplitter(arm_a, arm_b)
    instructions = [bs, Measure("q1", detector, arm_a)]
    for odd, name, label in (("q1", "z", "q2"), ("q2", "x", "q3")):
        stage = [SpinRotation(arm_b, name), bs, Measure(label, detector, arm_a)]
        instructions += [Conditional(odd, 1, ins) for ins in stage]
    return instructions


def _classified(records: list[GadgetBranchRecord]) -> list[GadgetBranchRecord]:
    """Analyzer records with their readings q1..q3 replaced by the parities
    p1, p2, p3 (0 for a stage that did not run) and the class index b."""
    for rec in records:
        p1, p2, p3 = (rec.outcomes.get(label, 0) % 2 for label in ("q1", "q2", "q3"))
        rec.outcomes = {"p1": p1, "p2": p2, "p3": p3, "b": bell_statistic(p1, p2, p3)}
    return records


def encoder(
    state: FockState, arm_a: int, arm_b: int, apply_correction: bool = True
) -> list[GadgetBranchRecord]:
    """Polarizing splitter pair with a parity meter in between.

    With the correction enabled, the circuit ends in ``if p == 0 : rot arm_b
    x``, recorded as the correction (arm_b, "x"), and both branches emit the
    same two-electron encoding of the arm_a qubit.  Without it the parity-0
    branch comes out with the arm_b spin inverted, which is what
    ``spin_parity_readout`` relies on.
    """
    require_single_occupancy(state, arm_a, "encoder")
    require_single_occupancy(state, arm_b, "encoder")
    return _run(state, _circuit(_encoder, state.num_arms, arm_a, arm_b, apply_correction))


def _encoder(arm_a: int, arm_b: int, apply_correction: bool) -> list:
    instructions = _parity_box(arm_a, arm_b, "p")
    if apply_correction:
        instructions.append(Conditional("p", 0, SpinRotation(arm_b, "x")))
    return instructions


def spin_parity_readout(
    state: FockState, arm_a: int, arm_b: int
) -> list[GadgetBranchRecord]:
    """Nondestructive test whether two single-electron spins are aligned.

    Parity 1 means aligned, parity 0 opposite.  For spin-eigenstate inputs
    the output occupancy equals the input and the parity is deterministic
    (a single branch); general inputs are projected onto the aligned or
    anti-aligned subspace.
    """
    return encoder(state, arm_a, arm_b, apply_correction=False)


def control_branch_formula(x: int, p1: int) -> int:
    """Spin bit handed to the ancilla by the control-side splitter pair."""
    return (x + p1 + 1) % 2


def hadamard_pbs_gadget(
    state: FockState, upper_arm: int, lower_arm: int
) -> list[GadgetBranchRecord]:
    """``spin_parity_readout`` conjugated by Hadamards on both arms, followed
    by a spin readout of the upper arm.

    For basis inputs |a> (upper) and |y> (lower) the lower arm comes out in
    (-1)^((p2+1)(a+z)) |a+y+z| mod 2>, the closed form verified row by row by
    the ``appendix-table`` command.  Records carry the parity p2 and the spin z.
    """
    require_single_occupancy(state, upper_arm, "hadamard_pbs_gadget")
    require_single_occupancy(state, lower_arm, "hadamard_pbs_gadget")
    return _run(state, _circuit(_hadamard_pbs_box, state.num_arms, upper_arm, lower_arm))


_PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))


def _require_plus_ancilla(state: FockState, arm: int) -> None:
    rho = arm_qubit_density(state, arm)
    if spinor_fidelity(rho, *_PLUS) < 1 - 1e-9:
        raise PreconditionError(
            f"ancilla arm {arm} must carry an unentangled (|up>+|down>)/sqrt(2) electron"
        )


def cnot(
    state: FockState,
    control_arm: int,
    target_arm: int,
    ancilla_arm: int,
    apply_control_correction: bool = True,
    apply_target_correction: bool = True,
) -> list[GadgetBranchRecord]:
    """Deterministic controlled-NOT (control down flips the target spin).

    One instruction list: the ``spin_parity_readout`` box on control and
    ancilla (parity p1), then the ``hadamard_pbs_gadget`` box on ancilla and
    target (parity p2, ancilla spin z), then the corrections as conditionals:
    sigma_z on the control when p2 == 0, and sigma_x on the target when
    z + p1 is even, written as two nested conditionals, one on p1 == 0 and
    z == 0, the other on p1 == 1 and z == 1.
    Each of the eight branches has probability 1/8 and outputs the gate
    result exactly, up to a global phase.

    The two correction switches exist for negative controls only: each drops
    its conditionals, and disabling either one must break specific branches.
    """
    require_single_occupancy(state, control_arm, "cnot")
    require_single_occupancy(state, target_arm, "cnot")
    require_single_occupancy(state, ancilla_arm, "cnot")
    _require_plus_ancilla(state, ancilla_arm)
    return _run(state, _circuit(_cnot, state.num_arms, control_arm, target_arm, ancilla_arm,
                                apply_control_correction, apply_target_correction))


def _cnot(control_arm: int, target_arm: int, ancilla_arm: int,
          apply_control_correction: bool, apply_target_correction: bool) -> list:
    instructions = (_parity_box(control_arm, ancilla_arm, "p1")
                    + _hadamard_pbs_box(ancilla_arm, target_arm))
    if apply_control_correction:
        instructions.append(Conditional("p2", 0, SpinRotation(control_arm, "z")))
    if apply_target_correction:
        flip = SpinRotation(target_arm, "x")
        instructions += [Conditional("p1", p, Conditional("z", p, flip)) for p in (0, 1)]
    return instructions


# Qubit correction per analyzer class, in application order.  Frozen from
# derive_teleport_corrections(); the regression test re-derives it.
TELEPORT_CORRECTIONS: dict[int, tuple[str, ...]] = {
    0: (),
    1: ("z",),
    2: ("z", "x"),
    3: ("x",),
}


def teleport(
    state: FockState, source_arm: int, pair_arm_1: int, pair_arm_2: int
) -> list[GadgetBranchRecord]:
    """Move the spin qubit of ``source_arm`` onto ``pair_arm_2``.

    Expects a singlet pair across (pair_arm_1, pair_arm_2).  The analyzer
    consumes the source and the first pair arm; its readings select a Pauli
    correction on the second pair arm: sigma_z when q1 == 1 and again when
    q3 == 1, then sigma_x when q2 == 1, which is each class's entry of
    TELEPORT_CORRECTIONS.
    """
    for arm in (source_arm, pair_arm_1, pair_arm_2):
        require_single_occupancy(state, arm, "teleport")
    return _classified(_run(state, _circuit(_teleport, state.num_arms, source_arm, pair_arm_1,
                                            pair_arm_2)))


def _teleport(source_arm: int, pair_arm_1: int, pair_arm_2: int) -> list:
    corrections = [Conditional(label, 1, SpinRotation(pair_arm_2, name))
                   for label, name in (("q1", "z"), ("q3", "z"), ("q2", "x"))]
    return _analyzer(source_arm, pair_arm_1, "parity") + corrections


def derive_teleport_corrections() -> dict[int, tuple[str, ...]]:
    """Reconstruct the correction table by exhaustive search.

    For each analyzer class, exactly one of the four Pauli products brings
    the second pair arm back to the input qubit with unit overlap on a set of
    spinors that pins the operator uniquely.
    """
    candidates: list[tuple[str, ...]] = [(), ("z",), ("x",), ("z", "x")]
    probes = [(1, 0), (1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), 1j / math.sqrt(2))]
    scores: dict[int, dict[tuple[str, ...], float]] = {b: {} for b in range(4)}
    for alpha, beta in probes:
        base = fock.prepare_spin(fock.vacuum(3), 1, alpha, beta)
        base = fock.prepare_bell(base, 0, 2, 3)
        for rec in bell_analyzer(base, 1, 2):
            b = rec.outcomes["b"]
            for cand in candidates:
                out = rec.output_state
                for name in cand:
                    out = apply_instruction(out, SpinRotation(3, name))
                fid = spinor_fidelity(arm_qubit_density(out, 3), alpha, beta)
                scores[b][cand] = min(scores[b].get(cand, 1.0), fid)
    table: dict[int, tuple[str, ...]] = {}
    for b in range(4):
        perfect = [cand for cand, fid in scores[b].items() if fid >= 1 - 1e-9]
        if len(perfect) != 1:
            raise RuntimeError(f"correction for class {b} is not unique: {perfect}")
        table[b] = perfect[0]
    return table
