"""Projective charge, parity and spin measurements with Born-rule branching.

Measurements return every outcome with probability above the branch
threshold, each with its renormalized post-state.  ``enumerate_branches``
expands a circuit into the full outcome tree; ``sample`` draws shots from
that tree with a counter-based generator keyed by (seed, shot index), so
identical inputs reproduce identical records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

from .circuit import Circuit, Conditional, Measure, apply_instruction, validate_circuit
from .errors import FeqcError, PreconditionError
from .fock import FockState, Spin, arm_charge, mode_position, normalize

BRANCH_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9

Branch = tuple[int, float, FockState]


def _partition(state: FockState, classify: Callable[[int], int]) -> list[Branch]:
    groups: dict[int, dict[int, complex]] = {}
    for key, amp in state.amplitudes.items():
        groups.setdefault(classify(key), {})[key] = amp
    branches = []
    for outcome in sorted(groups):
        prob = sum(abs(a) ** 2 for a in groups[outcome].values())
        if prob > BRANCH_THRESHOLD:
            post = normalize(FockState(state.num_arms, groups[outcome]))
            branches.append((outcome, prob, post))
    total = sum(p for _, p, _ in branches)
    # Report a kernel that lost norm instead of renormalizing it away.
    if abs(total - 1) > NORM_TOLERANCE:
        raise FeqcError(f"state norm drifted: outcome probabilities sum to {total!r}")
    return [(o, p / total, s) for o, p, s in branches]


def measure_charge(state: FockState, arm: int) -> list[Branch]:
    """Electrometer: project onto occupation 0, 1 or 2 of the arm."""
    mode_position((arm, Spin.UP), state.num_arms)
    return _partition(state, lambda key: arm_charge(key, arm))


def measure_parity(state: FockState, arm: int) -> list[Branch]:
    """Parity meter: project onto even vs odd occupation of the arm.

    The even branch keeps the coherent superposition of its empty and doubly
    occupied components; that is what distinguishes it from an electrometer.
    """
    mode_position((arm, Spin.UP), state.num_arms)
    return _partition(state, lambda key: arm_charge(key, arm) % 2)


def measure_spin(state: FockState, arm: int) -> list[Branch]:
    """Read the spin of a singly occupied arm: 0 = up, 1 = down.

    The electron stays in place.  Arms without a definite single electron are
    rejected rather than silently projected.
    """
    up_pos = mode_position((arm, Spin.UP), state.num_arms)
    for key in state.amplitudes:
        if arm_charge(key, arm) != 1:
            raise PreconditionError(
                f"measure_spin: arm {arm} must carry exactly one electron in every key"
            )
    return _partition(state, lambda key: 0 if key >> up_pos & 1 else 1)


def measure_mode(state: FockState, mode) -> list[Branch]:
    """Project one (arm, spin) mode onto occupation 0 or 1.

    This spin-resolved detector is the measurement primitive the
    correlation-matrix backend can track; an arm-level charge readout is the
    coarse-graining of its two modes.
    """
    pos = mode_position(mode, state.num_arms)
    return _partition(state, lambda key: key >> pos & 1)


def charge1_expectation(state: FockState, arm: int) -> float:
    """Probability that the arm holds exactly one electron."""
    mode_position((arm, Spin.UP), state.num_arms)
    return float(
        sum(abs(a) ** 2 for k, a in state.amplitudes.items() if arm_charge(k, arm) == 1)
    )


@dataclass
class BranchRecord:
    """One outcome assignment; ``post_state`` is the backend's state (a
    FockState, or a CorrelationMatrix on the corr backend)."""

    outcomes: dict[str, int]
    probability: float
    post_state: Any


@dataclass
class BranchLeaf:
    record: BranchRecord


@dataclass
class BranchNode:
    label: str
    children: list[tuple[int, float, Union["BranchNode", BranchLeaf]]]


_MEASURE_FNS = {"charge": measure_charge, "parity": measure_parity, "spin": measure_spin}


def walk(instructions, state, apply, branches) -> Union[BranchNode, BranchLeaf]:
    """Expand instructions from ``state`` into the measurement-outcome tree.

    The backend supplies ``apply(state, ins)`` for preparations and elements,
    and ``branches(state, measure)`` returning a readout's (outcome,
    probability, post-state) list.  Conditionals fire on earlier outcomes.
    """

    def expand(index, state, outcomes, prob):
        for i in range(index, len(instructions)):
            ins = instructions[i]
            if isinstance(ins, Measure):
                return BranchNode(ins.label, [
                    (outcome, p, expand(i + 1, post, {**outcomes, ins.label: outcome}, prob * p))
                    for outcome, p, post in branches(state, ins)
                ])
            if isinstance(ins, Conditional):
                if outcomes[ins.label] == ins.value:
                    state = apply(state, ins.op)
            else:
                state = apply(state, ins)
        return BranchLeaf(BranchRecord(dict(outcomes), prob, state))

    return expand(0, state, {}, 1.0)


def leaves(root) -> list[BranchRecord]:
    """The leaf records of a branch tree, in outcome order."""
    if isinstance(root, BranchLeaf):
        return [root.record]
    return [record for _, _, child in root.children for record in leaves(child)]


def branch_tree(circuit: Circuit, input_state: FockState) -> Union[BranchNode, BranchLeaf]:
    """Expand a circuit into its measurement-outcome tree."""
    validate_circuit(circuit)
    if input_state.num_arms != circuit.arm_count:
        raise ValueError("input state arm count does not match circuit")
    return walk(circuit.instructions, input_state, apply_instruction,
                lambda state, ins: _MEASURE_FNS[ins.kind](state, ins.arm))


def enumerate_branches(circuit: Circuit, input_state: FockState) -> list[BranchRecord]:
    """All measurement outcome assignments with probabilities and post-states."""
    return leaves(branch_tree(circuit, input_state))


def outcome_signature(outcomes: dict[str, int]) -> str:
    return ",".join(f"{label}={value}" for label, value in outcomes.items())


@dataclass
class SampleResult:
    frequencies: dict[str, int]
    records: list[dict[str, int]]


def _shot_rng(seed: int, shot: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_tree(root, seed: int, shots: int) -> SampleResult:
    """Draw shots by walking the branch tree; one uniform per measurement."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    records: list[dict[str, int]] = []
    frequencies: dict[str, int] = {}
    for shot in range(shots):
        rng = _shot_rng(seed, shot)
        node = root
        while isinstance(node, BranchNode):
            u = rng.random()
            acc = 0.0
            chosen = node.children[-1][2]
            for _, p, child in node.children:
                acc += p
                if u < acc:
                    chosen = child
                    break
            node = chosen
        records.append(node.record.outcomes)
        sig = outcome_signature(node.record.outcomes)
        frequencies[sig] = frequencies.get(sig, 0) + 1
    return SampleResult(dict(sorted(frequencies.items())), records)


def sample(circuit: Circuit, input_state: FockState, seed: int, shots: int) -> SampleResult:
    """Seeded sampling over the circuit's branch tree; reproducible bit-for-bit."""
    return sample_tree(branch_tree(circuit, input_state), seed, shots)
