"""Projective charge, parity and spin measurements with Born-rule branching.

Measurements return every outcome with probability above the branch
threshold, each with its renormalized post-state.  ``enumerate_branches``
expands a circuit into the full outcome tree.  ``sample`` flattens the
tree's leaves into a cumulative distribution and routes shot i by the i-th
double of one Philox stream keyed by the seed, so identical inputs reproduce
identical records and a run is a prefix of any longer run with its seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Union

import numpy as np

from .circuit import Circuit, Conditional, Measure, apply_instruction, validate_circuit
from .errors import FeqcError
from .fock import (
    PRUNE_THRESHOLD, FockState, Spin, arm_charge, mode_position, require_single_occupancy,
)

BRANCH_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9
# Leaves one walk may create: about 20 times the largest benchmark tree.
MAX_LEAVES = 1 << 16
SAMPLE_BLOCK = 1 << 16  # shots drawn per numpy call: bounds the draw's memory

Branch = tuple[int, float, FockState]


def _partition(state: FockState, mask: int, outcome_of: dict[int, int]) -> list[Branch]:
    """Born-rule branches of a readout whose outcome for a key is
    ``outcome_of[key & mask]``, in ascending outcome order."""
    groups: dict[int, dict[int, complex]] = {o: {} for o in sorted(set(outcome_of.values()))}
    group_of = {bits: groups[o] for bits, o in outcome_of.items()}
    for key, amp in state.amplitudes.items():
        group_of[key & mask][key] = amp
    branches = []
    for outcome, group in groups.items():
        prob = sum(abs(a) ** 2 for a in group.values())
        if prob > BRANCH_THRESHOLD:
            # fock.normalize, with the norm taken from prob instead of a second sum
            norm = math.sqrt(prob)
            post = {k: b for k, a in group.items() if abs(b := a / norm) >= PRUNE_THRESHOLD}
            branches.append((outcome, prob, FockState(state.num_arms, post)))
    total = sum(p for _, p, _ in branches)
    # Report a kernel that lost norm instead of renormalizing it away.
    if abs(total - 1) > NORM_TOLERANCE:
        raise FeqcError(f"state norm drifted: outcome probabilities sum to {total!r}")
    return [(o, p / total, s) for o, p, s in branches]


def _arm_bits(state: FockState, arm: int) -> tuple[int, int]:
    """The (up, down) mode bits of an arm; validates the arm."""
    up = 1 << mode_position((arm, Spin.UP), state.num_arms)
    return up, up << 1


def measure_charge(state: FockState, arm: int) -> list[Branch]:
    """Electrometer: project onto occupation 0, 1 or 2 of the arm."""
    up, down = _arm_bits(state, arm)
    return _partition(state, up | down, {0: 0, up: 1, down: 1, up | down: 2})


def measure_parity(state: FockState, arm: int) -> list[Branch]:
    """Parity meter: project onto even vs odd occupation of the arm.

    The even branch keeps the coherent superposition of its empty and doubly
    occupied components; that is what distinguishes it from an electrometer.
    """
    up, down = _arm_bits(state, arm)
    return _partition(state, up | down, {0: 0, up: 1, down: 1, up | down: 0})


def measure_spin(state: FockState, arm: int) -> list[Branch]:
    """Read the spin of a singly occupied arm: 0 = up, 1 = down.

    The electron stays in place.  Arms without a definite single electron are
    rejected rather than silently projected.
    """
    up, _ = _arm_bits(state, arm)
    require_single_occupancy(state, arm, "measure_spin")
    return _partition(state, up, {up: 0, 0: 1})


def measure_mode(state: FockState, mode) -> list[Branch]:
    """Project one (arm, spin) mode onto occupation 0 or 1.

    This spin-resolved detector is the measurement primitive the
    correlation-matrix backend can track; an arm-level charge readout is the
    coarse-graining of its two modes.
    """
    bit = 1 << mode_position(mode, state.num_arms)
    return _partition(state, bit, {0: 0, bit: 1})


def charge1_expectation(state: FockState, arm: int) -> float:
    """Probability that the arm holds exactly one electron."""
    mode_position((arm, Spin.UP), state.num_arms)
    return float(
        sum(abs(a) ** 2 for k, a in state.amplitudes.items() if arm_charge(k, arm) == 1)
    )


@dataclass
class BranchRecord:
    """One outcome assignment; ``post_state`` is the backend's state (a
    FockState, or a CorrelationMatrix on the corr backend).  It is None on
    corr leaves made by a terminal block of charge readouts, which keeps no
    matrix per leaf."""

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


def walk(instructions, state, apply, branches, block=None) -> Union[BranchNode, BranchLeaf]:
    """Expand instructions from ``state`` into the measurement-outcome tree.

    The backend supplies ``apply(state, ins)`` for preparations and elements,
    and ``branches(state, measure)`` returning a readout's (outcome,
    probability, post-state) list.  Conditionals fire on earlier outcomes.
    A backend may also pass ``block(state, measures, outcomes, prob, count)``
    to take over the circuit's trailing run of Measures on each path that
    reaches it.  It returns their subtree, whose leaves extend ``outcomes``
    and whose probabilities are ``prob`` times the readouts' products, in the
    order the walker would have made them.  The walker counts the path as one
    leaf, and the block calls ``count(n)`` before its tree grows by n more.
    Without ``block`` the walker recurses through ``branches`` to the end.
    A tree of more than MAX_LEAVES leaves is refused.
    """
    leaf_count = 0
    tail = len(instructions)  # where the trailing run of Measures starts
    while block is not None and tail and isinstance(instructions[tail - 1], Measure):
        tail -= 1

    def count(n):
        nonlocal leaf_count
        leaf_count += n
        if leaf_count > MAX_LEAVES:
            raise FeqcError(f"branch tree: more leaves than the limit MAX_LEAVES = {MAX_LEAVES}")

    def expand(index, state, outcomes, prob):
        for i in range(index, len(instructions)):
            ins = instructions[i]
            if i == tail:
                count(1)
                return block(state, instructions[tail:], outcomes, prob, count)
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
        count(1)
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


def _leaf_picks(cdf: np.ndarray, seed: int, shots: int):
    """Yield the leaf index of every shot, SAMPLE_BLOCK shots at a time.

    The Philox stream continues across blocks, so the picks do not depend on
    the block size.  A uniform at or above the last cumulative value, which
    rounding can leave just below 1, picks the last leaf.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, shots, SAMPLE_BLOCK):
        u = rng.random(min(SAMPLE_BLOCK, shots - start))
        yield np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


class ShotRecords(Sequence):
    """Each shot's outcome assignment, in shot order.  The picks are drawn
    again from the seeded stream when a record is first read, so a caller
    that needs only the frequencies keeps nothing per shot."""

    def __init__(self, outcomes: list[dict[str, int]], cdf: np.ndarray, seed: int, shots: int):
        self._draw = outcomes, cdf, seed, shots

    @cached_property
    def _records(self) -> list[dict[str, int]]:
        outcomes, cdf, seed, shots = self._draw
        return [outcomes[i] for picks in _leaf_picks(cdf, seed, shots) for i in picks.tolist()]

    def __len__(self) -> int:
        return self._draw[3]

    def __getitem__(self, index):
        return self._records[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self._records == list(other)


@dataclass
class SampleResult:
    frequencies: dict[str, int]
    records: Sequence[dict[str, int]]


def sample_tree(root, seed: int, shots: int) -> SampleResult:
    """Draw shots from the leaves of a branch tree (see the module docstring)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    records = leaves(root)
    cdf = np.cumsum([rec.probability for rec in records])
    counts = sum(np.bincount(picks, minlength=len(cdf)) for picks in _leaf_picks(cdf, seed, shots))
    frequencies: dict[str, int] = {}
    for rec, count in zip(records, counts.tolist()):
        if count:  # corr leaves can share a signature; their counts add
            sig = outcome_signature(rec.outcomes)
            frequencies[sig] = frequencies.get(sig, 0) + count
    outcomes = [rec.outcomes for rec in records]
    return SampleResult(dict(sorted(frequencies.items())), ShotRecords(outcomes, cdf, seed, shots))


def sample(circuit: Circuit, input_state: FockState, seed: int, shots: int) -> SampleResult:
    """Seeded sampling over the circuit's branch tree; reproducible bit-for-bit."""
    return sample_tree(branch_tree(circuit, input_state), seed, shots)
