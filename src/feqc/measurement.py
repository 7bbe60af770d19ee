"""Projective charge, parity and spin measurements with Born-rule branching.

Measurements return every outcome with probability above the branch
threshold, each with its renormalized post-state.  A readout splits a state
by its meter (``_split``): ``measure_charge``, ``measure_parity`` and
``measure_spin`` return that split.  ``_born`` reads a run of readouts from
a state in one pass over its keys; a leaf of that pass keeps its group of
keys and its mass, and normalizes the group into its post-state when the
post-state is first read, so a report that reads only outcomes and
probabilities normalizes nothing.  ``branch_tree`` expands a circuit into
the full outcome tree: it prepares the circuit's instructions once into a
``Program``, kept in ``circuit.programs`` (conditions as (label, value)
pairs, elements as ``fock.kernel_step`` steps, mid-circuit readouts as
meters), and walks it, handing the trailing run of readouts to ``_born`` on
every path that reaches it.  ``branch_tree(..., cone=True)``, which ``feqc
run`` uses on fock unless it emits states, walks only the readouts'
backward light cone from the vacuum (``circuit.light_cone``), so an
instruction no readout depends on costs nothing, and MAX_KEYS bounds the
cone's states.  ``sample`` reads the tree's leaves in chunks that each read
one label set (``leaf_table``) into one cumulative distribution and routes
shot i by the i-th double of one Philox stream keyed by the seed, so
identical inputs reproduce identical records and a run is a prefix of any
longer run with its seed.  When every leaf reads one outcome assignment (a
fock tree of one leaf, or a corr frontier whose spin-resolved leaves share
one row), every draw would pick it, so every shot takes it without a draw
and the sample loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from typing import TYPE_CHECKING, Any, Union

from . import fock
from .circuit import (Circuit, Conditional, Measure, PrepBell, PrepSpin, apply_instruction,
                      light_cone, unitary_steps, validate_circuit)
from .errors import FeqcError, PreconditionError
from .fock import FockState, Spin, mode_position, pruned

if TYPE_CHECKING:
    import numpy as np

BRANCH_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9
# Leaves one walk may create: about 20 times the largest benchmark tree.
MAX_LEAVES = 1 << 16
# Readouts one path of a tree may nest.  The walker, fock's terminal block and
# the tree readers take at most two frames per nested readout, so this leaves
# a caller about 200 of Python's default limit of 1000 frames.
MAX_DEPTH = 400
SAMPLE_BLOCK = 1 << 16  # shots drawn per numpy call: bounds the draw's memory

Branch = tuple[int, float, FockState]


REFUSED = -1  # the outcome of a key pattern a meter's table lacks

# One readout: (mask, outcome_of, refusal).  A key's outcome is
# outcome_of[key & mask]; a surviving node that holds a key whose pattern the
# table lacks raises PreconditionError(refusal).
Meter = tuple[int, dict[int, int], str]


def _born(state: FockState, measures, outcomes: dict[str, int], prob: float, count) -> BranchNode:
    """The walker's trailing run of readouts: the Born-rule subtree of the
    readouts ``measures``, made in turn on ``state``, below ``outcomes`` and
    ``prob``, its children in ascending outcome order.  The keys are grouped
    once, by their outcomes under every readout's meter, and a node's
    probability is its summed leaf mass over its parent's.  Every node drops
    the outcomes at or below BRANCH_THRESHOLD and renormalizes the rest, and
    a leaf's post-state is its group over the square root of its mass,
    pruned, so each node matches a readout of its parent's renormalized
    post-state.  A leaf keeps its group and mass and makes that post-state
    when it is first read (``BranchRecord``).  ``count(1)``, unless ``count``
    is None, is called before each leaf is made, in depth-first order.
    """
    meters = [_arm_meter(state.num_arms, ins.kind, ins.arm) for ins in measures]
    mask = 0
    for bits, _, _ in meters:
        mask |= bits
    groups: dict[tuple[int, ...], dict[int, complex]] = {}  # outcome path -> amplitudes
    group_of: dict[int, dict[int, complex]] = {}  # key & mask -> its path's group, filled lazily
    for key, amp in state.amplitudes.items():
        bits = key & mask
        group = group_of.get(bits)
        if group is None:  # a new bit pattern; a loop costs less here than a comprehension
            path = ()
            for m, outcome_of, _ in meters:
                path += (outcome_of.get(bits & m, REFUSED),)
            group = group_of[bits] = groups.setdefault(path, {})
        group[key] = amp
    # (path, mass, amplitudes) of every leaf, in the walker's order
    leaves = sorted([(path, sum([abs(a) ** 2 for a in group.values()]), group)
                     for path, group in groups.items()])
    readouts = ([ins.label for ins in measures], [refusal for _, _, refusal in meters],
                state.num_arms, count)
    return _expand(leaves, 0, 1.0, outcomes, prob, readouts)


def _expand(items: list, depth: int, mass: float, outcomes: dict[str, int], prob: float,
            readouts) -> BranchNode:
    """Readout ``depth``'s node of a _born run, below ``outcomes`` and
    ``prob``: ``items`` are the (path, mass, amplitudes) leaves below it,
    which share their first ``depth`` outcomes, and ``mass`` is theirs (1 at
    the root); ``readouts`` holds the run's (labels, refusals, num_arms,
    count).  The last readout's children are leaf records that hold their
    group and mass, not yet a post-state.  A module-level function, not a
    closure: a recursive closure is a reference cycle that would keep the
    state alive until the GC runs."""
    labels, refusals, num_arms, count = readouts
    if items and items[0][0][depth] == REFUSED:  # an empty state has no items
        raise PreconditionError(refusals[depth])
    last = depth == len(labels) - 1
    if not last:
        runs = [list(run) for _, run in groupby(items, key=lambda item: item[0][depth])]
        items = [(run[0][0], sum([m for _, m, _ in run]), run) for run in runs]
    kept = []
    total = 0  # as sum() starts: an empty node reports "sum to 0"
    for path, m, sub in items:
        if (p := m / mass) > BRANCH_THRESHOLD:
            kept.append((path[depth], p, m, sub))
            total += p
    # Report a kernel that lost norm instead of renormalizing it away.
    if abs(total - 1) > NORM_TOLERANCE:
        raise FeqcError(f"state norm drifted: outcome probabilities sum to {total!r}")
    nodes = []
    for outcome, p, m, sub in kept:
        p /= total
        path = {**outcomes, labels[depth]: outcome}
        if not last:
            child = _expand(sub, depth + 1, m, path, prob * p, readouts)
        else:
            if count is not None:
                count(1)
            child = object.__new__(BranchRecord)  # its post_state is made when first read
            child.outcomes, child.probability, child._cell = path, prob * p, [sub, m, num_arms]
        nodes.append((outcome, p, child))
    return BranchNode(labels[depth], nodes)


def _arm_meter(num_arms: int, kind: str, arm: int) -> Meter:
    """A charge, parity or spin readout of an arm of ``num_arms`` as a meter
    over both of its mode bits (validates the arm); the spin meter refuses
    every key whose arm does not hold exactly one electron."""
    up = 1 << mode_position((arm, Spin.UP), num_arms)
    down = up << 1
    both = up | down
    if kind == "charge":
        return both, {0: 0, up: 1, down: 1, both: 2}, ""
    if kind == "parity":
        return both, {0: 0, up: 1, down: 1, both: 0}, ""
    return both, {up: 0, down: 1}, f"measure_spin: arm {arm} must carry exactly one electron"


def _split(state: FockState, meter: Meter) -> list[Branch]:
    """One readout of ``state`` by its meter, as (outcome, probability,
    post-state) triples in ascending outcome order: a key of a pattern the
    meter lacks refuses the readout, an outcome at or below BRANCH_THRESHOLD
    is dropped, the rest are renormalized, and a post-state is its outcome's
    keys over the square root of their mass, pruned.  The same rules, and
    bits, as a one-readout run of ``_born``."""
    mask, outcome_of, refusal = meter
    groups: dict[int, dict[int, complex]] = {}  # outcome -> its keys' amplitudes
    group_of: dict[int, dict[int, complex]] = {}  # key & mask -> its outcome's group
    for key, amp in state.amplitudes.items():
        bits = key & mask
        group = group_of.get(bits)
        if group is None:
            group = group_of[bits] = groups.setdefault(outcome_of.get(bits, REFUSED), {})
        group[key] = amp
    if REFUSED in groups:
        raise PreconditionError(refusal)
    kept = []
    total = 0  # as sum() starts: an empty state reports "sum to 0"
    for outcome, group in sorted(groups.items()):
        mass = sum([abs(a) ** 2 for a in group.values()])
        if mass > BRANCH_THRESHOLD:
            kept.append((outcome, mass, group))
            total += mass
    # Report a kernel that lost norm instead of renormalizing it away.
    if abs(total - 1) > NORM_TOLERANCE:
        raise FeqcError(f"state norm drifted: outcome probabilities sum to {total!r}")
    return [(outcome, mass / total, _leaf_state(group, mass, state.num_arms))
            for outcome, mass, group in kept]


def measure_charge(state: FockState, arm: int) -> list[Branch]:
    """Electrometer: project onto occupation 0, 1 or 2 of the arm."""
    return _split(state, _arm_meter(state.num_arms, "charge", arm))


def measure_parity(state: FockState, arm: int) -> list[Branch]:
    """Parity meter: project onto even vs odd occupation of the arm.

    The even branch keeps the coherent superposition of its empty and doubly
    occupied components; that is what distinguishes it from an electrometer.
    """
    return _split(state, _arm_meter(state.num_arms, "parity", arm))


def measure_spin(state: FockState, arm: int) -> list[Branch]:
    """Read the spin of a singly occupied arm: 0 = up, 1 = down.

    The electron stays in place.  Arms without a definite single electron are
    rejected rather than silently projected.
    """
    return _split(state, _arm_meter(state.num_arms, "spin", arm))


def _leaf_state(group: dict[int, complex], mass: float, num_arms: int) -> FockState:
    """A leaf's post-state: its group over the square root of its mass,
    pruned.  The group is left as it is, so a read that fails part way, or
    two threads' first reads at once, give the same state."""
    norm = math.sqrt(mass)
    return FockState(num_arms, pruned({key: amp / norm for key, amp in group.items()}))


class _UnreadPostState:
    """The post_state of a BranchRecord made without one: a leaf of fock's
    terminal block (``_expand``) holds the cell [group, mass, num_arms]
    instead, and makes its post-state (``_leaf_state``) when it is first
    read.  The record then keeps the state and the cell appends it, so a
    copy made before that read reads the same state; the record drops the
    cell only once it holds the state, so a read that raises leaves it to be
    read again.  A descriptor without __set__: a record that has its
    post_state reads it as a plain attribute."""

    def __get__(self, record, owner=None):
        if record is None:  # read on the class: the field has no default
            raise AttributeError("post_state")
        cell = record.__dict__.get("_cell")
        if cell is None:  # another thread's first read stored the state after this lookup
            return record.__dict__["post_state"]
        if len(cell) == 3:
            cell.append(_leaf_state(*cell))
        record.post_state = state = cell[3]
        record.__dict__.pop("_cell", None)
        return state


@dataclass
class BranchRecord:
    """One outcome assignment, and the leaf of a branch tree that ends in it;
    ``post_state`` is the backend's state (a FockState).  It is None on every
    corr leaf: corr keeps its tree as arrays (FrontierNode), and their
    records are built when the node's leaves or children are first read.  A
    leaf of fock's terminal block (``_born``) keeps its group and mass, and
    makes its post-state when it is first read, through ``==``, ``repr`` and
    ``dataclasses.replace`` too; every later read gives the same object."""

    outcomes: dict[str, int]
    probability: float
    post_state: Any = _UnreadPostState()


@dataclass
class BranchNode:
    label: str
    children: list[tuple[int, float, Union["BranchNode", BranchRecord]]]


class FrontierNode(BranchNode):
    """The tree of a run of readouts from its root, kept as arrays.

    ``levels`` holds each readout's (label, parents, outcomes, probabilities)
    arrays: child i of a level hangs below entry parents[i] of the level
    above, and the first level hangs below this node.  ``rows`` is the (L, k)
    matrix of the leaves' outcomes over ``labels``, the readouts' labels, and
    ``probabilities`` the column of the leaves' probabilities, both in leaf
    order.  The leaf ``records``, and the ``children`` that nest them in
    BranchNodes, are built when first read; ``leaf_table`` reads the arrays
    without them."""

    def __init__(self, levels, probabilities: np.ndarray):
        import numpy as np

        self.label = levels[0][0]
        self.labels = tuple(label for label, *_ in levels)
        self.levels = levels
        self.probabilities = probabilities
        rows = np.empty((len(probabilities), len(self.labels)), np.int64)
        at = slice(None)  # each leaf's entry in the current level: the last level is the leaves
        for column, (_, parents, outcomes, _) in enumerate(reversed(levels), start=1):
            rows[:, -column] = outcomes[at]
            at = parents[at]
        self.rows = rows

    @cached_property
    def records(self) -> list[BranchRecord]:
        labels = self.labels
        return [BranchRecord(dict(zip(labels, row)), q, None)
                for row, q in zip(self.rows.tolist(), self.probabilities.tolist())]

    @cached_property
    def children(self):
        import numpy as np

        nodes = self.records
        above = [1] + [len(parents) for _, parents, _, _ in self.levels[:-1]]  # parents per level
        for (label, parents, outcomes, probabilities), count in zip(reversed(self.levels),
                                                                    reversed(above)):
            below = iter(zip(outcomes.tolist(), probabilities.tolist(), nodes))
            nodes = [BranchNode(label, list(islice(below, n)))
                     for n in np.bincount(parents, minlength=count).tolist()]
        return nodes[0].children


_MEASURE_FNS = {"charge": measure_charge, "parity": measure_parity, "spin": measure_spin}


def trailing_measures(instructions) -> int:
    """The number of Measures that ``instructions`` end with."""
    count = 0
    while count < len(instructions) and isinstance(instructions[-1 - count], Measure):
        count += 1
    return count


def admit_depth(readouts: int) -> None:
    """Refuse, before it is expanded, a tree that nests ``readouts`` readouts
    on a path, if that is more than MAX_DEPTH."""
    if readouts > MAX_DEPTH:
        raise FeqcError(f"branch tree: {readouts} nested readouts exceed the limit "
                        f"MAX_DEPTH = {MAX_DEPTH}")


# A prepared instruction: (labels, values, op, arg).  Its conditions'
# (label, value) pairs, outermost first, are split into the tuples ``labels``
# and ``values``, so a path runs it when its outcomes for ``labels`` are
# ``values``, one tuple compare; a plain instruction has none.  ``op`` is
# _ELEMENT with the element's fock.kernel_step steps, _PREPARATION with the
# instruction, or _READOUT with its (label, meter).
_ELEMENT, _PREPARATION, _READOUT = range(3)


@dataclass(frozen=True)
class Program:
    """Instructions prepared once for the walker: ``steps`` holds each
    instruction before the trailing run of readouts, prepared, ``trailing``
    that run's Measures, which ``_born`` reads, and ``readouts`` the number
    of readouts a path may nest."""

    steps: tuple[tuple[tuple[str, ...], tuple[int, ...], int, Any], ...]
    trailing: tuple[Measure, ...]
    readouts: int


def _prepare(instructions, num_arms: int) -> Program:
    """The walker's program of ``instructions`` on ``num_arms`` arms."""
    tail = len(instructions) - trailing_measures(instructions)
    steps = []
    readouts = len(instructions) - tail
    for op in instructions[:tail]:
        labels = values = ()
        while isinstance(op, Conditional):
            labels += (op.label,)
            values += (op.value,)
            op = op.op
        if isinstance(op, Measure):
            readouts += 1
            steps.append((labels, values, _READOUT,
                          (op.label, _arm_meter(num_arms, op.kind, op.arm))))
        elif isinstance(op, (PrepSpin, PrepBell)):
            steps.append((labels, values, _PREPARATION, op))
        else:
            steps.append((labels, values, _ELEMENT, [fock.kernel_step(modes, matrix, num_arms)
                                                     for modes, matrix in unitary_steps(op)]))
    return Program(tuple(steps), tuple(instructions[tail:]), readouts)


def _walk(program: Program, state: FockState) -> Union[BranchNode, BranchRecord]:
    """Expand a program from ``state`` into its measurement-outcome tree.

    A conditional runs on a path that read each of its labels' values, and
    is skipped on any other path, also one that did not read a label.  A
    mid-circuit readout splits the state by its meter (``_split``), one
    child per kept outcome, and the trailing run is read by ``_born`` on
    each path that reaches it.  A tree of more than MAX_LEAVES leaves is
    refused.
    """
    steps, trailing = program.steps, program.trailing
    end = len(steps)
    leaf_count = 0

    def count(n):
        nonlocal leaf_count
        leaf_count += n
        if leaf_count > MAX_LEAVES:
            raise FeqcError(f"branch tree: more leaves than the limit MAX_LEAVES = {MAX_LEAVES}")

    def expand(index, state, outcomes, prob):
        for i in range(index, end):
            labels, values, op, arg = steps[i]
            if labels and tuple(map(outcomes.get, labels)) != values:
                continue
            if op == _ELEMENT:
                state = fock.apply_kernel_steps(state, arg)
            elif op == _READOUT:
                label, meter = arg
                return BranchNode(label, [
                    (outcome, p, expand(i + 1, post, {**outcomes, label: outcome}, prob * p))
                    for outcome, p, post in _split(state, meter)
                ])
            else:
                state = apply_instruction(state, arg)
        if trailing:
            return _born(state, trailing, outcomes, prob, count)
        count(1)
        return BranchRecord(dict(outcomes), prob, state)

    return expand(0, state, {}, 1.0)


def _leaf_nodes(node, found: list) -> list:
    """Append the leaf records and FrontierNodes of a branch tree to
    ``found``, in leaf order, and return it; a FrontierNode, whose run may be
    deep, is not entered."""
    if isinstance(node, (BranchRecord, FrontierNode)):
        found.append(node)
    else:
        for _, _, child in node.children:
            _leaf_nodes(child, found)
    return found


def leaves(root) -> list[BranchRecord]:
    """The leaf records of a branch tree, in outcome order."""
    found = []
    for node in _leaf_nodes(root, []):
        if isinstance(node, FrontierNode):
            found.extend(node.records)
        else:
            found.append(node)
    return found


def _chunk_key(node) -> Union[int, tuple[str, ...]]:
    """A FrontierNode is a chunk of its own; a run of records that read the same labels is one."""
    return id(node) if isinstance(node, FrontierNode) else tuple(node.outcomes)


def leaf_table(root) -> list[tuple[tuple[str, ...], np.ndarray, np.ndarray]]:
    """The leaves of a branch tree, in the order of ``leaves``, as chunks
    (labels, rows, probabilities): every leaf of a chunk reads the chunk's
    labels, in that order, and row i of its (L, k) integer matrix holds leaf
    i's outcomes.  A FrontierNode is one chunk of its own arrays, its
    children not built; each run of leaf records that read the same labels
    is another."""
    return _chunks(_leaf_nodes(root, []))


def _chunks(nodes: list) -> list[tuple[tuple[str, ...], np.ndarray, np.ndarray]]:
    """``leaf_table`` of the leaf records and FrontierNodes ``nodes``, in leaf order."""
    import numpy as np

    chunks = []
    for key, run in groupby(nodes, _chunk_key):
        first = next(run)
        if isinstance(first, FrontierNode):
            chunks.append((first.labels, first.rows, first.probabilities))
        else:
            records = [first, *run]
            rows = np.array([list(rec.outcomes.values()) for rec in records], np.int64)
            chunks.append((key, rows, np.array([rec.probability for rec in records])))
    return chunks


def branch_tree(circuit: Circuit, input_state: FockState,
                *, cone: bool = False) -> Union[BranchNode, BranchRecord]:
    """Expand a circuit into its measurement-outcome tree; its trailing run
    of readouts is read in one pass over each state that reaches it.  The
    walker's program is prepared on the circuit's first walk and kept in
    ``circuit.programs``, so a circuit walked again only walks.

    With ``cone``, the walk runs from the vacuum ``input_state`` over the
    readouts' light cone (``circuit.light_cone``) on the circuit's own arm
    numbers, and the cone's trailing run is read in that pass.  The tree has
    the full circuit's labels, outcomes, order and probabilities, up to
    rounding, and every refusal but MAX_KEYS; its post-states hold only the
    cone's electrons."""
    validate_circuit(circuit)
    if input_state.num_arms != circuit.arm_count:
        raise ValueError("input state arm count does not match circuit")
    if cone and input_state.amplitudes.keys() != {0}:
        raise ValueError("the light cone is walked from the vacuum")
    program = circuit.programs.get(cone)
    if program is None:
        instructions = light_cone(circuit.instructions) if cone else circuit.instructions
        program = circuit.programs[cone] = _prepare(instructions, circuit.arm_count)
    admit_depth(program.readouts)  # the trailing run nests too
    return _walk(program, input_state)


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
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, shots, SAMPLE_BLOCK):
        u = rng.random(min(SAMPLE_BLOCK, shots - start))
        yield np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _sole_outcome(nodes: list) -> Union[dict[str, int], None]:
    """The outcome assignment, labels in order, that every one of the leaf
    records and FrontierNodes ``nodes`` reads, or None if they read more than
    one or there are none."""
    sole = None
    for node in nodes:
        if isinstance(node, FrontierNode):
            rows = node.rows
            if (rows != rows[0]).any():
                return None
            outcome = list(zip(node.labels, rows[0].tolist()))
        else:
            outcome = list(node.outcomes.items())
        if sole is None:
            sole = outcome
        elif outcome != sole:
            return None
    return None if sole is None else dict(sole)


@dataclass(eq=False)
class SampleResult:
    """Sampled shots: ``frequencies`` maps each outcome signature to its shot
    count, and ``records`` lists each shot's outcome assignment in shot
    order, each with the labels its leaf read.  ``draw`` is what the records
    are read from: the one outcome assignment every leaf reads, which every
    shot takes, or the leaves' chunks (as ``leaf_table`` gives them) and
    their cumulative distribution, from which the records are drawn again
    from the seeded stream when they are first read, so a caller that needs
    only the frequencies keeps nothing per shot."""

    frequencies: dict[str, int]
    draw: Union[dict[str, int], tuple[list, np.ndarray]]
    seed: int
    shots: int

    @cached_property
    def records(self) -> list[dict[str, int]]:
        if isinstance(self.draw, dict):
            return [self.draw] * self.shots
        chunks, cdf = self.draw
        outcomes = [dict(zip(labels, row)) for labels, rows, _ in chunks
                    for row in rows.tolist()]
        return [outcomes[i] for picks in _leaf_picks(cdf, self.seed, self.shots)
                for i in picks.tolist()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SampleResult) and self.frequencies == other.frequencies
                and self.records == other.records)


def sample_tree(root, seed: int, shots: int) -> SampleResult:
    """Draw shots from the leaves of a branch tree (see the module docstring).
    When every leaf reads one outcome assignment, every shot takes it: each
    draw would pick a leaf of that assignment, and nothing is drawn."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    nodes = _leaf_nodes(root, [])
    sole = _sole_outcome(nodes)
    if sole is not None:
        return SampleResult({outcome_signature(sole): shots}, sole, seed, shots)
    import numpy as np

    chunks = _chunks(nodes)
    cdf = np.cumsum(np.concatenate([probs for *_, probs in chunks]))
    counts = iter(sum(np.bincount(picks, minlength=len(cdf))
                      for picks in _leaf_picks(cdf, seed, shots)).tolist())
    frequencies: dict[str, int] = {}
    for labels, rows, _ in chunks:
        for row, count in zip(rows.tolist(), counts):  # takes this chunk's counts
            if count:  # corr leaves can share outcomes; their counts add
                key = outcome_signature(dict(zip(labels, row)))
                frequencies[key] = frequencies.get(key, 0) + count
    return SampleResult(dict(sorted(frequencies.items())), (chunks, cdf), seed, shots)


def sample(circuit: Circuit, input_state: FockState, seed: int, shots: int) -> SampleResult:
    """Seeded sampling over the circuit's branch tree; reproducible bit-for-bit."""
    return sample_tree(branch_tree(circuit, input_state), seed, shots)
