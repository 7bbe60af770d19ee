"""Projective charge, parity and spin measurements with Born-rule branching.

Measurements return every outcome with probability above the branch
threshold, each with its renormalized post-state.  One Born-rule routine,
``_born``, reads a run of readouts from a state in one pass over its keys
into the walker's nodes; a single ``measure_*`` call is its one-readout
case.  A leaf of that pass keeps its group of keys and its mass, and
normalizes the group into its post-state when the post-state is first read,
so a report that reads only outcomes and probabilities normalizes nothing.
``enumerate_branches`` expands a circuit into the full outcome tree
through the branch walker, ``walk``, which hands the circuit's trailing run
of readouts to that routine on every path that reaches it.  ``branch_tree(..., cone=True)``, which
``feqc run`` uses on fock unless it emits states, walks only the readouts'
backward light cone from the vacuum (``circuit.light_cone``), so an
instruction no readout depends on costs nothing, and MAX_KEYS bounds the
cone's states.  ``sample`` reads the tree's leaves in chunks that each read
one label set (``leaf_table``) into one cumulative distribution and routes
shot i by the i-th double of one Philox stream keyed by the seed, so
identical inputs reproduce identical records and a run is a prefix of any
longer run with its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from typing import TYPE_CHECKING, Any, Union

from .circuit import (Circuit, Conditional, Measure, apply_instruction, light_cone,
                      readout_of, validate_circuit)
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
    """Fock's terminal-block hook for ``walk``: the Born-rule subtree of the
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
    meters = [_arm_meter(state, ins.kind, ins.arm) for ins in measures]
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


def _arm_meter(state: FockState, kind: str, arm: int) -> Meter:
    """A charge, parity or spin readout of an arm as a meter over both of its
    mode bits (validates the arm); the spin meter refuses every key whose
    arm does not hold exactly one electron."""
    up = 1 << mode_position((arm, Spin.UP), state.num_arms)
    down = up << 1
    both = up | down
    if kind == "charge":
        return both, {0: 0, up: 1, down: 1, both: 2}, ""
    if kind == "parity":
        return both, {0: 0, up: 1, down: 1, both: 0}, ""
    return both, {up: 0, down: 1}, f"measure_spin: arm {arm} must carry exactly one electron"


def _measure(state: FockState, kind: str, arm: int) -> list[Branch]:
    """An arm's readout as the (outcome, probability, post-state) triples of a _born node."""
    node = _born(state, [Measure("", kind, arm)], {}, 1.0, None)
    return [(outcome, p, leaf.post_state) for outcome, p, leaf in node.children]


def measure_charge(state: FockState, arm: int) -> list[Branch]:
    """Electrometer: project onto occupation 0, 1 or 2 of the arm."""
    return _measure(state, "charge", arm)


def measure_parity(state: FockState, arm: int) -> list[Branch]:
    """Parity meter: project onto even vs odd occupation of the arm.

    The even branch keeps the coherent superposition of its empty and doubly
    occupied components; that is what distinguishes it from an electrometer.
    """
    return _measure(state, "parity", arm)


def measure_spin(state: FockState, arm: int) -> list[Branch]:
    """Read the spin of a singly occupied arm: 0 = up, 1 = down.

    The electron stays in place.  Arms without a definite single electron are
    rejected rather than silently projected.
    """
    return _measure(state, "spin", arm)


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
    ``post_state`` is the backend's state (a FockState, or a
    CorrelationMatrix on the corr backend).  It is None on
    corr leaves made by a terminal block of charge readouts, which keeps no
    matrix per leaf: that block keeps its leaves as arrays (FrontierNode),
    and their records are built when its children are first read.  A leaf
    of fock's terminal block (``_born``) keeps its group and mass, and makes
    its post-state when it is first read, through ``==``, ``repr`` and
    ``dataclasses.replace`` too; every later read gives the same object."""

    outcomes: dict[str, int]
    probability: float
    post_state: Any = _UnreadPostState()


@dataclass
class BranchNode:
    label: str
    children: list[tuple[int, float, Union["BranchNode", BranchRecord]]]


class FrontierNode(BranchNode):
    """The subtree of a run of readouts, kept as arrays.

    ``levels`` holds each readout's (label, parents, outcomes, probabilities)
    arrays: child i of a level hangs below entry parents[i] of the level
    above, and the first level hangs below this node.  ``rows`` is the (L, k)
    matrix of the leaves' outcomes over ``labels``, which start with the
    labels of the readouts above the subtree (their outcomes are
    ``prefix``), and ``probabilities`` the column of the leaves'
    probabilities, both in leaf order.  The leaf ``records``, and the
    ``children`` that nest them in BranchNodes, are built when first read;
    ``leaf_table`` reads the arrays without them."""

    def __init__(self, prefix: dict[str, int], levels, probabilities: np.ndarray):
        import numpy as np

        self.label = levels[0][0]
        self.labels = (*prefix, *(label for label, *_ in levels))
        self.levels = levels
        self.probabilities = probabilities
        rows = np.empty((len(probabilities), len(self.labels)), np.int64)
        if prefix:
            rows[:, :len(prefix)] = tuple(prefix.values())
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


def walk(instructions, state, apply, branches, block=None) -> Union[BranchNode, BranchRecord]:
    """Expand instructions from ``state`` into the measurement-outcome tree.

    The backend supplies ``apply(state, ins)`` for preparations and elements,
    and ``branches(state, measure, prob)`` returning a readout's (outcome,
    probability, post-state) list, ``prob`` being the path's probability.
    A conditional runs its op (an element, a readout or a conditional) on a
    path that read its label's value, and is skipped on any other path, also
    one that did not read the label.  A backend may also pass
    ``block`` = (start, hook), where the instructions from ``start`` on are
    Measures, for ``hook(state, measures, outcomes, prob, count)`` to take
    over those readouts on each path that reaches them.  It returns their subtree,
    whose leaves extend ``outcomes`` and whose probabilities are ``prob``
    times the readouts' products, in the order the walker would have made
    them.  The hook calls ``count(n)`` before its tree grows by n leaves,
    counting every leaf it makes.  Every other readout branches through
    ``branches``.  Fock's hook groups the state's keys once for the whole
    run and builds its nodes from the groups (``_born``); corr's stacks
    every live branch's matrix block and returns the run as one
    FrontierNode, which keeps its leaves as arrays and builds its children
    when they are first read (``corr.charge_branch_tree``).
    A tree of more than MAX_LEAVES leaves is refused.
    """
    leaf_count = 0
    tail, hook = block or (None, None)

    def count(n):
        nonlocal leaf_count
        leaf_count += n
        if leaf_count > MAX_LEAVES:
            raise FeqcError(f"branch tree: more leaves than the limit MAX_LEAVES = {MAX_LEAVES}")

    def expand(index, state, outcomes, prob):
        for i in range(index, len(instructions)):
            ins = instructions[i]
            if i == tail:
                return hook(state, instructions[tail:], outcomes, prob, count)
            while isinstance(ins, Conditional) and outcomes.get(ins.label) == ins.value:
                ins = ins.op
            if isinstance(ins, Measure):
                return BranchNode(ins.label, [
                    (outcome, p, expand(i + 1, post, {**outcomes, ins.label: outcome}, prob * p))
                    for outcome, p, post in branches(state, ins, prob)
                ])
            if not isinstance(ins, Conditional):
                state = apply(state, ins)
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
    import numpy as np

    chunks = []
    for key, run in groupby(_leaf_nodes(root, []), _chunk_key):
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
    of readouts is read in one pass over each state that reaches it.

    With ``cone``, the walk runs from the vacuum ``input_state`` over the
    readouts' light cone (``circuit.light_cone``) on the circuit's own arm
    numbers, and the cone's trailing run is read in that pass.  The tree has
    the full circuit's labels, outcomes, order and probabilities, up to
    rounding, and every refusal but MAX_KEYS; its post-states hold only the
    cone's electrons."""
    validate_circuit(circuit)
    if input_state.num_arms != circuit.arm_count:
        raise ValueError("input state arm count does not match circuit")
    instructions = circuit.instructions
    if cone:
        if input_state.amplitudes.keys() != {0}:
            raise ValueError("the light cone is walked from the vacuum")
        instructions = light_cone(instructions)
    admit_depth(sum(readout_of(ins) is not None for ins in instructions))  # the block nests too
    return walk(instructions, input_state, apply_instruction,
                lambda state, ins, _prob: _MEASURE_FNS[ins.kind](state, ins.arm),
                (len(instructions) - trailing_measures(instructions), _born))


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


@dataclass(eq=False)
class SampleResult:
    """Sampled shots: ``frequencies`` maps each outcome signature to its shot
    count, and ``records`` lists each shot's outcome assignment in shot
    order, each with the labels its leaf read.  The result keeps the draw,
    the leaves' ``chunks`` (as ``leaf_table`` gives them) and their ``cdf``,
    and draws the records again from the seeded stream when they are first
    read, so a caller that needs only the frequencies keeps nothing per
    shot."""

    frequencies: dict[str, int]
    chunks: list[tuple[tuple[str, ...], np.ndarray, np.ndarray]]
    cdf: np.ndarray
    seed: int
    shots: int

    @cached_property
    def records(self) -> list[dict[str, int]]:
        outcomes = [dict(zip(labels, row)) for labels, rows, _ in self.chunks
                    for row in rows.tolist()]
        return [outcomes[i] for picks in _leaf_picks(self.cdf, self.seed, self.shots)
                for i in picks.tolist()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SampleResult) and self.frequencies == other.frequencies
                and self.records == other.records)


def sample_tree(root, seed: int, shots: int) -> SampleResult:
    """Draw shots from the leaves of a branch tree (see the module docstring)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    import numpy as np

    chunks = leaf_table(root)
    cdf = np.cumsum(np.concatenate([probs for *_, probs in chunks]))
    counts = iter(sum(np.bincount(picks, minlength=len(cdf))
                      for picks in _leaf_picks(cdf, seed, shots)).tolist())
    frequencies: dict[str, int] = {}
    for labels, rows, _ in chunks:
        for row, count in zip(rows.tolist(), counts):  # takes this chunk's counts
            if count:  # corr leaves can share outcomes; their counts add
                key = outcome_signature(dict(zip(labels, row)))
                frequencies[key] = frequencies.get(key, 0) + count
    return SampleResult(dict(sorted(frequencies.items())), chunks, cdf, seed, shots)


def sample(circuit: Circuit, input_state: FockState, seed: int, shots: int) -> SampleResult:
    """Seeded sampling over the circuit's branch tree; reproducible bit-for-bit."""
    return sample_tree(branch_tree(circuit, input_state), seed, shots)
