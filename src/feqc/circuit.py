"""Declarative circuit description: preps, optical elements, labeled
measurements and feedforward conditionals, plus structural validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence, Union

from . import fock
from .errors import CircuitError

# Number of outcomes of each measurement kind: charge 0..2, parity and spin 0..1.
OUTCOME_COUNTS = {"charge": 3, "parity": 2, "spin": 2}
ROTATION_NAMES = tuple(fock.ROTATIONS)  # x, y, z, h
# The spinors an 'electron' line may name instead of giving two amplitudes.
NAMED_SPINORS = {"up": (1 + 0j, 0j), "down": (0j, 1 + 0j), "plus": (1 + 0j, 1 + 0j)}
_SPINOR_NAMES = {spinor: name for name, spinor in NAMED_SPINORS.items()}

# Diagnostic codes, one per failure class.
UNKNOWN_KEYWORD = "unknown-keyword"
ARITY = "arity"
BAD_LITERAL = "bad-literal"
ARM_RANGE = "arm-range"
DUPLICATE_ARM = "duplicate-arm"
LABEL_REDEFINED = "label-redefined"
FORWARD_REFERENCE = "forward-reference"
UNKNOWN_LABEL = "unknown-label"
RE_PREPARED = "re-prepared"
ARMS_DECL = "arms-decl"
NOT_CONDITIONAL = "not-conditional"


@dataclass(frozen=True)
class PrepSpin:
    arm: int
    alpha: complex
    beta: complex
    keyword: ClassVar[str] = "electron"


@dataclass(frozen=True)
class PrepBell:
    k: int
    arm_a: int
    arm_b: int
    keyword: ClassVar[str] = "bell"


@dataclass(frozen=True)
class TwoArmElement:
    """An element on two arms; ``keyword`` names it in the circuit language
    and in the element table ``fock.TWO_ARM_ELEMENTS``."""

    arm_i: int
    arm_j: int
    keyword: ClassVar[str]


class BeamSplitter(TwoArmElement):
    keyword = "bs"


class PolarizingBeamSplitter(TwoArmElement):
    keyword = "pbs"


class SwapArms(TwoArmElement):
    keyword = "swap"


@dataclass(frozen=True)
class SpinRotation:
    arm: int
    name: str


@dataclass(frozen=True)
class Measure:
    label: str
    kind: str
    arm: int


@dataclass(frozen=True)
class Conditional:
    """``op`` (an element, readout or conditional), run on a path whose
    outcome for ``label`` is ``value``; a path that did not read it skips it."""

    label: str
    value: int
    op: Instruction


Instruction = Union[
    PrepSpin, PrepBell, BeamSplitter, PolarizingBeamSplitter, SwapArms,
    SpinRotation, Measure, Conditional,
]


@dataclass(frozen=True)
class Circuit:
    """A declared arm count and a tuple of instructions (a list passed in is
    converted).  Circuit and instructions are frozen, so a circuit is checked
    once, when it is made: ``problem`` is the message of its first structural
    problem, or None for a valid circuit.  ``programs`` holds the fock
    walker's programs of the circuit, one for the full walk and one for the
    light-cone walk, each prepared on its first walk
    (``measurement.branch_tree``)."""

    arm_count: int
    instructions: tuple[Instruction, ...] = ()
    problem: str | None = field(init=False, repr=False, compare=False)
    programs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "programs", {})
        problem = None
        if self.arm_count < 1:
            problem = "arm count must be >= 1"
        else:
            for _, _, _, problem in structural_problems(self.arm_count, self.instructions):
                break
        object.__setattr__(self, "problem", problem)


def structural_problems(
    arm_count: int | None,
    instructions: Sequence[Instruction],
    lines: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, str, str]]:
    """Yield (instruction index, token, code, message) for every structural
    problem of a parsed circuit or one built in code: the one check of every
    rule about values.  A line with a bad value counts for every other rule.

    ``token`` indexes the line's tokens as the parser reads them and
    ``print_circuit`` writes them, each 'if' prefix 5 tokens; a finding that
    relates the line to others or to the arm count is at token 0.  ``lines``
    gives each instruction's source line for messages that point at another
    one (by default its line in ``print_circuit``'s output).  ``arm_count``
    None (no valid declaration) only checks arms >= 1.
    """
    if lines is None:
        lines = range(2, len(instructions) + 2)
    unwrapped = [unwrap(ins) for ins in instructions]
    first_measure: dict[str, int] = {}
    for i, (_, op) in enumerate(unwrapped):
        if isinstance(op, Measure):
            first_measure.setdefault(op.label, i)

    top = float("inf") if arm_count is None else arm_count
    bound = "must be >= 1" if arm_count is None else f"out of range 1..{arm_count}"
    prepared: set[int] = set()  # the arms of unconditional preparations so far
    reported = set()  # condition findings: a label repeated on a line is reported once

    def arm_problems(i: int, arms: tuple[int, ...], prepares: bool = False):
        for arm in arms if arms[0] != arms[-1] else arms[:1]:  # equal arms: duplicate-arm
            if not 1 <= arm <= top:
                yield i, 0, ARM_RANGE, f"arm {arm} {bound}"
            if prepares:
                if arm in prepared:
                    yield i, 0, RE_PREPARED, f"arm {arm} prepared twice"
                prepared.add(arm)

    for i, (conditions, ins) in enumerate(unwrapped):
        at = 5 * len(conditions)  # the instruction's first token, after its 'if' prefixes
        if isinstance(ins, TwoArmElement):
            yield from arm_problems(i, (ins.arm_i, ins.arm_j))
            if ins.arm_i == ins.arm_j:
                yield i, at + 2, DUPLICATE_ARM, f"{ins.keyword} needs two distinct arms"
        elif isinstance(ins, SpinRotation):
            if not 1 <= ins.arm <= top:
                yield i, 0, ARM_RANGE, f"arm {ins.arm} {bound}"
            if ins.name not in ROTATION_NAMES:
                yield i, at + 2, BAD_LITERAL, f"unknown rotation {ins.name!r} (x|y|z|h)"
        elif isinstance(ins, Measure):
            first = first_measure[ins.label]
            if first != i:
                yield (i, 0, LABEL_REDEFINED,
                       f"label {ins.label!r} already defined on line {lines[first]}")
            if not 1 <= ins.arm <= top:
                yield i, 0, ARM_RANGE, f"arm {ins.arm} {bound}"
            if ins.kind not in OUTCOME_COUNTS:
                yield i, at + 2, UNKNOWN_KEYWORD, f"unknown measurement kind {ins.kind!r}"
        elif isinstance(ins, (PrepSpin, PrepBell)):
            if conditions:
                yield i, at, NOT_CONDITIONAL, f"{ins.keyword!r} cannot be conditional"
            if isinstance(ins, PrepBell) and ins.k not in fock.BELL_COEFFS:
                yield i, at + 1, BAD_LITERAL, f"bell index {ins.k} not in 0..3"
            yield from arm_problems(i, instruction_arms(ins), prepares=not conditions)
            if isinstance(ins, PrepSpin):
                try:
                    fock.check_spinor(ins.alpha, ins.beta)
                except ValueError as err:
                    yield i, at + 2, BAD_LITERAL, str(err)
            elif ins.arm_a == ins.arm_b:
                yield i, at + 3, DUPLICATE_ARM, "bell needs two distinct arms"
        else:
            yield i, 0, UNKNOWN_KEYWORD, f"unknown instruction {ins!r}"
        for cond in conditions:
            first = first_measure.get(cond.label)
            if first is None:
                finding = UNKNOWN_LABEL, f"label {cond.label!r} is never measured"
            elif first == i:
                finding = (FORWARD_REFERENCE,
                           f"label {cond.label!r} is read by this line's own readout")
            elif first > i:
                finding = (FORWARD_REFERENCE,
                           f"label {cond.label!r} is measured later (line {lines[first]})")
            else:
                kind = unwrapped[first][1].kind
                count = OUTCOME_COUNTS.get(kind)
                if count is None or cond.value in range(count):
                    continue
                finding = (BAD_LITERAL, f"outcome {cond.value} never occurs: "
                           f"{kind} label {cond.label!r} reads 0..{count - 1}")
            if (i, *finding) not in reported:
                reported.add((i, *finding))
                yield i, 0, *finding


def validate_circuit(circuit: Circuit) -> None:
    """Raise CircuitError on the circuit's first structural problem, found
    when the circuit was made."""
    if circuit.problem is not None:
        raise CircuitError(circuit.problem)


def unwrap(ins: Instruction) -> tuple[list[Conditional], Instruction]:
    """An instruction's conditionals, outermost first, and what they hold."""
    conditions = []
    while isinstance(ins, Conditional):
        conditions.append(ins)
        ins = ins.op
    return conditions, ins


def readout_of(ins: Instruction) -> Measure | None:
    """The readout an instruction makes, plain or under conditionals, or None."""
    while isinstance(ins, Conditional):
        ins = ins.op
    return ins if isinstance(ins, Measure) else None


def instruction_arms(ins: Instruction) -> tuple[int, ...]:
    """The arms a preparation, readout or element (plain or conditional) acts on."""
    op = ins
    while isinstance(op, Conditional):
        op = op.op
    if isinstance(op, TwoArmElement):
        return op.arm_i, op.arm_j
    if isinstance(op, PrepBell):
        return op.arm_a, op.arm_b
    return (op.arm,)


def light_cone(instructions: Sequence[Instruction]) -> list[Instruction]:
    """The instructions that the readouts of a circuit run from the vacuum
    depend on, in circuit order: the backward light cone of its readouts.

    Walking backward, a readout is kept and makes its arm needed from that
    point back.  An element or conditional that touches a needed arm is kept,
    and its arms become needed.  An electron or entangled pair is kept if one
    of its arms is needed, or if an earlier element touched one of them,
    because its occupancy check reads that arm; its arms become needed too.
    A dropped instruction acts only on arms that no kept instruction after it
    touches, so it commutes to the end of the circuit, where no readout sees
    it, and every kept state restricted to the needed arms is the full
    circuit's.  A dropped preparation finds its arms empty, so it refuses
    nothing.
    """
    arms_of = []  # each instruction's arms
    touched: set[int] = set()  # arms an element before the current instruction touched
    reads = set()  # the readouts, and the preparations whose occupancy check reads an arm
    for i, ins in enumerate(instructions):
        arms = instruction_arms(ins)
        arms_of.append(arms)
        if readout_of(ins) is not None:
            reads.add(i)
        elif isinstance(ins, (PrepSpin, PrepBell)):
            if not touched.isdisjoint(arms):
                reads.add(i)
        else:
            touched.update(arms)
    needed: set[int] = set()
    kept = []
    for i in reversed(range(len(instructions))):
        ins, arms = instructions[i], arms_of[i]
        if i in reads or not needed.isdisjoint(arms):
            kept.append(ins)
            needed.update(arms)
    kept.reverse()
    return kept


def unitary_steps(ins: Instruction) -> list[fock.Step]:
    """The (mode pair, 2x2 unitary) steps of an optical element; both backends
    apply elements through this."""
    if isinstance(ins, SpinRotation):
        return fock.rotation_steps(ins.arm, fock.ROTATIONS[ins.name])
    if isinstance(ins, TwoArmElement):
        return fock.two_arm_steps(ins.keyword, ins.arm_i, ins.arm_j)
    raise CircuitError(f"cannot apply {ins!r} directly")


def apply_instruction(state: fock.FockState, ins: Instruction) -> fock.FockState:
    """Apply a preparation or optical element (measurements are handled by the
    measurement module, conditionals by the branch walker)."""
    if isinstance(ins, PrepSpin):
        return fock.prepare_spin(state, ins.arm, ins.alpha, ins.beta)
    if isinstance(ins, PrepBell):
        return fock.prepare_bell(state, ins.k, ins.arm_a, ins.arm_b)
    for modes, matrix in unitary_steps(ins):
        state = fock.apply_single_particle_unitary(state, modes, matrix)
    return state


def _complex_literal(z: complex) -> str:
    return f"({z.real!r},{z.imag!r})"


def _spinor_text(alpha: complex, beta: complex) -> str:
    name = _SPINOR_NAMES.get((complex(alpha), complex(beta)))
    if name is not None:
        return name
    return f"{_complex_literal(alpha)} {_complex_literal(beta)}"


def print_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format accepted by the parser."""
    lines = [f"arms {circuit.arm_count}"]
    for conditions, ins in map(unwrap, circuit.instructions):
        prefix = "".join(f"if {cond.label} == {cond.value} : " for cond in conditions)
        if isinstance(ins, PrepSpin):
            lines.append(f"{prefix}electron {ins.arm} {_spinor_text(ins.alpha, ins.beta)}")
        elif isinstance(ins, PrepBell):
            lines.append(f"{prefix}bell {ins.k} {ins.arm_a} {ins.arm_b}")
        elif isinstance(ins, TwoArmElement):
            lines.append(f"{prefix}{ins.keyword} {ins.arm_i} {ins.arm_j}")
        elif isinstance(ins, SpinRotation):
            lines.append(f"{prefix}rot {ins.arm} {ins.name}")
        elif isinstance(ins, Measure):
            lines.append(f"{prefix}{ins.label} = {ins.kind} {ins.arm}")
        else:
            raise CircuitError(f"cannot print {ins!r}")
    return "\n".join(lines) + "\n"
