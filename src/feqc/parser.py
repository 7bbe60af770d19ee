"""Line-oriented circuit language: one instruction per line, '#' comments.

    arms <N>
    electron <arm> up|down|plus
    electron <arm> (<re>,<im>) (<re>,<im>)
    bell <k:0..3> <arm_a> <arm_b>
    bs <i> <j> | pbs <i> <j> | swap <i> <j>
    rot <arm> x|y|z|h
    <label> = charge <arm> | <label> = parity <arm> | <label> = spin <arm>
    if <label> == <int> : <element, rot, readout or if line>

The parser reads only syntax: token counts, literals, labels, keywords,
spin names, and the place and count of the 'arms' line.  Every rule about
values is checked by ``circuit.structural_problems``, as for a circuit built
in code; a line with a bad value stays in the circuit for every other rule.
Parsing never stops at the first problem: every line is scanned and every
independent diagnostic (with line, column and a stable code) is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .circuit import (  # the diagnostic codes are re-exported from here
    ARITY, ARM_RANGE, ARMS_DECL, BAD_LITERAL, DUPLICATE_ARM, FORWARD_REFERENCE,
    LABEL_REDEFINED, NOT_CONDITIONAL, RE_PREPARED, UNKNOWN_KEYWORD, UNKNOWN_LABEL,
    NAMED_SPINORS, BeamSplitter, Circuit, Conditional, Instruction, Measure,
    PolarizingBeamSplitter, PrepBell, PrepSpin, SpinRotation, SwapArms, structural_problems,
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


@dataclass
class ParseResult:
    circuit: Circuit | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.circuit is not None and not self.diagnostics


_TOKEN_RE = re.compile(r"\S+")  # the tokens of str.split(), with their positions
_LINE_END_RE = re.compile(r"\r\n|\r|\n")
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COMPLEX_RE = re.compile(r"\(([^,()]+),([^,()]+)\)\Z")

_TWO_ARM = {cls.keyword: cls for cls in (BeamSplitter, PolarizingBeamSplitter, SwapArms)}
_KEYWORDS = {"arms", "electron", "bell", "rot", *_TWO_ARM}  # a stray '=' keeps these lines


class _LineError(Exception):
    """A problem on one line, at the token with the given index."""

    def __init__(self, index: int, code: str, message: str):
        super().__init__(message)
        self.index = index
        self.code = code
        self.message = message


def _column(text: str, index: int) -> int:
    """The 1-based column of token ``index`` of a line."""
    return [m.start() for m in _TOKEN_RE.finditer(text)][index] + 1


def _parse_int(tokens: list[str], index: int, what: str) -> int:
    try:
        return int(tokens[index], 10)
    except ValueError:
        raise _LineError(index, BAD_LITERAL,
                         f"{what}: expected an integer, got {tokens[index]!r}")


def _parse_complex(tokens: list[str], index: int) -> complex:
    m = _COMPLEX_RE.match(tokens[index])
    if not m:
        raise _LineError(index, BAD_LITERAL, f"expected a (re,im) pair, got {tokens[index]!r}")
    try:
        return complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        raise _LineError(index, BAD_LITERAL, f"malformed number in {tokens[index]!r}")


def _parse_label(tokens: list[str], index: int) -> str:
    if not _LABEL_RE.match(tokens[index]):
        raise _LineError(index, BAD_LITERAL, f"bad label {tokens[index]!r}")
    return tokens[index]


def _need(tokens: list[str], count: int, form: str) -> None:
    if len(tokens) != count:
        raise _LineError(0, ARITY, f"expected '{form}'")


def _is_readout(tokens: list[str]) -> bool:
    """Whether a line is a readout.  Readouts are recognized first, so that a
    label may spell a keyword, except on a keyword line without a readout's
    four tokens."""
    return (len(tokens) >= 2 and tokens[1] == "="
            and (len(tokens) == 4 or tokens[0] not in _KEYWORDS))


def _parse_line(tokens: list[str]) -> Instruction | int:
    """One instruction, or the N of an 'arms <N>' line."""
    head = tokens[0]
    if _is_readout(tokens):
        label = _parse_label(tokens, 0)
        _need(tokens, 4, "<label> = charge|parity|spin <arm>")
        return Measure(label, tokens[2], _parse_int(tokens, 3, "arm"))
    if head == "arms":
        _need(tokens, 2, "arms <N>")
        return _parse_int(tokens, 1, "arm count")
    if head == "electron":
        if len(tokens) == 3:
            arm = _parse_int(tokens, 1, "arm")
            if tokens[2] not in NAMED_SPINORS:
                raise _LineError(2, BAD_LITERAL, f"unknown spin {tokens[2]!r} (up|down|plus)")
            return PrepSpin(arm, *NAMED_SPINORS[tokens[2]])
        _need(tokens, 4, "electron <arm> (<re>,<im>) (<re>,<im>)")
        return PrepSpin(_parse_int(tokens, 1, "arm"), _parse_complex(tokens, 2),
                        _parse_complex(tokens, 3))
    if head == "bell":
        _need(tokens, 4, "bell <k> <arm_a> <arm_b>")
        return PrepBell(_parse_int(tokens, 1, "bell index"), _parse_int(tokens, 2, "arm"),
                        _parse_int(tokens, 3, "arm"))
    if head in _TWO_ARM:
        _need(tokens, 3, f"{head} <i> <j>")
        return _TWO_ARM[head](_parse_int(tokens, 1, "arm"), _parse_int(tokens, 2, "arm"))
    if head == "rot":
        _need(tokens, 3, "rot <arm> x|y|z|h")
        return SpinRotation(_parse_int(tokens, 1, "arm"), tokens[2])
    if head == "if":
        # Each leading 'if <label> == <int> :' wraps the rest of the line,
        # parsed as a line of its own at its token offset.
        start, conditions = 0, []  # the (label, value) of each 'if', outermost first
        while tokens[start] == "if" and tokens[start + 1:start + 2] != ["="]:
            if len(tokens) < start + 6 or tokens[start + 2] != "==" or tokens[start + 4] != ":":
                raise _LineError(start, ARITY, "expected 'if <label> == <int> : <instruction>'")
            conditions.append((_parse_label(tokens, start + 1),
                               _parse_int(tokens, start + 3, "outcome")))
            start += 5
        try:
            ins = _parse_line(tokens[start:])  # no conditional: the loop read every 'if'
        except _LineError as err:
            err.index += start
            raise
        if isinstance(ins, int):
            raise _LineError(start, NOT_CONDITIONAL, "'arms' cannot be conditional")
        for label, value in reversed(conditions):
            ins = Conditional(label, value, ins)
        return ins
    raise _LineError(0, UNKNOWN_KEYWORD, f"unknown keyword {head!r}")


def parse(source: str) -> ParseResult:
    """Parse circuit text; returns a circuit only when no diagnostics fired.
    The circuit keeps its structural verdict, so no backend scans it again.
    A line ends at '\n', '\r\n' or '\r' only.  Tokens are plain strings; a
    column is found, by one scan of its line, only for a recorded diagnostic."""
    diagnostics: list[Diagnostic] = []
    parsed: list[tuple[int, str, Instruction]] = []  # (line, text, instruction)
    arm_count: int | None = None
    declared = False  # a line is an 'arms' line, well-formed or not

    for lineno, raw in enumerate(_LINE_END_RE.split(source), start=1):
        text = raw.split("#", 1)[0]
        tokens = text.split()
        if not tokens:
            continue
        declared = declared or (tokens[0] == "arms" and not _is_readout(tokens))
        try:
            item = _parse_line(tokens)
            if isinstance(item, int):  # the first count >= 1 bounds the arms, also a late one
                if arm_count is not None:
                    raise _LineError(0, ARMS_DECL, "arms declared twice")
                if item >= 1:
                    arm_count = item
                if parsed:
                    raise _LineError(0, ARMS_DECL, "arms must be declared first")
                if item < 1:
                    raise _LineError(1, BAD_LITERAL, "arm count must be >= 1")
                continue
        except _LineError as err:
            diagnostics.append(Diagnostic(lineno, _column(text, err.index), err.code, err.message))
            continue
        parsed.append((lineno, text, item))

    if not declared:
        diagnostics.append(Diagnostic(1, 1, ARMS_DECL, "missing 'arms <N>' declaration"))

    instructions = [ins for _, _, ins in parsed]
    circuit = None if arm_count is None else Circuit(arm_count, instructions)
    if circuit is None or circuit.problem is not None:
        # Scan again, with source lines, to position every problem.
        lines = [lineno for lineno, _, _ in parsed]
        for index, token, code, message in structural_problems(arm_count, instructions, lines):
            lineno, text, _ = parsed[index]
            diagnostics.append(Diagnostic(lineno, _column(text, token), code, message))
    diagnostics.sort(key=lambda d: (d.line, d.column))
    if diagnostics:
        return ParseResult(None, diagnostics)
    return ParseResult(circuit, [])
