"""Line-oriented circuit language: one instruction per line, '#' comments.

    arms <N>
    electron <arm> up|down|plus
    electron <arm> (<re>,<im>) (<re>,<im>)
    bell <k:0..3> <arm_a> <arm_b>
    bs <i> <j> | pbs <i> <j> | swap <i> <j>
    rot <arm> x|y|z|h
    <label> = charge <arm> | <label> = parity <arm> | <label> = spin <arm>
    if <label> == <int> : rot <arm> x|y|z|h

Parsing never stops at the first problem: every line is scanned and every
independent diagnostic (with line, column and a stable code) is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import fock
from .circuit import (  # the diagnostic codes are re-exported from here
    ARITY, ARM_RANGE, ARMS_DECL, BAD_LITERAL, DUPLICATE_ARM, FORWARD_REFERENCE,
    LABEL_REDEFINED, RE_PREPARED, UNKNOWN_KEYWORD, UNKNOWN_LABEL,
    OUTCOME_COUNTS, ROTATION_NAMES, BeamSplitter, Circuit, Conditional, Instruction,
    Measure, PolarizingBeamSplitter, PrepBell, PrepSpin, SpinRotation, SwapArms,
    structural_problems,
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


_TOKEN_RE = re.compile(r"\S+")
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COMPLEX_RE = re.compile(r"\(([^,()]+),([^,()]+)\)\Z")

_TWO_ARM = {cls.keyword: cls for cls in (BeamSplitter, PolarizingBeamSplitter, SwapArms)}

_NAMED_SPINORS = {
    "up": (1 + 0j, 0j),
    "down": (0j, 1 + 0j),
    "plus": (1 + 0j, 1 + 0j),
}


class _LineError(Exception):
    def __init__(self, column: int, code: str, message: str):
        super().__init__(message)
        self.column = column
        self.code = code
        self.message = message


def _tokens(text: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]


def _parse_int(token: str, column: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise _LineError(column, BAD_LITERAL, f"{what}: expected an integer, got {token!r}")


def _parse_complex(token: str, column: int) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise _LineError(column, BAD_LITERAL, f"expected a (re,im) pair, got {token!r}")
    try:
        return complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        raise _LineError(column, BAD_LITERAL, f"malformed number in {token!r}")


def _need(tokens: list[tuple[str, int]], count: int, line_col: int, form: str) -> None:
    if len(tokens) != count:
        raise _LineError(line_col, ARITY, f"expected '{form}'")


def _parse_rotation(tokens: list[tuple[str, int]]) -> SpinRotation:
    """The '<arm> x|y|z|h' tail of a 'rot' or 'if' line."""
    (arm_text, arm_col), (name, ncol) = tokens
    arm = _parse_int(arm_text, arm_col, "arm")
    if name not in ROTATION_NAMES:
        raise _LineError(ncol, BAD_LITERAL, f"unknown rotation {name!r} (x|y|z|h)")
    return SpinRotation(arm, name)


def _parse_line(tokens: list[tuple[str, int]]) -> Instruction | tuple[str, int]:
    """One instruction, or ('arms', N) for the declaration line."""
    head, col0 = tokens[0]
    # A measurement line first, so that a label may spell a keyword.
    if len(tokens) >= 2 and tokens[1][0] == "=":
        label, lcol = tokens[0]
        if not _LABEL_RE.match(label):
            raise _LineError(lcol, BAD_LITERAL, f"bad label {label!r}")
        _need(tokens, 4, col0, "<label> = charge|parity|spin <arm>")
        kind, kcol = tokens[2]
        if kind not in OUTCOME_COUNTS:
            raise _LineError(kcol, UNKNOWN_KEYWORD, f"unknown measurement kind {kind!r}")
        arm = _parse_int(tokens[3][0], tokens[3][1], "arm")
        return Measure(label, kind, arm)
    if head == "arms":
        _need(tokens, 2, col0, "arms <N>")
        return ("arms", _parse_int(tokens[1][0], tokens[1][1], "arm count"))
    if head == "electron":
        if len(tokens) == 3:
            arm = _parse_int(tokens[1][0], tokens[1][1], "arm")
            name, ncol = tokens[2]
            if name not in _NAMED_SPINORS:
                raise _LineError(ncol, BAD_LITERAL, f"unknown spin {name!r} (up|down|plus)")
            alpha, beta = _NAMED_SPINORS[name]
            return PrepSpin(arm, alpha, beta)
        _need(tokens, 4, col0, "electron <arm> (<re>,<im>) (<re>,<im>)")
        arm = _parse_int(tokens[1][0], tokens[1][1], "arm")
        alpha = _parse_complex(tokens[2][0], tokens[2][1])
        beta = _parse_complex(tokens[3][0], tokens[3][1])
        try:
            fock.check_spinor(alpha, beta)
        except ValueError as err:
            raise _LineError(tokens[2][1], BAD_LITERAL, str(err))
        return PrepSpin(arm, alpha, beta)
    if head == "bell":
        _need(tokens, 4, col0, "bell <k> <arm_a> <arm_b>")
        k = _parse_int(tokens[1][0], tokens[1][1], "bell index")
        if k not in range(4):
            raise _LineError(tokens[1][1], BAD_LITERAL, f"bell index {k} not in 0..3")
        arm_a = _parse_int(tokens[2][0], tokens[2][1], "arm")
        arm_b = _parse_int(tokens[3][0], tokens[3][1], "arm")
        return PrepBell(k, arm_a, arm_b)
    if head in _TWO_ARM:
        _need(tokens, 3, col0, f"{head} <i> <j>")
        arm_i = _parse_int(tokens[1][0], tokens[1][1], "arm")
        arm_j = _parse_int(tokens[2][0], tokens[2][1], "arm")
        if arm_i == arm_j:
            raise _LineError(tokens[2][1], DUPLICATE_ARM, f"{head} needs two distinct arms")
        return _TWO_ARM[head](arm_i, arm_j)
    if head == "rot":
        _need(tokens, 3, col0, "rot <arm> x|y|z|h")
        return _parse_rotation(tokens[1:])
    if head == "if":
        if len(tokens) != 8 or tokens[2][0] != "==" or tokens[4][0] != ":" or tokens[5][0] != "rot":
            raise _LineError(col0, ARITY, "expected 'if <label> == <int> : rot <arm> x|y|z|h'")
        label, lcol = tokens[1]
        if not _LABEL_RE.match(label):
            raise _LineError(lcol, BAD_LITERAL, f"bad label {label!r}")
        value = _parse_int(tokens[3][0], tokens[3][1], "outcome")
        return Conditional(label, value, _parse_rotation(tokens[6:]))
    raise _LineError(col0, UNKNOWN_KEYWORD, f"unknown keyword {head!r}")


def parse(source: str) -> ParseResult:
    """Parse circuit text; returns a circuit only when no diagnostics fired.
    The circuit keeps its structural verdict, so no backend scans it again."""
    diagnostics: list[Diagnostic] = []
    parsed: list[tuple[int, int, Instruction]] = []  # (line, column, instruction)
    arm_count: int | None = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0]
        tokens = _tokens(text)
        if not tokens:
            continue
        try:
            item = _parse_line(tokens)
        except _LineError as err:
            diagnostics.append(Diagnostic(lineno, err.column, err.code, err.message))
            continue
        if isinstance(item, tuple):
            if arm_count is not None:
                diagnostics.append(
                    Diagnostic(lineno, tokens[0][1], ARMS_DECL, "arms declared twice")
                )
            elif parsed:
                diagnostics.append(
                    Diagnostic(
                        lineno, tokens[0][1], ARMS_DECL, "arms must be declared first"
                    )
                )
            elif item[1] < 1:
                diagnostics.append(
                    Diagnostic(lineno, tokens[1][1], BAD_LITERAL, "arm count must be >= 1")
                )
            else:
                arm_count = item[1]
            continue
        parsed.append((lineno, tokens[0][1], item))

    if arm_count is None:
        diagnostics.append(Diagnostic(1, 1, ARMS_DECL, "missing 'arms <N>' declaration"))

    instructions = [ins for _, _, ins in parsed]
    circuit = None if arm_count is None else Circuit(arm_count, instructions)
    if circuit is None or circuit.problem is not None:
        # Scan again, with source lines, to position every problem.
        lines = [lineno for lineno, _, _ in parsed]
        for index, code, message in structural_problems(arm_count, instructions, lines):
            diagnostics.append(Diagnostic(lines[index], parsed[index][1], code, message))
    diagnostics.sort(key=lambda d: (d.line, d.column))
    if diagnostics:
        return ParseResult(None, diagnostics)
    return ParseResult(circuit, [])
