"""Circuit language: valid corpus, diagnostic corpus, and round-tripping."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest

from feqc import circuit as circuit_module
from feqc import cli, parser
from feqc.circuit import (BeamSplitter, Circuit, Conditional, Measure, PolarizingBeamSplitter,
                          PrepBell, PrepSpin, SpinRotation, SwapArms, validate_circuit)
from feqc.errors import CircuitError
from feqc.fock import vacuum
from feqc.measurement import enumerate_branches
from feqc.parser import (
    ARITY,
    ARM_RANGE,
    ARMS_DECL,
    BAD_LITERAL,
    DUPLICATE_ARM,
    FORWARD_REFERENCE,
    LABEL_REDEFINED,
    NOT_CONDITIONAL,
    RE_PREPARED,
    UNKNOWN_KEYWORD,
    UNKNOWN_LABEL,
    parse,
)
from feqc.circuit import print_circuit

DATA = Path(__file__).parent / "data"

# Every valid corpus file, the gadget circuits under tests/data/gadgets included.
VALID_FILES = sorted(p.relative_to(DATA).as_posix() for p in DATA.rglob("*.feqc")
                     if p.parent.name != "invalid")

EXPECTED_CODES = {
    "unknown_keyword.feqc": UNKNOWN_KEYWORD,
    "arity.feqc": ARITY,
    "bad_literal.feqc": BAD_LITERAL,
    "bad_spin.feqc": BAD_LITERAL,
    "bell_range.feqc": BAD_LITERAL,
    "arm_range.feqc": ARM_RANGE,
    "duplicate_arm.feqc": DUPLICATE_ARM,
    "label_redefined.feqc": LABEL_REDEFINED,
    "forward_reference.feqc": FORWARD_REFERENCE,
    "unknown_label.feqc": UNKNOWN_LABEL,
    "re_prepared.feqc": RE_PREPARED,
    "arms_decl.feqc": ARMS_DECL,
    "bad_rotation.feqc": BAD_LITERAL,
    "conditional_prep.feqc": NOT_CONDITIONAL,
    "label_redefined_in_branches.feqc": LABEL_REDEFINED,
    "conditional_on_own_readout.feqc": FORWARD_REFERENCE,
}


def test_corpus_is_large_enough():
    assert len(VALID_FILES) >= 10
    assert len(list((DATA / "invalid").glob("*.feqc"))) >= 10


@pytest.mark.parametrize("name", VALID_FILES)
def test_valid_corpus_parses_and_runs(name):
    result = parse((DATA / name).read_text(encoding="utf-8"))
    assert result.ok, [str(d) for d in result.diagnostics]
    records = enumerate_branches(result.circuit, vacuum(result.circuit.arm_count))
    assert abs(sum(r.probability for r in records) - 1.0) <= 1e-9


@pytest.mark.parametrize("name,code", sorted(EXPECTED_CODES.items()))
def test_invalid_corpus_reports_intended_code(name, code):
    result = parse((DATA / "invalid" / name).read_text(encoding="utf-8"))
    assert result.circuit is None
    codes = {d.code for d in result.diagnostics}
    assert code in codes, [str(d) for d in result.diagnostics]


# Every diagnostic of each file in tests/data/invalid, in the order parse reports them.
INVALID_DIAGNOSTICS = {
    "arity.feqc": ["2:1: arity: expected 'bs <i> <j>'"],
    "arm_range.feqc": ["2:1: arm-range: arm 3 out of range 1..2"],
    "arms_decl.feqc": ["2:1: arms-decl: arms must be declared first"],
    "bad_literal.feqc": ["2:10: bad-literal: arm: expected an integer, got 'one'"],
    "bad_rotation.feqc": ["3:7: bad-literal: unknown rotation 'q' (x|y|z|h)"],
    "bad_spin.feqc": ["2:12: bad-literal: unknown spin 'sideways' (up|down|plus)"],
    "bell_range.feqc": ["2:6: bad-literal: bell index 5 not in 0..3"],
    "conditional_duplicate_arm.feqc": [
        "3:1: forward-reference: label 'q' is measured later (line 4)",
        "3:18: duplicate-arm: bs needs two distinct arms"],
    "conditional_on_own_readout.feqc": [
        "3:1: forward-reference: label 'q' is read by this line's own readout"],
    "conditional_prep.feqc": ["4:13: not-conditional: 'electron' cannot be conditional",
                              "5:13: not-conditional: 'bell' cannot be conditional",
                              "6:13: not-conditional: 'arms' cannot be conditional"],
    "duplicate_arm.feqc": ["3:6: duplicate-arm: bs needs two distinct arms"],
    "forward_reference.feqc": ["3:1: forward-reference: label 'q' is measured later (line 4)"],
    "label_redefined.feqc": ["4:1: label-redefined: label 'q' already defined on line 3"],
    "label_redefined_in_branches.feqc": [
        "6:1: label-redefined: label 'r' already defined on line 5"],
    "multi_error.feqc": ["3:1: unknown-keyword: unknown keyword 'bc'",
                         "4:1: forward-reference: label 'q' is measured later (line 5)",
                         "6:6: duplicate-arm: bs needs two distinct arms"],
    "re_prepared.feqc": ["3:1: re-prepared: arm 1 prepared twice"],
    "unknown_keyword.feqc": ["3:1: unknown-keyword: unknown keyword 'splitter'"],
    "unknown_label.feqc": ["3:1: unknown-label: label 'w' is never measured"],
}


def test_invalid_corpus_diagnostics_in_full():
    found = {path.name: [str(d) for d in
                         parse(path.read_text(encoding="utf-8")).diagnostics]
             for path in sorted((DATA / "invalid").glob("*.feqc"))}
    assert found == INVALID_DIAGNOSTICS


def test_only_newline_carriage_return_and_crlf_end_a_line():
    # A form feed, and the other characters str.splitlines also breaks at,
    # are whitespace inside a line, so line numbers match an editor's.
    for source in ("arms 2\nelectron 1 up\n\f\nbs 1 1\n", "arms 2\r\nelectron 1 up\r\rbs 1 1"):
        assert [str(d) for d in parse(source).diagnostics] == [
            "4:6: duplicate-arm: bs needs two distinct arms"]
    assert [str(d) for d in parse("arms 1\velectron 1 up").diagnostics] == [
        "1:1: arity: expected 'arms <N>'"]


@pytest.mark.parametrize("source,expected", [
    # A well-formed 'arms' line after an instruction is misplaced, and its
    # count still bounds the arms.
    ("electron 3 up\narms 2\n", ["1:1: arm-range: arm 3 out of range 1..2",
                                 "2:1: arms-decl: arms must be declared first"]),
    ("electron 1 up\narms 0\n", ["2:1: arms-decl: arms must be declared first"]),
    ("arms 0\nelectron 3 up\narms 2\n", ["1:6: bad-literal: arm count must be >= 1",
                                         "2:1: arm-range: arm 3 out of range 1..2",
                                         "3:1: arms-decl: arms must be declared first"]),
    # A malformed 'arms' line is there: no 'missing' with its own finding.
    ("arms\nelectron 1 up\n", ["1:1: arity: expected 'arms <N>'"]),
    ("arms 1 2\nelectron 1 up\n", ["1:1: arity: expected 'arms <N>'"]),
    # A readout whose label spells 'arms', or an 'arms' under an 'if', declares nothing.
    ("arms = charge 1\n", ["1:1: arms-decl: missing 'arms <N>' declaration"]),
    ("if q == 1 : arms 2\n", ["1:1: arms-decl: missing 'arms <N>' declaration",
                              "1:13: not-conditional: 'arms' cannot be conditional"]),
])
def test_missing_only_without_an_arms_line_and_a_late_count_bounds_the_arms(source, expected):
    result = parse(source)
    assert result.circuit is None
    assert [str(d) for d in result.diagnostics] == expected


def test_diagnostics_carry_line_and_column():
    result = parse("arms 2\nelectron 1 up\nbs 1 1\n")
    (diag,) = result.diagnostics
    assert diag.line == 3
    assert diag.column == 6
    assert diag.code == DUPLICATE_ARM


def test_errors_do_not_suppress_later_ones():
    result = parse((DATA / "invalid" / "multi_error.feqc").read_text(encoding="utf-8"))
    codes = [d.code for d in result.diagnostics]
    assert UNKNOWN_KEYWORD in codes
    assert FORWARD_REFERENCE in codes
    assert DUPLICATE_ARM in codes
    assert len(codes) >= 3


def test_forward_reference_is_distinct_from_unknown_label():
    forward = parse("arms 1\nelectron 1 up\nif q == 1 : rot 1 x\nq = charge 1\n")
    assert {d.code for d in forward.diagnostics} == {FORWARD_REFERENCE}
    unknown = parse("arms 1\nelectron 1 up\nif q == 1 : rot 1 x\n")
    assert {d.code for d in unknown.diagnostics} == {UNKNOWN_LABEL}


@pytest.mark.parametrize("name", VALID_FILES)
def test_print_parse_round_trip(name):
    result = parse((DATA / name).read_text(encoding="utf-8"))
    printed = print_circuit(result.circuit)
    reparsed = parse(printed)
    assert reparsed.ok
    assert reparsed.circuit == result.circuit


def test_cnot_core_circuit_has_eight_uniform_branches():
    result = parse((DATA / "cnot_core.feqc").read_text(encoding="utf-8"))
    records = enumerate_branches(result.circuit, vacuum(3))
    assert len(records) == 8
    for rec in records:
        assert rec.probability == pytest.approx(0.125, abs=1e-9)
        assert set(rec.outcomes) == {"p1", "p2", "z"}


def test_analyzer_circuit_on_aligned_pair_is_single_path():
    result = parse((DATA / "bell_analyzer.feqc").read_text(encoding="utf-8"))
    records = enumerate_branches(result.circuit, vacuum(2))
    assert len(records) == 1
    assert records[0].outcomes == {"p1": 1, "p2": 1, "p3": 0}
    assert records[0].probability == pytest.approx(1.0, abs=1e-9)


def test_comments_and_blank_lines_are_ignored():
    result = parse("# header\n\narms 1   # trailing\nelectron 1 up\n")
    assert result.ok
    assert result.circuit.arm_count == 1


def test_complex_literal_spinor():
    result = parse("arms 1\nelectron 1 (0.6,0) (0,0.8)\n")
    assert result.ok
    prep = result.circuit.instructions[0]
    assert prep.alpha == 0.6 + 0j
    assert prep.beta == 0.8j


@pytest.mark.parametrize("spinor", ["(nan,0) (0,1)", "(inf,0) (0,1)", "(1e308,0) (1e308,0)"])
def test_non_finite_or_overflowing_spinor_is_bad_literal(spinor):
    result = parse(f"arms 1\nelectron 1 {spinor}\n")
    assert [(d.line, d.column, d.code) for d in result.diagnostics] == [(2, 12, BAD_LITERAL)]


@pytest.mark.parametrize("kind,value", [("charge", 7), ("charge", -1), ("parity", 2), ("spin", 2)])
def test_unreachable_conditional_is_rejected_by_parser_and_validator(kind, value):
    source = f"arms 1\nelectron 1 up\nc = {kind} 1\nif c == {value} : rot 1 x\n"
    (diag,) = parse(source).diagnostics
    assert (diag.line, diag.code) == (4, BAD_LITERAL)
    circuit = Circuit(1, [PrepSpin(1, 1, 0), Measure("c", kind, 1),
                          Conditional("c", value, SpinRotation(1, "x"))])
    with pytest.raises(CircuitError, match=re.escape(diag.message)):
        validate_circuit(circuit)


def test_highest_outcome_conditionals_are_accepted():
    assert parse("arms 1\nelectron 1 up\nc = charge 1\nif c == 2 : rot 1 x\n").ok
    assert parse("arms 1\nelectron 1 up\np = parity 1\nif p == 1 : rot 1 x\n").ok


def test_labels_may_spell_keywords():
    result = parse("arms 1\nelectron 1 up\nif = charge 1\nif if == 1 : rot 1 x\n")
    assert result.ok, [str(d) for d in result.diagnostics]
    assert parse(print_circuit(result.circuit)).circuit == result.circuit


@pytest.mark.parametrize("tail,column,message", [
    ("rot = x", 17, "arm: expected an integer, got '='"),
    ("rot 1 q", 19, "unknown rotation 'q' (x|y|z|h)"),
])
def test_conditional_rotation_tail_diagnostics(tail, column, message):
    (diag,) = parse(f"arms 1\nelectron 1 up\np = parity 1\nif p == 0 : {tail}\n").diagnostics
    assert (diag.line, diag.column, diag.code, diag.message) == (4, column, BAD_LITERAL, message)


@pytest.mark.parametrize("tail,column,code,message", [
    ("q = count 1", 17, UNKNOWN_KEYWORD, "unknown measurement kind 'count'"),
    ("bs 1 1", 18, DUPLICATE_ARM, "bs needs two distinct arms"),
    ("if z == 1 : rot 1 q", 31, BAD_LITERAL, "unknown rotation 'q' (x|y|z|h)"),
    ("if z = 1 : rot 1 x", 13, ARITY, "expected 'if <label> == <int> : <instruction>'"),
    ("if z == 1 : if", 25, ARITY, "expected 'if <label> == <int> : <instruction>'"),
    ("if z == 1 : electron 1 up", 25, NOT_CONDITIONAL, "'electron' cannot be conditional"),
])
def test_conditional_tail_diagnostics_point_at_the_inner_token(tail, column, code, message):
    source = f"arms 2\nelectron 1 up\np = parity 1\nz = spin 1\nif p == 0 : {tail}\n"
    (diag,) = parse(source).diagnostics
    assert (diag.line, diag.column, diag.code, diag.message) == (5, column, code, message)


def test_conditionals_hold_elements_readouts_and_conditionals():
    source = ("arms 2\nelectron 1 up\np = parity 1\nif p == 1 : bs 1 2\n"
              "if p == 1 : q = charge 1\nif p == 0 : if q == 1 : rot 2 x\n"
              "if = charge 2\nif p == 1 : rot = spin 1\n")
    result = parse(source)
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.circuit.instructions[2:] == (
        Conditional("p", 1, BeamSplitter(1, 2)), Conditional("p", 1, Measure("q", "charge", 1)),
        Conditional("p", 0, Conditional("q", 1, SpinRotation(2, "x"))),
        Measure("if", "charge", 2), Conditional("p", 1, Measure("rot", "spin", 1)))
    assert parse(print_circuit(result.circuit)).circuit == result.circuit


@pytest.mark.parametrize("prep", [PrepSpin(2, 1, 0), PrepBell(0, 1, 2)])
def test_checker_refuses_a_conditional_preparation(prep):
    nested = Conditional("q", 1, Conditional("q", 0, prep))
    circuit = Circuit(2, [Measure("q", "charge", 1), nested])
    keyword = "electron" if isinstance(prep, PrepSpin) else "bell"
    with pytest.raises(CircuitError, match=f"'{keyword}' cannot be conditional"):
        validate_circuit(circuit)


# One circuit built in code per value rule, with the line and column of its
# one diagnostic in the circuit's printed text.
VALUE_RULES = {
    "zero spinor": (Circuit(1, [PrepSpin(1, 0, 0)]), 2, 12),
    "nan spinor": (Circuit(1, [PrepSpin(1, complex(math.nan, 0), 1)]), 2, 12),
    "bell index": (Circuit(2, [PrepBell(4, 1, 2)]), 2, 6),
    "bell equal arms": (Circuit(2, [PrepBell(0, 1, 1)]), 2, 10),
    "bs equal arms": (Circuit(2, [BeamSplitter(2, 2)]), 2, 6),
    "pbs equal arms": (Circuit(2, [PolarizingBeamSplitter(2, 2)]), 2, 7),
    "swap equal arms": (Circuit(2, [SwapArms(2, 2)]), 2, 8),
    "rotation": (Circuit(1, [SpinRotation(1, "w")]), 2, 7),
    "measurement kind": (Circuit(1, [Measure("m", "count", 1)]), 2, 5),
    "conditional electron": (Circuit(2, [Measure("q", "charge", 1),
                                         Conditional("q", 1, PrepSpin(2, 1, 0))]), 3, 13),
    "conditional bell": (Circuit(3, [Measure("q", "charge", 1),
                                     Conditional("q", 1, PrepBell(0, 2, 3))]), 3, 13),
}


@pytest.mark.parametrize("rule", sorted(VALUE_RULES))
def test_parser_and_library_give_the_same_value_finding(rule):
    circuit, line, column = VALUE_RULES[rule]
    assert circuit.problem is not None
    result = parse(print_circuit(circuit))
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (line, column, circuit.problem)]


@pytest.mark.parametrize("source,expected", [
    # A line with a bad value stays in the circuit: its conditional is checked...
    pytest.param(
        "arms 2\nelectron 1 up\nif q == 1 : bs 1 1\nq = charge 1\n",
        ["3:1: forward-reference: label 'q' is measured later (line 4)",
         "3:18: duplicate-arm: bs needs two distinct arms"], id="conditional-bad-value"),
    # ...and its readout defines its label.
    pytest.param(
        "arms 1\nelectron 1 up\nq = foo 1\nif q == 1 : rot 1 x\n",
        ["3:5: unknown-keyword: unknown measurement kind 'foo'"], id="readout-bad-kind"),
    # An entangled pair on one arm prepares it once.
    pytest.param(
        "arms 2\nbell 0 1 1\n",
        ["2:10: duplicate-arm: bell needs two distinct arms"], id="bell-equal-arms"),
    # A label repeated on a line is reported once, and a repeated bad outcome too.
    pytest.param(
        "arms 1\nelectron 1 up\nif q == 1 : if q == 0 : rot 1 x\nq = charge 1\n",
        ["3:1: forward-reference: label 'q' is measured later (line 4)"], id="repeated-label"),
    pytest.param(
        "arms 1\nelectron 1 up\nq = charge 1\nif q == 7 : if q == 7 : if q == 5 : rot 1 x\n",
        ["4:1: bad-literal: outcome 7 never occurs: charge label 'q' reads 0..2",
         "4:1: bad-literal: outcome 5 never occurs: charge label 'q' reads 0..2"],
        id="repeated-outcome"),
    # An 'arms' line with a bad count is there, and no arm count bounds the arms.
    pytest.param(
        "arms 0\nelectron 0 up\n",
        ["1:6: bad-literal: arm count must be >= 1", "2:1: arm-range: arm 0 must be >= 1"],
        id="bad-arm-count"),
    # A conditional preparation gets its own value checks too.
    pytest.param(
        "arms 2\nelectron 1 up\nq = charge 1\nif q == 1 : bell 5 1 2\n",
        ["4:13: not-conditional: 'bell' cannot be conditional",
         "4:18: bad-literal: bell index 5 not in 0..3"], id="conditional-bell-index"),
])
def test_every_finding_of_a_line_with_a_bad_value(source, expected):
    assert [str(d) for d in parse(source).diagnostics] == expected


@pytest.fixture
def structural_passes(monkeypatch):
    """The calls made to structural_problems, under the names the circuit
    module and the parser use."""
    calls = []
    original = circuit_module.structural_problems

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(circuit_module, "structural_problems", counted)
    monkeypatch.setattr(parser, "structural_problems", counted)
    return calls


def test_a_circuit_is_checked_when_it_is_made(monkeypatch):
    circuit = Circuit(1, [PrepSpin(1, 1, 0), Measure("q", "charge", 3)])
    calls = []

    def counted(*args):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(circuit_module, "structural_problems", counted)
    assert circuit.problem == "arm 3 out of range 1..1"
    assert circuit.problem == "arm 3 out of range 1..1"
    with pytest.raises(CircuitError, match="arm 3 out of range 1..1"):
        validate_circuit(circuit)
    assert calls == []


@pytest.mark.parametrize("backend", ["fock", "corr"])
@pytest.mark.parametrize("mode", ["enumerate", "sample"])
def test_a_run_checks_its_circuit_once(structural_passes, capsys, backend, mode):
    for path in sorted(DATA.glob("*.feqc")):
        structural_passes.clear()
        cli.main(["run", str(path), "--backend", backend, "--mode", mode])
        capsys.readouterr()
        assert len(structural_passes) == 1, path.name


def test_a_circuit_keeps_its_structural_verdict(structural_passes):
    instructions = [PrepSpin(1, 1, 0), Conditional("q", 0, SpinRotation(1, "x")),
                    Measure("q", "charge", 1)]
    bad = Circuit(1, instructions)
    assert bad.instructions == tuple(instructions)
    messages = []
    for check in (validate_circuit, validate_circuit, lambda c: enumerate_branches(c, vacuum(1))):
        with pytest.raises(CircuitError) as err:
            check(bad)
        messages.append(str(err.value))
    assert messages == ["label 'q' is measured later (line 4)"] * 3
    assert len(structural_passes) == 1
    # A circuit built from another one gets its own verdict.
    fixed = dataclasses.replace(bad, instructions=(instructions[0], instructions[2],
                                                   instructions[1]))
    validate_circuit(fixed)
    assert [r.outcomes for r in enumerate_branches(fixed, vacuum(1))] == [{"q": 1}]
    assert len(structural_passes) == 2


def test_circuits_and_instructions_are_frozen():
    circuit = Circuit(2, [BeamSplitter(1, 2), PrepSpin(1, 1, 0)])
    for value, name in ((circuit, "arm_count"), (circuit, "instructions"),
                        (circuit.instructions[0], "arm_j"), (circuit.instructions[1], "arm")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)
