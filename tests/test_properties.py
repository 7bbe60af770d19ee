"""Properties of the parser, the shared structural checker, the fock kernel
and the corr kernels against their dense oracles, and the corr backend
against fock.

The strategies avoid ``st.text()`` and ``st.from_regex``: their first use
builds a Unicode table that costs seconds in a fresh checkout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import re
import string
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from feqc import cli, corr, fock, measurement
from feqc.corr import charge_branch_tree, enumerate_charge_branches
from feqc.circuit import (
    BeamSplitter,
    Circuit,
    Conditional,
    Measure,
    PolarizingBeamSplitter,
    PrepBell,
    PrepSpin,
    SpinRotation,
    SwapArms,
    apply_instruction,
    light_cone,
    print_circuit,
    unitary_steps,
    validate_circuit,
)
from feqc.errors import CircuitError, FeqcError, NonGaussianOperationError, PreconditionError
from feqc.measurement import BranchNode, BranchRecord, FrontierNode, enumerate_branches
from feqc.parser import parse
from helpers import (always_pruned_unitary, amplitude_bits, deep_terminal_circuit,
                     dense_bilinear_unitary, dense_evolve, dense_project, dense_single_occupancy,
                     dense_vector, merged_probabilities, mode_occupation, product_monomials,
                     random_correlation_matrix, random_state, random_unitary)

KEYWORDS = ["arms", "electron", "bell", "bs", "pbs", "swap", "rot", "if", "charge", "parity",
            "spin", "up", "down", "plus"]
TOKENS = KEYWORDS + ["=", "==", ":", "#", "\n", "x", "h", "q", "0", "1", "2", "3", "-1", "7",
                     "(1,0)", "(0,1)", "(nan,0)", "(1e308,0)", "(0,0)", "(1,", "9" * 30]

sources = st.one_of(
    st.lists(st.integers(0, 0x10FFFF).map(chr)).map("".join),  # arbitrary code points
    st.lists(st.sampled_from(TOKENS)).map(" ".join),  # near-valid lines
)

identifiers = st.builds(str.__add__, st.sampled_from(string.ascii_letters + "_"),
                        st.text(string.ascii_letters + string.digits + "_", max_size=3))
labels = st.one_of(st.sampled_from(KEYWORDS), identifiers)
finite = st.floats(allow_nan=False, allow_infinity=False)
amplitudes = st.builds(complex, finite, finite)
spinors = st.tuples(amplitudes, amplitudes).filter(lambda ab: ab != (0, 0))


@st.composite
def circuits(draw):
    """A valid circuit, then at most one defect: a field replaced by an
    arbitrary value, a repeated instruction, or a bad arm count.  Spinors are
    any finite pair, so some overflow."""
    n = draw(st.integers(1, 4))
    arm = st.integers(1, n)
    rotations = st.builds(SpinRotation, arm, st.sampled_from(["x", "y", "z", "h"]))
    fresh = list(range(1, n + 1))
    measured: dict[str, str] = {}
    instructions = []
    for _ in range(draw(st.integers(0, 8))):
        choice = draw(st.sampled_from(["prep", "bell", "element", "measure", "if", "rot"]))
        if choice == "prep" and fresh:
            a = draw(st.sampled_from(fresh))
            fresh.remove(a)
            instructions.append(PrepSpin(a, *draw(spinors)))
        elif choice == "bell" and len(fresh) >= 2:
            a, b = draw(st.permutations(fresh))[:2]
            fresh = [x for x in fresh if x not in (a, b)]
            instructions.append(PrepBell(draw(st.integers(0, 3)), a, b))
        elif choice == "element" and n >= 2:
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure":
            label = draw(labels.filter(lambda name: name not in measured))
            measured[label] = draw(st.sampled_from(["charge", "parity", "spin"]))
            instructions.append(Measure(label, measured[label], draw(arm)))
        elif choice == "if" and measured:
            label = draw(st.sampled_from(sorted(measured)))
            value = draw(st.integers(0, 2 if measured[label] == "charge" else 1))
            instructions.append(Conditional(label, value, draw(rotations)))
        else:
            instructions.append(draw(rotations))
    defect = draw(st.sampled_from(["none", "field", "repeat", "arm_count"]))
    if defect == "arm_count":
        n = draw(st.integers(-1, 0))
    elif defect != "none" and instructions:
        k = draw(st.integers(0, len(instructions) - 1))
        ins = instructions[k]
        values = {int: st.sampled_from([-1, 0, 4, n + 1, 7]), complex: amplitudes,
                  str: st.sampled_from(["w", "count", "if", "q"])}
        f = draw(st.sampled_from(dataclasses.fields(ins)))
        value = values.get(type(getattr(ins, f.name)))
        if defect == "repeat" or value is None:
            instructions.insert(k, ins)
        else:
            instructions[k] = dataclasses.replace(ins, **{f.name: draw(value)})
    return Circuit(n, instructions)


@settings(max_examples=60, deadline=None, database=None)
@given(sources)
def test_parse_never_raises(source):
    result = parse(source)
    assert (result.circuit is None) == bool(result.diagnostics)


@settings(max_examples=100, deadline=None, database=None)
@given(circuits())
# One circuit per value rule, which only the shared checker checks.
@example(Circuit(0, []))
@example(Circuit(1, [PrepSpin(1, 1e200, 1e200)]))
@example(Circuit(2, [PrepBell(4, 1, 2)]))
@example(Circuit(2, [SwapArms(2, 2)]))
@example(Circuit(1, [SpinRotation(1, "w")]))
@example(Circuit(1, [Measure("m", "count", 1)]))
@example(Circuit(1, [Measure("arms", "charge", 1), Conditional("arms", 1, SpinRotation(1, "x"))]))
def test_validator_and_parser_agree(circuit):
    try:
        validate_circuit(circuit)
        valid = True
    except CircuitError:
        valid = False
    result = parse(print_circuit(circuit))
    assert valid == result.ok, [str(d) for d in result.diagnostics]
    if valid:
        assert result.circuit == circuit


@st.composite
def circuits_with_bad_values(draw):
    """Instructions drawn field by field from good and bad values: arms out
    of range or equal, bad spinors, bell indices, rotation and readout names,
    labels read never, later or twice, and conditional preparations."""
    n = draw(st.integers(-1, 3))
    arm = st.integers(-1, max(n, 1) + 1)
    label = st.sampled_from(["p", "q", "if"])
    amplitude = st.sampled_from([0, 1, 0.6, 0.8j, math.nan, math.inf, 1e200])
    two_arm = st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms])
    plain = st.one_of(
        st.builds(PrepSpin, arm, amplitude, amplitude),
        st.builds(PrepBell, st.integers(-1, 4), arm, arm),
        two_arm.flatmap(lambda cls: st.builds(cls, arm, arm)),
        st.builds(SpinRotation, arm, st.sampled_from(["x", "h", "w"])),
        st.builds(Measure, label, st.sampled_from(["charge", "parity", "spin", "count"]), arm),
    )
    instruction = st.recursive(
        plain, lambda inner: st.builds(Conditional, label, st.integers(-1, 3), inner),
        max_leaves=3)
    return Circuit(n, draw(st.lists(instruction, max_size=6)))


@settings(max_examples=300, deadline=None, database=None)
@given(circuits_with_bad_values())
@example(Circuit(2, [Measure("q", "charge", 1), Conditional("q", 1, PrepBell(5, 2, 2))]))
def test_parser_refuses_exactly_what_the_checker_refuses(circuit):
    result = parse(print_circuit(circuit))
    assert (result.circuit is None) == (circuit.problem is not None)
    if circuit.problem is not None:
        assert circuit.problem in [d.message for d in result.diagnostics]


CORPUS = [path.read_text(encoding="utf-8")
          for path in sorted((Path(__file__).parent / "data").rglob("*.feqc"))]
# Whitespace other than a space, a line end, and characters that begin a
# comment, a measurement or a literal.
INSERTED = ["\t", "\xa0", "\u3000", "\f", "\x85", "\u2028", " ", "\r", "#", "=", "(", ",",
            "1", "x"]


@st.composite
def mutated_corpus(draw):
    """A corpus file with a few characters inserted into or deleted from its lines."""
    lines = draw(st.sampled_from(CORPUS)).split("\n")
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(lines) - 1))
        k = draw(st.integers(0, len(lines[i])))
        if draw(st.booleans()):
            lines[i] = lines[i][:k] + draw(st.sampled_from(INSERTED)) + lines[i][k:]
        else:
            lines[i] = lines[i][:k] + lines[i][k + 1:]
    return "\n".join(lines)


def token_starts(line: str) -> set[int]:
    """The 1-based columns at which the tokens of a line start, before any '#'."""
    text = line.split("#", 1)[0]
    return {k + 1 for k, c in enumerate(text)
            if not c.isspace() and (k == 0 or text[k - 1].isspace())}


@settings(max_examples=200, deadline=None, database=None)
@given(mutated_corpus())
def test_diagnostics_point_at_a_token_of_their_line(source):
    lines = re.split(r"\r\n|\r|\n", source)
    for diag in parse(source).diagnostics:
        if diag.message == "missing 'arms <N>' declaration":
            assert (diag.line, diag.column) == (1, 1)
        else:
            assert diag.column in token_starts(lines[diag.line - 1]), str(diag)


ARMS = 2  # four modes: pairs can have one or two occupied modes between them
seeds = st.integers(0, 2**32 - 1)
haar_2x2 = seeds.map(lambda seed: random_unitary(np.random.default_rng(seed), 2))
# The element table's matrices, exact zeros included (pbs and swap).
table_2x2 = st.sampled_from([fock.BEAM_SPLITTER_MATRIX, fock.TWO_ARM_ELEMENTS["pbs"][1],
                             *fock.ROTATIONS.values()])


def positions(count):
    return st.lists(st.integers(0, 2 * ARMS - 1), min_size=count, max_size=count, unique=True)


def sector_weights(state):
    weights = np.zeros(2 * ARMS + 1)
    for key, amp in state.amplitudes.items():
        weights[key.bit_count()] += abs(amp) ** 2
    return weights


def check_against_oracle(seed, modes_at, u):
    state = random_state(np.random.default_rng(seed), ARMS)  # every key occupied
    modes = [(p // 2 + 1, fock.Spin(p % 2)) for p in modes_at]
    out = fock.apply_single_particle_unitary(state, modes, u)
    oracle = dense_bilinear_unitary(ARMS, modes, u) @ dense_vector(state)
    assert np.allclose(dense_vector(out), oracle, atol=1e-9)
    assert abs(out.norm() - 1) <= 1e-9
    assert np.allclose(sector_weights(out), sector_weights(state), atol=1e-9)


@settings(max_examples=60, deadline=None, database=None)
@given(seeds, positions(2), st.one_of(table_2x2, haar_2x2))
@example(0, [3, 0], fock.PAULI_X)  # two modes between, in descending order
@example(0, [1, 3], fock.PAULI_Y)
def test_two_mode_kernel_matches_dense_oracle(seed, modes_at, u):
    check_against_oracle(seed, modes_at, u)


# Spinor components of normal size: zero, or a magnitude in [1e-3, 1e3].
spinor_parts = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(spinor_parts, min_size=4, max_size=4), st.integers(-400, 400))
def test_a_spinor_times_a_power_of_two_prepares_the_same_bits(parts, exp):
    """Both backends normalize a spinor after scaling it by an exact power
    of two, so a spinor and the spinor times 2^exp give the same state, bit
    for bit; at exp = -400 the parent could not normalize it at all."""
    assume(any(parts))
    alpha, beta = complex(*parts[:2]), complex(*parts[2:])
    scaled = [complex(math.ldexp(z.real, exp), math.ldexp(z.imag, exp)) for z in (alpha, beta)]
    other = fock.prepare_spin(fock.vacuum(2), 2, 0.6, 0.8j)  # a second electron to move past

    def bits(spinor):
        state = fock.prepare_spin(other, 1, *spinor)
        M = corr.add_electron(corr.init_from_occupations([], 2), 1, *spinor)
        return ({k: (a.real.hex(), a.imag.hex()) for k, a in state.amplitudes.items()},
                M.matrix.tobytes())

    assert bits(scaled) == bits((alpha, beta))


@settings(max_examples=40, deadline=None, database=None)
@given(seeds, st.sampled_from([1, 3, 4]).flatmap(positions))
def test_givens_path_matches_dense_oracle(seed, modes_at):
    u = random_unitary(np.random.default_rng(seed + 1), len(modes_at))
    check_against_oracle(seed, modes_at, u)


PRUNE = fock.PRUNE_THRESHOLD
# Unit phases, and offsets of a few ulp around 1, for amplitudes near the threshold.
PHASES = [1, -1, 1j, -1j, complex(math.sqrt(0.5), math.sqrt(0.5)), complex(0.6, -0.8)]
ulps = st.integers(-4, 4).map(lambda k: 1 + k * 2.0**-52)


def kernel_states(state, ins) -> list:
    """The state after a preparation, or after each kernel step of an element."""
    if isinstance(ins, (PrepSpin, PrepBell)):
        return [apply_instruction(state, ins)]
    states = []
    for modes, matrix in unitary_steps(ins):
        states.append(state := fock.apply_single_particle_unitary(state, modes, matrix))
    return states


# Two spinors, one with a (0,1e-6) component, then three splitters: some
# amplitudes stay near 1e-6 and their cross terms near 1e-12.
SMALL_SPINOR_CIRCUIT = Circuit(2, [
    PrepSpin(1, 0.5j, 0.5j), PrepSpin(2, 0.5j, 1e-6j), SpinRotation(1, "h"),
    BeamSplitter(1, 2), BeamSplitter(1, 2), BeamSplitter(1, 2), Measure("q0", "charge", 1)])
SMALL_SPINOR_STATES = functools.reduce(
    lambda states, ins: states + kernel_states(states[-1], ins),
    SMALL_SPINOR_CIRCUIT.instructions[:-1], [fock.vacuum(2)])


@st.composite
def near_threshold_states(draw, at=()):
    """States on ARMS arms, every amplitude at or above PRUNE_THRESHOLD, as
    every state fock builds, made so that a step's outputs land near it:
    amplitudes a few ulp above 1e-12, and pairs of keys that differ in two
    modes, often the two a step acts on (``at``), with amplitudes a and
    +-(a - t), t about sqrt(2) * 1e-12, which a splitter or Hadamard on those
    modes nearly cancels (HOM-like pairs), inserted in either order."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(SMALL_SPINOR_STATES))
    amplitudes = {}
    for _ in range(draw(st.integers(1, 8))):
        key = draw(st.integers(0, (1 << 2 * ARMS) - 1))
        kind = draw(st.sampled_from(["near", "plain", "pair", "pair"]))
        if kind == "near":
            amplitudes[key] = PRUNE * draw(ulps) * draw(st.sampled_from(PHASES))
        elif kind == "plain":
            amplitudes[key] = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        else:
            mode_pairs = st.permutations(range(2 * ARMS)).map(lambda modes: modes[:2])
            if len(at) == 2:
                mode_pairs = st.one_of(mode_pairs, st.permutations(at))
            p, q = draw(mode_pairs)
            key = key & ~(1 << q) | 1 << p  # one electron on p, none on q
            a = draw(st.one_of(st.floats(1e-12, 1e-10), st.floats(1e-10, 1)))
            t = PRUNE * math.sqrt(2) * draw(st.one_of(ulps, st.floats(0.999, 1.001)))
            phase = draw(st.sampled_from(PHASES))
            pair = [(key, a * phase),
                    (key ^ (1 << p | 1 << q), draw(st.sampled_from([1, -1])) * (a - t) * phase)]
            amplitudes.update(pair[::draw(st.sampled_from([1, -1]))])
    kept = {k: a for k, a in amplitudes.items() if abs(a) >= PRUNE}
    assume(kept)
    return fock.FockState(ARMS, kept)


@st.composite
def near_threshold_2x2(draw):
    """A rotation whose off-diagonal entries are a few ulp from 1e-12, with
    phases: the array path zeroes the entries at or below it."""
    s = PRUNE * draw(ulps)
    u = np.array([[1, -s], [s, 1]], dtype=complex)
    return u * draw(st.sampled_from(PHASES)) * np.array(draw(st.sampled_from([[1, 1], [1, -1j]])))


# (mode positions, matrix) of a step: every element-table matrix, Haar and
# near-threshold 2x2 arrays, and unitaries of 1, 3 and 4 modes (the Givens path).
steps = st.one_of(
    st.tuples(positions(2), st.one_of(table_2x2, haar_2x2, near_threshold_2x2())),
    st.sampled_from([1, 3, 4]).flatmap(lambda m: st.tuples(
        positions(m), seeds.map(lambda seed: random_unitary(np.random.default_rng(seed), m)))),
)


def splitter_case(amplitudes):
    """A splitter on modes 0 and 2 of a state with these amplitudes, in this
    order: one key ends below the threshold, and the comment beside each
    example names the write that gives that key its last term."""
    return (fock.FockState(ARMS, {k: complex(a) for k, a in amplitudes.items()}),
            ([0, 2], fock.BEAM_SPLITTER_MATRIX))


@settings(max_examples=400, deadline=None, database=None)
@given(steps.flatmap(lambda step: st.tuples(near_threshold_states(step[0]), st.just(step))))
@example(splitter_case({0b0101: PRUNE}))  # both modes: det U rounds the amplitude below
@example(splitter_case({0b0100: -0.5, 0b0001: 0.5}))  # mode 0 stays last
@example(splitter_case({0b0001: 0.5, 0b0100: -0.5}))  # mode 2 moves to 0 last
@example(splitter_case({0b0100: 0.5, 0b0001: 0.5}))  # mode 0 moves to 2 last
@example(splitter_case({0b0001: 0.5, 0b0100: 0.5, 0b0010: PRUNE}))  # mode 2 stays last
def test_a_step_gives_the_bits_of_the_kernel_then_the_prune(case):
    """A step checks only the amplitudes it computes and prunes only when
    one fell below the threshold; on a state whose amplitudes are all at or
    above it, the output has the keys, order and amplitude bits of the
    two-pass reference, every amplitude computed and then the whole output
    pruned.  The Givens path (m != 2) gives the reference's bits too."""
    state, (at, matrix) = case
    modes = [(p // 2 + 1, fock.Spin(p % 2)) for p in at]
    out = fock.apply_single_particle_unitary(state, modes, matrix)
    reference = always_pruned_unitary(state, modes, matrix)
    assert amplitude_bits(out) == amplitude_bits(reference)
    assert all(abs(a) >= PRUNE for a in out.amplitudes.values())


# Spinors from a fixed list keep every branch probability far from the 1e-12
# pruning threshold.  Near it the backends can disagree by about 1e-12 by
# design: one keeps a branch the other drops (p = 1.0007e-12 on corr), and
# only fock renormalizes what it keeps.
SPINORS = [(1, 0), (0, 1), (1, 1), (0.6, 0.8), (0.6, 0.8j), (1, -1j)]


@st.composite
def charge_circuits(draw):
    """Gaussian 2-4-arm circuits whose charge readouts can come mid-circuit,
    followed by elements and by conditionals on them."""
    n = draw(st.integers(2, 4))
    arm = st.integers(1, n)
    rotations = st.builds(SpinRotation, arm, st.sampled_from(["x", "y", "z", "h"]))
    filled = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(1, n))]
    instructions = [PrepSpin(a, *draw(st.sampled_from(SPINORS))) for a in filled]
    labels: list[str] = []
    for _ in range(draw(st.integers(1, 10))):
        choice = draw(st.sampled_from(["element", "rot", "measure", "if"]))
        if choice == "element":
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure":
            labels.append(f"q{len(labels)}")
            instructions.append(Measure(labels[-1], "charge", draw(arm)))
        elif choice == "if" and labels:
            label = draw(st.sampled_from(labels))
            instructions.append(Conditional(label, draw(st.integers(0, 2)), draw(rotations)))
        else:
            instructions.append(draw(rotations))
    return Circuit(n, instructions)


def charge_examples(test):
    """The charge_circuits draws plus three explicit circuits."""
    for circuit in [
        Circuit(2, [PrepSpin(1, 1, 1), Measure("q", "charge", 1), SpinRotation(1, "h"),
                    PolarizingBeamSplitter(1, 2), Measure("r", "charge", 2)]),
        # Both spin-resolved factors of corr's charge-0 leaf exceed 1e-12, their
        # product (1.4e-17) does not; fock drops that branch.
        Circuit(1, [PrepSpin(1, 1j, 6.103515625e-05j), Measure("q", "charge", 1)]),
        Circuit(3, [PrepSpin(1, 1, 1), PrepSpin(2, 1, 0), BeamSplitter(1, 2),
                    Measure("q", "charge", 1), Conditional("q", 1, SpinRotation(2, "h")),
                    BeamSplitter(2, 3), Measure("r", "charge", 2), Measure("s", "charge", 1)]),
    ]:
        test = example(circuit)(test)
    return settings(max_examples=100, deadline=None, database=None)(given(charge_circuits())(test))


@charge_examples
def test_corr_agrees_with_fock_or_refuses(circuit):
    try:
        records, _ = enumerate_charge_branches(circuit)
    except NonGaussianOperationError:
        return
    fock_probs = merged_probabilities(enumerate_branches(circuit, fock.vacuum(circuit.arm_count)))
    corr_probs = merged_probabilities(records)
    assert corr_probs.keys() == fock_probs.keys()
    for key, p in fock_probs.items():
        assert abs(corr_probs[key] - p) <= 1e-12, key


@charge_examples
def test_corr_branch_probabilities_sum_to_one(circuit):
    """Corr never renormalizes, so every readout's outcomes must sum to 1 as
    they come out of the two projections."""
    try:
        root, _ = charge_branch_tree(circuit)
    except NonGaussianOperationError:
        return
    nodes = [root]
    while nodes:
        node = nodes.pop()
        if isinstance(node, BranchNode):
            assert abs(sum(p for _, p, _ in node.children) - 1.0) <= 1e-12, node.label
            nodes += [child for _, _, child in node.children]


@st.composite
def terminal_charge_circuits(draw):
    """charge_circuits followed by a trailing run of 1-4 charge readouts."""
    circuit = draw(charge_circuits())
    arms = draw(st.lists(st.integers(1, circuit.arm_count), min_size=1, max_size=4))
    return Circuit(circuit.arm_count, [*circuit.instructions,
                                       *(Measure(f"t{i}", "charge", a) for i, a in enumerate(arms))])


WALK = measurement.walk  # the walker itself: the block tests patch the name it is called by


def walk_without_block(instructions, state, apply, branches, block):
    return WALK(instructions, state, apply, branches)


def whole_circuit_apply(circuit):
    """corr._apply on a matrix of every arm of the circuit, arm a as arm a."""
    return functools.partial(corr._apply, local={a: a for a in range(1, circuit.arm_count + 1)})


def sequential_charge_outcomes(M, ins, _prob):
    """A charge readout one matrix and one child at a time, the loop the
    batched readout replaced, kept as its reference: the four (n_up, n_down)
    probabilities from the arm's occupations a, d and det S_AA, then each
    kept child's matrix by the rank-two update S - S_:A K^-1 S_A: with
    K = S_AA - diag(1 - n_up, 1 - n_down), its arm set to diag(n_up, n_down).
    Each step keeps the batched readout's operation order, so the bits match."""
    m = M.matrix
    up = fock.mode_position((ins.arm, fock.Spin.UP), M.num_arms)
    a, d = (mode_occupation(M, (ins.arm, spin)) for spin in fock.Spin)
    # np.multiply rounds as the batched array product does; a scalar `*` may not.
    both = a * d - np.multiply(m[up, up + 1], m[up + 1, up]).real
    probs = {(1, 1): both, (1, 0): a - both, (0, 1): d - both}
    probs[0, 0] = (1 - a) - probs[0, 1]
    outcomes = []
    for (n_up, n_down), p in sorted(probs.items()):
        if p > corr.PROBABILITY_FLOOR:
            scale = (-1) ** (n_up + n_down) / p  # det K is the probability up to sign
            r, s = m[up], m[up + 1]  # S_A:, the arm's rows
            # K^-1 = [[K11, -K01], [-K10, K00]] / det K
            x = ((m[up + 1, up + 1].real - (1 - n_down)) * r - m[up, up + 1] * s) * scale
            y = ((m[up, up].real - (1 - n_up)) * s - m[up + 1, up] * r) * scale
            post = m - (np.outer(m[:, up], x) + np.outer(m[:, up + 1], y))
            post[up:up + 2] = post[:, up:up + 2] = 0.0
            post[up, up], post[up + 1, up + 1] = n_up, n_down
            outcomes.append((n_up + n_down, p, corr.CorrelationMatrix(M.num_arms, post)))
    return outcomes


def tree_shape(node):
    """A branch tree's labels, outcomes and probabilities, without post-states."""
    if isinstance(node, BranchNode):
        return node.label, [(outcome, p, tree_shape(child)) for outcome, p, child in node.children]
    return list(node.outcomes.items()), node.probability


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


def pool_circuits(name: str) -> list[Circuit]:
    """A benchmark pool's circuits as recorded: ``fock-deep``'s 8-arm ones
    (hundreds of keys, mid-circuit readouts, terminal blocks of several
    charge readouts) or ``corr-scale``'s 48-arm and 12-arm ones (terminal
    charge readouts of 3 and 8 arms)."""
    pool = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))["circuits"]
    return [parse(entry["circuit"]).circuit for entry in pool]


def with_pool_examples(*args, pool="fock-deep", arguments=lambda circuit: (circuit,)):
    """Add every circuit of a benchmark pool, as ``arguments`` makes it into a
    test's leading arguments and followed by ``args``, as an example."""
    def decorate(test):
        for circuit in pool_circuits(pool):
            test = example(*arguments(circuit), *args)(test)
        return test
    return decorate


@settings(max_examples=100, deadline=None, database=None)
@given(terminal_charge_circuits())
@example(Circuit(2, [PrepSpin(1, 1, 1), BeamSplitter(1, 2), Measure("q", "charge", 1),
                     Measure("r", "charge", 1), Measure("s", "charge", 2)]))
@example(Circuit(1, [PrepSpin(1, 1j, 6.103515625e-05j), Measure("q", "charge", 1)]))
@example(Circuit(3, [PrepSpin(1, 1, 1), PrepSpin(2, 1, 0), BeamSplitter(1, 2),
                     Measure("q", "charge", 1), Conditional("q", 1, SpinRotation(2, "h")),
                     BeamSplitter(2, 3), Measure("r", "charge", 2), Measure("s", "charge", 3),
                     Measure("t", "charge", 1)]))
@example(deep_terminal_circuit())
@with_pool_examples(pool="corr-scale")
def test_corr_terminal_block_equals_the_walk_without_it(circuit):
    """Corr's batched terminal block gives the tree the walker makes readout
    by readout, and the one-matrix-at-a-time reference loop gives: the same
    labels, outcomes, order and probability bits."""
    try:
        root, _ = charge_branch_tree(circuit)
    except NonGaussianOperationError:
        return
    with mock.patch.object(corr, "walk", walk_without_block):
        plain, _ = charge_branch_tree(circuit)
    reference = measurement.walk(circuit.instructions, corr.init_from_occupations(
        [], circuit.arm_count), whole_circuit_apply(circuit), sequential_charge_outcomes)
    assert tree_shape(root) == tree_shape(plain) == tree_shape(reference)
    assert all(rec.post_state is None for rec in measurement.leaves(root))


@st.composite
def wide_charge_circuits(draw):
    """Gaussian 6-16-arm circuits with 1-3 charge readouts, mid-circuit or
    trailing, conditionals on them, and electrons that may come after
    elements, so that an electron can land on an arm an element filled.  Most
    of their instructions lie outside the readouts' light cone."""
    n = draw(st.integers(6, 16))
    arm = st.integers(1, n)
    fresh = draw(st.permutations(range(1, n + 1)))
    unread = list(range(1, n + 1))  # elements stay off read arms: corr would refuse them
    readouts = draw(st.integers(1, 3))
    instructions, labels = [], []
    for _ in range(draw(st.integers(1, 24))):
        choice = draw(st.sampled_from(["electron", "element", "element", "rot", "measure",
                                       "if"]))
        rotation = st.builds(SpinRotation, st.sampled_from(unread), st.sampled_from("xyzh"))
        if choice == "electron" and fresh:
            instructions.append(PrepSpin(fresh.pop(), *draw(st.sampled_from(SPINORS))))
        elif choice == "element" and len(unread) >= 2:
            i, j = draw(st.permutations(unread))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure" and len(labels) < readouts:
            labels.append(f"q{len(labels)}")
            instructions.append(Measure(labels[-1], "charge", draw(arm)))
            if instructions[-1].arm in unread:
                unread.remove(instructions[-1].arm)
        elif choice == "if" and labels:
            label = draw(st.sampled_from(labels))
            instructions.append(Conditional(label, draw(st.integers(0, 2)), draw(rotation)))
        else:
            instructions.append(draw(rotation))
    instructions += [Measure(f"t{i}", "charge", draw(arm))
                     for i in range(readouts - len(labels))]
    return Circuit(n, instructions)


def shape_or_refusal(expand):
    """The tree_shape of a branch tree, or the message of the occupancy refusal
    that stopped its expansion."""
    try:
        return tree_shape(expand())
    except PreconditionError as err:
        return str(err)


def corr_run(circuit):
    """charge_branch_tree's tree shape and stats, wall time aside, or the
    message of the occupancy refusal that stopped it."""
    try:
        root, stats = charge_branch_tree(circuit)
    except PreconditionError as err:
        return str(err)
    return tree_shape(root), dataclasses.replace(stats, wall_ms=0.0)


@settings(max_examples=150, deadline=None, database=None)
@given(wide_charge_circuits())
# Only arms 5 and 6 are in the cone of q, through the splitter; arm 3's
# electron lands on an arm the first splitter filled and is refused by name.
@example(Circuit(8, [PrepSpin(2, 1, 1), PrepSpin(5, 0.6, 0.8), BeamSplitter(2, 3),
                     SpinRotation(7, "h"), BeamSplitter(5, 6), Measure("q", "charge", 6),
                     PrepSpin(3, 1, 0), SwapArms(1, 4)]))
# Elements after the readouts and between them, outside their cone.
@example(Circuit(6, [PrepSpin(1, 1, 1), PrepSpin(4, 0.6, 0.8j), BeamSplitter(1, 2),
                     Measure("q", "charge", 2), SpinRotation(4, "x"),
                     Conditional("q", 1, SpinRotation(1, "h")), Measure("r", "charge", 1),
                     BeamSplitter(4, 5)]))
# Terminal readouts of three arms: the joint query is priced on the cone.
@example(deep_terminal_circuit(seed=3, num_arms=10, readouts=3))
def test_corr_light_cone_gives_the_full_circuit_walk(circuit):
    """Corr expands only the readouts' light cone, over the arms it acts on.  It
    gets the tree the full circuit's readout-by-readout walk gets, bit for
    bit, or the same occupancy refusal, which names the circuit's arm; and
    the stats, joint query included, that it gets on the whole circuit."""
    got = corr_run(circuit)
    reference = shape_or_refusal(lambda: measurement.walk(
        circuit.instructions, corr.init_from_occupations([], circuit.arm_count),
        whole_circuit_apply(circuit), sequential_charge_outcomes))
    assert (got if isinstance(got, str) else got[0]) == reference
    with mock.patch.object(corr, "light_cone", list):
        assert corr_run(circuit) == got


@st.composite
def spread_circuits(draw):
    """A valid 1-5-arm circuit of electrons, which may land on an arm an
    element filled, an entangled pair, elements, and at most two readouts of
    any kind, mid-circuit or trailing, under conditionals or not, with
    conditionals on them; and a strictly increasing map of its arms into
    1..1024.  corr.MAX_TREE_BYTES charges a leaf the matrix of the cone's
    arms, which the map keeps, so it refuses the moved circuit exactly when
    it refuses the circuit as written."""
    n = draw(st.integers(1, 5))
    arm = st.integers(1, n)
    fresh = draw(st.permutations(range(1, n + 1)))
    rotation = st.builds(SpinRotation, arm, st.sampled_from("xyzh"))
    instructions, labels = [], []
    for _ in range(draw(st.integers(1, 12))):
        choice = draw(st.sampled_from(["electron"] * 3 + ["bell", "element", "element", "rot",
                                                         "measure", "if"]))
        if choice == "electron" and fresh:
            instructions.append(PrepSpin(fresh.pop(), *draw(st.sampled_from(SPINORS))))
        elif choice == "bell" and len(fresh) >= 2:
            instructions.append(PrepBell(draw(st.integers(0, 3)), fresh.pop(), fresh.pop()))
        elif choice == "element" and n >= 2:
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure" and len(labels) < 2:
            kind = draw(st.sampled_from(["charge"] * 4 + ["parity", "spin"]))
            label = f"q{len(labels)}"
            ins = Measure(label, kind, draw(arm))
            if labels and draw(st.booleans()):
                ins = Conditional(labels[-1], draw(st.integers(0, 1)), ins)
            labels.append(label)
            instructions.append(ins)
        elif choice == "if" and labels:
            instructions.append(Conditional(draw(st.sampled_from(labels)),
                                            draw(st.integers(0, 1)), draw(rotation)))
        else:
            instructions.append(draw(rotation))
    spread = sorted(draw(st.lists(st.integers(1, 1024), min_size=n, max_size=n, unique=True)))
    return Circuit(n, instructions), dict(zip(range(1, n + 1), spread))


def moved(ins, to):
    """An instruction with each of its arms a moved to to[a]."""
    if isinstance(ins, Conditional):
        return dataclasses.replace(ins, op=moved(ins.op, to))
    arms = [f.name for f in dataclasses.fields(ins) if f.name.startswith("arm")]
    return dataclasses.replace(ins, **{name: to[getattr(ins, name)] for name in arms})


def run_outcome(directory: Path, circuit, backend):
    """feqc run's exit code and report, corr's wall time zeroed, or its
    exit code and stderr."""
    path = directory / "circuit.feqc"
    path.write_text(print_circuit(circuit))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["run", str(path), "--backend", backend])
    if status:
        return status, err.getvalue()
    report = json.loads(out.getvalue())
    if backend == "corr":
        report["corr"]["wall_ms"] = 0.0
    return status, report


@settings(max_examples=150, deadline=None, database=None)
@given(spread_circuits())
# The electron on arm 2 lands on the arm the splitter filled: both backends
# name the circuit's arm, 1024.
@example((Circuit(2, [PrepSpin(1, 1, 0), BeamSplitter(1, 2), PrepSpin(2, 1, 0),
                      Measure("q", "charge", 2)]), {1: 1000, 2: 1024}))
def test_a_report_depends_only_on_the_order_of_the_arms(tmp_path_factory, drawn):
    """A circuit moved onto arms 1..1024 in the same order gives, on both
    backends, the report it gives as written, bit for bit, but for its arm
    count and the measured arms, which move with it; or the same refusal,
    its arms moved."""
    circuit, to = drawn
    wide = Circuit(1024, [moved(ins, to) for ins in circuit.instructions])
    directory = tmp_path_factory.mktemp("spread")
    for backend in ("fock", "corr"):
        status, got = run_outcome(directory, circuit, backend)
        if status:
            got = re.sub(r"\barm (\d+)", lambda m: f"arm {to[int(m[1])]}", got)
        else:
            got["arm_count"] = 1024
            if backend == "corr":
                got["corr"]["measured_arms"] = [to[a] for a in got["corr"]["measured_arms"]]
        assert run_outcome(directory, wide, backend) == (status, got)


def test_corr_cli_makes_no_leaf_node_for_a_terminal_block(tmp_path, monkeypatch, capsys):
    """Corr's report and sampled counts read the terminal block's arrays: a
    run of the 1944-leaf deep circuit, enumerated or sampled, constructs no
    leaf record, and the leaves of the tree it made are the walk's without
    the block."""
    src = tmp_path / "deep.feqc"
    src.write_text(print_circuit(deep_terminal_circuit()))
    made, roots = [], []
    init, tree = measurement.BranchRecord.__init__, corr.charge_branch_tree

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(measurement.BranchRecord, "__init__", counted)
    monkeypatch.setattr(corr, "charge_branch_tree", lambda c: roots.append(tree(c)) or roots[-1])
    for mode in ("enumerate", "sample"):
        assert cli.main(["run", str(src), "--backend", "corr", "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["corr"]["terms"] == 3 ** 8
    assert made == []
    with mock.patch.object(corr, "walk", walk_without_block):
        plain, _ = tree(deep_terminal_circuit())
    got = [(rec.outcomes, rec.probability.hex()) for rec in measurement.leaves(roots[0][0])]
    assert len(got) == 1944
    assert got == [(rec.outcomes, rec.probability.hex()) for rec in measurement.leaves(plain)]


def backend_tree(backend, circuit):
    """A circuit's branch tree on one backend, or None where it is refused."""
    try:
        if backend == "corr":
            return charge_branch_tree(circuit)[0]
        return measurement.branch_tree(circuit, fock.vacuum(circuit.arm_count))
    except FeqcError:
        return None


READOUT_KINDS = ["charge", "parity", "spin"]


@st.composite
def fock_terminal_circuits(draw):
    """Prepared 2-4-arm fock circuits with elements, mid-circuit readouts of
    every kind and conditionals on them, then a trailing run of 1-4 charge,
    parity or spin readouts whose arms may repeat and need not be singly
    occupied."""
    n = draw(st.integers(2, 4))
    arm = st.integers(1, n)
    rotations = st.builds(SpinRotation, arm, st.sampled_from(["x", "y", "z", "h"]))
    filled = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(1, n))]
    instructions = []
    if len(filled) >= 2 and draw(st.booleans()):
        instructions.append(PrepBell(draw(st.integers(0, 3)), filled.pop(), filled.pop()))
    instructions += [PrepSpin(a, *draw(st.sampled_from(SPINORS))) for a in filled]
    measured: dict[str, str] = {}
    for _ in range(draw(st.integers(1, 8))):
        choice = draw(st.sampled_from(["element", "element", "rot", "measure", "if"]))
        if choice == "element":
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure":
            label = f"m{len(measured)}"
            measured[label] = draw(st.sampled_from(READOUT_KINDS))
            instructions.append(Measure(label, measured[label], draw(arm)))
        elif choice == "if" and measured:
            label = draw(st.sampled_from(sorted(measured)))
            value = draw(st.integers(0, 2 if measured[label] == "charge" else 1))
            instructions.append(Conditional(label, value, draw(rotations)))
        else:
            instructions.append(draw(rotations))
    readouts = draw(st.lists(st.tuples(st.sampled_from(READOUT_KINDS), arm), min_size=1,
                             max_size=4))
    instructions += [Measure(f"t{i}", kind, a) for i, (kind, a) in enumerate(readouts)]
    return Circuit(n, instructions)


# All three kinds on repeated arms after a mid-circuit readout and a conditional.
MIXED_TERMINAL_RUN = Circuit(3, [
    PrepSpin(1, 0.6, 0.8j), PrepSpin(2, 1, 1), PrepSpin(3, 1, -1j), BeamSplitter(1, 2),
    Measure("p", "parity", 1), Conditional("p", 1, SpinRotation(2, "h")),
    Measure("a", "charge", 2), Measure("b", "parity", 2), Measure("c", "spin", 3),
    Measure("d", "charge", 1), Measure("e", "spin", 3)])


def fock_tree_or_error(circuit, cone=False):
    try:
        return measurement.branch_tree(circuit, fock.vacuum(circuit.arm_count), cone=cone)
    except FeqcError as err:  # PreconditionError is one
        return type(err), str(err)


def assert_same_fock_tree(tree, plain, rel=1e-14, states=True):
    """Equal labels, outcomes and order; equal probabilities within ``rel``
    relative; with ``states``, equal post-state keys (in order) and
    amplitudes within 1e-14 relative."""
    if isinstance(plain, tuple):  # the reference walk raised
        assert tree == plain
        return
    if isinstance(plain, BranchNode):
        assert isinstance(tree, BranchNode) and tree.label == plain.label
        assert [o for o, _, _ in tree.children] == [o for o, _, _ in plain.children]
        for (_, p, child), (_, q, other) in zip(tree.children, plain.children):
            assert abs(p - q) <= rel * q, (plain.label, p, q)
            assert_same_fock_tree(child, other, rel, states)
        return
    assert list(tree.outcomes.items()) == list(plain.outcomes.items())
    assert abs(tree.probability - plain.probability) <= rel * plain.probability
    if not states:
        return
    amps, ref_amps = tree.post_state.amplitudes, plain.post_state.amplitudes
    assert list(amps) == list(ref_amps)
    assert all(abs(amps[k] - a) <= 1e-14 * abs(a) for k, a in ref_amps.items())


@settings(max_examples=150, deadline=None, database=None)
@given(fock_terminal_circuits(), st.sampled_from([measurement.MAX_LEAVES, 1, 2, 3, 5]))
# A spin readout after the charge readout of the same arm: the first
# surviving branch, q=0 (p = 1/8), leaves that arm empty.
@example(Circuit(2, [PrepSpin(1, 1, 1), PrepSpin(2, 1, 0), BeamSplitter(1, 2),
                     Measure("q", "charge", 1), Measure("s", "spin", 1)]),
         measurement.MAX_LEAVES)
# A spin readout of a doubly occupied arm is refused at the block's root.
@example(Circuit(2, [PrepBell(0, 1, 2), BeamSplitter(1, 2), Measure("s", "spin", 1),
                     Measure("q", "charge", 2)]), measurement.MAX_LEAVES)
# A 6-leaf tree, and the same circuit over a limit of 5 leaves.
@example(MIXED_TERMINAL_RUN, measurement.MAX_LEAVES)
@example(MIXED_TERMINAL_RUN, 5)
@with_pool_examples(measurement.MAX_LEAVES)
def test_fock_terminal_block_equals_the_walk_without_it(circuit, max_leaves):
    """Fock's terminal block, one grouping of the keys for the whole run of
    readouts, gives the tree the walker makes readout by readout, or the same
    error (a refused spin readout, or MAX_LEAVES lowered)."""
    with mock.patch.object(measurement, "MAX_LEAVES", max_leaves):
        tree = fock_tree_or_error(circuit)
        with mock.patch.object(measurement, "walk", walk_without_block):
            plain = fock_tree_or_error(circuit)
    assert_same_fock_tree(tree, plain)


@st.composite
def fock_cone_circuits(draw):
    """3-6-arm fock circuits whose electrons and entangled pairs may come
    after elements, readouts of every kind anywhere, conditionals on them,
    and a trailing run of 0-3 readouts: part of each circuit lies outside its
    readouts' light cone, and a preparation can land on an arm an element
    touched or filled."""
    n = draw(st.integers(3, 6))
    arm = st.integers(1, n)
    rotations = st.builds(SpinRotation, arm, st.sampled_from(["x", "y", "z", "h"]))
    fresh = draw(st.permutations(range(1, n + 1)))
    instructions = []
    measured: dict[str, str] = {}
    for _ in range(draw(st.integers(1, 14))):
        choice = draw(st.sampled_from(["electron", "electron", "bell", "element", "element",
                                       "rot", "measure", "if"]))
        if choice == "electron" and fresh:
            instructions.append(PrepSpin(fresh.pop(), *draw(st.sampled_from(SPINORS))))
        elif choice == "bell" and len(fresh) >= 2:
            instructions.append(PrepBell(draw(st.integers(0, 3)), fresh.pop(), fresh.pop()))
        elif choice == "element":
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            cls = draw(st.sampled_from([BeamSplitter, PolarizingBeamSplitter, SwapArms]))
            instructions.append(cls(i, j))
        elif choice == "measure":
            label = f"m{len(measured)}"
            measured[label] = draw(st.sampled_from(READOUT_KINDS))
            instructions.append(Measure(label, measured[label], draw(arm)))
        elif choice == "if" and measured:
            label = draw(st.sampled_from(sorted(measured)))
            value = draw(st.integers(0, 2 if measured[label] == "charge" else 1))
            instructions.append(Conditional(label, value, draw(rotations)))
        else:
            instructions.append(draw(rotations))
    readouts = draw(st.lists(st.tuples(st.sampled_from(READOUT_KINDS), arm), max_size=3))
    instructions += [Measure(f"t{i}", kind, a) for i, (kind, a) in enumerate(readouts)]
    return Circuit(n, instructions)


# The circuit of the CI check: 20 split electrons hold 2^20 keys, and the
# full circuit is refused on MAX_KEYS; the readout's cone is one electron.
TWENTY_ARMS = Circuit(20, [*(PrepSpin(a, 1, 1) for a in range(1, 21)),
                           *(BeamSplitter(a, a + 1) for a in range(2, 20)),
                           Measure("q", "charge", 1)])


def is_max_keys_refusal(tree) -> bool:
    return isinstance(tree, tuple) and "MAX_KEYS" in tree[1]


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(fock_terminal_circuits(), fock_cone_circuits()))
# Arm 2's electron lands on an arm the splitter filled: it reads arm 2, so the
# cone keeps it, the splitter and arm 1's electron, and refuses it by name.
@example(Circuit(4, [PrepSpin(1, 1, 1), BeamSplitter(1, 2), PrepSpin(2, 1, 0),
                     PrepSpin(4, 0.6, 0.8j), BeamSplitter(3, 4), Measure("q", "spin", 4)]))
# The splitter touched arm 3 but left it empty: the electron lands.  The pair
# is in the cone through its second arm only; arm 1's electron is not.
@example(Circuit(5, [PrepSpin(1, 1, 0), BeamSplitter(3, 4), PrepSpin(3, 0.6, 0.8),
                     PrepBell(1, 5, 2), Measure("p", "parity", 3), Measure("q", "spin", 2)]))
@example(TWENTY_ARMS)
@with_pool_examples()
def test_fock_light_cone_gives_the_full_circuit_tree(circuit):
    """Fock's walk over the readouts' light cone gives the full circuit's
    leaf outcomes, in the same order, with probabilities within 1e-12
    relative, or the same refusal.  Only a MAX_KEYS refusal of the full
    circuit may run on the cone, whose states hold fewer electrons."""
    cone = fock_tree_or_error(circuit, cone=True)
    plain = fock_tree_or_error(circuit)
    if is_max_keys_refusal(plain):
        assert not isinstance(cone, tuple) or is_max_keys_refusal(cone)
        if circuit == TWENTY_ARMS:
            assert plain[1] == ("fock backend: a state of 524288 keys exceeds the limit "
                                "MAX_KEYS = 262144")
            assert [(rec.outcomes, rec.probability) for rec in measurement.leaves(cone)] == [
                ({"q": 1}, 1.0)]
        return
    assert_same_fock_tree(cone, plain, rel=1e-12, states=False)


def electron_count(instructions) -> int:
    return sum(2 if isinstance(ins, PrepBell) else 1 for ins in instructions
               if isinstance(ins, (PrepSpin, PrepBell)))


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(fock_terminal_circuits(), fock_cone_circuits()))
def test_fock_leaf_keys_hold_the_electrons_of_the_circuit_or_its_cone(circuit):
    """Fock's kernel, preparations and readouts keep particle number per key:
    every key of every leaf's post-state holds the circuit's electrons, and,
    on the light cone, the cone's."""
    for cone, instructions in ((False, circuit.instructions),
                               (True, light_cone(circuit.instructions))):
        tree = fock_tree_or_error(circuit, cone)
        if isinstance(tree, tuple):
            continue
        electrons = electron_count(instructions)
        for rec in measurement.leaves(tree):
            assert {key.bit_count() for key in rec.post_state.amplitudes} == {electrons}


def assert_above_threshold(state):
    assert all(abs(a) >= PRUNE for a in state.amplitudes.values())
    return state


def checked_steps(state, ins):
    """apply_instruction, the state checked after a preparation and after
    each kernel step of an element."""
    for state in kernel_states(state, ins):
        assert_above_threshold(state)
    return state


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(fock_terminal_circuits(), fock_cone_circuits()))
@example(SMALL_SPINOR_CIRCUIT)
@example(MIXED_TERMINAL_RUN)
def test_every_state_fock_builds_holds_amplitudes_at_or_above_the_threshold(circuit):
    """The invariant an element step relies on: every state after a
    preparation or a kernel step, every mid-circuit readout's post-state and
    every leaf's post-state, terminal leaves included, holds only amplitudes
    at or above PRUNE_THRESHOLD."""
    instructions = circuit.instructions
    tail = len(instructions) - measurement.trailing_measures(instructions)

    def branches(state, ins, _prob):
        return [(outcome, p, assert_above_threshold(post))
                for outcome, p, post in measurement._MEASURE_FNS[ins.kind](state, ins.arm)]

    try:
        root = measurement.walk(instructions, fock.vacuum(circuit.arm_count), checked_steps,
                                branches, (tail, measurement._born))
    except FeqcError:  # a refused readout or preparation
        return
    for rec in measurement.leaves(root):
        assert_above_threshold(rec.post_state)


@st.composite
def fock_conditional_readout_circuits(draw):
    """2-4-arm fock circuits of split electrons, each splitter followed by a
    charge or parity readout that may sit under a conditional on an earlier
    one, then 0-2 trailing charge readouts: about a quarter of the trees
    have leaves that read different labels."""
    n = draw(st.integers(2, 4))
    arm = st.integers(1, n)
    instructions = [PrepSpin(a, *draw(st.sampled_from(SPINORS))) for a in range(1, draw(arm) + 1)]
    for k in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        instructions.append(BeamSplitter(i, j))
        ins = Measure(f"m{k}", draw(st.sampled_from(["charge", "parity"])), draw(arm))
        if k and draw(st.booleans()):
            ins = Conditional(f"m{draw(st.integers(0, k - 1))}", draw(st.integers(0, 1)), ins)
        instructions.append(ins)
    instructions += [Measure(f"t{k}", "charge", draw(arm)) for k in range(draw(st.integers(0, 2)))]
    return Circuit(n, instructions)


def leaf_nodes(node) -> list:
    """The leaf records and FrontierNodes of a tree, in leaf order."""
    if isinstance(node, (BranchRecord, FrontierNode)):
        return [node]
    return [leaf for _, _, child in node.children for leaf in leaf_nodes(child)]


BELL_ANALYZER = parse((Path(__file__).parent / "data" / "gadgets" / "bell_analyzer.feqc")
                      .read_text(encoding="utf-8")).circuit


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(terminal_charge_circuits().map(lambda c: ("corr", c)),
                 wide_charge_circuits().map(lambda c: ("corr", c)),
                 fock_terminal_circuits().map(lambda c: ("fock", c)),
                 fock_conditional_readout_circuits().map(lambda c: ("fock", c))))
@example(("corr", deep_terminal_circuit()))
@example(("corr", Circuit(1, [PrepSpin(1, 1, 0)])))  # no readouts: one leaf without labels
@example(("fock", MIXED_TERMINAL_RUN))
@example(("fock", BELL_ANALYZER))
def test_leaf_table_equals_the_leaves(drawn):
    """leaf_table's chunks give the rows of leaves(): the same outcome
    values, order and probability bits, each leaf in a chunk of its own
    labels, on trees of plain nodes, on corr's terminal blocks, on blocks
    below mid-circuit readouts and on leaves that read different labels.  A
    FrontierNode is a chunk of its own arrays; a run of records is one chunk
    of as many records as read the same labels."""
    backend, circuit = drawn
    root = backend_tree(backend, circuit)
    if root is None:
        return
    chunks = measurement.leaf_table(root)
    records = measurement.leaves(root)
    assert [row for _, rows, _ in chunks for row in rows.tolist()] == [
        list(rec.outcomes.values()) for rec in records]
    assert [p.hex() for *_, probs in chunks for p in probs.tolist()] == [
        rec.probability.hex() for rec in records]
    assert [labels for labels, rows, _ in chunks for _ in range(len(rows))] == [
        tuple(rec.outcomes) for rec in records]
    nodes = leaf_nodes(root)
    before = None  # the labels of the chunk before, if it holds records
    for labels, rows, probs in chunks:
        node = nodes.pop(0)
        if isinstance(node, FrontierNode):
            assert labels == node.labels and rows is node.rows and probs is node.probabilities
            before = None
        else:
            run = [node, *nodes[:len(rows) - 1]]
            del nodes[:len(rows) - 1]
            assert all(isinstance(rec, BranchRecord) and tuple(rec.outcomes) == labels
                       for rec in run)
            assert labels != before
            before = labels
    assert nodes == []


@charge_examples
def test_fock_state_has_norm_one_before_every_readout(circuit):
    """Fock renormalizes each branch after pruning and its elements are
    unitary, so every readout must see a state of norm 1."""

    def meter(state, ins, _prob):
        norm2 = sum(abs(a) ** 2 for a in state.amplitudes.values())
        assert abs(norm2 - 1) <= 1e-12, (ins.label, norm2)
        return measurement._MEASURE_FNS[ins.kind](state, ins.arm)

    measurement.walk(circuit.instructions, fock.vacuum(circuit.arm_count), apply_instruction, meter)


def assert_kept_outcomes_sum_to_one(circuit):
    """Expand a circuit on fock with _born's drift check tightened from
    1e-9 to 1e-12: the outcome probabilities each readout keeps must sum to 1
    within 1e-12 before it divides by their total."""
    with mock.patch.object(measurement, "NORM_TOLERANCE", 1e-12):
        enumerate_branches(circuit, fock.vacuum(circuit.arm_count))


@charge_examples
def test_fock_kept_outcome_probabilities_sum_to_one(circuit):
    assert_kept_outcomes_sum_to_one(circuit)


def test_fock_kept_outcome_probabilities_sum_to_one_on_the_fock_deep_pool():
    for circuit in pool_circuits("fock-deep"):
        assert_kept_outcomes_sum_to_one(circuit)
    # The tightened check is live: a state that lost 1e-11 of its norm fails it.
    state = fock.prepare_spin(fock.vacuum(1), 1, 1, 1)
    lossy = fock.FockState(1, {k: a * (1 - 5e-12) for k, a in state.amplitudes.items()})
    with mock.patch.object(measurement, "NORM_TOLERANCE", 1e-12):
        with pytest.raises(FeqcError, match="norm drifted"):
            measurement.measure_charge(lossy, 1)


def gaussian_state(seed, arms):
    return corr.CorrelationMatrix(arms, random_correlation_matrix(np.random.default_rng(seed), arms))


def mode_at(pos):
    return (pos // 2 + 1, fock.Spin(pos % 2))


arm_counts = st.integers(2, 6)
# 1-4 distinct mode positions of a state of n arms, in any order.
evolve_modes = arm_counts.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 2 * n - 1), min_size=1, max_size=4, unique=True)))
joint_arms = arm_counts.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))


@settings(max_examples=60, deadline=None, database=None)
@given(seeds, evolve_modes)
@example(0, (3, [5, 0]))  # descending, with modes between
@example(1, (6, [11, 2, 7, 4]))
def test_corr_evolve_matches_dense_oracle(seed, arms_and_positions):
    arms, positions = arms_and_positions
    M = gaussian_state(seed, arms)
    u = random_unitary(np.random.default_rng(seed + 1), len(positions))
    out = corr.evolve(M, [mode_at(p) for p in positions], u)
    assert np.abs(out.matrix - dense_evolve(M.matrix, positions, u)).max() <= 1e-13


@settings(max_examples=60, deadline=None, database=None)
@given(seeds, arm_counts, st.integers(0, 11), st.sampled_from([0, 1]))
def test_corr_projection_matches_dense_oracle(seed, arms, pos, outcome):
    M = gaussian_state(seed, arms)
    pos %= 2 * arms
    occ = M.matrix[pos, pos].real
    if (occ if outcome == 1 else 1.0 - occ) <= corr.PROBABILITY_FLOOR:  # an empty or full state
        with pytest.raises(ValueError, match="zero probability"):
            corr.project_occupation(M, mode_at(pos), outcome)
        return
    prob, oracle = dense_project(M.matrix, pos, outcome)
    assume(prob > 1e-6)
    got, post = corr.project_occupation(M, mode_at(pos), outcome)
    assert got == min(prob, 1.0)
    assert np.abs(post.matrix - oracle).max() <= 1e-13


def split_state(arms, spinors):
    """Electrons with the given spinors on arms 1, 2, ..., then a beam
    splitter on the down modes of arms 1 and 2."""
    M = corr.init_from_occupations([], arms)
    for arm, spinor in enumerate(spinors, start=1):
        M = corr.add_electron(M, arm, *spinor)
    return corr.evolve(M, [(1, fock.Spin.DOWN), (2, fock.Spin.DOWN)], fock.BEAM_SPLITTER_MATRIX)


# Arm 3 holds no electron: every term that reads it has a zero pivot.
EMPTY_ARM = split_state(3, [(0.6, 0.8), (1, 0)])
# Arm 1's down occupation, 1e-12 / (1 + 1e-12), lies just under PROBABILITY_FLOOR.
STRADDLING_ARM = split_state(2, [(1, 1e-6), (0.6, 0.8)])


def joint_state(state, arms):
    """The random Gaussian state of a seed, or an explicit example's state."""
    return state if isinstance(state, corr.CorrelationMatrix) else gaussian_state(state, arms)


@settings(max_examples=60, deadline=None, database=None)
@given(seeds, joint_arms)
@example(0, (6, [1, 2, 3, 4, 5, 6]))
@example(1, (5, [4, 2]))
@example(EMPTY_ARM, (3, [1, 2, 3]))
@example(STRADDLING_ARM, (2, [1, 2]))
@example(STRADDLING_ARM, (2, [1]))
def test_corr_joint_query_matches_dense_oracle(state, arms_and_subset):
    arms, subset = arms_and_subset
    M = joint_state(state, arms)
    expected = dense_single_occupancy(M.matrix, subset)
    got = corr.single_occupancy_probability(M, subset)
    assert abs(got - expected) <= 1e-14
    occupations = M.matrix.diagonal().real
    if any(occupations[2 * a - 2] == occupations[2 * a - 1] == 0 for a in subset):
        assert got == 0.0  # a read arm holds no electron


def terminal_block_query(circuit):
    """The state a circuit of terminal charge readouts reaches before them,
    and its arm count and read arms: the joint query its block prices."""
    M = corr.init_from_occupations([], circuit.arm_count)
    apply = whole_circuit_apply(circuit)
    for ins in circuit.instructions:
        if not isinstance(ins, Measure):
            M = apply(M, ins)
    read = [ins.arm for ins in circuit.instructions if isinstance(ins, Measure)]
    assert all(isinstance(ins, Measure) for ins in circuit.instructions[-len(read):])
    return M, (circuit.arm_count, read)


@settings(max_examples=40, deadline=None, database=None)
@given(seeds, joint_arms)
@example(EMPTY_ARM, (3, [3, 1]))
@with_pool_examples(pool="corr-scale", arguments=terminal_block_query)
def test_joint_frontier_forms_every_monomial_in_order(state, arms_and_subset):
    arms, subset = arms_and_subset
    M = joint_state(state, arms)
    terms = corr.single_occupancy_terms(M, subset)
    monomials = product_monomials(subset, arms)
    assert len(terms) == len(monomials) == 3 ** len(subset)
    for term, (coef, positions) in zip(terms.tolist(), monomials):
        minor = np.linalg.det(M.matrix[np.ix_(positions, positions)]).real
        assert abs(term - coef * minor) <= 1e-14

