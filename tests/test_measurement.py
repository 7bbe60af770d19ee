"""Born-rule measurements, branch enumeration, and seeded sampling."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from feqc import cli, corr, measurement
from feqc.circuit import (
    BeamSplitter,
    Circuit,
    Conditional,
    Measure,
    PolarizingBeamSplitter,
    PrepBell,
    PrepSpin,
    SpinRotation,
    apply_instruction,
    light_cone,
)
from feqc.errors import CircuitError, FeqcError, PreconditionError
from feqc.fock import (
    FockState, Spin, arm_charge, create, fidelity, format_key, prepare_bell,
    prepare_spin, vacuum,
)
from feqc.measurement import (
    REFUSED,
    BranchNode,
    BranchRecord,
    branch_tree,
    enumerate_branches,
    leaves,
    measure_charge,
    measure_parity,
    measure_spin,
    outcome_signature,
    sample,
    sample_tree,
)
from feqc.parser import parse
from helpers import amplitude_bits, charge1_probability, random_state, walk

UP = Spin.UP
DATA = Path(__file__).parent / "data"

# Three readout levels, two conditionals and 14 leaves of unequal weight.
UNEVEN_TREE = """arms 3
electron 1 (0.6,0) (0,0.8)
electron 2 (0.8,0) (0.6,0)
electron 3 up
pbs 1 2
p = parity 1
if p == 0 : rot 2 h
bs 2 3
q = charge 3
if q == 1 : rot 1 h
bs 1 2
c = charge 1
"""


def bunched_singlet():
    return apply_instruction(prepare_bell(vacuum(2), 0, 1, 2), BeamSplitter(1, 2))


def test_charge_definite_single_electron():
    state = prepare_spin(vacuum(1), 1, 1, 0)
    branches = measure_charge(state, 1)
    assert len(branches) == 1
    q, prob, post = branches[0]
    assert (q, prob) == (1, pytest.approx(1.0))
    assert fidelity(post, state) == pytest.approx(1.0)


def test_charge_on_bunched_singlet_splits_evenly():
    branches = measure_charge(bunched_singlet(), 1)
    assert [q for q, _, _ in branches] == [0, 2]
    for _, prob, _ in branches:
        assert prob == pytest.approx(0.5)


def test_charge_on_split_electron():
    state = apply_instruction(create(vacuum(2), (1, UP)), BeamSplitter(1, 2))
    branches = measure_charge(state, 1)
    assert {q: pytest.approx(0.5) for q, _, _ in branches} == {0: 0.5, 1: 0.5}


def test_parity_keeps_bunched_coherence():
    state = bunched_singlet()
    branches = measure_parity(state, 1)
    assert len(branches) == 1
    p, prob, post = branches[0]
    assert (p, prob) == (0, pytest.approx(1.0))
    assert fidelity(post, state) == pytest.approx(1.0)  # still the coherent superposition


def test_parity_of_aligned_spins_after_pbs():
    state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 0), 2, 1, 0)
    mixed = apply_instruction(state, PolarizingBeamSplitter(1, 2))
    branches = measure_parity(mixed, 1)
    assert len(branches) == 1
    assert branches[0][0] == 1
    assert branches[0][1] == pytest.approx(1.0)


def test_parity_weights_on_mixed_charge_superposition():
    # amplitudes 1/2, 1/2, sqrt(2)/2 on arm-1 charges 0, 1, 2
    state = FockState(2, {
        0b0100: 0.5 + 0j,          # charge 0 on arm 1, spectator in arm 2
        0b0001: 0.5 + 0j,          # charge 1
        0b0011: np.sqrt(2) / 2 + 0j,  # charge 2
    })
    branches = measure_parity(state, 1)
    probs = {p: prob for p, prob, _ in branches}
    assert probs[0] == pytest.approx(0.75)
    assert probs[1] == pytest.approx(0.25)


def test_spin_measurement_weights():
    state = prepare_spin(vacuum(1), 1, 1, 1)
    probs = {z: prob for z, prob, _ in measure_spin(state, 1)}
    assert probs == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}
    down = prepare_spin(vacuum(1), 1, 0, 1)
    assert measure_spin(down, 1) == [(1, pytest.approx(1.0), down)]
    state = prepare_spin(vacuum(2), 1, 0.6, 0.8)
    probs = {z: prob for z, prob, _ in measure_spin(state, 1)}
    assert probs[0] == pytest.approx(0.36)
    assert probs[1] == pytest.approx(0.64)


def test_spin_measurement_requires_single_occupancy():
    with pytest.raises(PreconditionError):
        measure_spin(vacuum(1), 1)
    split = apply_instruction(create(vacuum(2), (1, UP)), BeamSplitter(1, 2))
    with pytest.raises(PreconditionError):
        measure_spin(split, 1)


def test_spin_measurement_is_nondemolition():
    state = prepare_spin(vacuum(1), 1, 0.6, 0.8j)
    for z, _, post in measure_spin(state, 1):
        assert measure_spin(post, 1) == [(z, pytest.approx(1.0), post)]


def test_charge1_expectation_matches_charge_branch():
    rng = np.random.default_rng(21)
    for _ in range(10):
        state = random_state(rng, 2)
        expected = {q: p for q, p, _ in measure_charge(state, 1)}.get(1, 0.0)
        assert abs(charge1_probability(state, 1) - expected) <= 1e-12


def test_measurement_probabilities_complete():
    rng = np.random.default_rng(22)
    for _ in range(10):
        state = random_state(rng, 2)
        for fn in (measure_charge, measure_parity):
            assert abs(sum(p for _, p, _ in fn(state, 1)) - 1.0) <= 1e-9


def test_measurement_idempotence():
    rng = np.random.default_rng(23)
    for _ in range(5):
        state = random_state(rng, 2)
        for q, _, post in measure_charge(state, 2):
            again = measure_charge(post, 2)
            assert len(again) == 1 and again[0][0] == q
            assert again[0][1] == pytest.approx(1.0)


def test_parity_order_does_not_matter():
    rng = np.random.default_rng(24)
    for _ in range(5):
        state = random_state(rng, 3)
        forward = {}
        for p1, pr1, post in measure_parity(state, 1):
            for p2, pr2, _ in measure_parity(post, 2):
                forward[(p1, p2)] = forward.get((p1, p2), 0.0) + pr1 * pr2
        backward = {}
        for p2, pr2, post in measure_parity(state, 2):
            for p1, pr1, _ in measure_parity(post, 1):
                backward[(p1, p2)] = backward.get((p1, p2), 0.0) + pr1 * pr2
        for key in set(forward) | set(backward):
            assert forward.get(key, 0.0) == pytest.approx(backward.get(key, 0.0), abs=1e-9)


def test_parity_coarse_grains_charge():
    rng = np.random.default_rng(25)
    for _ in range(10):
        state = random_state(rng, 2)
        charge = {q: p for q, p, _ in measure_charge(state, 1)}
        parity = {p: pr for p, pr, _ in measure_parity(state, 1)}
        for p in (0, 1):
            pushed = sum(pr for q, pr in charge.items() if q % 2 == p)
            assert abs(parity.get(p, 0.0) - pushed) <= 1e-12


def test_parity_branch_is_not_reachable_from_charge_branches():
    """Undoing the splitter after a parity readout restores a definite charge;
    no mixture of electrometer outcomes can do that."""
    state = bunched_singlet()
    (_, _, parity_post), = measure_parity(state, 1)
    revived = apply_instruction(parity_post, BeamSplitter(1, 2))
    assert charge1_probability(revived, 1) == pytest.approx(1.0)
    for _, _, charge_post in measure_charge(state, 1):
        revived = apply_instruction(charge_post, BeamSplitter(1, 2))
        assert charge1_probability(revived, 1) == pytest.approx(0.5)


@pytest.mark.parametrize("measure", [measure_charge, measure_parity, measure_spin])
def test_measurements_report_norm_drift_instead_of_renormalizing(measure):
    state = prepare_spin(prepare_spin(vacuum(2), 2, 1, 0), 1, 1, 1)
    # A raw creation operator on a half-blocked arm leaves norm 1/sqrt(2).
    with pytest.raises(FeqcError, match="norm drifted"):
        measure(create(state, (1, UP)), 2)
    with pytest.raises(FeqcError, match="norm drifted"):  # no keys at all
        measure(FockState(2, {}), 2)
    for scale, drifts in ((1 + 1e-11, False), (1 + 1e-8, True)):
        scaled = FockState(2, {k: a * scale for k, a in state.amplitudes.items()})
        if drifts:
            with pytest.raises(FeqcError, match="norm drifted"):
                measure(scaled, 2)
        else:
            assert sum(p for _, p, _ in measure(scaled, 2)) == pytest.approx(1.0)


@pytest.mark.parametrize("tail", ["", "bs 2 3\nr = charge 3\n"], ids=["trailing", "mid-circuit"])
@pytest.mark.parametrize("mass", [5e-13, 2e-12])
def test_a_readout_drops_an_outcome_at_the_branch_threshold_and_renormalizes_the_rest(tail, mass):
    # The splitter sends the electron's down part, of weight ``mass``, to arm 2,
    # so charge 1 reads 0 with probability ``mass``.  Read last, it is a run of
    # one readout (_expand); followed by an element, a readout of its own (_split).
    down = math.sqrt(mass / (1 - mass))
    circuit = parse(f"arms 3\nelectron 1 (1,0) ({down!r},0)\npbs 1 2\nq = charge 1\n{tail}").circuit
    probabilities = {}
    for record in enumerate_branches(circuit, vacuum(3)):
        q = record.outcomes["q"]
        probabilities[q] = probabilities.get(q, 0.0) + record.probability
    if mass < measurement.BRANCH_THRESHOLD:
        assert probabilities == {1: 1.0}  # 1 - mass over the kept 1 - mass
    else:
        assert probabilities[0] == pytest.approx(mass, rel=1e-9)
        assert probabilities[1] == pytest.approx(1 - mass, rel=1e-15)


# Each readout's outcome for a key, as the mask table in its measure_* must give
# it; REFUSED for a key the readout refuses, which its table must lack.
KEY_CLASSIFIERS = {
    "charge": (measure_charge, lambda key, arm: arm_charge(key, arm)),
    "parity": (measure_parity, lambda key, arm: arm_charge(key, arm) % 2),
    "spin": (measure_spin, lambda key, arm: (REFUSED if arm_charge(key, arm) != 1
                                             else 0 if key >> 2 * (arm - 1) & 1 else 1)),
}


@pytest.mark.parametrize("kind", KEY_CLASSIFIERS)
def test_readout_mask_tables_agree_with_key_classifiers(monkeypatch, kind):
    measure, classify = KEY_CLASSIFIERS[kind]
    arms = 5
    state = vacuum(arms)
    for arm in range(1, arms + 1):
        state = prepare_spin(state, arm, 0.6, 0.8)  # every arm singly occupied, for measure_spin
    tables = []
    build = measurement._arm_meter
    monkeypatch.setattr(measurement, "_arm_meter",
                        lambda *args: tables.append(build(*args)) or tables[-1])
    rng = np.random.default_rng(len(kind))
    for arm in range(1, arms + 1):
        measure(state, arm)
        mask, outcome_of, _ = tables.pop()
        for key in rng.integers(0, 1 << 2 * arms, size=200).tolist():
            assert outcome_of.get(key & mask, REFUSED) == classify(key, arm), (
                arm, format_key(key, arms))


@pytest.mark.parametrize("kind", KEY_CLASSIFIERS)
def test_readout_post_states_hold_python_complex_amplitudes(kind):
    measure, _ = KEY_CLASSIFIERS[kind]
    state = prepare_spin(prepare_spin(vacuum(2), 1, 0.6, 0.8j), 2, 1, 1)
    for arm in (1, 2):
        split = apply_instruction(state, BeamSplitter(1, 2)) if kind != "spin" else state
        for _, _, post in measure(split, arm):
            assert all(type(a) is complex for a in post.amplitudes.values())


def encoder_circuit(alpha=0.6, beta=0.8):
    return Circuit(2, [
        PrepSpin(1, alpha, beta),
        PrepSpin(2, 1, 1),
        PolarizingBeamSplitter(1, 2),
        Measure("p", "parity", 1),
        PolarizingBeamSplitter(1, 2),
        Conditional("p", 0, SpinRotation(2, "x")),
    ])


def test_enumerate_without_measurements():
    circuit = Circuit(2, [PrepBell(0, 1, 2), BeamSplitter(1, 2)])
    records = enumerate_branches(circuit, vacuum(2))
    assert len(records) == 1
    assert records[0].probability == pytest.approx(1.0)


def test_enumerate_encoder_has_two_even_branches():
    records = enumerate_branches(encoder_circuit(), vacuum(2))
    assert len(records) == 2
    for rec in records:
        assert rec.probability == pytest.approx(0.5)
    assert abs(sum(r.probability for r in records) - 1.0) <= 1e-9


def test_enumerate_rejects_forward_reference():
    circuit = Circuit(1, [
        PrepSpin(1, 1, 0),
        Conditional("z", 0, SpinRotation(1, "x")),
        Measure("z", "spin", 1),
    ])
    with pytest.raises(CircuitError):
        enumerate_branches(circuit, vacuum(1))


def test_sample_reproducible_and_complete():
    circuit = encoder_circuit()
    first = sample(circuit, vacuum(2), seed=7, shots=500)
    second = sample(circuit, vacuum(2), seed=7, shots=500)
    assert first == second
    assert sum(first.frequencies.values()) == 500
    assert len(first.records) == 500
    third = sample(circuit, vacuum(2), seed=8, shots=500)
    assert third != first


def test_sample_respects_deterministic_circuits():
    circuit = Circuit(2, [
        PrepBell(2, 1, 2),
        BeamSplitter(1, 2),
        Measure("p1", "parity", 1),
        Conditional("p1", 1, SpinRotation(2, "z")),
        BeamSplitter(1, 2),
        Measure("p2", "parity", 1),
        Conditional("p2", 1, SpinRotation(2, "x")),
        BeamSplitter(1, 2),
        Measure("p3", "parity", 1),
    ])
    result = sample(circuit, vacuum(2), seed=1, shots=64)
    assert result.frequencies == {"p1=1,p2=1,p3=0": 64}


def test_sample_frequency_within_four_sigma():
    circuit = encoder_circuit()
    shots = 20_000
    result = sample(circuit, vacuum(2), seed=11, shots=shots)
    ones = sum(count for sig, count in result.frequencies.items() if sig == "p=1")
    assert abs(ones / shots - 0.5) <= 4 * np.sqrt(0.25 / shots)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(encoder_circuit(), vacuum(2), seed=0, shots=0)


def uneven_tree():
    return branch_tree(parse(UNEVEN_TREE).circuit, vacuum(3))


def test_shot_i_takes_the_i_th_double_of_the_seeded_stream():
    root = uneven_tree()
    expected = []
    for u in np.random.Generator(np.random.Philox(key=99)).random(500):
        acc, pick = 0.0, leaves(root)[-1]
        for rec in leaves(root):
            acc += rec.probability
            if u < acc:
                pick = rec
                break
        expected.append(pick.outcomes)
    assert sample_tree(root, 99, 500).records == expected


def test_sample_is_a_prefix_of_any_longer_run_across_blocks():
    root = uneven_tree()
    block = measurement.SAMPLE_BLOCK
    longer = sample_tree(root, 5, block + 500)
    assert len(longer.records) == block + 500
    for k in (1, 1000, block, block + 1):
        shorter = sample_tree(root, 5, k)
        assert shorter.records == longer.records[:k]
        assert sum(shorter.frequencies.values()) == k


def test_draws_past_the_last_cumulative_value_pick_the_last_leaf():
    # Rounding can leave the leaf total just below 1; here it is 0.5.
    root = BranchNode("m", [(m, 0.25, BranchRecord({"m": m}, 0.25, None)) for m in (0, 1)])
    shots = 4000
    u = np.random.Generator(np.random.Philox(key=8)).random(shots)
    result = sample_tree(root, 8, shots)
    assert result.frequencies == {"m=0": int((u < 0.25).sum()), "m=1": int((u >= 0.25).sum())}


def test_a_sample_draws_its_records_once_when_they_are_first_read(monkeypatch):
    calls = []
    draw = measurement._leaf_picks

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(measurement, "_leaf_picks", counted)
    result = sample_tree(uneven_tree(), 4, 300)
    assert len(calls) == 1  # the frequencies
    first = result.records[0]
    assert len(calls) == 2
    assert result.records[0] == first and len(result.records) == 300
    assert len(calls) == 2


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_sample_does_not_depend_on_the_block_size(monkeypatch, block):
    root = uneven_tree()
    expected = sample_tree(root, 21, 3000)
    expected_records = list(expected.records)  # records are drawn when first read
    monkeypatch.setattr(measurement, "SAMPLE_BLOCK", block)
    result = sample_tree(root, 21, 3000)
    assert result.frequencies == expected.frequencies
    assert list(result.records) == expected_records


def test_sample_memory_does_not_grow_with_shots(monkeypatch):
    monkeypatch.setattr(measurement, "SAMPLE_BLOCK", 1024)
    root = uneven_tree()
    tracemalloc.start()
    try:
        result = sample_tree(root, 3, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(result.frequencies.values()) == 200_000
    assert peak < 200_000  # under one byte per shot: no per-shot draw or record is kept


ONE_OUTCOME_FILES = ["bell_analyzer", "hom_triplet", "parity_keeps_coherence",
                     "spin_parity_readout"]
# A split electron read on corr: two spin-resolved leaves of one row (q = 1)
# or, with a splitter first, leaves of two rows.
CORR_ONE_ROW = "arms 1\nelectron 1 plus\nq = charge 1\n"
CORR_TWO_ROWS = "arms 2\nelectron 1 plus\nbs 1 2\nq = charge 1\n"


def corr_tree(source):
    return corr.charge_branch_tree(parse(source).circuit)[0]


def philox_records(root, seed, shots):
    """Each shot's outcome assignment as the draw gives it: shot i picks the
    leaf of leaf_table's cumulative distribution that the i-th double of the
    seed's Philox stream lands in."""
    chunks = measurement.leaf_table(root)
    outcomes = [dict(zip(labels, row)) for labels, rows, _ in chunks for row in rows.tolist()]
    cdf = np.cumsum(np.concatenate([probs for *_, probs in chunks]))
    return [outcomes[i] for picks in measurement._leaf_picks(cdf, seed, shots)
            for i in picks.tolist()]


@pytest.mark.parametrize("shots", [1, 1024, measurement.SAMPLE_BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("name", [*ONE_OUTCOME_FILES, "corr", "labels_out_of_order"])
def test_a_one_outcome_sample_draws_nothing_and_equals_the_draw(monkeypatch, name, seed, shots):
    if name == "corr":
        root = corr_tree(CORR_ONE_ROW)
        assert len(measurement.leaves(root)) == 2
    else:
        source = ("arms 2\nelectron 1 up\nelectron 2 down\nz = charge 1\na = spin 2\n"
                  if name == "labels_out_of_order" else (DATA / f"{name}.feqc").read_text())
        circuit = parse(source).circuit
        root = branch_tree(circuit, vacuum(circuit.arm_count))
    drawn = philox_records(root, seed, shots)
    assert len({outcome_signature(outcome) for outcome in drawn}) == 1  # one assignment

    def refused(*args):
        raise AssertionError("a one-outcome sample drew")

    monkeypatch.setattr(measurement, "_leaf_picks", refused)
    result = sample_tree(root, seed, shots)
    assert result.frequencies == {outcome_signature(drawn[0]): shots}
    assert result.records == drawn
    assert result == sample_tree(root, seed, shots)


def test_a_corr_frontier_of_two_rows_is_drawn():
    root = corr_tree(CORR_TWO_ROWS)
    drawn = philox_records(root, 7, 1000)
    result = sample_tree(root, 7, 1000)
    assert result.frequencies == dict(sorted(Counter(map(outcome_signature, drawn)).items()))
    assert set(result.frequencies) == {"q=0", "q=1"}
    assert result.records == drawn


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_sample_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        sample(encoder_circuit(), vacuum(2), seed=seed, shots=10)


@pytest.mark.parametrize("source", [UNEVEN_TREE, (DATA / "cnot_core.feqc").read_text()],
                         ids=["uneven_tree", "cnot_core"])
def test_sample_counts_within_five_sigma_of_each_leaf(source):
    circuit = parse(source).circuit
    shots = 20_000
    result = sample(circuit, vacuum(circuit.arm_count), seed=2024, shots=shots)
    probs = {outcome_signature(rec.outcomes): rec.probability
             for rec in enumerate_branches(circuit, vacuum(circuit.arm_count))}
    assert set(result.frequencies) <= set(probs)
    assert sum(result.frequencies.values()) == shots
    for sig, p in probs.items():
        n = result.frequencies.get(sig, 0)
        assert abs(n - shots * p) <= 5 * np.sqrt(shots * p * (1 - p)), sig


def test_light_cone_keeps_what_the_readouts_depend_on():
    instructions = [PrepSpin(1, 1, 1), PrepBell(0, 2, 3), PrepSpin(4, 1, 0), BeamSplitter(1, 5),
                    Measure("q", "charge", 5), BeamSplitter(5, 4), BeamSplitter(6, 7),
                    SpinRotation(3, "h"), PrepSpin(7, 0, 1), PrepBell(1, 8, 9),
                    Conditional("q", 1, SpinRotation(8, "x")), Measure("r", "spin", 3)]
    # Arm 4's electron and the splitter after q act on no arm read later.  The
    # pair on arms 2 and 3 is read through arm 3.  Arm 7's electron lands on
    # an arm a splitter touched, so its occupancy check reads arm 7 and keeps
    # that splitter.  The pair on arms 8 and 9 lands before the conditional
    # touches arm 8, and both are dropped.
    cone = [PrepSpin(1, 1, 1), PrepBell(0, 2, 3), BeamSplitter(1, 5), Measure("q", "charge", 5),
            BeamSplitter(6, 7), SpinRotation(3, "h"), PrepSpin(7, 0, 1), Measure("r", "spin", 3)]
    assert light_cone(instructions) == cone
    assert light_cone([]) == []
    circuit = Circuit(9, instructions)
    full = [(r.outcomes, r.probability) for r in enumerate_branches(circuit, vacuum(9))]
    got = [(r.outcomes, r.probability) for r in leaves(branch_tree(circuit, vacuum(9), cone=True))]
    assert [o for o, _ in got] == [o for o, _ in full]
    assert [p for _, p in got] == pytest.approx([p for _, p in full], rel=1e-14)


def test_the_light_cone_is_walked_from_the_vacuum():
    circuit = Circuit(2, [PrepSpin(2, 1, 0), Measure("q", "charge", 1)])
    state = prepare_spin(vacuum(2), 1, 1, 0)
    assert [r.outcomes for r in enumerate_branches(circuit, state)] == [{"q": 1}]
    with pytest.raises(ValueError, match="from the vacuum"):
        branch_tree(circuit, state, cone=True)
    tree = branch_tree(circuit, vacuum(2), cone=True)
    assert [(r.outcomes, r.probability) for r in leaves(tree)] == [({"q": 0}, 1.0)]


# q reads arm 1; r reads arm 2 only when q == 1; s reads arm 1 again on every path.
CONDITIONAL_READOUT = """arms 2
electron 1 plus
electron 2 (0.6,0) (0.8,0)
q = spin 1
if q == 1 : r = spin 2
if r == 0 : rot 1 x
if q == 1 : if r == 1 : rot 1 x
s = spin 1
"""


def test_a_conditional_readout_runs_only_where_its_label_matches():
    """A path that did not read r leaves it out of its outcomes, and every
    conditional on r skips there; a nested conditional runs where both match."""
    circuit = parse(CONDITIONAL_READOUT).circuit
    records = enumerate_branches(circuit, vacuum(2))
    assert [(r.outcomes, r.probability) for r in records] == [
        ({"q": 0, "s": 0}, pytest.approx(0.5)),
        ({"q": 1, "r": 0, "s": 0}, pytest.approx(0.18)),
        ({"q": 1, "r": 1, "s": 0}, pytest.approx(0.32))]
    cone = leaves(branch_tree(circuit, vacuum(2), cone=True))
    assert [(r.outcomes, r.probability) for r in cone] == [
        (r.outcomes, r.probability) for r in records]


def test_leaf_table_gives_a_chunk_per_run_of_leaves_that_read_the_same_labels():
    # The first leaf reads q and s; the other two also read r, between them.
    tree = branch_tree(parse(CONDITIONAL_READOUT).circuit, vacuum(2))
    chunks = measurement.leaf_table(tree)
    assert [(labels, rows.tolist()) for labels, rows, _ in chunks] == [
        (("q", "s"), [[0, 0]]), (("q", "r", "s"), [[1, 0, 0], [1, 1, 0]])]
    assert [p for *_, probs in chunks for p in probs.tolist()] == [
        r.probability for r in leaves(tree)]
    result = sample_tree(tree, seed=3, shots=500)
    assert set(result.frequencies) <= {"q=0,s=0", "q=1,r=0,s=0", "q=1,r=1,s=0"}
    assert sum(result.frequencies.values()) == 500
    assert {tuple(rec) for rec in result.records} <= {("q", "s"), ("q", "r", "s")}


# Every charge class of arm 1 is likely; q2 is read only after q1 = 1, between
# two readouts every leaf reads.
SKIPPED_BETWEEN = """arms 3
electron 1 up
electron 2 down
electron 3 (0.6,0) (0.8,0)
bs 1 2
bs 2 3
bs 1 2
q1 = charge 1
if q1 == 1 : q2 = charge 2
q3 = charge 3
"""
SKIPPED_BETWEEN_SIGNATURES = ["q1=0,q3=1", "q1=0,q3=2", "q1=1,q2=0,q3=2", "q1=1,q2=1,q3=1",
                              "q1=1,q2=2,q3=0", "q1=2,q3=0", "q1=2,q3=1"]
# seed -> (the count of each signature above, the index of each of the first
# 200 records' signatures), of 1000 shots.
SKIPPED_BETWEEN_SAMPLES = {
    0: ([19, 120, 61, 578, 69, 135, 18], (
        "03133356323133433253213533363533333334134531336333"
        "53531333353333350431432353435335355133333133553333"
        "43133413253132353135333433433533433333353333363355"
        "33133423433303133331351333310233335031354335234531"
    )),
    1: ([12, 121, 73, 604, 62, 115, 13], (
        "34215133323433333335533213213323333333356221133352"
        "53331333131533421333433331511331133334330333335533"
        "33333353333333315313533333333533331133333131553332"
        "33353333432333331336335353233333335333134345533033"
    )),
    2: ([14, 132, 82, 560, 82, 119, 11], (
        "33433334562314313324315500333553342553333413535235"
        "34335333355433113433454334333333333313433533133333"
        "33433313433331533333252113355533332233451532353333"
        "15632213333333333333333451331433353321313356333113"
    )),
    3: ([17, 119, 64, 598, 57, 129, 16], (
        "51343313333351535423433333163331341333333330333336"
        "61363254311553333333403331340333333333153333534333"
        "53325633433335343333334313353135534331335613333515"
        "33543413333353334230113653233333320153101334333513"
    )),
    4: ([17, 109, 62, 603, 60, 131, 18], (
        "03523615313313513233324335333434335311433333451533"
        "33311133403333133233533435433555333333106133355333"
        "53331335531353533205315335453333343351533332533313"
        "33333323153343333133334333353333333333323550363334"
    )),
}


@pytest.mark.parametrize("seed", range(5))
def test_sampling_with_skipped_readouts_keeps_its_bits(seed):
    """Pinned draws of trees whose leaves read different labels: the
    frequencies, and the signature of each of the first 200 records in order,
    of the analyzer circuit (pair state 1 never reads q3) and of a circuit
    whose skipped readout sits between two read ones."""
    bell = parse((DATA / "gadgets" / "bell_analyzer.feqc").read_text(encoding="utf-8")).circuit
    result = sample(bell, vacuum(2), seed, 1000)
    assert result.frequencies == {"q1=1,q2=0": 1000}
    assert [outcome_signature(rec) for rec in result.records] == ["q1=1,q2=0"] * 1000
    counts, picks = SKIPPED_BETWEEN_SAMPLES[seed]
    result = sample(parse(SKIPPED_BETWEEN).circuit, vacuum(3), seed, 1000)
    assert result.frequencies == dict(zip(SKIPPED_BETWEEN_SIGNATURES, counts))
    assert [outcome_signature(rec) for rec in result.records[:200]] == [
        SKIPPED_BETWEEN_SIGNATURES[int(i)] for i in picks]


def test_conditional_readouts_count_toward_the_depth_limit():
    nested = [Conditional("q0", 0, Measure(f"q{i}", "charge", 1))
              for i in range(1, measurement.MAX_DEPTH + 1)]
    circuit = Circuit(1, [PrepSpin(1, 1, 0), Measure("q0", "charge", 1), *nested])
    with pytest.raises(FeqcError, match="401 nested readouts"):
        branch_tree(circuit, vacuum(1))


# Every readout trailing: each leaf is made by fock's terminal block.
TERMINAL_RUN = """arms 3
electron 1 (0.6,0) (0,0.8)
electron 2 plus
electron 3 up
bs 1 2
bs 2 3
a = charge 1
b = parity 2
c = charge 3
"""


def terminal_leaves() -> list[BranchRecord]:
    circuit = parse(TERMINAL_RUN).circuit
    return leaves(branch_tree(circuit, vacuum(circuit.arm_count)))


def test_a_terminal_leaf_makes_its_post_state_once_when_first_read():
    records = terminal_leaves()
    assert len(records) > 4 and all("post_state" not in vars(rec) for rec in records)
    assert records[1].post_state is records[1].post_state
    assert "post_state" not in vars(records[0])


def test_terminal_leaves_read_in_any_order_give_the_same_states():
    forward = [amplitude_bits(rec.post_state) for rec in terminal_leaves()]
    assert [amplitude_bits(rec.post_state) for rec in reversed(terminal_leaves())] == forward[::-1]

    def readout(state, ins):
        return measurement._MEASURE_FNS[ins.kind](state, ins.arm)

    # Each holds the keys the walker's readout-by-readout tree gives its leaf.
    circuit = parse(TERMINAL_RUN).circuit
    plain = walk(circuit.instructions, vacuum(3), apply_instruction, readout)
    assert [list(rec.post_state.amplitudes) for rec in leaves(plain)] == [
        [k for k, _, _ in bits] for bits in forward]


def test_a_terminal_leaf_compares_prints_and_copies_as_an_eager_record():
    eager = [BranchRecord(rec.outcomes, rec.probability, rec.post_state)
             for rec in terminal_leaves()]
    assert [repr(rec) for rec in terminal_leaves()] == [repr(rec) for rec in eager]
    assert terminal_leaves() == eager
    assert eager == terminal_leaves()
    lazy = terminal_leaves()
    copies = [dataclasses.replace(rec, probability=0.5) for rec in lazy]
    assert copies == [dataclasses.replace(rec, probability=0.5) for rec in eager]
    assert all(twin.post_state is rec.post_state for twin, rec in zip(copies, lazy))
    # A shallow copy made before the first read shares the state the original makes.
    lazy = terminal_leaves()
    copies = [copy.copy(rec) for rec in lazy]
    assert [amplitude_bits(rec.post_state) for rec in lazy] == [
        amplitude_bits(rec.post_state) for rec in eager]
    assert all(twin.post_state is rec.post_state for twin, rec in zip(copies, lazy))


def test_a_first_read_that_raises_leaves_the_leaf_to_be_read_again(monkeypatch):
    records = terminal_leaves()
    expected = [amplitude_bits(rec.post_state) for rec in terminal_leaves()]

    def interrupted(group, mass, num_arms):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(measurement, "_leaf_state", interrupted)
        with pytest.raises(KeyboardInterrupt):
            records[0].post_state
    assert "post_state" not in vars(records[0])
    assert [amplitude_bits(getattr(rec, "post_state", None)) for rec in records] == expected


def test_a_lone_readout_reads_the_post_states_of_unread_leaf_records():
    state = vacuum(3)
    for ins in parse(TERMINAL_RUN).circuit.instructions:
        if not isinstance(ins, Measure):
            state = apply_instruction(state, ins)
    node = measurement._born(state, [Measure("a", "charge", 1)], {}, 1.0, None)
    assert len(node.children) > 1
    assert all("post_state" not in vars(rec) for _, _, rec in node.children)
    assert [(o, p, amplitude_bits(s)) for o, p, s in measure_charge(state, 1)] == [
        (o, p, amplitude_bits(rec.post_state)) for o, p, rec in node.children]


def test_a_run_whose_readouts_are_all_terminal_normalizes_no_leaf(monkeypatch, tmp_path, capsys):
    """feqc run reads only outcomes and probabilities: no leaf post-state is
    made, so measurement.pruned is never called; --emit-state makes each."""
    src = tmp_path / "terminal.feqc"
    src.write_text(TERMINAL_RUN)
    calls = []
    monkeypatch.setattr(measurement, "pruned", lambda amplitudes: calls.append(1) or amplitudes)
    for mode in ("enumerate", "sample"):
        assert cli.main(["run", str(src), "--mode", mode]) == 0
    assert calls == []
    assert cli.main(["run", str(src), "--emit-state"]) == 0
    assert len(calls) == len(terminal_leaves()) == len(json.loads(
        capsys.readouterr().out.splitlines()[-1])["branches"])
