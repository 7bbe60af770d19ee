"""Acceptance suite: one test per advertised guarantee, at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion PASS lines."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from feqc import corr, fock
from feqc.circuit import (
    BeamSplitter,
    Circuit,
    Conditional,
    Measure,
    PrepBell,
    SpinRotation,
)
from feqc.cli import main
from feqc.fock import (
    Spin,
    arm_qubit_density,
    fidelity,
    prepare_bell,
    prepare_spin,
    prepare_two_spin,
    spinor_fidelity,
    vacuum,
)
from feqc.gadgets import bell_analyzer, cnot, encoder, hadamard_pbs_gadget, teleport
from feqc.measurement import enumerate_branches
from feqc.parser import parse
from helpers import haar_two_qubit, mode_branches, mode_occupation, random_spinor, random_unitary

DATA = Path(__file__).parent / "data"
TOL = 1e-9
UP, DOWN = Spin.UP, Spin.DOWN


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def analyzer_circuit(k: int, detector: str) -> Circuit:
    kind = "parity" if detector == "parity" else "charge"
    return Circuit(2, [
        PrepBell(k, 1, 2),
        BeamSplitter(1, 2),
        Measure("d1", kind, 1),
        Conditional("d1", 1, SpinRotation(2, "z")),
        BeamSplitter(1, 2),
        Measure("d2", kind, 1),
        Conditional("d2", 1, SpinRotation(2, "x")),
        BeamSplitter(1, 2),
        Measure("d3", kind, 1),
    ])


def test_criterion_1_bell_analyzer_determinism():
    for detector in ("parity", "charge"):
        for k in range(4):
            records = enumerate_branches(analyzer_circuit(k, detector), vacuum(2))
            prob_k = 0.0
            for rec in records:
                p1, p2, p3 = (rec.outcomes[f"d{i}"] % 2 for i in (1, 2, 3))
                b = p1 + p1 * p2 + p1 * p2 * p3
                if b == k:
                    prob_k += rec.probability
            assert prob_k == pytest.approx(1.0, abs=TOL), (detector, k)
            gadget_prob = sum(
                rec.probability
                for rec in bell_analyzer(
                    prepare_bell(vacuum(2), k, 1, 2), 1, 2, detector=detector
                )
                if rec.outcomes["b"] == k
            )
            assert gadget_prob == pytest.approx(1.0, abs=TOL), (detector, k)
    _report(1, "analyzer reports B=k with probability 1 for every pair state, "
               "with electrometers and with parity meters")


def test_criterion_2_encoder_fidelity():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        alpha, beta = random_spinor(rng)
        state = prepare_spin(prepare_spin(vacuum(2), 1, alpha, beta), 2, 1, 1)
        ideal = prepare_two_spin(
            vacuum(2), 1, 2, np.array([[alpha, 0], [0, beta]], dtype=complex)
        )
        branches = encoder(state, 1, 2)
        assert len(branches) == 2
        for rec in branches:
            assert rec.probability == pytest.approx(0.5, abs=TOL)
            assert fidelity(rec.output_state, ideal) >= 1 - TOL
    _report(2, "encoder emits the two-electron encoding in both parity branches "
               "(probability 1/2 each) for 20 random qubits")


def _cnot_case(coeffs: np.ndarray) -> None:
    state = prepare_two_spin(vacuum(3), 1, 2, coeffs)
    state = prepare_spin(state, 3, 1, 1)
    records = cnot(state, 1, 2, 3)
    assert len(records) == 8
    success = 0.0
    for rec in records:
        z = rec.outcomes["z"]
        flipped = np.empty((2, 2), dtype=complex)
        for x in (0, 1):
            for w in (0, 1):
                flipped[x, w] = coeffs[x, (w + x) % 2]
        ideal = prepare_spin(prepare_two_spin(vacuum(3), 1, 2, flipped), 3, 1 - z, z)
        fid = fidelity(rec.output_state, ideal)
        assert fid >= 1 - TOL
        success += rec.probability * fid
    assert success == pytest.approx(1.0, abs=TOL)


def test_criterion_3_cnot_exactness():
    for x in (0, 1):
        for y in (0, 1):
            coeffs = np.zeros((2, 2), dtype=complex)
            coeffs[x, y] = 1.0
            _cnot_case(coeffs)
    rng = np.random.default_rng(2025)
    for _ in range(20):
        _cnot_case(haar_two_qubit(rng))
    _report(3, "controlled-NOT exact in all 8 feedforward branches for 4 basis "
               "and 20 Haar-random inputs; total success probability 1")


def test_criterion_4_hadamard_pbs_table():
    for a in (0, 1):
        for y in (0, 1):
            state = prepare_spin(prepare_spin(vacuum(2), 1, 1 - a, a), 2, 1 - y, y)
            branches = hadamard_pbs_gadget(state, 1, 2)
            assert len(branches) == 4
            for rec in branches:
                p2, z, out = rec.outcomes["p2"], rec.outcomes["z"], rec.output_state
                bit = (a + y + z) % 2
                phase = float((-1) ** (((p2 + 1) * (a + z)) % 2))
                expected = prepare_spin(
                    prepare_spin(vacuum(2), 1, 1 - z, z), 2, 1 - bit, bit
                )
                overlap = fock.inner_product(expected, out)
                assert abs(overlap - phase) <= TOL, (a, y, p2, z)
    # superposed upper arm: the branch output keeps the predicted relative sign
    for y in (0, 1):
        state = prepare_spin(prepare_spin(vacuum(2), 1, 1, 1), 2, 1 - y, y)
        for rec in hadamard_pbs_gadget(state, 1, 2):
            p2, z, out = rec.outcomes["p2"], rec.outcomes["z"], rec.output_state
            coeffs = np.zeros(2, dtype=complex)
            for a in (0, 1):
                amp = (-1) ** (((p2 + 1) * (a + z)) % 2)
                coeffs[(a + y + z) % 2] += amp
            coeffs /= np.linalg.norm(coeffs)
            rho = arm_qubit_density(out, 2)
            assert spinor_fidelity(rho, coeffs[0], coeffs[1]) >= 1 - TOL
    _report(4, "Hadamard-PBS block matches (-1)^((p2+1)(a+z)) |a+y+z> on all 16 "
               "branch rows, bit exactly and phase within 1e-9, superpositions included")


def test_criterion_5_corrections_are_load_bearing():
    plus_zero = np.array([[1, 0], [1, 0]], dtype=complex) / np.sqrt(2)
    state = prepare_spin(prepare_two_spin(vacuum(3), 1, 2, plus_zero), 3, 1, 1)
    worst = 1.0
    for rec in cnot(state, 1, 2, 3, apply_control_correction=False):
        z = rec.outcomes["z"]
        flipped = np.array([[plus_zero[0, 0], plus_zero[0, 1]],
                            [plus_zero[1, 1], plus_zero[1, 0]]])
        ideal = prepare_spin(prepare_two_spin(vacuum(3), 1, 2, flipped), 3, 1 - z, z)
        worst = min(worst, fidelity(rec.output_state, ideal))
    assert worst <= 0.51

    basis = np.zeros((2, 2), dtype=complex)
    basis[0, 0] = 1.0
    state = prepare_spin(prepare_two_spin(vacuum(3), 1, 2, basis), 3, 1, 1)
    worst = 1.0
    for rec in cnot(state, 1, 2, 3, apply_target_correction=False):
        z = rec.outcomes["z"]
        ideal = prepare_spin(prepare_two_spin(vacuum(3), 1, 2, basis), 3, 1 - z, z)
        worst = min(worst, fidelity(rec.output_state, ideal))
    assert worst <= 0.51
    _report(5, "dropping either feedforward correction leaves a branch with "
               "fidelity at most 0.51 (negative controls)")


def test_criterion_6_teleportation():
    rng = np.random.default_rng(2026)
    for _ in range(20):
        alpha, beta = random_spinor(rng)
        state = prepare_bell(prepare_spin(vacuum(3), 1, alpha, beta), 0, 2, 3)
        records = teleport(state, 1, 2, 3)
        assert len(records) == 4
        for rec in records:
            assert rec.probability == pytest.approx(0.25, abs=TOL)
            rho = arm_qubit_density(rec.output_state, 3)
            assert spinor_fidelity(rho, alpha, beta) >= 1 - TOL
    _report(6, "teleportation with the derived correction table: 4 branches of "
               "probability 1/4, fidelity 1, for 20 random qubits")


def test_criterion_7_backend_equivalence():
    rng = np.random.default_rng(2027)
    for _ in range(20):
        num_arms = int(rng.integers(2, 5))
        electrons = int(rng.integers(1, num_arms + 1))
        state = vacuum(num_arms)
        M = corr.init_from_occupations([], num_arms)
        for arm in rng.permutation(np.arange(1, num_arms + 1))[:electrons]:
            alpha, beta = random_spinor(rng)
            state = prepare_spin(state, int(arm), alpha, beta)
            M = corr.add_electron(M, int(arm), alpha, beta)
        all_modes = [(a, s) for a in range(1, num_arms + 1) for s in (UP, DOWN)]
        for _ in range(int(rng.integers(3, 11))):
            size = int(rng.integers(2, 4))
            chosen = [all_modes[i] for i in rng.choice(len(all_modes), size, replace=False)]
            u = random_unitary(rng, size)
            state = fock.apply_single_particle_unitary(state, chosen, u)
            M = corr.evolve(M, chosen, u)

        # joint distribution of two sequential occupation readouts
        modes = [all_modes[i] for i in rng.choice(len(all_modes), 2, replace=False)]
        fock_joint: dict[tuple, float] = {}
        corr_joint: dict[tuple, float] = {}
        for o1, p1, post1 in mode_branches(state, modes[0]):
            for o2, p2, post2 in mode_branches(post1, modes[1]):
                fock_joint[(o1, o2)] = p1 * p2
        for o1 in (0, 1):
            prob1 = mode_occupation(M, modes[0])
            p1 = prob1 if o1 else 1 - prob1
            if p1 <= 1e-12:
                continue
            _, m1 = corr.project_occupation(M, modes[0], o1)
            for o2 in (0, 1):
                prob2 = mode_occupation(m1, modes[1])
                p2 = prob2 if o2 else 1 - prob2
                if p2 <= 1e-12:
                    continue
                _, m2 = corr.project_occupation(m1, modes[1], o2)
                corr_joint[(o1, o2)] = p1 * p2
                for mode in all_modes:
                    pos = fock.mode_position(mode, num_arms)
                    post_fock = None
                    for oo1, pp1, ps1 in mode_branches(state, modes[0]):
                        if oo1 == o1:
                            for oo2, pp2, ps2 in mode_branches(ps1, modes[1]):
                                if oo2 == o2:
                                    post_fock = ps2
                    expected = sum(
                        abs(a) ** 2
                        for k, a in post_fock.amplitudes.items()
                        if k >> pos & 1
                    )
                    assert mode_occupation(m2, mode) == pytest.approx(
                        expected, abs=TOL
                    )
        for key, p in fock_joint.items():
            assert corr_joint.get(key, 0.0) == pytest.approx(p, abs=TOL)

    # single-occupancy joint queries over m = 1..3 arms, with 3^m terms
    term_counts = []
    rng = np.random.default_rng(2028)
    state = vacuum(4)
    M = corr.init_from_occupations([], 4)
    for arm in (1, 2, 3):
        alpha, beta = random_spinor(rng)
        state = prepare_spin(state, arm, alpha, beta)
        M = corr.add_electron(M, arm, alpha, beta)
    all_modes = [(a, s) for a in range(1, 5) for s in (UP, DOWN)]
    for _ in range(8):
        chosen = [all_modes[i] for i in rng.choice(len(all_modes), 3, replace=False)]
        u = random_unitary(rng, 3)
        state = fock.apply_single_particle_unitary(state, chosen, u)
        M = corr.evolve(M, chosen, u)
    for m in (1, 2, 3):
        arms = list(range(1, m + 1))
        expected = sum(
            abs(a) ** 2
            for k, a in state.amplitudes.items()
            if all(fock.arm_charge(k, arm) == 1 for arm in arms)
        )
        assert corr.single_occupancy_probability(M, arms) == pytest.approx(expected, abs=TOL)
        term_counts.append(len(corr.single_occupancy_terms(M, arms)))
    assert term_counts == [3, 9, 27]
    assert term_counts == sorted(term_counts)
    _report(7, "fock and correlation backends agree within 1e-9 on 20 random "
               "circuits; single-occupancy queries match with 3^m terms, monotone in m")


def test_criterion_7b_cli_term_counter_is_monotone(capsys, tmp_path):
    sources = {
        1: "arms 3\nelectron 1 plus\nbs 1 2\nq1 = charge 1\n",
        2: "arms 3\nelectron 1 plus\nelectron 2 up\nbs 1 2\nq1 = charge 1\nq2 = charge 2\n",
        3: ("arms 3\nelectron 1 plus\nelectron 2 up\nelectron 3 down\nbs 1 2\nbs 2 3\n"
            "q1 = charge 1\nq2 = charge 2\nq3 = charge 3\n"),
    }
    terms = []
    for m, source in sorted(sources.items()):
        path = tmp_path / f"m{m}.feqc"
        path.write_text(source)
        code = main(["run", str(path), "--backend", "corr"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        terms.append(report["corr"]["terms"])
        assert report["corr"]["terms"] == 3 ** m
    assert terms == sorted(terms)
    _report(7, "CLI correlation reports count 3^m monomials, monotone in m")


def test_criterion_8_sampling_statistics(capsys):
    shots = 100_000
    args = [
        "run", str(DATA / "encoder.feqc"),
        "--mode", "sample", "--shots", str(shots), "--seed", "12345",
    ]
    assert main(list(args)) == 0
    first = capsys.readouterr().out
    assert main(list(args)) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical rerun
    report = json.loads(first)
    ones = report["frequencies"].get("p=1", 0)
    assert abs(ones / shots - 0.5) <= 4 * np.sqrt(0.25 / shots)
    _report(8, f"encoder sampling: empirical P(p=1) = {ones / shots:.5f} within "
               "four sigma of 1/2; identical seed reproduces identical bytes")


def test_criterion_9_parser_corpus(capsys, tmp_path):
    valid = sorted(DATA.glob("*.feqc"))
    invalid = sorted((DATA / "invalid").glob("*.feqc"))
    assert len(valid) >= 10 and len(invalid) >= 10
    for path in valid:
        result = parse(path.read_text(encoding="utf-8"))
        assert result.ok, path.name
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
    for path in invalid:
        result = parse(path.read_text(encoding="utf-8"))
        assert result.circuit is None and result.diagnostics, path.name
        assert main(["run", str(path)]) == 2
        capsys.readouterr()
    runtime = tmp_path / "runtime.feqc"
    runtime.write_text("arms 2\nelectron 1 up\nz = spin 2\n")
    assert main(["run", str(runtime)]) == 1
    capsys.readouterr()
    _report(9, f"{len(valid)} valid circuits parse and run, {len(invalid)} invalid "
               "files produce their intended diagnostics, exit codes conform")


def test_the_readme_quick_start_prints_its_comment(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)[1]
    exec(block, {})
    assert capsys.readouterr().out == re.search(r"# -> (.*)", block)[1] + "\n"
