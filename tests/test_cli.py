"""Command-line surface: reports, schemas, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqc import cli, corr, fock, measurement
from feqc.circuit import print_circuit
from feqc.cli import main
from feqc.errors import NonGaussianOperationError
from feqc.measurement import outcome_signature
from feqc.parser import parse
from helpers import deep_terminal_circuit, merge_branches

DATA = Path(__file__).parent / "data"
SCHEMA_DIR = Path(__file__).parent.parent / "src" / "feqc"
RUN_SCHEMA = json.loads((SCHEMA_DIR / "run_report.schema.json").read_text())
GADGET_SCHEMA = json.loads((SCHEMA_DIR / "gadget_report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_encoder_enumerate(capsys):
    code, out, err = run_cli(capsys, "run", str(DATA / "encoder.feqc"), "--emit-state")
    assert code == 0 and err == ""
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    assert report["backend"] == "fock"
    assert report["seed"] is None
    probs = [b["probability"] for b in report["branches"]]
    assert abs(sum(probs) - 1.0) <= 1e-9
    assert all("state" in b for b in report["branches"])


def test_run_sample_is_byte_identical(capsys):
    args = ("run", str(DATA / "encoder.feqc"), "--mode", "sample", "--shots", "2000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    jsonschema.validate(report, RUN_SCHEMA)
    assert sum(report["frequencies"].values()) == 2000
    assert report["seed"] == 7


def test_run_sample_different_seed_differs(capsys):
    base = ("run", str(DATA / "encoder.feqc"), "--mode", "sample", "--shots", "2000")
    _, out1, _ = run_cli(capsys, *base, "--seed", "1")
    _, out2, _ = run_cli(capsys, *base, "--seed", "2")
    assert json.loads(out1)["frequencies"] != json.loads(out2)["frequencies"]


def test_run_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.feqc"
    bad.write_text((DATA / "invalid" / "multi_error.feqc").read_text())
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert "unknown-keyword" in err and "duplicate-arm" in err
    assert err.count("\n") >= 3


def test_run_runtime_failure_exits_1(capsys, tmp_path):
    src = tmp_path / "runtime.feqc"
    src.write_text("arms 2\nelectron 1 up\nz = spin 2\n")
    code, out, err = run_cli(capsys, "run", str(src))
    assert code == 1
    assert "exactly one electron" in err


def test_run_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-file.feqc")
    assert code == 1
    assert err != ""


def test_run_missing_file_names_the_path_as_given(capsys):
    code, out, err = run_cli(capsys, "run", "./no-such-file.feqc")
    assert (code, out) == (1, "")
    assert err == "error: [Errno 2] No such file or directory: './no-such-file.feqc'\n"


def test_corr_backend_rejects_parity(capsys):
    code, _, err = run_cli(capsys, "run", str(DATA / "encoder.feqc"), "--backend", "corr")
    assert code == 1
    assert "non-Gaussian operation" in err


def test_corr_backend_report_fields(capsys):
    code, out, _ = run_cli(capsys, "run", str(DATA / "swap_charge3.feqc"), "--backend", "corr")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    assert report["corr"]["terms"] == 27
    assert report["corr"]["measured_arms"] == [1, 2, 3]
    assert report["corr"]["joint_charge1"] is not None
    assert report["corr"]["wall_ms"] >= 0


def test_corr_and_fock_agree_on_terminal_charges(capsys):
    _, fock_out, _ = run_cli(capsys, "run", str(DATA / "hom_triplet.feqc"))
    _, corr_out, _ = run_cli(capsys, "run", str(DATA / "hom_triplet.feqc"), "--backend", "corr")
    fock_probs = {
        json.dumps(b["outcomes"], sort_keys=True): b["probability"]
        for b in json.loads(fock_out)["branches"]
    }
    corr_probs = {
        json.dumps(b["outcomes"], sort_keys=True): b["probability"]
        for b in json.loads(corr_out)["branches"]
    }
    assert set(fock_probs) == set(corr_probs)
    for key, p in fock_probs.items():
        assert corr_probs[key] == pytest.approx(p, abs=1e-9)


def test_corr_refuses_an_element_on_an_arm_after_its_charge_readout(capsys, tmp_path):
    # Corr's spin-resolved readout drops the coherence that the rotation and
    # the splitter turn into a definite charge on arm 2 here.
    src = tmp_path / "mid.feqc"
    src.write_text("arms 2\nelectron 1 plus\nq = charge 1\nrot 1 h\npbs 1 2\nr = charge 2\n")
    code, out, err = run_cli(capsys, "run", str(src))
    assert code == 0
    assert [(b["outcomes"], b["probability"]) for b in json.loads(out)["branches"]] == [
        ({"q": 1, "r": 0}, 1.0)]
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, out) == (1, "")
    assert err.startswith("error: non-Gaussian operation") and "'q'" in err


def test_corr_refuses_a_conditional_readout(capsys, tmp_path):
    src = tmp_path / "conditional.feqc"
    src.write_text("arms 2\nelectron 1 up\nq = charge 1\nif q == 1 : r = charge 2\n")
    assert run_cli(capsys, "run", str(src))[0] == 0
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, out) == (1, "")
    assert err == "error: corr backend: readout 'r' under a conditional is not supported\n"


def test_sampling_the_analyzer_circuit_gives_its_enumerate_branches(capsys):
    path = str(DATA / "gadgets" / "bell_analyzer.feqc")
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    branches = {outcome_signature(b["outcomes"]) for b in json.loads(out)["branches"]}
    assert branches == {"q1=1,q2=0"}  # q3 is not read
    code, out, _ = run_cli(capsys, "run", path, "--mode", "sample", "--shots", "300")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    assert sum(report["frequencies"].values()) == 300
    assert set(report["frequencies"]) <= branches


@pytest.mark.parametrize("arms", [2_000_000_000, corr.MAX_ARMS + 1])
def test_corr_refuses_more_arms_than_its_limit_before_allocating(capsys, tmp_path, arms):
    src = tmp_path / "wide.feqc"
    src.write_text(f"arms {arms}\nelectron 1 up\nq = charge 1\n")
    tracemalloc.start()  # numpy reports its array buffers here
    try:
        code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: corr backend: {arms} arms exceed the limit MAX_ARMS = 1024\n"
    assert peak < 1_000_000  # the matrix at MAX_ARMS + 1 arms would be 67 MB


# Electrons, splitters and readouts on the first arms of MAX_ARMS.  The
# readouts' light cone is arms 1-4; arm 5's electron and the rotation on the
# last arm lie outside it.
WIDEST = (f"arms {corr.MAX_ARMS}\nelectron 1 up\nelectron 3 (0.6,0) (0,0.8)\nelectron 5 plus\n"
          f"bs 1 2\nbs 3 4\npbs 2 3\nrot {corr.MAX_ARMS} h\nq1 = charge 1\nq2 = charge 2\n"
          "q3 = charge 4\n")


def test_corr_runs_its_widest_circuit_on_the_readouts_light_cone(capsys, tmp_path):
    src = tmp_path / "widest.feqc"
    src.write_text(WIDEST)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["arm_count"] == corr.MAX_ARMS
    assert report["corr"]["measured_arms"] == [1, 2, 4]
    assert report["corr"]["terms"] == 27
    assert math.fsum(b["probability"] for b in report["branches"]) == pytest.approx(1.0)
    assert peak < 1_000_000  # the full 2048 x 2048 matrix alone would be 67 MB


def test_corr_names_the_circuits_arm_when_an_electron_lands_on_a_filled_arm(capsys, tmp_path):
    # The splitter on arms 3 and 4 is outside the cone of q, but the electron
    # on arm 4 after it reads that arm, which is arm 3 of the cone.
    src = tmp_path / "filled.feqc"
    src.write_text("arms 4\nelectron 3 up\nbs 3 4\nelectron 4 up\nelectron 1 up\n"
                   "q = charge 1\n")
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, out, err) == (1, "", "error: add_electron: arm 4 is already occupied\n")


def test_corr_prices_no_joint_query_before_elements_that_end_a_circuit(capsys, tmp_path):
    # The splitter after the readout is outside its cone; the circuit as
    # written still does not end in its readouts.
    src = tmp_path / "trailing.feqc"
    src.write_text("arms 3\nelectron 1 up\nq = charge 1\nbs 2 3\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert code == 0
    report = json.loads(out)
    assert report["corr"] == {**report["corr"], "terms": 0, "measured_arms": [1],
                              "joint_charge1": None}
    assert report["branches"] == [{"outcomes": {"q": 1}, "probability": 1.0}]


def test_corr_reports_one_certain_branch_for_a_circuit_without_readouts(capsys, tmp_path):
    src = tmp_path / "silent.feqc"
    src.write_text("arms 3\nelectron 1 up\nbs 1 2\nelectron 3 plus\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    assert report["branches"] == [{"outcomes": {}, "probability": 1.0}]
    assert report["corr"] == {**report["corr"], "terms": 0, "measured_arms": [],
                              "joint_charge1": None}


def _one_electron_per_arm(tmp_path, readouts: int) -> Path:
    arms = range(1, readouts + 1)
    src = tmp_path / "joint.feqc"
    src.write_text("\n".join([f"arms {readouts}", *(f"electron {a} up" for a in arms),
                              *(f"q{a} = charge {a}" for a in arms)]) + "\n")
    return src


@pytest.mark.parametrize("readouts", [13, 41])
def test_corr_refuses_a_joint_query_over_its_term_limit(capsys, tmp_path, readouts):
    src = _one_electron_per_arm(tmp_path, readouts)
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, out) == (1, "")
    assert err == (f"error: corr backend: the joint query over {readouts} arms has "
                   f"3^{readouts} terms, more than the limit MAX_JOINT_TERMS = 531441\n")


def test_corr_evaluates_a_joint_query_at_its_term_limit(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", str(_one_electron_per_arm(tmp_path, 12)),
                             "--backend", "corr")
    assert (code, err) == (0, "")
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    assert (report["corr"]["terms"], report["corr"]["joint_charge1"]) == (531441, 1.0)
    assert [b["probability"] for b in report["branches"]] == [1.0]


def test_corr_refuses_a_joint_query_that_disagrees_with_its_branches(capsys, monkeypatch):
    exact = corr.single_occupancy_probability
    monkeypatch.setattr(corr, "single_occupancy_probability",
                        lambda M, arms: exact(M, arms) - 1e-8)
    code, out, err = run_cli(capsys, "run", str(DATA / "hom_triplet.feqc"), "--backend", "corr")
    assert (code, out) == (1, "")
    joint, summed = (float(x) for x in re.fullmatch(
        r"error: corr backend: joint charge-1 probability (\S+) "
        r"but the all-charge-1 branches sum to (\S+)\n", err).groups())
    assert summed == pytest.approx(1.0, abs=1e-14) and summed - joint == pytest.approx(1e-8)
    monkeypatch.setattr(corr, "single_occupancy_probability",
                        lambda M, arms: exact(M, arms) - 1e-10)  # within NORM_TOLERANCE
    code, out, err = run_cli(capsys, "run", str(DATA / "hom_triplet.feqc"), "--backend", "corr")
    assert (code, err) == (0, "")


def test_gadget_bell(capsys):
    code, out, _ = run_cli(capsys, "gadget", "bell", "--input", "3")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, GADGET_SCHEMA)
    assert report["success_probability"] == pytest.approx(1.0, abs=1e-9)
    assert all(b["outcomes"]["b"] == 3 for b in report["branches"])


def test_gadget_cnot_flips_target(capsys):
    code, out, _ = run_cli(capsys, "gadget", "cnot", "--control", "1", "--target", "0")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, GADGET_SCHEMA)
    assert len(report["branches"]) == 8
    assert report["success_probability"] == pytest.approx(1.0, abs=1e-9)
    for branch in report["branches"]:
        assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_gadget_encoder_and_teleport(capsys):
    code, out, _ = run_cli(capsys, "gadget", "encoder", "--qubit", "(0.6,0),(0,0.8)")
    report = json.loads(out)
    jsonschema.validate(report, GADGET_SCHEMA)
    assert code == 0 and report["success_probability"] == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run_cli(capsys, "gadget", "teleport", "--qubit", "(0.6,0),(0,0.8)")
    report = json.loads(out)
    jsonschema.validate(report, GADGET_SCHEMA)
    assert code == 0 and report["success_probability"] == pytest.approx(1.0, abs=1e-9)
    assert [b["outcomes"]["b"] for b in report["branches"]] == [0, 1, 2, 3]


def test_gadget_appendix_table(capsys):
    code, out, _ = run_cli(capsys, "gadget", "appendix-table")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, GADGET_SCHEMA)
    assert len(report["rows"]) == 16
    assert report["all_match"] is True
    assert all(row["match"] for row in report["rows"])


def test_gadget_bad_spinor_exits_1(capsys):
    code, _, err = run_cli(capsys, "gadget", "encoder", "--qubit", "nonsense")
    assert code == 1
    assert "expected" in err


def test_pretty_output_is_text(capsys):
    code, out, _ = run_cli(capsys, "run", str(DATA / "encoder.feqc"), "--pretty")
    assert code == 0
    assert out.startswith("backend=fock")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "feqc", "gadget", "bell", "--input", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["success_probability"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["run", str(DATA / "cnot_core.feqc")],
    ["run", str(DATA / "cnot_core.feqc"), "--pretty"],
    ["gadget", "teleport"],
])
def test_a_closed_stdout_gives_one_error_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nothing will ever read the report
    try:
        proc = subprocess.run([sys.executable, "-m", "feqc", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: stdout was closed before the report was written\n"


@pytest.mark.parametrize("spinor", ["(nan,0) (0,1)", "(1e308,0) (1e308,0)"])
def test_run_bad_spinor_literal_exits_2(capsys, tmp_path, spinor):
    path = tmp_path / "spinor.feqc"
    path.write_text(f"arms 1\nelectron 1 {spinor}\nq = charge 1\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert "bad-literal" in err


def test_gadget_overflowing_spinor_exits_1(capsys):
    code, out, err = run_cli(capsys, "gadget", "encoder", "--qubit", "(1e308,0),(1e308,0)")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_reports_a_kernel_that_loses_norm(capsys, monkeypatch):
    from feqc import fock

    kernel = fock.apply_kernel_steps

    def lossy(state, steps):
        out = kernel(state, steps)
        return fock.FockState(out.num_arms, {k: 0.9 * a for k, a in out.amplitudes.items()})

    monkeypatch.setattr(fock, "apply_kernel_steps", lossy)
    code, out, err = run_cli(capsys, "run", str(DATA / "encoder.feqc"))
    assert (code, out) == (1, "")
    assert err.startswith("error: state norm drifted") and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_run_rejects_seed_outside_64_bits(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(DATA / "encoder.feqc"), "--mode", "sample", "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("order", [("--backend", "corr", "--emit-state"),
                                   ("--emit-state", "--backend", "corr")])
def test_run_refuses_emit_state_on_corr(capsys, order):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(DATA / "swap_charge3.feqc"), *order])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "feqc run: error: argument --emit-state: only the fock backend emits states\n")


@pytest.mark.parametrize("shots", ["0", "-3", "x"])
def test_run_rejects_shots_below_one(capsys, shots):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(DATA / "encoder.feqc"), "--mode", "sample", "--shots", shots])
    assert exc.value.code == 2
    assert "--shots" in capsys.readouterr().err


def test_run_corr_sample_counts_merged_signatures(capsys):
    args = ("run", str(DATA / "swap_charge3.feqc"), "--backend", "corr", "--mode", "sample",
            "--shots", "3000", "--seed", "17")
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    report = json.loads(out)
    jsonschema.validate(report, RUN_SCHEMA)
    signatures = {outcome_signature(b["outcomes"]) for b in report["branches"]}
    assert len(signatures) == len(report["branches"]) > 1
    assert set(report["frequencies"]) <= signatures
    assert sum(report["frequencies"].values()) == 3000
    assert json.loads(run_cli(capsys, *args)[1])["frequencies"] == report["frequencies"]


MID_CIRCUIT_SPLITS = ("arms 4\nelectron 1 plus\nelectron 2 (0.6,0) (0,0.8)\nbs 1 2\n"
                      "q = charge 1\nif q == 1 : rot 3 x\nelectron 3 plus\nbs 3 4\n"
                      "r = charge 2\ns = charge 3\nt = charge 4\n")


@pytest.mark.parametrize("source", [*sorted(DATA.glob("*.feqc")), "deep", "mid"],
                         ids=lambda s: getattr(s, "name", s))
def test_corr_report_merges_the_leaves_as_the_reference_merge(capsys, tmp_path, source):
    """The report's corr branches are its tree's leaves merged by outcomes,
    in order of first appearance, probabilities added in leaf order."""
    if source == "deep":
        text = print_circuit(deep_terminal_circuit())
    else:
        text = MID_CIRCUIT_SPLITS if source == "mid" else source.read_text()
    src = tmp_path / "circuit.feqc"
    src.write_text(text)
    try:
        root, _ = corr.charge_branch_tree(parse(text).circuit)
    except NonGaussianOperationError:
        assert run_cli(capsys, "run", str(src), "--backend", "corr")[0] == 1
        return
    expected = merge_branches([{"outcomes": rec.outcomes, "probability": rec.probability}
                               for rec in measurement.leaves(root)])
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, err) == (0, "")
    branches = json.loads(out)["branches"]
    assert [(b["outcomes"], b["probability"].hex()) for b in branches] == \
        [(b["outcomes"], b["probability"].hex()) for b in expected]


def test_run_accepts_largest_seed(capsys):
    seed = 2**64 - 1
    code, out, _ = run_cli(capsys, "run", str(DATA / "encoder.feqc"), "--mode", "sample",
                           "--seed", str(seed))
    assert code == 0 and json.loads(out)["seed"] == seed


def test_main_serves_calls_without_building_a_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, err = run_cli(capsys, "run", str(DATA / "encoder.feqc"))
    assert (code, err) == (0, "") and json.loads(out)["branches"]
    code, out, err = run_cli(capsys, "gadget", "cnot", "--control", "1", "--target", "1")
    assert (code, err) == (0, "") and json.loads(out)["success_probability"] == pytest.approx(1.0)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(DATA / "encoder.feqc"), "--mode", "bogus"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    # A leftover word, reported by the top-level parser, and a group without
    # its command, which only the whole tree parses.
    for argv, message in ((["run", str(DATA / "encoder.feqc"), "extra"], "unrecognized arguments"),
                          (["gadget"], "required")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _parse_outcome(parse, argv):
    """vars() of the Namespace parse(argv) returns, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_routed_as_the_whole_tree(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli._PARSER.parse_args, argv)


ENC = str(DATA / "encoder.feqc")

ROUTING_CORPUS = [
    # Every leaf command.
    ["run", ENC],
    ["run", ENC, "--backend", "corr", "--mode", "sample", "--shots", "5", "--seed", "9", "--pretty"],
    ["run", ENC, "--emit-state", "--json"],
    ["gadget", "bell", "--input", "2", "--detector", "charge"],
    ["gadget", "encoder", "--qubit", "(0,1),(1,0)", "--no-correction"],
    ["gadget", "cnot", "--control", "1", "--target", "0"],
    ["gadget", "teleport", "--qubit", "(0.6,0),(0,0.8)", "--pretty"],
    ["gadget", "appendix-table"],
    # Help at every level.
    [], ["-h"], ["--help"], ["--he"], ["run", "-h"], ["run", ENC, "--help"], ["gadget", "-h"],
    ["gadget", "bell", "-h"], ["gadget", "appendix-table", "--help"], ["gadget", "cnot", "--he"],
    # Abbreviations and --opt=value.
    ["gadget", "bell", "--input", "0", "--det", "charge"],
    ["run", ENC, "--back", "corr", "--mo", "sample"],
    ["run", ENC, "--s", "3"],
    ["run", ENC, "--mode=sample", "--seed=3", "--shots=2"],
    ["gadget", "cnot", "--control=1", "--target=1"],
    ["gadget", "encoder", "--no", "--qu=(1,0),(0,0)"],
    # Bad choices and types, missing arguments.
    ["run", ENC, "--backend", "qpu"], ["run", ENC, "--seed", "x"], ["run", ENC, "--shots", "0"],
    ["gadget", "bell", "--input", "4"], ["gadget", "bell", "--input=x"],
    ["gadget", "cnot", "--control", "1"], ["gadget", "bell"], ["run"], ["run", "--pretty"],
    ["run", ENC, "--mode"],
    # --json and --pretty exclude each other.
    ["run", ENC, "--json", "--pretty"], ["gadget", "teleport", "--pretty", "--json"],
    # Extra words and unknown options.
    ["run", ENC, "extra"], ["run", ENC, "extra", "--more"], ["run", ENC, "-x"], ["run", ENC, ENC],
    ["gadget", "bell", "--input", "0", "extra"], ["gadget", "appendix-table", "x", "y"],
    # The -- separator.
    ["run", "--", ENC], ["run", ENC, "--"], ["run", "--", "-F"], ["--", "run", ENC],
    ["gadget", "--", "bell", "--input", "0"], ["gadget", "bell", "--", "--input", "0"],
    # Unknown commands, a group without its command, options before the command.
    ["bogus"], ["Run", ENC], ["gadget"], ["gadget", "bogus"], ["gadget", "-x"],
    ["--pretty", "run", ENC], ["-h", "run", ENC], [""], ["run", ""], ["gadget", ""],
]


@pytest.mark.parametrize("argv", ROUTING_CORPUS)
def test_routed_parse_matches_the_whole_tree(argv):
    assert_routed_as_the_whole_tree(argv)


def test_routed_parse_reads_sys_argv_when_given_none(monkeypatch):
    for argv in (["gadget", "bell", "--input", "1"], ["run", ENC, "extra"], ["gadget"]):
        monkeypatch.setattr(sys, "argv", ["feqc", *argv])
        assert_routed_as_the_whole_tree(None)


COMMAND_WORDS = [(), ("run",), ("gadget",), *(("gadget", name) for name in cli._GADGETS)]
ARGV_TOKENS = [
    "run", "gadget", *cli._GADGETS, ENC, "-", "", "x", "0", "1", "4", "-1", "--", "-h", "--help",
    "--he", "--backend", "--back", "corr", "fock", "--mode", "--mode=sample", "sample", "--seed",
    "--seed=7", "--shots", "--s", "--emit-state", "--json", "--pretty", "--input", "--input=2",
    "--detector", "--det", "charge", "--qubit", "(1,0),(0,0)", "--no-correction", "--control",
    "--target", "--target=0",
]


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(COMMAND_WORDS), st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
def test_routed_parse_matches_the_whole_tree_on_drawn_argv(words, rest):
    assert_routed_as_the_whole_tree([*words, *rest])


def test_every_leaf_command_is_routed():
    def leaves(parser, words):
        groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not groups:
            return {words: parser}
        return {key: leaf for group in groups for name, sub in group.choices.items()
                for key, leaf in leaves(sub, (*words, name)).items()}

    assert leaves(cli._PARSER, ()) == cli._LEAF_PARSERS


def test_calls_in_one_process_share_no_state(capsys):
    plain = ("run", str(DATA / "encoder.feqc"))
    code, first, _ = run_cli(capsys, *plain)
    assert code == 0
    code, out, _ = run_cli(capsys, *plain, "--mode", "sample", "--seed", "5", "--shots", "7",
                           "--pretty")
    assert code == 0 and out.startswith("backend=fock mode=sample")
    code, again, err = run_cli(capsys, *plain)
    assert (code, again, err) == (0, first, "")
    report = json.loads(again)
    assert report["seed"] is None and "frequencies" not in report
    with pytest.raises(SystemExit):
        main([*plain, "--shots", "0"])
    capsys.readouterr()
    assert run_cli(capsys, *plain) == (0, first, "")


def test_fock_refuses_a_state_over_its_key_limit(capsys, tmp_path):
    # 40 arms of plus electrons joined by a splitter chain used to run unbounded;
    # the 19th preparation doubles the state past the limit.
    src = tmp_path / "chain.feqc"
    src.write_text("\n".join(["arms 40", *(f"electron {a} plus" for a in range(1, 41)),
                              *(f"bs {a} {a + 1}" for a in range(1, 40)),
                              *(f"q{a} = charge {a}" for a in range(1, 41))]) + "\n")
    code, out, err = run_cli(capsys, "run", str(src))
    assert (code, out) == (1, "")
    assert err == "error: fock backend: a state of 524288 keys exceeds the limit MAX_KEYS = 262144\n"


def eight_leaf_tree(tmp_path) -> Path:
    """Three splitters each leave one electron in either of two arms: 2^3 leaves."""
    src = tmp_path / "tree.feqc"
    src.write_text("arms 6\n" + "".join(
        f"electron {a} up\nbs {a} {a + 1}\nq{a} = charge {a}\nr{a} = charge {a + 1}\n"
        for a in (1, 3, 5)))
    return src


@pytest.mark.parametrize("backend", ["fock", "corr"])
def test_walker_refuses_a_tree_over_its_leaf_limit(capsys, monkeypatch, tmp_path, backend):
    src = eight_leaf_tree(tmp_path)
    monkeypatch.setattr(measurement, "MAX_LEAVES", 8)
    code, out, _ = run_cli(capsys, "run", str(src), "--backend", backend)
    assert code == 0 and len(json.loads(out)["branches"]) == 8
    monkeypatch.setattr(measurement, "MAX_LEAVES", 7)
    code, out, err = run_cli(capsys, "run", str(src), "--backend", backend)
    assert (code, out) == (1, "")
    assert err == "error: branch tree: more leaves than the limit MAX_LEAVES = 7\n"


def test_corr_refuses_a_tree_over_its_byte_budget(capsys, monkeypatch, tmp_path):
    src = eight_leaf_tree(tmp_path)
    leaf_bytes = 12 * 12 * 16  # one 12 x 12 complex matrix per leaf
    monkeypatch.setattr(corr, "MAX_TREE_BYTES", 8 * leaf_bytes)
    code, out, _ = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert code == 0 and len(json.loads(out)["branches"]) == 8
    monkeypatch.setattr(corr, "MAX_TREE_BYTES", 8 * leaf_bytes - 1)
    code, out, err = run_cli(capsys, "run", str(src), "--backend", "corr")
    assert (code, out) == (1, "")
    assert err == (f"error: corr backend: 8 leaves of {leaf_bytes} bytes each exceed the limit "
                   f"MAX_TREE_BYTES = {8 * leaf_bytes - 1}\n")


def test_fock_refuses_more_arms_than_its_limit_before_allocating(capsys, tmp_path):
    src = tmp_path / "wide.feqc"
    src.write_text("arms 2000000000\nelectron 1 up\nq = charge 1\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", str(src))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: fock backend: 2000000000 arms exceed the limit MAX_ARMS = 1024\n"
    assert peak < 1_000_000


def test_fock_runs_a_circuit_of_max_arms(capsys, tmp_path):
    src = tmp_path / "widest.feqc"
    src.write_text(f"arms {fock.MAX_ARMS}\nelectron 1 up\nelectron {fock.MAX_ARMS} plus\n"
                   f"bs 1 {fock.MAX_ARMS}\nq = charge 1\n")
    code, out, err = run_cli(capsys, "run", str(src), "--emit-state")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["arm_count"] == fock.MAX_ARMS == corr.MAX_ARMS
    assert math.fsum(b["probability"] for b in report["branches"]) == pytest.approx(1.0)
    assert all(len(entry["key"]) == 2 * fock.MAX_ARMS
               for b in report["branches"] for entry in b["state"])


def test_fock_runs_the_readouts_light_cone_unless_it_emits_states(capsys, tmp_path, monkeypatch):
    """20 split electrons hold 2^20 keys; the readout of arm 1 sees one of
    them.  A report walks the readout's light cone, through
    measurement.branch_tree; a report with states walks the whole circuit and
    is refused on MAX_KEYS."""
    src = tmp_path / "twenty.feqc"
    src.write_text("arms 20\n" + "".join(f"electron {a} plus\n" for a in range(1, 21))
                   + "".join(f"bs {a} {a + 1}\n" for a in range(2, 20)) + "q = charge 1\n")
    tree, cones = measurement.branch_tree, []
    monkeypatch.setattr(measurement, "branch_tree",
                        lambda c, state, *, cone: cones.append(cone) or tree(c, state, cone=cone))
    for mode in ("enumerate", "sample"):
        code, out, err = run_cli(capsys, "run", str(src), "--mode", mode)
        assert (code, err) == (0, "")
        assert json.loads(out)["branches"] == [{"outcomes": {"q": 1}, "probability": 1.0}]
    code, out, err = run_cli(capsys, "run", str(src), "--emit-state")
    assert (code, out) == (1, "")
    assert err == ("error: fock backend: a state of 524288 keys exceeds the limit "
                   f"MAX_KEYS = {fock.MAX_KEYS}\n")
    assert cones == [True, True, False]


def readout_chain(readouts: int, arms: int = 1, element: str = "") -> str:
    """One electron read on arm 1 ``readouts`` times, each readout followed by
    ``element`` (none: a trailing run); arm 3, if there is one, holds an
    electron up that only the element touches."""
    third = "electron 3 up\n" if arms == 3 else ""
    return (f"arms {arms}\nelectron 1 plus\n{third}"
            + "".join(f"q{i} = charge 1\n{element}" for i in range(readouts)))


# Each circuit nests more readouts than MAX_DEPTH on one path, and once
# raised RecursionError: in fock's walker, and in fock's terminal block and
# tree readers.
TOO_DEEP = {
    "fock-pairs": ("fock", readout_chain(494, element="rot 1 x\n"), 494),
    "fock-trailing": ("fock", readout_chain(498), 498),
}


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
@pytest.mark.parametrize("shape", sorted(TOO_DEEP))
def test_a_tree_deeper_than_its_limit_is_refused_before_it_is_walked(capsys, monkeypatch, tmp_path,
                                                                     shape, mode):
    backend, text, readouts = TOO_DEEP[shape]
    src = tmp_path / "deep.feqc"
    src.write_text(text)
    monkeypatch.setattr(measurement, "_walk", None)  # called, it would raise TypeError
    code, out, err = run_cli(capsys, "run", str(src), "--backend", backend, "--mode", mode)
    assert (code, out) == (1, "")
    assert err == (f"error: branch tree: {readouts} nested readouts exceed the limit "
                   f"MAX_DEPTH = {measurement.MAX_DEPTH}\n")


AT_THE_LIMIT = {
    "fock-pairs": ("fock", readout_chain(measurement.MAX_DEPTH, element="rot 1 x\n")),
    "fock-trailing": ("fock", readout_chain(measurement.MAX_DEPTH)),
    # Corr reads every readout in one loop over the circuit, so it has no depth
    # limit; the cone drops the rotations on arm 3.
    "corr-pairs": ("corr", readout_chain(600, arms=3, element="rot 3 x\n")),
    "corr-trailing": ("corr", "arms 2\nelectron 1 plus\nbs 1 2\n"
                      + "".join(f"q{i} = charge {1 + i % 2}\n" for i in range(600))),
}


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
@pytest.mark.parametrize("shape", sorted(AT_THE_LIMIT))
def test_a_tree_at_its_depth_limit_runs(capsys, tmp_path, shape, mode):
    backend, text = AT_THE_LIMIT[shape]
    src = tmp_path / "deep.feqc"
    src.write_text(text)
    code, out, err = run_cli(capsys, "run", str(src), "--backend", backend, "--mode", mode)
    assert (code, err) == (0, "")
    branches = json.loads(out)["branches"]
    assert math.fsum(b["probability"] for b in branches) == pytest.approx(1.0)
    assert len(branches[0]["outcomes"]) == text.count(" = charge")


# A spinor whose norm is far below 1, with its unit spinor.
TINY_SPINORS = [("(1e-13,0) (0,0)", "up"), ("(3e-13,0) (4e-13,0)", "(0.6,0) (0.8,0)"),
                ("(3e-160,0) (4e-160,0)", "(0.6,0) (0.8,0)")]


@pytest.mark.parametrize("backend", ["fock", "corr"])
@pytest.mark.parametrize("tiny, unit", TINY_SPINORS)
def test_a_spinor_of_tiny_norm_runs_as_its_unit_spinor(capsys, tmp_path, backend, tiny, unit):
    branches = []
    for spinor in (tiny, unit):
        src = tmp_path / "spinor.feqc"
        # The splitter passes up and reflects down, so q reads the spinor after h.
        src.write_text(f"arms 2\nelectron 1 {spinor}\nrot 1 h\npbs 1 2\nq = charge 1\n")
        code, out, err = run_cli(capsys, "run", str(src), "--backend", backend)
        assert (code, err) == (0, "")
        branches.append(json.loads(out)["branches"])
    got, want = branches
    assert [b["outcomes"] for b in got] == [b["outcomes"] for b in want]
    assert all(abs(g["probability"] - w["probability"]) <= 1e-12 for g, w in zip(got, want))


@pytest.mark.parametrize("qubit", ["(1e-13,0),(0,0)", "(3e-160,0),(4e-160,0)"])
def test_gadget_encoder_of_a_qubit_of_tiny_norm_has_fidelity_one(capsys, qubit):
    code, out, err = run_cli(capsys, "gadget", "encoder", "--qubit", qubit)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert all(abs(b["fidelity"] - 1) <= 1e-12 for b in report["branches"])
    assert report["success_probability"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("backend", ["fock", "corr"])
def test_a_spinor_whose_squared_norm_underflows_runs(capsys, tmp_path, backend):
    src = tmp_path / "spinor.feqc"
    src.write_text("arms 1\nelectron 1 (1e-170,0) (0,0)\nq = charge 1\n")  # nonzero
    code, out, err = run_cli(capsys, "run", str(src), "--backend", backend)
    assert (code, err) == (0, "")
    assert json.loads(out)["branches"] == [{"outcomes": {"q": 1}, "probability": 1.0}]


@pytest.mark.parametrize("gadget", ["teleport", "encoder"])
def test_a_gadget_qubit_whose_squared_norm_underflows_succeeds(capsys, gadget):
    code, out, err = run_cli(capsys, "gadget", gadget, "--qubit", "(1e-170,0),(0,0)")
    assert (code, err) == (0, "")
    assert json.loads(out)["success_probability"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spinor, message", [
    ("(0,0) (0,0)", "spinor must be nonzero"),
    ("(1e200,0) (0,0)", "spinor must be finite, with a squared norm below 1.8e308"),
])
def test_a_zero_or_overflowing_spinor_is_still_refused(capsys, tmp_path, spinor, message):
    src = tmp_path / "spinor.feqc"
    src.write_text(f"arms 1\nelectron 1 {spinor}\nq = charge 1\n")
    code, out, err = run_cli(capsys, "run", str(src))
    assert (code, out, err) == (2, "", f"{src}:2:12: bad-literal: {message}\n")


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
def test_run_reads_a_file_that_starts_with_a_byte_order_mark(capsys, tmp_path, mode):
    src = tmp_path / "bom.feqc"
    src.write_bytes(b"\xef\xbb\xbf" + (DATA / "cnot_core.feqc").read_bytes())
    with_bom = run_cli(capsys, "run", str(src), "--mode", mode)
    assert with_bom == run_cli(capsys, "run", str(DATA / "cnot_core.feqc"), "--mode", mode)
    assert with_bom[0] == 0
