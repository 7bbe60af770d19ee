"""What a fresh interpreter loads: a fock run, the bell, appendix-table and
encoder gadgets and a bare ``import feqc`` load neither numpy nor the corr
backend; the corr backend and sample mode load both."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feqc

DATA = Path(__file__).parent / "data"
SRC = Path(feqc.__file__).resolve().parent.parent

# A fresh interpreter runs each argv through feqc.cli.main, in order, and
# prints, as JSON, each call's exit code and whether numpy and feqc.corr
# were loaded after it.
PROBE = """
import contextlib, io, json, sys
from feqc.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, "numpy" in sys.modules, "feqc.corr" in sys.modules])
print(json.dumps(seen))
"""

# Every name the package exported when it imported the corr backend eagerly.
EXPORTS = [
    "BEAM_SPLITTER_MATRIX", "BELL_COEFFS", "BeamSplitter", "BranchRecord", "Circuit",
    "CircuitError", "Conditional", "CorrelationMatrix", "Diagnostic", "FeqcError", "FockState",
    "GadgetBranchRecord", "HADAMARD", "Measure", "ModeIndex", "NonGaussianOperationError",
    "PAULI_X", "PAULI_Y", "PAULI_Z", "ParseResult", "PolarizingBeamSplitter",
    "PreconditionError", "PrepBell", "PrepSpin", "SampleResult", "Spin", "SpinRotation",
    "SwapArms", "TELEPORT_CORRECTIONS", "add_electron", "apply_single_particle_unitary",
    "arm_charge", "arm_qubit_density", "bell_analyzer", "bell_statistic", "cnot",
    "control_branch_formula", "create", "derive_teleport_corrections", "encoder",
    "enumerate_branches", "enumerate_charge_branches", "evolve", "fidelity", "format_key",
    "hadamard_pbs_gadget", "init_from_occupations", "inner_product", "measure_charge",
    "measure_parity", "measure_spin", "mode_position", "normalize", "outcome_signature",
    "parse", "prepare_bell", "prepare_spin", "prepare_two_spin", "print_circuit",
    "project_occupation", "sample", "single_occupancy_probability", "spin_parity_readout",
    "spinor_fidelity", "teleport", "vacuum", "validate_circuit",
    "__version__", "circuit", "corr", "errors", "fock", "gadgets", "measurement", "parser",
]


def fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports feqc from this tree."""
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_all(argvs: list[list[str]]) -> list[list]:
    return json.loads(fresh(PROBE, json.dumps(argvs)))


def test_fock_runs_and_fock_gadgets_load_neither_numpy_nor_corr():
    corpus = sorted(str(path) for path in DATA.glob("*.feqc"))
    assert len(corpus) >= 10
    argvs = [["run", path, *flag] for path in corpus for flag in ([], ["--emit-state"])]
    argvs += [["gadget", "bell", "--input", str(k), "--detector", detector]
              for k in range(4) for detector in ("parity", "charge")]
    argvs += [["gadget", "appendix-table"], ["gadget", "encoder"],
              ["gadget", "encoder", "--qubit", "(0.6,0),(0,0.8)", "--no-correction"]]
    for argv, (code, numpy_loaded, corr_loaded) in zip(argvs, run_all(argvs), strict=True):
        assert code == 0, argv
        assert not numpy_loaded and not corr_loaded, argv


@pytest.mark.parametrize("options", [["--backend", "corr"], ["--mode", "sample"]])
def test_corr_and_sampling_still_run_and_load_numpy(options):
    [(code, numpy_loaded, corr_loaded)] = run_all([["run", str(DATA / "swap_charge3.feqc"),
                                                     *options]])
    assert code == 0 and numpy_loaded
    assert corr_loaded == (options[1] == "corr")


def test_bare_import_loads_neither_and_every_export_resolves():
    # In a fresh interpreter: what the import loaded, then every name that
    # getattr or dir misses.
    out = fresh("import json, sys, feqc\n"
                "loaded = ['numpy' in sys.modules, 'feqc.corr' in sys.modules]\n"
                "names = json.loads(sys.argv[1])\n"
                "missed = [n for n in names if getattr(feqc, n, None) is None]\n"
                "unlisted = sorted(set(names) - set(dir(feqc)))\n"
                "print(json.dumps([loaded, missed, unlisted]))", json.dumps(EXPORTS))
    assert json.loads(out) == [[False, False], [], []]
    assert feqc.evolve is feqc.corr.evolve
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        feqc.no_such_name  # noqa: B018
