"""Simulator of free-electron quantum computation: fermionic linear optics
plus charge detection and classical feedforward, with an exact sparse Fock
backend and a polynomial correlation-matrix backend."""

__version__ = "0.1.0"

from .errors import (
    CircuitError,
    FeqcError,
    NonGaussianOperationError,
    PreconditionError,
)
from .fock import (
    BELL_COEFFS,
    BEAM_SPLITTER_MATRIX,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    FockState,
    ModeIndex,
    Spin,
    apply_single_particle_unitary,
    arm_charge,
    arm_qubit_density,
    create,
    fidelity,
    format_key,
    inner_product,
    mode_position,
    normalize,
    prepare_bell,
    prepare_spin,
    prepare_two_spin,
    spinor_fidelity,
    vacuum,
)
from .measurement import (
    BranchRecord,
    SampleResult,
    enumerate_branches,
    measure_charge,
    measure_parity,
    measure_spin,
    outcome_signature,
    sample,
)
from .circuit import (
    BeamSplitter,
    Circuit,
    Conditional,
    Measure,
    PolarizingBeamSplitter,
    PrepBell,
    PrepSpin,
    SpinRotation,
    SwapArms,
    print_circuit,
    validate_circuit,
)
from .gadgets import (
    GadgetBranchRecord,
    TELEPORT_CORRECTIONS,
    bell_analyzer,
    bell_statistic,
    cnot,
    control_branch_formula,
    derive_teleport_corrections,
    encoder,
    hadamard_pbs_gadget,
    spin_parity_readout,
    teleport,
)
from .parser import Diagnostic, ParseResult, parse

# The corr backend and its names load, with numpy, on first use (PEP 562), so
# that importing feqc, or running the fock backend, loads neither.
_CORR_NAMES = frozenset({
    "CorrelationMatrix",
    "add_electron",
    "enumerate_charge_branches",
    "evolve",
    "init_from_occupations",
    "project_occupation",
    "single_occupancy_probability",
})


def __getattr__(name: str):
    if name == "corr" or name in _CORR_NAMES:
        import importlib

        corr = importlib.import_module(".corr", __name__)  # `from . import` would call back here
        return corr if name == "corr" else getattr(corr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "corr", *_CORR_NAMES})
