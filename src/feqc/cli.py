"""Command line runner: parse .feqc circuits, run either backend, and print
JSON reports (or a readable rendering with --pretty).

Exit codes: 0 on success, 2 on parse or validation errors, 1 on runtime
errors such as occupancy violations or a backend refusing an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import fock, gadgets, measurement
from .circuit import Circuit
from .errors import CircuitError, FeqcError
from .fock import FockState, format_key, vacuum
from .measurement import outcome_signature, sample_tree
from .parser import parse

REPORT_VERSION = "1"


def _build_argparser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each leaf command's parser keyed by its command
    words: ("run",), ("gadget", "bell"), ..."""
    top = argparse.ArgumentParser(prog="feqc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def leaf(subparsers, *words: str, **kwargs) -> argparse.ArgumentParser:
        leaves[words] = subparsers.add_parser(words[-1], **kwargs)
        return leaves[words]

    run = leaf(sub, "run", help="run a circuit file")
    run.add_argument("file", help="circuit source (.feqc)")
    run.add_argument("--backend", choices=("fock", "corr"), default="fock")
    run.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    run.add_argument("--shots", type=_shots, default=1024, help="S >= 1")
    run.add_argument("--seed", type=_seed, default=0, help="0 <= S < 2^64")
    run.add_argument("--emit-state", action="store_true",
                     help="include final amplitudes per branch (fock backend)")
    _output_flags(run)

    gadget = sub.add_parser("gadget", help="run a prebuilt gadget")
    gsub = gadget.add_subparsers(dest="name", required=True)

    bell = leaf(gsub, "gadget", "bell", help="analyze one of the four entangled pair states")
    bell.add_argument("--input", type=int, required=True, choices=range(4),
                      help="pair state index 0..3")
    bell.add_argument("--detector", choices=("parity", "charge"), default="parity")
    _output_flags(bell)

    enc = leaf(gsub, "gadget", "encoder", help="entangle a qubit with a fresh ancilla")
    enc.add_argument("--qubit", default="(1,0),(0,0)", help='spinor as "(re,im),(re,im)"')
    enc.add_argument("--no-correction", action="store_true",
                     help="skip the spin flip in the parity-0 branch")
    _output_flags(enc)

    cnot = leaf(gsub, "gadget", "cnot", help="deterministic controlled-NOT on basis inputs")
    cnot.add_argument("--control", type=int, required=True, choices=(0, 1))
    cnot.add_argument("--target", type=int, required=True, choices=(0, 1))
    _output_flags(cnot)

    tele = leaf(gsub, "gadget", "teleport", help="teleport a spin qubit over a singlet pair")
    tele.add_argument("--qubit", default="(1,0),(0,0)", help='spinor as "(re,im),(re,im)"')
    _output_flags(tele)

    app = leaf(gsub, "gadget", "appendix-table",
               help="16-row closed-form check of the Hadamard-PBS block")
    _output_flags(app)
    return top, leaves


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {value}")
    return value


def _shots(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"shots must be >= 1, got {value}")
    return value


def _output_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false", default=False,
                     help="JSON to stdout (default)")
    fmt.add_argument("--pretty", dest="pretty", action="store_true",
                     help="human-readable rendering")


# Built once; parsing keeps no state between calls.
_PARSER, _LEAF_PARSERS = _build_argparser()

_SPINOR_RE = re.compile(
    r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)\s*,\s*\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)\Z"
)


def _parse_spinor(text: str) -> tuple[complex, complex]:
    m = _SPINOR_RE.match(text.strip())
    if not m:
        raise ValueError(f'expected "(re,im),(re,im)", got {text!r}')
    vals = [float(g) for g in m.groups()]
    alpha = complex(vals[0], vals[1])
    beta = complex(vals[2], vals[3])
    fock.check_spinor(alpha, beta)
    return alpha, beta


def _state_entries(state: FockState) -> list[dict]:
    return [
        {"key": format_key(key, state.num_arms), "re": float(amp.real), "im": float(amp.imag)}
        for key, amp in sorted(state.amplitudes.items())
    ]


def _run_report(args, circuit: Circuit) -> dict:
    report = {
        "version": REPORT_VERSION,
        "backend": args.backend,
        "mode": args.mode,
        "seed": args.seed if args.mode == "sample" else None,
        "arm_count": circuit.arm_count,
    }
    if args.backend == "fock":
        # The readouts' light cone gives the same branches; emitted states
        # need every electron of the circuit.
        root = measurement.branch_tree(circuit, vacuum(circuit.arm_count),
                                       cone=not args.emit_state)
        branches = []
        for rec in measurement.leaves(root):
            entry: dict = {"outcomes": rec.outcomes, "probability": rec.probability}
            if args.emit_state:
                entry["state"] = _state_entries(rec.post_state)
            branches.append(entry)
        report["branches"] = branches
    else:
        from . import corr  # numpy and corr load only for a run that needs them

        root, stats = corr.charge_branch_tree(circuit)
        report["branches"] = corr.merged_branches(root)
    if args.mode == "sample":
        result = sample_tree(root, args.seed, args.shots)
        report["frequencies"] = result.frequencies
    if args.backend == "corr":
        report["corr"] = {
            "terms": stats.terms,
            "wall_ms": stats.wall_ms,
            "measured_arms": stats.measured_arms,
            "joint_charge1": stats.joint_charge1,
        }
    return report


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8-sig") as f:  # drops a leading byte-order mark
            source = f.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = parse(source)
    if result.circuit is None:
        for diag in result.diagnostics:
            print(f"{args.file}:{diag}", file=sys.stderr)
        return 2
    report = _run_report(args, result.circuit)
    _emit(report, args.pretty, _render_run)
    return 0


def _spin_state(num_arms: int, prep: list[tuple[int, complex, complex]]) -> FockState:
    state = vacuum(num_arms)
    for arm, alpha, beta in prep:
        state = fock.prepare_spin(state, arm, alpha, beta)
    return state


def _gadget_bell(args) -> dict:
    state = fock.prepare_bell(vacuum(2), args.input, 1, 2)
    branches = []
    success = 0.0
    for rec in gadgets.bell_analyzer(state, 1, 2, detector=args.detector):
        branches.append({"outcomes": rec.outcomes, "probability": rec.probability})
        if rec.outcomes["b"] == args.input:
            success += rec.probability
    return {
        "options": {"input": args.input, "detector": args.detector},
        "branches": branches,
        "success_probability": success,
    }


def _gadget_encoder(args) -> dict:
    alpha, beta = _parse_spinor(args.qubit)
    state = _spin_state(2, [(1, alpha, beta), (2, 1, 1)])
    ideal = fock.prepare_two_spin(vacuum(2), 1, 2, ((alpha, 0), (0, beta)))
    branches = []
    success = 0.0
    for rec in gadgets.encoder(state, 1, 2, apply_correction=not args.no_correction):
        fid = fock.fidelity(rec.output_state, ideal)
        branches.append({"outcomes": rec.outcomes, "probability": rec.probability, "fidelity": fid})
        success += rec.probability * fid
    return {
        "options": {"qubit": args.qubit, "correction": not args.no_correction},
        "branches": branches,
        "success_probability": success,
    }


def _gadget_cnot(args) -> dict:
    x, y = args.control, args.target
    state = _spin_state(3, [(1, 1 - x, x), (2, 1 - y, y), (3, 1, 1)])

    # The ideal output for each ancilla readout z, built once for all records.
    ideal = {z: _spin_state(3, [(1, 1 - x, x), (2, 1 - (x + y) % 2, (x + y) % 2), (3, 1 - z, z)])
             for z in (0, 1)}

    def fidelity(rec) -> float:
        return fock.fidelity(rec.output_state, ideal[rec.outcomes["z"]])

    records = gadgets.cnot(state, control_arm=1, target_arm=2, ancilla_arm=3)
    return {"options": {"control": x, "target": y}, **_scored(records, fidelity)}


def _gadget_teleport(args) -> dict:
    alpha, beta = _parse_spinor(args.qubit)
    state = fock.prepare_bell(fock.prepare_spin(vacuum(3), 1, alpha, beta), 0, 2, 3)

    def fidelity(rec) -> float:
        return fock.spinor_fidelity(fock.arm_qubit_density(rec.output_state, 3), alpha, beta)

    return {"options": {"qubit": args.qubit}, **_scored(gadgets.teleport(state, 1, 2, 3), fidelity)}


def _scored(records, fidelity) -> dict:
    """Branches of gadget records with their fidelities and corrections, and
    the fidelity-weighted success probability."""
    branches = []
    success = 0.0
    for rec in records:
        fid = fidelity(rec)
        branches.append({"outcomes": rec.outcomes, "probability": rec.probability, "fidelity": fid,
                         "corrections": [list(c) for c in rec.applied_corrections]})
        success += rec.probability * fid
    return {"branches": branches, "success_probability": success}


def _gadget_appendix_table(args) -> dict:
    rows = []
    all_match = True
    for a in (0, 1):
        for y in (0, 1):
            state = _spin_state(2, [(1, 1 - a, a), (2, 1 - y, y)])
            for rec in gadgets.hadamard_pbs_gadget(state, 1, 2):
                p2, z, out = rec.outcomes["p2"], rec.outcomes["z"], rec.output_state
                expected_bit = (a + y + z) % 2
                expected_phase = float((-1) ** (((p2 + 1) * (a + z)) % 2))
                key, amp = max(out.amplitudes.items(), key=lambda kv: abs(kv[1]))
                up_pos = fock.mode_position((2, fock.Spin.UP), 2)
                output_bit = 0 if key >> up_pos & 1 else 1
                match = bool(
                    output_bit == expected_bit
                    and len(out.amplitudes) == 1
                    and abs(amp - expected_phase) <= 1e-9
                )
                all_match = all_match and match
                rows.append(
                    {
                        "a": a, "y": y, "p2": p2, "z": z,
                        "probability": rec.probability,
                        "output_bit": output_bit,
                        "expected_bit": expected_bit,
                        "phase_re": float(amp.real),
                        "phase_im": float(amp.imag),
                        "expected_phase": expected_phase,
                        "match": match,
                    }
                )
    return {"rows": rows, "all_match": all_match}


_GADGETS = {
    "bell": _gadget_bell,
    "encoder": _gadget_encoder,
    "cnot": _gadget_cnot,
    "teleport": _gadget_teleport,
    "appendix-table": _gadget_appendix_table,
}


def _cmd_gadget(args) -> int:
    body = _GADGETS[args.name](args)
    report = {"version": REPORT_VERSION, "command": "gadget", "name": args.name, **body}
    _emit(report, args.pretty, _render_gadget)
    return 0


def _emit(report: dict, pretty: bool, renderer) -> None:
    # Flushed here, so that a closed stdout raises inside main, not at exit.
    print(renderer(report) if pretty else json.dumps(report), flush=True)


def _render_run(report: dict) -> str:
    lines = [
        f"backend={report['backend']} mode={report['mode']} arms={report['arm_count']}"
    ]
    for entry in report["branches"]:
        sig = outcome_signature(entry["outcomes"]) or "(no measurements)"
        lines.append(f"  {sig:30s} p={entry['probability']:.6f}")
        for amp in entry.get("state", []):
            lines.append(f"    |{amp['key']}>  {amp['re']:+.6f}{amp['im']:+.6f}i")
    if "frequencies" in report:
        lines.append(f"frequencies (seed={report['seed']}):")
        for sig, count in report["frequencies"].items():
            lines.append(f"  {sig:30s} {count}")
    if "corr" in report:
        c = report["corr"]
        lines.append(
            f"corr: terms={c['terms']} wall_ms={c['wall_ms']:.3f} "
            f"joint_charge1={c['joint_charge1']}"
        )
    return "\n".join(lines)


def _render_gadget(report: dict) -> str:
    lines = [f"gadget {report['name']}"]
    for key, value in report.get("options", {}).items():
        lines.append(f"  {key} = {value}")
    if "rows" in report:
        lines.append("  a y p2 z   bit expect  phase     match")
        for r in report["rows"]:
            lines.append(
                f"  {r['a']} {r['y']} {r['p2']}  {r['z']}    {r['output_bit']}   "
                f"{r['expected_bit']}     {r['phase_re']:+.3f}    {str(r['match']).lower()}"
            )
        lines.append(f"all match: {report['all_match']}")
        return "\n".join(lines)
    for entry in report["branches"]:
        sig = outcome_signature(entry["outcomes"])
        extra = ""
        if "fidelity" in entry:
            extra = f" fidelity={entry['fidelity']:.9f}"
        lines.append(f"  {sig:24s} p={entry['probability']:.6f}{extra}")
    if "success_probability" in report:
        lines.append(f"success probability: {report['success_probability']:.9f}")
    return "\n".join(lines)


def _parse_args(argv) -> argparse.Namespace:
    """What _PARSER.parse_args(argv) returns, or the same exit.

    The subparsers action hands a command's parser every word after the
    command's name, so an argv that starts with a leaf command's words is
    parsed by that leaf alone, without walking the tree above it. Every other
    argv (no command, top-level help, an unknown command, a group without its
    command) goes to _PARSER.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = _LEAF_PARSERS.get(words)
        if leaf is None:
            continue
        args, extras = leaf.parse_known_args(argv[len(words):])
        if extras:
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = words[0]
        if len(words) == 2:
            args.name = words[1]
        return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.command == "run" and args.emit_state and args.backend != "fock":
        _LEAF_PARSERS["run",].error("argument --emit-state: only the fock backend emits states")
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gadget(args)
    except CircuitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FeqcError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
