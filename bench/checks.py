"""Output checks for benchmark ops.  An op whose output fails a check counts
as failed, the same as one that raises or exits with an unexpected code."""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

PROB_TOL = 1e-9
SIGMAS = 5.0


def signature(outcomes: dict[str, int]) -> str:
    """Outcome signature that does not depend on the order of the labels."""
    return ",".join(sorted(f"{label}={value}" for label, value in outcomes.items()))


def _canonical(sig: str) -> str:
    return ",".join(sorted(sig.split(","))) if sig else ""


class Checker:
    """Checks one op's exit code and stdout against what the op expects."""

    def __init__(self, root: Path):
        self.validators = {}
        for kind in ("run", "gadget"):
            path = root / "src" / "feqc" / f"{kind}_report.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            self.validators[kind] = jsonschema.validators.validator_for(schema)(schema)

    def check(self, op, code, stdout: str, stderr: str = "",
              enumerated: dict[str, float] | None = None) -> str | None:
        """Return why the op's output is wrong, or None when it is right.

        ``enumerated`` maps each outcome signature to its probability from an
        enumerate run of the same circuit; sample-mode ops need it.
        """
        if code != op.exit_code:
            return f"exit code {code}, expected {op.exit_code}: {stderr.strip()[:200]}"
        if op.exit_code != 0:
            return None if stderr.startswith("error:") else "refusal without an error line"
        try:
            report = json.loads(stdout)
        except ValueError as err:
            return f"stdout is not JSON: {err}"
        errors = sorted(self.validators[op.argv[0]].iter_errors(report), key=str)
        if errors:
            return f"schema: {errors[0].message}"
        if "branches" in report:
            total = math.fsum(b["probability"] for b in report["branches"])
            if abs(total - 1.0) > PROB_TOL:
                return f"branch probabilities sum to {total!r}"
        if op.argv[0] == "gadget":
            return _check_gadget(op.expect, report)
        return (_check_reference(op.expect, report)
                or _check_corr(op.expect, report)
                or _check_shots(op.expect, report, enumerated))


def _check_gadget(expect: dict, report: dict) -> str | None:
    if expect.get("success") and abs(report["success_probability"] - 1.0) > PROB_TOL:
        return f"success probability {report['success_probability']!r}"
    if expect.get("all_match") and report.get("all_match") is not True:
        return "appendix table rows do not all match"
    return None


def _check_reference(expect: dict, report: dict) -> str | None:
    reference = expect.get("reference")
    if reference is None:
        return None
    got = {signature(b["outcomes"]): b["probability"] for b in report["branches"]}
    if got.keys() != reference.keys():
        return f"outcome signatures differ from the reference ({len(got)} vs {len(reference)})"
    worst = max(reference, key=lambda sig: abs(got[sig] - reference[sig]))
    if abs(got[worst] - reference[worst]) > PROB_TOL:
        return f"p({worst}) = {got[worst]!r}, reference {reference[worst]!r}"
    return None


def _check_corr(expect: dict, report: dict) -> str | None:
    corr = report.get("corr")
    if corr is None:
        return None
    joint = corr["joint_charge1"]
    readouts = expect.get("readouts")
    if joint is None:
        return "joint charge-1 query missing" if readouts is not None else None
    m = len(corr["measured_arms"]) if readouts is None else readouts
    if corr["terms"] != 3 ** m:
        return f"corr.terms = {corr['terms']}, expected 3**{m}"
    # Second path to the same number: the charge-1 branches of the tree.
    summed = math.fsum(b["probability"] for b in report["branches"]
                       if all(v == 1 for v in b["outcomes"].values()))
    if abs(joint - summed) > PROB_TOL:
        return f"joint_charge1 {joint!r} but all-charge-1 branches sum to {summed!r}"
    return None


def _check_shots(expect: dict, report: dict, enumerated: dict[str, float] | None) -> str | None:
    shots = expect.get("shots")
    if shots is None:
        return None
    counts = {_canonical(sig): n for sig, n in report["frequencies"].items()}
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, expected {shots}"
    unknown = counts.keys() - enumerated.keys()
    if unknown:
        return f"sampled outcome {sorted(unknown)[0]!r} is not an enumerated leaf"
    for sig, p in enumerated.items():
        n = counts.get(sig, 0)
        sigma = math.sqrt(shots * p * (1.0 - p))
        if abs(n - shots * p) > SIGMAS * sigma + 1e-6:
            return f"count {n} of {sig!r} is more than {SIGMAS} sigma from {shots * p:.1f}"
    return None
