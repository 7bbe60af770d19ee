"""Seeded op lists for the four benchmark workloads.

An op is one ``feqc run`` or ``feqc gadget`` call, given as the argv that
``feqc.cli.main`` receives, plus what the output checks need to know about
it.  One pass of a workload is a fixed op list; a run repeats whole passes,
so the mix of ops is the same however long it lasts.

``fock-deep`` and ``corr-scale`` draw their circuits from a pool recorded in
``reference/<workload>.json`` together with each circuit's outcome
probabilities (see ``record_reference.py``).  The seed picks a random
relabelling of the arms for every circuit.  Relabelling arms changes the text
the program parses and the mode order it works in, but not the physics, so
the recorded probabilities still hold for every seed and the cost of a pass
stays the same from seed to seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fock-deep", "gadgets", "shots", "corr-scale")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DATA_DIR = "tests/data"

# One gadgets pass repeats the full set of gadget forms and corpus runs this
# many times, with fresh seeded qubits each time, so that a pass lasts about
# a second and the traced run times enough work to be read.
GADGET_REPEATS = 8
SHOT_SEEDS_PER_CIRCUIT = 4
SHOTS = 1024  # the CLI default

# Keywords that make a circuit non-Gaussian; the corr backend refuses these
# with exit code 1.
NON_GAUSSIAN = re.compile(r"^\s*(bell\b|\w+\s*=\s*(parity|spin)\b)", re.MULTILINE)


@dataclass
class Op:
    """One CLI call and the facts the checks need about its output."""

    argv: list[str]  # argv[0], "run" or "gadget", also names the report schema
    exit_code: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    files: dict[str, str]  # relative path -> circuit text, written before the run


def load_pool(name: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["circuits"]


def relabel_arms(text: str, perm: dict[int, int]) -> str:
    """Rewrite every arm number in a generated circuit through ``perm``."""
    out = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "arms":
            out.append(line)
            continue
        head = tokens[0]
        if head == "electron":
            tokens[1] = str(perm[int(tokens[1])])
        elif head in ("bs", "pbs", "swap"):
            tokens[1:3] = [str(perm[int(t)]) for t in tokens[1:3]]
        elif head == "rot":
            tokens[1] = str(perm[int(tokens[1])])
        elif head == "if":  # if <label> == <v> : rot <arm> <name>
            tokens[6] = str(perm[int(tokens[6])])
        elif tokens[1] == "=":  # <label> = <kind> <arm>
            tokens[3] = str(perm[int(tokens[3])])
        else:
            raise ValueError(f"cannot relabel line {line!r}")
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def _arm_count(text: str) -> int:
    return int(re.search(r"^arms\s+(\d+)", text, re.MULTILINE).group(1))


def _pooled(name: str, seed: int, work: str, backend_args: list[str]) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    ops, files = [], {}
    for index, entry in enumerate(load_pool(name)):
        arms = list(range(1, _arm_count(entry["circuit"]) + 1))
        shuffled = arms[:]
        rng.shuffle(shuffled)
        path = f"{work}/{name}-{index:03d}.feqc"
        files[path] = relabel_arms(entry["circuit"], dict(zip(arms, shuffled)))
        ops.append(Op(
            ["run", path, *backend_args],
            expect={"reference": entry["probabilities"], "readouts": entry["readouts"]},
        ))
    return Workload(name, seed, ops, files)


def _spinor_text(rng: random.Random) -> str:
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = sum(x * x for x in v) ** 0.5
    a, b, c, d = (x / norm for x in v)
    return f"({a:.6f},{b:.6f}),({c:.6f},{d:.6f})"


def corpus(root: Path) -> list[str]:
    """The circuit corpus every gadgets and shots pass runs, as relative paths."""
    return sorted(p.relative_to(root).as_posix() for p in (root / DATA_DIR).glob("*.feqc"))


def _gadgets(seed: int, root: Path) -> Workload:
    rng = random.Random(f"gadgets/{seed}")
    data = [(path, (root / path).read_text(encoding="utf-8")) for path in corpus(root)]
    ops = []
    for _ in range(GADGET_REPEATS):
        for k in range(4):
            for detector in ("parity", "charge"):
                ops.append(Op(["gadget", "bell", "--input", str(k), "--detector", detector],
                              expect={"success": True}))
        for control in (0, 1):
            for target in (0, 1):
                ops.append(Op(["gadget", "cnot", "--control", str(control),
                               "--target", str(target)], expect={"success": True}))
        qubit = _spinor_text(rng)
        ops.append(Op(["gadget", "encoder", "--qubit", qubit], expect={"success": True}))
        ops.append(Op(["gadget", "encoder", "--qubit", qubit, "--no-correction"]))
        ops.append(Op(["gadget", "teleport", "--qubit", _spinor_text(rng)],
                      expect={"success": True}))
        ops.append(Op(["gadget", "appendix-table"], expect={"all_match": True}))
        for path, text in data:
            ops.append(Op(["run", path]))
            refused = NON_GAUSSIAN.search(text) is not None
            ops.append(Op(["run", path, "--backend", "corr"], exit_code=1 if refused else 0))
    return Workload("gadgets", seed, ops, {})


def _shots(seed: int, root: Path) -> Workload:
    rng = random.Random(f"shots/{seed}")
    ops = []
    for _ in range(SHOT_SEEDS_PER_CIRCUIT):
        for path in corpus(root):
            ops.append(Op(
                ["run", path, "--mode", "sample", "--seed", str(rng.randrange(2**32))],
                expect={"shots": SHOTS, "enumerate": ["run", path]},
            ))
    return Workload("shots", seed, ops, {})


def generate(name: str, seed: int, root: Path, work: str) -> Workload:
    """The op list of one pass of workload ``name`` for ``seed``.

    ``root`` is the checkout the corpus is read from and ``work`` the
    directory, relative to it, that generated circuit files are written to.
    """
    if name == "fock-deep":
        return _pooled(name, seed, work, [])
    if name == "corr-scale":
        return _pooled(name, seed, work, ["--backend", "corr"])
    if name == "gadgets":
        return _gadgets(seed, root)
    if name == "shots":
        return _shots(seed, root)
    raise ValueError(f"unknown workload {name!r}")
