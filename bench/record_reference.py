"""Generate the circuit pools of ``fock-deep`` and ``corr-scale`` and record
each circuit's outcome probabilities as the reference the benchmark checks
against.

Run from the repository root:

    python3 bench/record_reference.py

The pools are drawn from a fixed seed, so re-running at the same commit
rewrites the same files.  Re-record only when a change is meant to alter the
probabilities, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from feqc import fock  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import enumerate_reference  # noqa: E402
from workloads import REFERENCE_DIR  # noqa: E402

POOL_SEED = 20260417

FOCK_DEEP_SIZE = 40
FOCK_DEEP_ARMS = 8
FOCK_DEEP_KEYS = (128, 1500)  # peak key count a pooled circuit must reach, and not pass

# The pool interleaves two wide circuits with each deep-readout one.  With
# equal counts the median op latency would sit in the gap between the two
# shapes, set by the slowest wide and the fastest deep op, and jump from run
# to run; at 2:1 it falls inside the wide ops and the 90th percentile inside
# the deep ones.
CORR_SIZE = 18
CORR_WIDE = dict(arms=48, electrons=12, elements=24, readouts=3)
CORR_DEEP = dict(arms=12, electrons=8, elements=12, readouts=8)


def _spinor(rng: np.random.Generator) -> str:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return f"({v[0]:.6f},{v[1]:.6f}) ({v[2]:.6f},{v[3]:.6f})"


def _pair(rng, arms: int) -> tuple[int, int]:
    i, j = rng.choice(np.arange(1, arms + 1), size=2, replace=False)
    return int(i), int(j)


def _element(rng, arms: int, kinds) -> str:
    kind = str(rng.choice(kinds))
    if kind == "rot":
        return f"rot {int(rng.integers(1, arms + 1))} {rng.choice(['x', 'y', 'z', 'h'])}"
    i, j = _pair(rng, arms)
    return f"{kind} {i} {j}"


def _electrons(rng, arms: int, count: int) -> list[str]:
    chosen = sorted(int(a) for a in rng.choice(np.arange(1, arms + 1), size=count, replace=False))
    return [f"electron {a} {_spinor(rng)}" for a in chosen]


def _readouts(rng, arms: int, count: int) -> list[str]:
    chosen = rng.choice(np.arange(1, arms + 1), size=count, replace=False)
    return [f"q{k + 1} = charge {int(a)}" for k, a in enumerate(chosen)]


def fock_deep_circuit(rng, electrons: int) -> str:
    arms = FOCK_DEEP_ARMS
    lines = [f"arms {arms}", *_electrons(rng, arms, electrons)]
    lines += [_element(rng, arms, ["bs", "bs", "pbs"]) for _ in range(6)]
    lines.append(f"p = parity {int(rng.integers(1, arms + 1))}")
    lines.append(f"if p == 1 : rot {int(rng.integers(1, arms + 1))} x")
    lines += [_element(rng, arms, ["bs", "pbs", "swap", "rot"]) for _ in range(3)]
    lines += _readouts(rng, arms, 3)
    return "\n".join(lines) + "\n"


def corr_circuit(rng, arms: int, electrons: int, elements: int, readouts: int) -> str:
    lines = [f"arms {arms}", *_electrons(rng, arms, electrons)]
    lines += [_element(rng, arms, ["bs", "bs", "pbs", "swap", "rot"]) for _ in range(elements)]
    lines += _readouts(rng, arms, readouts)
    return "\n".join(lines) + "\n"


def _enumerate(text: str, backend: str) -> dict[str, float]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circuit.feqc"
        path.write_text(text, encoding="utf-8")
        return enumerate_reference(ROOT, ["run", str(path), "--backend", backend])


def _peak_keys(text: str) -> int:
    peak = 0
    kernel = fock.apply_single_particle_unitary

    def counting(state, modes, matrix):
        nonlocal peak
        result = kernel(state, modes, matrix)
        peak = max(peak, len(state.amplitudes), len(result.amplitudes))
        return result

    fock.apply_single_particle_unitary = counting
    try:
        _enumerate(text, "fock")
    finally:
        fock.apply_single_particle_unitary = kernel
    return peak


def record_fock_deep() -> list[dict]:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    while len(pool) < FOCK_DEEP_SIZE:
        text = fock_deep_circuit(rng, electrons=4 + len(pool) % 2)
        low, high = FOCK_DEEP_KEYS
        if low <= _peak_keys(text) <= high:
            pool.append({"circuit": text, "readouts": 3,
                         "probabilities": _enumerate(text, "fock")})
    return pool


def record_corr_scale() -> list[dict]:
    rng = np.random.default_rng(POOL_SEED + 1)
    pool = []
    for index in range(CORR_SIZE):
        shape = CORR_DEEP if index % 3 == 2 else CORR_WIDE
        text = corr_circuit(rng, **shape)
        pool.append({"circuit": text, "readouts": shape["readouts"],
                     "probabilities": _enumerate(text, "corr")})
    return pool


def main() -> int:
    for name, record in (("fock-deep", record_fock_deep), ("corr-scale", record_corr_scale)):
        pool = record()
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"pool_seed": POOL_SEED, "circuits": pool}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{path}: {len(pool)} circuits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
