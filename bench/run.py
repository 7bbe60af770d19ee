"""feqc benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload fock-deep --seed 1 --seconds 15 --trace 0

It generates the workload's op list from the seed, times a fresh interpreter
running the first op (``setup_s``), then runs whole passes of the op list in
a closed loop (one client, one process, ``feqc.cli.main`` in-process) for
``--seconds`` and at least ``MIN_OPS`` ops, and checks every op's output.
With ``--trace 1`` it adds one traced pass and reports per-layer metrics
instead.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import REFERENCE_S
from checks import Checker, signature
from workloads import DATA_DIR, WORKLOADS, Workload, generate

BENCH_DIR = Path(__file__).resolve().parent

MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
SETUP_REPEATS = 7  # fresh interpreters timed per run, after one untimed warm-up
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Every span the tracer records; calls and self time are reported for each.
SPANS = (
    "parser.parse", "circuit.validate_circuit", "circuit.apply_instruction",
    "fock.kernel", "fock.prepare", "measurement.measure", "measurement.branch_tree",
    "measurement.sample_tree", "corr.evolve", "corr.add_electron",
    "corr.project_occupation", "corr.joint", "corr.charge_branch_tree",
    "gadgets.bell_analyzer", "gadgets.encoder", "gadgets.cnot", "gadgets.teleport",
    "gadgets.hadamard_pbs_gadget", "cli.main", "cli.emit",
)

# Layers that must record calls in the traced pass of each workload.
ACTIVE_LAYERS = {
    "fock-deep": ("parser", "circuit", "fock", "measurement", "cli"),
    "gadgets": ("parser", "circuit", "fock", "measurement", "corr", "gadgets", "cli"),
    "shots": ("parser", "circuit", "fock", "measurement", "cli"),
    "corr-scale": ("parser", "circuit", "corr", "cli"),
}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread: the benchmark is one client in one process, and a
    # second thread on a shared two-core machine adds noise, not speed.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(root: Path, argv: list[str], repeats: int) -> list[list[float]]:
    """[seconds, calibration] for fresh interpreters that import feqc.cli and
    run one op, as the ``feqc`` console script does.

    Each interpreter calibrates its own speed after the op; the seconds are
    its wall time less that calibration.
    """
    probe = ("import sys, time\n"
             "from feqc.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "start = time.perf_counter()\n"
             f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
             "from calibration import calibrate\n"
             "speed = calibrate()\n"
             "print(speed, time.perf_counter() - start, file=sys.stderr)\n"
             "sys.exit(code)\n")
    times = []
    for attempt in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=root, env=child_env(root),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup op {argv} exited {proc.returncode}: {proc.stderr.strip()}")
        speed, spent = map(float, proc.stderr.split()[-2:])
        if attempt:  # the first start compiles bytecode and warms the file cache
            times.append([elapsed - spent, speed])
    return times


def run_worker(root: Path, work: Path, workload: Workload, seconds: float, trace: bool,
               min_ops: int) -> tuple[dict, Path]:
    spec = {"src": str(root / "src"), "ops": [op.argv for op in workload.ops],
            "seconds": seconds, "min_ops": min_ops, "trace": trace,
            "outputs": str(work / "outputs.jsonl")}
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path),
                           str(result_path)], cwd=root, env=child_env(root),
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8")), Path(spec["outputs"])


def enumerate_reference(root: Path, argv: list[str]) -> dict[str, float]:
    """Outcome signature -> probability from one enumerate run of the CLI."""
    from worker import run_op

    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from feqc import cli

    _, code, out, err = run_op(cli, argv)
    if code != 0:
        raise RuntimeError(f"enumerate run {argv} exited {code}: {err.strip()}")
    return {signature(b["outcomes"]): b["probability"] for b in json.loads(out)["branches"]}


def check_outputs(root: Path, workload: Workload, outputs: Path) -> dict:
    """Check every op's recorded output; identical outputs are checked once."""
    checker = Checker(root)
    verdicts: dict[tuple, str | None] = {}
    enumerated: dict[tuple, dict] = {}
    tally = {"warmup": [0, 0], "untraced": [0, 0], "traced": [0, 0]}  # [attempted, failed]
    report_bytes = 0
    first_failure = None
    with open(outputs, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            op = workload.ops[rec["op"]]
            key = (rec["op"], rec["code"], rec["out"], rec["err"])
            if key not in verdicts:
                ref = None
                if "enumerate" in op.expect:
                    argv = tuple(op.expect["enumerate"])
                    if argv not in enumerated:
                        enumerated[argv] = enumerate_reference(root, list(argv))
                    ref = enumerated[argv]
                verdicts[key] = checker.check(op, rec["code"], rec["out"], rec["err"], ref)
            counts = tally[rec["pass"]]
            counts[0] += 1
            if verdicts[key] is not None:
                counts[1] += 1
                first_failure = first_failure or f"op {op.argv}: {verdicts[key]}"
            if rec["pass"] == "traced":
                report_bytes += len(rec["out"].encode("utf-8"))
    return {"tally": tally, "report_bytes": report_bytes, "first_failure": first_failure}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(result: dict, setup: list[list[float]], attempted: int, failed: int,
                       rescale: bool = True) -> dict:
    """End-to-end metrics; times are rescaled to the reference machine speed
    unless ``rescale`` is false."""
    lat = [ms * (factor if rescale else 1.0) for ms, factor in result["untraced"]]
    return {
        "ops_per_s": len(lat) / (math.fsum(lat) / 1000.0),
        "op_ms.p50": statistics.median(lat),
        "op_ms.p90": percentile(lat, 0.9),
        "ok_rate": (attempted - failed) / attempted,
        "setup_s": statistics.median(
            t * (REFERENCE_S / speed if rescale else 1.0) for t, speed in setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(result: dict, report_bytes: int) -> dict[str, tuple[float, str]]:
    spans = result["spans"]
    traced_ms = math.fsum(ms for ms, _ in result["traced"])
    # Span times are rescaled like op latencies, by the traced pass's mean
    # speed factor, so runs in fast and slow processes compare.
    scale = math.fsum(ms * f for ms, f in result["traced"]) / traced_ms

    def calls(name):
        return spans[name]["calls"]

    def self_ms(name):
        return spans[name]["self_ms"] * scale

    def count(name, key):
        return spans[name]["counts"].get(key, 0)

    def us_per(name, units):
        return _ratio(1000 * self_ms(name), units), "us"

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        if name != "cli.emit":
            m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    m["parser.us_per_line"] = us_per("parser.parse", count("parser.parse", "lines"))
    m["fock.kernel.keys_in"] = (count("fock.kernel", "keys_in"), "count")
    m["fock.kernel.us_per_key"] = us_per("fock.kernel", count("fock.kernel", "keys_in"))
    m["fock.kernel.us_per_call"] = us_per("fock.kernel", calls("fock.kernel"))
    m["fock.max_keys"] = (count("fock.kernel", "max_keys"), "count")
    m["measurement.measure.keys_in"] = (count("measurement.measure", "keys_in"), "count")
    m["measurement.measure.branches_out"] = (count("measurement.measure", "branches_out"), "count")
    m["measurement.leaves"] = (count("measurement.branch_tree", "leaves"), "count")
    shots = count("measurement.sample_tree", "shots")
    m["measurement.shots"] = (shots, "count")
    m["measurement.us_per_shot"] = us_per("measurement.sample_tree", shots)
    m["measurement.leaves_sampled_ratio"] = (_ratio(
        count("measurement.sample_tree", "distinct_sampled"),
        count("measurement.sample_tree", "leaves")), "ratio")
    m["corr.evolve.max_dim"] = (count("corr.evolve", "max_dim"), "count")
    m["corr.evolve.replay_ratio"] = (_ratio(
        calls("corr.evolve"), count("corr.charge_branch_tree", "needed_evolves")), "ratio")
    terms = count("corr.joint", "terms")
    m["corr.joint.terms"] = (terms, "count")
    m["corr.joint.us_per_term"] = us_per("corr.joint", terms)
    m["corr.leaves"] = (count("corr.charge_branch_tree", "leaves"), "count")
    m["cli.report_bytes"] = (report_bytes, "bytes")
    # Mean rescaled op latency, traced over untraced: both cover whole passes
    # of the same ops, so the ratio is the tracing cost alone.
    m["trace.overhead_ratio"] = (_ratio(*(statistics.fmean(ms * f for ms, f in result[tag])
                                          for tag in ("traced", "untraced"))), "ratio")
    for name in SPANS:
        m[f"{name}.share"] = (100.0 * self_ms(name) / (traced_ms * scale), "%")
    return m


def environment(root: Path, result: dict, workload: Workload) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "feqc").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        **result["environment"],
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": workload.seed,
        "ops_per_pass": len(workload.ops),
        "passes": result["passes"],
        "latency_samples": len(result["untraced"]),
    }


def measure(root: Path, workload: Workload, seconds: float, trace: bool,
            min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one benchmark measurement and return the printed result pieces."""
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".bench_work"))
    try:
        for rel, text in workload.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        setup = [] if trace else measure_setup(root, workload.ops[0].argv, setup_repeats)
        result, outputs = run_worker(root, work, workload, seconds, trace, min_ops)
        checked = check_outputs(root, workload, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for rel in workload.files:
            (root / rel).unlink(missing_ok=True)
        for directory in [*{(root / rel).parent for rel in workload.files}, root / ".bench_work"]:
            try:
                directory.rmdir()
            except OSError:
                pass  # not empty: another run is using it
    attempted = sum(a for a, _ in checked["tally"].values())
    failed = sum(f for _, f in checked["tally"].values())
    problems = [checked["first_failure"]] if checked["first_failure"] else []
    if trace:
        metrics = per_layer_metrics(result, checked["report_bytes"])
        idle = [layer for layer in ACTIVE_LAYERS[workload.name]
                if result["layer_calls"][layer] == 0]
        problems += [f"traced pass recorded no calls in layer {layer}" for layer in idle]
        unscaled = {}
    else:
        values = end_to_end_metrics(result, setup, attempted, failed)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        unscaled = end_to_end_metrics(result, setup, attempted, failed, rescale=False)
    return {
        "environment": environment(root, result, workload),
        "problems": problems,
        "unscaled": unscaled,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [rel for rel in ("src/feqc/cli.py", DATA_DIR) if not (root / rel).exists()]
    if missing:
        print(f"error: run from the root of a feqc checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work_rel = f".bench_work/{args.workload}-{args.seed}-{os.getpid()}-inputs"
    try:
        workload = generate(args.workload, args.seed, root, work_rel)
        out = measure(root, workload, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    env = out["environment"]
    print(f"# {env['workload']} seed={env['seed']}: {env['latency_samples']} timed ops "
          f"in {env['passes']} passes of {env['ops_per_pass']}")
    for name, metric in out["result"]["metrics"].items():
        raw = out["unscaled"].get(name)
        note = "" if raw in (None, metric["value"]) else f"   (unscaled {raw:.6g})"
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(json.dumps({"environment": env}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
