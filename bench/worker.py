"""Closed-loop op runner: one client, one process, ``feqc.cli.main`` in-process.

    python3 bench/worker.py SPEC.json RESULT.json

``run.py`` starts this in a fresh interpreter with ``src`` on the import path,
so the peak memory it reports is the workload's own.  SPEC holds the op list
of one pass (argv lists), the seconds to measure for, the fewest ops a run
may time, whether to add a traced pass, and the file each op's exit code and
output are written to.  Outputs are written between ops, outside the timed
interval; ``run.py`` checks them afterwards.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibration import calibrate, speed_factors  # bench/ is sys.path[0] for this script

CALIBRATION_INTERVAL_S = 0.1


def run_op(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """Run one CLI call; return (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a traced pass sees the wrapper
    except SystemExit as exc:  # argparse rejects argv this way
        code = exc.code
    except Exception:  # noqa: BLE001 - a traceback is a failed op, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, ops, sink, tag: str, calibrations: list[float]) -> list[list[float]]:
    """One pass over the op list; returns [latency in ms, k] per op, where the
    op ran between calibrations k and k + 1.

    The machine's speed is calibrated after every CALIBRATION_INTERVAL_S of op
    time and at the end of the pass.
    """
    timed, since = [], 0.0
    for index, argv in enumerate(ops):
        if since >= CALIBRATION_INTERVAL_S:
            calibrations.append(calibrate())
            since = 0.0
        seconds, code, out, err = run_op(cli, argv)
        since += seconds
        timed.append([seconds * 1000.0, len(calibrations) - 1])
        sink.write(json.dumps({"pass": tag, "op": index, "code": code, "out": out,
                               "err": err}) + "\n")
    calibrations.append(calibrate())
    return timed


def openblas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy

    from feqc import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"feqc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = spec["ops"]
    calibrations = [calibrate()]
    result = {"untraced": [], "passes": 0}
    with open(spec["outputs"], "w", encoding="utf-8") as sink:
        # One untimed pass first, so lazy imports and first-call costs inside
        # the process are paid before timing; setup_s prices them separately.
        run_pass(cli, ops, sink, "warmup", calibrations)
        start = time.perf_counter()
        # Whole passes only, so every run times the same mix of ops.
        while (time.perf_counter() - start < spec["seconds"]
               or len(result["untraced"]) < spec["min_ops"]):
            result["untraced"] += run_pass(cli, ops, sink, "untraced", calibrations)
            result["passes"] += 1
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result["traced"] = run_pass(cli, ops, sink, "traced", calibrations)
            finally:
                tracer.uninstall()
            result["spans"] = {name: {"calls": s.calls, "self_ms": s.self_s * 1000.0,
                                      "counts": s.counts} for name, s in tracer.spans.items()}
            result["layer_calls"] = tracer.layer_calls()
    # Replace each op's interval index by its speed factor.
    factors = speed_factors(calibrations)
    for tag in ("untraced", "traced"):
        for op in result.get(tag, []):
            op[1] = factors[op[1]]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["environment"] = {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
