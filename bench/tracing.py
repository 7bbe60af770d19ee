"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public function at each module boundary of
``feqc``, under every name callers look it up by: module attributes, names
bound by ``from ... import`` at import time, and the measurement dispatch
table.  Each wrapper records calls and self time (its duration minus the
time of wrapped calls made inside it), plus the work counts the per-layer
metrics are built from.  Nothing inside ``src/feqc`` is changed on disk.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

LAYERS = ("parser", "circuit", "fock", "measurement", "corr", "gadgets", "cli")

GADGET_FUNCTIONS = ("bell_analyzer", "encoder", "cnot", "teleport", "hadamard_pbs_gadget")

# Element instructions and the evolve calls one application of each needs on
# the corr backend at the commit that defined this benchmark.
CORR_EVOLVES_PER_ELEMENT = {
    "BeamSplitter": 2, "PolarizingBeamSplitter": 1, "SwapArms": 2, "SpinRotation": 1,
}


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def count_leaves(node) -> int:
    children = getattr(node, "children", None)
    if children is None:
        return 1
    return sum(count_leaves(child) for _, _, child in children)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []  # [span name, time spent in wrapped children]
        self._restore: list[tuple[object, object, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """Wrap ``fn`` as span ``name``; ``on_return(span, args, kwargs, result)``
        adds counts after the call, outside the timed interval."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Re-entered under the same name (prepare_bell calls
            # prepare_two_spin): the outer span already covers the call.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                span.calls += 1
                span.self_s += elapsed - frame[1]
            if on_return is not None:
                on_return(span, args, kwargs, result)
            if stack:
                # The whole wrapper, bookkeeping included, is the parent's
                # child time, so tracing cost never lands in a parent's self time.
                stack[-1][1] += time.perf_counter() - start
            return result

        return wrapper

    def patch(self, targets, name: str, on_return=None) -> None:
        """Replace every (namespace, key) in ``targets`` with one wrapper."""
        first_ns, first_key = targets[0]
        original = _get(first_ns, first_key)
        wrapper = self.wrap(name, original, on_return)
        for ns, key in targets:
            if _get(ns, key) is not original:
                raise RuntimeError(f"{name}: {key} is not the same function everywhere")
            self._restore.append((ns, key, original))
            _set(ns, key, wrapper)

    def install(self) -> None:
        from feqc import circuit, cli, corr, fock, gadgets, measurement, parser

        self.patch([(parser, "parse"), (cli, "parse")], "parser.parse", _count_lines)
        self.patch([(circuit, "validate_circuit"), (measurement, "validate_circuit"),
                    (corr, "validate_circuit")], "circuit.validate_circuit")
        self.patch([(circuit, "apply_instruction"), (measurement, "apply_instruction")],
                   "circuit.apply_instruction")
        self.patch([(fock, "apply_single_particle_unitary")], "fock.kernel", _count_kernel)
        for prep in ("prepare_spin", "prepare_two_spin", "prepare_bell"):
            self.patch([(fock, prep)], "fock.prepare")
        for kind in ("charge", "parity", "spin"):
            self.patch([(measurement, f"measure_{kind}"), (measurement._MEASURE_FNS, kind),
                        (gadgets, f"measure_{kind}")], "measurement.measure", _count_measure)
        self.patch([(measurement, "branch_tree")], "measurement.branch_tree", _count_tree)
        self.patch([(measurement, "sample_tree"), (cli, "sample_tree")],
                   "measurement.sample_tree", _count_sample)
        self.patch([(corr, "evolve")], "corr.evolve", _count_evolve)
        self.patch([(corr, "add_electron")], "corr.add_electron")
        self.patch([(corr, "project_occupation")], "corr.project_occupation")
        self.patch([(corr, "single_occupancy_probability")], "corr.joint", _count_joint)
        self.patch([(corr, "charge_branch_tree")], "corr.charge_branch_tree", _count_corr_tree)
        for fn in GADGET_FUNCTIONS:
            self.patch([(gadgets, fn)], f"gadgets.{fn}")
        self.patch([(cli, "main")], "cli.main")
        self.patch([(cli, "_emit")], "cli.emit")

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            _set(ns, key, original)
        self._restore.clear()

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for name, span in self.spans.items():
            calls[name.split(".")[0]] += span.calls
        return calls


def _get(ns, key):
    return ns[key] if isinstance(ns, dict) else getattr(ns, key)


def _set(ns, key, value) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


def _count_lines(span, args, kwargs, result) -> None:
    span.add("lines", len(args[0].splitlines()))


def _count_kernel(span, args, kwargs, result) -> None:
    keys = len(args[0].amplitudes)
    span.add("keys_in", keys)
    span.peak("max_keys", max(keys, len(result.amplitudes)))


def _count_measure(span, args, kwargs, result) -> None:
    span.add("keys_in", len(args[0].amplitudes))
    span.add("branches_out", len(result))


def _count_tree(span, args, kwargs, result) -> None:
    span.add("leaves", count_leaves(result))


def _count_sample(span, args, kwargs, result) -> None:
    root, _seed, shots = args
    span.add("shots", shots)
    span.add("distinct_sampled", len(result.frequencies))
    span.add("leaves", count_leaves(root))


def _count_evolve(span, args, kwargs, result) -> None:
    span.peak("max_dim", args[0].matrix.shape[0])


def _count_joint(span, args, kwargs, result) -> None:
    span.add("terms", 3 ** len(set(args[1])))


def _count_corr_tree(span, args, kwargs, result) -> None:
    span.add("leaves", count_leaves(result[0]))
    span.add("needed_evolves", sum(CORR_EVOLVES_PER_ELEMENT.get(type(ins).__name__, 0)
                                   for ins in args[0].instructions))
