"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds each public function of the traced ``qcheat``
layers at every ``qcheat`` module attribute that refers to it (the modules
import each other's names with ``from .x import``), patches the two class
attributes ``Projector.expectation`` and ``DensityMatrix.__post_init__``,
routes ``protocol``'s ``yaml.safe_load`` through a proxy, and wraps
``numpy.linalg.eigh``/``eigvalsh``/``svd``.  ``Tracer.uninstall`` restores
everything.

A span is (function, start, end, parent span, op id), kept in flat arrays
until the run ends.  Spans are only recorded while an op span is open, so
the harness's own numpy calls never show up.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

OP_LAYER = "op"

# layer -> (module, public functions)
FUNCTIONS = {
    "cli": ("qcheat.cli", ("main", "build_parser", "emit_report")),
    "protocol": ("qcheat.protocol", ("resolve_document", "parse_protocol",
                                     "purify_protocol", "run_commit", "run_open",
                                     "commit_delta")),
    "attack": ("qcheat.attack", ("epr_attack", "attack_sweep")),
    "schmidt": ("qcheat.schmidt", ("uhlmann_unitary",)),
    "fidelity": ("qcheat.fidelity", ("fidelity_trace", "fidelity_purification",
                                     "fidelity_povm", "povm_overlap", "random_povm")),
    "qcore": ("qcheat.qcore", ("apply_gate", "apply_unitary", "partial_trace",
                               "matrix_sqrt_psd", "mutual_information")),
    "cointoss": ("qcheat.cointoss", ("parse_coin_protocol", "run_rounds",
                                     "last_round_fidelities", "truncate_last_round",
                                     "outcome_distribution", "induction_report")),
}
# layer -> (module, class, attribute, reported name)
METHODS = (
    ("protocol", "qcheat.protocol", "Projector", "expectation", "Projector.expectation"),
    ("qcore", "qcheat.qcore", "DensityMatrix", "__post_init__", "DensityMatrix"),
)
LINALG = ("eigh", "eigvalsh", "svd")
LAYERS = ("cli", "yaml", "protocol", "attack", "schmidt", "fidelity", "qcore",
          "cointoss", "linalg")


def _dim3(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    m, n = np.shape(a)[-2:]
    return m * n * min(m, n)


# "<layer>.<function>" -> (counter suffix, f(args, kwargs, result) -> int)
COMPUTED = {
    "qcore.apply_gate": ("amps", lambda args, kwargs, result: result.amplitudes.size),
    "qcore.partial_trace": ("out_bytes",
                            lambda args, kwargs, result: result.dim * result.dim * 16),
    "linalg.eigh": ("dim3", _dim3),
    "linalg.eigvalsh": ("dim3", _dim3),
    "linalg.svd": ("dim3", _dim3),
}


def function_names() -> list:
    """Every traced "<layer>.<function>", in report order."""
    names = []
    for layer in LAYERS:
        if layer == "yaml":
            names.append("yaml.safe_load")
        elif layer == "linalg":
            names.extend(f"linalg.{fn}" for fn in LINALG)
        else:
            names.extend(f"{layer}.{fn}" for fn in FUNCTIONS[layer][1])
        names.extend(f"{layer}.{name}" for lay, _, _, _, name in METHODS if lay == layer)
    return names


class _YamlProxy(types.ModuleType):
    """Stands in for the ``yaml`` module inside ``qcheat.protocol``."""

    def __init__(self, real, safe_load):
        super().__init__(real.__name__)
        self._real = real
        self.safe_load = safe_load

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Wraps the traced functions and keeps their spans, counters and errors."""

    def __init__(self):
        self.names = [OP_LAYER]          # function id -> "<layer>.<function>"
        self.layers = [OP_LAYER]         # function id -> layer
        self.start = array("d")
        self.end = array("d")
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.counters = defaultdict(int)  # "<name>.<suffix>" -> total
        self.errors = defaultdict(int)    # layer -> exceptions leaving it
        self._installed = None

    # -- span bookkeeping -------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.layers.append(name.split(".", 1)[0])
        return len(self.names) - 1

    def open(self, fid: int, t: float) -> int:
        idx = len(self.start)
        self.start.append(t)
        self.end.append(t)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t: float):
        self.end[idx] = t
        self.stack.pop()

    def open_op(self, op_id: int, t: float) -> int:
        self.op_id = op_id
        return self.open(0, t)

    def close_op(self, idx: int, t: float):
        self.close(idx, t)
        self.op_id = -1

    def _wrap(self, name: str, fn):
        fid = self._register(name)
        layer = self.layers[fid]
        computed = COMPUTED.get(name)
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = self.open(fid, clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, clock())
                parent = self.parent[idx]
                if parent < 0 or self.layers[self.fid[parent]] != layer:
                    self.errors[layer] += 1
                raise
            self.close(idx, clock())
            if computed is not None:
                self.counters[f"{name}.{computed[0]}"] += computed[1](args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patches(self) -> list:
        """(owner, attribute, original, wrapper) for everything traced."""
        homes = {layer: importlib.import_module(modname)
                 for layer, (modname, _) in FUNCTIONS.items()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qcheat" or key.startswith("qcheat.")]
        patches = []
        for layer, (_, fns) in FUNCTIONS.items():
            home = homes[layer]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original, wrapped))
        for layer, modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = getattr(cls, attr)
            patches.append((cls, attr, original, self._wrap(f"{layer}.{name}", original)))
        protocol = sys.modules["qcheat.protocol"]
        real_yaml = protocol.yaml
        proxy = _YamlProxy(real_yaml, self._wrap("yaml.safe_load", real_yaml.safe_load))
        patches.append((protocol, "yaml", real_yaml, proxy))
        for fn_name in LINALG:
            original = getattr(np.linalg, fn_name)
            patches.append((np.linalg, fn_name, original,
                             self._wrap(f"linalg.{fn_name}", original)))
        return patches

    def install(self):
        """Put the wrappers in place; built on the first call, reused after."""
        if self._installed is None:
            self._installed = self._patches()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._installed or ()):
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> list:
        """Self time of each span in [first, last): duration minus its children's."""
        last = len(self.start) if last is None else last
        own = [self.end[i] - self.start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= self.end[i] - self.start[i]
        return own

    def take_pass(self, first: int) -> dict:
        """Counts and self times of spans recorded since span ``first``.

        Resets the computed counters and error counts for the next pass.
        """
        counts = {f"{name}.calls": 0 for name in function_names()}
        self_s = defaultdict(float)
        for i, own in zip(range(first, len(self.start)), self.self_times(first)):
            name = self.names[self.fid[i]]
            if name != OP_LAYER:
                counts[f"{name}.calls"] += 1
            self_s[name] += own
        for name, (suffix, _) in COMPUTED.items():
            counts[f"{name}.{suffix}"] = self.counters.get(f"{name}.{suffix}", 0)
        for layer in LAYERS:
            counts[f"{layer}.errors"] = self.errors.get(layer, 0)
        self.counters.clear()
        self.errors.clear()
        return {"counts": counts, "self_s": dict(self_s)}

    def calls_by_kind(self, kinds: dict) -> dict:
        """Calls per op of each kind, per function (``kinds``: op id -> kind)."""
        ops = defaultdict(int)
        for kind in kinds.values():
            ops[kind] += 1
        per = defaultdict(lambda: defaultdict(int))
        for i in range(len(self.start)):
            per[self.names[self.fid[i]]][kinds[self.op[i]]] += 1
        return {name: {kind: per[name][kind] / ops[kind] for kind in sorted(ops)}
                for name in function_names()}

    def dump(self, path: str):
        """Write every span as columns: names, start, end, function, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names, "start": list(self.start),
                       "end": list(self.end), "function": list(self.fid),
                       "parent": list(self.parent), "op": list(self.op)}, fh)


def layer_metrics(passes: list) -> dict:
    """Per-layer metrics of one traced run from its per-pass snapshots.

    Counts must repeat exactly from pass to pass; a self time is the median
    over passes.
    """
    counts = passes[0]["counts"]
    if any(p["counts"] != counts for p in passes[1:]):
        raise RuntimeError("traced counts differ between identical passes")
    metrics = dict(counts)
    for name in [OP_LAYER] + function_names():
        metrics[f"{name}.self_s"] = statistics.median(
            p["self_s"].get(name, 0.0) for p in passes)
    return metrics
