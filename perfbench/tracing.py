"""Layer spans recorded from outside the program.

The tracer replaces public clbf functions where their callers look them up
(a module attribute such as ``clbf.adversary.value_and_input_grad``, or a
class attribute such as ``clbf.nets.Adam.step``) with wrappers that record
one span per call: layer name, start, end, parent span, operation index and
the number of input rows. Spans stay in memory; aggregates and the span dump
are produced once, when the run ends. A binding that does not exist at some
commit is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# layer -> (binding sites, index of the positional argument whose leading
# dimension counts rows, or None). Every module a layer is called through is
# listed, so internal calls (value_and_input_grad -> backward) and calls from
# each caller module are all seen.
LAYERS = {
    "nets.ibp_bounds": (["clbf.verifier:ibp_bounds",
                         "clbf.certificate:ibp_bounds"], 1),
    "nets.value_and_input_grad": (["clbf.adversary:value_and_input_grad"], 1),
    "nets.backward": (["clbf.nets:backward", "clbf.verifier:backward",
                       "clbf.losses:backward"], 2),
    "nets.forward_tape": (["clbf.nets:forward_tape", "clbf.verifier:forward_tape",
                           "clbf.losses:forward_tape"], 1),
    "nets.forward_batch": (["clbf.nets:forward_batch",
                            "clbf.verifier:forward_batch"], 1),
    "nets.input_jacobian": (["clbf.verifier:input_jacobian",
                             "clbf.losses:input_jacobian"], 1),
    "nets.Adam.step": (["clbf.nets:Adam.step"], None),
    "adversary.pgd_maximize_batch": (["clbf.verifier:pgd_maximize_batch",
                                      "clbf.losses:pgd_maximize_batch"], 1),
    "certificate.value": (["clbf.certificate:FilteredCertificate.value"], 1),
    "losses.total_loss_grads": (["clbf.losses:total_loss_grads"], None),
    "envs.sample_states": (["clbf.envs:EnvSpec.sample_states"], None),
    "envs.sample_init": (["clbf.envs:EnvSpec.sample_init"], None),
}

# per-layer metrics taken from the spans: (layer, field, unit)
SPAN_METRICS = [
    ("nets.ibp_bounds", "calls", "count"),
    ("nets.ibp_bounds", "rows", "count"),
    ("nets.ibp_bounds", "self_s", "s"),
    ("nets.value_and_input_grad", "calls", "count"),
    ("nets.value_and_input_grad", "rows", "count"),
    ("nets.value_and_input_grad", "self_s", "s"),
    ("nets.backward", "calls", "count"),
    ("nets.backward", "rows", "count"),
    ("nets.backward", "self_s", "s"),
    ("nets.forward_tape", "self_s", "s"),
    ("nets.forward_batch", "self_s", "s"),
    ("nets.input_jacobian", "self_s", "s"),
    ("nets.Adam.step", "self_s", "s"),
    ("adversary.pgd_maximize_batch", "calls", "count"),
    ("adversary.pgd_maximize_batch", "rows", "count"),
    ("adversary.pgd_maximize_batch", "self_s", "s"),
    ("adversary.pgd_maximize_batch", "total_s", "s"),
    ("certificate.value", "calls", "count"),
    ("certificate.value", "self_s", "s"),
    ("losses.total_loss_grads", "self_s", "s"),
    ("envs.sample_states", "self_s", "s"),
    ("envs.sample_init", "self_s", "s"),
]

OP = "op"  # root span of one timed operation


def _resolve(site: str):
    """(owner, attribute name, bound object) of a 'module:Attr[.attr]' site."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def _rows(args, index):
    if index is None or len(args) <= index:
        return 0
    shape = getattr(args[index], "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Span recorder for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._name_ids = {OP: 0}
        # span: [name_id, parent, op, rows, start, end]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    def install(self):
        self.missing = []
        for layer, (sites, row_arg) in LAYERS.items():
            found = False
            for site in sites:
                try:
                    owner, attr, original = _resolve(site)
                except (ImportError, AttributeError, KeyError):
                    continue
                setattr(owner, attr, self._wrap(layer, original, row_arg))
                self._patched.append((owner, attr, original))
                found = True
            if not found:
                self.missing.append(layer)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, layer, fn, row_arg):
        name_id = self._name_id(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a timed operation
                return fn(*args, **kwargs)
            return tracer._call(name_id, _rows(args, row_arg), fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _call(self, name_id, rows, fn, args, kwargs):
        span = [name_id, self._stack[-1], self._op, rows, time.perf_counter(), 0.0]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[5] = time.perf_counter()

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced operation; returns (result, seconds)."""
        self._op += 1
        span = [0, -1, self._op, 0, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args)
        finally:
            self._stack.pop()
            span[5] = time.perf_counter()
        return result, span[5] - span[4]

    def per_op(self) -> list[dict]:
        """Per operation: layer -> {calls, rows, self_s, total_s}.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name_id, parent, op, rows, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = [dict() for _ in range(self._op + 1)]
        for i, (name_id, parent, op, rows, start, end) in enumerate(self.spans):
            agg = ops[op].setdefault(self.names[name_id],
                                     {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["rows"] += rows
            agg["self_s"] += end - start - child[i]
            agg["total_s"] += end - start
        return ops

    def layer_metrics(self) -> dict:
        """Median over operations of every SPAN_METRICS entry."""
        ops = self.per_op()
        out = {}
        for layer, field, unit in SPAN_METRICS:
            values = [op.get(layer, {}).get(field, 0) for op in ops]
            out[f"{layer}.{field}"] = (statistics.median(values), unit)
        return out

    def dump(self, path: Path):
        """Write every span once, as integer nanoseconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        rows = [[n, p, o, r, round((s - t0) * 1e9), round((e - t0) * 1e9)]
                for n, p, o, r, s, e in self.spans]
        path.write_text(json.dumps({
            "names": self.names, "missing": self.missing,
            "fields": ["name", "parent", "op", "rows", "start_ns", "end_ns"],
            "spans": rows}, separators=(",", ":")))
