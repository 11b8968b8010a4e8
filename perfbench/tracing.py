"""Span recorder for the traced run, wrapped around gsmat's public functions.

Wrapping rebinds each function in every gsmat namespace that holds it (the
package re-exports, and modules such as ``ortho`` hold their own binding of
``cayley_vjp``), and methods on their class. ``restore`` puts every original
binding back. Spans are kept in memory as (name, start, end, parent, op id)
and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

import numpy as np

# Metric name, gsmat module, attribute (``Class.method`` for methods).
FUNCTIONS = (
    ("perm.apply", "perm", "Permutation.apply"),
    ("perm.apply_inverse", "perm", "Permutation.apply_inverse"),
    ("blockdiag.apply", "blockdiag", "BlockDiagonal.apply"),
    ("blockdiag.apply_t", "blockdiag", "BlockDiagonal.apply_t"),
    ("blockdiag.as_dense", "blockdiag", "BlockDiagonal.as_dense"),
    ("blockdiag.cayley", "blockdiag", "cayley"),
    ("blockdiag.cayley_blockdiag", "blockdiag", "cayley_blockdiag"),
    ("blockdiag.cayley_vjp", "blockdiag", "cayley_vjp"),
    ("gs.apply", "gs", "GSMatrix.apply"),
    ("gs.apply_t", "gs", "GSMatrix.apply_t"),
    ("gs.as_dense", "gs", "GSMatrix.as_dense"),
    ("gs.project", "gs", "project"),
    ("gs.svd_small", "gs", "svd_small"),
    ("chain.apply", "chain", "GSChain.apply"),
    ("ortho.materialize", "ortho", "materialize"),
    ("ortho.materialize_vjp", "ortho", "materialize_vjp"),
    ("gsoft.forward", "gsoft", "GSOFTAdapter.forward"),
    ("gsoft.backward", "gsoft", "GSOFTAdapter.backward"),
    ("gsoft.double_forward", "gsoft", "DoubleGSOFTAdapter.forward"),
    ("gsoft.double_backward", "gsoft", "DoubleGSOFTAdapter.backward"),
    ("gsconv.grouped_conv", "gsconv", "grouped_conv"),
    ("gsconv.conv_exponential", "gsconv", "conv_exponential"),
    ("gsconv.gs_conv_forward", "gsconv", "gs_conv_forward"),
    ("gsconv.maxmin_permuted", "gsconv", "maxmin_permuted"),
    ("container.save", "container", "save_container"),
    ("container.load", "container", "load_container"),
)
LAYERS = ("perm", "blockdiag", "gs", "chain", "ortho", "gsoft", "gsconv", "container")
OP = "op"  # name of the root span around each benchmark operation

# Counts computed from arguments, labelled "computed" in the metric list:
# multiply-adds from block shapes x batch width, bytes from array sizes, and
# container bytes from file sizes.
COUNTS = (
    "blockdiag.apply.macs",
    "perm.bytes",
    "gsconv.grouped_conv.macs",
    "container.bytes_written",
    "container.bytes_read",
)


def _width(x) -> int:
    return int(np.prod(np.shape(x)[1:], dtype=np.int64))


def _count(rec, name, args, out):
    c = rec.counts
    if name == "blockdiag.apply":
        c["blockdiag.apply.macs"] += sum(b.shape[0] * b.shape[1] for b in args[0].blocks) * _width(args[1])
    elif name in ("perm.apply", "perm.apply_inverse"):
        c["perm.bytes"] += np.asarray(args[1]).nbytes + np.asarray(out).nbytes + args[0].sigma.nbytes
    elif name == "gsconv.grouped_conv":
        k, x = args[0], np.asarray(args[1])
        kh, kw = k.ksize
        c["gsconv.grouped_conv.macs"] += k.c_out * (k.c_in // k.groups) * kh * kw * x.shape[1] * x.shape[2]
    elif name == "container.save":
        c["container.bytes_written"] += os.path.getsize(args[1])
    elif name == "container.load":
        c["container.bytes_read"] += os.path.getsize(args[0])


class SpanRecorder:
    """Records nested spans while active; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op_id = -1
        self.op_kinds: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._restore: list = []

    def span(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        try:
            _count(self, name, args, out)
        except (IndexError, AttributeError):
            pass  # a call shape the counters do not know: no computed count
        return out

    def op(self, kind, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self.span(OP, fn, *args)

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def wrap(self):
        """Rebind every traced function and method; a missing one is skipped."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "gsmat" or n.startswith("gsmat.")]
        for name, module, attr in FUNCTIONS:
            mod = sys.modules.get(f"gsmat.{module}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = inspect.getattr_static(cls, meth, None) if cls is not None else None
                if not inspect.isfunction(orig):
                    continue
                # An inherited method is shadowed on cls and deleted again on restore.
                self._restore.append((cls, meth, orig if meth in vars(cls) else None))
                setattr(cls, meth, self._wrapper(name, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrapper(name, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def restore(self):
        for obj, key, orig in reversed(self._restore):
            if orig is None:
                delattr(obj, key)
            else:
                setattr(obj, key, orig)
        self._restore.clear()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def calls_by_kind(self) -> dict:
        """Mean calls of each traced function in one op of each kind."""
        ops_of = {}
        for kind in self.op_kinds:
            ops_of[kind] = ops_of.get(kind, 0) + 1
        tally = {}
        for s in self.spans:
            if s[0] != OP:
                key = (self.op_kinds[s[4]], s[0])
                tally[key] = tally.get(key, 0) + 1
        out = {kind: {} for kind in ops_of}
        for (kind, name), n in sorted(tally.items()):
            out[kind][name] = n / ops_of[kind]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics, each normalized per op, as {name: (value, unit)}."""
        n_ops = max(len(self.op_kinds), 1)
        own = self.self_times()
        calls = dict.fromkeys((f[0] for f in FUNCTIONS), 0)
        self_s = dict.fromkeys((f[0] for f in FUNCTIONS), 0.0)
        op_s = 0.0
        for s, t in zip(self.spans, own):
            if s[0] == OP:
                op_s += s[2] - s[1]
            else:
                calls[s[0]] += 1
                self_s[s[0]] += t
        out = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
            out[f"{name}.self_ms"] = (float(1e3 * self_s[name] / n_ops), "ms")
        for layer in LAYERS:
            t = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = (float(1e3 * t / n_ops), "ms")
            out[f"{layer}.share"] = (float(t / op_s) if op_s else 0.0, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name] / n_ops, "B" if "bytes" in name else "count")
        for fn, macs in (("blockdiag.apply", "blockdiag.apply.macs"), ("gsconv.grouped_conv", "gsconv.grouped_conv.macs")):
            t = self_s[fn]
            out[f"{fn}.gflops"] = (float(2e-9 * self.counts[macs] / t) if t else 0.0, "GFLOP/s")
        return out

    def missing_layers(self, layers) -> list:
        seen = {s[0].split(".")[0] for s in self.spans if s[0] != OP}
        return [layer for layer in layers if layer not in seen]

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[index[s[0]], round(s[1], 9), round(s[2], 9), s[3], s[4]] for s in self.spans],
            "op_kinds": self.op_kinds,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
