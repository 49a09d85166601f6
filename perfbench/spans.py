"""Span tracing around the public functions of every ``synself`` module.

Every ``synself`` module calls its collaborators through module attributes
(``sp.sample_batch``, ``enc.forward``, ``nc.conv3d_forward``, ...), so
replacing those attributes with timing wrappers records a span at each layer
boundary without editing the program. Spans are kept in memory and written
out when the run ends.

``numcore`` is the leaf layer: a call into ``numcore`` made while a
``numcore`` span is open (``conv3d_backward`` computes ``d_x`` with
``conv3d_forward``) is part of the open span, not a layer boundary of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

MODULES = ("numcore", "encoder", "sampler", "ntxent", "trainer", "analysis", "synthgen", "volume_io")
LEAF_MODULE = "numcore"

# (c_in, c_out) of the default EncoderConfig's convs, in order; the first
# takes the one-channel patch, so its d_x is a gradient nobody uses.
CONV_SHAPES = ((1, 8), (8, 8), (8, 16), (16, 16), (16, 32), (32, 32))
F64_BYTES = 8


# A span is a plain tuple (name, start, end, parent, attrs): parent indexes
# Tracer.spans (-1 for a root span) and attrs is None or a tuple of ints.
# Tuples of atomic values drop out of the cyclic garbage collector, so a
# hundred thousand spans do not slow the allocation-heavy code being traced.
NAME, START, END, PARENT, ATTRS = range(5)
Span = tuple


def duration(span: Span) -> float:
    return span[END] - span[START]


def _conv_attrs(args) -> tuple:
    """(c_in, c_out, k, output voxels) of a conv3d_forward/backward call."""
    x, w = args[0], args[1]
    c_out, c_in, k = w.shape[:3]
    return int(c_in), int(c_out), int(k), int(x[0].size)


def _file_bytes(args, kwargs) -> tuple | None:
    path = kwargs.get("path", args[-1] if args else None)
    return (os.path.getsize(path),) if isinstance(path, (str, os.PathLike)) else None


def _attrs(name: str, args, kwargs, result) -> tuple | None:
    """Counts recorded at the boundary: conv shapes, file bytes, sampler pairs."""
    if name.startswith("numcore.conv3d_"):
        return _conv_attrs(args)
    if name.startswith("volume_io."):
        return _file_bytes(args, kwargs)
    if name == "sampler.eligible_supervoxels":
        return (sum(len(v) for v in result.values()),)
    if name == "sampler.sample_batch":
        return (len(result.supervoxel_ids),)
    return None


class Tracer:
    """Records nested spans of one traced run; install() wraps, uninstall restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[tuple[int, str]] = []  # (index, name) of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        leaf = name.startswith(LEAF_MODULE + ".")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if leaf and open_ and open_[-1][1].startswith(LEAF_MODULE + "."):
                return fn(*args, **kwargs)
            parent = open_[-1][0] if open_ else -1
            idx = len(spans)
            spans.append(None)  # reserved, so that children index after their parent
            open_.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent, None)
            spans[idx] = (name, start, end, parent, _attrs(name, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function of each module, at every module that binds it."""
        mods = [importlib.import_module(f"synself.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("synself.") or home not in MODULES:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{home}.{fn.__name__}", fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, _ in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": self.run_id}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += duration(s)
    return [duration(s) - c for s, c in zip(spans, covered)]


NUMCORE_TIMED = ("conv3d_forward", "conv3d_backward", "maxpool3d_forward", "maxpool3d_backward",
                 "dense_forward", "dense_backward", "relu_forward", "relu_backward")
# glue layers whose own work is what an optimisation of them would move
SELF_TIMED = ("encoder.forward", "encoder.backward", "trainer.train_step", "analysis.embed_with_params")
TIMED = ("encoder.write_container", "encoder.read_container",
         "sampler.sample_batch", "sampler.eligible_supervoxels", "sampler.extract_patch", "sampler.augment",
         "ntxent.loss", "trainer.save_train_state", "trainer.write_metrics",
         "analysis.concordance", "analysis.kmeans", "analysis.pca_project", "analysis.nmi", "analysis.ari",
         "analysis.emit_scatter", "synthgen.generate",
         "volume_io.write_volume", "volume_io.read_volume", "volume_io.read_synapse_table")


def _per_layer():
    out = []

    def add(name, unit, better="lower", computed=False):
        out.append((name, unit, better, computed))

    for fn in NUMCORE_TIMED:
        add(f"numcore.{fn}.s", "s")
    for fn in ("conv3d_forward", "conv3d_backward"):
        add(f"numcore.{fn}.calls", "count")
        for cin, cout in CONV_SHAPES:
            add(f"numcore.{fn}.c{cin}-{cout}.s", "s")
            add(f"numcore.{fn}.c{cin}-{cout}.calls", "count")
    add("numcore.conv3d.flops", "flop", computed=True)
    add("numcore.conv3d.im2col_bytes", "B", computed=True)
    add("numcore.conv3d.flops_per_byte", "flop/B", "higher", computed=True)
    add("numcore.conv3d_backward.useful_frac", "1", "higher", computed=True)
    for cin, cout in CONV_SHAPES:
        add(f"numcore.conv3d.c{cin}-{cout}.flops", "flop", computed=True)
        add(f"numcore.conv3d.c{cin}-{cout}.im2col_bytes", "B", computed=True)
        add(f"numcore.conv3d.c{cin}-{cout}.unused_dx_flops", "flop", computed=True)
    for name in SELF_TIMED:
        add(f"{name}.s", "s")
        add(f"{name}.self_s", "s")
    for name in TIMED:
        add(f"{name}.s", "s")
    add("sampler.step_share", "1")
    add("sampler.pairs_materialized", "pairs/step", computed=True)
    add("sampler.pairs_used", "pairs/step", "higher", computed=True)
    add("sampler.pairs_used_frac", "1", "higher", computed=True)
    add("volume_io.bytes", "B", computed=True)
    add("trace.spans", "count")
    add("trace.overhead_s", "s")
    add("trace.overhead_frac", "1")
    return tuple(out)


# (name, unit, better, computed): computed entries are counts derived from
# operand shapes and sampler results, not measured times.
PER_LAYER = _per_layer()


def _conv_counts(spans: list[Span]):
    """FLOPs, im2col bytes and unused d_x FLOPs per conv shape, for the im2col algorithm.

    Forward builds one (DHW x Cin*k^3) patch matrix; backward builds one for
    d_w and one (DHW x Cout*k^3) inside the flipped-kernel conv that gives d_x.
    """
    flops, col, unused = {}, {}, {}
    backward_flops = 0
    for name, _, _, _, attrs in spans:
        if not name.startswith("numcore.conv3d_") or attrs is None:
            continue
        cin, cout, k, v = attrs
        k3 = k ** 3
        key = f"c{cin}-{cout}"
        macs = v * cin * cout * k3
        if name == "numcore.conv3d_forward":
            flops[key] = flops.get(key, 0) + 2 * macs
            col[key] = col.get(key, 0) + F64_BYTES * v * cin * k3
        else:
            flops[key] = flops.get(key, 0) + 4 * macs
            col[key] = col.get(key, 0) + F64_BYTES * v * k3 * (cin + cout)
            backward_flops += 4 * macs
            if cin == 1:
                unused[key] = unused.get(key, 0) + 2 * macs
    return flops, col, unused, backward_flops


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric except the tracing overhead, from one run's spans."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, attrs), self_s in zip(spans, selfs):
        keys = [name]
        if name.startswith("numcore.conv3d_") and attrs is not None:
            keys.append(f"{name}.c{attrs[0]}-{attrs[1]}")
        for key in keys:
            total[key] = total.get(key, 0.0) + (end - start)
            calls[key] = calls.get(key, 0) + 1
        own[name] = own.get(name, 0.0) + self_s

    m: dict[str, float] = {}
    for fn in NUMCORE_TIMED:
        m[f"numcore.{fn}.s"] = total.get(f"numcore.{fn}", 0.0)
    for fn in ("conv3d_forward", "conv3d_backward"):
        m[f"numcore.{fn}.calls"] = calls.get(f"numcore.{fn}", 0)
        for cin, cout in CONV_SHAPES:
            key = f"numcore.{fn}.c{cin}-{cout}"
            m[f"{key}.s"] = total.get(key, 0.0)
            m[f"{key}.calls"] = calls.get(key, 0)

    flops, col, unused, backward_flops = _conv_counts(spans)
    m["numcore.conv3d.flops"] = sum(flops.values())
    m["numcore.conv3d.im2col_bytes"] = sum(col.values())
    m["numcore.conv3d.flops_per_byte"] = (
        m["numcore.conv3d.flops"] / m["numcore.conv3d.im2col_bytes"] if col else 0.0)
    m["numcore.conv3d_backward.useful_frac"] = (
        1.0 - sum(unused.values()) / backward_flops if backward_flops else 0.0)
    for cin, cout in CONV_SHAPES:
        key = f"c{cin}-{cout}"
        m[f"numcore.conv3d.{key}.flops"] = flops.get(key, 0)
        m[f"numcore.conv3d.{key}.im2col_bytes"] = col.get(key, 0)
        m[f"numcore.conv3d.{key}.unused_dx_flops"] = unused.get(key, 0)

    for name in SELF_TIMED:
        m[f"{name}.s"] = total.get(name, 0.0)
        m[f"{name}.self_s"] = own.get(name, 0.0)
    for name in TIMED:
        m[f"{name}.s"] = total.get(name, 0.0)

    steps = {i for i, s in enumerate(spans) if s[NAME] == "trainer.train_step"}
    step_s = sum(duration(spans[i]) for i in steps)
    waiting = sum(duration(s) for s in spans if s[NAME] == "sampler.sample_batch" and s[PARENT] in steps)
    m["sampler.step_share"] = waiting / step_s if step_s else 0.0
    built = [s[ATTRS][0] for s in spans if s[NAME] == "sampler.eligible_supervoxels" and s[ATTRS]]
    used = [s[ATTRS][0] for s in spans if s[NAME] == "sampler.sample_batch" and s[ATTRS]]
    m["sampler.pairs_materialized"] = sum(built) / len(built) if built else 0.0
    m["sampler.pairs_used"] = sum(used) / len(used) if used else 0.0
    m["sampler.pairs_used_frac"] = (
        m["sampler.pairs_used"] / m["sampler.pairs_materialized"] if built else 0.0)
    m["volume_io.bytes"] = sum(s[ATTRS][0] for s in spans if s[NAME].startswith("volume_io.") and s[ATTRS])
    m["trace.spans"] = len(spans)
    return m
