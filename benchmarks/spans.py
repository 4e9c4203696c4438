"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces, in every loaded ``dodnet`` module that holds
them, the differentiable ops of ``dodnet.ops`` and ``dodnet.tensor``, the
backward closure each op leaves on the active ``Tape``, the model blocks and
the ``training``, ``data``, ``losses`` and ``optim`` entry points with
wrappers that record a span (name, start, end, parent).  ``uninstall``
puts every original back.  Spans stay in memory until ``write``.

Conv, linear and per-sample pointwise spans carry their multiply-accumulate
count and im2col bytes, computed here from the argument shapes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from dodnet import data, losses, model, ops, optim, tensor, training

# Ops with a metric of their own; every other op is pooled as ``ops.other``.
NAMED_OPS = (
    "ops.group_norm",
    "ops.weight_standardize",
    "ops.upsample_trilinear",
    "ops.batched_pointwise_conv3d",
    "ops.linear",
)
CONV_CLASSES = ("ops.conv3d_k3s1", "ops.conv3d_k3s2", "ops.conv3d_k1")
OP_CLASSES = CONV_CLASSES + NAMED_OPS + ("ops.other",)

# Public functions of dodnet.ops that take and return plain arrays or
# shapes, not Tensors: they leave nothing on the tape and are not ops.
_ARRAY_HELPERS = {"conv3d_output_shape", "sigmoid_array"}
_TENSOR_OPS = ("add", "sub", "sub_from", "mul", "div", "tsum", "tmean", "reshape", "getitem")
_MODEL_PASSES = ("model.forward", "model.segment_all_tasks")
_MAC_SPANS = CONV_CLASSES + ("ops.linear", "ops.batched_pointwise_conv3d")


def _triple(v):
    return (int(v),) * 3 if np.isscalar(v) else tuple(int(a) for a in v)


def _conv_meta(x, weight, bias=None, stride=1, padding=0):
    """Span name, MACs and im2col bytes of one ``ops.conv3d`` call."""
    n, cin = x.shape[:2]
    cout, _, kd, kh, kw = weight.shape
    stride, padding = _triple(stride), _triple(padding)
    out_voxels = 1
    for extent, k, s, p in zip(x.shape[2:], (kd, kh, kw), stride, padding):
        out_voxels *= (extent + 2 * p - k) // s + 1
    taps = kd * kh * kw
    if taps == 1:
        name = "ops.conv3d_k1"
    else:
        name = f"ops.conv3d_k{kd}s{stride[0]}"
    pointwise = taps == 1 and stride == (1, 1, 1) and padding == (0, 0, 0)
    itemsize = np.result_type(x.dtype, weight.dtype).itemsize
    cols = 0 if pointwise else n * cin * taps * out_voxels * itemsize
    return name, {"macs": n * out_voxels * cout * cin * taps, "cols_bytes": cols}


def _linear_meta(x, weight, bias):
    return "ops.linear", {"macs": x.shape[0] * weight.shape[0] * weight.shape[1]}


def _pointwise_meta(x, weight, bias):
    n, cout, cin = weight.shape
    voxels = int(np.prod(x.shape[2:]))
    return "ops.batched_pointwise_conv3d", {"macs": n * voxels * cout * cin}


class Tracer:
    """Spans in parallel lists; index order is start order, so a parent
    always precedes its children."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.metas: List[Optional[dict]] = []
        self._stack: List[int] = []
        self._ops: List[str] = []
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, meta: Optional[dict] = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.metas.append(meta)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path, **header) -> None:
        spans = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, name, meta_of=None, is_op=False, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, meta = meta_of(*args, **kwargs) if meta_of else (name, None)
            i = tracer.open(span, meta)
            if is_op:
                tracer._ops.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                if is_op:
                    tracer._ops.pop()
                tracer.close(i)
            if after is not None:
                tracer.metas[i] = after(out, *args, **kwargs)
            return out

        return traced

    def _patch_function(self, module, attr, name, **kw) -> None:
        """Replace ``module.attr`` in every dodnet module that imported it."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dodnet" or mod_name.startswith("dodnet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, name, **kw) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, **kw))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for attr, fn in list(vars(ops).items()):
            if (
                callable(fn)
                and not attr.startswith("_")
                and getattr(fn, "__module__", None) == ops.__name__
                and attr not in _ARRAY_HELPERS
            ):
                meta_of = {
                    "conv3d": _conv_meta,
                    "linear": _linear_meta,
                    "batched_pointwise_conv3d": _pointwise_meta,
                }.get(attr)
                self._patch_function(ops, attr, f"ops.{attr}", meta_of=meta_of, is_op=True)
        for attr in _TENSOR_OPS:
            self._patch_function(tensor, attr, f"tensor.{attr}", is_op=True)
        self._patch_function(tensor, "backward", "tensor.backward")
        self._patch_tape_record()

        self._patch_method(model.Encoder, "__call__", "model.encoder")
        self._patch_method(model.Decoder, "__call__", "model.decoder")
        self._patch_method(model.DodNet, "generate_kernels", "model.controller")
        self._patch_function(model, "dynamic_head", "model.head")
        for cls in (model.DodNet, model.MultiHeadNet, model.CondInputNet):
            for attr, span in (
                ("forward", "model.forward"),
                ("__call__", "model.forward"),
                ("segment_all_tasks", "model.segment_all_tasks"),
            ):
                self._patch_method(
                    cls, attr, span, meta_of=lambda net, *a, _s=span, **k: (_s, {"arch": net.arch})
                )

        self._patch_function(losses, "masked_task_loss", "losses.masked_task_loss")
        self._patch_method(optim.SGDMomentum, "step", "optim.step")
        self._patch_function(data, "sample_patch", "data.sample_patch")
        self._patch_function(data, "build_dataset", "data.build_dataset")
        self._patch_function(data, "save_dataset", "data.save_dataset")
        self._patch_function(data, "load_dataset", "data.load_dataset")
        self._patch_function(
            data,
            "read_volume",
            "data.read_volume",
            after=lambda vol, *a, **k: {
                "bytes": vol.image.nbytes + (0 if vol.labels is None else vol.labels.nbytes)
            },
        )
        self._patch_function(training, "train", "training.train")
        self._patch_function(training, "sliding_window_predict", "training.sliding_window_predict")
        self._patch_function(
            training,
            "save_checkpoint",
            "training.save_checkpoint",
            after=lambda out, path, *a, **k: {"bytes": os.path.getsize(path)},
        )
        self._patch_function(training, "load_checkpoint", "training.load_checkpoint")

    def _patch_tape_record(self) -> None:
        tracer = self
        original = tensor.Tape.__dict__["record"]

        def record(tape, backward_fn):
            name = (tracer._ops[-1] if tracer._ops else "ops.other") + ".bwd"

            def traced_backward():
                i = tracer.open(name)
                try:
                    backward_fn()
                finally:
                    tracer.close(i)

            original(tape, traced_backward)

        tensor.Tape.record = record
        self._undo.append((tensor.Tape, "record", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def op_class(name: str) -> str:
    """Metric family of an op span name (``.bwd`` stripped)."""
    if name in CONV_CLASSES or name in NAMED_OPS:
        return name
    return "ops.other"


def _is_forward_op(name: str) -> bool:
    return (name.startswith("ops.") or name.startswith("tensor.")) and name != "tensor.backward"


class Analysis:
    """Durations, self times and model-pass ancestry of every span.

    A span's self time is its duration minus the durations of its children.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer)
        self.dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if tracer.parents[i] >= 0:
                child[tracer.parents[i]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        # Index of the outermost model pass each span runs under, or -1.
        self.top_pass = [-1] * n
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0 and self.top_pass[p] >= 0:
                self.top_pass[i] = self.top_pass[p]
            elif tracer.names[i] in _MODEL_PASSES:
                self.top_pass[i] = i

    def indices(self, span_range: range, *names: str) -> List[int]:
        return [i for i in span_range if self.t.names[i] in names]

    def total(self, span_range: range, name: str) -> float:
        return sum(self.dur[i] for i in self.indices(span_range, name))

    def mean(self, span_range: range, name: str) -> float:
        idx = self.indices(span_range, name)
        return sum(self.dur[i] for i in idx) / len(idx) if idx else 0.0

    def model_passes(self, span_range: range) -> List[int]:
        return [i for i in self.indices(span_range, *_MODEL_PASSES) if self.top_pass[i] == i]

    def macs_per_pass(self, span_range: range) -> List[tuple]:
        """(architecture, MACs summed from call shapes) for each top-level model pass."""
        sums: Dict[int, int] = {i: 0 for i in self.model_passes(span_range)}
        for i in self.indices(span_range, *_MAC_SPANS):
            if self.top_pass[i] in sums:
                sums[self.top_pass[i]] += self.t.metas[i]["macs"]
        return [(self.t.metas[i]["arch"], macs) for i, macs in sums.items()]


def layer_metrics(tracer: Tracer, setup: range, measured: range, n_ops: int) -> Dict[str, float]:
    """Per-layer figures of one traced run.

    ``measured`` holds the spans of ``n_ops`` workload operations; set-up
    figures (dataset build and reads, checkpoint loads) come from ``setup``.
    Totals are seconds per workload operation; ``model.*``, checkpoint, read
    and window times are seconds per call.
    """
    a = Analysis(tracer)
    t = tracer
    per_op = 1.0 / n_ops
    m: Dict[str, float] = {}

    m["tensor.backward_s"] = a.total(measured, "tensor.backward") * per_op
    fam = {c: {"fwd": 0.0, "bwd": 0.0, "incl": 0.0, "macs": 0, "cols": 0, "calls": 0, "records": 0}
           for c in OP_CLASSES}
    for i in measured:
        name = t.names[i]
        if name.endswith(".bwd"):
            f = fam[op_class(name[:-4])]
            f["bwd"] += a.self_time[i]
            f["records"] += 1
        elif _is_forward_op(name):
            f = fam[op_class(name)]
            f["fwd"] += a.self_time[i]
            f["incl"] += a.dur[i]
            f["calls"] += 1
            if t.metas[i]:
                f["macs"] += t.metas[i]["macs"]
                f["cols"] += t.metas[i].get("cols_bytes", 0)
    # Every tape record runs once in backward, as one ``.bwd`` span.
    m["tensor.tape_records"] = sum(f["records"] for f in fam.values()) * per_op
    n_passes = max(len(a.model_passes(measured)), 1)
    for cls, f in fam.items():
        m[f"{cls}.fwd_s"] = f["fwd"] * per_op
        m[f"{cls}.bwd_s"] = f["bwd"] * per_op
    for cls in CONV_CLASSES:
        f = fam[cls]
        m[f"{cls}.gmac_per_s"] = f["macs"] / f["incl"] / 1e9 if f["incl"] else 0.0
    for cls in ("ops.conv3d_k3s1", "ops.conv3d_k3s2"):
        m[f"{cls}.cols_mb"] = fam[cls]["cols"] / n_passes / 1e6
    m["ops.weight_standardize.calls"] = fam["ops.weight_standardize"]["calls"] / n_passes

    for key, span in (
        ("model.encoder_s", "model.encoder"),
        ("model.decoder_s", "model.decoder"),
        ("model.controller_s", "model.controller"),
        ("model.head_s", "model.head"),
    ):
        m[key] = a.mean(measured, span)
    dynamic = backbone = 0.0
    blocks = ("model.encoder", "model.decoder", "model.controller", "model.head")
    for i in a.indices(measured, *blocks):
        if a.top_pass[i] >= 0 and t.metas[a.top_pass[i]]["arch"] == "dodnet":
            if t.names[i] in ("model.controller", "model.head"):
                dynamic += a.dur[i]
            else:
                backbone += a.dur[i]
    m["model.dynamic_to_backbone"] = dynamic / backbone if backbone else 0.0

    m["losses.masked_task_loss_s"] = a.total(measured, "losses.masked_task_loss") * per_op
    m["optim.step_s"] = a.total(measured, "optim.step") * per_op
    m["data.sample_patch_s"] = a.total(measured, "data.sample_patch") * per_op

    m["data.build_dataset_s"] = a.mean(setup, "data.build_dataset")
    reads = a.indices(setup, "data.read_volume")
    read_time = sum(a.dur[i] for i in reads)
    m["data.read_volume_s"] = read_time / len(reads) if reads else 0.0
    m["data.read_mb_per_s"] = (
        sum(t.metas[i]["bytes"] for i in reads) / read_time / 1e6 if read_time else 0.0
    )
    m["training.load_checkpoint_s"] = a.mean(setup, "training.load_checkpoint")

    saves = a.indices(measured, "training.save_checkpoint")
    m["training.save_checkpoint_s"] = a.mean(measured, "training.save_checkpoint")
    m["training.checkpoint_mb"] = (
        sum(t.metas[i]["bytes"] for i in saves) / len(saves) / 1e6 if saves else 0.0
    )

    sweeps = set(a.indices(measured, "training.sliding_window_predict"))
    windows = [i for i in a.indices(measured, "model.forward") if t.parents[i] in sweeps]
    n_sweeps = max(len(sweeps), 1)
    m["training.windows_per_volume"] = len(windows) / n_sweeps
    m["training.window_forward_s"] = (
        sum(a.dur[i] for i in windows) / len(windows) if windows else 0.0
    )
    m["training.tiling_self_s"] = sum(a.self_time[i] for i in sweeps) / n_sweeps
    return m
