"""Span recorder for the traced benchmark run, and the timers it puts
around lungrisk's layers.

Nothing under ``src/`` knows about this file. ``Tracer.install`` replaces
every public function of the layer modules (and the few private functions
named in ``EXTRA``) with a wrapper that opens a span, and rebinds every
reference to the original in every loaded ``lungrisk`` module, so calls made
through ``from .x import f`` names are timed too. Tensor ops also get their
backward closures wrapped, so the reverse pass is split by op.

Spans live in memory as ``[name, start, end, parent, attrs]`` lists and are
written out once, when the run ends. Single-threaded use only: the parent of
a span is the innermost span open when it starts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

MODULES = ("tensor", "nnet", "preprocess", "fileio", "synthdata", "pancan", "evaluate")

# Private functions that bound a unit of work the layer metrics need.
EXTRA = {
    "nnet": ("_forward_patch_batch", "_gather_batch"),
    "synthdata": ("_generate_scan",),
}

NAME, START, END, PARENT, ATTRS = range(5)


def _conv_flop(x, kernels):
    """Multiply-adds of one 3x3 same conv, times two: forward, or one of the
    two backward products (kernel gradient, input gradient)."""
    shape = x.data.shape
    n = 1 if len(shape) == 3 else shape[0]
    o, c = kernels.data.shape[:2]
    return 2.0 * n * o * c * 9 * shape[-2] * shape[-1]


# attrs recorded from a call's arguments and result, by span name
def _attrs_conv(args, kwargs, out):
    return {"flop": _conv_flop(args[0], args[1])}


def _attrs_gather(args, kwargs, out):
    return {"patches": 0 if out is None else int(out[0].shape[0])}


def _attrs_read_volume(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _attrs_write_volume(args, kwargs, out):
    return {"bytes": 72 + 2 * args[0].voxels.size}


def _attrs_perm(args, kwargs, out):
    n_perm = kwargs.get("n_perm", args[2] if len(args) > 2 else 10_000)
    return {"perms": int(n_perm)}


ATTRS_OF = {
    "tensor.conv2d_same": _attrs_conv,
    "nnet._gather_batch": _attrs_gather,
    "fileio.read_volume_compact": _attrs_read_volume,
    "fileio.read_volume_pair": _attrs_read_volume,
    "fileio.write_volume_compact": _attrs_write_volume,
    "evaluate.permutation_test_auc": _attrs_perm,
}


class Tracer:
    """In-memory spans plus the install/uninstall of the layer timers."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS] = attrs
        self._open.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")

    # -- timers ------------------------------------------------------------

    def _wrap(self, name, fn, tensor_cls):
        attrs_of = ATTRS_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, attrs_of(args, kwargs, out) if attrs_of else None)
            if (tensor_cls is not None and isinstance(out, tensor_cls)
                    and out._backward is not None and not any(out is a for a in args)):
                out._backward = tracer._wrap_backward(name, out._backward, args)
            return out

        return timed

    def _wrap_backward(self, name, closure, args):
        attrs = None
        if name == "tensor.conv2d_same":
            x = args[0]
            # the input gradient is used only when x came out of another op
            attrs = {"flop": 2 * _conv_flop(x, args[1]), "dx_useful": bool(x._parents)}
        bwd_name = name + ".bwd"
        tracer = self

        def timed_backward(g):
            idx = tracer.open(bwd_name)
            try:
                closure(g)
            finally:
                tracer.close(idx, attrs)

        return timed_backward

    def install(self):
        """Put timers around the layer functions; `uninstall` restores them."""
        tensor_mod = importlib.import_module("lungrisk.tensor")
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"lungrisk.{short}")
            extra = EXTRA.get(short, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    cls = tensor_mod.Tensor if short == "tensor" else None
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj, cls)
        for modname, mod in list(sys.modules.items()):
            if modname != "lungrisk" and not modname.startswith("lungrisk."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; the median when there are under forty."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n < 40:
        return statistics.median(ordered), 50.0, n
    k = n - 11            # index with exactly ten samples above it
    return ordered[k], 100.0 * (k + 1) / n, n


class SpanStats:
    """Totals, self times and counts by span name over a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                child[parent] += span[END] - span[START]
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            self.count[name] = self.count.get(name, 0) + 1
            self.durations.setdefault(name, []).append(dur)

    def sum_total(self, *names) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s[ATTRS][key] for s in self.spans
                   if s[NAME] == name and s[ATTRS] and key in s[ATTRS])

    def steps(self) -> tuple[list[float], list[int]]:
        """Train steps: from a batch gather's start to the next Adam step's end."""
        steps, patches = [], []
        pending = None
        for span in self.spans:        # spans are stored in start order
            if span[NAME] == "nnet._gather_batch":
                pending = span
            elif span[NAME] == "tensor.adam_step" and pending is not None:
                steps.append(span[END] - pending[START])
                patches.append(pending[ATTRS]["patches"])
                pending = None
        return steps, patches


POINTWISE = ("relu", "sigmoid", "dropout", "residual_add", "flatten", "concat", "reshape")
PATCH_OPS = ("extract_cube", "crop28", "triplanar", "normalize_hu")
CSV_FUNCS = tuple(f"fileio.{d}_{k}_csv" for d in ("read", "write")
                  for k in ("candidates", "labels", "scores"))


def layer_metrics(spans: list[list], commands: list[dict]):
    """Every per-layer metric as name -> (value, unit), and a line per timing tail.

    `commands` holds one dict per traced command: its argv, wall time, the
    index range of its spans and, for `score`, the number of scans scored.
    A layer that a workload never enters reads 0.
    """
    st = SpanStats(spans)
    m: dict[str, tuple[float, str]] = {}

    conv_bwd = [s for s in spans if s[NAME] == "tensor.conv2d_same.bwd"]
    useful = sum(1 for s in conv_bwd if s[ATTRS]["dx_useful"])
    m["tensor.conv2d.fwd_s"] = (st.total.get("tensor.conv2d_same", 0.0), "s")
    m["tensor.conv2d.bwd_s"] = (st.total.get("tensor.conv2d_same.bwd", 0.0), "s")
    m["tensor.conv2d.gflop"] = ((st.attr_sum("tensor.conv2d_same", "flop")
                                 + st.attr_sum("tensor.conv2d_same.bwd", "flop")) / 1e9, "GFLOP")
    m["tensor.conv2d.dx_useful_ratio"] = (useful / len(conv_bwd) if conv_bwd else 0.0, "ratio")
    for op, key in (("batch_norm", "batch_norm"), ("dense", "dense")):
        m[f"tensor.{key}.fwd_s"] = (st.total.get(f"tensor.{op}", 0.0), "s")
        m[f"tensor.{key}.bwd_s"] = (st.total.get(f"tensor.{op}.bwd", 0.0), "s")
    m["tensor.pointwise_s"] = (sum(st.total.get(f"tensor.{op}{d}", 0.0)
                                   for op in POINTWISE for d in ("", ".bwd")), "s")
    m["tensor.backward.self_s"] = (st.self_time.get("tensor.backward", 0.0), "s")
    m["tensor.adam_s"] = (st.total.get("tensor.adam_step", 0.0), "s")
    m["tensor.adam_calls"] = (float(st.count.get("tensor.adam_step", 0)), "count")

    notes = []
    steps, patches = st.steps()
    step_tail, step_pct, step_n = tail(steps)
    if step_n:
        notes.append(f"train step tail: p{step_pct:.1f} of {step_n} steps")
    m["nnet.train_step_ms"] = (1e3 * statistics.median(steps) if steps else 0.0, "ms")
    m["nnet.train_step_tail_ms"] = (1e3 * step_tail, "ms")
    m["nnet.train_step_samples"] = (float(step_n), "count")
    m["nnet.patches_per_step"] = (statistics.mean(patches) if patches else 0.0, "patches")
    m["nnet.batch_prep_s"] = (st.total.get("nnet._gather_batch", 0.0), "s")

    forward_calls, scored = 0, 0
    for cmd in commands:
        if cmd["argv"][0] == "score":
            lo, hi = cmd["spans"]
            forward_calls += sum(1 for s in spans[lo:hi] if s[NAME] == "nnet._forward_patch_batch")
            scored += cmd["scans"]
    m["nnet.forward_calls_per_scan"] = (forward_calls / scored if scored else 0.0, "calls/scan")
    predict = st.durations.get("nnet.ensemble_predict", [])
    predict_tail, predict_pct, predict_n = tail(predict)
    if predict_n:
        notes.append(f"predict tail: p{predict_pct:.1f} of {predict_n} scans")
    m["nnet.predict_scan_ms"] = (1e3 * statistics.median(predict) if predict else 0.0, "ms")
    m["nnet.predict_scan_tail_ms"] = (1e3 * predict_tail, "ms")
    m["nnet.predict_scan_samples"] = (float(predict_n), "count")
    m["nnet.weights_write_s"] = (st.total.get("nnet.save_ensemble", 0.0), "s")
    m["nnet.weights_read_s"] = (st.total.get("nnet.load_ensemble", 0.0), "s")

    examples = st.durations.get("preprocess.build_scan_example", [])
    m["preprocess.example_ms"] = (1e3 * statistics.median(examples) if examples else 0.0, "ms")
    m["preprocess.resample_s"] = (st.total.get("preprocess.resample_isotropic", 0.0), "s")
    m["preprocess.patch_s"] = (st.sum_total(*(f"preprocess.{f}" for f in PATCH_OPS)), "s")

    reads = ("fileio.read_volume_compact", "fileio.read_volume_pair")
    m["fileio.volume_read_s"] = (st.sum_total(*reads), "s")
    m["fileio.volume_read_mb"] = (sum(st.attr_sum(n, "bytes") for n in reads) / 1e6, "MB")
    m["fileio.volume_write_s"] = (st.total.get("fileio.write_volume_compact", 0.0), "s")
    m["fileio.volume_write_mb"] = (st.attr_sum("fileio.write_volume_compact", "bytes") / 1e6, "MB")
    m["fileio.csv_s"] = (st.sum_total(*CSV_FUNCS), "s")

    scans = st.durations.get("synthdata._generate_scan", [])
    m["synthdata.calibrate_s"] = (st.total.get("synthdata.calibrate_intercept", 0.0), "s")
    m["synthdata.scan_ms"] = (1e3 * statistics.median(scans) if scans else 0.0, "ms")

    pancan_s = st.total.get("pancan.patient_score", 0.0)
    nodules = st.count.get("pancan.nodule_score", 0)
    m["pancan.nodules_per_s"] = (nodules / pancan_s if pancan_s else 0.0, "nodules/s")

    perm_s = st.total.get("evaluate.permutation_test_auc", 0.0)
    perms = st.attr_sum("evaluate.permutation_test_auc", "perms")
    m["evaluate.perms_per_s"] = (perms / perm_s if perm_s else 0.0, "perms/s")
    m["evaluate.cohort_report_s"] = (st.total.get("evaluate.evaluate_cohort", 0.0), "s")

    # command wall time not covered by any layer span
    cli_self = 0.0
    for cmd in commands:
        lo, hi = cmd["spans"]
        covered = sum(s[END] - s[START] for s in spans[lo:hi] if s[PARENT] < lo)
        cli_self += cmd["wall_s"] - covered
    m["cli.self_s"] = (cli_self, "s")
    return m, notes
