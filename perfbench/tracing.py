"""Span tracing of oodflow's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every ``oodflow`` namespace that holds it, by a wrapper that records a span:
name, start, end, parent span and the benchmark's unit id (decision, job or
training call).  ``uninstall`` puts the originals back.  Nothing in
``src/`` changes, and an untraced run executes the original functions only
(see ``wrapped_functions``).

A span's self time is its duration minus the durations of its child spans.
For the few layers whose work can be read off array shapes, the wrapper also
records that work (GFLOP, MB moved, rows), computed, not measured.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from statistics import median

TRACED_MODULES = ("gridio", "opticflow", "nnops", "vae", "trainer",
                  "conformal", "localization", "harness")
MARK = "__perfbench_traced__"

# layer index by channel count of the default architecture (2, 32, 64, 128, 256)
_ENC_BY_IN = {2: 0, 32: 1, 64: 2, 128: 3}
_TDEC_BY_IN = {256: 0, 128: 1, 64: 2, 32: 3}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_label(base, prefix, table, w_pos, axis):
    def label(args, kwargs):
        w = _arg(args, kwargs, w_pos, "w")
        return f"{base}.{prefix}{table.get(w.shape[axis], 'x')}"
    return label


LABELS = {
    "nnops.conv2d": _conv_label("nnops.conv2d", "enc", _ENC_BY_IN, 1, 1),
    "nnops.conv2d_backward": _conv_label("nnops.conv2d_backward", "enc",
                                         _ENC_BY_IN, 2, 1),
    "nnops.conv_transpose2d": _conv_label("nnops.conv_transpose2d", "tdec",
                                          _TDEC_BY_IN, 1, 0),
    "nnops.conv_transpose2d_backward": _conv_label(
        "nnops.conv_transpose2d_backward", "tdec", _TDEC_BY_IN, 2, 0),
}


def _conv_gflop(args, kwargs, result):
    w = _arg(args, kwargs, 1, "w")
    y = result[0]
    oc, ic, k, _ = w.shape
    return {"gflop": 2.0 * y.shape[0] * oc * ic * k * k * y.shape[2] * y.shape[3] / 1e9}


def _io_mb(args, kwargs, result):
    return {"mb": (args[0].nbytes + result.nbytes) / 1e6}


def _pgm_mb(args, kwargs, result):
    return {"mb": (result.size + result.nbytes) / 1e6}  # 8-bit payload + float32 grid


def _rows(args, kwargs, result):
    return {"rows": float(result[0].shape[0])}


def _train_steps(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    config = _arg(args, kwargs, 1, "config")
    return {"steps": float(math.ceil(len(dataset) / config.batch_size) * config.epochs)}


WORK = {
    "nnops.conv2d": _conv_gflop,
    "nnops.im2col": _io_mb,
    "nnops.col2im": _io_mb,
    "gridio.read_pgm": _pgm_mb,
    "vae.encode_batch": _rows,
    "trainer.train": _train_steps,
}


def _traced_modules():
    import oodflow  # noqa: F401  (registers the submodules)
    return [sys.modules[f"oodflow.{m}"] for m in TRACED_MODULES]


def wrapped_functions() -> list[str]:
    """Names of oodflow attributes that are tracing wrappers right now."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "oodflow" or mod_name.startswith("oodflow."):
            for attr, obj in vars(mod).items():
                if getattr(obj, MARK, False):
                    found.append(f"{mod_name}.{attr}")
    return found


class Tracer:
    """In-memory span recorder; spans are parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.unit: list[int] = []
        self.self_s: list[float] = []
        self.work: dict[int, dict] = {}
        self.phases: list[dict] = []
        self.unit_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------
    def _wrap(self, fn, name):
        label = LABELS.get(name)
        work = WORK.get(name)
        perf = time.perf_counter
        names, start, end, parent = self.names, self.start, self.end, self.parent
        unit, self_s, stack, child = self.unit, self.self_s, self._stack, self._child
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(label(args, kwargs) if label else name)
            parent.append(stack[-1] if stack else -1)
            unit.append(tracer.unit_id)
            start.append(0.0)
            end.append(0.0)
            self_s.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                start[idx], end[idx] = t0, t1
                self_s[idx] = dur - child.pop()
                if child:
                    child[-1] += dur
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in _traced_modules():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    short = mod.__name__.split(".")[-1]
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        # replace the function under every name that holds it, so aliases
        # such as trainer.kl_score (imported from vae) are traced too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "oodflow" or mod_name.startswith("oodflow."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._saved.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- phases -----------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        self.phases.append({"name": name, "t0": time.perf_counter(),
                            "first": len(self.names)})

    def end_phase(self) -> None:
        phase = self.phases[-1]
        phase["wall_s"] = time.perf_counter() - phase["t0"]
        phase["attributed_s"] = sum(self.self_s[phase["first"]:len(self.names)])
        phase["unattributed_s"] = phase["wall_s"] - phase["attributed_s"]
        phase["spans"] = len(self.names) - phase["first"]

    # -- queries ----------------------------------------------------------
    def ancestor(self, idx: int, name: str) -> int:
        """Nearest enclosing span called ``name``, or -1."""
        p = self.parent[idx]
        while p >= 0 and self.names[p] != name:
            p = self.parent[p]
        return p

    def by_name(self) -> dict[str, list[int]]:
        table: dict[str, list[int]] = {}
        for i, n in enumerate(self.names):
            table.setdefault(n, []).append(i)
        return table

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total self and inclusive seconds."""
        out = {}
        for name, ids in sorted(self.by_name().items()):
            out[name] = {"calls": len(ids),
                         "self_s": sum(self.self_s[i] for i in ids),
                         "incl_s": sum(self.end[i] - self.start[i] for i in ids)}
        return out

    def dump(self, path) -> None:
        """Write the phases, the layer table and every span (gzip JSON)."""
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        doc = {"phases": self.phases, "layers": self.layer_table(),
               "span_names": names,
               "span_fields": ["name", "start", "end", "parent", "unit"],
               "spans": [[code[self.names[i]], self.start[i], self.end[i],
                          self.parent[i], self.unit[i]]
                         for i in range(len(self.names))]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tr: Tracer, items: int) -> dict[str, float]:
    """The benchmark's per-layer metrics from a finished trace.

    ``items`` is the number of work items (decisions, frame pairs or training
    samples) of the traced half of the timed loop.
    """
    ids = tr.by_name()

    def self_ms(name):
        xs = [tr.self_s[i] for i in ids.get(name, [])]
        return 1e3 * median(xs) if xs else 0.0

    def incl_s(name):
        xs = [tr.end[i] - tr.start[i] for i in ids.get(name, [])]
        return median(xs) if xs else 0.0

    def mean_work(name, key, under=None):
        xs = [tr.work[i][key] for i in ids.get(name, []) if i in tr.work
              and (under is None or any(tr.ancestor(i, a) >= 0 for a in under))]
        return sum(xs) / len(xs) if xs else 0.0

    def count_under(name, ancestor):
        return sum(1 for i in ids.get(name, []) if tr.ancestor(i, ancestor) >= 0)

    m: dict[str, float] = {}
    for name in ("opticflow.lucas_kanade", "vae.preprocess", "nnops.bilinear_resize",
                 "nnops.im2col", "nnops.linear", "vae.encode", "vae.kl_score",
                 "nnops.col2im", "nnops.relu_backward", "nnops.linear_backward",
                 "conformal.p_value", "conformal.log_mixture_martingale",
                 "conformal.step", "conformal.events_from_curve",
                 "localization.overlay", "gridio.read_pgm"):
        m[f"{name}.ms"] = self_ms(name)
    for i in range(4):
        m[f"nnops.conv2d.enc{i}.ms"] = self_ms(f"nnops.conv2d.enc{i}")
        m[f"nnops.conv2d.enc{i}.gflops"] = mean_work(f"nnops.conv2d.enc{i}", "gflop")
        m[f"nnops.conv2d_backward.enc{i}.ms"] = self_ms(f"nnops.conv2d_backward.enc{i}")
        m[f"nnops.conv_transpose2d.tdec{i}.ms"] = self_ms(f"nnops.conv_transpose2d.tdec{i}")
        m[f"nnops.conv_transpose2d_backward.tdec{i}.ms"] = self_ms(
            f"nnops.conv_transpose2d_backward.tdec{i}")
    # calls in the timed half (unit id >= 0; set-up spans have -1) per work item
    lk_calls = sum(1 for i in ids.get("opticflow.lucas_kanade", []) if tr.unit[i] >= 0)
    m["opticflow.lucas_kanade.calls_per_item"] = lk_calls / items if items else 0.0
    # episode scoring only, not the 64-row chunks of activation_stats
    m["vae.encode_batch.rows"] = mean_work(
        "vae.encode_batch", "rows", ("conformal.detect_episode", "harness.grid_search"))
    m["nnops.col2im.mb"] = mean_work("nnops.col2im", "mb")
    m["nnops.im2col.mb"] = mean_work("nnops.im2col", "mb")
    m["gridio.read_pgm.mb"] = mean_work("gridio.read_pgm", "mb")
    for name in ("trainer.build_calibration", "localization.activation_stats",
                 "vae.load_weights", "harness.load_calibration"):
        m[f"{name}.s"] = incl_s(name)

    # trainer.train wall minus the nnops time inside it, per optimizer step
    nnops_s: dict[int, float] = {}
    for i, n in enumerate(tr.names):
        if n.startswith("nnops."):
            t = tr.ancestor(i, "trainer.train")
            if t >= 0:
                nnops_s[t] = nnops_s.get(t, 0.0) + tr.self_s[i]
    per_step = [1e3 * (tr.end[t] - tr.start[t] - nnops_s.get(t, 0.0)) / tr.work[t]["steps"]
                for t in ids.get("trainer.train", []) if tr.work.get(t, {}).get("steps")]
    m["trainer.update.ms"] = median(per_step) if per_step else 0.0

    traces = len(ids.get("conformal.detect_episode", []))
    m["harness.trace_reuse"] = (len(ids.get("conformal.events_from_curve", [])) / traces
                                if traces else 0.0)
    flows = count_under("opticflow.lucas_kanade", "harness.corpus_flow_dataset")
    m["harness.cal_flows_used_ratio"] = (
        count_under("vae.encode", "trainer.build_calibration") / flows if flows else 0.0)

    m["trace.wall_s"] = sum(p["wall_s"] for p in tr.phases)
    m["trace.attributed_s"] = sum(p["attributed_s"] for p in tr.phases)
    m["trace.unattributed_s"] = sum(p["unattributed_s"] for p in tr.phases)
    return m
