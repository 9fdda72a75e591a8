"""Per-layer spans around ftlab's own functions, recorded from outside.

`Tracer.install()` replaces every public function and method of the layers
in `LAYERS` (plus any `extra` callables it is given) with a wrapper that
records one span per call: name, start, end, parent span and run id.
ftlab is not edited; `Tracer.uninstall()` puts the originals back.  Spans
are kept in memory, one recorder per thread, and merged by `Tracer.spans()`
once the traced region has ended.

Span names are `<layer>.<function or method>`.  A method shares its name
with same-named methods of the layer's other classes (both regressor
extensions record `drem.step`), and `SPAN_ALIASES` folds a few names into the
ones the benchmark reports.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
import types
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = ("plant", "regression", "drem", "mathx", "control", "sim", "cli")

# default span name -> reported span name
SPAN_ALIASES = {
    "cli.cmd_sweep": "cli.sweep",
    "control.adapt_rate": "control.adapt",
    "control.rates": "control.adapt",
}

# classes whose methods all record one span
CLASS_SPANS = {("plant", "NoiseModel"): "plant.noise",
               ("plant", "FrictionModel"): "plant.friction"}

# spans that start a new run id; every other span inherits its parent's
RUN_ROOTS = frozenset({"bench.workload", "bench.member", "cli.run"})


class _ThreadSpans:
    """Span arrays of one thread; only that thread appends to them."""

    def __init__(self, run_ids):
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.stack = [-1]
        self._run_ids = run_ids

    def open(self, sid: int, new_run: bool, t: float) -> int:
        i = len(self.start)
        p = self.stack[-1]
        self.name.append(sid)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(p)
        self.run.append(next(self._run_ids) if new_run else (self.run[p] if p >= 0 else 0))
        self.stack.append(i)
        return i

    def close(self, i: int, t: float) -> None:
        self.end[i] = t
        self.stack.pop()


@dataclass
class Spans:
    """All spans of a traced region.  `parent` indexes this table (-1 for a
    thread's root span); a span's parent always ran on the same thread."""

    names: list
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    run: np.ndarray
    thread: np.ndarray

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name.astype(np.int16),
                 start=self.start, end=self.end, parent=self.parent.astype(np.int32),
                 run=self.run.astype(np.int32), thread=self.thread.astype(np.int16))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run on the same thread, so they are disjoint and
    nested inside it; the self times of a thread's spans then add up to the
    durations of that thread's root spans.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_totals(spans: Spans) -> dict:
    """span name -> (calls, self seconds)."""
    own = self_times(spans.start, spans.end, spans.parent)
    k = len(spans.names)
    calls = np.bincount(spans.name, minlength=k)
    self_s = np.bincount(spans.name, weights=own, minlength=k)
    return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(spans.names)}


def thread_seconds(spans: Spans) -> float:
    """Sum over threads of their root spans' durations."""
    roots = spans.parent < 0
    return float(np.sum(spans.end[roots] - spans.start[roots]))


def busy_fraction(spans: Spans, outer: str, inner: str) -> float:
    """Summed `inner` durations / (summed `outer` durations x the number of
    threads that ran `inner`); 0 when no `outer` span was recorded."""
    out = spans.name == (spans.names.index(outer) if outer in spans.names else -1)
    inn = spans.name == (spans.names.index(inner) if inner in spans.names else -1)
    if not out.any() or not inn.any():
        return 0.0
    outer_s = float(np.sum(spans.end[out] - spans.start[out]))
    inner_s = float(np.sum(spans.end[inn] - spans.start[inn]))
    return inner_s / (outer_s * np.unique(spans.thread[inn]).size)


class Tracer:
    """Installs span-recording wrappers and collects what they record."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._run_ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self) -> _ThreadSpans:
        rec = _ThreadSpans(self._run_ids)
        self._local.rec = rec
        with self._lock:
            self._threads.append(rec)
        return rec

    def wrap(self, fn, name: str):
        """`fn` with one span named `name` recorded around each call."""
        sid = self._sid(name)
        new_run = name in RUN_ROOTS
        clock = time.perf_counter
        local = self._local
        recorder = self._recorder

        def traced(*args, **kwargs):
            rec = getattr(local, "rec", None) or recorder()
            i = rec.open(sid, new_run, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i, clock())

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra=()) -> None:
        """Wrap the layers' functions and methods, and each `(owner, attr,
        span name)` in `extra`."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"ftlab.{layer}"]
            for owner, attr, fn, name in _targets(layer, module):
                if isinstance(fn, (staticmethod, classmethod)):
                    self._patch(owner, attr, type(fn)(self.wrap(fn.__func__, name)))
                else:
                    replaced[fn] = self.wrap(fn, name)
                    self._patch(owner, attr, replaced[fn])
        # names bound by `from .x import f` elsewhere in the package
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "ftlab" or mod_name.startswith("ftlab."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in replaced:
                        self._patch(module, attr, replaced[value])
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> Spans:
        """Merge the threads' spans into one table; call once tracing ends."""
        cols = {k: [np.empty(0, dtype=np.float64 if k in ("start", "end") else np.int64)]
                for k in ("name", "start", "end", "parent", "run", "thread")}
        offset = 0
        for t, rec in enumerate(self._threads):
            parent = np.asarray(rec.parent, dtype=np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.asarray(rec.name, dtype=np.int64))
            cols["run"].append(np.asarray(rec.run, dtype=np.int64))
            cols["start"].append(np.asarray(rec.start))
            cols["end"].append(np.asarray(rec.end))
            cols["thread"].append(np.full(len(rec.start), t, dtype=np.int64))
            offset += len(rec.start)
        merged = {k: np.concatenate(v) for k, v in cols.items()}
        return Spans(list(self.names), **merged)


def _span_name(layer: str, attr: str, cls: type | None = None) -> str:
    if cls is not None and (layer, cls.__name__) in CLASS_SPANS:
        return CLASS_SPANS[(layer, cls.__name__)]
    name = f"{layer}.{attr}"
    return SPAN_ALIASES.get(name, name)


def _targets(layer: str, module):
    """(owner, attribute, callable, span name) for each function and method
    defined in `module` that the tracer wraps."""
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            if not attr.startswith("_"):
                yield module, attr, obj, _span_name(layer, attr)
        elif isinstance(obj, type) and not attr.startswith("_"):
            for m_attr, m_obj in list(vars(obj).items()):
                if m_attr.startswith("_"):
                    continue
                if isinstance(m_obj, (types.FunctionType, staticmethod, classmethod)):
                    yield obj, m_attr, m_obj, _span_name(layer, m_attr, obj)
