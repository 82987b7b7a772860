"""Outside-in tracer for nilflow: wraps public functions, records spans.

Nothing inside nilflow changes.  ``install`` replaces each public function of
the traced modules in every ``nilflow`` module namespace that binds it (the
CLI and the package ``__init__`` rebind names with ``from .x import y``), plus
the ``MetricState`` constructor and ``Trajectory.to_csv``; ``uninstall`` puts
the originals back.  Spans are recorded only while a job is open, so oracle
checks made between jobs are not counted.

Each thread keeps its own span stack.  A span opened on a thread with an
empty stack (a ``sweep`` pool thread) takes as its parent the innermost span
open on the job's thread.  Spans are kept in memory, in one buffer per
thread, and reduced to per-layer metrics after the pass.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("algebra", "curvature", "flow", "joperator", "spectrum", "cli")
METHODS = (("algebra", "MetricState", "__init__"), ("flow", "Trajectory", "to_csv"))
JOB = "job"  # the root span of each job; its self time is spent outside nilflow


def _riemann_tag(tracer, args, kwargs, result) -> int:
    # fingerprint the metric from its bytes, per job, to count calls per distinct metric
    metric = args[1] if len(args) > 1 else kwargs["metric"]
    g = np.ascontiguousarray(metric.g)
    tracer.riemann_metrics.add((tracer.job_index, g.shape,
                                hashlib.blake2b(g.tobytes(), digest_size=16).digest()))
    return 0


def _dim_tag(tracer, args, kwargs, result) -> int:
    return (args[0] if args else kwargs["spec"]).dim


def _steps_tag(tracer, args, kwargs, result) -> int:
    # RK4 steps taken, from the returned trajectory (t_final / dt), not from rhs calls
    params = args[0] if args else kwargs["params"]
    return int(round(float(result.times[-1]) / params.dt))


TAGGERS = {
    "curvature.riemann": _riemann_tag,
    "curvature.ricci_general": _dim_tag,
    "flow.integrate": _steps_tag,
}


class _Buffer:
    """Span rows of one thread, as parallel typed arrays."""

    def __init__(self):
        self.cols = {"sid": array("q"), "parent": array("q"), "name": array("q"),
                     "tag": array("q"), "t0": array("d"), "t1": array("d"),
                     "c0": array("d"), "c1": array("d")}

    def add(self, sid, parent, name, tag, t0, t1, c0, c1):
        c = self.cols
        c["sid"].append(sid)
        c["parent"].append(parent)
        c["name"].append(name)
        c["tag"].append(tag)
        c["t0"].append(t0)
        c["t1"].append(t1)
        c["c0"].append(c0)
        c["c1"].append(c1)


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self.job_index = -1
        self.riemann_metrics = set()
        self._job_stack = None  # span stack of the thread running the open job
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.buf = [], _Buffer()
            with self._buffers_lock:
                self._buffers.append(local.buf)
        return local.stack, local.buf

    @contextmanager
    def job(self, index: int):
        """Open the root span of job ``index``; spans are recorded only inside one."""
        stack, buf = self._thread_state()
        sid = next(self._ids)
        stack.append(sid)
        self.job_index = index
        self._job_stack = stack
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            yield
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            self._job_stack = None
            stack.pop()
            buf.add(sid, 0, 0, index, t0, t1, c0, c1)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        tagger = TAGGERS.get(name)
        tracer = self
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job_stack = tracer._job_stack
            if job_stack is None:
                return fn(*args, **kwargs)
            stack, buf = tracer._thread_state()
            parent = stack[-1] if stack else job_stack[-1]
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                buf.add(sid, parent, idx, 0, t0, t1, c0, c1)
                raise
            t1 = clock()
            c1 = cpu()
            stack.pop()
            tag = tagger(tracer, args, kwargs, result) if tagger else 0
            buf.add(sid, parent, idx, tag, t0, t1, c0, c1)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for key, m in sys.modules.items()
                      if key == "nilflow" or key.startswith("nilflow.")]
        for short in MODULES:
            # through sys.modules: the package attribute `nilflow.spectrum` is a function
            module = sys.modules[f"nilflow.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapper)
        for short, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"nilflow.{short}"], cls_name)
            name = f"{short}.{cls_name}" + ("" if method == "__init__" else f".{method}")
            self._patch(cls, method, self._wrap(name, cls.__dict__[method]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def spans(self) -> dict:
        """All span rows as numpy columns, plus the thread (buffer) of each row."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        out = {key: np.concatenate([np.array(empty, dtype=empty.typecode)]
                                   + [np.array(b.cols[key], dtype=empty.typecode) for b in buffers])
               for key, empty in _Buffer().cols.items()}
        out["thread"] = np.concatenate([np.zeros(0, dtype=np.int64)]
                                       + [np.full(len(b.cols["sid"]), i) for i, b in enumerate(buffers)])
        return out


def parent_rows(spans: dict) -> np.ndarray:
    """Row index of each span's parent; -1 for job root spans."""
    row_of = np.full(int(spans["sid"].max(initial=0)) + 1, -1)
    row_of[spans["sid"]] = np.arange(len(spans["sid"]))
    return np.where(spans["parent"] > 0, row_of[spans["parent"]], -1)


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the union of its child spans' intervals.

    Children on the parent's own thread never overlap, so their durations add;
    children on other threads (pool workers) can overlap and are merged.
    """
    dur = spans["t1"] - spans["t0"]
    n = len(dur)
    parent_row = parent_rows(spans)
    has_parent = parent_row >= 0
    covered = np.bincount(parent_row[has_parent], weights=dur[has_parent], minlength=n)
    cross = has_parent.copy()
    cross[has_parent] = spans["thread"][has_parent] != spans["thread"][parent_row[has_parent]]
    for parent in np.unique(parent_row[cross]):
        kids = np.flatnonzero(parent_row == parent)
        order = np.argsort(spans["t0"][kids])
        union, end = 0.0, -np.inf
        for start, stop in zip(spans["t0"][kids][order], spans["t1"][kids][order]):
            if stop > end:
                union += stop - max(start, end)
                end = stop
        covered[parent] = union
    return dur - covered
