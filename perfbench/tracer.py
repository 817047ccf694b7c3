"""In-memory span tracer installed around the public functions of ``sqcap``.

At install time every function named in a ``sqcap`` module's ``__all__`` is
replaced, in every ``sqcap`` module namespace that binds it, by a wrapper
that records one span per call.  Dataclasses named in ``__all__`` get their
``__post_init__`` wrapped, so a validating constructor (for example the rank
SVD of ``ChannelMatrix``) counts as work of its own module.  Because the set
comes from ``__all__`` at run time, refactored modules stay traced without
edits here.

Each span records name, start, end, parent and operation id.  Parent stacks
are per thread; a span opened on a worker thread with an empty stack takes
the main thread's innermost open span as its parent, which ties the sweep's
worker pool to the ``run_sweep`` call that owns it.  Spans live in per-thread
arrays until :meth:`Tracer.spans` collects them after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from array import array
from time import perf_counter

import numpy as np


class _Buffer:
    __slots__ = ("id", "name", "op", "pbuf", "pidx", "t0", "t1", "stack")

    def __init__(self, buf_id: int):
        self.id = buf_id
        self.name = array("i")
        self.op = array("i")
        self.pbuf = array("i")
        self.pidx = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list = []


def sqcap_modules() -> dict:
    """Short name -> module, for every imported ``sqcap`` submodule with ``__all__``."""
    mods = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("sqcap.") and hasattr(mod, "__all__"):
            mods[name.split(".", 1)[1]] = mod
    return mods


class Tracer:
    def __init__(self):
        self.names: list = []
        self.constructors: set = set()
        self.op = 0
        self._buffers: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()
        self._undo: list = []

    def _buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, span_name: str, fn):
        code = len(self.names)
        self.names.append(span_name)
        local, main = self._local, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            idx = len(buf.t0)
            if stack:
                pbuf, pidx = buf.id, stack[-1]
            else:
                try:
                    pbuf, pidx = main.id, main.stack[-1]
                except IndexError:
                    pbuf, pidx = -1, -1
            buf.name.append(code)
            buf.op.append(self.op)
            buf.pbuf.append(pbuf)
            buf.pidx.append(pidx)
            buf.t1.append(0.0)
            stack.append(idx)
            buf.t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.t1[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function and validating constructor of ``sqcap``."""
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("install the tracer from the main thread")
        mods = sqcap_modules()
        namespaces = [m for n, m in sys.modules.items() if n == "sqcap" or n.startswith("sqcap.")]
        for short, mod in sorted(mods.items()):
            for attr in mod.__all__:
                obj = getattr(mod, attr, None)
                if inspect.isclass(obj) and "__post_init__" in obj.__dict__:
                    if obj.__module__ != mod.__name__:
                        continue
                    orig = obj.__dict__["__post_init__"]
                    obj.__post_init__ = self._wrap(f"{short}.{attr}", orig)
                    self.constructors.add(len(self.names) - 1)
                    self._undo.append((obj, "__post_init__", orig))
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    traced = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        if ns.__dict__.get(attr) is obj:
                            setattr(ns, attr, traced)
                            self._undo.append((ns, attr, obj))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def spans(self) -> dict:
        """All spans as parallel numpy arrays, with global parent indices."""
        offsets, total = [], 0
        for buf in self._buffers:
            offsets.append(total)
            total += len(buf.t0)
        cols = {k: [] for k in ("name", "op", "thread", "parent", "t0", "t1")}
        for buf, off in zip(self._buffers, offsets):
            n = len(buf.t0)
            pbuf = np.frombuffer(buf.pbuf, dtype=np.int32)[:n].astype(np.int64)
            pidx = np.frombuffer(buf.pidx, dtype=np.int64)[:n]
            base = np.array(offsets + [0], dtype=np.int64)[pbuf]
            cols["parent"].append(np.where(pbuf >= 0, base + pidx, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            cols["op"].append(np.frombuffer(buf.op, dtype=np.int32)[:n])
            cols["thread"].append(np.full(n, buf.id, dtype=np.int32))
            cols["t0"].append(np.frombuffer(buf.t0, dtype=np.float64)[:n])
            cols["t1"].append(np.frombuffer(buf.t1, dtype=np.float64)[:n])
        out = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        out["self"] = _self_times(out)
        return out


def _self_times(s: dict) -> np.ndarray:
    """Duration minus the part of it covered by child spans.

    Same-thread children never overlap, so their durations add.  Children
    on other threads (pool workers) may overlap each other, so their
    intervals are merged before being subtracted.
    """
    dur = s["t1"] - s["t0"]
    parent, thread = s["parent"], s["thread"]
    has = parent >= 0
    same = has.copy()
    same[has] = thread[parent[has]] == thread[has]
    covered = np.bincount(parent[same], weights=dur[same], minlength=dur.size)
    cross = np.flatnonzero(has & ~same)
    if cross.size:
        for p in np.unique(parent[cross]):
            kids = cross[parent[cross] == p]
            lo = np.maximum(s["t0"][kids], s["t0"][p])
            hi = np.minimum(s["t1"][kids], s["t1"][p])
            order = np.argsort(lo)
            end, union = -np.inf, 0.0
            for a, b in zip(lo[order], hi[order]):
                if b <= end:
                    continue
                union += b - max(a, end)
                end = b
            covered[p] += union
    return dur - covered
