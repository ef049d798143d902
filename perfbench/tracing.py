"""In-memory spans around the public functions of harvnet's layers.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records one span per call: name, start, end, parent span and
thread.  The replacement happens at every module attribute that refers to
the function, so calls that reach it through another module's namespace
(`analytic.coverage_prob`, `cli` calling `analytic.solve_availability`, the
package's re-exports) are traced too.  `uninstall()` puts the originals back.

Spans go to per-thread buffers, so threads never share an append; a span's
parent is the innermost open span of the same thread, and self time is
computed per thread.  Nothing is written until `write()`.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("model", "analytic", "coverage", "region", "markov", "simulate", "cli")


class _Buffer:
    """Spans and counters recorded by one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


def _count(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0.0) + value


# Counters read from a layer's return value: name -> (counters, args, result).
def _iterations(c, args, kwargs, result):
    _count(c, "analytic.iterations", result.iterations)


def _links(c, args, kwargs, result):
    _count(c, "simulate.links", int(result.tier_counts.sum()) * result.users.shape[0])


def _samples(c, args, kwargs, result):
    est = result[0] if isinstance(result, list) else result
    _count(c, "simulate.samples", est.samples)


def _cycles(c, args, kwargs, result):
    _count(c, "markov.cycles", result.samples)


_HOOKS = {
    "analytic.solve_availability": _iterations,
    "simulate.sample_network": _links,
    "simulate.coverage_mc": _samples,
    "simulate.association_mc": _samples,
    "simulate.rate_mc": _samples,
    "simulate.service_area_mc": _samples,
    "markov.simulate_on_off": _cycles,
}


class Tracer:
    """Records spans for every public function of the harvnet layer modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name: str):
        tracer = self
        name_id = self._name_id(name)
        hook = _HOOKS.get(name)
        if name == "cli.cmd_rate":
            # `rate --surface` is a different workload from the threshold sweep.
            sweep_id = self._name_id("cli.rate")
            surface_id = self._name_id("cli.rate_surface")
        else:
            sweep_id = surface_id = None

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            nid = name_id if sweep_id is None else (
                surface_id if getattr(args[0], "surface", False) else sweep_id)
            idx = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            buf.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = perf_counter()
                buf.stack.pop()
            if hook is not None:
                hook(buf.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever harvnet modules refer to them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"harvnet.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "harvnet" or modname.startswith("harvnet.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus summed counters.

        Self time is a span's duration minus the durations of its direct
        children, which by construction ran on the same thread.
        """
        calls = np.zeros(len(self.names))
        total = np.zeros(len(self.names))
        self_s = np.zeros(len(self.names))
        counters: dict[str, float] = {}
        for buf in self._buffers:
            names = np.frombuffer(buf.names, dtype=np.int32)
            if names.size == 0:
                continue
            parents = np.frombuffer(buf.parents, dtype=np.int64)
            dur = np.frombuffer(buf.ends) - np.frombuffer(buf.starts)
            child = parents >= 0
            covered = np.bincount(parents[child], weights=dur[child], minlength=names.size)
            calls += np.bincount(names, minlength=len(self.names))
            total += np.bincount(names, weights=dur, minlength=len(self.names))
            self_s += np.bincount(names, weights=dur - covered, minlength=len(self.names))
            for key, value in buf.counters.items():
                _count(counters, key, value)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(self_s[i])}
                 for i, name in enumerate(self.names) if calls[i]}
        return {"spans": spans, "counters": counters}

    def write(self, path: Path) -> None:
        """Write every span (compressed columns) plus the name table."""
        cols = {"name": [], "parent": [], "start": [], "end": [], "thread": []}
        for buf in self._buffers:
            cols["name"].append(np.frombuffer(buf.names, dtype=np.int32))
            cols["parent"].append(np.frombuffer(buf.parents, dtype=np.int64))
            cols["start"].append(np.frombuffer(buf.starts))
            cols["end"].append(np.frombuffer(buf.ends))
            cols["thread"].append(np.full(len(buf.names), buf.thread, dtype=np.uint64))
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **arrays)
