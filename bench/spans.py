"""Span tracing of k3walls from outside the package.

``Tracer.install`` wraps every public function of the layer modules and puts
the wrapper in every k3walls namespace that bound the original, including
the lists in ``verify.CHECKS`` (``strata`` imports ``mukai_pairing``,
``square`` and ``wall_on_axis`` directly, ``cli`` imports ``square`` and
``render_wall_diagram``, and so on).  ``Tracer.remove`` puts the originals
back.  A span is (function id, start, end, parent span index); spans stay in
memory until ``write``.

Spans nest through one stack shared by all threads.  That is right only when
one thread at a time runs package code, so the traced ``verify`` pass runs
with one worker: the main thread waits in the pool while the worker runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("lattice", "stability", "strata", "hbn", "tableaux", "chains", "jsonio", "svg", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "module.function", indexed by function id
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._undo: list = []

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, fid: int, on_result):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        # counters read off results the program already returns
        hooks = {
            "tableaux.max_omitted": lambda res: self._count("tableaux.nodes", res.nodes),
            "tableaux.max_omitted_naive": lambda res: self._count("tableaux.naive_nodes", res.nodes),
            "strata.enumerate_types": lambda res: self._count("strata.types_enumerated", len(res.items)),
            "svg.render_wall_diagram": lambda res: self._count("svg.bytes", len(res[0].encode())),
            "jsonio.dumps_canonical": lambda res: self._count("jsonio.stdout_bytes", len(res.encode())),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"k3walls.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qualified = f"{layer}.{name}"
                self.names.append(qualified)
                wrappers[obj] = self._wrap(obj, len(self.names) - 1, hooks.get(qualified))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "k3walls" and not mod_name.startswith("k3walls."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._undo.append((vars(mod), name, obj))
        for fns in sys.modules["k3walls.verify"].CHECKS.values():
            for i, fn in enumerate(fns):
                fns[i] = wrappers[fn]
                self._undo.append((fns, i, fn))

    def remove(self) -> None:
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()

    def summary(self) -> dict:
        """Per function: calls, inclusive time of outermost calls, self time."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, (fid, start, end, parent) in enumerate(self.spans):
            entry = stats[self.names[fid]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[idx]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != fid:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        return stats

    def write(self, path, meta: dict) -> None:
        """One JSON object: the function names and every span, times in microseconds
        from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[fid, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), parent]
                 for fid, s, e, parent in self.spans]
        payload = dict(meta, functions=self.names, span_fields=["function", "start_us", "end_us", "parent"],
                       spans=spans, counters=self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
