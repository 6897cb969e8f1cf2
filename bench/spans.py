"""Spans for the traced benchmark run.

``Tracer.install`` wraps every public function of the traced treeclust
modules and patches each module attribute that refers to it, so calls made
inside the library through module globals (``cli.greedy_explain``,
``explainable.cluster_cost``) are caught too. ``uninstall`` restores them.

A span records name, start, end, parent span and instance id. Spans stay
in memory until ``write`` is called at the end of the run. Self time is a
span's duration minus the time its child spans cover; it is accumulated as
spans end, because calls nest on one thread.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core", "tree", "explanation", "explainable", "serialize", "cli", "generate")
# Called once per leaf-cost evaluation, up to ~10^5 times per instance:
# these are counted and timed but not kept as individual spans.
COUNTED_ONLY = {"core.cluster_cost", "core.centroid"}


class Tracer:
    def __init__(self, package: str = "treeclust"):
        self.package = package
        self.spans: list[tuple] = []
        # name -> [calls, total seconds, self seconds, points]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.instance: object = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        start = time.perf_counter()
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            tot = self.totals[name]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[1]
            if name == "core.cluster_cost":
                tot[3] += len(args[0])
            if name not in COUNTED_ONLY:
                self.spans.append((sid, name, start, end, parent, self.instance))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {m: sys.modules[f"{self.package}.{m}"] for m in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def total(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_time(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")
