"""Span tracing of fusionring's public functions, installed from outside the library.

`Tracer.install` replaces each function listed in LAYERS at every module
binding that holds it (for example `grading.generated_subcategory` as well
as `subcat.generated_subcategory`), and the method on its class for
`ring.multiply`. Calls made through any of those names become spans with a
parent, so nested calls are child spans. Spans are kept in flat arrays in
memory and written out by `save` when the run ends. A listed function that
the library no longer has is skipped, and its metrics are absent.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "fusionring"

#: layer (module) -> public functions traced in it
LAYERS = {
    "catalog": ("builtin", "load_ring", "load_smatrix"),
    "ring": ("validate", "exact_matvec", "multiply"),
    "spectral": ("fp_character", "character_table", "build_table"),
    "subcat": ("generated_subcategory", "restrict", "is_faithful", "is_indecomposable_matrix"),
    "grading": ("object_index", "object_order", "universal_grading"),
    "kernel": ("kernel_of_class", "center_of_class", "verify_brauer"),
    "modular": ("modular_data", "verlinde_ring", "centralizer", "projective_centralizer",
                "invertibles"),
    "cli": ("main",),
}
#: spans whose peak traced allocation is recorded (tracemalloc runs only inside them)
MEMORY_SPANS = ("ring.validate", "modular.verlinde_ring")
_MATVEC = "ring.exact_matvec"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module, fn: str):
    """(owner, attribute, function) for a module-level function or a class method."""
    value = vars(module).get(fn)
    if callable(value):
        return module, fn, value
    for cls in vars(module).values():
        if (isinstance(cls, type) and cls.__module__ == module.__name__
                and callable(cls.__dict__.get(fn))):
            return cls, fn, cls.__dict__[fn]
    return None


class Tracer:
    """Records one span per traced call: name, parent span, item, start, end."""

    def __init__(self):
        self.names = span_names()
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self.object_fallbacks = 0
        self.peak_bytes = {name: 0 for name in MEMORY_SPANS}
        self.found: set[str] = set()
        self._open: list[int] = []
        self._mem: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _library_modules()
        by_name = {m.__name__: m for m in modules}
        for nid, name in enumerate(self.names):
            layer, fn = name.split(".")
            module = by_name.get(f"{PACKAGE}.{layer}")
            target = _resolve(module, fn) if module is not None else None
            if target is None:
                continue
            owner, attr, original = target
            self.found.add(name)
            wrapper = self._wrap(nid, name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, nid: int, name: str, fn):
        track_memory = name in MEMORY_SPANS
        is_matvec = name == _MATVEC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_memory:
                self._memory_enter()
            span = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.item.append(self.item_id)
            self.end.append(0.0)
            self._open.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._open.pop()
                if track_memory:
                    self._memory_exit(name)
            if is_matvec and result.dtype == object:
                self.object_fallbacks += 1
            return result

        return traced

    def _memory_enter(self) -> None:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            # the enclosing region's peak so far survives the reset below
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0, started])

    def _memory_exit(self, name: str) -> None:
        base, carried, started = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], carried)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        if started:
            tracemalloc.stop()
        self.peak_bytes[name] = max(self.peak_bytes[name], peak - base)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-span-name calls, self and total seconds, per-layer self seconds, extras.

        Self time is a span's duration minus the durations of its child spans;
        children of one span never overlap, as calls are single-threaded.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=k)
        total_s = np.bincount(a["name_id"], weights=dur, minlength=k)
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name not in self.found:
                continue
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
            out[f"{name}.total_s"] = float(total_s[nid])
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_s[nid])
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        for name in MEMORY_SPANS:
            if name in self.found:
                out[f"{name}.peak_mb"] = self.peak_bytes[name] / 2**20
        if _MATVEC in self.found:
            out[f"{_MATVEC}.object_fallbacks"] = self.object_fallbacks
        out["trace.spans"] = len(dur)
        return out

    def save(self, path, meta: dict) -> None:
        """Write every span and the span-name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), meta=json.dumps(meta),
                            **self.arrays())
