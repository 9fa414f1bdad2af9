"""Spans and counts recorded around the engine's public functions.

Targets are found by module attribute name when the tracer is
installed, so a function that a later refactor deletes is simply not
wrapped: its metric is reported as absent instead of failing. A function
imported into several modules (`from .data import batches`) is replaced
everywhere it is bound, so callers reach the wrapper whichever name they
use. Layer methods are wrapped per class and the span is named by the
instance's `Layer.kind`, never by the class.

Spans (name, start, end, parent) and per-span amounts live in compact
in-memory arrays and are written out only by `dump`, after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

# module -> classes whose public methods are wrapped as "<module>.<method>"
TRACED_MODULES = {
    "data": (),
    "rng": ("SplitRng",),
    "layers": (),
    "network": ("Model",),
    "train": (),
    "gradcheck": (),
}
LAYER_METHODS = ("forward", "backward")
# spans whose amount column records the size of the returned array
AMOUNT_OF_RESULT = {"rng.keep_mask"}


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def engine_modules(package: str = "simpnet") -> list[types.ModuleType]:
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]


def rebind(patches: Patches, original, replacement, package: str = "simpnet"):
    """Point every module attribute bound to `original` at `replacement`."""
    for module in engine_modules(package):
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self.patches = Patches()

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.amount.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        sized = name in AMOUNT_OF_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
                if sized:
                    self.amount[idx] = getattr(out, "size", 0)
                return out
            finally:
                self._close(idx)

        return traced

    def wrap_generator(self, name: str, fn):
        """Each next() on the returned iterator is one span: the time the
        caller waits for the next item, not just the generator call."""
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return timed()

        return traced

    def wrap_layer_method(self, method: str, fn):
        ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(layer, *args, **kwargs):
            nid = ids.get(layer.kind)
            if nid is None:
                nid = ids[layer.kind] = self.intern(f"layers.{layer.kind}.{method}")
            idx = self._open(nid)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "simpnet"):
        """Wrap every public function, the public methods of TRACED_MODULES'
        classes and each Layer subclass's forward/backward, where they exist."""
        import importlib

        for short, classes in TRACED_MODULES.items():
            try:
                module = importlib.import_module(f"{package}.{short}")
            except ImportError:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ != module.__name__:
                    continue  # wrapped under the module that defines it
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(value):
                    wrapper = self.wrap_generator(name, value)
                else:
                    wrapper = self.wrap(name, value)
                rebind(self.patches, value, wrapper, package)
            for cls_name in classes:
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_") or not isinstance(value, types.FunctionType):
                        continue
                    name = f"{short}.{attr}"
                    self.patches.set(cls, attr, self.wrap(name, value))
            if short == "layers" and isinstance(getattr(module, "Layer", None), type):
                base = module.Layer
                for cls in list(vars(module).values()):
                    if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                        for method in LAYER_METHODS:
                            if isinstance(vars(cls).get(method), types.FunctionType):
                                self.patches.set(cls, method, self.wrap_layer_method(method, vars(cls)[method]))

    def uninstall(self):
        self.patches.undo()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name ids, parents, starts, durations, amounts) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            start,
            end - start,
            np.frombuffer(self.amount, dtype=np.float64).copy(),
        )

    def dump(self, path):
        """Write every span to a compressed .npz (names, name_id, parent,
        start, end, amount)."""
        nid, parent, start, dur, amount = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=start + dur, amount=amount
        )


class SpanTable:
    """Per-interval sums over a tracer's spans, bucketed by start time."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id, self.parent, self.start, self.dur, self.amount = tracer.arrays()

    def ids(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def per_interval(self, name: str, bounds, column: str = "dur", parent_names=None) -> np.ndarray | None:
        """Sum of `column` over spans of `name` starting in each interval
        [bounds[i], bounds[i+1]); None when no such span name was seen.
        With parent_names, only spans whose parent has one of those names."""
        nid = self.ids(name)
        if nid is None:
            return None
        sel = self.name_id == nid
        if parent_names is not None:
            pids = [self.ids(p) for p in parent_names]
            pids = np.array([p for p in pids if p is not None], dtype=np.int32)
            par = self.parent
            has_parent = par >= 0
            parent_name = np.full(len(par), -1, dtype=np.int32)
            parent_name[has_parent] = self.name_id[par[has_parent]]
            sel &= np.isin(parent_name, pids)
        bounds = np.asarray(bounds, dtype=np.float64)
        which = np.searchsorted(bounds, self.start[sel], side="right") - 1
        inside = (which >= 0) & (which < len(bounds) - 1)
        values = getattr(self, column)[sel][inside]
        return np.bincount(which[inside], weights=values, minlength=len(bounds) - 1)
