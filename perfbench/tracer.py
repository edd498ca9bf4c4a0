"""Per-layer tracing of binomsums, applied from outside the package.

``Tracer.install()`` replaces the public functions (``__all__``, or names
without a leading underscore) and the methods of the traced modules by
wrappers, and rebinds every attribute of every loaded
``binomsums`` module that refers to one of the originals (modules import
``y6``, ``stirling1`` and others by name, and ``Poly.__radd__`` /
``__rmul__`` are aliases). ``uninstall()`` puts the originals back.

Time accounting: each wrapper entry and exit is an event. The time since
the previous event, in any thread, goes to the function on top of the
calling thread's stack (``untraced`` when that stack is empty). The
intervals tile the traced operation, so the self times of all functions
plus ``untraced`` add up to the operation's wall time, also when two
threads share the interpreter. This relies on the interpreter lock: no
other thread runs between reading and writing the shared ``last`` time,
because no call is made between the two.

Per function the tracer keeps calls, ``total_s`` (inclusive time spent on
the calling thread), ``self_s`` and ``wait_s`` (inclusive wall time minus
``total_s``: time the call waited while another thread ran). Spans are
recorded where a call crosses from one layer into another, kept in memory
and written out by ``write_spans``. Cache counts are ``cache_info()``
deltas of the ``lru_cache`` objects themselves.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path

PACKAGE = "binomsums"

# Layer name -> module name. ``audit.config`` is left out: no workload
# loads a config file.
LAYERS = {
    "exact_core": "binomsums.exact_core",
    "classic_numbers": "binomsums.classic_numbers",
    "y6_engine": "binomsums.y6_engine",
    "p_polynomials": "binomsums.p_polynomials",
    "hypergeom": "binomsums.hypergeom",
    "audit.registry": "binomsums.audit.registry",
    "audit.runner": "binomsums.audit.runner",
    "cli": "binomsums.cli",
}

# A leaf accessor called once per coefficient. Wrapping it would multiply
# the tracing cost; its time stays with the calling function.
SKIP = frozenset({"exact_core.Poly.coeff"})

_DUNDER = {"__init__": "new", "__call__": "call"}

CALLS, TOTAL, SELF, WAIT, LAYER, INDEX = range(6)


def _short(name: str) -> str:
    if name in _DUNDER:
        return _DUNDER[name]
    if name.startswith("__") and name.endswith("__"):
        return name[2:-2]
    return name


class Tracer:
    """Wraps the traced layers; one instance per process."""

    def __init__(self):
        self._tls = threading.local()
        self._last = [0.0]
        self._ids = itertools.count(1)
        self._threads = itertools.count()
        self.names: list[str] = []
        self.stats: dict[str, list] = {}
        self.root = self._stat("untraced", None)
        self.caches: dict[str, object] = {}
        self._cache0: dict[str, tuple[int, int]] = {}
        self._wrapped: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.span_ids = array("q")  # id, parent id, name index, thread
        self.span_times = array("d")  # start, end
        self.op_start = self.op_end = 0.0

    # -- bookkeeping -------------------------------------------------------

    def _stat(self, name: str, layer: str | None) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = [0, 0.0, 0.0, 0.0, layer, len(self.names)]
            self.names.append(name)
            self.stats[name] = stat
        return stat

    def _state(self) -> list:
        # [on-thread time, stack of stats, stack of open span ids, thread]
        st = [0.0, [self.root], [0], next(self._threads)]
        self._tls.st = st
        return st

    def _wrap(self, fn, stat):
        tls, last, clock = self._tls, self._last, time.perf_counter
        state, next_id = self._state, self._ids.__next__
        span_ids, span_times = self.span_ids, self.span_times
        layer, index = stat[LAYER], stat[INDEX]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = state()
            stack = st[1]
            parent = stack[-1]
            start = clock()
            d = start - last[0]
            last[0] = start
            parent[SELF] += d
            acc0 = st[0] = st[0] + d
            boundary = parent[LAYER] != layer
            if boundary:
                sid = next_id()
                st[2].append(sid)
            stack.append(stat)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                d = end - last[0]
                last[0] = end
                stat[SELF] += d
                acc = st[0] = st[0] + d
                stack.pop()
                stat[CALLS] += 1
                stat[TOTAL] += acc - acc0
                stat[WAIT] += (end - start) - (acc - acc0)
                if boundary:
                    st[2].pop()
                    span_ids.extend((sid, st[2][-1], index, st[3]))
                    span_times.extend((start, end))

        return traced

    def _wrapper_for(self, fn, name: str, layer: str):
        wrapper = self._wrapped.get(id(fn))
        if wrapper is None:
            wrapper = self._wrap(fn, self._stat(name, layer))
            self._wrapped[id(fn)] = wrapper
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str, path: str) -> None:
        for attr, value in list(vars(cls).items()):
            kind = type(value)
            fn = value.__func__ if kind in (classmethod, staticmethod) else value
            if (
                not inspect.isfunction(fn)
                or fn.__code__.co_filename != path
                or fn.__name__ == "<lambda>"
            ):
                continue  # properties, generated methods, field defaults
            name = f"{layer}.{cls.__name__}.{_short(fn.__name__)}"
            if name in SKIP:
                continue
            wrapper = self._wrapper_for(fn, name, layer)
            self._set(cls, attr, wrapper if fn is value else kind(wrapper))

    def install(self) -> None:
        """Wrap every traced layer; the package must be imported."""
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            public = getattr(mod, "__all__", None)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{attr}"] = obj
                exported = (
                    attr in public if public is not None else attr[0] != "_"
                )
                if not exported:
                    continue  # module-internal: its time stays with the caller
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, mod.__file__)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    self._wrapper_for(obj, f"{layer}.{attr}", layer)
        registry = sys.modules[LAYERS["audit.registry"]]
        build = self._wrapped[id(registry.build_registry)]
        self._wrapped[id(registry.build_registry)] = self._traced_build(build)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _traced_build(self, build):
        """``build_registry`` whose entries' callables are traced per id."""

        def build_registry():
            return [self._traced_entry(e) for e in build()]

        return build_registry

    def _traced_entry(self, entry):
        stat = self._stat(f"audit.registry.{entry.id}", "audit.registry")
        grid = entry.grid
        fields = {
            "printed": self._wrap(entry.printed, stat),
            "singular": self._wrap(entry.singular, stat),
            "grid": self._wrap(lambda spec: iter(list(grid(spec))), stat),
        }
        if entry.corrected is not None:
            fields["corrected"] = self._wrap(entry.corrected, stat)
        return dataclasses.replace(entry, **fields)

    # -- one traced operation ---------------------------------------------

    def start_op(self) -> None:
        self._cache0 = {
            name: (fn.cache_info().hits, fn.cache_info().misses)
            for name, fn in self.caches.items()
        }
        self.op_start = self._last[0] = time.perf_counter()

    def end_op(self) -> None:
        """Close the operation: the time since the last event is untraced."""
        end = time.perf_counter()
        try:
            stack = self._tls.st[1]
        except AttributeError:
            stack = [self.root]
        stack[-1][SELF] += end - self._last[0]
        self._last[0] = self.op_end = end

    def summary(self) -> dict:
        """Aggregates of the operation since ``start_op``, as plain data."""
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache0.get(name, (0, 0))
            caches[name] = {
                "hits": info.hits - hits0,
                "misses": info.misses - misses0,
                "entries": info.currsize,
            }
        return {
            "wall_s": self.op_end - self.op_start,
            "functions": {
                name: {
                    "layer": s[LAYER],
                    "calls": s[CALLS],
                    "total_s": s[TOTAL],
                    "self_s": s[SELF],
                    "wait_s": s[WAIT],
                }
                for name, s in self.stats.items()
                if s[CALLS] or s is self.root
            },
            "caches": caches,
            "spans": len(self.span_times) // 2,
        }

    def write_spans(self, path: Path) -> None:
        """Write the layer-boundary spans: a JSON header line, then the
        id array (id, parent, name index, thread per span, int64) and the
        time array (start, end per span, float64), both native byte order."""
        header = {
            "names": self.names,
            "spans": len(self.span_times) // 2,
            "ids": "int64 x4: id, parent, name, thread",
            "times": "float64 x2: start, end (perf_counter seconds)",
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.span_ids.tofile(fh)
            self.span_times.tofile(fh)
