"""Layer tracer for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the package's modules
and every public method of the classes they define.  A function is
replaced everywhere it is bound, so names other modules took with
``from .x import y`` are traced too; methods are patched on the defining
class, so subclasses see them.  ``uninstall`` puts the originals back.

Each wrapped call records a span: function id, parent span, start and end
(``time.perf_counter`` seconds), kept in compact arrays in memory.  A span's
self time is its duration minus the durations of its direct children
(calls nest on one thread, so children never overlap).  ``flush`` folds the
spans recorded so far into per-function totals and appends them to the
spans file; the benchmark calls it between two operations, never inside
one, once the batch is large, and ``close`` flushes the rest.

Spans file format: a gzip stream of blocks, each a little-endian uint64
count n, then n int32 function ids, n int32 parent indices (relative to
the block, -1 for a root), n float64 starts and n float64 ends.  The
function names are in the JSON file written next to it.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import struct
import sys
import time
from array import array

BATCH_LIMIT = 1_000_000  # spans held in memory before ``maybe_flush`` folds them


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


@dataclasses.dataclass
class FunctionStats:
    name: str
    layer: str
    calls: int = 0
    total_s: float = 0.0  # outermost calls only; kept for functions marked inclusive
    self_s: float = 0.0
    escaped: int = 0  # exceptions that left the layer through this function
    distinct: set | None = None
    observed: int = 0


class Tracer:
    def __init__(self, package: str, path=None):
        self.package = package
        self.path = path
        self.stats: list[FunctionStats] = []
        self._keys: dict = {}
        self._observers: dict = {}
        self._inclusive: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.fids, self.parents = array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self._stack: list[int] = []
        self._raised: list[int] = []
        self.missing: set[str] = set()
        self._out = gzip.open(path, "wb", compresslevel=1) if path is not None else None

    # -- configuration -----------------------------------------------------------

    def distinct_key(self, name: str, key) -> None:
        """Count distinct ``key(*args)`` values of calls to ``name``; before install."""
        self._keys[name] = key

    def inclusive(self, *names: str) -> None:
        """Also total the outermost-call time of these functions; before install."""
        self._inclusive.update(names)

    def observe(self, name: str, count) -> None:
        """Add ``count(result)`` to the function's observed total; before install."""
        self._observers[name] = count

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """A traced stand-in for ``fn`` that returns and raises exactly as it does."""
        fid = len(self.stats)
        st = FunctionStats(name, layer)
        key = self._keys.get(name)
        if key is not None:
            st.distinct = set()
        observe = self._observers.get(name)
        self.stats.append(st)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack, raised, clock = self._stack, self._raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised.append(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if key is not None:
                try:
                    st.distinct.add(key(*args))
                except TypeError:  # unhashable argument: count the call as distinct
                    st.distinct.add(object())
            if observe is not None:
                st.observed += observe(result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions and methods of ``{layer: module}``."""
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self.wrap(value, f"{layer}.{attr}", layer)
                elif inspect.isclass(value):
                    self._wrap_class(value, layer)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(self.package):
                continue
            for attr, value in list(vars(mod).items()):
                new = wrappers.get(id(value))
                if new is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, new)

    def _wrap_class(self, cls, layer: str) -> None:
        plain_init = not dataclasses.is_dataclass(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and plain_init):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, property) and value.fget is not None:
                new = property(self.wrap(value.fget, name, layer), value.fset, value.fdel, value.__doc__)
            elif inspect.isfunction(value):
                new = self.wrap(value, name, layer)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- folding and output ------------------------------------------------------

    def flush(self) -> None:
        """Fold the recorded spans into the totals and write them out.

        Only valid between operations, when no span is open.
        """
        if self._stack:
            raise RuntimeError("flush inside an open span")
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stats = self.stats
        inclusive = {fid for fid, st in enumerate(stats) if st.name in self._inclusive}
        selfs = self_times(starts, ends, parents)
        for i, fid in enumerate(fids):
            st = stats[fid]
            st.calls += 1
            st.self_s += selfs[i]
            if fid in inclusive:
                p = parents[i]
                while p >= 0 and fids[p] != fid:
                    p = parents[p]
                if p < 0:
                    st.total_s += ends[i] - starts[i]
        for i in self._raised:
            p = parents[i]
            if p < 0 or stats[fids[p]].layer != stats[fids[i]].layer:
                stats[fids[i]].escaped += 1
        if self._out is not None and fids:
            self._out.write(struct.pack("<Q", len(fids)))
            for arr in (fids, parents, starts, ends):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                self._out.write(arr.tobytes())
        for arr in (fids, parents, starts, ends):
            del arr[:]
        self._raised.clear()

    def maybe_flush(self) -> None:
        if len(self.fids) >= BATCH_LIMIT:
            self.flush()

    def close(self) -> None:
        self.flush()
        if self._out is not None:
            self._out.close()
            with open(f"{self.path}.names.json", "w", encoding="utf-8") as fh:
                json.dump([st.name for st in self.stats], fh)
            self._out = None

    # -- queries -------------------------------------------------------------------

    def select(self, *names: str) -> list[FunctionStats]:
        """Stats of the named functions; a name ending in '.' selects a prefix.

        A name that matches nothing (the function was removed or renamed)
        selects nothing and is recorded in ``missing``.
        """
        out = []
        for n in names:
            found = [st for st in self.stats if st.name == n or (n.endswith(".") and st.name.startswith(n))]
            if not found:
                self.missing.add(n)
            out += found
        return out
