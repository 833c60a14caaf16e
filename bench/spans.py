"""In-memory span recorder that times calls into vfsolve's layers from outside.

A span is (name, start, end, parent).  :meth:`Recorder.patch` replaces a
module attribute with a wrapper that opens a span around every call, so the
program itself is untouched; this only sees calls made through the module
attribute (``discrete.fred(...)``), not through names bound at import time.
A span's self time is its duration minus the durations of its direct
children, so the self times of one span tree sum to the root's duration.
"""

from __future__ import annotations

import functools
import gzip
import time


class Recorder:
    """Spans of one traced run, kept in parallel lists until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by its traced wrapper until :meth:`unpatch_all`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def unpatch_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        # in place: the wrappers hold references to these lists
        for lst in (self.names, self.starts, self.ends, self.parents):
            del lst[:]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_csv(self, path, phase: str, append: bool = False) -> None:
        """Write (or append) the spans as gzipped ``phase,index,name,start_s,
        end_s,parent`` rows; times count from the phase's first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "at" if append else "wt", compresslevel=1) as fh:
            if not append:
                fh.write("phase,index,name,start_s,end_s,parent\n")
            fh.writelines(
                f"{phase},{i},{name},{s - t0:.9f},{e - t0:.9f},{p}\n"
                for i, (name, s, e, p) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)
                )
            )
