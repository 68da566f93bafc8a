"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, cell).  Names are ``layer.function``,
where the layer is the qftmcu module the function is defined in.  The cell
id is a ``(pass, label)`` pair.  Spans are kept in a list and only written
out when the run ends, so recording costs two clock reads and a list append.

The program is traced as it is: while ``Tracer.active`` is entered, every
traced function is swapped for a wrapper that opens a span, in each module
that binds it as a global.  That is where the program looks its calls up at
run time, so the unchanged public API runs with spans around each layer
call, nested as the calls nest.  On leaving, the originals are put back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, functions: list, modules: list) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, cell id]
        self._stack: list[int] = []
        self.cell: tuple = ()
        self._wrappers = {id(fn): self._wrap(fn) for fn in functions}
        self._modules = modules

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def active(self, cell: tuple):
        """Trace every call of the traced functions inside the block, tagged ``cell``."""
        swapped = []
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    swapped.append((mod, attr, value))
        outer, self.cell = self.cell, cell
        try:
            yield
        finally:
            self.cell = outer
            for mod, attr, value in swapped:
                setattr(mod, attr, value)

    def self_times(self) -> dict[tuple, dict[str, float]]:
        """Seconds per cell id and span name, minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, cell) in enumerate(self.spans):
            out[cell][name] += end - start - child[i]
        return out

    def root_times(self) -> dict[tuple, float]:
        """Wall seconds of the top-level spans, per cell id."""
        out: dict[tuple, float] = defaultdict(float)
        for _, start, end, parent, cell in self.spans:
            if parent < 0:
                out[cell] += end - start
        return out

    def calls(self) -> Counter:
        """Number of spans per (cell id, name)."""
        return Counter((cell, name) for name, _, _, _, cell in self.spans)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "cell": list(c)}
            for n, s, e, p, c in self.spans
        ]


def by_layer(self_times: dict[str, float]) -> dict[str, float]:
    """Fold ``layer.function`` self times into per-layer totals."""
    out: dict[str, float] = defaultdict(float)
    for name, secs in self_times.items():
        out[name.split(".", 1)[0]] += secs
    return dict(out)
