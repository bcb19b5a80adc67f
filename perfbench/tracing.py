"""Span tracing for the benchmark's traced run.

The tracer wraps calls into opscan's modules from the outside: it swaps a
module or class attribute for a wrapper that records a span (name, start,
end, parent) and, where asked, a count derived from the call's arguments
or result. Nothing inside ``src/`` changes. Patches are installed only
while tracing is on, so untraced work runs the original functions.

Spans are kept in memory and written out once, when the run ends. A
span's self time is its duration minus the durations of its direct
children; spans nest strictly because opscan is single-threaded.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self._stack: list[list] = []  # [name, t0, child_time, span index]
        self._patches: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, _clock(), 0.0, len(self.spans) - 1])

    def exit(self) -> None:
        t1 = _clock()
        name, t0, child, index = self._stack.pop()
        dur = t1 - t0
        self.spans[index] = (name, t0, t1, self.spans[index][3])
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.phase, name)
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        self.calls[key] += 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.phase, name)] += n

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a spanned wrapper.

        ``after(args, kwargs, result)`` runs outside the span and may call
        count(); ``name`` may be a callable of (args, kwargs) for names that
        depend on the call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._swap(owner, attr, wrapper)

    def patch_generator(self, owner, attr: str, name: str, on_item=None) -> None:
        """Span every next() of a generator function's iterator."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if on_item is not None:
                    on_item(item)
                yield item

        self._swap(owner, attr, wrapper)

    def hook(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original), with no span."""
        self._swap(owner, attr, make_wrapper(getattr(owner, attr)))

    def _swap(self, owner, attr: str, new) -> None:
        # Read the raw attribute so that restoring a class attribute puts
        # back the function object itself rather than a bound method.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ results

    def phase_totals(self, phase: str) -> tuple[dict, dict, dict, dict]:
        """(self seconds, inclusive seconds, calls, counts) of one phase, by name."""
        pick = lambda table: {k[1]: v for k, v in table.items() if k[0] == phase}
        return pick(self.self_s), pick(self.total_s), pick(self.calls), pick(self.counts)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")
        os.replace(tmp, path)
