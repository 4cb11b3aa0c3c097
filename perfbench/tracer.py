"""Spans and work counters recorded from outside bspoly.

The tracer replaces each traced function at the name through which bspoly
looks it up (a module attribute, a class attribute or a dict entry) with a
wrapper.  A wrapper opens a span (name, start, parent) on entry and closes
it on exit.  On close the span is folded into per-function totals: its
self time is its duration minus the time covered by its child spans.
Folding on close keeps memory flat however many spans a pass makes.

Hot leaves (``polyhedron_contains``, ``phi_steps``) are counted without a
span, so their time stays in the self time of the span that called them.

Counters are machine independent: calls, pairs scanned, LP cells, points
enumerated and so on.  They must repeat exactly on every pass of one seed.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._patches = []
        self._wrappers = {}
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)

    def reset(self) -> None:
        """Start a new pass: clear the totals, keep the patches."""
        self.counts.clear()
        self.self_s.clear()

    def parent(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name, observe=None, span=True):
        """One wrapper per function, however many lookup sites are patched.

        observe(tracer, args, result) runs after a successful call, outside
        the span, to add counters.  A call that raises counts as failed.
        """
        if fn in self._wrappers:
            return self._wrappers[fn]
        stack, counts, self_s = self._stack, self.counts, self.self_s
        calls_key, failed_key = name + ".calls", name + ".failed"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if span:
                frame = [name, time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[failed_key] += 1
                    raise
                finally:
                    duration = time.perf_counter() - frame[1]
                    stack.pop()
                    self_s[name] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
            else:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def patch_attr(self, owner, attr, name, observe=None, span=True):
        """Wrap owner.attr; a staticmethod in a class dict stays static."""
        original = owner.__dict__.get(attr, getattr(owner, attr))
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(original.__func__, name, observe, span))
        else:
            wrapped = self.wrap(original, name, observe, span)
        setattr(owner, attr, wrapped)
        self._patches.append((setattr, owner, attr, original))

    def patch_item(self, mapping, key, name, observe=None, span=True):
        original = mapping[key]
        mapping[key] = self.wrap(original, name, observe, span)
        self._patches.append((dict.__setitem__, mapping, key, original))

    def restore(self) -> None:
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)
        self._wrappers.clear()
