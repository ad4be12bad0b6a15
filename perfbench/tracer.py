"""In-memory spans around the public functions of ``oja_diffusion``.

The tracer measures each layer from outside: it replaces a function at the
module attribute its callers look it up through (for example
``montecarlo.run_ensemble_states`` or the entries of ``spectrum.SAMPLERS``)
with a wrapper that records a span, and puts the original back afterwards.
Nothing under ``src/`` is edited.

A span is ``(id, parent, name, start, end, pass_id, counts)``.  The parent
is the innermost open span of the calling thread.  Threads of the ensemble
worker pool start with no open span of their own; their spans are parented
to the innermost open span of the client thread, which is blocked inside the
call that submitted them.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.active = False
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that each call while active records a span.

        ``count(args, kwargs, result)`` returns a dict of work counts stored
        on the span; it runs after the span's end time is taken.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, kwargs, result) if count is not None and result is not None else None
                tracer.spans.append((sid, parent, name, start, end, tracer.pass_id, counts))

        return traced

    @contextlib.contextmanager
    def span(self, name, counts=None):
        """A span around a block of the benchmark's own code (pass, operation)."""
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.pass_id, counts))

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def patch(self, owner, key, name, count=None):
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict) until :meth:`unpatch`."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, count)
            self._patches.append((owner.__setitem__, key, original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original, count))
            self._patches.append((functools.partial(setattr, owner), key, original))

    def unpatch(self):
        while self._patches:
            setter, key, original = self._patches.pop()
            setter(key, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, pass_id, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "pass": pass_id, "counts": counts}) + "\n")


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """Per span name: total duration, total self time, call count, summed counts."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"dur": 0.0, "self": 0.0, "calls": 0, "counts": defaultdict(float)})
    for sid, _, name, start, end, _, counts in spans:
        row = table[name]
        row["dur"] += end - start
        row["self"] += selfs[sid]
        row["calls"] += 1
        for key, val in (counts or {}).items():
            row["counts"][key] += val
    return table
