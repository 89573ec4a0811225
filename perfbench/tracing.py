"""In-memory spans around the public calls of each trisym layer.

The tracer wraps public functions at module boundaries (it rebinds module
attributes for the duration of a traced run and restores them afterwards),
so every call a caller makes through that name opens a span with its name,
start, end, parent span and request id.  Garbage-collector passes arrive
through ``gc.callbacks`` and become ``runtime.gc`` spans under whatever span
was open.  Spans stay in memory; ``write`` saves them once, at the end.
"""

from __future__ import annotations

import functools
import gc
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, request, attrs]
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._gc_start = None
        self.request = None

    # -- spans -------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent,
                self.request, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` may
        attach a dict of counts to the span."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if attrs is not None:
            span[6] = attrs(args, kwargs, result)
        return result

    def wrap(self, owner, attribute, name, attrs=None):
        """Rebind ``owner.attribute`` to a span-recording wrapper."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, attrs=attrs, **kwargs)

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- garbage collector -------------------------------------------------
    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self._open("runtime.gc")
        elif self._gc_start is not None:
            self._close(self._gc_start)
            self._gc_start = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        return False

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """Map span id -> duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child[span[4]] += span[3] - span[2]
        return [s[3] - s[2] - child[s[0]] for s in self.spans]

    def named(self, name):
        return [s for s in self.spans if s[1] == name]

    def has_ancestor(self, span, name):
        parent = span[4]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "attrs": attrs,
                }) + "\n")
