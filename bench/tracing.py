"""In-memory spans recorded around the benchmark's own calls into the library.

A span is (id, parent id, name, start, end) with CLOCK_MONOTONIC stamps,
which are comparable across processes on one Linux host. The layer of a
span is the part of its name before the first dot ("conditions" for
"conditions.check_vertex"); the root span of each op is named "op" and
belongs to the "harness" layer. Spans only ever nest (one client, no
threads), so a span's self time is its duration minus its children's.
"""

import contextlib
import json
import time


def now():
    """Seconds on the host-wide monotonic clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_of(name):
    return "harness" if name == "op" else name.split(".", 1)[0]


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []

    @contextlib.contextmanager
    def _record(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, now(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield span
        finally:
            span[4] = now()
            self._stack.pop()

    def span(self, name):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    def current(self):
        """Id of the innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def add(self, name, start, end, parent):
        """Record a span measured elsewhere (e.g. inside a child process)."""
        if self.enabled:
            self.spans.append([len(self.spans), parent, name, start, end])

    def self_times(self):
        """{span name: [calls, total s, self s]} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans},
                fh,
            )


def layer_self_times(self_times):
    """Fold per-span-name self times into per-layer self seconds."""
    layers = {}
    for name, (_, _, self_s) in self_times.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers
