"""In-memory spans, written out once when the run ends.

A span is (id, parent id, operation id, name, start ns, end ns).  Spans of
one benchmark operation share its operation id.  A span whose parent is a
`phys_evaluate` span but that lies outside its interval is a replay: the
benchmark calls the same shapes/tensor function again on the same inputs,
so the parent's self time is its duration minus its replayed children.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.current = 0        # parent id for spans recorded by wrappers
        self.calls = Counter()  # calls per wrapped name

    def add(self, name, t0, t1, op, parent=0):
        self.spans.append([len(self.spans) + 1, parent, op, name, t0, t1])
        return len(self.spans)

    def begin(self, name, op):
        """Open a span that wrapped calls made before end(sid) nest under."""
        self.current = self.add(name, perf_counter_ns(), 0, op)
        return self.current

    def end(self, sid):
        self.spans[sid - 1][5] = perf_counter_ns()
        self.current = 0

    def wrap(self, name, fn):
        """fn with a counted span around every call, parented to `current`."""
        def traced(*args, **kwargs):
            self.calls[name] += 1
            parent = self.current
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                op = self.spans[parent - 1][2] if parent else 0
                self.add(name, t0, perf_counter_ns(), op, parent)
        return traced

    def durations(self, name):
        """Durations in ns of every span with this name."""
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def self_ns(self, parent_name):
        """Per span named parent_name: its duration minus its children's."""
        child = defaultdict(int)
        for s in self.spans:
            if s[1]:
                child[s[1]] += s[5] - s[4]
        return [s[5] - s[4] - child[s[0]] for s in self.spans if s[3] == parent_name]

    def children_ns(self, parent_name, child_name):
        """Per span named parent_name: summed duration of its children named child_name."""
        parents = {s[0]: 0 for s in self.spans if s[3] == parent_name}
        for s in self.spans:
            if s[1] in parents and s[3] == child_name:
                parents[s[1]] += s[5] - s[4]
        return list(parents.values())

    def write(self, path):
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                       "names": names,
                       "spans": [s[:3] + [index[s[3]]] + s[4:] for s in self.spans]},
                      fh, separators=(",", ":"))
