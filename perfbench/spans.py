"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call of a wrapped function: its name, start and end (seconds
on one monotonic clock), the index of the enclosing span (-1 at the top)
and the id of the run that recorded it.  Spans are kept in memory while the
traced program runs and written out once, when it ends.

Calls are strictly nested (the traced program is single-threaded, and pool
workers are not traced), so the child spans of a span cover disjoint parts
of its interval and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


class Recorder:
    """Records a span for every call of the functions it wraps."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = []

    def disable(self):
        """Make every wrapper a plain pass-through (used in forked workers)."""
        self.enabled = False

    def wrap(self, name, fn, on_return=None):
        """A wrapper of fn recording a span `name` per call.

        on_return(recorder, result, args, kwargs), when given, runs after a
        call that returned and may add to recorder.counts.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        return wrapper

    def write(self, path):
        """Write the spans and counters as JSON.

        The time spent serializing is the recorder's own cost and is stored
        as the counter `trace.write_s`.
        """
        started = self.clock()
        rows = json.dumps([[self.run_id, *span] for span in self.spans])
        self.counts["trace.write_s"] = self.clock() - started
        with open(path, "w") as out:
            out.write('{"fields":["run_id","name","start","end","parent"],"spans":')
            out.write(rows)
            out.write(',"counts":' + json.dumps(dict(self.counts)) + "}")


def load(path):
    """(spans, counts) from a file written by Recorder.write."""
    with open(path) as f:
        doc = json.load(f)
    return [span[1:] for span in doc["spans"]], doc["counts"]


def self_times(spans):
    """Per-span self time: duration minus the durations of its child spans."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


def summarize(spans):
    """Per-name totals: calls, time `s` and self time `self_s`.

    `s` sums only the outermost span of a name, so a function that calls
    itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        self_total[name] += selfs[i]
        if not has_ancestor(spans, i, name):
            total[name] += span[END] - span[START]
    return {
        name: {"calls": calls[name], "s": total[name], "self_s": self_total[name]}
        for name in calls
    }


def has_ancestor(spans, index, name):
    """True when some span enclosing spans[index] is called `name`."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def root_time(spans):
    """Summed duration of the top-level spans."""
    return sum(span[END] - span[START] for span in spans if span[PARENT] < 0)
