"""Timing, tracing and environment plumbing shared by every workload.

Timed windows run with the garbage collector paused; collection runs
between windows.  Spans are recorded by the benchmark around its own
calls into the program, kept in memory, and written out when the run
ends.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
import sysconfig
import time
from contextlib import contextmanager

perf = time.perf_counter


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (``fraction`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@contextmanager
def gc_paused():
    """A timed window: no collection may land inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def between_windows():
    """Pay for the garbage of the previous window outside any timing."""
    gc.collect()


def calibration_seconds(iterations=1_000_000):
    """Time of a fixed pure-Python loop: a record of how fast this
    process ran, never used to scale a metric."""
    start = perf()
    total = 0
    for value in range(iterations):
        total += value * value
    elapsed = perf() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def fingerprint():
    """The environment a result was measured in."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "gil_disabled": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "calibration_s": calibration_seconds(),
    }


def peak_rss_mb(children=False):
    """Peak resident memory of this process, or of the largest child
    process reaped so far (the kernel keeps only that maximum)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    """Spans recorded in memory: ``(id, parent, group, name, start, end)``.

    A span's layer is its name up to the first dot.  ``group`` ties the
    spans of one burst, update or setup together.  A disabled tracer
    records nothing and costs one attribute test per call site."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.group = 0
        self._stack = []

    def new_group(self):
        self.group += 1
        return self.group

    def record(self, name, start, end, parent=None):
        """Add a finished span; returns its id."""
        span_id = len(self.spans) + 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append((span_id, parent, self.group, name, start, end))
        return span_id

    @contextmanager
    def span(self, name):
        """Time the enclosed calls as one span; nested spans become its
        children."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans) + 1
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans[span_id - 1] = (span_id, parent, self.group, name, start, end)

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(end - start for _, _, _, span_name, start, end in self.spans if span_name == name)

    def self_times(self):
        """Per layer: span count, summed duration, and self time (each
        span's duration minus the time its children cover)."""
        covered = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        layers = {}
        for span_id, _, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            entry = layers.setdefault(layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, (end - start) - covered.get(span_id, 0.0))
        return layers

    def dump(self, path, extra):
        """Write the spans and ``extra`` as one JSON document."""
        document = dict(extra)
        document["spans"] = [
            {"id": i, "parent": p, "group": g, "name": n, "start": s, "end": e}
            for i, p, g, n, s, e in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")


def self_time_table(layers):
    """The self-time table as text lines, largest self time first."""
    wall = sum(entry["self_s"] for entry in layers.values()) or 1.0
    lines = ["%-10s %8s %12s %12s %7s" % ("layer", "spans", "total_s", "self_s", "self%")]
    for layer, entry in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            "%-10s %8d %12.6f %12.6f %6.1f%%"
            % (layer, entry["spans"], entry["total_s"], entry["self_s"], 100.0 * entry["self_s"] / wall)
        )
    return lines
