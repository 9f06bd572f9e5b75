"""Span collection and per-layer self time for the traced run.

The benchmark opens its own ``bench.*`` spans around each public call
(request, translate or ``serve_inline``, execute, insert) on a
:class:`repro.obs.Tracer`; the translator's existing spans (``translate``, ``parse``, ``extract``, ``map``, ``network``,
``compose``, ``cache.lookup`` ...) nest under them.  Spans stay in memory
and are written out once, when the run ends.

A span's self time is its duration minus the part its children cover.
Each span's self time goes to one layer bucket; a span name the table
does not know inherits its nearest known ancestor's bucket, so a span
added inside the program later is still accounted for.  Per request the
buckets therefore sum to the request's duration exactly; what is left
in ``unattributed`` is time inside the request but outside every call
into the program.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Optional

from repro.obs import Tracer
from repro.obs.trace import SpanExporter

#: span name -> layer bucket
BUCKETS = {
    "bench.request": "unattributed",
    "bench.translate": "core.residual",
    "translate": "core.residual",
    "parse": "core.parse",
    "extract": "core.extract",
    "map": "core.map",
    "map.tree": "core.map",
    "network": "core.network",
    "mtjn": "core.network",
    "compose": "core.compose",
    "cache.lookup": "core.cache",
    "bench.serve_inline": "service",
    "service.request": "service",
    "bench.execute": "engine.execute",
    "bench.insert": "engine.insert",
}


class Collector(SpanExporter):
    """Keeps every finished span's timing in memory."""

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def export(self, span) -> None:
        self.records.append(
            (span.span_id, span.parent_id, span.trace_id, span.name,
             span.start, span.end)
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, start, end in self.records:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "trace": trace,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def new_tracer(clock) -> tuple[Tracer, Collector]:
    collector = Collector()
    return Tracer(clock=clock, exporters=[collector]), collector


def bucket_of(name: str) -> Optional[str]:
    if name in BUCKETS:
        return BUCKETS[name]
    if name.startswith("rung:"):
        return "core.residual"
    if name.startswith("service."):
        return "service"
    return None


def layer_seconds(records: list[tuple]) -> dict[int, dict[str, float]]:
    """trace id -> {bucket: self seconds} for every ``bench.request``
    trace; the buckets of one trace sum to its request's duration."""
    children = defaultdict(float)
    for _, parent, _, _, start, end in records:
        if parent is not None:
            children[parent] += end - start
    by_id = {r[0]: r for r in records}

    def bucket(span_id: int) -> str:
        while span_id is not None:
            _, parent, _, name, _, _ = by_id[span_id]
            found = bucket_of(name)
            if found is not None:
                return found
            span_id = parent
        return "unattributed"

    requests = {r[2] for r in records if r[3] == "bench.request" and r[1] is None}
    totals: dict[int, dict[str, float]] = {t: defaultdict(float) for t in requests}
    for span_id, _, trace, _, start, end in records:
        if trace in totals:
            own = max(0.0, (end - start) - children[span_id])
            totals[trace][bucket(span_id)] += own
    return totals
