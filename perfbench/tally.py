"""Per-phase request accounting shared by every workload driver."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

#: TranslationStats.memo keys the per-layer metrics read
MEMO_KEYS = (
    "network_hits", "network_misses", "result_hits", "result_misses",
    "tree_sim_hits", "tree_sim_misses", "condition_hits",
    "condition_misses", "invalidations", "sample_builds",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Tally:
    """What one phase attempted, how long each request took, and what
    the program's own counters said about it."""

    slo_seconds: float
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    slo_met: int = 0
    scored: int = 0
    matched: int = 0
    translations: int = 0
    degraded: int = 0
    counters: Counter = field(default_factory=Counter)
    execute: list[float] = field(default_factory=list)
    inserts: list[float] = field(default_factory=list)
    rows_out: int = 0
    failures: Counter = field(default_factory=Counter)

    def request(self, latency: float, ok: bool, why: str = "") -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if ok:
            self.slo_met += latency <= self.slo_seconds
        else:
            self.failed += 1
            self.failures[why] += 1

    def score(self, matched: bool) -> None:
        self.scored += 1
        self.matched += matched

    def translation(self, translation) -> None:
        """Fold one top-1 Translation's stats into the counters."""
        self.translations += 1
        self.degraded += translation.is_degraded
        stats = translation.stats
        if stats is None:
            return
        self.counters["candidates"] += stats.candidates
        self.counters["expanded"] += stats.generator.get("expanded", 0)
        self.counters["pruned"] += stats.generator.get("pruned", 0)
        for key in MEMO_KEYS:
            self.counters[key] += stats.memo.get(key, 0)

    def end_to_end(self) -> dict[str, float]:
        """The user-visible metrics of this phase (setup and memory are
        added by the caller)."""
        ms = [s * 1000.0 for s in self.latencies]
        busy = sum(self.latencies)
        return {
            "latency_p50_ms": percentile(ms, 50),
            "latency_p99_ms": percentile(ms, 99),
            "throughput_qps": ratio(self.attempted - self.failed, busy),
            "success_frac": ratio(self.attempted - self.failed, self.attempted),
            "slo_met_frac": ratio(self.slo_met, self.attempted),
            "top1_match_frac": ratio(self.matched, self.scored),
        }

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "failures": dict(self.failures),
        }
