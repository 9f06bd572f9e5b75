"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it carries the per-layer
metrics of a separate traced pass (see perfbench/README.md for which
end-to-end metric each one should move).  Lines before it report host
facts and the attempted/succeeded/failed counts of every phase.  Every
answer is checked against SQLite; any failure makes ``correct`` false
and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT}/src")

from repro.artifacts import ArtifactStore, build_artifact, load_context  # noqa: E402

from inproc import CONFIG, BenchError, build_databases, run_adhoc, run_answer  # noqa: E402
from served import server_layers  # noqa: E402
from spans import layer_seconds, new_tracer  # noqa: E402
from tally import percentile, ratio  # noqa: E402

WORKLOADS = ("adhoc", "answer")

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_qps": "1/s",
    "success_frac": "ratio",
    "top1_match_frac": "ratio",
    "slo_met_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit
PER_LAYER = {
    "core.translate_ms": "ms",
    "core.parse_ms": "ms",
    "core.extract_ms": "ms",
    "core.map_ms": "ms",
    "core.network_ms": "ms",
    "core.compose_ms": "ms",
    "core.cache_ms": "ms",
    "core.residual_ms": "ms",
    "core.network.expanded_per_req": "count",
    "core.network.pruned_per_req": "count",
    "core.network.memo_hit_ratio": "ratio",
    "core.rescache.hit_ratio": "ratio",
    "core.context.invalidations": "count/kreq",
    "core.context.sample_builds": "count/kreq",
    "core.map.tree_sim_hit_ratio": "ratio",
    "core.map.condition_hit_ratio": "ratio",
    "core.map.candidates_per_req": "count",
    "core.degraded_frac": "ratio",
    "engine.execute_ms": "ms",
    "engine.execute_p99_ms": "ms",
    "engine.rows_out_per_req": "count",
    "engine.insert_ms": "ms",
    "service.overhead_ms": "ms",
    "server.setup_s": "s",
    "server.latency_p50_ms": "ms",
    "server.latency_p99_ms": "ms",
    "server.slo_met_frac": "ratio",
    "server.top1_match_frac": "ratio",
    "server.peak_rss_mb": "MB",
    "server.worker_ms": "ms",
    "server.transport_ms": "ms",
    "server.worker_cache_hit_ratio": "ratio",
    "server.restarts": "count",
    "server.client_lag_ms": "ms",
    "artifacts.build_s": "s",
    "artifacts.load_s": "s",
    "artifacts.bytes": "bytes",
    "obs.tracing_overhead": "ratio",
    "obs.unattributed_frac": "ratio",
}

#: span bucket -> the per-layer time metric it feeds
BUCKET_METRICS = {
    "core.parse": "core.parse_ms",
    "core.extract": "core.extract_ms",
    "core.map": "core.map_ms",
    "core.network": "core.network_ms",
    "core.compose": "core.compose_ms",
    "core.cache": "core.cache_ms",
    "core.residual": "core.residual_ms",
    "service": "service.overhead_ms",
    "engine.execute": "engine.execute_ms",
}


def host_facts() -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        revision = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def span_layers(collector) -> tuple[dict, float, int]:
    """Summed self seconds per bucket, total request seconds, requests."""
    per_request = layer_seconds(collector.records)
    sums: dict[str, float] = defaultdict(float)
    for buckets in per_request.values():
        for bucket, seconds in buckets.items():
            sums[bucket] += seconds
    return sums, sum(sums.values()), len(per_request)


def counter_layers(tally) -> dict[str, float]:
    c, n = tally.counters, tally.translations
    return {
        "core.network.expanded_per_req": ratio(c["expanded"], n),
        "core.network.pruned_per_req": ratio(c["pruned"], n),
        "core.network.memo_hit_ratio": ratio(
            c["network_hits"], c["network_hits"] + c["network_misses"]
        ),
        "core.rescache.hit_ratio": ratio(
            c["result_hits"], c["result_hits"] + c["result_misses"]
        ),
        "core.context.invalidations": 1000 * ratio(c["invalidations"], tally.attempted),
        "core.context.sample_builds": 1000 * ratio(c["sample_builds"], tally.attempted),
        "core.map.tree_sim_hit_ratio": ratio(
            c["tree_sim_hits"], c["tree_sim_hits"] + c["tree_sim_misses"]
        ),
        "core.map.condition_hit_ratio": ratio(
            c["condition_hits"], c["condition_hits"] + c["condition_misses"]
        ),
        "core.map.candidates_per_req": ratio(c["candidates"], n),
    }


def artifact_layers() -> dict[str, float]:
    """Build and load one context artifact per dataset, in process."""
    directory = os.path.join(SCRATCH, f"artifacts-{os.getpid()}")
    build_s = load_s = size = 0.0
    try:
        store = ArtifactStore(directory)
        for db in build_databases().values():
            started = time.perf_counter()
            path = build_artifact(db, store, CONFIG)
            build_s += time.perf_counter() - started
            started = time.perf_counter()
            load_context(path, db, CONFIG)
            load_s += time.perf_counter() - started
            size += os.path.getsize(path)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"artifacts.build_s": build_s, "artifacts.load_s": load_s,
            "artifacts.bytes": size}


def inproc_layers(result: dict, collector) -> tuple[dict, dict]:
    untraced, traced = (side.tally for side in result["sides"])
    sums, total, requests = span_layers(collector)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for bucket, name in BUCKET_METRICS.items():
        metrics[name] = 1000 * ratio(sums[bucket], requests)
    metrics["core.translate_ms"] = sum(
        metrics[BUCKET_METRICS[b]] for b in BUCKET_METRICS if b.startswith("core.")
    )
    metrics.update(counter_layers(traced))
    metrics["core.degraded_frac"] = ratio(traced.degraded, traced.translations)
    if traced.execute:
        metrics["engine.execute_p99_ms"] = 1000 * percentile(traced.execute, 99)
        metrics["engine.rows_out_per_req"] = ratio(traced.rows_out, len(traced.execute))
    if traced.inserts:
        metrics["engine.insert_ms"] = 1000 * ratio(sum(traced.inserts), len(traced.inserts))
    metrics["obs.tracing_overhead"] = ratio(
        sum(traced.latencies), sum(untraced.latencies)
    )
    metrics["obs.unattributed_frac"] = ratio(sums["unattributed"], total)
    shares = {bucket: ratio(seconds, total) for bucket, seconds in sorted(sums.items())}
    return metrics, shares


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, report)."""
    tracer = collector = None
    if trace:
        tracer, collector = new_tracer(time.perf_counter)
    if workload == "adhoc":
        result = run_adhoc(seed, seconds, SCRATCH, tracer)
    else:
        result = run_answer(seed, seconds, tracer)
    phases = {"warm": result["warm"], "untraced": result["sides"][0].tally}
    if trace:
        phases["traced"] = result["sides"][1].tally
    measured = phases["untraced"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_facts(),
        "samples": len(measured.latencies),
    }
    if trace:
        metrics, shares = inproc_layers(result, collector)
        metrics.update(artifact_layers())
        server, phases["server-probe"] = server_layers(ROOT, SCRATCH, seed)
        metrics.update(server)
        report["conservation"] = shares
        report["not_measured"] = [
            "the worker-side stage split of a served request: the "
            "translator's spans do not cross the server's process boundary"
        ]
        os.makedirs(SCRATCH, exist_ok=True)
        collector.write(os.path.join(SCRATCH, f"trace-{workload}-{seed}.jsonl"))
        units = PER_LAYER
    else:
        metrics = measured.end_to_end()
        metrics["setup_s"] = result["setup_s"]
        metrics["peak_rss_mb"] = self_peak_rss_mb()
        units = END_TO_END
    report["phases"] = {name: tally.summary() for name, tally in phases.items()}
    # every phase counts: a failure while warming is a failure too
    attempted = sum(tally.attempted for tally in phases.values())
    failed = sum(tally.failed for tally in phases.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(SCRATCH, name), "w", encoding="utf-8") as handle:
        json.dump({"report": report, "result": line}, handle, indent=2)
    for key in ("host", "phases", "samples", "conservation", "not_measured"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
