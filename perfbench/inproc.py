"""The in-process workloads: ``adhoc`` and ``answer``.

Both are closed loops with one client: the next request is sent when
the previous one returns.  A request's latency is timed around the
public calls only; generating its input and checking its answer against
the oracle happen outside the timer, so throughput is completed requests
over the summed request time.

In a traced invocation every request is sent twice, to an untraced and a
traced copy of the system (alternating which goes first), so the tracing
overhead is a same-run ratio over identical inputs.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import subprocess
import sys
import time

from repro import QueryService, SchemaFreeTranslator, ServiceConfig
from repro.artifacts import ArtifactStore, build_artifact, load_context
from repro.core.config import DEFAULT_CONFIG
from repro.datasets import make_course_database, make_movie_database
from repro.errors import ReproError
from repro.obs import NULL_TRACER
from repro.testing.differential import normalize_rows

from inputs import ConstantSampler, adhoc_passes, answer_epochs, shipped_pool
from oracle import Oracle
from tally import Tally

#: the serving default (``repro serve --cache-size``)
CONFIG = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=256)
#: set-ups per run, each in a fresh interpreter; setup_s is their median
SETUP_REPEATS = 7
#: latency limits behind slo_met_frac
SLO_SECONDS = {"adhoc": 0.5, "answer": 1.0}
ADHOC_TOP_K = 3
#: redraws allowed when a resampled text was already sent this pass
NOVEL_TRIES = 20


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (not a program failure)."""


def build_databases() -> dict:
    return {"movies": make_movie_database(), "courses": make_course_database()}


def build_system(workload: str):
    """Both datasets plus the adhoc translators or the answer service."""
    databases = build_databases()
    if workload == "adhoc":
        return databases, {
            name: SchemaFreeTranslator(db, CONFIG) for name, db in databases.items()
        }
    return databases, QueryService(databases, ServiceConfig(translator=CONFIG))


def setup_seconds(workload: str) -> float:
    """Median set-up seconds over SETUP_REPEATS fresh interpreters."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    seconds = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, child, workload], capture_output=True, text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up failed:\n{done.stderr}")
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(seconds)


@dataclasses.dataclass
class Side:
    """One copy of the system under test and the tally of its requests."""

    system: object
    tracer: object
    tally: Tally


def _sides(make_system, tracer, slo: float) -> list[Side]:
    sides = [Side(make_system(NULL_TRACER), NULL_TRACER, Tally(slo))]
    if tracer is not None:
        sides.append(Side(make_system(tracer), tracer, Tally(slo)))
    return sides


def _ordered(sides: list[Side], index: int) -> list[Side]:
    """Which copy goes first, swapped every other request pair: the
    second copy finds the process-wide string caches warm, and adhoc
    alternates databases request by request, so swapping on every
    request would hand one copy all the movie requests."""
    return sides if (index // 2) % 2 == 0 else sides[::-1]


# ---------------------------------------------------------------------------
# adhoc
# ---------------------------------------------------------------------------


def run_adhoc(seed: int, seconds: float, scratch: str, tracer=None) -> dict:
    setup_s = setup_seconds("adhoc")
    databases = build_databases()
    pool = shipped_pool()
    # the warm state every pass starts from: one context artifact per
    # database, warmed on the shipped texts at the adhoc k
    store_dir = os.path.join(scratch, f"adhoc-{os.getpid()}")
    store = ArtifactStore(store_dir)
    artifacts = {
        name: build_artifact(
            db, store, CONFIG,
            warmup=[t.sfsql for t in pool if t.database == name],
            warmup_top_k=ADHOC_TOP_K,
        )
        for name, db in databases.items()
    }

    def make_system(side_tracer):
        """Translators over fresh contexts attached from the warm artifacts."""
        return {
            name: SchemaFreeTranslator(
                db, CONFIG, tracer=side_tracer,
                context=load_context(artifacts[name], db, CONFIG),
            )
            for name, db in databases.items()
        }

    oracle = Oracle(databases)
    sampler = ConstantSampler(databases, seed)
    target = seconds if tracer is None else seconds / 2
    passes = adhoc_passes(pool, seed)
    sides = _sides(make_system, tracer, SLO_SECONDS["adhoc"])
    index = 0
    while sum(sides[0].tally.latencies) < target:
        # every pass starts from the same warm state, so the run is
        # stationary: memos filled by earlier passes would otherwise turn
        # later passes into a different, cheaper workload
        if index:
            for side in sides:
                side.system = make_system(side.tracer)
            oracle.forget()
        sent = {text.sfsql for text in pool}
        for text in next(passes):
            for _ in range(NOVEL_TRIES):
                sfsql, gold = sampler.resample(text)
                if sfsql not in sent:
                    break
            sent.add(sfsql)
            for side in _ordered(sides, index):
                with side.tracer.span("bench.request"):
                    started = time.perf_counter()
                    with side.tracer.span("bench.translate"):
                        translations = _translate(
                            side.system[text.database], sfsql
                        )
                    latency = time.perf_counter() - started
                _check_translation(
                    side.tally, oracle, text.database, translations, gold, latency
                )
            index += 1
    oracle.close()
    shutil.rmtree(store_dir, ignore_errors=True)
    return {"setup_s": setup_s, "warm": Tally(0.0), "sides": sides}


def _translate(translator, sfsql: str):
    try:
        return translator.translate(sfsql, top_k=ADHOC_TOP_K)
    except ReproError:
        return None


def _check_translation(tally, oracle, database, translations, gold, latency):
    if not translations:
        tally.request(latency, False, "translate")
        return
    tally.translation(translations[0])
    got = oracle.rows(database, translations[0].sql)
    tally.request(latency, got is not None, "oracle-cannot-run-top1")
    _score(tally, oracle, database, got, gold)


def _score(tally, oracle, database, got, gold) -> None:
    want = oracle.rows(database, gold)
    if want is None:
        raise BenchError(f"the oracle cannot run gold SQL: {gold}")
    tally.score(got == want)


# ---------------------------------------------------------------------------
# answer
# ---------------------------------------------------------------------------


def run_answer(seed: int, seconds: float, tracer=None) -> dict:
    setup_s = setup_seconds("answer")
    databases, service = build_system("answer")

    def make_system(side_tracer):
        if side_tracer is NULL_TRACER:
            return service
        return QueryService(
            databases, ServiceConfig(translator=CONFIG), tracer=side_tracer
        )

    sides = _sides(make_system, tracer, SLO_SECONDS["answer"])
    pool = shipped_pool()
    warm = Tally(SLO_SECONDS["answer"])
    for side in sides:
        for text in pool:
            response = side.system.serve_inline(text.sfsql, database=text.database)
            warm.request(0.0, response.ok, "translate")
    oracle = Oracle(databases)
    target = seconds if tracer is None else seconds / 2
    epochs = answer_epochs(pool, databases, seed)
    index = 0
    before = [_invalidations(side.system, databases) for side in sides]
    try:
        while sum(sides[0].tally.latencies) < target:
            epoch = next(epochs)
            for write in epoch.inserts:
                _insert(sides, databases[write.database], write)
                oracle.insert(write.database, write.relation, write.row)
            for text in epoch.requests:
                for side in _ordered(sides, index):
                    _answer_one(side, databases[text.database], oracle, text)
                index += 1
        # a write is noticed before translate() snapshots its memo
        # counters, so the invalidation shows only in ContextStats
        for side, base in zip(sides, before):
            side.tally.counters["invalidations"] = (
                _invalidations(side.system, databases) - base
            )
    finally:
        oracle.close()
        for side in sides:
            side.system.close()
    return {"setup_s": setup_s, "warm": warm, "sides": sides}


def _invalidations(service, databases) -> int:
    return sum(service.context(name).stats.invalidations for name in databases)


def _insert(sides: list[Side], db, write) -> None:
    """One write, made once and counted as a request on every side
    (the copies share the databases)."""
    side = sides[-1]
    with side.tracer.span("bench.request"):
        started = time.perf_counter()
        with side.tracer.span("bench.insert"):
            db.insert(write.relation, write.row)
        latency = time.perf_counter() - started
    for each in sides:
        each.tally.request(latency, True)
        each.tally.inserts.append(latency)


def _answer_one(side: Side, db, oracle: Oracle, text) -> None:
    tracer, tally = side.tracer, side.tally
    result = executed = None
    with tracer.span("bench.request"):
        started = time.perf_counter()
        with tracer.span("bench.serve_inline"):
            response = side.system.serve_inline(text.sfsql, database=text.database)
        if response.ok:
            with tracer.span("bench.execute"):
                executed = time.perf_counter()
                try:
                    result = db.execute(response.sql)
                except ReproError:
                    result = None
                executed = time.perf_counter() - executed
        latency = time.perf_counter() - started
    if not response.ok:
        tally.request(latency, False, "serve_inline")
        return
    tally.translation(response.translations[0])
    tally.execute.append(executed)
    if result is None:
        tally.request(latency, False, "execute")
        return
    tally.rows_out += len(result.rows)
    got = oracle.rows(text.database, response.sql)
    agrees = got is not None and normalize_rows(result.rows) == got
    tally.request(latency, agrees, "engine-differs-from-sqlite")
    _score(tally, oracle, text.database, got, text.gold)
