"""Tests for the shared TranslationContext: reuse semantics, cross-query
memoization, invalidation scoped to the written relation, and the
batched translate_many API."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Catalog,
    Database,
    DataType,
    SchemaFreeTranslator,
    TranslationContext,
    TranslatorConfig,
)
from repro.backends import SqliteBackend
from repro.datasets import make_course_database
from repro.engine.io import export_to_sqlite
from repro.workloads import COURSE_QUERIES

from tests.conftest import make_fig1_catalog, make_fig1_db, results


@pytest.fixture(scope="module")
def course_db():
    return make_course_database()


def make_tiny_db():
    catalog = Catalog("tiny")
    catalog.create_relation(
        "person",
        [("person_id", DataType.INTEGER), ("name", DataType.TEXT)],
        primary_key=["person_id"],
    )
    db = Database(catalog)
    db.insert("person", [1, "Ada"])
    db.insert("person", [2, "Grace"])
    return db


class TestContextReuse:
    def test_neighbors_built_once_at_construction(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        assert context.stats.neighbor_builds == len(fig1_db.catalog)
        translator.translate("SELECT actor?.name?")
        translator.translate("SELECT movie?.title?")
        assert context.stats.neighbor_builds == len(fig1_db.catalog)

    def test_samples_shared_across_queries(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        translator.translate("SELECT name? WHERE gender? = 'male'")
        builds = context.stats.sample_builds
        assert builds > 0
        translator.translate("SELECT name? WHERE gender? = 'female'")
        # same columns probed again: no sample is materialised twice
        assert context.stats.sample_builds == builds
        assert context.stats.sample_hits > 0

    def test_tree_similarity_memoized_across_queries(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        translator.translate("SELECT actor?.name? WHERE actor?.gender? = 'male'")
        misses = context.stats.tree_sim_misses
        hits = context.stats.tree_sim_hits
        translator.translate("SELECT actor?.name? WHERE actor?.gender? = 'male'")
        # a structurally identical query is a pure memo hit
        assert context.stats.tree_sim_misses == misses
        assert context.stats.tree_sim_hits > hits

    def test_context_shared_across_translators(self, fig1_db):
        context = TranslationContext(fig1_db)
        first = SchemaFreeTranslator(fig1_db, context=context)
        second = SchemaFreeTranslator(fig1_db, context=context)
        assert first.context is second.context
        first.translate("SELECT actor?.name?")
        misses = context.stats.tree_sim_misses
        second.translate("SELECT actor?.name?")
        assert context.stats.tree_sim_misses == misses

    def test_memo_hits_reported_in_translation_stats(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        translator.translate("SELECT actor?.name?")
        second = translator.translate("SELECT actor?.name?")
        stats = second[0].stats
        assert stats is not None
        assert stats.memo.get("tree_sim_hits", 0) > 0
        assert stats.memo.get("tree_sim_misses", 0) == 0

    def test_degraded_cold_query_reports_no_memo_hits(self, fig1_db):
        """Regression: rung-2 re-probing of (tree, relation) pairs the
        interrupted full rung already scored used to be counted as memo
        *hits*, inflating hit rates on every degraded query.  A cold
        context has nothing memoized — the first probe of each pair in
        a translate() call must count once, later re-probes not at all.
        """
        from repro.core.resilience import Budget

        translator = SchemaFreeTranslator(fig1_db)
        translations = translator.translate(
            "SELECT name? WHERE director_name? = 'James Cameron'",
            budget=Budget(max_candidates=10),
        )
        assert translations[0].rung != "full"  # the ladder did engage
        memo = translator.last_translation_stats.memo
        assert memo["tree_sim_hits"] == 0
        assert memo["tree_sim_misses"] > 0

    def test_batch_replay_memo_hits_mirror_misses(self, fig1_db):
        """Replaying a query verbatim must report exactly one hit per
        first-pass miss — not more (double counting), not fewer."""
        translator = SchemaFreeTranslator(fig1_db)
        query = "SELECT name? WHERE director_name? = 'James Cameron'"
        translator.translate_many([query, query])
        memo = translator.last_translation_stats.memo
        assert memo["tree_sim_misses"] > 0
        assert memo["tree_sim_hits"] == memo["tree_sim_misses"]

    def test_stage_times_recorded(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        translations = translator.translate(
            "SELECT count(actor?.name?) WHERE director_name? = 'James Cameron'"
        )
        stats = translations[0].stats
        assert {"parse", "map", "network", "compose"} <= set(stats.stages)
        assert stats.total_seconds > 0
        assert stats.candidates > 0
        assert translator.last_translation_stats is stats

    def test_insert_invalidates_data_derived_caches(self):
        db = make_tiny_db()
        translator = SchemaFreeTranslator(db)
        context = translator.context
        sql = "SELECT name? WHERE name? = 'Alan'"
        translator.translate(sql)
        assert context.stats.invalidations == 0
        assert "Alan" not in context.column_sample("person", "name")
        db.insert("person", [3, "Alan"])
        translator.translate(sql)
        assert context.stats.invalidations == 1
        # the sample was rebuilt and the new tuple is visible to it
        assert "Alan" in context.column_sample("person", "name")

    def test_wrong_database_rejected(self, fig1_db):
        other = make_tiny_db()
        context = TranslationContext(other)
        with pytest.raises(ValueError):
            SchemaFreeTranslator(fig1_db, context=context)

    def test_wrong_config_rejected(self, fig1_db):
        context = TranslationContext(fig1_db, TranslatorConfig(sigma=0.9))
        with pytest.raises(ValueError):
            SchemaFreeTranslator(fig1_db, context=context)

    def test_scoring_order_is_a_permutation(self, fig1_db):
        from repro.core.relation_tree import build_relation_trees
        from repro.core.triples import extract
        from repro.sqlkit import parse

        context = TranslationContext(fig1_db)
        tree = build_relation_trees(extract(parse("SELECT movie?.title?")))[0]
        ordered = context.scoring_order(tree)
        assert sorted(r.key for r in ordered) == sorted(
            r.key for r in fig1_db.catalog
        )
        assert ordered[0].name == "Movie"


def condition_entries(context, relation, attribute, literal):
    """The memoized statuses of conditions on one column naming *literal*."""
    return [
        status
        for (probe, rkey, akey), status in context._condition_memo.items()
        if (rkey, akey) == (relation, attribute) and literal in probe
    ]


JAWS = "SELECT person?.name? WHERE movie?.title? = 'Jaws'"


class TestScopedInvalidation:
    def test_insert_drops_only_the_written_relation(self):
        db = make_fig1_db()
        translator = SchemaFreeTranslator(db)
        context = translator.context
        query = (
            "SELECT person?.name? WHERE movie?.title? = 'Titanic' "
            "AND person?.gender? = 'male'"
        )
        translator.translate(query)
        samples = set(context._samples)
        tree_sims = set(context._tree_sim_memo)
        assert {rkey for rkey, _ in samples} > {"person"}
        person_samples = {k for k in samples if k[0] == "person"}
        person_sims = {k for k in tree_sims if k[1] == "person"}
        assert person_samples and person_sims
        db.insert("Person", [99, "Zork Zorkson", "male"])
        context.ensure_current()
        assert set(context._samples) == samples - person_samples
        assert set(context._tree_sim_memo) == tree_sims - person_sims
        assert all(
            rkey != "person" for _, rkey, _ in context._condition_memo
        )
        builds = context.stats.sample_builds
        hits = context.stats.tree_sim_hits
        misses = context.stats.tree_sim_misses
        translator.translate(query)
        # only Person's columns are sampled again, only the trees scored
        # against Person miss, and every other relation's tree-sims hit
        assert context.stats.sample_builds - builds == len(person_samples)
        assert context.stats.tree_sim_misses - misses == len(person_sims)
        assert context.stats.tree_sim_hits - hits == len(
            tree_sims - person_sims
        )

    def test_insert_flipping_a_condition_matches_a_fresh_translator(self):
        db = make_fig1_db()
        translator = SchemaFreeTranslator(db)
        results(translator, JAWS)
        assert condition_entries(
            translator.context, "movie", "title", "'Jaws'"
        ) == ["unsatisfied"]
        db.insert("Movie", [13, "Jaws", 1975])
        assert results(translator, JAWS) == results(
            SchemaFreeTranslator(db), JAWS
        )
        assert condition_entries(
            translator.context, "movie", "title", "'Jaws'"
        ) == ["satisfied"]

    def test_store_overtaken_by_a_write_is_dropped(self):
        # a status computed before a write but stored after the
        # invalidation that write triggered must not enter the new epoch
        db = make_fig1_db()
        translator = SchemaFreeTranslator(db)
        context = translator.context
        remember = context.remember_condition
        raced = []

        def racing_remember(key, status, *rest):
            jaws = key[1:] == ("movie", "title") and "'Jaws'" in key[0]
            if jaws and not raced:
                raced.append(status)
                db.insert("Movie", [13, "Jaws", 1975])
                context.ensure_current()  # another translation starts
            remember(key, status, *rest)

        context.remember_condition = racing_remember
        translator.translate(JAWS)
        del context.remember_condition
        assert raced == ["unsatisfied"]
        assert "unsatisfied" not in condition_entries(
            context, "movie", "title", "'Jaws'"
        )
        fresh = SchemaFreeTranslator(db)
        assert results(translator, JAWS) == results(fresh, JAWS)
        assert condition_entries(
            context, "movie", "title", "'Jaws'"
        ) == condition_entries(fresh.context, "movie", "title", "'Jaws'") == [
            "satisfied"
        ]

    def test_sqlite_write_invalidates_every_relation(self):
        backend = SqliteBackend(
            export_to_sqlite(make_fig1_db(), ":memory:"), name="fig1"
        )
        translator = SchemaFreeTranslator(backend)
        context = translator.context
        translator.translate(
            "SELECT person?.name? WHERE movie?.title? = 'Titanic'"
        )
        assert context._samples and context._tree_sim_memo
        networks = dict(context._network_memo)
        before = {
            r.key: backend.relation_version(r.key) for r in context.relations
        }
        backend._connection().execute(
            "INSERT INTO Person VALUES (99, 'Nobody', 'male')"
        )
        # SQLite cannot name the written table: every relation moved
        assert all(
            backend.relation_version(key) != version
            for key, version in before.items()
        )
        context.ensure_current()
        assert context._samples == {}
        assert context._tree_sim_memo == {}
        assert context._condition_memo == {}
        assert context._network_memo == networks


# ---------------------------------------------------------------------------
# Property: after any interleaving of inserts and translations, the
# long-lived translator answers exactly like one built on the spot.
# ---------------------------------------------------------------------------

FIG1_QUERIES = [
    JAWS,
    "SELECT movie?.title? WHERE person?.name? = 'Tom Cruise'",
    "SELECT count(actor?.name?) WHERE director_name? = 'James Cameron'",
    "SELECT name? WHERE gender? = 'other'",
    "SELECT company?.name? WHERE movie?.release_year? > 2010",
    "SELECT title? WHERE name? = 'Pixar'",
]
NAMES = ["Jaws", "Tom Cruise", "Pixar", "other", "Titanic"]


def insert_step(db, relation, name, ids):
    """Insert one valid Fig. 1 row into *relation* using *name*."""
    pk = next(ids)
    if relation == "Person":
        db.insert("Person", [pk, name, "other" if pk % 2 else "male"])
    elif relation == "Movie":
        db.insert("Movie", [pk, name, 2000 + pk % 20])
    elif relation == "Company":
        db.insert("Company", [pk, name])
    elif relation == "Movie_Producer":
        db.insert("Movie_Producer", [10 + pk % 3, 1 + pk % 3])
    else:  # Actor / Director
        db.insert(relation, [1 + pk % 6, 10 + pk % 3])


class TestLongLivedEqualsFresh:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.sampled_from(
                        [r.name for r in make_fig1_catalog()]
                    ),
                    st.sampled_from(NAMES),
                ),
                st.tuples(st.just("translate"), st.sampled_from(FIG1_QUERIES)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_interleaved_inserts_and_translations(self, steps):
        db = make_fig1_db()
        shared = SchemaFreeTranslator(db)
        for query in FIG1_QUERIES:  # warm every memo tier first
            results(shared, query)
        ids = itertools.count(100)
        for step in steps:
            if step[0] == "insert":
                insert_step(db, step[1], step[2], ids)
            else:
                results(shared, step[1])
            for query in FIG1_QUERIES:
                assert results(shared, query) == results(
                    SchemaFreeTranslator(db), query
                )


class TestTranslateMany:
    def test_matches_per_query_translate_on_courses48(self, course_db):
        queries = [
            q.sf_sql or q.gold_sql
            for q in COURSE_QUERIES
            if q.bucket() in ("2-4", "5")
        ][:14]
        batch = SchemaFreeTranslator(course_db).translate_many(
            queries, top_k=3
        )
        for sql, batched in zip(queries, batch):
            fresh = SchemaFreeTranslator(course_db).translate(sql, top_k=3)
            assert [t.sql for t in batched] == [t.sql for t in fresh]
            assert [t.weight for t in batched] == [t.weight for t in fresh]

    def test_batch_stats_aggregate(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        queries = [
            "SELECT actor?.name?",
            "SELECT movie?.title?",
            "SELECT actor?.name?",
        ]
        results = translator.translate_many(queries)
        assert len(results) == 3
        stats = translator.last_translation_stats
        assert stats.queries == 3
        assert stats.total_seconds > 0
        # the third query repeats the first: the batch saw memo hits
        assert stats.memo.get("tree_sim_hits", 0) > 0
