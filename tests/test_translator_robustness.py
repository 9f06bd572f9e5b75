"""Robustness and behavioural-contract tests for the translator."""

import dataclasses

import pytest

from repro import SchemaFreeTranslator, TranslationError, TranslatorConfig
from repro.datasets import make_movie_database
from repro.sqlkit import SqlSyntaxError, ast, parse

from tests.helpers import PAPER_QUERY


@pytest.fixture(scope="module")
def movie_db():
    return make_movie_database()


class TestTopKContract:
    def test_translations_distinct(self, fig1_translator):
        translations = fig1_translator.translate(PAPER_QUERY, top_k=5)
        sqls = [t.sql for t in translations]
        assert len(sqls) == len(set(sqls))

    def test_weights_monotone(self, fig1_translator):
        translations = fig1_translator.translate(PAPER_QUERY, top_k=5)
        weights = [t.weight for t in translations]
        assert weights == sorted(weights, reverse=True)

    def test_k_one_equals_head_of_k_five(self, fig1_translator):
        one = fig1_translator.translate(PAPER_QUERY, top_k=1)
        five = fig1_translator.translate(PAPER_QUERY, top_k=5)
        assert one[0].sql == five[0].sql

    def test_all_translations_executable(self, fig1_db, fig1_translator):
        for translation in fig1_translator.translate(PAPER_QUERY, top_k=5):
            fig1_db.execute(translation.query)  # must not raise

    def test_every_translation_fully_exact(self, fig1_translator):
        for translation in fig1_translator.translate(PAPER_QUERY, top_k=5):
            for node in translation.query.walk():
                if isinstance(node, ast.ColumnRef):
                    assert node.attribute.certainty is ast.Certainty.EXACT
                if isinstance(node, ast.TableRef):
                    assert node.name.certainty is ast.Certainty.EXACT


class TestDeterminism:
    def test_same_input_same_output(self, fig1_db):
        first = SchemaFreeTranslator(fig1_db).translate_best(PAPER_QUERY)
        second = SchemaFreeTranslator(fig1_db).translate_best(PAPER_QUERY)
        assert first.sql == second.sql

    def test_translator_reusable_across_queries(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        a1 = translator.translate_best("SELECT title? WHERE year? > 2000").sql
        translator.translate_best(PAPER_QUERY)
        a2 = translator.translate_best("SELECT title? WHERE year? > 2000").sql
        assert a1 == a2  # no hidden state drift (views unchanged)


class TestConfigInteraction:
    def test_small_top_k_config_default(self, fig1_db):
        translator = SchemaFreeTranslator(
            fig1_db, TranslatorConfig(top_k=3)
        )
        translations = translator.translate(PAPER_QUERY)
        assert len(translations) >= 2  # config's k used when not overridden

    def test_tight_sigma_narrows_candidates(self, fig1_db):
        loose = SchemaFreeTranslator(fig1_db, TranslatorConfig(sigma=0.99))
        best = loose.translate_best(PAPER_QUERY)
        assert fig1_db.execute(best.query).scalar() == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TranslatorConfig(sigma=0.0)
        with pytest.raises(ValueError):
            TranslatorConfig(kref=1.5)
        with pytest.raises(ValueError):
            TranslatorConfig(top_k=0)
        with pytest.raises(ValueError):
            TranslatorConfig(qgram=0)

    def test_max_expansions_cap_respected(self, movie_db):
        config = TranslatorConfig(max_expansions=50)
        translator = SchemaFreeTranslator(movie_db, config)
        # must terminate quickly even if the cap truncates the search
        try:
            translator.translate(PAPER_QUERY, top_k=1)
        except TranslationError:
            pass
        assert translator.last_stats.expanded <= 50 + 64  # one batch overshoot


class TestLargeSchema:
    def test_paper_query_on_43_relations(self, movie_db):
        translator = SchemaFreeTranslator(movie_db)
        best = translator.translate_best(PAPER_QUERY)
        sql = best.sql.lower()
        assert "person" in sql and "movie_producer" in sql

    def test_exact_sql_round_trip_on_large_schema(self, movie_db):
        translator = SchemaFreeTranslator(movie_db)
        gold = (
            "SELECT p.name FROM person p, director d "
            "WHERE p.person_id = d.person_id AND d.movie_id = 1"
        )
        best = translator.translate_best(gold)
        assert sorted(movie_db.execute(best.query).rows) == sorted(
            movie_db.execute(gold).rows
        )

    def test_fuzzy_everything(self, movie_db):
        translator = SchemaFreeTranslator(movie_db)
        best = translator.translate_best(
            "SELECT films?.title? WHERE films?.release_year? = 1997"
        )
        rows = movie_db.execute(best.query).rows
        gold = movie_db.execute(
            "SELECT title FROM movie WHERE release_year = 1997"
        ).rows
        assert sorted(rows) == sorted(gold)


class TestErrorReporting:
    def test_error_message_names_the_tree(self, fig1_db):
        translator = SchemaFreeTranslator(
            fig1_db, TranslatorConfig(kdef=0.0)
        )
        with pytest.raises(TranslationError) as exc_info:
            translator.translate_best("SELECT zzzqqqxxx?.wwwvvv?")
        assert "rt1" in str(exc_info.value)

    def test_deep_nesting_rejected_as_syntax_error(self, fig1_translator):
        deep = "SELECT title? WHERE year? > " + "(" * 200 + "1" + ")" * 200
        with pytest.raises(SqlSyntaxError, match="nested deeper") as exc_info:
            fig1_translator.translate(deep)
        assert exc_info.value.position > 0

    def test_non_query_ast_rejected(self, fig1_translator):
        with pytest.raises(TranslationError):
            fig1_translator.translate(ast.Literal(1))
