"""Integration tests for query execution against the Figure 1 database."""

import collections

import pytest

from repro import Database
from repro.backends.sqlite import SqliteBackend
from repro.datasets import make_movie_database
from repro.engine import ExecutionError
from repro.engine.database import STATEMENT_CACHE_SIZE
from repro.engine.executor import _Statement
from repro.engine.io import export_to_sqlite
from repro.sqlkit import SqlSyntaxError, parse
from repro.testing.differential import normalize_rows
from repro.workloads.textbook import TEXTBOOK_QUERIES

from tests.conftest import make_fig1_catalog, populate_fig1

# NOTE: fig1_db rows are defined in conftest.py:
#   Titanic (1997, dir Cameron, actors DiCaprio+Winslet, Fox+Paramount)
#   Avatar (2009, dir Cameron, actor Worthington, Fox)
#   The Terminal (2004, dir Spielberg, actor Hanks, DreamWorks)


class TestSelection:
    def test_simple_filter(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title FROM Movie WHERE release_year > 2000 ORDER BY title"
        )
        assert result.rows == [("Avatar",), ("The Terminal",)]

    def test_projection_order_and_names(self, fig1_db):
        result = fig1_db.execute("SELECT release_year, title FROM Movie LIMIT 1")
        assert result.columns == ["release_year", "title"]

    def test_star_expansion(self, fig1_db):
        result = fig1_db.execute("SELECT * FROM Company ORDER BY company_id")
        assert result.columns == ["company_id", "name"]
        assert len(result) == 3

    def test_distinct(self, fig1_db):
        result = fig1_db.execute("SELECT DISTINCT movie_id FROM Movie_Producer")
        assert len(result) == 3

    def test_limit_offset(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title FROM Movie ORDER BY release_year LIMIT 1 OFFSET 1"
        )
        assert result.rows == [("The Terminal",)]

    def test_between(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title FROM Movie WHERE release_year BETWEEN 1995 AND 2005"
        )
        assert {r[0] for r in result} == {"Titanic", "The Terminal"}

    def test_like(self, fig1_db):
        result = fig1_db.execute("SELECT name FROM Person WHERE name LIKE '%Cameron%'")
        assert result.rows == [("James Cameron",)]

    def test_select_constant_without_from(self, fig1_db):
        assert fig1_db.execute("SELECT 1 + 1").scalar() == 2


class TestJoins:
    def test_two_way_join(self, fig1_db):
        result = fig1_db.execute(
            "SELECT p.name FROM Person p, Director d, Movie m "
            "WHERE p.person_id = d.person_id AND d.movie_id = m.movie_id "
            "AND m.title = 'Titanic'"
        )
        assert result.rows == [("James Cameron",)]

    def test_self_join_via_aliases(self, fig1_db):
        # actors who worked with director Cameron
        result = fig1_db.execute(
            "SELECT DISTINCT pa.name FROM Person pa, Actor a, Movie m, "
            "Director d, Person pd "
            "WHERE pa.person_id = a.person_id AND a.movie_id = m.movie_id "
            "AND m.movie_id = d.movie_id AND d.person_id = pd.person_id "
            "AND pd.name = 'James Cameron' ORDER BY pa.name"
        )
        assert result.rows == [
            ("Kate Winslet",),
            ("Leonardo DiCaprio",),
            ("Sam Worthington",),
        ]

    def test_explicit_inner_join(self, fig1_db):
        result = fig1_db.execute(
            "SELECT m.title FROM Director d JOIN Movie m "
            "ON d.movie_id = m.movie_id JOIN Person p "
            "ON p.person_id = d.person_id WHERE p.name = 'Steven Spielberg'"
        )
        assert result.rows == [("The Terminal",)]

    def test_left_join_pads_nulls(self, fig1_db):
        # every person, with their directed movie titles where any
        result = fig1_db.execute(
            "SELECT p.name, d.movie_id FROM Person p LEFT JOIN Director d "
            "ON p.person_id = d.person_id WHERE p.name = 'Tom Hanks'"
        )
        assert result.rows == [("Tom Hanks", None)]

    def test_cross_join_count(self, fig1_db):
        result = fig1_db.execute(
            "SELECT count(*) FROM Company, Movie"
        )
        assert result.scalar() == 9

    def test_duplicate_binding_rejected(self, fig1_db):
        with pytest.raises(ExecutionError):
            fig1_db.execute("SELECT 1 FROM Movie, Movie")

    def test_seven_relation_paper_query(self, fig1_db):
        result = fig1_db.execute(
            "SELECT count(P1.name) FROM Person AS P1, Person AS P2, Actor, "
            "Director, Movie, Movie_Producer, Company "
            "WHERE P1.gender = 'male' AND P2.name = 'James Cameron' "
            "AND Company.name = '20th Century Fox' "
            "AND Movie.release_year > 1995 AND Movie.release_year < 2005 "
            "AND P1.person_id = Actor.person_id "
            "AND Actor.movie_id = Movie.movie_id "
            "AND Movie.movie_id = Director.movie_id "
            "AND Director.person_id = P2.person_id "
            "AND Movie.movie_id = Movie_Producer.movie_id "
            "AND Movie_Producer.company_id = Company.company_id"
        )
        assert result.scalar() == 1  # DiCaprio in Titanic


class TestAggregation:
    def test_count_star(self, fig1_db):
        assert fig1_db.execute("SELECT count(*) FROM Person").scalar() == 6

    def test_count_distinct(self, fig1_db):
        assert (
            fig1_db.execute(
                "SELECT count(DISTINCT person_id) FROM Director"
            ).scalar()
            == 2
        )

    def test_group_by_with_having(self, fig1_db):
        result = fig1_db.execute(
            "SELECT p.name, count(*) AS n FROM Person p, Director d "
            "WHERE p.person_id = d.person_id "
            "GROUP BY p.name HAVING count(*) > 1"
        )
        assert result.rows == [("James Cameron", 2)]

    def test_aggregates_min_max_avg_sum(self, fig1_db):
        result = fig1_db.execute(
            "SELECT min(release_year), max(release_year), "
            "avg(release_year), sum(release_year) FROM Movie"
        )
        low, high, mean, total = result.rows[0]
        assert (low, high, total) == (1997, 2009, 6010)
        assert abs(mean - 6010 / 3) < 1e-9

    def test_aggregate_over_empty_input(self, fig1_db):
        result = fig1_db.execute(
            "SELECT count(*), max(release_year) FROM Movie "
            "WHERE release_year > 3000"
        )
        assert result.rows == [(0, None)]

    def test_group_by_orders_via_aggregate(self, fig1_db):
        result = fig1_db.execute(
            "SELECT c.name, count(*) AS n FROM Company c, Movie_Producer mp "
            "WHERE c.company_id = mp.company_id "
            "GROUP BY c.name ORDER BY n DESC, c.name"
        )
        assert result.rows[0] == ("20th Century Fox", 2)

    def test_arithmetic_over_aggregates(self, fig1_db):
        result = fig1_db.execute(
            "SELECT max(release_year) - min(release_year) FROM Movie"
        )
        assert result.scalar() == 12


class TestSubqueries:
    def test_uncorrelated_in(self, fig1_db):
        result = fig1_db.execute(
            "SELECT name FROM Person WHERE person_id IN "
            "(SELECT person_id FROM Director) ORDER BY name"
        )
        assert result.rows == [("James Cameron",), ("Steven Spielberg",)]

    def test_correlated_exists(self, fig1_db):
        result = fig1_db.execute(
            "SELECT p.name FROM Person p WHERE EXISTS "
            "(SELECT 1 FROM Actor a WHERE a.person_id = p.person_id) "
            "ORDER BY p.name"
        )
        assert len(result) == 4

    def test_scalar_subquery_comparison(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title FROM Movie WHERE release_year = "
            "(SELECT max(release_year) FROM Movie)"
        )
        assert result.rows == [("Avatar",)]

    def test_quantified_all(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title FROM Movie WHERE release_year >= ALL "
            "(SELECT release_year FROM Movie)"
        )
        assert result.rows == [("Avatar",)]

    def test_scalar_subquery_multiple_rows_raises(self, fig1_db):
        with pytest.raises(ExecutionError):
            fig1_db.execute(
                "SELECT title FROM Movie WHERE release_year = "
                "(SELECT release_year FROM Movie)"
            )

    def test_nested_two_levels(self, fig1_db):
        result = fig1_db.execute(
            "SELECT name FROM Person WHERE person_id IN "
            "(SELECT person_id FROM Actor WHERE movie_id IN "
            "(SELECT movie_id FROM Movie WHERE release_year < 2000))"
            "ORDER BY name"
        )
        assert result.rows == [("Kate Winslet",), ("Leonardo DiCaprio",)]


class TestSetOps:
    def test_union_dedupes(self, fig1_db):
        result = fig1_db.execute(
            "SELECT person_id FROM Director UNION SELECT person_id FROM Director"
        )
        assert len(result) == 2

    def test_union_all_keeps_duplicates(self, fig1_db):
        result = fig1_db.execute(
            "SELECT person_id FROM Director UNION ALL "
            "SELECT person_id FROM Director"
        )
        assert len(result) == 6

    def test_union_arity_mismatch_raises(self, fig1_db):
        with pytest.raises(ExecutionError):
            fig1_db.execute("SELECT 1 UNION SELECT 1, 2")


class TestOrdering:
    def test_nulls_last_ascending(self, fig1_db):
        result = fig1_db.execute(
            "SELECT p.name, d.movie_id FROM Person p LEFT JOIN Director d "
            "ON p.person_id = d.person_id ORDER BY d.movie_id, p.name"
        )
        assert result.rows[-1][1] is None

    def test_order_by_position(self, fig1_db):
        result = fig1_db.execute("SELECT title, release_year FROM Movie ORDER BY 2")
        assert result.rows[0][1] == 1997

    def test_order_by_alias(self, fig1_db):
        result = fig1_db.execute(
            "SELECT title AS t FROM Movie ORDER BY t DESC"
        )
        assert result.rows[0] == ("Titanic",)


class TestSchemaFreeRejection:
    def test_guessed_names_rejected_by_engine(self, fig1_db):
        with pytest.raises(ExecutionError):
            fig1_db.execute("SELECT name? FROM Movie")

    def test_guessed_table_rejected(self, fig1_db):
        with pytest.raises(ExecutionError):
            fig1_db.execute("SELECT title FROM movies?")


# ---------------------------------------------------------------------------
# sub-query evaluation: uncorrelated once per statement, correlated per row
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def movies():
    db = make_movie_database()
    return db, SqliteBackend(export_to_sqlite(db, ":memory:"))


@pytest.fixture()
def runs(monkeypatch):
    """Counts pipeline runs per query node, keyed by ``id(node)``."""
    counts: collections.Counter = collections.Counter()
    original = _Statement.execute

    def counting(self, query, scope=None):
        counts[id(query)] += 1
        return original(self, query, scope)

    monkeypatch.setattr(_Statement, "execute", counting)
    return counts


def gold(qid):
    return next(q.gold_sql for q in TEXTBOOK_QUERIES if q.qid == qid)


def run_and_compare(movies, sql):
    """Execute *sql* as an AST on the engine, check its row multiset
    against SQLite, and return the AST and the engine's rows."""
    db, sqlite = movies
    tree = parse(sql)
    rows = db.execute(tree).rows
    assert normalize_rows(rows) == normalize_rows(sqlite.execute(sql).rows)
    return tree, rows


class TestSubqueryEvaluation:
    def test_nested_uncorrelated_in_runs_each_block_once(self, movies, runs):
        outer, rows = run_and_compare(movies, gold("T12"))
        middle = outer.where.query
        inner = middle.where.query
        assert rows
        assert [runs[id(outer)], runs[id(middle)], runs[id(inner)]] == [1, 1, 1]

    def test_unqualified_local_column_is_uncorrelated(self, movies, runs):
        outer, rows = run_and_compare(
            movies,
            "SELECT title FROM movie WHERE movie_id IN "
            "(SELECT movie_id FROM director)",
        )
        assert rows and runs[id(outer.where.query)] == 1

    def test_correlated_exists_runs_per_outer_row(self, movies, runs):
        outer, rows = run_and_compare(movies, gold("T13"))
        assert rows
        assert runs[id(outer.where.query)] == movies[0].count("person")

    def test_middle_block_correlated_through_its_inner_block(self, movies, runs):
        outer, rows = run_and_compare(
            movies,
            "SELECT m.title FROM movie m WHERE m.release_year = 2010 "
            "AND m.movie_id IN "
            "(SELECT d.movie_id FROM director d WHERE d.person_id IN "
            "(SELECT p.person_id FROM person p "
            "WHERE p.birth_year < m.release_year))",
        )
        middle = outer.where.right.query
        inner = middle.where.query
        assert rows
        assert runs[id(middle)] == 2  # once per movie of 2010
        assert runs[id(inner)] > runs[id(middle)]

    def test_unqualified_outer_only_column_is_correlated(self, movies, runs):
        # birth_year exists only in the outer block's person
        outer, rows = run_and_compare(
            movies,
            "SELECT p.name FROM person p WHERE EXISTS "
            "(SELECT 1 FROM movie m WHERE m.release_year = birth_year + 40)",
        )
        assert rows
        assert runs[id(outer.where.query)] == movies[0].count("person")

    def test_scalar_and_quantified_subqueries_run_once(self, movies, runs):
        outer, rows = run_and_compare(movies, gold("T14"))
        assert rows and runs[id(outer.where.right.query)] == 1
        db, _ = movies
        tree = parse(
            "SELECT title FROM movie WHERE gross >= ALL "
            "(SELECT gross FROM movie WHERE gross IS NOT NULL)"
        )
        assert db.execute(tree).rows == db.execute(gold("T14")).rows
        assert runs[id(tree.where.query)] == 1

    def test_subqueries_in_union_branches_run_once(self, movies, runs):
        outer, rows = run_and_compare(
            movies,
            "SELECT name FROM person WHERE person_id IN "
            "(SELECT person_id FROM director) UNION "
            "SELECT name FROM person WHERE person_id IN "
            "(SELECT person_id FROM actor)",
        )
        assert rows
        assert runs[id(outer.left.where.query)] == 1
        assert runs[id(outer.right.where.query)] == 1

    def test_not_in_over_a_null_yields_no_rows(self, movies, runs):
        outer, rows = run_and_compare(
            movies,
            "SELECT title FROM movie WHERE movie_id NOT IN "
            "(SELECT sequel_of FROM movie)",
        )
        assert rows == [] and runs[id(outer.where.query)] == 1

    def test_scalar_subquery_over_no_rows_is_null(self, movies, runs):
        outer, rows = run_and_compare(
            movies,
            "SELECT title, (SELECT release_year FROM movie WHERE movie_id < 0) "
            "FROM movie",
        )
        assert rows and all(row[1] is None for row in rows)
        assert runs[id(outer.items[1].expr.query)] == 1

    def test_scalar_subquery_with_many_rows_still_raises(self, movies, runs):
        tree = parse(
            "SELECT title FROM movie WHERE release_year = "
            "(SELECT release_year FROM movie)"
        )
        with pytest.raises(ExecutionError, match="more than one row"):
            movies[0].execute(tree)
        assert runs[id(tree.where.right.query)] == 1

    def test_rows_are_kept_per_statement_only(self, runs):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        tree = parse(
            "SELECT name FROM Person WHERE person_id IN "
            "(SELECT person_id FROM Director) ORDER BY name"
        )
        before = db.execute(tree).rows
        db.insert("Director", [5, 12])
        after = db.execute(tree).rows
        assert before == [("James Cameron",), ("Steven Spielberg",)]
        assert after == [("James Cameron",), ("Steven Spielberg",), ("Tom Hanks",)]
        assert runs[id(tree.where.query)] == 2


class TestPreparedStatements:
    """Database.execute(text) parses and plans a text once and reuses it;
    plans hold no rows, so writes need not invalidate them."""

    SQL = (
        "SELECT name FROM Person WHERE person_id IN "
        "(SELECT person_id FROM Director) ORDER BY name"
    )

    def test_plan_reused_across_a_write_sees_the_new_row(self, runs):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        before = db.execute(self.SQL).rows
        prepared = db._prepared(self.SQL)
        db.insert("Director", [5, 12])
        after = db.execute(self.SQL).rows
        assert db._prepared(self.SQL) is prepared
        assert before == [("James Cameron",), ("Steven Spielberg",)]
        assert after == [("James Cameron",), ("Steven Spielberg",), ("Tom Hanks",)]
        inner = prepared.query.where.query
        assert runs[id(inner)] == 2  # once per statement, never reused

    def test_map_is_bounded(self):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        texts = [
            f"SELECT title FROM Movie WHERE release_year > {year}"
            for year in range(STATEMENT_CACHE_SIZE + 10)
        ]
        for text in texts:
            db.execute(text)
        assert len(db._statements) == STATEMENT_CACHE_SIZE
        assert texts[0] not in db._statements and texts[-1] in db._statements

    def test_syntax_errors_are_not_kept(self):
        db = Database(make_fig1_catalog())
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT FROM WHERE")
        assert not db._statements


class TestJoinAndAggregateCorners:
    """WHERE over explicit joins, outer-join padding and aggregates over
    no rows, checked against SQLite."""

    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
    def test_where_equality_inside_one_join_item_is_applied(self, movies, kind):
        _, rows = run_and_compare(
            movies,
            f"SELECT p.name FROM person p {kind} director d "
            "ON p.person_id = d.person_id WHERE d.movie_id = p.person_id",
        )
        assert len(rows) == 1

    def test_where_on_nullable_side_filters_after_the_join(self, movies):
        _, rows = run_and_compare(
            movies,
            "SELECT p.name FROM person p LEFT JOIN director d "
            "ON p.person_id = d.person_id WHERE d.movie_id = 99999",
        )
        assert rows == []

    def test_star_over_empty_outer_join_side(self):
        db = Database(make_fig1_catalog())
        db.insert("Company", [1, "Fox"])
        rows = db.execute(
            "SELECT * FROM Company c LEFT JOIN Movie_Producer mp "
            "ON c.company_id = mp.company_id"
        ).rows
        assert rows == [(1, "Fox", None, None)]

    def test_bare_column_of_aggregate_over_no_rows(self, movies):
        _, rows = run_and_compare(
            movies, "SELECT count(*), name FROM person WHERE person_id < 0"
        )
        assert rows == [(0, None)]
