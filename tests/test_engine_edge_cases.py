"""Engine edge cases: nulls, joins, ordering, and failure paths."""

import pytest

from repro import Catalog, Database, DataType
from repro.engine import ExecutionError, NameResolutionError


@pytest.fixture()
def nullable_db():
    catalog = Catalog("nulls")
    catalog.create_relation(
        "t",
        [
            ("id", DataType.INTEGER),
            ("v", DataType.INTEGER),
            ("s", DataType.TEXT),
        ],
        primary_key=["id"],
    )
    catalog.create_relation(
        "u", [("id", DataType.INTEGER), ("t_id", DataType.INTEGER)]
    )
    db = Database(catalog)
    db.insert_many(
        "t",
        [
            [1, 10, "a"],
            [2, None, "b"],
            [3, 30, None],
            [4, None, None],
        ],
    )
    db.insert_many("u", [[1, 1], [2, 1], [3, None], [4, 99]])
    return db


class TestNullSemantics:
    def test_where_drops_unknown(self, nullable_db):
        result = nullable_db.execute("SELECT id FROM t WHERE v > 5")
        assert {r[0] for r in result} == {1, 3}

    def test_not_of_unknown_still_drops(self, nullable_db):
        result = nullable_db.execute("SELECT id FROM t WHERE NOT v > 5")
        assert result.rows == []

    def test_is_null_finds_them(self, nullable_db):
        result = nullable_db.execute("SELECT id FROM t WHERE v IS NULL ORDER BY id")
        assert [r[0] for r in result] == [2, 4]

    def test_null_never_joins(self, nullable_db):
        result = nullable_db.execute(
            "SELECT count(*) FROM t, u WHERE t.id = u.t_id"
        )
        assert result.scalar() == 2  # u rows with t_id NULL / 99 don't match

    def test_aggregate_ignores_nulls(self, nullable_db):
        row = nullable_db.execute("SELECT count(v), count(*), avg(v) FROM t").rows[0]
        assert row == (2, 4, 20.0)

    def test_group_by_null_key_groups_together(self, nullable_db):
        result = nullable_db.execute(
            "SELECT v, count(*) FROM t GROUP BY v"
        )
        groups = dict(result.rows)
        assert groups[None] == 2

    def test_order_by_nulls_last_ascending(self, nullable_db):
        result = nullable_db.execute("SELECT v FROM t ORDER BY v")
        values = [r[0] for r in result]
        assert values == [10, 30, None, None]

    def test_coalesce_in_projection(self, nullable_db):
        result = nullable_db.execute(
            "SELECT coalesce(s, 'missing') FROM t ORDER BY id"
        )
        assert [r[0] for r in result] == ["a", "b", "missing", "missing"]


class TestJoinShapes:
    def test_left_join_keeps_all_left_rows(self, nullable_db):
        result = nullable_db.execute(
            "SELECT t.id, u.id FROM t LEFT JOIN u ON t.id = u.t_id "
            "ORDER BY t.id"
        )
        left_ids = [r[0] for r in result]
        assert set(left_ids) == {1, 2, 3, 4}
        # t.id=1 matched twice, others padded with NULL
        assert left_ids.count(1) == 2

    def test_right_join_mirrors_left(self, nullable_db):
        result = nullable_db.execute(
            "SELECT t.id, u.id FROM t RIGHT JOIN u ON t.id = u.t_id"
        )
        right_ids = sorted(r[1] for r in result)
        assert right_ids == [1, 2, 3, 4]

    def test_cross_join_explicit(self, nullable_db):
        result = nullable_db.execute("SELECT count(*) FROM t CROSS JOIN u")
        assert result.scalar() == 16

    def test_join_on_expression(self, nullable_db):
        result = nullable_db.execute(
            "SELECT count(*) FROM t JOIN u ON t.id + 0 = u.t_id"
        )
        assert result.scalar() == 2

    def test_three_way_mixed_syntax(self, nullable_db):
        result = nullable_db.execute(
            "SELECT count(*) FROM t, u WHERE t.id = u.t_id AND t.v IS NOT NULL"
        )
        assert result.scalar() == 2


class TestErrorPaths:
    def test_unknown_table(self, nullable_db):
        with pytest.raises(Exception):
            nullable_db.execute("SELECT x FROM ghost")

    def test_unknown_column(self, nullable_db):
        with pytest.raises(NameResolutionError):
            nullable_db.execute("SELECT ghost FROM t")

    def test_ambiguous_column(self, nullable_db):
        with pytest.raises(NameResolutionError):
            nullable_db.execute("SELECT id FROM t, u WHERE t.id = u.t_id")

    def test_aggregate_in_where_rejected(self, nullable_db):
        with pytest.raises(ExecutionError):
            nullable_db.execute("SELECT id FROM t WHERE count(*) > 1")

    def test_having_without_group_or_aggregate(self, nullable_db):
        with pytest.raises(ExecutionError):
            nullable_db.execute("SELECT id FROM t HAVING id > 1")

    def test_order_by_position_out_of_range(self, nullable_db):
        with pytest.raises(ExecutionError):
            nullable_db.execute("SELECT id FROM t ORDER BY 9")

    def test_star_with_unknown_qualifier(self, nullable_db):
        with pytest.raises(NameResolutionError):
            nullable_db.execute("SELECT ghost.* FROM t")


class TestLazyErrors:
    """Planning compiles every expression up front, but an error is
    raised only when its expression runs on some row."""

    def test_ambiguous_column_raises_only_when_there_are_rows(self, nullable_db):
        sql = "SELECT id FROM t, u WHERE t.v = 77"
        assert nullable_db.execute(sql).rows == []
        nullable_db.insert("t", [5, 77, "z"])
        with pytest.raises(NameResolutionError, match="ambiguous column 'id'"):
            nullable_db.execute(sql)

    def test_unknown_column_over_no_rows_is_no_error(self, nullable_db):
        assert nullable_db.execute("SELECT ghost FROM t WHERE id < 0").rows == []

    def test_bad_order_position_over_no_rows_is_no_error(self, nullable_db):
        result = nullable_db.execute("SELECT id FROM t WHERE id < 0 ORDER BY 9")
        assert result.rows == []


class TestProjectionDetails:
    def test_expression_column_names(self, nullable_db):
        result = nullable_db.execute("SELECT v + 1 AS bumped, v FROM t LIMIT 1")
        assert result.columns == ["bumped", "v"]

    def test_case_in_projection(self, nullable_db):
        result = nullable_db.execute(
            "SELECT CASE WHEN v IS NULL THEN 'none' ELSE 'some' END FROM t "
            "ORDER BY id"
        )
        assert [r[0] for r in result] == ["some", "none", "some", "none"]

    def test_scalar_subquery_in_projection(self, nullable_db):
        result = nullable_db.execute(
            "SELECT id, (SELECT max(v) FROM t) FROM t WHERE id = 1"
        )
        assert result.rows == [(1, 30)]

    def test_distinct_on_expressions(self, nullable_db):
        result = nullable_db.execute("SELECT DISTINCT v IS NULL FROM t")
        assert len(result) == 2

    def test_group_by_expression(self, nullable_db):
        result = nullable_db.execute(
            "SELECT v IS NULL, count(*) FROM t GROUP BY v IS NULL"
        )
        assert dict(result.rows) == {True: 2, False: 2}
