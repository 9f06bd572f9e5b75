"""Unit tests for the SQL / Schema-free SQL parser."""

import pytest

from repro.sqlkit import SqlSyntaxError, ast, parse, parse_expression
from repro.sqlkit.parser import MAX_NESTING


class TestSelectStructure:
    def test_minimal_select(self):
        query = parse("SELECT a FROM t")
        assert isinstance(query, ast.Select)
        assert len(query.items) == 1
        assert isinstance(query.from_items[0], ast.TableRef)

    def test_select_without_from(self):
        query = parse("SELECT name? WHERE year? > 1995")
        assert query.from_items == ()
        assert query.where is not None

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct
        assert not parse("SELECT ALL a FROM t").distinct

    def test_star(self):
        query = parse("SELECT * FROM t")
        assert isinstance(query.items[0].expr, ast.Star)

    def test_qualified_star(self):
        query = parse("SELECT t.* FROM t")
        star = query.items[0].expr
        assert isinstance(star, ast.Star) and star.qualifier.text == "t"

    def test_aliases(self):
        query = parse("SELECT a AS x, b y FROM t AS u, v w")
        assert query.items[0].alias == "x"
        assert query.items[1].alias == "y"
        assert query.from_items[0].alias == "u"
        assert query.from_items[1].alias == "w"

    def test_group_by_having(self):
        query = parse(
            "SELECT g, count(*) FROM t GROUP BY g HAVING count(*) > 2"
        )
        assert len(query.group_by) == 1
        assert query.having is not None

    def test_order_by_directions(self):
        query = parse("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [item.ascending for item in query.order_by] == [
            False,
            True,
            True,
        ]

    def test_limit_offset(self):
        query = parse("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert query.limit == 10 and query.offset == 5

    def test_semicolon_tolerated(self):
        parse("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t garbage! garbage")

    def test_union(self):
        query = parse("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(query, ast.SetOp) and not query.all

    def test_union_all(self):
        query = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert query.all

    def test_explicit_join(self):
        query = parse("SELECT a FROM t JOIN u ON t.id = u.id LEFT JOIN v ON u.x = v.x")
        join = query.from_items[0]
        assert isinstance(join, ast.Join) and join.kind == "left"
        assert isinstance(join.left, ast.Join) and join.left.kind == "inner"


def nested(depth: int) -> dict[str, str]:
    """Queries over the Figure 1 schema whose nesting grows with *depth*,
    one per construct."""
    where = "SELECT title FROM Movie WHERE "
    return {
        "parentheses": where + "release_year > " + "(" * depth + "1" + ")" * depth,
        "signs": where + "release_year > " + "- " * depth + "1",
        "not": where + "NOT " * depth + "release_year > 1",
        "and chain": where + " AND ".join(["release_year > 1"] * depth),
        "sum chain": "SELECT " + " + ".join(["release_year"] * depth) + " FROM Movie",
        "union chain": " UNION ".join(["SELECT title FROM Movie"] * depth),
        "sub-queries": where + "movie_id IN "
        + "(SELECT movie_id FROM Movie WHERE movie_id IN " * depth
        + "(SELECT movie_id FROM Movie)" + ")" * depth,
    }


def deepest_accepted(construct: str) -> tuple[int, str]:
    depth = 1
    while True:
        try:
            parse(nested(depth + 1)[construct])
        except SqlSyntaxError:
            return depth, nested(depth)[construct]
        depth += 1


class TestNestingLimit:
    @pytest.mark.parametrize("construct", sorted(nested(1)))
    def test_deep_input_raises_syntax_error_with_position(self, construct):
        sql = nested(400)[construct]
        with pytest.raises(SqlSyntaxError, match="nested deeper") as exc_info:
            parse(sql)
        assert 0 < exc_info.value.position < len(sql)

    @pytest.mark.parametrize("construct", sorted(nested(1)))
    def test_deepest_accepted_query_executes_and_translates(
        self, construct, fig1_db, fig1_translator
    ):
        depth, sql = deepest_accepted(construct)
        assert depth > MAX_NESTING // 4
        fig1_db.execute(sql)
        fig1_translator.translate(sql, top_k=1)

    def test_database_execute_rejects_deep_text(self, fig1_db):
        with pytest.raises(SqlSyntaxError, match="nested deeper"):
            fig1_db.execute(nested(400)["parentheses"])


class TestExpressions:
    def test_precedence_and_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "and"

    def test_parentheses_override(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        assert expr.op == "and"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "not"

    def test_between(self):
        expr = parse_expression("y BETWEEN 1995 AND 2005")
        assert isinstance(expr, ast.Between)

    def test_not_between(self):
        expr = parse_expression("y NOT BETWEEN 1 AND 2")
        assert expr.negated

    def test_in_list(self):
        expr = parse_expression("g IN ('a', 'b')")
        assert isinstance(expr, ast.InList) and len(expr.items) == 2

    def test_in_subquery(self):
        expr = parse_expression("x IN (SELECT id FROM t)")
        assert isinstance(expr, ast.InSubquery)

    def test_like(self):
        expr = parse_expression("title LIKE '%Star%'")
        assert isinstance(expr, ast.Like)

    def test_is_null_and_not_null(self):
        assert not parse_expression("x IS NULL").negated
        assert parse_expression("x IS NOT NULL").negated

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.Exists)

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT max(y) FROM t)")
        assert isinstance(expr, ast.ScalarSubquery)

    def test_quantified_any(self):
        expr = parse_expression("x > ANY (SELECT y FROM t)")
        assert isinstance(expr, ast.QuantifiedCompare)
        assert expr.quantifier == "any"

    def test_case_searched(self):
        expr = parse_expression(
            "CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END"
        )
        assert isinstance(expr, ast.Case) and expr.operand is None

    def test_case_simple(self):
        expr = parse_expression("CASE x WHEN 1 THEN 'one' END")
        assert expr.operand is not None

    def test_function_call(self):
        expr = parse_expression("count(DISTINCT name)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "count" and expr.distinct

    def test_count_star(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_not_equal_normalised(self):
        assert parse_expression("a != 1").op == "<>"

    def test_null_literal(self):
        assert parse_expression("NULL").value is None


class TestSchemaFreeForms:
    def test_guessed_column(self):
        expr = parse_expression("year?")
        assert isinstance(expr, ast.ColumnRef)
        assert expr.attribute.certainty is ast.Certainty.GUESS

    def test_guessed_qualified(self):
        expr = parse_expression("actor?.name?")
        assert expr.relation.certainty is ast.Certainty.GUESS
        assert expr.attribute.certainty is ast.Certainty.GUESS

    def test_mixed_certainty(self):
        expr = parse_expression("actor.name?")
        assert expr.relation.certainty is ast.Certainty.EXACT
        assert expr.attribute.certainty is ast.Certainty.GUESS

    def test_var_placeholder_shared(self):
        query = parse("SELECT ?x.a WHERE ?x.b = 1")
        refs = [n for n in query.walk() if isinstance(n, ast.ColumnRef)]
        assert all(r.relation.certainty is ast.Certainty.VAR for r in refs)
        assert refs[0].relation.text == refs[1].relation.text == "x"

    def test_anonymous_placeholders_unique(self):
        query = parse("SELECT ? , ? FROM t")
        refs = [n for n in query.walk() if isinstance(n, ast.ColumnRef)]
        assert refs[0].attribute.text != refs[1].attribute.text
        assert all(
            r.attribute.certainty is ast.Certainty.ANON for r in refs
        )

    def test_guessed_table_in_from(self):
        query = parse("SELECT a FROM movies? m")
        table = query.from_items[0]
        assert table.name.certainty is ast.Certainty.GUESS
        assert table.alias == "m"

    def test_paper_figure2_query(self):
        query = parse(
            "SELECT count(actor?.name?) WHERE actor?.gender? = 'male' "
            "and director_name? = 'James Cameron' "
            "and produce_company? = '20th Century Fox' "
            "and year? > 1995 and year? < 2005"
        )
        assert query.from_items == ()
        guesses = [
            n
            for n in query.walk()
            if isinstance(n, ast.ColumnRef)
            and n.attribute.certainty is ast.Certainty.GUESS
        ]
        assert len(guesses) == 6


class TestAstUtilities:
    def test_walk_covers_subqueries(self):
        query = parse("SELECT a FROM t WHERE x IN (SELECT y FROM u)")
        tables = [n for n in query.walk() if isinstance(n, ast.TableRef)]
        assert {t.name.text for t in tables} == {"t", "u"}

    def test_subqueries_of_first_level_only(self):
        query = parse(
            "SELECT a FROM t WHERE x IN "
            "(SELECT y FROM u WHERE z IN (SELECT w FROM v))"
        )
        direct = list(ast.subqueries_of(query))
        assert len(direct) == 1
        nested = list(ast.subqueries_of(direct[0]))
        assert len(nested) == 1

    def test_transform_replaces_nodes(self):
        expr = parse_expression("a + 1")

        def bump(node):
            if isinstance(node, ast.Literal) and node.value == 1:
                return ast.Literal(2)
            return None

        new = ast.transform(expr, bump)
        assert new.right.value == 2
        assert expr.right.value == 1  # original untouched
