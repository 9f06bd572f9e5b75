"""Round-trip tests for the SQL renderer."""

import pytest

from repro.sqlkit import ast, parse, parse_expression, render


def roundtrip(sql: str) -> str:
    """Render, reparse, re-render: must be a fixed point."""
    once = render(parse(sql))
    twice = render(parse(once))
    assert once == twice, f"render not stable: {once!r} vs {twice!r}"
    return once


class TestRoundTrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t",
            "SELECT DISTINCT a, b AS x FROM t AS u WHERE a = 1",
            "SELECT count(*) FROM t GROUP BY g HAVING count(*) > 2",
            "SELECT a FROM t ORDER BY a DESC LIMIT 3 OFFSET 1",
            "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND y NOT IN (1, 2)",
            "SELECT a FROM t WHERE name LIKE '%x%' OR name IS NULL",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
            "SELECT a FROM t WHERE x > ANY (SELECT y FROM u)",
            "SELECT a FROM t UNION ALL SELECT b FROM u",
            "SELECT a FROM t JOIN u ON t.id = u.id",
            "SELECT a FROM t LEFT JOIN u ON t.id = u.id",
            "SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END FROM t",
        ],
    )
    def test_fixed_point(self, sql):
        roundtrip(sql)

    def test_schema_free_markers_survive(self):
        sql = "SELECT count(actor?.name?) WHERE ?x.a? = 'v' AND year? > 1995"
        text = roundtrip(sql)
        assert "actor?.name?" in text
        assert "?x.a?" in text
        assert "year? > 1995" in text

    def test_parentheses_preserved_semantically(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        text = render(expr)
        reparsed = parse_expression(text)
        assert reparsed.op == "and"

    @pytest.mark.parametrize(
        "expr", ["NOT (a IS NULL AND b IS NULL)", "NOT (a = 1 OR b = 2)"]
    )
    def test_not_keeps_parentheses_around_and_or(self, expr):
        tree = parse_expression(expr)
        assert parse_expression(render(tree)) == tree

    def test_string_escaping(self):
        expr = parse_expression("name = 'O''Brien'")
        text = render(expr)
        assert parse_expression(text).right.value == "O'Brien"

    def test_null_and_booleans(self):
        assert render(ast.Literal(None)) == "NULL"
        assert render(ast.Literal(True)) == "TRUE"

    def test_negative_numbers(self):
        assert render(parse_expression("-5 + 3")) == "-5 + 3"

    def test_nested_arithmetic_parens(self):
        expr = parse_expression("(1 + 2) * 3")
        reparsed = parse_expression(render(expr))
        assert reparsed.op == "*"

    def test_subtraction_right_assoc_parens(self):
        # 1 - (2 - 3) must keep its parentheses
        expr = parse_expression("1 - (2 - 3)")
        text = render(expr)
        assert parse_expression(text) == expr


class TestIdentifierQuoting:
    """Reserved words and non-identifier characters must render quoted
    (and survive a parse → render → parse round-trip)."""

    def test_plain_names_unquoted(self):
        from repro.sqlkit import render_identifier

        assert render_identifier("movie") == "movie"
        assert render_identifier("release_year") == "release_year"
        assert render_identifier("Person") == "Person"
        assert render_identifier("a$b_2") == "a$b_2"

    def test_reserved_words_quoted(self):
        from repro.sqlkit import render_identifier

        assert render_identifier("order") == '"order"'
        assert render_identifier("SELECT") == '"SELECT"'
        assert render_identifier("Group") == '"Group"'

    def test_special_characters_quoted(self):
        from repro.sqlkit import render_identifier

        assert render_identifier("line item") == '"line item"'
        assert render_identifier("1st") == '"1st"'
        assert render_identifier('we"ird') == '"we""ird"'

    def test_quoted_identifier_tokenizes_back(self):
        from repro.sqlkit import tokenize
        from repro.sqlkit.tokens import TokenType

        tokens = tokenize('"order"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "order"

    def test_unterminated_quoted_identifier_rejected(self):
        from repro.sqlkit import SqlSyntaxError, tokenize

        with pytest.raises(SqlSyntaxError):
            tokenize('SELECT "order FROM t')

    @pytest.mark.parametrize(
        "sql",
        [
            'SELECT "order" FROM "select"',
            'SELECT "order"."select" FROM "order" WHERE "line item" = 1',
            'SELECT a AS "group", "we""ird" FROM t ORDER BY "order" DESC',
            'SELECT "select".* FROM "select" JOIN u ON "select".id = u.id',
        ],
    )
    def test_quoted_round_trip(self, sql):
        roundtrip(sql)

    def test_quoted_names_parse_as_exact_terms(self):
        query = parse('SELECT "order" FROM "select"')
        item = query.items[0]
        assert item.expr.attribute.text == "order"
        assert item.expr.attribute.certainty is ast.Certainty.EXACT

    def test_uncertain_terms_keep_marker_unquoted(self):
        # quoting applies only to EXACT names; `?`-marked terms keep
        # their surface form (a quoted name cannot carry a marker).
        assert roundtrip("SELECT title? FROM movie?") == (
            "SELECT title? FROM movie?"
        )
