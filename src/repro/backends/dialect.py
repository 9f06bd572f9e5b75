"""Lower composed standard SQL to SQLite's dialect.

The engine's SQL surface is close to SQLite's but not identical.  Rather
than special-casing the renderer, we rewrite the AST before rendering so
the differences are explicit and testable:

* ``/`` and ``%`` become calls to the ``repro_div`` / ``repro_mod``
  user-defined functions registered on every :class:`~repro.backends.
  sqlite.SqliteBackend` connection.  SQLite's native operators diverge
  from the engine (``1/0`` is NULL, ``7/2`` is 3, float modulo truncates);
  the UDFs implement the engine's semantics — error on zero, exact
  integer division stays integral, Python modulo — which DESIGN.md §12
  fixes as the project-wide behavior.
* ``expr = ANY (subquery)`` and ``expr <> ALL (subquery)`` become
  ``IN`` / ``NOT IN`` — SQLite has no quantified comparisons.  Other
  quantifier/operator combinations raise :class:`UnsupportedSqlError`
  so the divergence is a typed failure, not silently wrong rows.

* Every ``ORDER BY`` item gets an explicit NULL placement: ``NULLS
  LAST`` ascending and ``NULLS FIRST`` descending, the engine's order
  (NULL sorts above every value).  Stock SQLite sorts NULL below every
  value, so ``ORDER BY v LIMIT 1`` would otherwise pick a NULL row on
  SQLite and a value on the engine.

Scalar-function parity (``round`` half-even, missing ``concat``,
case-sensitive ``LIKE``) is handled by UDF registration in the backend,
not by rewriting, since the names already match.
"""

from __future__ import annotations

import dataclasses

from ..engine.errors import ExecutionError
from ..sqlkit import ast
from ..sqlkit.render import render


class UnsupportedSqlError(ExecutionError):
    """A construct with no faithful SQLite lowering (e.g. ``< ALL``)."""


def _rewrite(node: ast.Node) -> "ast.Node | None":
    if isinstance(node, ast.OrderItem) and node.nulls is None:
        return dataclasses.replace(
            node, nulls="last" if node.ascending else "first"
        )
    if isinstance(node, ast.BinaryOp) and node.op == "/":
        return ast.FuncCall("repro_div", (node.left, node.right))
    if isinstance(node, ast.BinaryOp) and node.op == "%":
        return ast.FuncCall("repro_mod", (node.left, node.right))
    if isinstance(node, ast.QuantifiedCompare):
        if node.quantifier == "any" and node.op == "=":
            return ast.InSubquery(node.expr, node.query, negated=False)
        if node.quantifier == "all" and node.op == "<>":
            return ast.InSubquery(node.expr, node.query, negated=True)
        raise UnsupportedSqlError(
            f"cannot lower {node.op} {node.quantifier.upper()} to SQLite; "
            "only = ANY and <> ALL have IN-subquery equivalents"
        )
    return None


def lower(node: ast.Node) -> ast.Node:
    """Rewrite *node* into SQLite-executable form (pure; engine AST in/out)."""
    return ast.transform(node, _rewrite)


def to_sqlite_sql(query: ast.Node) -> str:
    """Render *query* as SQL text SQLite will accept with our UDFs loaded."""
    return render(lower(query))
