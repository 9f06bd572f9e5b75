"""Render AST nodes back to SQL text.

Rendering is precedence-aware so round-tripping ``a AND (b OR c)`` keeps
its parentheses.  Schema-free uncertainty markers render back to their
surface forms (``foo?``, ``?x``, ``?``), so a partially-translated query
is always printable — useful for debugging and for showing the top-k
translations to the user (paper §2.2.4).
"""

from __future__ import annotations

import re
from typing import Optional

from . import ast
from .tokens import KEYWORDS

#: Names that can appear bare in SQL text; anything else must be quoted.
_PLAIN_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")

#: Binding strength; higher binds tighter.  Used to decide parentheses.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}
_PREDICATE_LEVEL = 3  # BETWEEN / IN / LIKE / IS NULL


def render(node: ast.Node) -> str:
    """Render any query or expression node to SQL text."""
    if isinstance(node, (ast.Select, ast.SetOp)):
        return _render_query(node)
    return _render_expr(node, 0)


def render_identifier(name: str) -> str:
    """Render *name* as a SQL identifier, quoting when required.

    Reserved words and names containing non-identifier characters (as in
    reflected real-world schemas — ``order``, ``line item``) are wrapped
    in double quotes with embedded ``"`` doubled, so the emitted SQL is
    accepted by SQLite and round-trips through our own tokenizer.
    """
    if _PLAIN_IDENT.match(name) and name.lower() not in KEYWORDS:
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _render_name(term: ast.NameTerm) -> str:
    """Render a NameTerm; only EXACT names are plain identifiers that may
    need quoting — uncertainty markers keep their surface forms."""
    if term.certainty is ast.Certainty.EXACT:
        return render_identifier(term.text)
    return term.render()


def _render_query(node: ast.Node) -> str:
    if isinstance(node, ast.SetOp):
        keyword = "UNION ALL" if node.all else "UNION"
        return f"{_render_query(node.left)} {keyword} {_render_query(node.right)}"
    assert isinstance(node, ast.Select)
    parts = ["SELECT"]
    if node.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(item) for item in node.items))
    if node.from_items:
        parts.append("FROM")
        parts.append(", ".join(_render_from_item(item) for item in node.from_items))
    if node.where is not None:
        parts.append("WHERE")
        parts.append(_render_expr(node.where, 0))
    if node.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(_render_expr(e, 0) for e in node.group_by))
    if node.having is not None:
        parts.append("HAVING")
        parts.append(_render_expr(node.having, 0))
    if node.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_render_order_item(item) for item in node.order_by))
    if node.limit is not None:
        parts.append(f"LIMIT {node.limit}")
        if node.offset is not None:
            parts.append(f"OFFSET {node.offset}")
    return " ".join(parts)


def _render_order_item(item: ast.OrderItem) -> str:
    text = _render_expr(item.expr, 0) + ("" if item.ascending else " DESC")
    if item.nulls is not None:
        text += f" NULLS {item.nulls.upper()}"
    return text


def _render_select_item(item: ast.SelectItem) -> str:
    text = _render_expr(item.expr, 0)
    if item.alias is not None:
        text += f" AS {render_identifier(item.alias)}"
    return text


def _render_from_item(item: ast.Node) -> str:
    if isinstance(item, ast.TableRef):
        text = _render_name(item.name)
        if item.alias is not None:
            text += f" AS {render_identifier(item.alias)}"
        return text
    if isinstance(item, ast.Join):
        left = _render_from_item(item.left)
        right = _render_from_item(item.right)
        keyword = {"inner": "JOIN", "left": "LEFT JOIN",
                   "right": "RIGHT JOIN", "cross": "CROSS JOIN"}[item.kind]
        text = f"{left} {keyword} {right}"
        if item.condition is not None:
            text += f" ON {_render_expr(item.condition, 0)}"
        return text
    raise TypeError(f"not a FROM item: {item!r}")  # pragma: no cover


def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _parenthesize(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def _render_expr(node: ast.Node, parent_level: int) -> str:
    if isinstance(node, ast.Literal):
        return _render_literal(node.value)
    if isinstance(node, ast.ColumnRef):
        text = _render_name(node.attribute)
        if node.relation is not None:
            text = f"{_render_name(node.relation)}.{text}"
        return text
    if isinstance(node, ast.Star):
        return f"{_render_name(node.qualifier)}.*" if node.qualifier else "*"
    if isinstance(node, ast.FuncCall):
        inner = ", ".join(_render_expr(a, 0) for a in node.args)
        if node.distinct:
            inner = f"DISTINCT {inner}"
        return f"{node.name}({inner})"
    if isinstance(node, ast.UnaryOp):
        if node.op == "not":
            # NOT binds tighter than AND: an AND/OR operand keeps its parens
            text = f"NOT {_render_expr(node.operand, _PRECEDENCE['and'] + 1)}"
            return _parenthesize(text, _PRECEDENCE["and"], parent_level)
        return f"{node.op}{_render_expr(node.operand, 7)}"
    if isinstance(node, ast.BinaryOp):
        level = _PRECEDENCE[node.op]
        op_text = node.op.upper() if node.op in ("and", "or") else node.op
        left = _render_expr(node.left, level)
        # right side of same-precedence needs parens only for non-associative
        # ops; comparisons never chain so bump the right side's requirement.
        right = _render_expr(node.right, level + (0 if node.op in ("and", "or") else 1))
        return _parenthesize(f"{left} {op_text} {right}", level, parent_level)
    if isinstance(node, ast.Between):
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        text = (
            f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
            f"{_render_expr(node.low, _PREDICATE_LEVEL + 1)} AND "
            f"{_render_expr(node.high, _PREDICATE_LEVEL + 1)}"
        )
        return _parenthesize(text, _PREDICATE_LEVEL, parent_level)
    if isinstance(node, ast.InList):
        keyword = "NOT IN" if node.negated else "IN"
        items = ", ".join(_render_expr(e, 0) for e in node.items)
        text = f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} ({items})"
        return _parenthesize(text, _PREDICATE_LEVEL, parent_level)
    if isinstance(node, ast.InSubquery):
        keyword = "NOT IN" if node.negated else "IN"
        text = (
            f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
            f"({_render_query(node.query)})"
        )
        return _parenthesize(text, _PREDICATE_LEVEL, parent_level)
    if isinstance(node, ast.Like):
        keyword = "NOT LIKE" if node.negated else "LIKE"
        text = (
            f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
            f"{_render_expr(node.pattern, _PREDICATE_LEVEL + 1)}"
        )
        return _parenthesize(text, _PREDICATE_LEVEL, parent_level)
    if isinstance(node, ast.IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        text = f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword}"
        return _parenthesize(text, _PREDICATE_LEVEL, parent_level)
    if isinstance(node, ast.Exists):
        prefix = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{prefix} ({_render_query(node.query)})"
    if isinstance(node, ast.ScalarSubquery):
        return f"({_render_query(node.query)})"
    if isinstance(node, ast.QuantifiedCompare):
        return (
            f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {node.op} "
            f"{node.quantifier.upper()} ({_render_query(node.query)})"
        )
    if isinstance(node, ast.Case):
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(_render_expr(node.operand, 0))
        for condition, result in node.whens:
            parts.append(
                f"WHEN {_render_expr(condition, 0)} THEN {_render_expr(result, 0)}"
            )
        if node.default is not None:
            parts.append(f"ELSE {_render_expr(node.default, 0)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"cannot render {type(node).__name__}")  # pragma: no cover


def _render_query_maybe(node: Optional[ast.Node]) -> Optional[str]:
    return None if node is None else _render_query(node)
