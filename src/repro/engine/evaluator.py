"""Expressions compiled once into closures, with SQL three-valued logic.

Rows are dictionaries keyed by lower-cased attribute name; a query block
evaluates over a *binding row*, a dict mapping each lower-cased binding
name (table name or alias) to one row.  :func:`compile_expr` turns an
expression AST into a closure ``fn(rows, outer, statement)``:

* ``rows`` — the binding row of the block being evaluated;
* ``outer`` — the :class:`Scope` chain of the enclosing blocks (``None``
  at top level), so correlated sub-queries resolve free variables
  against their enclosing query block, as required by the paper's
  block-at-a-time nested-query processing (§2.2.5);
* ``statement`` — the running statement, which evaluates sub-query
  nodes (``None`` where sub-queries are unavailable, e.g. the
  similarity layer's condition probes).

A column reference is resolved when it is compiled: the binding schemas
of its block (binding -> column names) name its unique owner, and the
closure is a plain dict lookup.  Only references that no binding of the
block owns walk the ``outer`` chain through :meth:`Scope.resolve`.
Compiling never raises: an ambiguous or unknown column, an unknown
function or an unsupported node compiles to a closure that raises the
same typed error when it runs, so an expression over no rows never
fails.

Unknown truth values are represented as ``None``; WHERE and HAVING keep a
row only when the condition evaluates to ``True``.
"""

from __future__ import annotations

import datetime
import functools
import operator
import re
from typing import Any, Callable, Optional

from ..sqlkit import ast
from .errors import ExecutionError, NameResolutionError
from .functions import call_scalar, is_aggregate

Row = dict[str, Any]

#: binding name -> lower-cased column names, as a query block sees them
Schemas = dict[str, list[str]]


class Scope:
    """One level of name bindings: binding name -> current row."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict[str, Row], parent: Optional["Scope"] = None):
        self.bindings = bindings
        self.parent = parent

    def child(self, bindings: dict[str, Row]) -> "Scope":
        return Scope(bindings, parent=self)

    # ------------------------------------------------------------------
    def resolve(self, relation: Optional[str], attribute: str) -> Any:
        """Resolve ``[relation.]attribute`` through the scope chain."""
        attribute = attribute.lower()
        scope: Optional[Scope] = self
        while scope is not None:
            if relation is not None:
                row = scope.bindings.get(relation.lower())
                if row is not None:
                    if attribute in row:
                        return row[attribute]
                    raise NameResolutionError(
                        f"binding {relation!r} has no column {attribute!r}"
                    )
            else:
                matches = [
                    row for row in scope.bindings.values() if attribute in row
                ]
                if len(matches) > 1:
                    raise NameResolutionError(
                        f"ambiguous column {attribute!r}"
                    )
                if matches:
                    return matches[0][attribute]
            scope = scope.parent
        target = f"{relation}.{attribute}" if relation else attribute
        raise NameResolutionError(f"cannot resolve column {target!r}")


#: A compiled expression: ``fn(rows, outer, statement) -> value``.
Compiled = Callable[[dict[str, Row], Optional[Scope], Any], Any]


def compile_expr(node: ast.Node, schemas: Schemas) -> Compiled:
    """Compile *node* into a closure over ``(rows, outer, statement)``.

    *schemas* are the bindings the closure's ``rows`` will hold; a
    column none of them owns is looked up in ``outer`` when it runs."""
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        return _raises(ExecutionError, f"cannot evaluate {type(node).__name__}")
    return compiler(node, schemas)


def _raises(error: type[Exception], message: str) -> Compiled:
    def fail(rows, outer, statement):
        raise error(message)

    return fail


# -- leaves ------------------------------------------------------------------


def _compile_literal(node: ast.Literal, schemas: Schemas) -> Compiled:
    value = node.value
    return lambda rows, outer, statement: value


def _compile_columnref(node: ast.ColumnRef, schemas: Schemas) -> Compiled:
    attribute = node.attribute.text.lower()
    relation = node.relation.text if node.relation is not None else None
    if relation is not None:
        binding = relation.lower()
        columns = schemas.get(binding)
        if columns is not None:
            if attribute not in columns:
                return _raises(
                    NameResolutionError,
                    f"binding {relation!r} has no column {attribute!r}",
                )
            return lambda rows, outer, statement: rows[binding][attribute]
    else:
        owners = [b for b, columns in schemas.items() if attribute in columns]
        if len(owners) > 1:
            return _raises(NameResolutionError, f"ambiguous column {attribute!r}")
        if owners:
            binding = owners[0]
            return lambda rows, outer, statement: rows[binding][attribute]
    target = f"{relation}.{attribute}" if relation else attribute
    message = f"cannot resolve column {target!r}"

    def outer_ref(rows, outer, statement):
        if outer is None:
            raise NameResolutionError(message)
        return outer.resolve(relation, attribute)

    return outer_ref


# -- operators ----------------------------------------------------------------


def unary_operator(op: str) -> Callable[[Any], Any]:
    """The value function of a unary operator (NULL in, NULL out)."""
    if op == "not":
        return lambda value: None if value is None else (not value)
    if op == "-":
        return lambda value: None if value is None else -value
    return lambda value: None if value is None else +value


def _compile_unaryop(node: ast.UnaryOp, schemas: Schemas) -> Compiled:
    operand = compile_expr(node.operand, schemas)
    apply = unary_operator(node.op)
    return lambda rows, outer, statement: apply(operand(rows, outer, statement))


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    result = left / right
    if isinstance(left, int) and isinstance(right, int):
        return left // right if left % right == 0 else result
    return result


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("modulo by zero")
    return left % right


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
}

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def binary_operator(op: str) -> Callable[[Any, Any], Any]:
    """The value function of a binary operator applied to two already
    evaluated operands (AND/OR in Kleene logic, comparisons through
    :func:`compare`, arithmetic with NULL propagation)."""
    if op == "and":
        return _and3
    if op == "or":
        return _or3
    if op in _COMPARISONS:
        return functools.partial(compare, op)
    if op == "||":
        return lambda left, right: (
            None if left is None or right is None else f"{left}{right}"
        )
    arithmetic = _ARITHMETIC.get(op)

    def apply(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if arithmetic is None:  # pragma: no cover - parser restricts operators
            raise ExecutionError(f"unknown operator {op!r}")
        try:
            return arithmetic(left, right)
        except TypeError as exc:
            raise ExecutionError(f"bad operands for {op!r}: {exc}") from exc

    return apply


def _compile_binaryop(node: ast.BinaryOp, schemas: Schemas) -> Compiled:
    op = node.op
    left = compile_expr(node.left, schemas)
    right = compile_expr(node.right, schemas)
    if op == "and":

        def and_(rows, outer, statement):
            lvalue = left(rows, outer, statement)
            if lvalue is False:
                return False
            rvalue = right(rows, outer, statement)
            if rvalue is False:
                return False
            if lvalue is None or rvalue is None:
                return None
            return True

        return and_
    if op == "or":

        def or_(rows, outer, statement):
            lvalue = left(rows, outer, statement)
            if lvalue is True:
                return True
            rvalue = right(rows, outer, statement)
            if rvalue is True:
                return True
            if lvalue is None or rvalue is None:
                return None
            return False

        return or_
    if op in _COMPARISONS:
        fast = _FAST_COMPARE[op]
        constant = node.right.value if isinstance(node.right, ast.Literal) else None
        if type(constant) in _FAST_TYPES:
            kind = type(constant)

            def compare_constant(rows, outer, statement):
                lvalue = left(rows, outer, statement)
                if lvalue is None:
                    return None
                if type(lvalue) is kind:
                    return fast(lvalue, constant)
                return compare(op, lvalue, constant)

            return compare_constant

        def comparison(rows, outer, statement):
            lvalue = left(rows, outer, statement)
            rvalue = right(rows, outer, statement)
            if lvalue is None or rvalue is None:
                return None
            kind = type(lvalue)
            if kind is type(rvalue) and kind in _FAST_TYPES:
                return fast(lvalue, rvalue)
            return compare(op, lvalue, rvalue)

        return comparison
    apply = binary_operator(op)
    return lambda rows, outer, statement: apply(
        left(rows, outer, statement), right(rows, outer, statement)
    )


# -- predicates ---------------------------------------------------------------


def _compile_between(node: ast.Between, schemas: Schemas) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    low = compile_expr(node.low, schemas)
    high = compile_expr(node.high, schemas)
    negated = node.negated

    def between(rows, outer, statement):
        value = expr(rows, outer, statement)
        lower = low(rows, outer, statement)
        upper = high(rows, outer, statement)
        result = _and3(compare(">=", value, lower), compare("<=", value, upper))
        return _not3(result) if negated else result

    return between


def _compile_inlist(node: ast.InList, schemas: Schemas) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    items = [compile_expr(item, schemas) for item in node.items]
    negated = node.negated

    def in_list(rows, outer, statement):
        value = expr(rows, outer, statement)
        if value is None:
            return None
        return _member(
            value, (item(rows, outer, statement) for item in items), negated
        )

    return in_list


def _member(value: Any, candidates, negated: bool) -> Any:
    """``value [NOT] IN candidates`` for a non-NULL *value*, consuming
    *candidates* only up to the first match."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif compare("=", value, candidate) is True:
            return False if negated else True
    if saw_null:
        return None
    return True if negated else False


def _compile_like(node: ast.Like, schemas: Schemas) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    pattern = compile_expr(node.pattern, schemas)
    negated = node.negated

    def like(rows, outer, statement):
        value = expr(rows, outer, statement)
        text = pattern(rows, outer, statement)
        if value is None or text is None:
            return None
        matched = like_match(str(value), str(text))
        return (not matched) if negated else matched

    return like


def _compile_isnull(node: ast.IsNull, schemas: Schemas) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    if node.negated:
        return lambda rows, outer, statement: expr(rows, outer, statement) is not None
    return lambda rows, outer, statement: expr(rows, outer, statement) is None


def _compile_case(node: ast.Case, schemas: Schemas) -> Compiled:
    whens = [
        (compile_expr(condition, schemas), compile_expr(result, schemas))
        for condition, result in node.whens
    ]
    default = compile_expr(node.default, schemas) if node.default is not None else None
    operand = compile_expr(node.operand, schemas) if node.operand is not None else None

    def case(rows, outer, statement):
        if operand is not None:
            value = operand(rows, outer, statement)
            for condition, result in whens:
                if compare("=", value, condition(rows, outer, statement)) is True:
                    return result(rows, outer, statement)
        else:
            for condition, result in whens:
                if condition(rows, outer, statement) is True:
                    return result(rows, outer, statement)
        if default is not None:
            return default(rows, outer, statement)
        return None

    return case


def _compile_funccall(node: ast.FuncCall, schemas: Schemas) -> Compiled:
    if is_aggregate(node.name):
        return _raises(
            ExecutionError, f"aggregate {node.name}() used outside GROUP BY context"
        )
    name = node.name
    args = [compile_expr(arg, schemas) for arg in node.args]
    return lambda rows, outer, statement: call_scalar(
        name, [arg(rows, outer, statement) for arg in args]
    )


# -- sub-queries --------------------------------------------------------------


def _subquery_rows(
    statement: Any, query: ast.Node, rows: dict[str, Row], outer: Optional[Scope]
) -> list[tuple]:
    if statement is None:
        raise ExecutionError("sub-queries are not available in this context")
    return statement.subquery_rows(query, rows, outer)


def _compile_scalarsubquery(node: ast.ScalarSubquery, schemas: Schemas) -> Compiled:
    query = node.query

    def scalar(rows, outer, statement):
        result = _subquery_rows(statement, query, rows, outer)
        if not result:
            return None
        if len(result) > 1:
            raise ExecutionError("scalar sub-query returned more than one row")
        if len(result[0]) != 1:
            raise ExecutionError("scalar sub-query returned more than one column")
        return result[0][0]

    return scalar


def _compile_exists(node: ast.Exists, schemas: Schemas) -> Compiled:
    query, negated = node.query, node.negated

    def exists(rows, outer, statement):
        found = bool(_subquery_rows(statement, query, rows, outer))
        return (not found) if negated else found

    return exists


def _compile_insubquery(node: ast.InSubquery, schemas: Schemas) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    query, negated = node.query, node.negated

    def in_subquery(rows, outer, statement):
        value = expr(rows, outer, statement)
        if value is None:
            return None
        result = _subquery_rows(statement, query, rows, outer)
        return _member(value, (row[0] for row in result), negated)

    return in_subquery


def _compile_quantifiedcompare(
    node: ast.QuantifiedCompare, schemas: Schemas
) -> Compiled:
    expr = compile_expr(node.expr, schemas)
    query, op, quantifier = node.query, node.op, node.quantifier

    def quantified(rows, outer, statement):
        value = expr(rows, outer, statement)
        results = [
            compare(op, value, row[0])
            for row in _subquery_rows(statement, query, rows, outer)
        ]
        if quantifier == "any":
            if any(r is True for r in results):
                return True
            if any(r is None for r in results):
                return None
            return False
        # ALL
        if any(r is False for r in results):
            return False
        if any(r is None for r in results):
            return None
        return True

    return quantified


_COMPILERS: dict[type, Callable[[Any, Schemas], Compiled]] = {
    ast.Literal: _compile_literal,
    ast.ColumnRef: _compile_columnref,
    ast.UnaryOp: _compile_unaryop,
    ast.BinaryOp: _compile_binaryop,
    ast.Between: _compile_between,
    ast.InList: _compile_inlist,
    ast.Like: _compile_like,
    ast.IsNull: _compile_isnull,
    ast.Case: _compile_case,
    ast.FuncCall: _compile_funccall,
    ast.ScalarSubquery: _compile_scalarsubquery,
    ast.Exists: _compile_exists,
    ast.InSubquery: _compile_insubquery,
    ast.QuantifiedCompare: _compile_quantifiedcompare,
}


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def _not3(value: Any) -> Any:
    return None if value is None else (not value)


def _and3(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _comparable(left: Any, right: Any) -> Optional[tuple[Any, Any]]:
    """Coerce *left*, *right* to a comparable pair, or None if incompatible."""
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        return None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, datetime.date) or isinstance(right, datetime.date):
        try:
            if isinstance(left, str):
                left = datetime.date.fromisoformat(left)
            if isinstance(right, str):
                right = datetime.date.fromisoformat(right)
        except ValueError:
            return None
        if isinstance(left, datetime.date) and isinstance(right, datetime.date):
            return left, right
    return None


_FAST_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: operand types two values of which always compare directly
_FAST_TYPES = frozenset({int, float, str})


def compare(op: str, left: Any, right: Any) -> Any:
    """SQL comparison with NULL propagation and type mismatch handling.

    Mismatched types compare unequal under ``=``/``<>`` (like most engines
    after failed coercion) and raise for ordering comparisons, which the
    similarity layer treats as "condition not satisfied".
    """
    if left is None or right is None:
        return None
    pair = _comparable(left, right)
    if pair is None:
        if op == "=":
            return False
        if op == "<>":
            return True
        raise ExecutionError(
            f"cannot order-compare {type(left).__name__} and {type(right).__name__}"
        )
    fast = _FAST_COMPARE.get(op)
    if fast is None:  # pragma: no cover - parser restricts operators
        raise ExecutionError(f"unknown comparison {op!r}")
    return fast(*pair)


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards, case-sensitive."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None
