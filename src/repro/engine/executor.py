"""Query execution: FROM assembly, join optimization, grouping, ordering.

Translated Schema-free SQL queries routinely join seven or more relations
(the paper's running example joins 7), so a naive cross-product evaluator
is unusable.  The executor therefore:

1. flattens the FROM clause into *units* (single tables or explicit-JOIN
   groups),
2. pushes single-unit WHERE conjuncts down as early filters,
3. assembles units greedily with hash joins over equality conjuncts,
   starting from the smallest unit, and
4. applies the remaining (complex / correlated) conjuncts last.

Grouping, HAVING, DISTINCT, ORDER BY and LIMIT are applied on top.

Sub-queries (paper §2.2.5) are evaluated per statement.  A sub-query
whose every column reference provably resolves inside it is
*uncorrelated*: it runs at most once per statement, on first reference,
and its rows serve every outer row.  Any other sub-query is treated as
correlated and re-enters the pipeline once per outer row, with that
row's scope, so outer references resolve naturally.  The rows of an
uncorrelated sub-query are kept only for the statement that computed
them: one :class:`Executor` is shared by threads, and tables may change
between statements.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional, Sequence

from ..catalog import SchemaError
from ..sqlkit import ast, render
from .errors import ExecutionError, NameResolutionError
from .evaluator import Evaluator, Row, Scope
from .functions import aggregate, is_aggregate


class Result:
    """Materialised query output: named columns and a list of row tuples."""

    def __init__(self, columns: list[str], rows: list[tuple]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Result):
            return self.rows == other.rows
        return NotImplemented

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Result({self.columns}, {len(self.rows)} rows)"


class _Unit:
    """A joinable block: a set of bindings with their assembled rows."""

    __slots__ = ("bindings", "rows")

    def __init__(self, bindings: set[str], rows: list[dict[str, Row]]) -> None:
        self.bindings = bindings
        self.rows = rows


class Executor:
    """Executes query ASTs against a database's tables.

    Stateless between calls, so one instance is safely shared by threads:
    every :meth:`execute` call is one statement with its own
    :class:`_Statement`.
    """

    def __init__(self, database: "Database") -> None:  # noqa: F821
        self.database = database

    def execute(self, query: ast.Node, scope: Optional[Scope] = None) -> Result:
        return _Statement(self.database).execute(query, scope)


class _Statement:
    """One top-level execution: the SELECT pipeline plus the rows of the
    uncorrelated sub-queries this statement has run so far."""

    def __init__(self, database: "Database") -> None:  # noqa: F821
        self.database = database
        self.evaluator = Evaluator(run_subquery=self._run_subquery)
        #: id(sub-query node) -> is it uncorrelated?
        self._uncorrelated: dict[int, bool] = {}
        #: id(uncorrelated sub-query node) -> its rows
        self._rows: dict[int, list[tuple]] = {}

    def execute(self, query: ast.Node, scope: Optional[Scope] = None) -> Result:
        if isinstance(query, ast.SetOp):
            left = self.execute(query.left, scope)
            right = self.execute(query.right, scope)
            if len(left.columns) != len(right.columns):
                raise ExecutionError("UNION operands have different arity")
            rows = left.rows + right.rows
            if not query.all:
                rows = list(dict.fromkeys(rows))
            return Result(left.columns, rows)
        if isinstance(query, ast.Select):
            return self._execute_select(query, scope)
        raise ExecutionError(f"not a query: {type(query).__name__}")

    def _run_subquery(self, query: ast.Node, scope: Scope) -> list[tuple]:
        key = id(query)
        rows = self._rows.get(key)
        if rows is not None:
            return rows
        uncorrelated = self._uncorrelated.get(key)
        if uncorrelated is None:
            uncorrelated = self._uncorrelated[key] = not self._escapes(query, ())
        if not uncorrelated:
            return self.execute(query, scope).rows
        rows = self._rows[key] = self.execute(query).rows
        return rows

    # -- correlation analysis ----------------------------------------------
    def _escapes(
        self, query: ast.Node, enclosing: tuple[dict[str, list[str]], ...]
    ) -> bool:
        """True unless every column reference in *query* provably resolves
        to a FROM binding of *query*, of a block nested in it, or of
        *enclosing* (the schemas of the blocks around *query*, innermost
        first).

        The levels mirror the scopes the pipeline builds: a block's
        clauses see all of its bindings, an ``ON`` condition only the
        bindings of its join, and both then fall through to the
        enclosing levels."""
        if isinstance(query, ast.SetOp):
            return self._escapes(query.left, enclosing) or self._escapes(
                query.right, enclosing
            )
        if not isinstance(query, ast.Select):
            return True
        try:
            schemas = self._binding_schemas(query.from_items)
        except (ExecutionError, SchemaError):
            return True  # the block fails on its own; keep the per-row path
        levels = (schemas, *enclosing)
        roots: list[tuple[ast.Node, tuple]] = [
            (node, levels)
            for node in (
                *(item.expr for item in query.items),
                query.where,
                *query.group_by,
                query.having,
                *(item.expr for item in query.order_by),
            )
            if node is not None
        ]
        for join in _joins(query.from_items):
            if join.condition is not None:
                bindings = {t.binding.lower() for t in _table_refs((join,))}
                join_level = {b: schemas[b] for b in bindings}
                roots.append((join.condition, (join_level, *enclosing)))
        for root, chain in roots:
            for node in _walk_local(root):
                if isinstance(node, ast.ColumnRef) and not _resolves(node, chain):
                    return True
            for nested in ast.subqueries_of(root):
                if self._escapes(nested, chain):
                    return True
        return False

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _execute_select(self, select: ast.Select, outer: Optional[Scope]) -> Result:
        _reject_untranslated(select)
        schemas = self._binding_schemas(select.from_items)
        conjuncts = _conjuncts(select.where)
        early, join_edges, late = _classify(conjuncts, schemas, select.from_items)
        tuples = self._assemble(select.from_items, schemas, early, join_edges, outer)
        if late:
            kept = []
            for scope_rows in tuples:
                scope = Scope(scope_rows, parent=outer)
                if all(self.evaluator.is_true(c, scope) for c in late):
                    kept.append(scope_rows)
            tuples = kept
        return self._project(select, schemas, tuples, outer)

    # -- FROM resolution -------------------------------------------------
    def _binding_schemas(
        self, from_items: Sequence[ast.Node]
    ) -> dict[str, list[str]]:
        """Map binding name -> lower-cased column names, in FROM order."""
        schemas: dict[str, list[str]] = {}
        for table in _table_refs(from_items):
            binding = table.binding.lower()
            if binding in schemas:
                raise ExecutionError(f"duplicate FROM binding {table.binding!r}")
            relation = self.database.catalog.relation(table.name.text)
            schemas[binding] = [a.key for a in relation.attributes]
        return schemas

    def _table_rows(self, table: ast.TableRef) -> list[Row]:
        return self.database.rows(table.name.text)

    # -- join assembly -----------------------------------------------------
    def _assemble(
        self,
        from_items: Sequence[ast.Node],
        schemas: dict[str, list[str]],
        early: dict[str, list[ast.Node]],
        join_edges: list[tuple[str, ast.Node, str, ast.Node]],
        outer: Optional[Scope],
    ) -> list[dict[str, Row]]:
        if not from_items:
            # SELECT without FROM: a single empty tuple (constant queries)
            return [{}]
        units: list[_Unit] = []
        for item in from_items:
            units.append(self._unit_for(item, schemas, early, outer))
        if not units:
            return [{}]
        # greedy hash-join assembly
        units.sort(key=lambda u: len(u.rows))
        current = units.pop(0)
        remaining = units
        edges = list(join_edges)
        while remaining:
            chosen_index = None
            chosen_edges: list[tuple[str, ast.Node, str, ast.Node]] = []
            for index, unit in enumerate(remaining):
                applicable = [
                    e for e in edges if _edge_connects(e, current.bindings, unit.bindings)
                ]
                if applicable and (
                    chosen_index is None
                    or len(unit.rows) < len(remaining[chosen_index].rows)
                ):
                    chosen_index = index
                    chosen_edges = applicable
            if chosen_index is None:
                # no connecting edge: cross product with the smallest unit
                chosen_index = min(
                    range(len(remaining)), key=lambda i: len(remaining[i].rows)
                )
                chosen_edges = []
            unit = remaining.pop(chosen_index)
            current = self._join_units(current, unit, chosen_edges, outer)
            edges = [e for e in edges if not _edge_within(e, current.bindings)]
        return current.rows

    def _unit_for(
        self,
        item: ast.Node,
        schemas: dict[str, list[str]],
        early: dict[str, list[ast.Node]],
        outer: Optional[Scope],
    ) -> _Unit:
        if isinstance(item, ast.TableRef):
            binding = item.binding.lower()
            rows = [{binding: row} for row in self._table_rows(item)]
            for conjunct in early.get(binding, ()):
                rows = [
                    r
                    for r in rows
                    if self.evaluator.is_true(conjunct, Scope(r, parent=outer))
                ]
            return _Unit({binding}, rows)
        if isinstance(item, ast.Join):
            left = self._unit_for(item.left, schemas, early, outer)
            right = self._unit_for(item.right, schemas, early, outer)
            return self._explicit_join(left, right, item, schemas, outer)
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _join_units(
        self,
        left: _Unit,
        right: _Unit,
        edges: list[tuple[str, ast.Node, str, ast.Node]],
        outer: Optional[Scope],
    ) -> _Unit:
        bindings = left.bindings | right.bindings
        if not edges:
            rows = [
                {**l, **r} for l, r in itertools.product(left.rows, right.rows)
            ]
            return _Unit(bindings, rows)
        # hash join on all edge keys simultaneously
        left_keys, right_keys = [], []
        for binding_a, expr_a, binding_b, expr_b in edges:
            if binding_a in left.bindings:
                left_keys.append(expr_a)
                right_keys.append(expr_b)
            else:
                left_keys.append(expr_b)
                right_keys.append(expr_a)
        table: dict[tuple, list[dict[str, Row]]] = {}
        for row in right.rows:
            key = self._key_for(right_keys, row, outer)
            if key is None:
                continue
            table.setdefault(key, []).append(row)
        rows = []
        for row in left.rows:
            key = self._key_for(left_keys, row, outer)
            if key is None:
                continue
            for match in table.get(key, ()):
                rows.append({**row, **match})
        return _Unit(bindings, rows)

    def _key_for(
        self,
        exprs: Sequence[ast.Node],
        scope_rows: dict[str, Row],
        outer: Optional[Scope],
    ) -> Optional[tuple]:
        scope = Scope(scope_rows, parent=outer)
        key = []
        for expr in exprs:
            value = self.evaluator.evaluate(expr, scope)
            if value is None:
                return None  # NULL never joins
            if isinstance(value, float) and value.is_integer():
                value = int(value)  # 1 and 1.0 hash-join together
            key.append(value)
        return tuple(key)

    def _explicit_join(
        self,
        left: _Unit,
        right: _Unit,
        join: ast.Join,
        schemas: dict[str, list[str]],
        outer: Optional[Scope],
    ) -> _Unit:
        bindings = left.bindings | right.bindings
        condition = join.condition

        def matches(l: dict[str, Row], r: dict[str, Row]) -> bool:
            if condition is None:
                return True
            scope = Scope({**l, **r}, parent=outer)
            return self.evaluator.is_true(condition, scope)

        rows: list[dict[str, Row]] = []
        if join.kind in ("inner", "cross"):
            for l, r in itertools.product(left.rows, right.rows):
                if matches(l, r):
                    rows.append({**l, **r})
        elif join.kind == "left":
            null_right = _null_rows(right.bindings, schemas)
            for l in left.rows:
                matched = False
                for r in right.rows:
                    if matches(l, r):
                        rows.append({**l, **r})
                        matched = True
                if not matched:
                    rows.append({**l, **null_right})
        elif join.kind == "right":
            null_left = _null_rows(left.bindings, schemas)
            for r in right.rows:
                matched = False
                for l in left.rows:
                    if matches(l, r):
                        rows.append({**l, **r})
                        matched = True
                if not matched:
                    rows.append({**null_left, **r})
        else:  # pragma: no cover - parser restricts kinds
            raise ExecutionError(f"unsupported join kind {join.kind!r}")
        return _Unit(bindings, rows)

    # -- projection / grouping ----------------------------------------------
    def _project(
        self,
        select: ast.Select,
        schemas: dict[str, list[str]],
        tuples: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> Result:
        items = self._expand_stars(select.items, schemas)
        columns = [_column_name(item, index) for index, item in enumerate(items)]
        grouped = bool(select.group_by) or _has_aggregate(items, select)

        output: list[tuple] = []
        order_contexts: list[Scope] = []
        if grouped:
            groups = self._group(select, tuples, outer)
            for group_rows, key_scope in groups:
                scope = _GroupScope(group_rows, key_scope, schemas, outer)
                if select.having is not None and not self._agg_true(
                    select.having, group_rows, scope, outer
                ):
                    continue
                row = tuple(
                    self._agg_eval(item.expr, group_rows, scope, outer)
                    for item in items
                )
                output.append(row)
                order_contexts.append(scope)
        else:
            if select.having is not None:
                raise ExecutionError("HAVING without GROUP BY or aggregates")
            for scope_rows in tuples:
                scope = Scope(scope_rows, parent=outer)
                row = tuple(
                    self.evaluator.evaluate(item.expr, scope) for item in items
                )
                output.append(row)
                order_contexts.append(scope)

        if select.distinct:
            seen: dict[tuple, int] = {}
            deduped, contexts = [], []
            for row, context in zip(output, order_contexts):
                if row not in seen:
                    seen[row] = 1
                    deduped.append(row)
                    contexts.append(context)
            output, order_contexts = deduped, contexts

        if select.order_by:
            output = self._order(
                select, items, columns, output, order_contexts, grouped, outer
            )
        if select.offset is not None:
            output = output[select.offset :]
        if select.limit is not None:
            output = output[: select.limit]
        return Result(columns, output)

    def _expand_stars(
        self, items: Sequence[ast.SelectItem], schemas: dict[str, list[str]]
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                star = item.expr
                bindings = (
                    [star.qualifier.text.lower()]
                    if star.qualifier is not None
                    else list(schemas)
                )
                for binding in bindings:
                    if binding not in schemas:
                        raise NameResolutionError(
                            f"unknown binding {binding!r} in star expansion"
                        )
                    for column in schemas[binding]:
                        expanded.append(
                            ast.SelectItem(
                                ast.ColumnRef(
                                    ast.exact(column), ast.exact(binding)
                                ),
                                alias=column,
                            )
                        )
            else:
                expanded.append(item)
        return expanded

    def _group(
        self,
        select: ast.Select,
        tuples: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> list[tuple[list[dict[str, Row]], Optional[Scope]]]:
        if not select.group_by:
            return [(tuples, None)]
        groups: dict[tuple, list[dict[str, Row]]] = {}
        representatives: dict[tuple, Scope] = {}
        for scope_rows in tuples:
            scope = Scope(scope_rows, parent=outer)
            key = tuple(
                self.evaluator.evaluate(expr, scope) for expr in select.group_by
            )
            groups.setdefault(key, []).append(scope_rows)
            representatives.setdefault(key, scope)
        return [(rows, representatives[key]) for key, rows in groups.items()]

    # -- aggregate-aware evaluation ------------------------------------------
    def _agg_eval(
        self,
        expr: ast.Node,
        group_rows: list[dict[str, Row]],
        scope: Scope,
        outer: Optional[Scope],
    ) -> Any:
        if isinstance(expr, ast.FuncCall) and is_aggregate(expr.name):
            return self._compute_aggregate(expr, group_rows, outer)
        if isinstance(expr, (ast.Literal,)):
            return expr.value
        if isinstance(expr, ast.BinaryOp):
            left = self._agg_eval(expr.left, group_rows, scope, outer)
            right = self._agg_eval(expr.right, group_rows, scope, outer)
            return self.evaluator.evaluate(
                ast.BinaryOp(expr.op, ast.Literal(left), ast.Literal(right)),
                scope,
            )
        if isinstance(expr, ast.UnaryOp):
            operand = self._agg_eval(expr.operand, group_rows, scope, outer)
            return self.evaluator.evaluate(
                ast.UnaryOp(expr.op, ast.Literal(operand)), scope
            )
        if isinstance(expr, ast.FuncCall):
            args = tuple(
                ast.Literal(self._agg_eval(a, group_rows, scope, outer))
                for a in expr.args
            )
            return self.evaluator.evaluate(
                ast.FuncCall(expr.name, args, expr.distinct), scope
            )
        # plain column / other expression: evaluate on the group's scope
        return self.evaluator.evaluate(expr, scope)

    def _agg_true(
        self,
        expr: ast.Node,
        group_rows: list[dict[str, Row]],
        scope: Scope,
        outer: Optional[Scope],
    ) -> bool:
        if isinstance(expr, ast.BinaryOp) and expr.op in ("and", "or"):
            left = self._agg_true(expr.left, group_rows, scope, outer)
            right = self._agg_true(expr.right, group_rows, scope, outer)
            return (left and right) if expr.op == "and" else (left or right)
        if isinstance(expr, ast.UnaryOp) and expr.op == "not":
            return not self._agg_true(expr.operand, group_rows, scope, outer)
        if isinstance(expr, ast.BinaryOp):
            left = self._agg_eval(expr.left, group_rows, scope, outer)
            right = self._agg_eval(expr.right, group_rows, scope, outer)
            return (
                self.evaluator.evaluate(
                    ast.BinaryOp(expr.op, ast.Literal(left), ast.Literal(right)),
                    scope,
                )
                is True
            )
        return self._agg_eval(expr, group_rows, scope, outer) is True

    def _compute_aggregate(
        self,
        call: ast.FuncCall,
        group_rows: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> Any:
        if call.args and isinstance(call.args[0], ast.Star):
            values: Iterable[Any] = (1 for _ in group_rows)
            return aggregate(call.name, values, distinct=False)
        if len(call.args) != 1:
            raise ExecutionError(f"{call.name}() takes exactly one argument")
        arg = call.args[0]
        values = [
            self.evaluator.evaluate(arg, Scope(rows, parent=outer))
            for rows in group_rows
        ]
        return aggregate(call.name, values, distinct=call.distinct)

    # -- ordering --------------------------------------------------------------
    def _order(
        self,
        select: ast.Select,
        items: list[ast.SelectItem],
        columns: list[str],
        output: list[tuple],
        contexts: list[Scope],
        grouped: bool,
        outer: Optional[Scope],
    ) -> list[tuple]:
        alias_index = {
            (item.alias or "").lower(): index
            for index, item in enumerate(items)
            if item.alias
        }
        expr_index = {item.expr: index for index, item in enumerate(items)}

        def key_value(order_item: ast.OrderItem, row: tuple, context: Any) -> Any:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
                if not 0 <= position < len(row):
                    raise ExecutionError(f"ORDER BY position {expr.value} out of range")
                return row[position]
            if isinstance(expr, ast.ColumnRef) and expr.relation is None:
                name = expr.attribute.text.lower()
                if name in alias_index:
                    return row[alias_index[name]]
            if expr in expr_index:
                return row[expr_index[expr]]
            if grouped:
                scope: _GroupScope = context
                return self._agg_eval(expr, scope.group_rows, scope, outer)
            return self.evaluator.evaluate(expr, context)

        decorated = list(zip(output, contexts))
        for order_item in reversed(select.order_by):
            decorated.sort(
                key=lambda pair: _sort_key(
                    key_value(order_item, pair[0], pair[1])
                ),
                reverse=not order_item.ascending,
            )
        return [row for row, _ in decorated]


class _GroupScope(Scope):
    """Scope for aggregate evaluation: resolves plain columns against a
    representative row of the group (valid for GROUP BY keys)."""

    def __init__(
        self,
        group_rows: list[dict[str, Row]],
        representative: Optional[Scope],
        schemas: dict[str, list[str]],
        outer: Optional[Scope],
    ) -> None:
        if representative is not None:
            bindings = representative.bindings
        elif group_rows:
            bindings = group_rows[0]
        else:  # an aggregate over no rows: plain columns read NULL
            bindings = _null_rows(schemas, schemas)
        super().__init__(bindings, parent=outer)
        self.group_rows = group_rows


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _reject_untranslated(select: ast.Select) -> None:
    """The engine only runs full SQL; schema-free markers must be resolved
    by the translator first."""
    for node in _walk_local_select(select):
        if isinstance(node, ast.TableRef) and node.name.certainty is not ast.Certainty.EXACT:
            raise ExecutionError(
                f"untranslated schema-free relation {node.name.render()!r}"
            )
        if isinstance(node, ast.ColumnRef):
            uncertain = node.attribute.certainty is not ast.Certainty.EXACT or (
                node.relation is not None
                and node.relation.certainty is not ast.Certainty.EXACT
            )
            if uncertain:
                raise ExecutionError(
                    f"untranslated schema-free column {node.render()!r}"
                )


def _walk_local_select(select: ast.Select):
    """Walk a select block without descending into nested sub-queries
    (those are validated when they themselves execute)."""
    yield select
    for child in select.children():
        yield from _walk_local(child)


def _resolves(
    ref: ast.ColumnRef, levels: tuple[dict[str, list[str]], ...]
) -> bool:
    """Does *ref* resolve at one of *levels* (binding -> columns), the way
    :meth:`Scope.resolve` walks a scope chain?"""
    if ref.relation is not None:
        binding = ref.relation.text.lower()
        return any(binding in level for level in levels)
    name = ref.attribute.text.lower()
    return any(name in columns for level in levels for columns in level.values())


def _joins(from_items: Iterable[ast.Node]) -> Iterable[ast.Join]:
    for item in from_items:
        if isinstance(item, ast.Join):
            yield item
            yield from _joins((item.left, item.right))


def _table_refs(from_items: Iterable[ast.Node]) -> Iterable[ast.TableRef]:
    for item in from_items:
        if isinstance(item, ast.TableRef):
            yield item
        elif isinstance(item, ast.Join):
            yield from _table_refs((item.left, item.right))
        else:
            raise ExecutionError(f"unsupported FROM item {type(item).__name__}")


def _conjuncts(expr: Optional[ast.Node]) -> list[ast.Node]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _bindings_of(
    expr: ast.Node, schemas: dict[str, list[str]]
) -> Optional[set[str]]:
    """Bindings referenced by *expr*, or None when the expression cannot be
    pushed down (contains a sub-query, or a column we cannot attribute to a
    unique local binding, e.g. a correlated outer reference)."""
    bindings: set[str] = set()
    for node in expr.walk():
        if isinstance(node, (ast.Select, ast.SetOp)):
            return None
        if isinstance(node, ast.ColumnRef):
            if node.relation is not None:
                binding = node.relation.text.lower()
                if binding not in schemas:
                    return None  # outer/unknown reference
                bindings.add(binding)
            else:
                name = node.attribute.text.lower()
                owners = [b for b, cols in schemas.items() if name in cols]
                if len(owners) != 1:
                    return None
                bindings.add(owners[0])
    return bindings


def _classify(
    conjuncts: list[ast.Node],
    schemas: dict[str, list[str]],
    from_items: Sequence[ast.Node],
) -> tuple[
    dict[str, list[ast.Node]],
    list[tuple[str, ast.Node, str, ast.Node]],
    list[ast.Node],
]:
    """Split WHERE conjuncts into early filters, hash-join edges and the
    rest (applied after assembly).

    A filter on a binding an outer join pads with NULLs stays late: pushed
    below the join, it would turn the rows it rejects into padded rows
    instead of removing them.  An equality between two bindings of one
    FROM item stays late too: edges only join separate items."""
    item_of = {
        table.binding.lower(): index
        for index, item in enumerate(from_items)
        for table in _table_refs((item,))
    }
    nullable: set[str] = set()
    for join in _joins(from_items):
        if join.kind in ("left", "right"):
            side = join.right if join.kind == "left" else join.left
            nullable.update(t.binding.lower() for t in _table_refs((side,)))
    early: dict[str, list[ast.Node]] = {}
    edges: list[tuple[str, ast.Node, str, ast.Node]] = []
    late: list[ast.Node] = []
    for conjunct in conjuncts:
        bindings = _bindings_of(conjunct, schemas)
        if bindings is None:
            late.append(conjunct)
            continue
        if len(bindings) <= 1:
            if bindings and not bindings & nullable:
                early.setdefault(next(iter(bindings)), []).append(conjunct)
            else:
                late.append(conjunct)  # constant condition, or nullable
            continue
        if (
            len(bindings) == 2
            and isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
        ):
            left_bindings = _bindings_of(conjunct.left, schemas)
            right_bindings = _bindings_of(conjunct.right, schemas)
            if (
                left_bindings is not None
                and right_bindings is not None
                and len(left_bindings) == 1
                and len(right_bindings) == 1
                and len({item_of[b] for b in bindings}) == 2
            ):
                edges.append(
                    (
                        next(iter(left_bindings)),
                        conjunct.left,
                        next(iter(right_bindings)),
                        conjunct.right,
                    )
                )
                continue
        late.append(conjunct)
    return early, edges, late


def _edge_connects(
    edge: tuple[str, ast.Node, str, ast.Node],
    left_bindings: set[str],
    right_bindings: set[str],
) -> bool:
    a, _, b, _ = edge
    return (a in left_bindings and b in right_bindings) or (
        b in left_bindings and a in right_bindings
    )


def _edge_within(
    edge: tuple[str, ast.Node, str, ast.Node], bindings: set[str]
) -> bool:
    return edge[0] in bindings and edge[2] in bindings


def _null_rows(
    bindings: Iterable[str], schemas: dict[str, list[str]]
) -> dict[str, Row]:
    """An all-NULL row for each of *bindings*, with every catalog column
    (outer-join padding, and the scope of an aggregate over no rows)."""
    return {binding: dict.fromkeys(schemas[binding]) for binding in bindings}


def _has_aggregate(items: Sequence[ast.SelectItem], select: ast.Select) -> bool:
    roots: list[ast.Node] = [item.expr for item in items]
    if select.having is not None:
        roots.append(select.having)
    for root in roots:
        for node in _walk_local(root):
            if isinstance(node, ast.FuncCall) and is_aggregate(node.name):
                return True
    return False


def _walk_local(node: ast.Node):
    """Walk an expression without descending into sub-queries."""
    yield node
    if isinstance(node, (ast.Select, ast.SetOp)):
        return
    for child in node.children():
        if isinstance(child, (ast.Select, ast.SetOp)):
            continue
        yield from _walk_local(child)


def _column_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.attribute.text
    if isinstance(expr, ast.FuncCall):
        return render(expr)
    return render(expr) if not isinstance(expr, ast.Star) else "*"


_TYPE_RANK = {bool: 0, int: 1, float: 1, str: 2}


def _sort_key(value: Any) -> tuple:
    """Total order over mixed values: NULLs last, then by type family."""
    if value is None:
        return (2, 0, 0)
    rank = _TYPE_RANK.get(type(value), 3)
    if rank == 3:
        return (1, 3, str(value))
    return (1, rank, value)
