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

Each SELECT block is planned once (:class:`_BlockPlan`): the schema-free
check, the binding schemas, the split of WHERE into early filters,
hash-join keys and late filters, and every expression of the block
compiled into a closure (:func:`~repro.engine.evaluator.compile_expr`).
A :class:`Prepared` statement holds its AST, the plans of its blocks
(built when a block first runs) and the correlation verdict of each
sub-query.  Plans hold no rows and no per-statement state, so one
prepared statement serves any number of threads and stays valid across
writes; :class:`~repro.engine.database.Database` keeps them by
statement text.

Sub-queries (paper §2.2.5) are evaluated per statement.  A sub-query
whose every column reference provably resolves inside it is
*uncorrelated*: it runs at most once per statement, on first reference,
and its rows serve every outer row.  Any other sub-query is treated as
correlated and re-enters the pipeline once per outer row, with that
row's scope, reusing its block's plan.  The rows of an uncorrelated
sub-query are kept only for the statement that computed them
(:class:`_Statement`): tables may change between statements.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Optional, Sequence

from ..catalog import Catalog, SchemaError
from ..sqlkit import ast, render
from .errors import EngineError, ExecutionError, NameResolutionError
from .evaluator import (
    Compiled,
    Row,
    Schemas,
    Scope,
    binary_operator,
    compile_expr,
    unary_operator,
)
from .functions import aggregate, call_scalar, is_aggregate

#: A compiled aggregate-aware expression:
#: ``fn(group_rows, representative, outer, statement) -> value``.
GroupCompiled = Callable[[list, dict, Optional[Scope], Any], Any]


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
    every :meth:`execute` call plans its query once and runs it as one
    statement with its own :class:`_Statement`.
    """

    def __init__(self, database: "Database") -> None:  # noqa: F821
        self.database = database

    def prepare(self, query: ast.Node) -> "Prepared":
        """A reusable statement for *query*; nothing is planned yet."""
        return Prepared(self.database, query)

    def execute(self, query: ast.Node, scope: Optional[Scope] = None) -> Result:
        return self.prepare(query).execute(scope)


class Prepared:
    """A statement's AST plus the plans of its query blocks.

    Block plans and correlation verdicts are built on first use and
    depend only on the AST and the catalog, so concurrent statements may
    share (and race to fill) them: two threads planning one block build
    equal plans and either one is kept."""

    __slots__ = ("database", "query", "_blocks", "_uncorrelated")

    def __init__(self, database: "Database", query: ast.Node) -> None:  # noqa: F821
        self.database = database
        self.query = query
        #: id(Select node) -> its plan
        self._blocks: dict[int, _BlockPlan] = {}
        #: id(sub-query node) -> is it uncorrelated?
        self._uncorrelated: dict[int, bool] = {}

    def execute(self, scope: Optional[Scope] = None) -> Result:
        return _Statement(self).execute(self.query, scope)

    def block(self, select: ast.Select) -> "_BlockPlan":
        plan = self._blocks.get(id(select))
        if plan is None:
            plan = self._blocks[id(select)] = _BlockPlan(
                select, self.database.catalog
            )
        return plan

    def uncorrelated(self, query: ast.Node) -> bool:
        verdict = self._uncorrelated.get(id(query))
        if verdict is None:
            verdict = self._uncorrelated[id(query)] = not self._escapes(query, ())
        return verdict

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
            schemas = _binding_schemas(self.database.catalog, query.from_items)
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
                roots.append((join.condition, (_join_level(join, schemas), *enclosing)))
        for root, chain in roots:
            for node in _walk_local(root):
                if isinstance(node, ast.ColumnRef) and not _resolves(node, chain):
                    return True
            for nested in ast.subqueries_of(root):
                if self._escapes(nested, chain):
                    return True
        return False


# ---------------------------------------------------------------------------
# block plans
# ---------------------------------------------------------------------------


class _TablePlan:
    """A FROM table: its binding, its relation and its early filters."""

    __slots__ = ("binding", "relation", "filters")

    def __init__(self, binding: str, relation: str, filters: list[Compiled]) -> None:
        self.binding = binding
        self.relation = relation
        self.filters = filters


class _JoinPlan:
    """An explicit JOIN: its sides, its compiled ``ON`` condition (over
    the join's own bindings) and the NULL padding of outer joins."""

    __slots__ = ("left", "right", "kind", "condition", "null_left", "null_right")

    def __init__(self, join: ast.Join, left, right, schemas: Schemas) -> None:
        self.left = left
        self.right = right
        self.kind = join.kind
        self.condition = (
            compile_expr(join.condition, _join_level(join, schemas))
            if join.condition is not None
            else None
        )
        self.null_left = _null_rows(_bindings_under(join.left), schemas)
        self.null_right = _null_rows(_bindings_under(join.right), schemas)


class _BlockPlan:
    """Everything about one SELECT block that does not depend on the rows.

    Building it raises what starting the block raised before planning
    existed (a schema-free marker, an unknown relation, a duplicate
    binding).  Errors of later phases — a star over an unknown binding,
    HAVING without grouping — are kept and raised when the block
    projects, after its rows have been assembled."""

    def __init__(self, select: ast.Select, catalog: Catalog) -> None:
        _reject_untranslated(select)
        schemas = _binding_schemas(catalog, select.from_items)
        early, join_edges, late = _classify(
            _conjuncts(select.where), schemas, select.from_items
        )
        self.units = [_unit_plan(item, schemas, early) for item in select.from_items]
        self.edges = [
            (a, compile_expr(expr_a, schemas), b, compile_expr(expr_b, schemas))
            for a, expr_a, b, expr_b in join_edges
        ]
        self.late = [compile_expr(conjunct, schemas) for conjunct in late]
        self.distinct = select.distinct
        self.limit = select.limit
        self.offset = select.offset
        self.error: Optional[EngineError] = None
        self.columns: list[str] = []
        self.grouped = False
        self.items: list[Compiled] = []
        self.group_keys: list[Compiled] = []
        self.group_items: list[GroupCompiled] = []
        self.having: Optional[GroupCompiled] = None
        self.null_all = _null_rows(schemas, schemas)
        self.order: list[tuple[bool, str, Any]] = []
        try:
            items = _expand_stars(select.items, schemas)
        except NameResolutionError as exc:
            self.error = exc
            return
        self.columns = [_column_name(item, index) for index, item in enumerate(items)]
        self.grouped = bool(select.group_by) or _has_aggregate(items, select)
        if self.grouped:
            self.group_keys = [compile_expr(expr, schemas) for expr in select.group_by]
            self.group_items = [_compile_group(item.expr, schemas) for item in items]
            if select.having is not None:
                self.having = _compile_group_true(select.having, schemas)
        elif select.having is not None:
            self.error = ExecutionError("HAVING without GROUP BY or aggregates")
            return
        else:
            self.items = [compile_expr(item.expr, schemas) for item in items]
        self.order = [
            (order_item.ascending, *self._order_key(order_item.expr, items, schemas))
            for order_item in select.order_by
        ]

    def _order_key(
        self, expr: ast.Node, items: list[ast.SelectItem], schemas: Schemas
    ) -> tuple[str, Any]:
        """How one ORDER BY item reads its key: ``("column", index)`` of
        the output row, ``("error", message)`` for a bad position, or
        ``("row", fn)`` / ``("group", fn)`` over the row's context."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(items):
                return "error", f"ORDER BY position {expr.value} out of range"
            return "column", position
        if isinstance(expr, ast.ColumnRef) and expr.relation is None:
            alias_index = {
                item.alias.lower(): index
                for index, item in enumerate(items)
                if item.alias
            }
            name = expr.attribute.text.lower()
            if name in alias_index:
                return "column", alias_index[name]
        expr_index = {item.expr: index for index, item in enumerate(items)}
        if expr in expr_index:
            return "column", expr_index[expr]
        if self.grouped:
            return "group", _compile_group(expr, schemas)
        return "row", compile_expr(expr, schemas)


def _unit_plan(item: ast.Node, schemas: Schemas, early: dict[str, list[ast.Node]]):
    if isinstance(item, ast.TableRef):
        binding = item.binding.lower()
        filters = [compile_expr(c, schemas) for c in early.get(binding, ())]
        return _TablePlan(binding, item.name.text, filters)
    if isinstance(item, ast.Join):
        left = _unit_plan(item.left, schemas, early)
        right = _unit_plan(item.right, schemas, early)
        return _JoinPlan(item, left, right, schemas)
    raise ExecutionError(f"unsupported FROM item {type(item).__name__}")


# -- aggregate-aware compilation -------------------------------------------------


def _compile_group(expr: ast.Node, schemas: Schemas) -> GroupCompiled:
    """Compile *expr* for one group: aggregate calls reduce over the
    group's rows, operators and scalar functions combine their operands'
    group values, and anything else reads the group's representative
    row (valid for GROUP BY keys)."""
    if isinstance(expr, ast.FuncCall) and is_aggregate(expr.name):
        return _compile_aggregate(expr, schemas)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda group, rep, outer, statement: value
    if isinstance(expr, ast.BinaryOp):
        left = _compile_group(expr.left, schemas)
        right = _compile_group(expr.right, schemas)
        apply = binary_operator(expr.op)
        return lambda group, rep, outer, statement: apply(
            left(group, rep, outer, statement), right(group, rep, outer, statement)
        )
    if isinstance(expr, ast.UnaryOp):
        operand = _compile_group(expr.operand, schemas)
        apply_unary = unary_operator(expr.op)
        return lambda group, rep, outer, statement: apply_unary(
            operand(group, rep, outer, statement)
        )
    if isinstance(expr, ast.FuncCall):
        name = expr.name
        args = [_compile_group(arg, schemas) for arg in expr.args]
        return lambda group, rep, outer, statement: call_scalar(
            name, [arg(group, rep, outer, statement) for arg in args]
        )
    plain = compile_expr(expr, schemas)
    return lambda group, rep, outer, statement: plain(rep, outer, statement)


def _compile_aggregate(call: ast.FuncCall, schemas: Schemas) -> GroupCompiled:
    name = call.name
    if call.args and isinstance(call.args[0], ast.Star):
        return lambda group, rep, outer, statement: aggregate(
            name, (1 for _ in group), distinct=False
        )
    if len(call.args) != 1:
        message = f"{name}() takes exactly one argument"

        def fail(group, rep, outer, statement):
            raise ExecutionError(message)

        return fail
    arg = compile_expr(call.args[0], schemas)
    distinct = call.distinct
    return lambda group, rep, outer, statement: aggregate(
        name, [arg(rows, outer, statement) for rows in group], distinct=distinct
    )


def _compile_group_true(expr: ast.Node, schemas: Schemas) -> GroupCompiled:
    """Compile a HAVING condition to a two-valued test: AND/OR/NOT combine
    the truth of their operands, anything else passes only when True."""
    if isinstance(expr, ast.BinaryOp) and expr.op in ("and", "or"):
        left = _compile_group_true(expr.left, schemas)
        right = _compile_group_true(expr.right, schemas)
        if expr.op == "and":

            def both(group, rep, outer, statement):
                lvalue = left(group, rep, outer, statement)
                rvalue = right(group, rep, outer, statement)
                return lvalue and rvalue

            return both

        def either(group, rep, outer, statement):
            lvalue = left(group, rep, outer, statement)
            rvalue = right(group, rep, outer, statement)
            return lvalue or rvalue

        return either
    if isinstance(expr, ast.UnaryOp) and expr.op == "not":
        operand = _compile_group_true(expr.operand, schemas)
        return lambda group, rep, outer, statement: not operand(
            group, rep, outer, statement
        )
    value = _compile_group(expr, schemas)
    return lambda group, rep, outer, statement: (
        value(group, rep, outer, statement) is True
    )


# ---------------------------------------------------------------------------
# statement execution
# ---------------------------------------------------------------------------


class _Statement:
    """One top-level execution: the SELECT pipeline plus the rows of the
    uncorrelated sub-queries this statement has run so far."""

    def __init__(self, prepared: Prepared) -> None:
        self.prepared = prepared
        self.database = prepared.database
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
            return self._execute_select(self.prepared.block(query), scope)
        raise ExecutionError(f"not a query: {type(query).__name__}")

    def subquery_rows(
        self, query: ast.Node, rows: dict[str, Row], outer: Optional[Scope]
    ) -> list[tuple]:
        """The rows of sub-query *query* referenced from the binding row
        *rows* (the callback of compiled sub-query nodes)."""
        key = id(query)
        cached = self._rows.get(key)
        if cached is not None:
            return cached
        if not self.prepared.uncorrelated(query):
            return self.execute(query, Scope(rows, parent=outer)).rows
        cached = self._rows[key] = self.execute(query).rows
        return cached

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _execute_select(self, plan: _BlockPlan, outer: Optional[Scope]) -> Result:
        tuples = self._assemble(plan, outer)
        if plan.late:
            late = plan.late
            tuples = [
                rows
                for rows in tuples
                if all(condition(rows, outer, self) is True for condition in late)
            ]
        return self._project(plan, tuples, outer)

    # -- join assembly -----------------------------------------------------
    def _assemble(
        self, plan: _BlockPlan, outer: Optional[Scope]
    ) -> list[dict[str, Row]]:
        if not plan.units:
            # SELECT without FROM: a single empty tuple (constant queries)
            return [{}]
        units = [self._unit(unit, outer) for unit in plan.units]
        # greedy hash-join assembly
        units.sort(key=lambda u: len(u.rows))
        current = units.pop(0)
        remaining = units
        edges = list(plan.edges)
        while remaining:
            chosen_index = None
            chosen_edges: list[tuple] = []
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

    def _unit(self, plan: "_TablePlan | _JoinPlan", outer: Optional[Scope]) -> _Unit:
        if isinstance(plan, _TablePlan):
            binding = plan.binding
            rows = [{binding: row} for row in self.database.rows(plan.relation)]
            for condition in plan.filters:
                rows = [r for r in rows if condition(r, outer, self) is True]
            return _Unit({binding}, rows)
        left = self._unit(plan.left, outer)
        right = self._unit(plan.right, outer)
        return self._explicit_join(left, right, plan, outer)

    def _join_units(
        self,
        left: _Unit,
        right: _Unit,
        edges: list[tuple],
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
        for binding_a, key_a, binding_b, key_b in edges:
            if binding_a in left.bindings:
                left_keys.append(key_a)
                right_keys.append(key_b)
            else:
                left_keys.append(key_b)
                right_keys.append(key_a)
        table: dict[Any, list[dict[str, Row]]] = {}
        for key, row in self._keyed(right_keys, right.rows, outer):
            table.setdefault(key, []).append(row)
        rows = []
        for key, row in self._keyed(left_keys, left.rows, outer):
            for match in table.get(key, ()):
                rows.append({**row, **match})
        return _Unit(bindings, rows)

    def _keyed(
        self,
        keys: Sequence[Compiled],
        tuples: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> Iterable[tuple[Any, dict[str, Row]]]:
        """``(join key, binding row)`` for each of *tuples* whose key
        holds no NULL (NULL never joins); a one-column key is the bare
        value, a longer one a tuple."""
        if len(keys) == 1:
            (fn,) = keys
            for rows in tuples:
                value = fn(rows, outer, self)
                if value is None:
                    continue
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                yield value, rows
            return
        for rows in tuples:
            key = []
            for fn in keys:
                value = fn(rows, outer, self)
                if value is None:
                    break
                if isinstance(value, float) and value.is_integer():
                    value = int(value)  # 1 and 1.0 hash-join together
                key.append(value)
            else:
                yield tuple(key), rows

    def _explicit_join(
        self,
        left: _Unit,
        right: _Unit,
        plan: _JoinPlan,
        outer: Optional[Scope],
    ) -> _Unit:
        bindings = left.bindings | right.bindings
        condition = plan.condition

        def matches(l: dict[str, Row], r: dict[str, Row]) -> bool:
            if condition is None:
                return True
            return condition({**l, **r}, outer, self) is True

        rows: list[dict[str, Row]] = []
        if plan.kind in ("inner", "cross"):
            for l, r in itertools.product(left.rows, right.rows):
                if matches(l, r):
                    rows.append({**l, **r})
        elif plan.kind == "left":
            for l in left.rows:
                matched = False
                for r in right.rows:
                    if matches(l, r):
                        rows.append({**l, **r})
                        matched = True
                if not matched:
                    rows.append({**l, **plan.null_right})
        elif plan.kind == "right":
            for r in right.rows:
                matched = False
                for l in left.rows:
                    if matches(l, r):
                        rows.append({**l, **r})
                        matched = True
                if not matched:
                    rows.append({**plan.null_left, **r})
        else:  # pragma: no cover - parser restricts kinds
            raise ExecutionError(f"unsupported join kind {plan.kind!r}")
        return _Unit(bindings, rows)

    # -- projection / grouping ----------------------------------------------
    def _project(
        self,
        plan: _BlockPlan,
        tuples: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> Result:
        if plan.error is not None:
            raise type(plan.error)(*plan.error.args)
        output: list[tuple] = []
        #: what ORDER BY expressions read for each output row: the binding
        #: row, or (group rows, representative) when grouped
        contexts: list[Any]
        if plan.grouped:
            contexts = []
            items, having = plan.group_items, plan.having
            for group in self._group(plan, tuples, outer):
                rep = group[0] if group else plan.null_all
                if having is not None and not having(group, rep, outer, self):
                    continue
                output.append(tuple([item(group, rep, outer, self) for item in items]))
                contexts.append((group, rep))
        else:
            items = plan.items
            output = [
                tuple([item(rows, outer, self) for item in items]) for rows in tuples
            ]
            contexts = tuples

        if plan.distinct:
            seen: set[tuple] = set()
            deduped, kept = [], []
            for row, context in zip(output, contexts):
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
                    kept.append(context)
            output, contexts = deduped, kept

        if plan.order:
            output = self._order(plan, output, contexts, outer)
        if plan.offset is not None:
            output = output[plan.offset :]
        if plan.limit is not None:
            output = output[: plan.limit]
        return Result(plan.columns, output)

    def _group(
        self,
        plan: _BlockPlan,
        tuples: list[dict[str, Row]],
        outer: Optional[Scope],
    ) -> Iterable[list[dict[str, Row]]]:
        if not plan.group_keys:
            return [tuples]
        keys = plan.group_keys
        groups: dict[tuple, list[dict[str, Row]]] = {}
        for rows in tuples:
            key = tuple([fn(rows, outer, self) for fn in keys])
            groups.setdefault(key, []).append(rows)
        return groups.values()

    # -- ordering --------------------------------------------------------------
    def _order(
        self,
        plan: _BlockPlan,
        output: list[tuple],
        contexts: list[Any],
        outer: Optional[Scope],
    ) -> list[tuple]:
        decorated = list(zip(output, contexts))
        for ascending, kind, payload in reversed(plan.order):
            if kind == "column":
                key = lambda pair, i=payload: _sort_key(pair[0][i])  # noqa: E731
            elif kind == "row":
                key = lambda pair, fn=payload: _sort_key(  # noqa: E731
                    fn(pair[1], outer, self)
                )
            elif kind == "group":
                key = lambda pair, fn=payload: _sort_key(  # noqa: E731
                    fn(pair[1][0], pair[1][1], outer, self)
                )
            else:

                def key(pair, message=payload):
                    raise ExecutionError(message)

            decorated.sort(key=key, reverse=not ascending)
        return [row for row, _ in decorated]


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


def _binding_schemas(catalog: Catalog, from_items: Sequence[ast.Node]) -> Schemas:
    """Map binding name -> lower-cased column names, in FROM order."""
    schemas: Schemas = {}
    for table in _table_refs(from_items):
        binding = table.binding.lower()
        if binding in schemas:
            raise ExecutionError(f"duplicate FROM binding {table.binding!r}")
        relation = catalog.relation(table.name.text)
        schemas[binding] = [a.key for a in relation.attributes]
    return schemas


def _bindings_under(item: ast.Node) -> list[str]:
    return [table.binding.lower() for table in _table_refs((item,))]


def _join_level(join: ast.Join, schemas: Schemas) -> Schemas:
    """The bindings an ``ON`` condition sees: those of its own join."""
    return {binding: schemas[binding] for binding in _bindings_under(join)}


def _expand_stars(
    items: Sequence[ast.SelectItem], schemas: Schemas
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
                            ast.ColumnRef(ast.exact(column), ast.exact(binding)),
                            alias=column,
                        )
                    )
        else:
            expanded.append(item)
    return expanded


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
    edge: tuple[str, Compiled, str, Compiled],
    left_bindings: set[str],
    right_bindings: set[str],
) -> bool:
    a, _, b, _ = edge
    return (a in left_bindings and b in right_bindings) or (
        b in left_bindings and a in right_bindings
    )


def _edge_within(
    edge: tuple[str, Compiled, str, Compiled], bindings: set[str]
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
