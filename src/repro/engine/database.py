"""In-memory relational database: catalog-validated storage plus SQL.

This is the substrate standing in for the RDBMS the paper ran translated
queries against.  It stores rows as dictionaries keyed by lower-cased
attribute name, enforces primary-key uniqueness and (optionally) foreign-
key integrity, executes full SQL, and exposes the column-content probes
the Relation Tree Mapper needs (paper §4.3: "conditions ... satisfied by
the tuples in the attribute").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping, Sequence, Union

from ..catalog import Catalog, Relation, coerce, normalize
from ..sqlkit import ast, parse
from .errors import IntegrityError
from .evaluator import Row
from .executor import Executor, Prepared, Result

#: statement texts whose parsed AST and block plans a Database keeps
STATEMENT_CACHE_SIZE = 256


class Database:
    """A catalog plus table contents plus a SQL executor."""

    def __init__(self, catalog: Catalog, enforce_foreign_keys: bool = True) -> None:
        catalog.validate()
        self.catalog = catalog
        self.enforce_foreign_keys = enforce_foreign_keys
        self._tables: dict[str, list[Row]] = {
            relation.key: [] for relation in catalog
        }
        self._pk_index: dict[str, set[tuple]] = {
            relation.key: set() for relation in catalog
        }
        # value sets for every column that some foreign key points at,
        # maintained on insert so FK checks are O(1)
        self._fk_target_index: dict[tuple[str, str], set] = {
            (normalize(fk.target_relation), normalize(fk.target_attribute)): set()
            for fk in catalog.foreign_keys
        }
        self._executor = Executor(self)
        self._data_version = 0
        #: relation key -> count of mutations of that relation
        self._relation_versions: dict[str, int] = {
            relation.key: 0 for relation in catalog
        }
        #: serialises mutations: PK/FK index updates, the row append and
        #: both version bumps are one atomic step, so concurrent readers
        #: (and TranslationContext.ensure_current) never observe a row
        #: without its version bumps or a half-updated index
        self._write_lock = threading.RLock()
        #: statement text -> its prepared statement (AST and block plans),
        #: least recently used first.  Plans depend only on the text and
        #: the catalog, which is fixed for the life of the Database, so
        #: writes leave the map alone.
        self._statements: OrderedDict[str, Prepared] = OrderedDict()
        self._statements_lock = threading.Lock()

    @property
    def data_version(self) -> int:
        """Monotone counter bumped on every mutation.

        Consumers that derive state from table contents (notably
        :class:`repro.core.context.TranslationContext`, which caches
        column samples and condition-satisfaction results) compare this
        against the version they were built at and invalidate when it
        moved.
        """
        return self._data_version

    def relation_version(self, relation_name: str) -> int:
        """Monotone per-relation counter, bumped with ``data_version`` by
        every mutation of *relation_name* — lets a consumer drop only the
        state derived from the relations that actually changed."""
        relation = self.catalog.relation(relation_name)
        return self._relation_versions[relation.key]

    # ------------------------------------------------------------------
    # data loading
    # ------------------------------------------------------------------
    def insert(
        self,
        relation_name: str,
        values: Union[Mapping[str, Any], Sequence[Any]],
    ) -> Row:
        """Insert one tuple, given as a mapping or a positional sequence.

        Thread-safe: the whole constraint-check/append/version-bump
        sequence runs under the database's write lock.
        """
        relation = self.catalog.relation(relation_name)
        row = self._build_row(relation, values)
        with self._write_lock:
            self._check_primary_key(relation, row)
            if self.enforce_foreign_keys:
                self._check_foreign_keys(relation, row)
            self._tables[relation.key].append(row)
            for (target_rel, target_attr), values in self._fk_target_index.items():
                if target_rel == relation.key:
                    value = row[target_attr]
                    if value is not None:
                        values.add(value)
            self._relation_versions[relation.key] += 1
            self._data_version += 1
        return row

    def insert_many(
        self,
        relation_name: str,
        rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]],
    ) -> int:
        count = 0
        for values in rows:
            self.insert(relation_name, values)
            count += 1
        return count

    def _build_row(
        self, relation: Relation, values: Union[Mapping[str, Any], Sequence[Any]]
    ) -> Row:
        row: Row = {}
        if isinstance(values, Mapping):
            provided = {normalize(k): v for k, v in values.items()}
            for attribute in relation.attributes:
                row[attribute.key] = coerce(
                    provided.pop(attribute.key, None), attribute.data_type
                )
            if provided:
                unknown = ", ".join(sorted(provided))
                raise IntegrityError(
                    f"unknown columns for {relation.name!r}: {unknown}"
                )
        else:
            values = list(values)
            if len(values) != len(relation):
                raise IntegrityError(
                    f"{relation.name!r} expects {len(relation)} values, "
                    f"got {len(values)}"
                )
            for attribute, value in zip(relation.attributes, values):
                row[attribute.key] = coerce(value, attribute.data_type)
        for attribute in relation.attributes:
            if not attribute.nullable and row[attribute.key] is None:
                raise IntegrityError(
                    f"{relation.name}.{attribute.name} may not be NULL"
                )
        return row

    def _check_primary_key(self, relation: Relation, row: Row) -> None:
        if not relation.primary_key:
            return
        key = tuple(row[normalize(c)] for c in relation.primary_key)
        if any(part is None for part in key):
            raise IntegrityError(
                f"NULL in primary key of {relation.name!r}: {key}"
            )
        index = self._pk_index[relation.key]
        if key in index:
            raise IntegrityError(
                f"duplicate primary key in {relation.name!r}: {key}"
            )
        index.add(key)

    def _check_foreign_keys(self, relation: Relation, row: Row) -> None:
        for fk in self.catalog.foreign_keys:
            if normalize(fk.source_relation) != relation.key:
                continue
            value = row[normalize(fk.source_attribute)]
            if value is None:
                continue
            index = self._fk_target_index[
                (normalize(fk.target_relation), normalize(fk.target_attribute))
            ]
            if value not in index:
                raise IntegrityError(
                    f"foreign key violation: {fk} has no target for {value!r}"
                )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def rows(self, relation_name: str) -> list[Row]:
        """All rows of a relation (live list; treat as read-only)."""
        return self._tables[self.catalog.relation(relation_name).key]

    def count(self, relation_name: str) -> int:
        return len(self.rows(relation_name))

    def column_values(self, relation_name: str, attribute_name: str) -> list[Any]:
        """All values of one column — used by the similarity layer to check
        whether a user-written value condition is satisfied by a column."""
        relation = self.catalog.relation(relation_name)
        attribute = relation.attribute(attribute_name)
        return [row[attribute.key] for row in self._tables[relation.key]]

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def execute(self, query: Union[str, ast.Node]) -> Result:
        """Execute full SQL (text or AST) and return a Result.

        Text is parsed and planned once and then reused from a bounded
        map (:data:`STATEMENT_CACHE_SIZE` texts); an AST is planned once
        per call."""
        if isinstance(query, str):
            return self._prepared(query).execute()
        return self._executor.execute(query)

    def _prepared(self, text: str) -> Prepared:
        with self._statements_lock:
            prepared = self._statements.get(text)
            if prepared is not None:
                self._statements.move_to_end(text)
                return prepared
        prepared = self._executor.prepare(parse(text))
        with self._statements_lock:
            self._statements[text] = prepared
            if len(self._statements) > STATEMENT_CACHE_SIZE:
                self._statements.popitem(last=False)
        return prepared
