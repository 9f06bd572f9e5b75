"""The ``Backend`` protocol — what translation and execution need from
a database, stated once.

The schema-free pipeline touches its substrate in exactly four ways:

* **catalog** — relations, attributes, FK adjacency (the view graph);
* **statistics** — column value samples for similarity scoring and
  condition-probe sampling (:class:`repro.core.context.TranslationContext`);
* **execution** — run a composed standard-SQL query and get a
  :class:`repro.engine.Result`;
* **freshness** — a monotone ``data_version`` so derived caches know
  when to invalidate, and a per-relation ``relation_version`` so they
  know *what* to invalidate.

Anything providing those four surfaces can sit under the translator.
:class:`repro.engine.Database` satisfies the protocol structurally
(minus the ``kind``/``close`` bookkeeping — wrap it with
:func:`repro.backends.as_backend`), and :class:`~repro.backends.sqlite.
SqliteBackend` provides them over a real SQLite file, reflecting the
catalog instead of hand-building it.

The statistics contract, which makes translation deterministic across
backends (DESIGN.md §12):

* ``column_values`` returns the column in **storage (insertion) order**
  with values decoded to engine types (``bool``/``datetime.date``, not
  SQLite's ``0/1``/ISO text) — the context dedupes and stride-samples
  on top, so identical contents yield identical samples and therefore
  identical similarity scores on every backend;
* ``count`` is the exact row count;
* ``data_version`` moves whenever either could change;
* ``relation_version(R)`` moves whenever R's ``column_values`` or
  ``count`` could change.  It may move more often than that — a backend
  that cannot tell which table a write touched returns ``data_version``
  for every relation, so every relation counts as changed — but it never
  stays put across a change to R.  Read ``data_version`` first: a
  consumer that records the relation versions it read *after* the data
  version can never miss a write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import Catalog
    from ..engine.executor import Result
    from ..sqlkit import ast


@runtime_checkable
class Backend(Protocol):
    """Query execution and schema/statistics access behind one interface."""

    #: Short implementation tag (``"memory"``, ``"sqlite"``) used as the
    #: ``backend`` label on ``repro_backend_*`` metrics and span attributes.
    kind: str

    @property
    def catalog(self) -> "Catalog":
        """The schema this backend serves (reflected or hand-built)."""
        ...

    @property
    def data_version(self) -> int:
        """Monotone counter; moves when table contents may have changed."""
        ...

    def relation_version(self, relation_name: str) -> int:
        """Monotone counter; moves when one relation's contents may have
        changed (see the freshness contract above)."""
        ...

    def count(self, relation_name: str) -> int:
        """Exact row count of one relation."""
        ...

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        """One column's values, storage order, decoded to engine types."""
        ...

    def execute(self, query: Union[str, "ast.Node"]) -> "Result":
        """Execute standard SQL (text or AST) and return engine-shaped rows."""
        ...

    def close(self) -> None:
        """Release underlying resources; further calls are undefined."""
        ...
