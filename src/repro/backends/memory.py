"""MemoryBackend — the in-process engine behind the Backend protocol.

A thin instrumented wrapper around :class:`repro.engine.Database`.  The
Database already satisfies the protocol structurally; the wrapper adds
the ``kind`` tag, a no-op ``close`` and ``repro_backend_*`` spans and
metrics so both backends are observable through the same names.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Optional, Union

from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from .instrument import BackendInstruments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import Catalog
    from ..engine.database import Database
    from ..engine.executor import Result
    from ..sqlkit import ast


class MemoryBackend:
    """Serve translation and execution from an in-memory ``Database``."""

    kind = "memory"

    def __init__(
        self,
        database: "Database",
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.database = database
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._instruments = BackendInstruments(metrics, self.kind)

    @property
    def catalog(self) -> "Catalog":
        return self.database.catalog

    @property
    def data_version(self) -> int:
        return self.database.data_version

    def relation_version(self, relation_name: str) -> int:
        return self.database.relation_version(relation_name)

    def count(self, relation_name: str) -> int:
        return self.database.count(relation_name)

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        started = time.perf_counter()
        values = self.database.column_values(relation_name, attribute_name)
        self._instruments.observe("sample", time.perf_counter() - started, rows=len(values))
        return values

    def execute(self, query: Union[str, "ast.Node"]) -> "Result":
        with self.tracer.span("backend.execute", backend=self.kind) as span:
            started = time.perf_counter()
            try:
                result = self.database.execute(query)
            except Exception:  # re-raises after observing the failure
                self._instruments.observe(
                    "execute", time.perf_counter() - started, error=True
                )
                raise
            elapsed = time.perf_counter() - started
            self._instruments.observe("execute", elapsed, rows=len(result.rows))
            span.set_attribute("rows", len(result.rows))
            return result

    def close(self) -> None:
        """Nothing to release; the wrapped Database stays usable."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryBackend({self.database.catalog.name!r})"
