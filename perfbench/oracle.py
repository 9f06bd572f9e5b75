"""The independent answer oracle: each dataset exported to SQLite.

Gold rows and reference rows are computed on SQLite, outside every
timed region, and cached by ``(database, write count, SQL text)``.
Writes made to the program's databases are mirrored here, so the
oracle always answers over the same data.
"""

from __future__ import annotations

import datetime

from repro.backends import SqliteBackend
from repro.engine.io import export_to_sqlite
from repro.errors import ReproError
from repro.testing.differential import normalize_rows


def _encode(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


class Oracle:
    """Row multisets of SQL run on SQLite copies of the datasets."""

    def __init__(self, databases: dict) -> None:
        self._connections = {
            name: export_to_sqlite(db, ":memory:") for name, db in databases.items()
        }
        self._backends = {
            name: SqliteBackend(conn, name=name)
            for name, conn in self._connections.items()
        }
        self._writes = {name: 0 for name in databases}
        self._cache: dict[tuple, object] = {}
        self.queries = 0

    def rows(self, database: str, sql: str):
        """Normalised row multiset of *sql*, or ``None`` when SQLite
        cannot run it."""
        key = (database, self._writes[database], sql)
        if key not in self._cache:
            self.queries += 1
            try:
                result = self._backends[database].execute(sql)
            except ReproError:
                self._cache[key] = None
            else:
                self._cache[key] = normalize_rows(result.rows)
        return self._cache[key]

    def forget(self) -> None:
        """Drop cached rows (bounds the oracle's share of the heap)."""
        self._cache.clear()

    def insert(self, database: str, relation: str, row: dict) -> None:
        """Mirror one insert made to the program's database."""
        columns = ", ".join(f'"{c}"' for c in row)
        marks = ", ".join("?" for _ in row)
        self._connections[database].execute(
            f'INSERT INTO "{relation}" ({columns}) VALUES ({marks})',
            [_encode(v) for v in row.values()],
        )
        self._writes[database] += 1

    def close(self) -> None:
        for backend in self._backends.values():
            backend.close()
        for connection in self._connections.values():
            connection.close()
