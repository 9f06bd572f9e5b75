"""Seeded inputs for every workload.

Everything a run sends to the program is derived here from the one
``--seed`` argument; the program only ever sees the generated SQL text
(and the insert rows).  Each generator takes its own ``random.Random``
seeded with ``"<seed>:<purpose>"`` so that adding a draw to one stream
never shifts another.

The pool is every shipped query: the 17 textbook queries, the 30
simulated-user variants of the six sophisticated queries, the 48 course
queries and the 9 efficiency chains (104 texts), flattened the way the
differential harness flattens them.  Nothing is curated out.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.sqlkit import ast, parse, render
from repro.testing.differential import workload_pairs
from repro.workloads import COURSE_QUERIES, SOPHISTICATED_QUERIES, TEXTBOOK_QUERIES
from repro.workloads.efficiency import EFFICIENCY_QUERIES

#: zipf exponent of the popularity draw
ZIPF_S = 1.0
#: requests drawn per popularity ranking; the ranking is re-drawn for
#: every block, so a run averages over many rankings and its figures do
#: not hinge on which few texts one seed happens to make popular
ZIPF_BLOCK = 25
#: the relation each database's single-row inserts go to
INSERT_RELATION = {"movies": "person", "courses": "student"}

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)


@dataclass(frozen=True)
class Text:
    """One shipped SF-SQL text with the gold SQL it should mean."""

    qid: str
    database: str
    sfsql: str
    gold: str

    @property
    def nested(self) -> bool:
        """True when the gold SQL evaluates a sub-query."""
        return any(
            isinstance(node, _SUBQUERY_NODES) for node in parse(self.gold).walk()
        )


def shipped_pool() -> list[Text]:
    """Every shipped text, movies first, in a fixed order."""
    sources = [
        ("movies", TEXTBOOK_QUERIES + SOPHISTICATED_QUERIES),
        ("courses", COURSE_QUERIES + EFFICIENCY_QUERIES),
    ]
    pool = []
    for database, queries in sources:
        gold = {q.qid: q.gold_sql for q in queries}
        for qid, sfsql in workload_pairs(queries):
            pool.append(Text(qid, database, sfsql, gold[qid.split("#")[0]]))
    return pool


# ---------------------------------------------------------------------------
# adhoc: constants re-drawn from the same column's values
# ---------------------------------------------------------------------------


class ConstantSampler:
    """Re-draws the literal constants of a text, in SF-SQL and gold alike.

    Each comparison ``column <op> literal`` (and ``column BETWEEN a AND
    b``) of the gold SQL is resolved to its relation column; a literal
    value used for exactly one column, and present in the SF-SQL too, is
    replaced in both texts by a value drawn from that column's rows.
    Literals that cannot be resolved (``HAVING count(*) > 3``) stay.
    """

    def __init__(self, databases: dict, seed: int) -> None:
        self.databases = databases
        self.rng = random.Random(f"{seed}:adhoc-constants")
        self._values: dict[tuple[str, str, str], list] = {}

    def _column_values(self, database: str, relation: str, attribute: str) -> list:
        key = (database, relation, attribute)
        if key not in self._values:
            rows = self.databases[database].rows(relation)
            self._values[key] = sorted(
                {row[attribute] for row in rows if row.get(attribute) is not None},
                key=repr,
            )
        return self._values[key]

    def _columns_of_literals(self, database: str, gold: ast.Node) -> dict:
        """literal value -> set of (relation, attribute) it is compared to."""
        catalog = self.databases[database].catalog
        bindings: dict[str, str] = {}
        relations: list[str] = []
        for node in gold.walk():
            if isinstance(node, ast.TableRef):
                name = node.name.text.lower()
                bindings[node.binding.lower()] = name
                relations.append(name)

        def resolve(column: ast.Node) -> Optional[tuple[str, str]]:
            if not isinstance(column, ast.ColumnRef):
                return None
            attribute = column.attribute.text.lower()
            if column.relation is not None:
                relation = bindings.get(column.relation.text.lower())
                return (relation, attribute) if relation else None
            owners = {
                r for r in relations
                if any(a.key == attribute for a in catalog.relation(r).attributes)
            }
            return (owners.pop(), attribute) if len(owners) == 1 else None

        found: dict = {}

        def note(column: ast.Node, literal: ast.Node) -> None:
            if not isinstance(literal, ast.Literal) or literal.value is None:
                return
            target = resolve(column)
            if target is not None:
                found.setdefault(_literal_key(literal.value), set()).add(target)

        for node in gold.walk():
            if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
                note(node.left, node.right)
                note(node.right, node.left)
            elif isinstance(node, ast.Between):
                note(node.expr, node.low)
                note(node.expr, node.high)
        return found

    def resample(self, text: Text) -> tuple[str, str]:
        """A fresh ``(sfsql, gold)`` pair for *text*."""
        gold = parse(text.gold)
        sfsql = parse(text.sfsql)
        in_sfsql = {
            _literal_key(node.value)
            for node in sfsql.walk()
            if isinstance(node, ast.Literal) and node.value is not None
        }
        substitution = {}
        for key, columns in sorted(
            self._columns_of_literals(text.database, gold).items(), key=repr
        ):
            if len(columns) != 1 or key not in in_sfsql:
                continue
            (relation, attribute), = columns
            candidates = [
                v for v in self._column_values(text.database, relation, attribute)
                if _literal_key(v)[0] == key[0]
            ]
            if candidates:
                substitution[key] = self.rng.choice(candidates)

        def swap(node: ast.Node) -> Optional[ast.Node]:
            if isinstance(node, ast.Literal) and node.value is not None:
                key = _literal_key(node.value)
                if key in substitution:
                    return ast.Literal(substitution[key])
            if isinstance(node, ast.Between):
                low, high = node.low, node.high
                if (
                    isinstance(low, ast.Literal)
                    and isinstance(high, ast.Literal)
                    and type(low.value) is type(high.value)
                    and low.value is not None
                    and low.value > high.value
                ):
                    return ast.Between(node.expr, high, low, node.negated)
            return None

        return render(ast.transform(sfsql, swap)), render(ast.transform(gold, swap))


def _literal_key(value) -> tuple[str, object]:
    kind = "number" if isinstance(value, (int, float)) and not isinstance(
        value, bool
    ) else type(value).__name__
    return kind, value


def adhoc_passes(pool: list[Text], seed: int) -> Iterator[list[Text]]:
    """Endless passes over the pool: each pass is every text once,
    alternating movies and courses, in a seeded order."""
    rng = random.Random(f"{seed}:adhoc-order")
    movies = [t for t in pool if t.database == "movies"]
    courses = [t for t in pool if t.database == "courses"]
    while True:
        rng.shuffle(movies)
        rng.shuffle(courses)
        yield [
            t
            for pair in itertools.zip_longest(movies, courses)
            for t in pair
            if t is not None
        ]


# ---------------------------------------------------------------------------
# answer and server-probe streams
# ---------------------------------------------------------------------------


def zipf_stream(texts: list[Text], rng: random.Random) -> Iterator[Text]:
    """Endless zipf(ZIPF_S) draws over *texts*; the popularity ranking
    is a fresh seeded permutation every ZIPF_BLOCK requests."""
    weights = list(
        itertools.accumulate(1.0 / (rank ** ZIPF_S) for rank in range(1, len(texts) + 1))
    )
    while True:
        ranking = rng.sample(texts, len(texts))
        yield from rng.choices(ranking, cum_weights=weights, k=ZIPF_BLOCK)


@dataclass(frozen=True)
class Insert:
    """One single-row write with a fresh primary key."""

    database: str
    relation: str
    row: dict


class InsertRows:
    """Fresh-key rows for each database's insert relation; every other
    column takes a seeded draw from that column's existing values."""

    def __init__(self, databases: dict, seed: int) -> None:
        self.databases = databases
        self.rng = random.Random(f"{seed}:inserts")
        self._next_key: dict[str, int] = {}

    def next(self, database: str) -> Insert:
        relation_name = INSERT_RELATION[database]
        db = self.databases[database]
        relation = db.catalog.relation(relation_name)
        (key_column,) = relation.primary_key
        key_column = key_column.lower()
        rows = db.rows(relation_name)
        if database not in self._next_key:
            self._next_key[database] = max(r[key_column] for r in rows) + 1
        key = self._next_key[database]
        self._next_key[database] += 1
        row = {}
        for attribute in relation.attributes:
            if attribute.key == key_column:
                row[attribute.key] = key
            else:
                row[attribute.key] = self.rng.choice(rows)[attribute.key]
        return Insert(database, relation_name, row)


@dataclass(frozen=True)
class Epoch:
    """One measured cycle of the ``answer`` workload."""

    inserts: tuple[Insert, ...]
    requests: tuple[Text, ...]


#: extra requests per answer epoch for each text without a sub-query
ANSWER_REPEATS = 4


def answer_epochs(
    pool: list[Text], databases: dict, seed: int
) -> Iterator[Epoch]:
    """Endless ``answer`` epochs.

    An epoch opens with one insert into each database (so about one
    request in 255 is a write, alternating databases), which bumps its
    ``data_version`` and wipes every memo.  Then, in a seeded order,
    every shipped text is requested once -- the re-warm, which also runs
    each nested-sub-query text (T12 included) exactly once -- mixed with
    ANSWER_REPEATS more requests for each text without a sub-query.

    The repeats are cache hits whatever their order, and execution costs
    differ tenfold between texts, so a skewed (zipf) popularity would let
    the seed pick which costs dominate the run; an equal count per text
    keeps every epoch the same multiset.  Nested texts repeat only through
    the once-per-epoch request: T12's top-1 SQL takes about 5 s in the
    engine, and any seeded share of repeats for it would decide the
    whole run's throughput.
    """
    rng = random.Random(f"{seed}:answer")
    rows = InsertRows(databases, seed)
    flat = [t for t in pool if not t.nested]
    while True:
        requests = list(pool) + flat * ANSWER_REPEATS
        rng.shuffle(requests)
        yield Epoch((rows.next("movies"), rows.next("courses")), tuple(requests))


def poisson_schedule(
    pool: list[Text], seed: int, rate: float, seconds: float
) -> list[tuple[float, Text]]:
    """``(due offset in seconds, text)`` pairs of an open-loop Poisson
    arrival process at *rate* per second, over the zipf stream."""
    rng = random.Random(f"{seed}:serve")
    texts = zipf_stream(pool, rng)
    schedule, due = [], 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            return schedule
        schedule.append((due, next(texts)))
