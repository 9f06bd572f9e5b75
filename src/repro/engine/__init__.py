"""In-memory relational execution engine (the RDBMS substrate)."""

from .database import Database
from .errors import EngineError, ExecutionError, IntegrityError, NameResolutionError
from .evaluator import Scope, compare, compile_expr, like_match
from .executor import Executor, Result
from .functions import AGGREGATE_NAMES, SCALAR_FUNCTIONS, aggregate, is_aggregate
from .io import (
    catalog_from_dict,
    catalog_to_dict,
    export_to_sqlite,
    load_database,
    save_database,
)

__all__ = [
    "AGGREGATE_NAMES",
    "Database",
    "EngineError",
    "ExecutionError",
    "Executor",
    "IntegrityError",
    "NameResolutionError",
    "Result",
    "SCALAR_FUNCTIONS",
    "Scope",
    "aggregate",
    "catalog_from_dict",
    "catalog_to_dict",
    "export_to_sqlite",
    "load_database",
    "save_database",
    "compare",
    "compile_expr",
    "is_aggregate",
    "like_match",
]
