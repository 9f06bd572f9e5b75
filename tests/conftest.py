"""Shared fixtures: the paper's Figure 1 movie schema and sample data."""

from __future__ import annotations

import pytest

from repro import Catalog, Database, DataType, SchemaFreeTranslator
from repro.errors import ReproError


def make_fig1_catalog() -> Catalog:
    """The running example's schema: 6 relations, 6 FK-PK pairs."""
    catalog = Catalog("movies-fig1")
    catalog.create_relation(
        "Person",
        [
            ("person_id", DataType.INTEGER),
            ("name", DataType.TEXT),
            ("gender", DataType.TEXT),
        ],
        primary_key=["person_id"],
    )
    catalog.create_relation(
        "Movie",
        [
            ("movie_id", DataType.INTEGER),
            ("title", DataType.TEXT),
            ("release_year", DataType.INTEGER),
        ],
        primary_key=["movie_id"],
    )
    catalog.create_relation(
        "Company",
        [("company_id", DataType.INTEGER), ("name", DataType.TEXT)],
        primary_key=["company_id"],
    )
    catalog.create_relation(
        "Actor",
        [("person_id", DataType.INTEGER), ("movie_id", DataType.INTEGER)],
    )
    catalog.create_relation(
        "Director",
        [("person_id", DataType.INTEGER), ("movie_id", DataType.INTEGER)],
    )
    catalog.create_relation(
        "Movie_Producer",
        [("movie_id", DataType.INTEGER), ("company_id", DataType.INTEGER)],
    )
    for source, attribute, target in [
        ("Actor", "person_id", "Person"),
        ("Actor", "movie_id", "Movie"),
        ("Director", "person_id", "Person"),
        ("Director", "movie_id", "Movie"),
        ("Movie_Producer", "movie_id", "Movie"),
        ("Movie_Producer", "company_id", "Company"),
    ]:
        catalog.add_foreign_key(source, attribute, target)
    return catalog


def populate_fig1(db: Database) -> None:
    db.insert("Person", [1, "James Cameron", "male"])
    db.insert("Person", [2, "Leonardo DiCaprio", "male"])
    db.insert("Person", [3, "Kate Winslet", "female"])
    db.insert("Person", [4, "Sam Worthington", "male"])
    db.insert("Person", [5, "Tom Hanks", "male"])
    db.insert("Person", [6, "Steven Spielberg", "male"])
    db.insert("Company", [1, "20th Century Fox"])
    db.insert("Company", [2, "Paramount"])
    db.insert("Company", [3, "DreamWorks"])
    db.insert("Movie", [10, "Titanic", 1997])
    db.insert("Movie", [11, "Avatar", 2009])
    db.insert("Movie", [12, "The Terminal", 2004])
    db.insert("Actor", [2, 10])
    db.insert("Actor", [3, 10])
    db.insert("Actor", [4, 11])
    db.insert("Actor", [5, 12])
    db.insert("Director", [1, 10])
    db.insert("Director", [1, 11])
    db.insert("Director", [6, 12])
    db.insert("Movie_Producer", [10, 1])
    db.insert("Movie_Producer", [10, 2])
    db.insert("Movie_Producer", [11, 1])
    db.insert("Movie_Producer", [12, 3])


def make_fig1_db() -> Database:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


def results(translator, query, top_k=3):
    """Translate and normalise to a comparable value; error outcomes are
    part of the contract, so they normalise too instead of failing."""
    try:
        return [
            (t.sql, round(t.weight, 9))
            for t in translator.translate(query, top_k=top_k)
        ]
    except ReproError as exc:
        return type(exc).__name__


@pytest.fixture(scope="session")
def fig1_db() -> Database:
    return make_fig1_db()


@pytest.fixture()
def fig1_translator(fig1_db) -> SchemaFreeTranslator:
    return SchemaFreeTranslator(fig1_db)
