"""Shared fixtures: tiny hand-built datasets and predicates."""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.core.records import RecordStore
from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.predicates.batch import VECTORIZE_ENV_VAR


@contextlib.contextmanager
def vectorize_mode(enabled: bool):
    """Force the vectorized hot path on or off for the enclosed block.

    Sets ``REPRO_VECTORIZE`` in the environment and restores the
    previous value on exit.
    """
    old = os.environ.get(VECTORIZE_ENV_VAR)
    os.environ[VECTORIZE_ENV_VAR] = "1" if enabled else "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(VECTORIZE_ENV_VAR, None)
        else:
            os.environ[VECTORIZE_ENV_VAR] = old


def make_store(names: list[str], weights: list[float] | None = None) -> RecordStore:
    """RecordStore with a single 'name' field per record."""
    return RecordStore.from_rows([{"name": n} for n in names], weights=weights)


def exact_name_predicate() -> FunctionPredicate:
    """Sufficient-style predicate: names equal."""
    return FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=lambda r: [r["name"]],
        name="exact-name",
        key_implies_match=True,
    )


def shared_word_predicate() -> FunctionPredicate:
    """Necessary-style predicate: names share a word."""
    return FunctionPredicate(
        evaluate_fn=lambda a, b: bool(
            set(a["name"].split()) & set(b["name"].split())
        ),
        keys_fn=lambda r: r["name"].split(),
        name="shared-word",
    )


@pytest.fixture
def name_level() -> PredicateLevel:
    """A (sufficient=exact name, necessary=shared word) level."""
    return PredicateLevel(exact_name_predicate(), shared_word_predicate())


@pytest.fixture
def tiny_store() -> RecordStore:
    """Nine records over three entities: ann smith, bob jones, cara lee."""
    return make_store(
        [
            "ann smith",
            "ann smith",
            "a smith",
            "bob jones",
            "bob jones",
            "bob jones",
            "cara lee",
            "c lee",
            "ann smith",
        ]
    )
