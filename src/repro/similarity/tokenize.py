"""Tokenization utilities used by similarity measures and predicates.

Every predicate and similarity function in the paper operates on one of a
handful of signature sets derived from record fields: lower-cased word
tokens, character n-grams (the paper uses 3-grams throughout), name
initials, and stop-word-filtered word sets.  Keeping the derivations in one
module guarantees that a predicate and the similarity feature that mirrors
it tokenize identically.

The set builders intern every token (:func:`sys.intern`), so the sets the
caches below hold for a whole corpus share one string per distinct word
or gram instead of one copy per set.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

_WORD_RE = re.compile(r"[a-z0-9]+")

#: Hand-compiled address stop words, mirroring the paper's list of words
#: "commonly seen in addresses" (Section 6.1.3).
ADDRESS_STOP_WORDS = frozenset(
    {
        "street",
        "st",
        "road",
        "rd",
        "house",
        "flat",
        "apartment",
        "apt",
        "no",
        "number",
        "near",
        "opp",
        "opposite",
        "behind",
        "lane",
        "nagar",
        "colony",
        "society",
        "soc",
        "building",
        "bldg",
        "block",
        "plot",
        "sector",
        "floor",
        "main",
        "cross",
        "pune",
        "city",
        "area",
        "post",
        "dist",
        "district",
    }
)


def normalize(text: str) -> str:
    """Lower-case *text* and collapse runs of whitespace to single spaces."""
    return " ".join(text.lower().split())


def words(text: str) -> list[str]:
    """Return the lower-cased alphanumeric word tokens of *text*, in order.

    Punctuation is treated as a separator, so ``"Smith, J."`` yields
    ``["smith", "j"]``.
    """
    return _WORD_RE.findall(text.lower())


def word_set(text: str) -> frozenset[str]:
    """Return the set of lower-cased word tokens of *text* (interned)."""
    return frozenset(map(sys.intern, words(text)))


def content_words(text: str, stop_words: frozenset[str]) -> list[str]:
    """Return word tokens of *text* with *stop_words* removed, in order."""
    return [w for w in words(text) if w not in stop_words]


def content_word_set(text: str, stop_words: frozenset[str]) -> frozenset[str]:
    """Return the set of non-stop-word tokens of *text* (interned)."""
    return frozenset(map(sys.intern, content_words(text, stop_words)))


def ngrams(text: str, n: int = 3) -> list[str]:
    """Return the character *n*-grams of the normalized *text*, in order.

    The text is normalized first so spacing differences do not perturb the
    grams.  Texts shorter than *n* characters yield the whole text as a
    single gram (so very short names still produce a non-empty signature).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    norm = normalize(text)
    if not norm:
        return []
    if len(norm) <= n:
        return [norm]
    return [norm[i : i + n] for i in range(len(norm) - n + 1)]


def ngram_set(text: str, n: int = 3) -> frozenset[str]:
    """Return the set of character *n*-grams of *text* (interned)."""
    return frozenset(map(sys.intern, ngrams(text, n)))


def initials(text: str) -> tuple[str, ...]:
    """Return the first letter of each word token of *text*, in order.

    Numeric-only tokens are skipped: initials are a name signature and the
    paper's predicates compare them on author and student *names*.
    """
    result = []
    for token in words(text):
        if token[0].isalpha():
            result.append(token[0])
    return tuple(result)


def initial_set(text: str) -> frozenset[str]:
    """Return the unordered set of initials of *text*."""
    return frozenset(initials(text))


def sorted_initials_key(text: str) -> str:
    """Return a canonical string key for "initials match exactly".

    Two names whose word-order differs ("Sunita Sarawagi" vs
    "Sarawagi Sunita") still describe the same initials multiset, so the
    key is the sorted concatenation of initials.
    """
    return "".join(sorted(initials(text)))


@lru_cache(maxsize=65536)
def cached_ngram_set(text: str, n: int = 3) -> frozenset[str]:
    """Memoized :func:`ngram_set` for hot predicate loops."""
    return ngram_set(text, n)


@lru_cache(maxsize=65536)
def cached_word_set(text: str) -> frozenset[str]:
    """Memoized :func:`word_set` for hot predicate loops."""
    return word_set(text)


@lru_cache(maxsize=65536)
def cached_content_word_set(text: str, stop_words: frozenset[str]) -> frozenset[str]:
    """Memoized :func:`content_word_set` for hot predicate loops."""
    return content_word_set(text, stop_words)


@lru_cache(maxsize=65536)
def cached_sorted_initials_key(text: str) -> str:
    """Memoized :func:`sorted_initials_key` for hot predicate loops."""
    return sorted_initials_key(text)


@lru_cache(maxsize=65536)
def cached_initial_set(text: str) -> frozenset[str]:
    """Memoized :func:`initial_set` for hot predicate loops."""
    return initial_set(text)
