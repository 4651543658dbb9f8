"""Memory and import footprint of a query process.

* ``import repro`` (with the server and CLI) loads no scipy: scipy
  serves only the LP baseline, which imports it when it runs;
* a process's first Top-K count query imports no ``numpy.*`` or
  ``scipy.*`` module: that cost belongs to start-up, not to an answer;
* the tokenizer's set builders intern tokens, so sets built from
  different texts share one string per distinct gram or word.

The import checks run in a fresh interpreter: this test process may
already hold scipy from another test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.similarity.tokenize import (
    ADDRESS_STOP_WORDS,
    content_word_set,
    content_words,
    ngram_set,
    ngrams,
    word_set,
    words,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script: str) -> dict:
    """Run *script* in a fresh interpreter; return its last stdout line
    as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _heavy(modules) -> list[str]:
    return sorted(
        m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.")
    )


def test_import_loads_no_scipy():
    loaded = _run(
        "import json, sys\n"
        "import repro, repro.server, repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.clustering.lp" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_first_count_query_imports_no_numpy_or_scipy_module():
    report = _run(
        "import json, sys\n"
        "from repro.core.topk import topk_count_query\n"
        "from repro.datasets import (\n"
        "    author_idf, author_string_idf, generate_citations, suggest_min_idf\n"
        ")\n"
        "from repro.predicates import citation_levels\n"
        "from repro.scoring.pairwise import WeightedScorer\n"
        "from repro.similarity.vectorize import citation_featurizer\n"
        "store = generate_citations(n_records=1500, seed=0).store\n"
        "idf = author_idf(store)\n"
        "levels = citation_levels(\n"
        "    idf, suggest_min_idf(idf), anchor_idf=author_string_idf(store)\n"
        ")\n"
        "featurizer = citation_featurizer(idf)\n"
        "scorer = WeightedScorer(\n"
        "    featurizer, [1.0] * featurizer.n_features, bias=-2.0\n"
        ")\n"
        "before = set(sys.modules)\n"
        "result = topk_count_query(store, 5, levels, scorer)\n"
        "print(json.dumps({\n"
        "    'answers': len(result.answers),\n"
        "    'new': sorted(set(sys.modules) - before),\n"
        "}))\n"
    )
    assert report["answers"] >= 1
    assert _heavy(report["new"]) == []


def _shared_object(left: frozenset, right: frozenset, token: str):
    """The objects equal to *token* in both sets."""
    return (
        next(item for item in left if item == token),
        next(item for item in right if item == token),
    )


def test_set_builders_share_one_string_per_token():
    # Build the texts at run time so no literal constant is shared.
    first = "".join(["ann ", "smith"])
    second = "".join(["smith", "son ", "bob"])
    a, b = ngram_set(first), ngram_set(second)
    assert {"smi", "mit", "ith"} <= a & b
    for gram in a & b:
        mine, theirs = _shared_object(a, b, gram)
        assert mine is theirs
    a, b = word_set(first), word_set("".join(["smith ", "jones"]))
    mine, theirs = _shared_object(a, b, "smith")
    assert mine is theirs
    a = content_word_set("".join(["near ", "smith"]), ADDRESS_STOP_WORDS)
    mine, theirs = _shared_object(a, b, "smith")
    assert mine is theirs


def test_set_builders_keep_their_values():
    for text in ("Ann  Smith", "a", "", "Smith, J. & Co 42"):
        assert ngram_set(text) == frozenset(ngrams(text))
        assert ngram_set(text, 2) == frozenset(ngrams(text, 2))
        assert word_set(text) == frozenset(words(text))
        assert content_word_set(text, ADDRESS_STOP_WORDS) == frozenset(
            content_words(text, ADDRESS_STOP_WORDS)
        )
