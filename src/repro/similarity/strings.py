"""Character-level string similarity measures implemented from scratch.

The paper's final-predicate feature set uses JaroWinkler — "an efficient
approximation of edit distance specifically tailored for names" (Section
6.1.1) — alongside set-based measures.  We implement Levenshtein, Jaro and
Jaro-Winkler here with no external dependencies, plus
:func:`jaro_winkler_pairs`, which runs Jaro-Winkler over a block of
string pairs in NumPy with results bit-identical to :func:`jaro_winkler`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .encoding import gather_rows


def levenshtein(a: str, b: str) -> int:
    """Return the Levenshtein (unit-cost edit) distance between *a* and *b*.

    Uses the classic two-row dynamic program: O(len(a) * len(b)) time,
    O(min(len(a), len(b))) memory.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Return edit distance normalized into a [0, 1] similarity."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Return the Jaro similarity of *a* and *b* in [0, 1].

    Matches are characters equal within a window of
    ``max(len(a), len(b)) // 2 - 1`` positions; transpositions are matched
    characters appearing in different relative orders.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0

    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0

    a_matched = [False] * len_a
    b_matched = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len_b, i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ch:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    # Count transpositions between the matched subsequences.
    b_match_chars = [b[j] for j in range(len_b) if b_matched[j]]
    transpositions = 0
    k = 0
    for i in range(len_a):
        if a_matched[i]:
            if a[i] != b_match_chars[k]:
                transpositions += 1
            k += 1
    transpositions //= 2

    m = float(matches)
    return (m / len_a + m / len_b + (m - transpositions) / m) / 3.0


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


def soundex(word: str) -> str:
    """American Soundex code of *word* (e.g. ``"sarawagi" -> "S620"``).

    The classic phonetic blocking key of the record-linkage literature
    (Fellegi–Sunter lineage [18]): the first letter plus three digits
    encoding consonant classes, with adjacent duplicates collapsed and
    h/w transparent between same-coded consonants.  Returns '' for input
    with no ASCII letters.
    """
    letters = [ch for ch in word.lower() if "a" <= ch <= "z"]
    if not letters:
        return ""
    first = letters[0]
    code = [first.upper()]
    previous = _SOUNDEX_CODES.get(first, "")
    for ch in letters[1:]:
        if ch in "hw":
            continue  # transparent: does not reset the previous code
        digit = _SOUNDEX_CODES.get(ch, "")
        if digit and digit != previous:
            code.append(digit)
            if len(code) == 4:
                break
        previous = digit
    return "".join(code).ljust(4, "0")


def soundex_equal(a: str, b: str) -> bool:
    """True when the two words share a (non-empty) Soundex code."""
    code_a = soundex(a)
    return bool(code_a) and code_a == soundex(b)


def monge_elkan(
    tokens_a: list[str],
    tokens_b: list[str],
    base=None,
) -> float:
    """Monge–Elkan token-level similarity (the field-matching measure of
    Monge & Elkan [28], one of the paper's cited blocking designs).

    Each token of *tokens_a* is matched to its best counterpart in
    *tokens_b* under the *base* character similarity (Jaro-Winkler by
    default) and the maxima are averaged.  Asymmetric by definition;
    symmetrize with ``max`` or the mean of both directions if needed.
    """
    if base is None:
        base = jaro_winkler
    if not tokens_a:
        return 1.0 if not tokens_b else 0.0
    if not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(base(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Return the Jaro-Winkler similarity of *a* and *b* in [0, 1].

    Boosts the Jaro score by ``prefix_scale`` per character of common
    prefix (up to *max_prefix* characters), rewarding names that agree at
    the start — the dominant pattern for person-name variants.
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError(f"prefix_scale must be in [0, 0.25], got {prefix_scale}")
    base = jaro(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def encode_code_points(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The code points of *strings* in CSR form: ``(indptr, codes)``.

    ``codes[indptr[i]:indptr[i + 1]]`` are the characters of
    ``strings[i]`` as uint32 code points, so a string's length and
    indices are those of the Python ``str``.
    """
    indptr = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum([len(text) for text in strings], out=indptr[1:])
    codes = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    return indptr, codes


def _padded_rows(
    indptr: np.ndarray, codes: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a code-point CSR as a zero-padded 2-D array plus lengths."""
    flat, lengths = gather_rows(indptr, codes, rows)
    width = int(lengths.max()) if len(lengths) else 0
    padded = np.zeros((len(rows), width), dtype=np.uint32)
    if len(flat):
        row_of = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        starts = np.cumsum(lengths) - lengths
        padded[row_of, np.arange(len(flat), dtype=np.int64) - starts[row_of]] = flat
    return padded, lengths


#: Pairs per padded batch in :func:`jaro_winkler_pairs`.  Pairs are
#: batched by length, so one long string pads only its own batch.
_JW_BATCH = 512


def jaro_winkler_pairs(
    indptr: np.ndarray,
    codes: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """:func:`jaro_winkler` of strings ``left[t]`` and ``right[t]`` (rows
    of an :func:`encode_code_points` CSR) for every pair *t*, with the
    default prefix scale and length.

    Pairs are sorted by their longer string's length and scored in
    batches of :data:`_JW_BATCH`, each padded to its own longest string.
    The float arithmetic is the scalar one, operation for operation, so
    every value is bit-identical.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    lengths = np.diff(indptr)
    out = np.empty(len(left), dtype=np.float64)
    order = np.argsort(np.maximum(lengths[left], lengths[right]), kind="stable")
    for start in range(0, len(order), _JW_BATCH):
        rows = order[start : start + _JW_BATCH]
        out[rows] = _jaro_winkler_batch(indptr, codes, left[rows], right[rows])
    return out


def _jaro_winkler_batch(
    indptr: np.ndarray, codes: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """One padded batch of :func:`jaro_winkler_pairs`.

    The greedy match runs over character positions of the left strings,
    one NumPy step per position across the batch: each step takes, per
    pair, the first unmatched equal character inside the window — the
    scalar loop's choice.  Rows are ordered longest left string first,
    so the pairs still matching at position i are a prefix of the rows.
    """
    by_length = np.argsort(-np.diff(indptr)[left], kind="stable")
    a, len_a = _padded_rows(indptr, codes, left[by_length])
    b, len_b = _padded_rows(indptr, codes, right[by_length])
    n_pairs = len(len_a)
    width_a, width_b = a.shape[1], b.shape[1]
    rows = np.arange(n_pairs)
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)
    a_matched = np.zeros((n_pairs, width_a), dtype=bool)
    b_matched = np.zeros((n_pairs, width_b), dtype=bool)
    columns = np.arange(width_b)
    # active[i]: how many rows have a character at position i.
    active = np.searchsorted(-len_a, -np.arange(width_a if width_b else 0))
    for i, k in enumerate(active.tolist()):
        lo = np.maximum(i - window[:k], 0)
        hi = np.minimum(len_b[:k], i + window[:k] + 1)
        available = (
            (b[:k] == a[:k, i, None])
            & ~b_matched[:k]
            & (columns >= lo[:, None])
            & (columns < hi[:, None])
        )
        first = available.argmax(axis=1)
        hit = available[rows[:k], first]
        b_matched[rows[:k][hit], first[hit]] = True
        a_matched[rows[:k][hit], i] = True
    matches = a_matched.sum(axis=1)

    # Transpositions: the matched characters of each side, in order.
    span = min(width_a, width_b)
    a_seq = np.take_along_axis(
        a, np.argsort(~a_matched, axis=1, kind="stable"), axis=1
    )[:, :span]
    b_seq = np.take_along_axis(
        b, np.argsort(~b_matched, axis=1, kind="stable"), axis=1
    )[:, :span]
    transpositions = (
        (a_seq != b_seq) & (np.arange(span) < matches[:, None])
    ).sum(axis=1) // 2

    equal = (len_a == len_b) & (a[:, :span] == b[:, :span]).all(axis=1)
    scored = (matches > 0) & ~equal
    m = matches.astype(np.float64)
    jaro = np.where(equal, 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (m / len_a + m / len_b + (m - transpositions) / m) / 3.0
    jaro[scored] = value[scored]

    # Winkler boost: common prefix of at most 4 characters.
    head = min(4, span)
    agree = (a[:, :head] == b[:, :head]) & (
        np.arange(head) < np.minimum(len_a, len_b)[:, None]
    )
    prefix = np.cumprod(agree, axis=1).sum(axis=1)
    out = np.empty(n_pairs, dtype=np.float64)
    out[by_length] = jaro + prefix * 0.1 * (1.0 - jaro)
    return out
