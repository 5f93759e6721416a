"""Exact counting and explicit enumeration of admissible words.

The number of admissible length-n words from symbol i to symbol j is
entry (i, j) of M**(n-1), in unbounded integer arithmetic.  A stint is
(graph, last length it extends to).  The counts at chosen lengths are
one walk (`_totals`) along the stints: the words ending in each letter sum
over its predecessor list, one 0/1 matrix-vector product (`intmat._step`)
per step between successive lengths, one binary power of the graph's
matrix from memoized squares (`intmat.vec_pow`) per longer gap, and the
graph's characteristic recurrence along more than k**2 consecutive lengths.
`count_series` steps the column sums (predecessor lists) and the row
sums (successor lists) together, one `_step` each per length.
`count_matrix` forms each row e_i^T M**(n-1) from the same squares.
Enumeration realizes the same census independently, by iterating the
1-letter extension map on the set of all words, starting from the
alphabet itself.  The routes are checked against each other in the test
suite.

A source is a graph or a `combine.CombinedSystem`, and it names its own
stints (`_stints`): a graph is one stint, a system one per schedule gap.
The walk and the extension read only the stints, so `total_count`,
`iter_word_sets` and `enumerate_words` each serve both sources.

Enumerated words of length n over k symbols are carried as base-k integer
codes (most significant digit = first letter), one ascending numpy array
per length.  Code order equals lexicographic word order.  Extension is a
multiply-add per word, c*k + u for each successor u of the last letter in
ascending order, so an ascending level extends to an ascending level
without a sort, and the letters u are carried as the next level's last
letters.  An extension is one chain of array-method calls sized by the
cumulative fan-out.  Level n is int64 while k**n <= 2**63, else Python
integers in an object array, extended alike.

Reads cost array time: a tuple of in-range ints folds in one pass, then
one binary search; words decode 2**14 codes at a time by digit extraction.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import DirectedGraph, Alphabet, GraphSpecError
from .intmat import IntMatrix, _berkowitz, _step, vec_pow

if TYPE_CHECKING:
    from .combine import CombinedSystem

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV = "SYMGRAPH_ENUM_CAP"

Word = tuple[int, ...]
# (graph performing the extensions, last length it extends to); stints ascend
Stint = tuple[DirectedGraph, int]


class EnumerationCapError(RuntimeError):
    """Enumeration would materialize more words than the cap allows."""

    def __init__(self, length: int, count: int, cap: int):
        self.length = length
        self.count = count
        self.cap = cap
        super().__init__(
            f"enumeration of {count} words at length {length} exceeds cap {cap}"
        )


def enumeration_cap(override: int | None = None) -> int:
    """Effective cap: explicit override, else SYMGRAPH_ENUM_CAP, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(ENUM_CAP_ENV)
    return int(env) if env else DEFAULT_ENUM_CAP


# ---------------------------------------------------------------------------
# word coercion


def as_indices(alphabet: Alphabet, word: str | Sequence[str] | Sequence[int]) -> Word:
    """Coerce a word given as index tuple, symbol sequence, or plain string.

    Strings are only accepted when every alphabet symbol is a single
    character (then each character is one letter).
    """
    if isinstance(word, str):
        if _separator(alphabet):
            raise GraphSpecError(
                "string words need a single-character alphabet; pass a symbol sequence"
            )
        return tuple(alphabet.index(ch) for ch in word)
    k = alphabet.k
    letters: list[int] = []
    for item in word:
        if item.__class__ is int and 0 <= item < k:
            letters.append(item)
        elif isinstance(item, str):
            letters.append(alphabet.index(item))
        else:
            try:
                idx = int(item)
            except (TypeError, ValueError, OverflowError):
                idx = -1  # out of range: None, nan, inf and 1+0j are no letters
            if idx != item or not 0 <= idx < k:  # 1.0 and numpy ints are letters, 0.5 is not
                raise GraphSpecError(f"letter {item!r} is neither a symbol nor an index below {k}")
            letters.append(idx)
    return tuple(letters)


def _separator(alphabet: Alphabet) -> str:
    """What joins rendered letters: nothing if every symbol is one character, else a dot."""
    return "" if all(len(s) == 1 for s in alphabet.symbols) else "."


def format_word(alphabet: Alphabet, letters: Sequence[int]) -> str:
    return _separator(alphabet).join(alphabet.symbols[i] for i in letters)


def is_admissible(graph: DirectedGraph, word: str | Sequence[str] | Sequence[int]) -> bool:
    """True iff every adjacent letter pair is an edge; length-1 words pass."""
    letters = as_indices(graph.alphabet, word)
    if not letters:
        return False
    return all(graph.has_edge(a, b) for a, b in zip(letters, letters[1:]))


# ---------------------------------------------------------------------------
# exact counts


@dataclass(frozen=True)
class CountMatrix:
    """Entry (i, j) is the number of admissible length-n words i -> j."""

    alphabet: Alphabet
    n: int
    entries: IntMatrix

    @property
    def total(self) -> int:
        return sum(map(sum, self.entries))

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self.entries))

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.entries)))

    def entry(self, frm: int | str, to: int | str) -> int:
        i = frm if isinstance(frm, int) else self.alphabet.index(frm)
        j = to if isinstance(to, int) else self.alphabet.index(to)
        return self.entries[i][j]


class CountRow(NamedTuple):
    """The exact counts at length n: all words, by first letter, by last letter."""

    n: int
    total: int
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]


@dataclass(frozen=True)
class CountSeries:
    alphabet: Alphabet
    rows: tuple[CountRow, ...]

    def totals(self) -> list[tuple[int, int]]:
        return [(r.n, r.total) for r in self.rows]


def count_matrix(graph: DirectedGraph, n: int) -> CountMatrix:
    """Exact census by endpoints: row i of M**(n-1) is e_i^T M**(n-1)."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    k = graph.k
    rows = tuple(vec_pow(tuple(int(i == j) for j in range(k)), graph.adjacency, n - 1) for i in range(k))
    return CountMatrix(graph.alphabet, n, rows)


def total_count(source: DirectedGraph | CombinedSystem, n: int) -> int:
    """Exact number of admissible length-n words: 1^T A_2 ... A_n 1, by one walk."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    return next(_totals(source, (n,)))


def _totals(source: DirectedGraph | CombinedSystem, lengths: Sequence[int]) -> Iterator[int]:
    """Yield the number of length-n words at each n of the non-empty ascending lengths.

    One walk steps the row vector v = 1^T A_2 ... A_n, whose entry u
    counts the words ending in u: stint (graph, last) gives A_j, the
    graph's matrix, for the steps to lengths up to last.  One step sums
    over its predecessor lists, a longer gap is a binary power of its
    matrix.  A run of more than k**2 consecutive lengths in one stint
    takes k - 1 steps from its start v, then t_m = v A^m 1 for m >= k by
    chi(x) = x^k + c_1 x^(k-1) + ... + c_k, summed over the nonzero c_i:
    t_m = -(c_1 t_(m-1) + ... + c_k t_(m-k)), as v A^(m-k) chi(A) 1 = 0;
    one power passes the run unless the walk ends there.  An uncached
    Berkowitz run costs 20 / 65 / 140 / 430 / 1,510 steps at k = 3 / 8 /
    16 / 32 / 64, at most the k**2 it replaces from k = 8 on, once per graph.
    """
    k, vec, j, i, end = source.k, [1] * source.k, 1, 0, len(lengths)
    if lengths[0] == 1:
        yield k
        i = 1
    for graph, last in source._stints(lengths[-1]):
        pred = graph._pred
        b = end if lengths[-1] <= last else bisect_right(lengths, last, i)
        if lengths[b - 1] - j != b - i:  # sparse lengths: a step or a power per gap
            for n in lengths[i:b]:
                vec = _step(pred, vec) if n == j + 1 else vec_pow(vec, graph.adjacency, n - j)
                j = n
                yield sum(vec)
        elif b - i <= k * k:  # a short run j+1, j+2, ...: a plain loop, no test per step
            for j in range(j + 1, lengths[b - 1] + 1):
                vec = _step(pred, vec)
                yield sum(vec)
        else:  # a long run by the recurrence; vec and j stay at its start
            t, w = [sum(vec)], vec
            for _ in range(1, k):
                w = _step(pred, w)
                t.append(sum(w))
            chi = _berkowitz(graph._succ)  # x^k has no nonzero lag: then every count is 0
            (first, c1), *rest = [(lag, -c) for lag, c in enumerate(chi) if lag and c] or [(1, 0)]
            for m in range(k, b - i + 1):
                s = c1 * t[m - first]  # not 0 + ...: that copies a big int
                for lag, c in rest:
                    s += c * t[m - lag]
                t.append(s)
            yield from t[1:]
        if b == end:
            return
        vec = _step(pred, vec) if last == j + 1 else vec_pow(vec, graph.adjacency, last - j)
        j, i = last, b


def count_series(graph: DirectedGraph, n_max: int) -> CountSeries:
    """One CountRow per n = 1..n_max, the column and row sums stepped together.

    Column sums step over the predecessor lists.  Row sums step over the
    successor lists, which are the predecessor lists of the reversed graph.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pred, succ = graph._pred, graph._succ
    ends = starts = [1] * graph.k
    rows = [CountRow(1, graph.k, tuple(starts), tuple(ends))]
    for n in range(2, n_max + 1):
        ends, starts = _step(pred, ends), _step(succ, starts)
        rows.append(CountRow(n, sum(ends), tuple(starts), tuple(ends)))
    return CountSeries(graph.alphabet, tuple(rows))


# ---------------------------------------------------------------------------
# enumeration


class WordSet:
    """Immutable set of equal-length words, stored as base-k codes.

    Membership folds a tuple of plain in-range ints into its code in one
    pass, and any other word form (or a tuple that turns out to hold
    another kind of letter) after coercion, then binary searches the
    codes; iteration and `strings()` decode 2**14 codes at a time.
    """

    def __init__(self, alphabet: Alphabet, length: int, codes: np.ndarray):
        self.alphabet = alphabet
        self.length = length
        # ascending, duplicate-free: int64, or object dtype for Python ints
        self._codes = codes

    def __len__(self) -> int:
        return self._codes.size

    def codes(self) -> list[int]:
        """All codes in ascending (= lexicographic word) order."""
        return self._codes.tolist()

    def _digits(self) -> Iterator[np.ndarray]:  # one row of letters per word
        k, codes = self.alphabet.k, self._codes
        powers = np.array([k ** p for p in range(self.length - 1, -1, -1)], dtype=codes.dtype)
        for chunk in np.split(codes, range(1 << 14, codes.size, 1 << 14)):
            yield (chunk[:, None] // powers % k).astype(np.intp, copy=False)

    def __iter__(self) -> Iterator[Word]:
        for digits in self._digits():
            yield from zip(*digits.T.tolist())

    def strings(self) -> list[str]:
        sep, table = _separator(self.alphabet), np.array(self.alphabet.symbols, dtype=object)
        return [sep.join(w) for d in self._digits() for w in zip(*table[d].T.tolist())]

    def contains_code(self, code: int) -> bool:
        codes = self._codes
        pos = codes.searchsorted(code)
        return bool(pos < codes.size and codes[pos] == code)

    def __contains__(self, word) -> bool:
        if word.__class__ is not tuple or (code := self._fold(word)) is None:
            try:
                code = self._fold(as_indices(self.alphabet, word))
            except GraphSpecError:
                return False
        return code is not None and self.contains_code(code)

    def _fold(self, letters: Sequence[int]) -> int | None:
        """The code of a word of this length in plain in-range ints, else None."""
        if len(letters) != self.length:
            return None
        k, code = self.alphabet.k, 0
        for letter in letters:
            if letter.__class__ is not int or not 0 <= letter < k:
                return None
            code = code * k + letter
        return code


def _word_sets(stints: Sequence[Stint], n_max: int, cap: int) -> Iterator[WordSet]:
    """Word sets for lengths 1..n_max, each extended from the previous.

    Stint (graph, last) performs the extensions to lengths up to last: a
    letter may be followed by its successors in the graph.  Each code c emits
    its children c*k + u in ascending u, so an ascending level extends to
    an ascending level.  The cap is checked against the last entry of the
    cumulative fan-out before the next level is allocated.  Codes are int64
    up to the last length n with k**n <= 2**63, object arrays after it.
    """
    alphabet = stints[0][0].alphabet
    k = alphabet.k
    if k > cap:
        raise EnumerationCapError(1, k, cap)
    codes = np.arange(k, dtype=np.int64)
    ends = np.arange(k, dtype=np.intp)  # the last letter of each word
    yield WordSet(alphabet, 1, codes)
    n = 1
    for graph, last in stints:
        succ = graph._succ
        deg = np.array([len(s) for s in succ], dtype=np.intp)
        stop = deg.cumsum()  # the successors of u are flat[stop[u] - deg[u]:stop[u]]
        flat = np.array([u for s in succ for u in s], dtype=np.intp)
        for n in range(n + 1, min(last, n_max) + 1):
            fan = deg.take(ends)
            cum = fan.cumsum()
            size = int(cum[-1]) if cum.size else 0
            if size > cap:
                raise EnumerationCapError(n, size, cap)
            # child i of code c lands at index cum[c] - fan[c] + i of the next
            # level and takes its letter from flat[stop[ends[c]] - fan[c] + i];
            # pos maps the one to the other.  Temporaries are updated in place
            # and dropped early, so the peak stays near two next-level arrays.
            pos = stop.take(ends)
            pos -= cum
            del ends, cum
            pos = pos.repeat(fan)
            pos += np.arange(size)
            # the children's last letters; "clip" takes in place, unbuffered
            ends = flat.take(pos, out=pos, mode="clip")
            if k ** n > 2 ** 63 >= k ** (n - 1):  # from here on codes c*k + u may pass int64
                codes = codes.astype(object)
            codes = codes.repeat(fan)
            codes *= k
            codes += ends
            del fan, pos  # the frame outlives the yield
            yield WordSet(alphabet, n, codes)


def iter_word_sets(
    source: DirectedGraph | CombinedSystem, n_max: int, cap: int | None = None
) -> Iterator[WordSet]:
    """Word sets for n = 1..n_max, each level extended from the previous."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    yield from _word_sets(source._stints(n_max), n_max, enumeration_cap(cap))


def enumerate_words(source: DirectedGraph | CombinedSystem, n: int, cap: int | None = None) -> WordSet:
    """The set of admissible length-n words, by iterated 1-letter extension."""
    return deque(iter_word_sets(source, n, cap), maxlen=1).pop()
