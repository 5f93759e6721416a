"""Scheduled combinations of graphs over a shared alphabet.

A combined system cycles through a list of graphs, the active graph
switching at the milestones of an increasing integer schedule.  Word
generation is the same 1-letter extension as for a single graph, except
that the extension producing words of length j is performed by the graph
whose stint interval contains j.  With that convention the first graph
contributes exactly s_1 - 1 extension steps (lengths 2..g_1) and every
later stint contributes its full length, which is what makes the growth
bounds for the bundled example systems exact.

`combined_count` pushes the row vector 1^T through each stint segment,
vec <- vec * A_m**len, and the system keeps the vector of its last
count, so milestone counts taken in ascending order cost one pass along
the schedule in all.

Unlike the single-graph case, a subword of an admissible combined word
need not be admissible; `find_inadmissible_subword` searches for the
first such witness, testing the subwords of a whole level at once.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .census import (
    WordSet,
    _iter_group_levels,
    _sorted_groups,
    _walk,
    enumeration_cap,
    format_word,
)
from .graphs import Alphabet, DirectedGraph, GraphSpecError
from .intmat import IntMatrix, identity, mat_mul, mat_pow, vec_mul


class ScheduleExhaustedError(RuntimeError):
    """The requested word length lies beyond the schedule's horizon."""


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing milestones g with g[0] = 0; stints are the gaps."""

    g: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.g or self.g[0] != 0:
            raise ValueError("schedule must start at g_0 = 0")
        if len(self.g) < 2:
            raise ValueError("schedule needs at least one stint")
        for a, b in zip(self.g, self.g[1:]):
            if b <= a:
                raise ValueError(f"schedule must increase strictly, got {a} then {b}")

    @classmethod
    def from_stints(cls, stints: list[int] | tuple[int, ...]) -> "Schedule":
        g = [0]
        for s in stints:
            g.append(g[-1] + int(s))
        return cls(tuple(g))

    @property
    def stints(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.g, self.g[1:]))

    @property
    def horizon(self) -> int:
        return self.g[-1]

    def stint_index(self, j: int) -> int:
        """1-based stint m with g[m-1] < j <= g[m]."""
        if j < 1:
            raise ValueError("length must be >= 1")
        if j > self.horizon:
            raise ScheduleExhaustedError(
                f"length {j} beyond schedule horizon {self.horizon}"
            )
        return bisect_left(self.g, j)


def parse_schedule(text: str) -> Schedule:
    """Parse a JSON schedule document: {"g": [...]} or {"s": [...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed schedule document: {exc}") from None
    if not isinstance(doc, dict) or ("g" in doc) == ("s" in doc):
        raise ValueError('schedule document needs exactly one of "g" or "s"')
    values = doc.get("g", doc.get("s"))
    if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
        raise ValueError("schedule values must be a list of integers")
    if "g" in doc:
        g = values if values and values[0] == 0 else [0] + values
        return Schedule(tuple(g))
    return Schedule.from_stints(values)


@dataclass(frozen=True)
class CombinedSystem:
    """Two or more graphs on one ordered alphabet, driven by a schedule."""

    graphs: tuple[DirectedGraph, ...]
    schedule: Schedule
    # (j, row vector 1^T A_2 ... A_j) from the last `combined_count` call
    _last_count: tuple[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.graphs) < 2:
            raise GraphSpecError("a combined system needs at least two graphs")
        first = self.graphs[0].alphabet.symbols
        for g in self.graphs[1:]:
            if g.alphabet.symbols != first:
                raise GraphSpecError(
                    "all graphs in a combination must share the same ordered alphabet"
                )

    @property
    def alphabet(self) -> Alphabet:
        return self.graphs[0].alphabet

    @property
    def k(self) -> int:
        return self.graphs[0].k


def active_index(system: CombinedSystem, j: int) -> int:
    """0-based index of the graph performing the extension to length j (j >= 2)."""
    if j < 2:
        raise ValueError("extensions start at length 2")
    m = system.schedule.stint_index(j)
    return (m - 1) % len(system.graphs)


def combined_count(system: CombinedSystem, n: int) -> int:
    """Exact count of combined words of length n (sum over endpoints).

    The row vector 1^T is pushed through each stint segment as
    vec <- vec * A_m**len.  The system keeps the vector of its last call:
    a call with n at or beyond that length resumes from it, a shorter
    one restarts at length 1.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    sched = system.schedule
    if n > sched.horizon:
        raise ScheduleExhaustedError(f"length {n} beyond schedule horizon {sched.horizon}")
    last = system._last_count
    j, vec = last if last is not None and last[0] <= n else (1, (1,) * system.k)
    while j < n:
        m = sched.stint_index(j + 1)
        hi = min(sched.g[m], n)
        graph = system.graphs[(m - 1) % len(system.graphs)]
        vec = vec_mul(vec, mat_pow(graph.adjacency, hi - j))
        j = hi
    object.__setattr__(system, "_last_count", (n, vec))
    return sum(vec)


def combined_count_matrix(system: CombinedSystem, n: int) -> IntMatrix:
    """Ordered product of the active adjacency matrices for steps 2..n.

    Consecutive equal factors are grouped into matrix powers.  Counts do
    not need the product: `combined_count` carries only its column sums.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    k = system.k
    product = identity(k)
    if n == 1:
        return product
    sched = system.schedule
    if n > sched.horizon:
        raise ScheduleExhaustedError(f"length {n} beyond schedule horizon {sched.horizon}")
    j = 2
    while j <= n:
        m = sched.stint_index(j)
        hi = min(sched.g[m], n)
        graph = system.graphs[(m - 1) % len(system.graphs)]
        product = mat_mul(product, mat_pow(graph.adjacency, hi - j + 1))
        j = hi + 1
    return product


def combined_count_series(system: CombinedSystem, n_max: int) -> list[tuple[int, int]]:
    """(n, count) for n = 1..n_max by one vector walk along the schedule."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > system.schedule.horizon:
        raise ScheduleExhaustedError(
            f"length {n_max} beyond schedule horizon {system.schedule.horizon}"
        )
    pred_tables = [g._pred for g in system.graphs]
    walk = _walk(system.k, lambda j: pred_tables[active_index(system, j)], n_max)
    return [(n, sum(vec)) for n, vec in enumerate(walk, start=1)]


def iter_combined_word_sets(system: CombinedSystem, n_max: int, cap: int | None = None):
    """Combined word sets for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > system.schedule.horizon:
        raise ScheduleExhaustedError(
            f"length {n_max} beyond schedule horizon {system.schedule.horizon}"
        )
    effective_cap = enumeration_cap(cap)
    succ_tables = [g._succ for g in system.graphs]

    def succ_at(j: int):
        return succ_tables[active_index(system, j)]

    for n, groups in enumerate(
        _iter_group_levels(system.k, succ_at, n_max, effective_cap), start=1
    ):
        yield WordSet(system.alphabet, n, _sorted_groups(groups))


def combined_enumerate(system: CombinedSystem, n: int, cap: int | None = None) -> WordSet:
    """The set of combined words of length n."""
    result = None
    for ws in iter_combined_word_sets(system, n, cap):
        result = ws
    assert result is not None
    return result


@dataclass(frozen=True)
class SubwordWitness:
    """An admissible combined word with an inadmissible contiguous subword."""

    word: tuple[int, ...]
    subword: tuple[int, ...]
    start: int

    def describe(self, alphabet: Alphabet) -> str:
        return (
            f"word {format_word(alphabet, self.word)!r} has inadmissible subword "
            f"{format_word(alphabet, self.subword)!r} at position {self.start}"
        )


def _code_array(ws: WordSet) -> np.ndarray:
    """A level's codes in ascending order: int64, or object for Python ints."""
    groups = ws._groups
    if isinstance(groups[0], np.ndarray):
        codes = np.concatenate(groups)
        codes.sort()
        return codes
    return np.array(sorted(c for g in groups for c in g), dtype=object)


def find_inadmissible_subword(
    system: CombinedSystem, n_max: int, cap: int | None = None
) -> SubwordWitness | None:
    """First admissible word (length <= n_max) with an inadmissible subword.

    Scan order is deterministic: lengths ascending, words in lexicographic
    order, subword length ascending, start position ascending.  Returns
    None when every contiguous subword of every word is itself a combined
    word of its length (as happens when all graphs coincide).

    Each (subword length m, start) pair is tested for a whole level at
    once: the subword codes are sliced out of the word codes and looked up
    in the sorted level-m codes.  The witness word is the first word with
    a miss, and its (m, start) the first pair in scan order that misses
    it; once a miss is found, later pairs only test the words before it.
    """
    levels = [_code_array(ws) for ws in iter_combined_word_sets(system, n_max, cap)]
    k = system.k
    for length, codes in enumerate(levels, start=1):
        best, hit = codes.size, None
        for m in range(2, length):
            target = levels[m - 1]
            for start in range(length - m + 1):
                subs = codes[:best] // k ** (length - m - start) % k ** m
                pos = np.minimum(np.searchsorted(target, subs), target.size - 1)
                misses = np.flatnonzero(target[pos] != subs)
                if misses.size:
                    best, hit = int(misses[0]), (m, start)
        if hit is not None:
            code, word = int(codes[best]), []
            for _ in range(length):
                code, letter = divmod(code, k)
                word.append(letter)
            word.reverse()
            m, start = hit
            return SubwordWitness(tuple(word), tuple(word[start : start + m]), start)
    return None


@dataclass(frozen=True)
class BoundReport:
    """Exact sandwich check lower < actual < upper at a milestone length."""

    t: int
    n: int
    lower: int
    actual: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower < self.actual < self.upper
