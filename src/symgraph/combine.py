"""Scheduled combinations of graphs over a shared alphabet.

A combined system cycles through a list of graphs, the active graph
switching at the milestones of an increasing integer schedule.  Word
generation is the same 1-letter extension as for a single graph, except
that the extension producing words of length j is performed by the graph
whose stint interval contains j.  With that convention the first graph
contributes exactly s_1 - 1 extension steps (lengths 2..g_1) and every
later stint contributes its full length, which is what makes the growth
bounds for the bundled example systems exact.  A single graph is the
system of one graph, the constant (autonomous) schedule.

Counts and word sets read a source as its stints, each (graph, last
length it extends to): `CombinedSystem._stints` walks the schedule, and
`DirectedGraph._stints` is the one stint of a single graph.  So
`census.total_count`, `census.iter_word_sets` and `census.enumerate_words`
take either source, and so does `combined_count_series`.  Every count is
one walk along the stints (`census._totals`), which yields the count at
each of its ascending lengths: one length (`total_count`), every length
(`combined_count_series`) or the milestones (`presets.milestone_counts`).
Long runs follow the stint graph's recurrence; no system is written to.

Unlike the words of one graph, a subword of an admissible combined word
need not be admissible; `find_inadmissible_subword` finds the first such
witness by reachability over letter bitmasks in the time-expanded graph
of the system (Kolyada & Snoha 1996).  It reads no stint: each word
position takes its graph from `active_index`.  It enumerates no word, so
it has no cap and no limit on the alphabet.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .census import Stint, _totals, format_word
from .graphs import Alphabet, DirectedGraph, GraphSpecError


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
    # JSON true and false load as bool, a subclass of int
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError("schedule values must be a list of integers")
    if "g" in doc:
        g = values if values and values[0] == 0 else [0] + values
        return Schedule(tuple(g))
    return Schedule.from_stints(values)


@dataclass(frozen=True, slots=True)
class CombinedSystem:
    """One or more graphs on one ordered alphabet, driven by a schedule.

    One graph performs every extension: its counts and words are its own.
    """

    graphs: tuple[DirectedGraph, ...]
    schedule: Schedule

    def __post_init__(self) -> None:
        if not self.graphs:
            raise GraphSpecError("a combined system needs at least one graph")
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

    def _stints(self, n_max: int) -> list[Stint]:
        """(graph, last length it extends to) for each stint through the one
        reaching n_max; ScheduleExhaustedError when n_max is beyond the horizon."""
        sched, graphs = self.schedule, self.graphs
        top = sched.stint_index(n_max)
        return [(graphs[(m - 1) % len(graphs)], sched.g[m]) for m in range(1, top + 1)]


def active_index(system: CombinedSystem, j: int) -> int:
    """0-based index of the graph performing the extension to length j (j >= 2)."""
    if j < 2:
        raise ValueError("extensions start at length 2")
    m = system.schedule.stint_index(j)
    return (m - 1) % len(system.graphs)


def combined_count_series(source: DirectedGraph | CombinedSystem, n_max: int) -> list[tuple[int, int]]:
    """(n, count) for n = 1..n_max along the source's stints, a long stint by its graph's recurrence."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lengths = range(1, n_max + 1)
    return list(zip(lengths, _totals(source, lengths)))


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


def _image(table: tuple[int, ...], states: int) -> int:
    """States that follow some state of the bitmask `states`."""
    out = 0
    for s, mask in enumerate(table):
        if states >> s & 1:
            out |= mask
    return out


def _preimage(table: tuple[int, ...], states: int) -> int:
    """States with some successor in the bitmask `states`."""
    return sum(1 << s for s, mask in enumerate(table) if mask & states)


def _lowest(states: int) -> int:
    return (states & -states).bit_length() - 1


def find_inadmissible_subword(system: CombinedSystem, n_max: int) -> SubwordWitness | None:
    """First admissible word (length <= n_max) with an inadmissible subword.

    Scan order is deterministic: lengths ascending, words in lexicographic
    order, subword length ascending, start position ascending.  Returns
    None when every contiguous subword of every word is itself a combined
    word of its length (as happens when all graphs coincide).

    Nothing is enumerated.  The letters at word positions p, p + 1 are an
    edge of the graph extending to length p + 2, and in the subword from
    p - q they must be an edge of the graph extending to length q + 2.  So
    a word is a witness exactly when one of its pairs misses some graph
    active at lengths 2..p + 1: a bad pair.  Over the states (letter, bad
    pair met), as bitmasks, a forward pass finds the first length with a
    met state, a backward pass the states that reach one at its end, and
    the lowest of those at each position spells the first witness word.
    """
    system.schedule.stint_index(n_max)  # ValueError below 1, ScheduleExhaustedError beyond
    # state 2b: last letter b, a bad pair met; state 2b + 1: none met yet.
    # The lowest state of a set is its lowest letter, met if it can be.
    met = int("01" * system.k, 2)
    spread = [tuple(sum(1 << 2 * b for b in row) for row in g._succ) for g in system.graphs]
    tables: list[tuple[int, ...]] = []  # per position, each state's successors; 2a's are a's edges
    common = (met,) * system.k  # successors in every graph so far
    reach = met << 1
    for p in range(n_max - 1):
        succ = spread[active_index(system, p + 2)]
        tables.append(tuple(x for e, c in zip(succ, common) for x in (e, e << 1 | e & ~c)))
        common = tuple(e & c for e, c in zip(succ, common))
        reach = _image(tables[p], reach)
        if reach & met:
            break
    else:
        return None
    done = [met]
    for table in reversed(tables):
        done.append(_preimage(table, done[-1]))
    states = [_lowest(done.pop() & met << 1)]
    for table in tables:
        states.append(_lowest(table[states[-1]] & done.pop()))
    word = tuple(s >> 1 for s in states)
    return next(
        SubwordWitness(word, word[start : start + m], start)
        for m in range(2, len(word))
        for start in range(len(word) - m + 1)
        if any(not tables[q][2 * word[start + q]] >> 2 * word[start + q + 1] & 1
               for q in range(m - 1))
    )


class BoundReport(NamedTuple):
    """Exact sandwich check lower < actual < upper at a milestone length."""

    t: int
    n: int
    lower: int
    actual: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower < self.actual < self.upper
