"""Bundled example graphs, the quartic schedule, and their exact growth bounds.

Two reference combinations on the alphabet {X, Y, Z} are shipped:

* golden-linear: a graph whose counts grow like powers of the golden
  ratio (Fibonacci numbers by endpoints), alternated with a graph whose
  counts grow linearly (2n + 1) because almost everything funnels into
  an absorbing state.
* complete-linear: the complete graph with self-loops (counts 3**n)
  alternated with the same linear graph.

Driven by the quartic schedule - stints s_1 = 4, s_{2t-1} = 2t + 1,
s_{2t} = (t+1)**4 - t**4 + t**2 - (t+1)**2, so that the milestone after
t stint pairs sits at g_{2t} = (t+1)**4 and the fast graph has acted for
exactly (t+1)**2 of those steps - both systems have word counts that are
sandwiched, in exact integer arithmetic, between stretched-exponential
envelopes: the count at length n behaves like rho**sqrt(n) instead of
rho**n, which no single graph can do.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from .census import _totals
from .combine import BoundReport, CombinedSystem, Schedule
from .graphs import DirectedGraph, graph_from_edges

GOLDEN_LINEAR = "golden-linear"
COMPLETE_LINEAR = "complete-linear"

_XYZ = ("X", "Y", "Z")


def golden_graph() -> DirectedGraph:
    """Three letters, golden-ratio growth, absorbing state Y."""
    edges = [("X", "X"), ("X", "Y"), ("X", "Z"), ("Y", "Y"), ("Z", "X"), ("Z", "Y")]
    return graph_from_edges(_XYZ, edges, name="golden")


def linear_graph() -> DirectedGraph:
    """Three letters, word count 2n + 1, absorbing state Y."""
    edges = [("X", "Y"), ("Y", "Y"), ("Z", "X"), ("Z", "Y"), ("Z", "Z")]
    return graph_from_edges(_XYZ, edges, name="linear")


def complete_graph() -> DirectedGraph:
    """Complete graph with self-loops on three letters; word count 3**n."""
    edges = [(a, b) for a in _XYZ for b in _XYZ]
    return graph_from_edges(_XYZ, edges, name="complete3")


def two_cycle_graph() -> DirectedGraph:
    """Two letters alternating; exactly two words of every length."""
    return graph_from_edges(("X", "Y"), [("X", "Y"), ("Y", "X")], name="two-cycle")


def quartic_stint(t: int) -> int:
    """Stint length s_t of the quartic schedule (t >= 1)."""
    if t < 1:
        raise ValueError("stint index starts at 1")
    if t == 1:
        return 4
    if t % 2 == 1:
        i = (t + 1) // 2
        return 2 * i + 1
    i = t // 2
    return (i + 1) ** 4 - i ** 4 + i ** 2 - (i + 1) ** 2


def quartic_schedule(t_max: int) -> Schedule:
    """Schedule with 2*t_max stints; milestone g_{2t} = (t+1)**4."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return Schedule.from_stints([quartic_stint(t) for t in range(1, 2 * t_max + 1)])


def milestone_counts(system: CombinedSystem, t_max: int) -> list[tuple[int, int]]:
    """((t+1)**4, exact count) for t = 1..t_max, within the schedule's horizon.

    The milestones ascend, so one walk along the schedule takes every count.
    """
    horizon = system.schedule.horizon
    milestones = [(t + 1) ** 4 for t in range(1, t_max + 1) if (t + 1) ** 4 <= horizon]
    return list(zip(milestones, _totals(system, milestones))) if milestones else []


def golden_linear_system(t_max: int) -> CombinedSystem:
    return CombinedSystem((golden_graph(), linear_graph()), quartic_schedule(t_max))


def complete_linear_system(t_max: int) -> CombinedSystem:
    return CombinedSystem((complete_graph(), linear_graph()), quartic_schedule(t_max))


def fibonacci(n: int) -> int:
    """Exact Fibonacci number, fast doubling; fib(1) = fib(2) = 1."""
    if n < 0:
        raise ValueError("negative index")
    a, b = 0, 1  # fib(m), fib(m + 1) for m the leading bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def _golden_linear_sandwiches(t_max: int) -> list[tuple[int, int]]:
    """(lower, upper) for the golden-linear system after t = 1..t_max stint pairs.

    The lower bound is the product of Fibonacci numbers fib(s_{2i-1})
    (an exact integer identity for the golden-ratio power differences);
    the upper bound is the single-graph golden count at length
    s_1 + s_3 + ... + s_{2t-1} = (t+1)**2 times 1 + 2 * (total
    linear-graph steps).  The golden counts come from one walk.
    """
    odd = [quartic_stint(2 * t - 1) for t in range(1, t_max + 1)]
    lengths = list(accumulate(odd))
    counts = _totals(golden_graph(), lengths)
    steps = accumulate(quartic_stint(2 * t) for t in range(1, t_max + 1))
    lowers = accumulate(map(fibonacci, odd), mul)
    return [(lower, count * (1 + 2 * s)) for lower, count, s in zip(lowers, counts, steps)]


def _complete_linear_sandwiches(t_max: int) -> list[tuple[int, int]]:
    """(lower, upper) for the complete-linear system after t = 1..t_max stint pairs.

    3**((t+1)**2) < count < 3**((t+1)**2) * prod(2 * s_{2i} + 1).
    """
    factors = accumulate((2 * quartic_stint(2 * t) + 1 for t in range(1, t_max + 1)), mul)
    return [(3 ** ((t + 1) ** 2), 3 ** ((t + 1) ** 2) * f) for t, f in enumerate(factors, start=1)]


_PRESETS = {
    GOLDEN_LINEAR: (golden_linear_system, _golden_linear_sandwiches),
    COMPLETE_LINEAR: (complete_linear_system, _complete_linear_sandwiches),
}
# each bundled system's (symbols, adjacency) pairs, built once for match_preset
_PRESET_GRAPHS = tuple((tuple((g.alphabet.symbols, g.adjacency) for g in make_system(1).graphs), name)
                       for name, (make_system, _) in _PRESETS.items())


def preset_bounds(name: str, t_max: int) -> list[BoundReport]:
    """Exact bound sandwiches of a bundled system at its milestones t = 1..t_max."""
    if name not in _PRESETS:
        raise ValueError(f"unknown system {name!r}")
    if t_max < 1:
        return []
    make_system, sandwiches = _PRESETS[name]
    pairs = zip(milestone_counts(make_system(t_max), t_max), sandwiches(t_max))
    return [BoundReport(t, n, lower, count, upper)
            for t, ((n, count), (lower, upper)) in enumerate(pairs, start=1)]


def _fourth_root(n: int) -> int:
    r = round(n ** 0.25)
    for candidate in (r - 1, r, r + 1):
        if candidate >= 0 and candidate ** 4 == n:
            return candidate
    raise ValueError(f"{n} is not a fourth power")


def asymptotic_envelopes(system_name: str, n: int) -> tuple[float, float]:
    """Natural logs of the (lower, upper) asymptotic envelopes at length n.

    n must be a milestone fourth power >= 16.  Values are returned in
    log-space; the raw envelopes overflow doubles near n ~ 10**4.

    golden-linear:   f1 = 5**(-(n**(1/4)-1)/2) * mu**sqrt(n),  mu golden,
                     f2 = n * mu**sqrt(n)
    complete-linear: f1 = 3**sqrt(n),
                     f2 = n**(3/8) * 3**sqrt(n) * n**((3/4) * n**(1/4))
                     (Stirling growth of the stint-product correction)
    """
    root4 = _fourth_root(n)
    if root4 < 2:
        raise ValueError("envelopes are defined for fourth powers >= 16")
    sqrt_n = root4 * root4
    if system_name == GOLDEN_LINEAR:
        mu = (1 + math.sqrt(5)) / 2
        log_f1 = -((root4 - 1) / 2) * math.log(5) + sqrt_n * math.log(mu)
        log_f2 = math.log(n) + sqrt_n * math.log(mu)
        return log_f1, log_f2
    if system_name == COMPLETE_LINEAR:
        log3 = math.log(3)
        log_f1 = sqrt_n * log3
        log_f2 = 0.375 * math.log(n) + sqrt_n * log3 + 0.75 * root4 * math.log(n)
        return log_f1, log_f2
    raise ValueError(f"unknown system {system_name!r}")


def match_preset(system: CombinedSystem) -> str | None:
    """Name of the bundled system this one reproduces, if any.

    The graphs must match exactly and the schedule must be a prefix of
    the quartic schedule with at least one full stint pair.
    """
    stints = system.schedule.stints
    if len(stints) < 2:
        return None
    expected = tuple(quartic_stint(t) for t in range(1, len(stints) + 1))
    if stints != expected:
        return None
    graphs = tuple((g.alphabet.symbols, g.adjacency) for g in system.graphs)
    return next((name for pairs, name in _PRESET_GRAPHS if pairs == graphs), None)
