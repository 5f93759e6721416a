import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symgraph import (
    Alphabet,
    CombinedSystem,
    DirectedGraph,
    GraphSpecError,
    Schedule,
    ScheduleExhaustedError,
    active_index,
    asymptotic_envelopes,
    combined_count_series,
    complete_graph,
    complete_linear_system,
    count_series,
    enumerate_words,
    fibonacci,
    find_inadmissible_subword,
    format_word,
    golden_graph,
    golden_linear_system,
    graph_from_edges,
    iter_word_sets,
    linear_graph,
    match_preset,
    milestone_counts,
    parse_schedule,
    preset_bounds,
    quartic_schedule,
    quartic_stint,
    total_count,
    WordSet,
)
from symgraph import census, intmat
from symgraph.census import _totals, _word_sets
from symgraph.combine import SubwordWitness


def oracle_combined_words(system, n):
    """Independent oracle: grow words letter by letter, recomputing the
    active graph for every step from the schedule milestones directly."""
    g = system.schedule.g
    words = {(i,) for i in range(system.k)}
    for j in range(2, n + 1):
        stint = next(m for m in range(1, len(g)) if g[m - 1] < j <= g[m])
        graph = system.graphs[(stint - 1) % len(system.graphs)]
        words = {
            w + (u,) for w in words for u in range(system.k) if graph.adjacency[w[-1]][u]
        }
    return words


@st.composite
def one_graph_systems(draw, k_max=4):
    """One graph of up to k_max letters on a random schedule."""
    k = draw(st.integers(1, k_max))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    graph = DirectedGraph(
        Alphabet(tuple(f"v{i}" for i in range(k))),
        tuple(tuple(bits[i * k:(i + 1) * k]) for i in range(k)),
    )
    stints = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    return CombinedSystem((graph,), Schedule.from_stints(stints))


@st.composite
def random_systems(draw, k_max=5):
    """Two or three graphs on one alphabet of up to k_max letters, random stints."""
    k = draw(st.integers(1, k_max))
    alphabet = Alphabet(tuple(f"v{i}" for i in range(k)))
    bits = st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)
    graphs = tuple(
        DirectedGraph(alphabet, tuple(tuple(b[i * k:(i + 1) * k]) for i in range(k)))
        for b in draw(st.lists(bits, min_size=2, max_size=3))
    )
    stints = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    return CombinedSystem(graphs, Schedule.from_stints(stints))


@st.composite
def walk_cases(draw, k_max=5):
    """(system, n_max): one to three graphs, first stint of any length from
    1, and n_max either a milestone or any length up to the horizon."""
    k = draw(st.integers(1, k_max))
    alphabet = Alphabet(tuple(f"v{i}" for i in range(k)))
    bits = st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)
    graphs = tuple(
        DirectedGraph(alphabet, tuple(tuple(b[i * k:(i + 1) * k]) for i in range(k)))
        for b in draw(st.lists(bits, min_size=1, max_size=3))
    )
    schedule = Schedule.from_stints(draw(st.lists(st.integers(1, 9), min_size=1, max_size=8)))
    n_max = draw(st.sampled_from(schedule.g[1:]) | st.integers(1, schedule.horizon))
    return CombinedSystem(graphs, schedule), n_max


# entry (i, j) of each kind of graph, from a random bit and a vertex v
GRAPH_KINDS = {
    "any": lambda i, j, bit, v: bit,
    "edgeless": lambda i, j, bit, v: 0,
    "nilpotent": lambda i, j, bit, v: bit if i < j else 0,  # loopless and acyclic
    "one loop": lambda i, j, bit, v: int(i == j == v),
}


@st.composite
def recurrence_cases(draw):
    """(system, lengths): one to three graphs of one to five letters, of any
    kind in GRAPH_KINDS, on stints both at most k**2 and above it, with a
    sparse ascending subset of the lengths up to the horizon."""
    k = draw(st.integers(1, 5))
    alphabet = Alphabet(tuple(f"v{i}" for i in range(k)))
    graphs = []
    for kind in draw(st.lists(st.sampled_from(sorted(GRAPH_KINDS)), min_size=1, max_size=3)):
        bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
        v = draw(st.integers(0, k - 1))
        entry = GRAPH_KINDS[kind]
        graphs.append(DirectedGraph(alphabet, tuple(
            tuple(entry(i, j, bits[i * k + j], v) for j in range(k)) for i in range(k))))
    stint = st.integers(1, k * k) | st.integers(k * k + 1, k * k + 40)
    schedule = Schedule.from_stints(draw(st.lists(stint, min_size=1, max_size=5)))
    lengths = draw(st.lists(st.integers(1, schedule.horizon), min_size=1, max_size=10, unique=True))
    return CombinedSystem(tuple(graphs), schedule), sorted(lengths)


def reference_walk_totals(system, n_max):
    """Letter-by-letter walk that looks up the active graph for every length."""
    k = system.k
    vec = [1] * k
    totals = [(1, k)]
    for j in range(2, n_max + 1):
        adj = system.graphs[active_index(system, j)].adjacency
        vec = [sum(vec[i] for i in range(k) if adj[i][v]) for v in range(k)]
        totals.append((j, sum(vec)))
    return totals


def oracle_product_total(matrices):
    k = len(matrices[0])
    product = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for m in matrices:
        product = [
            [sum(product[i][l] * m[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return sum(map(sum, product))


def reference_witness(system, n_max):
    """Scalar reference scan: words in lexicographic order, subword length
    ascending, start ascending, one membership test per subword."""
    levels = list(iter_word_sets(system, n_max))
    k = system.k
    for ws in levels:
        length = ws.length
        for word in ws:
            for m in range(2, length):
                target = levels[m - 1]
                for start in range(0, length - m + 1):
                    sub = word[start : start + m]
                    code = 0
                    for letter in sub:
                        code = code * k + letter
                    if not target.contains_code(code):
                        return SubwordWitness(word, sub, start)
    return None


# At length 5 the first pair in scan order to miss, (2, 3), first misses
# XXYXZ, but XXYXX comes first and misses only at a later pair.
LATER_PAIR_FIRST_WORD = CombinedSystem(
    tuple(
        DirectedGraph(Alphabet(("X", "Y", "Z")), rows)
        for rows in (
            ((1, 0, 1), (1, 1, 1), (0, 1, 0)),
            ((1, 1, 0), (1, 1, 1), (1, 1, 1)),
            ((0, 1, 0), (1, 1, 0), (1, 0, 1)),
        )
    ),
    Schedule.from_stints([1, 1, 2, 4]),
)


class TestSchedule:
    def test_quartic_stints(self):
        sched = quartic_schedule(3)
        assert sched.stints == (4, 12, 5, 60, 7, 168)
        assert sched.g == (0, 4, 16, 21, 81, 88, 256)

    def test_stint_identities(self):
        # odd stints sum to (t+1)^2, milestones land on (t+1)^4
        for t in range(1, 13):
            odd = [quartic_stint(2 * i - 1) for i in range(1, t + 1)]
            even = [quartic_stint(2 * i) for i in range(1, t + 1)]
            assert sum(odd) == (t + 1) ** 2
            assert sum(even) == (t + 1) ** 4 - (t + 1) ** 2
            assert sum(odd) + sum(even) == (t + 1) ** 4
        assert quartic_stint(2) == 12
        assert quartic_stint(1) + quartic_stint(3) == 9

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule((1, 2))
        with pytest.raises(ValueError):
            Schedule((0, 2, 2))
        with pytest.raises(ValueError):
            Schedule((0,))

    def test_from_stints(self):
        assert Schedule.from_stints([4, 12]).g == (0, 4, 16)

    def test_parse_schedule_g_and_s(self):
        assert parse_schedule('{"g": [0, 4, 16]}').g == (0, 4, 16)
        assert parse_schedule('{"g": [4, 16]}').g == (0, 4, 16)
        assert parse_schedule('{"s": [4, 12]}').g == (0, 4, 16)
        with pytest.raises(ValueError):
            parse_schedule('{"g": [0, 4], "s": [4]}')
        with pytest.raises(ValueError):
            parse_schedule("[4]")

    def test_parse_schedule_rejects_booleans(self):
        # JSON true and false load as bool, a subclass of int
        for text in ('{"s": [true, 3]}', '{"g": [false, true, 5]}', '{"s": [4, false]}'):
            with pytest.raises(ValueError, match="list of integers"):
                parse_schedule(text)

    def test_stint_index_and_exhaustion(self):
        sched = quartic_schedule(1)
        assert sched.stint_index(1) == 1
        assert sched.stint_index(4) == 1
        assert sched.stint_index(5) == 2
        assert sched.stint_index(16) == 2
        with pytest.raises(ScheduleExhaustedError):
            sched.stint_index(17)


class TestSystem:
    def test_alphabet_mismatch_rejected(self):
        other = graph_from_edges(("A", "B", "C"), [("A", "B"), ("B", "C"), ("C", "A")])
        with pytest.raises(GraphSpecError):
            CombinedSystem((golden_graph(), other), quartic_schedule(1))

    def test_needs_a_graph(self):
        with pytest.raises(GraphSpecError, match="at least one graph"):
            CombinedSystem((), quartic_schedule(1))

    def test_active_graph(self):
        system = golden_linear_system(2)
        assert active_index(system, 2) == 0
        assert active_index(system, 4) == 0
        assert active_index(system, 5) == 1
        assert active_index(system, 16) == 1
        assert active_index(system, 17) == 0
        with pytest.raises(ValueError):
            active_index(system, 1)

    def test_three_graph_rotation(self):
        # stints of length 2: the first stint covers extensions to length 2
        # only (lengths 1..2), every later stint covers two lengths
        trio = CombinedSystem(
            (golden_graph(), linear_graph(), complete_graph()),
            Schedule.from_stints([2, 2, 2, 2]),
        )
        assert [active_index(trio, j) for j in range(2, 9)] == [0, 1, 1, 2, 2, 0, 0]


class TestOneGraphSystem:
    """A single graph is the constant schedule: every result is the graph's own."""

    @settings(max_examples=60, deadline=None)
    @given(system=one_graph_systems(), data=st.data())
    def test_matches_the_graph(self, system, data):
        (graph,) = system.graphs
        horizon = system.schedule.horizon
        n_max = data.draw(st.integers(1, min(horizon, 9)))
        assert combined_count_series(system, horizon) == count_series(graph, horizon).totals()
        # any order: every call walks from length 1
        for n in data.draw(st.lists(st.integers(1, horizon), max_size=4)):
            assert total_count(system, n) == total_count(graph, n)
        combined = [ws.codes() for ws in iter_word_sets(system, n_max)]
        assert combined == [ws.codes() for ws in iter_word_sets(graph, n_max)]
        assert find_inadmissible_subword(system, n_max) is None

    @settings(max_examples=60, deadline=None)
    @given(graph=one_graph_systems().map(lambda s: s.graphs[0]), n=st.integers(1, 9))
    def test_graph_and_its_one_stint_system_agree(self, graph, n):
        # every entry point takes either source: the graph, or its system to horizon n
        system = CombinedSystem((graph,), Schedule((0, n)))
        assert combined_count_series(graph, n) == count_series(graph, n).totals()
        assert combined_count_series(system, n) == combined_count_series(graph, n)
        for m in range(1, n + 1):
            assert total_count(graph, m) == total_count(system, m)
        levels = [ws.codes() for ws in iter_word_sets(graph, n)]
        assert levels == [ws.codes() for ws in iter_word_sets(system, n)]
        assert enumerate_words(graph, n).codes() == enumerate_words(system, n).codes() == levels[-1]


class TestCombinedCounts:
    def test_golden_linear_16(self):
        assert total_count(golden_linear_system(1), 16) == 91

    def test_first_stint_matches_single_graph(self):
        system = golden_linear_system(1)
        for n in (1, 2, 3, 4):
            assert total_count(system, n) == total_count(golden_graph(), n)

    def test_complete_linear_16(self):
        assert total_count(complete_linear_system(1), 16) == 729

    def test_n1_is_alphabet_size(self):
        assert total_count(golden_linear_system(1), 1) == 3

    def test_series_matches_single_calls(self):
        system = golden_linear_system(2)
        series = combined_count_series(system, 40)
        assert series[0] == (1, 3)
        for n, count in series:
            assert total_count(system, n) == count

    @settings(max_examples=80, deadline=None)
    @given(system=random_systems(), data=st.data())
    def test_series_matches_single_calls_random(self, system, data):
        n_max = system.schedule.horizon
        series = combined_count_series(system, n_max)
        assert series == [(j, total_count(system, j)) for j in range(1, n_max + 1)]
        # calls in any order, each from length 1, give the same counts
        lengths = list(range(1, n_max + 1))
        shuffled = data.draw(st.permutations(lengths))
        repeated = data.draw(st.lists(st.sampled_from(lengths), max_size=12))
        expected = dict(series)
        for j in shuffled + lengths[::-1] + [j for j in repeated for _ in range(2)]:
            assert total_count(system, j) == expected[j]

    @settings(max_examples=100, deadline=None)
    @given(case=walk_cases())
    # k = 1, on a milestone and inside a stint
    @example(case=(CombinedSystem(
        (graph_from_edges("x", [("x", "x")]), graph_from_edges("x", [])),
        Schedule.from_stints([1, 3, 2])), 4))
    @example(case=(CombinedSystem(
        (graph_from_edges("x", [("x", "x")]), graph_from_edges("x", [])),
        Schedule.from_stints([1, 3, 2])), 5))
    # letters with no predecessor (Z, then X) and with one (X, then Z),
    # a first stint of length 1, n_max on a milestone and inside a stint
    @example(case=(CombinedSystem(
        (graph_from_edges("XYZ", [("X", "X"), ("X", "Y"), ("Y", "Y")]),
         graph_from_edges("XYZ", [("Y", "Z"), ("Z", "Y"), ("Y", "Y")])),
        Schedule.from_stints([1, 4, 3, 5])), 8))
    @example(case=(CombinedSystem(
        (graph_from_edges("XYZ", [("X", "X"), ("X", "Y"), ("Y", "Y")]),
         graph_from_edges("XYZ", [("Y", "Z"), ("Z", "Y"), ("Y", "Y")])),
        Schedule.from_stints([1, 4, 3, 5])), 11))
    def test_series_matches_letter_by_letter_walk(self, case):
        system, n_max = case
        assert combined_count_series(system, n_max) == reference_walk_totals(system, n_max)

    @settings(max_examples=15, deadline=None)
    @given(system=random_systems(k_max=3).map(
        lambda s: CombinedSystem(s.graphs, quartic_schedule(4))), data=st.data())
    def test_long_stints_in_any_order(self, system, data):
        # stints of up to 360 letters reach the higher memoized squares
        assert max(system.schedule.stints) == 360
        expected = dict(combined_count_series(system, system.schedule.horizon))
        lengths = data.draw(st.permutations(
            sorted(set(system.schedule.g[1:]) | {2, 100, 399, 400, 401, 624, 625})))
        for j in lengths:
            assert total_count(system, j) == expected[j]

    @settings(max_examples=80, deadline=None)
    @given(system=random_systems(), data=st.data())
    def test_any_lengths_in_any_order(self, system, data):
        k, horizon = system.k, system.schedule.horizon
        lengths = data.draw(st.lists(st.integers(1, horizon), min_size=1, max_size=8, unique=True))
        series = dict(combined_count_series(system, horizon))
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        for n in data.draw(st.permutations(lengths)):
            matrices = [system.graphs[active_index(system, j)].adjacency for j in range(2, n + 1)]
            assert total_count(system, n) == series[n] == oracle_product_total([identity] + matrices)
        # one walk through all of them, gaps and runs alike
        assert list(_totals(system, sorted(lengths))) == [series[n] for n in sorted(lengths)]

    def test_two_thousand_one_letter_stints(self):
        # every stint is one step, taken over the predecessor lists
        system = CombinedSystem((golden_graph(), complete_graph()), Schedule.from_stints([1] * 2000))
        series = combined_count_series(system, 2000)
        assert series == reference_walk_totals(system, 2000)
        for n in (1, 2, 3, 4, 999, 1000, 1001, 1999, 2000):
            assert total_count(system, n) == series[n - 1][1]

    def test_ordered_product_identity(self):
        # oracle: naive sequential product of per-stint power lists
        for system, t_max in ((golden_linear_system(6), 6), (complete_linear_system(6), 6)):
            for t in range(1, t_max + 1):
                n = (t + 1) ** 4
                matrices = []
                for stint in range(1, 2 * t + 1):
                    s = quartic_stint(stint)
                    reps = s - 1 if stint == 1 else s
                    matrices += [system.graphs[(stint - 1) % 2].adjacency] * reps
                assert len(matrices) == n - 1
                assert total_count(system, n) == oracle_product_total(matrices)

    def test_schedule_exhausted(self):
        with pytest.raises(ScheduleExhaustedError):
            total_count(golden_linear_system(1), 17)
        with pytest.raises(ScheduleExhaustedError):
            combined_count_series(golden_linear_system(1), 17)

    def test_degenerate_equal_graphs(self):
        system = CombinedSystem((golden_graph(), golden_graph()), quartic_schedule(2))
        for n in (1, 5, 16, 40, 81):
            assert total_count(system, n) == total_count(golden_graph(), n)


class TestRecurrenceRuns:
    """A run of more than k**2 consecutive lengths in one stint goes by the
    graph's characteristic recurrence, shorter runs and sparse lengths by steps."""

    @settings(max_examples=120, deadline=None)
    @given(case=recurrence_cases())
    # one letter with a loop: chi = x - 1, every count 1
    @example(case=(CombinedSystem((graph_from_edges("x", [("x", "x")]),),
                                  Schedule.from_stints([6, 1, 4])), [1, 3, 11]))
    # one letter without: chi = x, no nonzero lag, every count past length 1 is 0
    @example(case=(CombinedSystem((graph_from_edges("x", []),),
                                  Schedule.from_stints([6, 2])), [1, 2, 7]))
    def test_counts_match_the_vector_walk(self, case):
        system, lengths = case
        horizon = system.schedule.horizon
        walked = reference_walk_totals(system, horizon)
        assert combined_count_series(system, horizon) == walked
        counts = dict(walked)
        assert list(_totals(system, lengths)) == [counts[n] for n in lengths]
        for n in lengths:
            assert total_count(system, n) == counts[n]

    def test_paper_system_steps_per_stint_not_per_length(self, monkeypatch):
        # to n = 3000 the walk steps every length of a stint with at most
        # k**2 = 9 steps, k - 1 = 2 times in a longer one, and powers past it
        steps = []

        def counted(pred, vec):
            steps.append(pred)
            return intmat._step(pred, vec)

        monkeypatch.setattr(census, "_step", counted)
        system = golden_linear_system(7)
        g = system.schedule.g
        runs = [min(b, 3000) - max(a, 1) for a, b in zip(g, g[1:]) if a < 3000]
        assert sum(runs) == 2999 and len(runs) == 14
        series = combined_count_series(system, 3000)
        assert len(steps) == sum(r if r <= 9 else 2 for r in runs) == 44
        assert series[-1] == (3000, total_count(system, 3000))
        # one polynomial per graph, though the schedule returns to each seven times
        assert intmat._berkowitz.cache_info().misses == 2

    def test_short_runs_compute_no_polynomial(self):
        # 29 steps at k = 64 stay below k**2: no Berkowitz run
        rng = random.Random(64)
        k = 64
        adj = tuple(tuple(int(rng.random() < 0.1) for _ in range(k)) for _ in range(k))
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        before = intmat._berkowitz.cache_info().misses
        series = combined_count_series(graph, 30)
        assert intmat._berkowitz.cache_info().misses == before
        system = CombinedSystem((graph,), Schedule.from_stints([30]))
        assert series == reference_walk_totals(system, 30)


class TestCombinedEnumeration:
    def test_sizes_match_counts_to_14(self):
        for system in (golden_linear_system(1), complete_linear_system(1)):
            sizes = [len(ws) for ws in iter_word_sets(system, 14)]
            counts = [c for _, c in combined_count_series(system, 14)]
            assert sizes == counts

    def test_against_step_oracle(self):
        for system in (golden_linear_system(1), complete_linear_system(1)):
            for n in (1, 3, 5, 8, 12):
                expected = oracle_combined_words(system, n)
                got = set(enumerate_words(system, n))
                assert got == expected

    def test_example_word_present(self):
        ws = enumerate_words(golden_linear_system(1), 5)
        assert len(ws) == 25
        assert "XXXZZ" in ws

    def test_step_transitions_follow_active_graph(self):
        system = golden_linear_system(1)
        for ws in iter_word_sets(system, 14):
            if ws.length < 2:
                continue
            for word in ws:
                for j in range(2, ws.length + 1):
                    graph = system.graphs[active_index(system, j)]
                    assert graph.adjacency[word[j - 2]][word[j - 1]] == 1

    def test_alternating_every_step_schedule(self):
        # degenerate schedule with one-step stints, against the oracle
        system = CombinedSystem(
            (golden_graph(), linear_graph()), Schedule.from_stints([1] * 24)
        )
        sizes = [len(ws) for ws in iter_word_sets(system, 12)]
        for n, size in zip(range(1, 13), sizes):
            assert size == len(oracle_combined_words(system, n))
            assert size == total_count(system, n)

    @settings(max_examples=150, deadline=None)
    @given(system=random_systems(), n_max=st.integers(1, 8))
    def test_levels_ascending_and_equal_on_both_paths(self, system, n_max):
        # every level strictly ascending, equal to the step oracle's codes,
        # and the same on int64 and, cast as levels past int64 hold them, on Python ints
        n_max = min(n_max, system.schedule.horizon)
        k = system.k
        fast = list(iter_word_sets(system, n_max))
        assert fast[-1]._codes.dtype == np.int64
        g = system.schedule.g
        stints = [(system.graphs[(m - 1) % len(system.graphs)], g[m]) for m in range(1, len(g))]
        slow = [
            WordSet(ws.alphabet, ws.length, ws._codes.astype(object))
            for ws in _word_sets(stints, n_max, 10 ** 6)
        ]
        assert slow[-1]._codes.dtype == object
        assert len(fast) == len(slow) == n_max
        for n, ws, big in zip(range(1, n_max + 1), fast, slow):
            codes = ws.codes()
            assert all(a < b for a, b in zip(codes, codes[1:]))
            expected = sorted(
                sum(letter * k ** p for p, letter in enumerate(reversed(w)))
                for w in oracle_combined_words(system, n)
            )
            assert codes == expected
            assert big.codes() == codes
            assert all(type(c) is int for c in big._codes)

    def test_three_graph_system(self):
        # full rotation through three graphs, counts vs the step oracle
        system = CombinedSystem(
            (golden_graph(), linear_graph(), complete_graph()),
            Schedule.from_stints([3, 2, 4, 3, 2, 4]),
        )
        for n in range(1, 13):
            expected = oracle_combined_words(system, n)
            assert total_count(system, n) == len(expected)
            assert set(enumerate_words(system, n)) == expected


class TestBounds:
    def test_golden_linear_t1(self):
        report = preset_bounds("golden-linear", 1)[-1]
        assert (report.lower, report.actual, report.upper) == (3, 91, 475)
        assert report.n == 16
        assert report.holds

    def test_golden_linear_lower_is_fibonacci_product(self):
        # the exact-integer identity behind the lower bound
        for t in (1, 2, 3):
            odd = [quartic_stint(2 * i - 1) for i in range(1, t + 1)]
            mu = (1 + math.sqrt(5)) / 2
            float_value = 5 ** (-t / 2) * math.prod(
                mu ** s - (1 - mu) ** s for s in odd
            )
            exact = math.prod(fibonacci(s) for s in odd)
            assert abs(float_value - exact) < 1e-6 * exact
            assert preset_bounds("golden-linear", t)[-1].lower == exact

    def test_golden_linear_upper_formula(self):
        report = preset_bounds("golden-linear", 1)[-1]
        assert report.upper == total_count(golden_graph(), 4) * (1 + 2 * 12) == 19 * 25

    def test_golden_linear_holds_to_6(self):
        reports = [preset_bounds("golden-linear", t)[-1] for t in range(1, 7)]
        for t, report in enumerate(reports, start=1):
            assert report.holds, f"t={t}: {report}"
            assert report.n == (t + 1) ** 4
        assert preset_bounds("golden-linear", 6)[-1].n == 2401
        assert preset_bounds("golden-linear", 6) == reports
        series = combined_count_series(golden_linear_system(4), 5 ** 4)
        assert [r.actual for r in reports[:4]] == [series[r.n - 1][1] for r in reports[:4]]

    def test_milestone_counts_stop_at_the_horizon(self):
        # horizon 101: the milestones 16 and 81 lie within it, 256 beyond
        schedule = Schedule.from_stints([4, 12, 5, 80])
        system = CombinedSystem((golden_graph(), linear_graph()), schedule)
        assert milestone_counts(system, 5) == [(16, 91), (81, 3121)]
        assert milestone_counts(golden_linear_system(2), 2) == [(16, 91), (81, 3121)]

    def test_complete_linear_t1(self):
        report = preset_bounds("complete-linear", 1)[-1]
        assert (report.lower, report.actual, report.upper) == (81, 729, 2025)
        assert report.holds

    def test_complete_linear_holds_to_8(self):
        reports = [preset_bounds("complete-linear", t)[-1] for t in range(1, 9)]
        for t, report in enumerate(reports, start=1):
            assert report.holds
            assert report.lower == 3 ** ((t + 1) ** 2)
        assert preset_bounds("complete-linear", 8) == reports
        series = combined_count_series(complete_linear_system(4), 5 ** 4)
        assert [r.actual for r in reports[:4]] == [series[r.n - 1][1] for r in reports[:4]]

    def test_match_preset(self):
        assert match_preset(golden_linear_system(2)) == "golden-linear"
        assert match_preset(complete_linear_system(3)) == "complete-linear"
        swapped = CombinedSystem((linear_graph(), golden_graph()), quartic_schedule(2))
        assert match_preset(swapped) is None
        wrong_sched = CombinedSystem(
            (golden_graph(), linear_graph()), Schedule.from_stints([3, 3])
        )
        assert match_preset(wrong_sched) is None


class TestEnvelopes:
    def test_golden_linear_values_at_16(self):
        log_f1, log_f2 = asymptotic_envelopes("golden-linear", 16)
        mu = (1 + math.sqrt(5)) / 2
        assert log_f2 == pytest.approx(math.log(16) + 4 * math.log(mu), abs=1e-12)
        assert log_f1 == pytest.approx(4 * math.log(mu) - 0.5 * math.log(5), abs=1e-12)
        assert log_f1 == pytest.approx(1.120, abs=5e-4)
        assert log_f2 == pytest.approx(4.6974, abs=5e-4)

    def test_complete_linear_values_at_16(self):
        log_f1, log_f2 = asymptotic_envelopes("complete-linear", 16)
        assert log_f1 == pytest.approx(4 * math.log(3), abs=1e-12)
        assert log_f1 == pytest.approx(4.394, abs=5e-4)
        assert log_f2 > log_f1

    def test_rejects_non_fourth_powers(self):
        with pytest.raises(ValueError):
            asymptotic_envelopes("golden-linear", 17)
        with pytest.raises(ValueError):
            asymptotic_envelopes("golden-linear", 1)
        with pytest.raises(ValueError):
            asymptotic_envelopes("no-such-system", 16)

    def test_envelopes_sandwich_for_complete_linear(self):
        # the log envelopes straddle the exact log count at every milestone
        for t in range(1, 9):
            report = preset_bounds("complete-linear", t)[-1]
            log_f1, log_f2 = asymptotic_envelopes("complete-linear", report.n)
            actual = math.log(report.actual)
            assert log_f1 < actual < log_f2 + 5.0  # f2 is asymptotic, allow slack


class TestSubwordWitness:
    def test_golden_linear_witness(self):
        system = golden_linear_system(1)
        witness = find_inadmissible_subword(system, 5)
        assert witness is not None
        assert format_word(system.alphabet, witness.word) == "XXXZZ"
        assert format_word(system.alphabet, witness.subword) == "ZZ"
        assert witness.start == 3
        # verify the witness by membership in the enumerated sets
        levels = list(iter_word_sets(system, 5))
        assert tuple(witness.word) in set(levels[4])
        assert tuple(witness.subword) not in set(levels[1])

    def test_degenerate_equal_graphs_none(self):
        system = CombinedSystem((golden_graph(), golden_graph()), quartic_schedule(1))
        assert find_inadmissible_subword(system, 8) is None

    def test_complete_linear_stable(self):
        system = complete_linear_system(1)
        first = find_inadmissible_subword(system, 5)
        second = find_inadmissible_subword(system, 5)
        assert first == second

    @settings(max_examples=150, deadline=None)
    @given(system=random_systems(k_max=8), n_max=st.integers(1, 9))
    @example(system=LATER_PAIR_FIRST_WORD, n_max=5)
    def test_matches_reference_scan(self, system, n_max):
        # the reference enumerates every level, so alphabets of 5 to 8 letters stay short
        n_max = min(n_max, system.schedule.horizon, 9 if system.k <= 4 else 4)
        assert find_inadmissible_subword(system, n_max) == reference_witness(system, n_max)

    def test_dense_pair_far_beyond_enumeration(self):
        # the complete 8-letter graph, then the same without the loop at A: AA is
        # barred at lengths 5..16 and allowed again at 17, in one of 8**17 words
        alphabet = Alphabet(tuple("ABCDEFGH"))
        full = DirectedGraph(alphabet, ((1,) * 8,) * 8)
        no_loop = DirectedGraph(alphabet, ((0,) + (1,) * 7,) + ((1,) * 8,) * 7)
        system = CombinedSystem((full, no_loop), quartic_schedule(3))
        assert find_inadmissible_subword(system, 16) is None
        witness = find_inadmissible_subword(system, 30)
        assert format_word(alphabet, witness.word) == "AAAA" + "BA" * 6 + "A"
        # the first subword to fail is the shortest whose pair 3, read by the
        # graph of length 5, is the final AA
        assert format_word(alphabet, witness.subword) == "BABAA" and witness.start == 12

    def test_python_int_levels_match_reference_scan(self):
        # 64 letters at n = 11: codes reach 64**11 = 2**66, so levels are Python ints
        k = 64
        alphabet = Alphabet(tuple(f"v{i}" for i in range(k)))

        def ring(*steps):
            return DirectedGraph(alphabet, tuple(
                tuple(int((j - i) % k in steps) for j in range(k)) for i in range(k)
            ))

        system = CombinedSystem((ring(0, 1), ring(2)), Schedule.from_stints([3, 2, 3, 2, 3]))
        levels = list(iter_word_sets(system, 11))
        assert levels[-1]._codes.dtype == object
        witness = find_inadmissible_subword(system, 11)
        assert witness is not None
        assert witness == reference_witness(system, 11)

    def test_stretched_growth_ratio_window(self):
        # count at n behaves like 3**sqrt(n): ratio pinned by the bound product
        for t in range(1, 13):
            report = preset_bounds("complete-linear", t)[-1]
            ratio = math.log(report.actual, 3) / math.sqrt(report.n)
            even = [quartic_stint(2 * i) for i in range(1, t + 1)]
            width = sum(math.log(2 * s + 1, 3) for s in even) / math.sqrt(report.n)
            assert 1.0 <= ratio <= 1.0 + width
        # interval width shrinks monotonically from the second milestone on
        # (it widens once from t=1 to t=2: 0.7325 -> 0.8106)
        widths = []
        for t in range(1, 13):
            even = [quartic_stint(2 * i) for i in range(1, t + 1)]
            widths.append(sum(math.log(2 * s + 1, 3) for s in even) / (t + 1) ** 2)
        for a, b in zip(widths[1:], widths[2:]):
            assert b < a
