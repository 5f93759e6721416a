import math

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
    combined_count,
    combined_count_series,
    combined_enumerate,
    complete_graph,
    complete_linear_bounds,
    complete_linear_system,
    fibonacci,
    find_inadmissible_subword,
    format_word,
    golden_graph,
    golden_linear_bounds,
    golden_linear_system,
    graph_from_edges,
    iter_combined_word_sets,
    linear_graph,
    match_preset,
    parse_schedule,
    preset_bounds,
    quartic_schedule,
    quartic_stint,
    total_count,
)
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
    levels = list(iter_combined_word_sets(system, n_max))
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

    def test_needs_two_graphs(self):
        with pytest.raises(GraphSpecError):
            CombinedSystem((golden_graph(),), quartic_schedule(1))

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


class TestCombinedCounts:
    def test_golden_linear_16(self):
        assert combined_count(golden_linear_system(1), 16) == 91

    def test_first_stint_matches_single_graph(self):
        system = golden_linear_system(1)
        for n in (1, 2, 3, 4):
            assert combined_count(system, n) == total_count(golden_graph(), n)

    def test_complete_linear_16(self):
        assert combined_count(complete_linear_system(1), 16) == 729

    def test_n1_is_alphabet_size(self):
        assert combined_count(golden_linear_system(1), 1) == 3

    def test_series_matches_single_calls(self):
        system = golden_linear_system(2)
        series = combined_count_series(system, 40)
        assert series[0] == (1, 3)
        for n, count in series:
            assert combined_count(system, n) == count

    @settings(max_examples=80, deadline=None)
    @given(system=random_systems(), data=st.data())
    def test_series_matches_single_calls_random(self, system, data):
        n_max = system.schedule.horizon
        series = combined_count_series(system, n_max)
        assert series == [(j, combined_count(system, j)) for j in range(1, n_max + 1)]
        # calls in any order resume or restart from the system's last count
        lengths = list(range(1, n_max + 1))
        shuffled = data.draw(st.permutations(lengths))
        repeated = data.draw(st.lists(st.sampled_from(lengths), max_size=12))
        expected = dict(series)
        for j in shuffled + lengths[::-1] + [j for j in repeated for _ in range(2)]:
            assert combined_count(system, j) == expected[j]

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
                assert combined_count(system, n) == oracle_product_total(matrices)

    def test_schedule_exhausted(self):
        with pytest.raises(ScheduleExhaustedError):
            combined_count(golden_linear_system(1), 17)
        with pytest.raises(ScheduleExhaustedError):
            combined_count_series(golden_linear_system(1), 17)

    def test_degenerate_equal_graphs(self):
        system = CombinedSystem((golden_graph(), golden_graph()), quartic_schedule(2))
        for n in (1, 5, 16, 40, 81):
            assert combined_count(system, n) == total_count(golden_graph(), n)


class TestCombinedEnumeration:
    def test_sizes_match_counts_to_14(self):
        for system in (golden_linear_system(1), complete_linear_system(1)):
            sizes = [len(ws) for ws in iter_combined_word_sets(system, 14)]
            counts = [c for _, c in combined_count_series(system, 14)]
            assert sizes == counts

    def test_against_step_oracle(self):
        for system in (golden_linear_system(1), complete_linear_system(1)):
            for n in (1, 3, 5, 8, 12):
                expected = oracle_combined_words(system, n)
                got = set(combined_enumerate(system, n))
                assert got == expected

    def test_example_word_present(self):
        ws = combined_enumerate(golden_linear_system(1), 5)
        assert len(ws) == 25
        assert "XXXZZ" in ws

    def test_step_transitions_follow_active_graph(self):
        system = golden_linear_system(1)
        for ws in iter_combined_word_sets(system, 14):
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
        sizes = [len(ws) for ws in iter_combined_word_sets(system, 12)]
        for n, size in zip(range(1, 13), sizes):
            assert size == len(oracle_combined_words(system, n))
            assert size == combined_count(system, n)

    def test_three_graph_system(self):
        # full rotation through three graphs, counts vs the step oracle
        system = CombinedSystem(
            (golden_graph(), linear_graph(), complete_graph()),
            Schedule.from_stints([3, 2, 4, 3, 2, 4]),
        )
        for n in range(1, 13):
            expected = oracle_combined_words(system, n)
            assert combined_count(system, n) == len(expected)
            assert set(combined_enumerate(system, n)) == expected


class TestBounds:
    def test_golden_linear_t1(self):
        report = golden_linear_bounds(1)
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
            assert golden_linear_bounds(t).lower == exact

    def test_golden_linear_upper_formula(self):
        report = golden_linear_bounds(1)
        assert report.upper == total_count(golden_graph(), 4) * (1 + 2 * 12) == 19 * 25

    def test_golden_linear_holds_to_6(self):
        reports = [golden_linear_bounds(t) for t in range(1, 7)]
        for t, report in enumerate(reports, start=1):
            assert report.holds, f"t={t}: {report}"
            assert report.n == (t + 1) ** 4
        assert golden_linear_bounds(6).n == 2401
        assert preset_bounds("golden-linear", 6) == reports
        series = combined_count_series(golden_linear_system(4), 5 ** 4)
        assert [r.actual for r in reports[:4]] == [series[r.n - 1][1] for r in reports[:4]]

    def test_complete_linear_t1(self):
        report = complete_linear_bounds(1)
        assert (report.lower, report.actual, report.upper) == (81, 729, 2025)
        assert report.holds

    def test_complete_linear_holds_to_8(self):
        reports = [complete_linear_bounds(t) for t in range(1, 9)]
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
            report = complete_linear_bounds(t)
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
        levels = list(iter_combined_word_sets(system, 5))
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
    @given(system=random_systems(k_max=4), n_max=st.integers(1, 9))
    @example(system=LATER_PAIR_FIRST_WORD, n_max=5)
    def test_matches_reference_scan(self, system, n_max):
        n_max = min(n_max, system.schedule.horizon)
        assert find_inadmissible_subword(system, n_max) == reference_witness(system, n_max)

    def test_python_int_levels_match_reference_scan(self):
        # 64 letters at n = 9: codes need 63 bits, so levels are Python ints
        k = 64
        alphabet = Alphabet(tuple(f"v{i}" for i in range(k)))

        def ring(*steps):
            return DirectedGraph(alphabet, tuple(
                tuple(int((j - i) % k in steps) for j in range(k)) for i in range(k)
            ))

        system = CombinedSystem((ring(0, 1), ring(2)), Schedule.from_stints([3, 2, 3, 2]))
        levels = list(iter_combined_word_sets(system, 9))
        assert not isinstance(levels[-1]._groups[0], np.ndarray)
        witness = find_inadmissible_subword(system, 9)
        assert witness is not None
        assert witness == reference_witness(system, 9)

    def test_stretched_growth_ratio_window(self):
        # count at n behaves like 3**sqrt(n): ratio pinned by the bound product
        for t in range(1, 13):
            report = complete_linear_bounds(t)
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
