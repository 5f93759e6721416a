import decimal
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symgraph import (
    Alphabet,
    CombinedSystem,
    DirectedGraph,
    EnumerationCapError,
    GraphSpecError,
    count_matrix,
    count_series,
    enumerate_words,
    enumeration_cap,
    complete_graph,
    format_word,
    golden_graph,
    graph_from_bitmask,
    is_admissible,
    iter_connected_bitmasks,
    iter_word_sets,
    linear_graph,
    Schedule,
    combined_count_series,
    total_count,
    two_cycle_graph,
    WordSet,
    quartic_schedule,
)
from symgraph.census import DECIMAL_FROM, EXACT, _totals, _word_sets
from symgraph.intmat import mat_mul, vec_mul, vec_pow

SQRT5 = math.sqrt(5)
MU = (1 + SQRT5) / 2
NU = (1 - SQRT5) / 2


@st.composite
def random_graphs(draw, k_max):
    k = draw(st.integers(1, k_max))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    adj = tuple(tuple(bits[i * k:(i + 1) * k]) for i in range(k))
    return DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)


def _as_objects(levels):
    """The levels with their codes cast to Python ints in object arrays."""
    return [WordSet(ws.alphabet, ws.length, ws._codes.astype(object)) for ws in levels]


def _object_levels(graph, n):
    """The first n levels with Python-int codes, as every level past int64 holds them."""
    return _as_objects(iter_word_sets(graph, n))


def walk_words(graph, n):
    """Independent oracle: all walks of n letters, by extending tuples one letter at a time."""
    words = [(v,) for v in range(graph.k)]
    for _ in range(n - 1):
        words = [w + (u,) for w in words for u in range(graph.k) if graph.adjacency[w[-1]][u]]
    return words


def mat_pow(m, e):
    """Independent oracle: m**e by repeated squaring of whole matrices."""
    k = len(m)
    result = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    while e:
        if e & 1:
            result = mat_mul(result, m)
        e >>= 1
        if e:
            m = mat_mul(m, m)
    return result


def brute_force_words(graph, n):
    """Independent oracle: all letter tuples filtered by pair admissibility."""
    words = set()
    for cand in itertools.product(range(graph.k), repeat=n):
        if all(graph.adjacency[a][b] for a, b in zip(cand, cand[1:])):
            words.add(cand)
    return words


class TestCountMatrix:
    def test_n1_is_identity(self):
        for g in (golden_graph(), linear_graph(), complete_graph(), two_cycle_graph()):
            cm = count_matrix(g, 1)
            assert cm.entries == tuple(
                tuple(1 if i == j else 0 for j in range(g.k)) for i in range(g.k)
            )

    def test_g1_n5_xx(self):
        assert count_matrix(golden_graph(), 5).entry("X", "X") == 5

    def test_g2_n5_zy(self):
        assert count_matrix(linear_graph(), 5).entry("Z", "Y") == 7

    def test_matches_sequential_products(self):
        # repeated squaring against a naive cumulative product
        g = golden_graph()
        k = g.k
        power = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for n in range(1, 25):
            assert count_matrix(g, n).entries == tuple(tuple(row) for row in power)
            power = [
                [sum(power[i][l] * g.adjacency[l][j] for l in range(k)) for j in range(k)]
                for i in range(k)
            ]

    def test_totals(self):
        assert total_count(golden_graph(), 2) == 6
        assert total_count(linear_graph(), 10) == 21
        assert total_count(two_cycle_graph(), 37) == 2

    def test_count_series_consistent(self):
        g = golden_graph()
        series = count_series(g, 20)
        for row in series.rows:
            cm = count_matrix(g, row.n)
            assert row.total == cm.total
            assert row.row_sums == cm.row_sums
            assert row.col_sums == cm.col_sums
            assert row.total == sum(row.row_sums) == sum(row.col_sums)

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(8), n_max=st.integers(1, 40))
    def test_count_series_matches_count_matrix(self, graph, n_max):
        rows = count_series(graph, n_max).rows
        assert [row.n for row in rows] == list(range(1, n_max + 1))
        for row in rows:
            cm = count_matrix(graph, row.n)
            assert (row.total, row.row_sums, row.col_sums) == (cm.total, cm.row_sums, cm.col_sums)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=random_graphs(8),
        sinks=st.sets(st.integers(0, 7)),
        sources=st.sets(st.integers(0, 7)),
        n_max=st.integers(1, 30),
    )
    @example(graph=golden_graph(), sinks={0, 1, 2}, sources=set(), n_max=4)
    @example(graph=golden_graph(), sinks=set(), sources={0}, n_max=4)
    def test_rows_have_k_sums_that_add_up(self, graph, sinks, sources, n_max):
        # letters in sinks lose every outgoing edge, those in sources every incoming one
        k = graph.k
        adj = tuple(
            tuple(int(graph.adjacency[i][j] and i not in sinks and j not in sources)
                  for j in range(k))
            for i in range(k)
        )
        graph = DirectedGraph(graph.alphabet, adj)
        for row in count_series(graph, n_max).rows:
            assert len(row.row_sums) == len(row.col_sums) == k
            assert row.total == sum(row.row_sums) == sum(row.col_sums)

    def test_complete_eight_letters_exact_to_1500(self):
        k, n_max = 8, 1500
        graph = DirectedGraph(Alphabet(tuple("abcdefgh")), ((1,) * k,) * k)
        rows = count_series(graph, n_max).rows
        assert [row.n for row in rows] == list(range(1, n_max + 1))
        for row in rows:
            per_letter = (k ** (row.n - 1),) * k
            assert row.total == k ** row.n
            assert row.row_sums == row.col_sums == per_letter
        system = CombinedSystem((graph,), Schedule((0, n_max)))
        assert combined_count_series(system, n_max) == [(row.n, row.total) for row in rows]

    def test_semigroup_property(self):
        # composing counts over a split point reproduces the longer count
        for g in (golden_graph(), linear_graph()):
            mats = {n: count_matrix(g, n).entries for n in range(1, 31)}
            for n in range(1, 31):
                for m in range(1, 31):
                    if n + m - 1 > 30:
                        continue
                    k = g.k
                    for i in range(k):
                        for j in range(k):
                            composed = sum(mats[n][i][l] * mats[m][l][j] for l in range(k))
                            assert composed == mats[n + m - 1][i][j]


def _first_str_failure(counts):
    """(n, message) of the first count of lengths 1, 2, ... whose str() raises."""
    n = 0
    try:
        for n, _ in enumerate(map(str, counts), 1):
            pass
    except ValueError as exc:
        return n + 1, str(exc)
    return None


class TestDecimalCounts:
    """The walk asked for Decimal: int up to 2**512, exact Decimal after it."""

    def test_int_until_past_threshold_then_decimal(self):
        lengths = range(1, 1200)
        ints = list(_totals(golden_graph(), lengths))
        assert {c.__class__ for c in ints} == {int}
        with decimal.localcontext(EXACT):
            decs = list(_totals(golden_graph(), lengths, decimal.Decimal))
        past = next(i for i, c in enumerate(ints) if c > DECIMAL_FROM)  # near n = 740
        assert 700 < past < 800
        assert [c.__class__ for c in decs] == [int] * (past + 1) + [decimal.Decimal] * (len(ints) - past - 1)
        assert decs == ints and list(map(str, decs)) == list(map(str, ints))

    def test_decimal_only_past_threshold_across_runs(self):
        golden = golden_graph()
        system = CombinedSystem((golden, complete_graph(), golden), quartic_schedule(7))
        lengths = range(1, system.schedule.horizon + 1)
        with decimal.localcontext(EXACT):
            decs = list(_totals(system, lengths, decimal.Decimal))
        assert decs == list(_totals(system, lengths))
        assert all(c > DECIMAL_FROM for c in decs if c.__class__ is decimal.Decimal)
        assert sum(c.__class__ is decimal.Decimal for c in decs) > len(decs) // 2

    @pytest.mark.parametrize("context", [
        decimal.Context(),  # 28 digits, rounding silently
        decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[]),
        decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact]),  # Rounded passes
        decimal.Context(prec=10 ** 6, traps=[decimal.Inexact, decimal.Rounded]),
    ])
    def test_decimal_outside_exact_context_raises(self, context):
        lengths = range(1, 1200)
        ints = list(_totals(golden_graph(), lengths))
        walked = []
        with decimal.localcontext(context), pytest.raises(RuntimeError, match="census.EXACT"):
            for count in _totals(golden_graph(), lengths, decimal.Decimal):
                walked.append(count)
        # it raises at the first count past 2**512, before any Decimal arithmetic
        assert walked == list(itertools.takewhile(lambda c: c <= DECIMAL_FROM, ints))
        assert {c.__class__ for c in walked} == {int}

    # golden with itself on the paper schedule first passes the guard at these lengths
    @pytest.mark.parametrize("digits, n", [(640, 3061), (1000, 4783)])
    def test_digit_guard_at_the_same_length(self, int_max_str_digits, digits, n):
        golden = golden_graph()
        system = CombinedSystem((golden, golden), quartic_schedule(8))
        lengths = range(1, system.schedule.horizon + 1)
        int_max_str_digits(digits)
        failure = _first_str_failure(_totals(system, lengths))
        assert failure == (n, f"Exceeds the limit ({digits} digits) for integer string conversion; "
                              "use sys.set_int_max_str_digits() to increase the limit")
        with decimal.localcontext(EXACT):
            assert _first_str_failure(_totals(system, lengths, decimal.Decimal)) == failure


class TestVecPow:
    """v * m**e by binary powers from memoized squares, against products."""

    def test_matches_repeated_products(self):
        for g in (golden_graph(), linear_graph(), complete_graph(), two_cycle_graph()):
            v = tuple(range(1, g.k + 1))
            power = mat_pow(g.adjacency, 0)
            for e in range(71):
                assert vec_pow(v, g.adjacency, e) == vec_mul(v, power)
                power = mat_mul(power, g.adjacency)

    @settings(max_examples=30, deadline=None)
    @given(graph=random_graphs(2), e=st.integers(0, 10 ** 6))
    @example(graph=DirectedGraph(Alphabet(("x", "y")), ((1, 1), (1, 0))), e=10 ** 6)
    @example(graph=DirectedGraph(Alphabet(("x", "y")), ((1, 1), (1, 1))), e=999_999)
    def test_matches_mat_pow_large_exponents(self, graph, e):
        ones = (1,) * graph.k
        assert vec_pow(ones, graph.adjacency, e) == vec_mul(ones, mat_pow(graph.adjacency, e))

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(4), e=st.integers(0, 3000), data=st.data())
    def test_matches_mat_pow(self, graph, e, data):
        v = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=graph.k, max_size=graph.k)))
        assert vec_pow(v, graph.adjacency, e) == vec_mul(v, mat_pow(graph.adjacency, e))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            vec_pow((1,), ((1,),), -1)

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(6), n=st.integers(1, 400))
    def test_total_count_matches_count_matrix(self, graph, n):
        # each side against an oracle that does not use vec_pow
        assert total_count(graph, n) == count_series(graph, n).rows[-1].total
        assert count_matrix(graph, n).entries == mat_pow(graph.adjacency, n - 1)

    @pytest.mark.parametrize("adj", [
        np.ones((2, 2), dtype=np.uint8),
        ((1.0, 1.0), (1.0, 1.0)),
    ], ids=["uint8", "float"])
    def test_counts_are_exact_for_any_entry_type(self, adj):
        # uint8 products used to wrap to 0, float ones to round and then overflow
        g = DirectedGraph(Alphabet(("x", "y")), adj)
        system = CombinedSystem((g,), Schedule((0, 1100)))
        for n in (10, 60, 1100):
            total = total_count(g, n)
            assert type(total) is int and total == total_count(system, n) == 2 ** n
        cm = count_matrix(g, 10)
        assert cm.entries == ((256, 256), (256, 256))
        assert all(type(x) is int for row in cm.entries for x in row)


class TestAdmissibility:
    def test_g1_examples(self):
        g = golden_graph()
        assert is_admissible(g, "XZX")
        assert not is_admissible(g, "YX")
        assert is_admissible(g, "Z")

    def test_accepts_index_and_symbol_sequences(self):
        g = golden_graph()
        assert is_admissible(g, (0, 2, 0))
        assert is_admissible(g, ["X", "Z", "X"])


class TestEnumeration:
    def test_n1_is_alphabet(self):
        for g in (golden_graph(), two_cycle_graph()):
            ws = enumerate_words(g, 1)
            assert ws.strings() == list(g.alphabet.symbols)

    def test_g2_n3_exact_set(self):
        ws = enumerate_words(linear_graph(), 3)
        assert set(ws.strings()) == {"XYY", "YYY", "ZXY", "ZYY", "ZZX", "ZZY", "ZZZ"}
        assert len(ws) == 7

    def test_g1_n4_size(self):
        assert len(enumerate_words(golden_graph(), 4)) == 19

    def test_lexicographic_iteration(self):
        ws = enumerate_words(golden_graph(), 3)
        strings = ws.strings()
        assert strings == sorted(strings)

    def test_contains(self):
        ws = enumerate_words(golden_graph(), 3)
        assert "XZX" in ws
        assert "YYX" not in ws
        assert "XZ" not in ws  # wrong length

    def test_against_brute_force_small(self):
        # oracle: generate-and-filter enumeration, independent of extension
        for g in (golden_graph(), linear_graph(), two_cycle_graph()):
            for n in range(1, 7):
                expected = brute_force_words(g, n)
                got = {w for w in enumerate_words(g, n)}
                assert got == expected

    def test_python_backend_matches_numpy(self):
        # a long word forces the big-integer path; codes must still agree
        g = two_cycle_graph()
        ws = enumerate_words(g, 200)
        assert len(ws) == 2 == total_count(g, 200)
        assert ws._codes.dtype == object
        g = golden_graph()
        small = [ws.codes() for ws in iter_word_sets(g, 12)]
        # recompute with the arbitrary-precision backend by faking a long n_max
        big = [ws.codes() for ws in _object_levels(g, 12)]
        assert small == big

    @settings(max_examples=150, deadline=None)
    @given(graph=random_graphs(5), n_max=st.integers(1, 8))
    @example(graph=DirectedGraph(Alphabet(("x",)), ((0,),)), n_max=3)
    @example(graph=DirectedGraph(Alphabet(("x", "y", "z")), ((0, 1, 1), (0, 0, 0), (1, 0, 1))), n_max=6)
    def test_levels_ascending_and_equal_on_both_paths(self, graph, n_max):
        # k = 1 and sinks included: every level is strictly ascending, holds
        # exactly the brute-force codes, and is the same on int64 and objects
        fast = list(iter_word_sets(graph, n_max))
        assert fast[-1]._codes.dtype == np.int64
        slow = _object_levels(graph, n_max)
        assert slow[-1]._codes.dtype == object
        assert len(fast) == len(slow) == n_max
        for n, ws, big in zip(range(1, n_max + 1), fast, slow):
            codes = ws.codes()
            assert all(a < b for a, b in zip(codes, codes[1:]))
            expected = sorted(
                sum(letter * graph.k ** p for p, letter in enumerate(reversed(w)))
                for w in brute_force_words(graph, n)
            )
            assert codes == expected
            assert big.codes() == codes
            assert all(type(c) is int for c in big._codes)

    def test_int64_boundary(self):
        # two letters: every code is below 2**63 through n = 63; at n = 64
        # the word BABA... has code 2**63 + 2**61 + ... + 2.  The dtype is
        # chosen per level, so only the last level of a run to 64 is objects.
        g = two_cycle_graph()
        levels = list(iter_word_sets(g, 64))
        assert [ws._codes.dtype for ws in levels] == [np.dtype(np.int64)] * 63 + [np.dtype(object)]
        assert [ws.codes() for ws in levels] == [ws.codes() for ws in _object_levels(g, 64)]
        assert levels[-1].codes()[-1] == sum(2 ** p for p in range(1, 64, 2))
        assert all(type(c) is int for c in levels[-1]._codes)

    def test_object_levels_extend_object_levels(self):
        # 16 letters: 16**15 = 2**60 fits, 16**16 = 2**64 does not, so
        # levels 16..24 are object arrays, each extended from the last
        k = 16
        adj = tuple(tuple(int(j == (i + 1) % k or i == j == 0) for j in range(k)) for i in range(k))
        g = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        levels = list(iter_word_sets(g, 24))
        assert [ws._codes.dtype for ws in levels] == [np.dtype(np.int64)] * 15 + [np.dtype(object)] * 9
        for n, ws in enumerate(levels, 1):
            words = sorted(walk_words(g, n))
            assert list(ws) == words
            assert ws.codes() == [sum(x * k ** p for p, x in enumerate(reversed(w))) for w in words]

    def test_cap_error_reports_exact_count(self):
        g = complete_graph()
        with pytest.raises(EnumerationCapError) as err:
            enumerate_words(g, 12, cap=1000)
        assert err.value.count == total_count(g, err.value.length)
        assert err.value.count > 1000

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SYMGRAPH_ENUM_CAP", "5")
        assert enumeration_cap() == 5
        with pytest.raises(EnumerationCapError):
            enumerate_words(complete_graph(), 3)
        monkeypatch.delenv("SYMGRAPH_ENUM_CAP")
        assert enumeration_cap() == 10_000_000

    def test_single_letter_self_loop(self):
        from symgraph import graph_from_edges
        g = graph_from_edges(("X",), [("X", "X")])
        ws = enumerate_words(g, 50)
        assert len(ws) == 1
        assert ws.strings() == ["X" * 50]
        assert "X" * 50 in ws


@st.composite
def levels_and_walks(draw):
    """A level of a random graph on up to 5 letters, with one- or
    two-character symbols, and a letter tuple of its length that may or
    may not be a walk of the graph."""
    k = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    adj = tuple(tuple(bits[i * k:(i + 1) * k]) for i in range(k))
    symbols = draw(st.sampled_from(("abcde", "éxyzw", ("v0", "v1", "v2", "v3", "v4"))))
    graph = DirectedGraph(Alphabet(tuple(symbols[:k])), adj)
    n = draw(st.integers(1, 6))
    letters = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        # follow successor lists where there are any, so that most words are walks
        for p in range(1, n):
            succ = graph._succ[letters[p - 1]]
            if succ:
                letters[p] = succ[letters[p] % len(succ)]
    return graph, enumerate_words(graph, n), tuple(letters)


def word_forms(alphabet, word):
    """Fresh copies of one word in every accepted form."""
    syms = alphabet.symbols
    forms = [
        tuple(word), list(word), iter(word), (x for x in word),
        tuple(np.int64(x) for x in word), [np.uint8(x) for x in word], tuple(np.intp(x) for x in word),
        tuple(syms[x] for x in word), [syms[x] for x in word], iter([syms[x] for x in word]),
        [syms[x] if p % 2 else x for p, x in enumerate(word)],
    ]
    if all(x < 2 for x in word):
        forms += [tuple(bool(x) for x in word), [float(x) for x in word]]
    if all(len(s) == 1 for s in syms):
        forms.append("".join(syms[x] for x in word))
    return forms


def non_words(alphabet, word, length):
    """Forms that no level of this length holds."""
    k, syms = alphabet.k, alphabet.symbols
    out = [word + (0,), word[:-1], (), (-1,) * length, (k,) * length, (np.int64(-1),) * length,
           word[:-1] + (k + 7,), word[:-1] + (np.int64(k),), word[:-1] + ("?",),
           tuple(syms[x] for x in word[:-1]) + ("",), [2 ** 70] * length]
    if any(len(s) != 1 for s in syms):
        # strings need a single-character alphabet, whatever their length
        out += ["".join(syms[x] for x in word), "a" * length, syms[0] * length]
    return out


class TestMembership:
    """`word in level` agrees with is_admissible for every accepted word
    form, and is False for anything that is no word of the level."""

    @settings(max_examples=200, deadline=None)
    @given(case=levels_and_walks())
    @example(case=(golden_graph(), enumerate_words(golden_graph(), 3), (0, 2, 0)))
    def test_agrees_with_is_admissible(self, case):
        graph, level, word = case
        for form, again in zip(word_forms(graph.alphabet, word), word_forms(graph.alphabet, word)):
            assert (form in level) is is_admissible(graph, again)
        for form in non_words(graph.alphabet, word, level.length):
            assert form not in level

    def test_object_level(self):
        g = two_cycle_graph()
        level = enumerate_words(g, 70)
        assert level._codes.dtype == object
        words = [tuple((p + s) % 2 for p in range(70)) for s in (0, 1)] + [(0,) * 70, (0, 1) * 34 + (1, 1)]
        for word in words:
            for form, again in zip(word_forms(g.alphabet, word), word_forms(g.alphabet, word)):
                assert (form in level) is is_admissible(g, again) is (word[0] != word[1] and word[-1] != word[-2])
            for form in non_words(g.alphabet, word, 70):
                assert form not in level

    def test_non_integral_letters_are_no_letters(self):
        # a letter that is neither a symbol nor an integral number in range
        # raises GraphSpecError naming it, so no level holds the word;
        # truncating 0.5 and 2.9 would read (0, 2, 0), a walk of golden
        g = golden_graph()
        level = enumerate_words(g, 3)
        assert (0, 2, 0) in level
        bad = [0.5, 2.9, 0.2, np.float64(2.5), float("nan"), float("inf"), -float("inf"),
               None, object(), 1 + 0j, 3.0, -1.0, b"1"]
        for letter in bad:
            word = (0, letter, 0)
            assert word not in level
            with pytest.raises(GraphSpecError, match=re.escape(repr(letter))):
                is_admissible(g, word)
        assert [0.5, 2.9, 0.2] not in level
        with pytest.raises(GraphSpecError, match="0.5"):
            is_admissible(g, [0.5, 2.9, 0.2])
        # integral numbers of any type stay letters
        for form in ((0.0, 2.0, 0.0), (np.int64(0), np.uint8(2), np.intp(0)), (False, True, True)):
            assert (form in level) is is_admissible(g, form)
        assert (0.0, 2.0, 0.0) in level and (False, True, True) in level

    @settings(max_examples=100, deadline=None)
    @given(case=levels_and_walks())
    def test_contains_code_is_a_bool(self, case):
        graph, level, _ = case
        codes = level.codes()
        present = set(codes)
        for code in codes + [c + 1 for c in codes] + [-1, 0, graph.k ** level.length]:
            answer = level.contains_code(code)
            assert type(answer) is bool
            assert answer is (code in present)
        # codes past int64 are absent from an int64 level, not an error
        assert level._codes.dtype == np.int64
        for code in (2 ** 63, 2 ** 63 + 1, 2 ** 64, 2 ** 64 + codes[0] if codes else 2 ** 65, -(2 ** 63) - 1):
            assert level.contains_code(code) is False

    @staticmethod
    def fallback_forms(alphabet, word):
        """Tuples that open with plain ints and then hold a letter of another
        kind, and forms that are no tuple of the word's length."""
        k, syms = alphabet.k, alphabet.symbols
        forms = []
        for p, x in enumerate(word):
            for odd in (np.int64(x), True, k, -1, 0.5, syms[x], syms[(x + 1) % k]):
                forms.append(word[:p] + (odd,) + word[p + 1:])
        forms += [word + (word[-1],), word[:-1], list(word), "".join(syms[x] for x in word)]
        return forms

    @staticmethod
    def expected(graph, form, n):
        try:
            return is_admissible(graph, form) and len(form) == n
        except GraphSpecError:
            return False

    def check_fallbacks(self, graph, level, word):
        for form in self.fallback_forms(graph.alphabet, word):
            assert (form in level) is self.expected(graph, form, level.length), form

    @settings(max_examples=200, deadline=None)
    @given(case=levels_and_walks())
    def test_fallback_forms_agree_with_is_admissible(self, case):
        self.check_fallbacks(*case)

    def test_fallback_forms_on_int64_and_object_levels(self):
        g = golden_graph()
        level = enumerate_words(g, 3)
        assert level._codes.dtype == np.int64
        for word in itertools.product(range(3), repeat=3):
            self.check_fallbacks(g, level, word)
        # a letter of another kind after plain ints restarts the fold
        assert (0, 2, np.int64(0)) in level and (0, 2, "X") in level and (0, True, 2) not in level
        g = two_cycle_graph()
        level = enumerate_words(g, 70)
        assert level._codes.dtype == object
        for word in ((0, 1) * 35, (1, 0) * 35, (0, 1) * 34 + (1, 1)):
            self.check_fallbacks(g, level, word)
        assert (0, 1) * 34 + (np.int64(0), 1) in level and (0, 1) * 34 + (True, 0) not in level

    def test_contains_code_on_object_level(self):
        level = enumerate_words(two_cycle_graph(), 70)
        for code in level.codes():
            assert level.contains_code(code) is True
            assert level.contains_code(code + 1) is False
        assert level.contains_code(2 ** 70) is False
        assert level.contains_code(-1) is False


class TestLevelSizes:
    """Each level's size, read from the cumulative fan-out, is the exact count."""

    @settings(max_examples=150, deadline=None)
    @given(graph=random_graphs(5), n_max=st.integers(1, 9))
    @example(graph=DirectedGraph(Alphabet(("x", "y", "z")), ((0, 1, 0), (0, 0, 1), (0, 0, 0))), n_max=7)
    def test_sizes_are_the_count_series(self, graph, n_max):
        sizes = [len(ws) for ws in iter_word_sets(graph, n_max)]
        assert sizes == [row.total for row in count_series(graph, n_max).rows]

    def test_levels_past_the_first_empty_level(self):
        # x -> y -> z dies out at length 4; every later level extends an empty one
        g = DirectedGraph(Alphabet(("x", "y", "z")), ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
        levels = list(iter_word_sets(g, 8))
        assert [len(ws) for ws in levels] == [3, 2, 1, 0, 0, 0, 0, 0]
        assert [len(ws) for ws in levels] == [row.total for row in count_series(g, 8).rows]
        for ws in levels[3:]:
            assert ws.codes() == [] and list(ws) == [] and (2,) * ws.length not in ws

    @pytest.mark.parametrize("graphs, stints", [
        ((golden_graph(), complete_graph()), [4, 4, 5]),
        # an edgeless stint empties every level from its first length on
        ((complete_graph(), DirectedGraph(Alphabet(("X", "Y", "Z")), ((0,) * 3,) * 3)), [3, 2, 4, 3]),
    ])
    def test_combined_sizes_across_stint_boundaries(self, graphs, stints):
        system = CombinedSystem(graphs, Schedule.from_stints(stints))
        n_max = sum(stints) - 1
        sizes = [len(ws) for ws in iter_word_sets(system, n_max)]
        assert sizes == [count for _, count in combined_count_series(system, n_max)]
        cap = max(sizes) - 1
        with pytest.raises(EnumerationCapError) as err:
            list(iter_word_sets(system, n_max, cap=cap))
        first = next(n for n, size in enumerate(sizes, 1) if size > cap)
        assert (err.value.length, err.value.count, err.value.cap) == (first, sizes[first - 1], cap)

    @settings(max_examples=150, deadline=None)
    @given(graph=random_graphs(5), n_max=st.integers(1, 9), data=st.data())
    def test_cap_error_reports_the_exact_count(self, graph, n_max, data):
        totals = [row.total for row in count_series(graph, n_max).rows]
        cap = data.draw(st.integers(0, max(totals)))
        first = next((n for n, total in enumerate(totals, 1) if total > cap), None)
        if first is None:
            assert len(list(iter_word_sets(graph, n_max, cap=cap))) == n_max
            return
        with pytest.raises(EnumerationCapError) as err:
            list(iter_word_sets(graph, n_max, cap=cap))
        assert (err.value.length, err.value.count, err.value.cap) == (first, totals[first - 1], cap)


def divmod_words(level):
    """Independent oracle: each code split into base-k digits by divmod."""
    k = level.alphabet.k
    words = []
    for code in level.codes():
        letters = []
        for _ in range(level.length):
            code, letter = divmod(code, k)
            letters.append(letter)
        words.append(tuple(reversed(letters)))
    return words


def divmod_strings(level):
    syms = level.alphabet.symbols
    sep = "" if all(len(s) == 1 for s in syms) else "."
    return [sep.join(syms[x] for x in word) for word in divmod_words(level)]


def relabeled(graph, symbols):
    return DirectedGraph(Alphabet(tuple(symbols)), graph.adjacency)


class TestDecode:
    """Iteration and strings() decode codes exactly as divmod does."""

    @staticmethod
    def check(level):
        words = list(level)
        assert words == divmod_words(level)
        assert all(type(w) is tuple and all(type(x) is int for x in w) for w in words)
        strings = level.strings()
        assert strings == divmod_strings(level)
        assert all(type(s) is str for s in strings)
        assert strings == [format_word(level.alphabet, w) for w in words]

    # a NUL symbol last in a word must survive as it does in format_word
    @pytest.mark.parametrize("symbols", ["XYZ", "éxy", ("ab", "c", "de"), "X\0Z"])
    def test_int64_and_object_levels(self, symbols):
        g = relabeled(golden_graph(), symbols)
        fast = list(iter_word_sets(g, 12))
        slow = _object_levels(g, 12)
        assert fast[-1]._codes.dtype == np.int64 and slow[-1]._codes.dtype == object
        for ws, big in zip(fast, slow):
            self.check(ws)
            self.check(big)
            assert list(ws) == list(big) and ws.strings() == big.strings()

    @pytest.mark.parametrize("symbols", ["XYZ", ("X1", "Y", "Z22")])
    def test_level_larger_than_one_chunk(self, symbols):
        g = relabeled(complete_graph(), symbols)
        ws = enumerate_words(g, 10)
        big = _object_levels(g, 10)[-1]
        assert len(ws) == len(big) == 3 ** 10
        self.check(ws)
        self.check(big)

    def test_many_letters(self):
        # k = 12: single-character symbols beyond any small table, and a
        # two-letter level long enough to need object codes
        k = 12
        adj = tuple(tuple(int(j in (i, (i + 5) % k)) for j in range(k)) for i in range(k))
        g = DirectedGraph(Alphabet(tuple("abcdefghijkl")), adj)
        for ws in iter_word_sets(g, 7):
            self.check(ws)
        self.check(_object_levels(g, 7)[-1])

    def test_empty_level(self):
        g = DirectedGraph(Alphabet(("X", "Y")), ((0, 0), (0, 0)))
        for ws in (enumerate_words(g, 3), _object_levels(g, 3)[-1]):
            assert len(ws) == 0
            assert list(ws) == [] and ws.strings() == []

    def test_single_letter(self):
        g = DirectedGraph(Alphabet(("X",)), ((1,),))
        ws = enumerate_words(g, 40)
        assert list(ws) == [(0,) * 40] and ws.strings() == ["X" * 40]

    def test_combined_levels_across_a_stint_boundary(self):
        # golden for lengths 2..4, complete3 for 5..8, golden again for 9..13
        system = CombinedSystem((golden_graph(), complete_graph()), Schedule.from_stints([4, 4, 5]))
        fast = list(iter_word_sets(system, 13))
        g = system.schedule.g
        stints = [(system.graphs[(m - 1) % 2], g[m]) for m in range(1, len(g))]
        slow = _as_objects(_word_sets(stints, 13, 10 ** 6))
        assert fast[-1]._codes.dtype == np.int64 and slow[-1]._codes.dtype == object
        for ws, big in zip(fast, slow):
            assert ws.codes() == big.codes()
            self.check(ws)
            self.check(big)


class TestOracleEquivalence:
    def test_exhaustive_k_le_3(self):
        # every weakly connected digraph on <= 3 vertices, n <= 10:
        # enumeration cardinality equals the matrix count, and every
        # enumerated word is admissible
        for k in (1, 2, 3):
            for mask in iter_connected_bitmasks(k):
                g = graph_from_bitmask(k, mask)
                totals = [row.total for row in count_series(g, 10).rows]
                sizes = [len(ws) for ws in iter_word_sets(g, 10)]
                assert sizes == totals, f"mismatch at k={k} mask={mask}"
                for ws in iter_word_sets(g, 6):
                    for word in ws:
                        assert is_admissible(g, word)

    def test_admissibility_sampled_k4(self):
        # every 97th weakly connected digraph on 4 vertices, all words up
        # to n = 10, pair-checked against the adjacency in one vectorized
        # sweep per level
        import numpy as np

        masks = list(iter_connected_bitmasks(4))[::97]
        for mask in masks:
            g = graph_from_bitmask(4, mask)
            adj = np.array(g.adjacency, dtype=np.int64)
            for ws in iter_word_sets(g, 10):
                if len(ws) == 0 or ws.length < 2:
                    continue
                codes = np.array(ws.codes(), dtype=np.int64)
                digits = [
                    (codes // 4 ** p) % 4 for p in range(ws.length - 1, -1, -1)
                ]
                for a, b in zip(digits, digits[1:]):
                    assert adj[a, b].all(), f"inadmissible word in mask={mask}"

    def test_parallel_evaluation_matches_sequential(self):
        # pure functions: counting across n values in threads must be
        # indistinguishable from the sequential sweep
        from concurrent.futures import ThreadPoolExecutor

        g = golden_graph()
        sequential = [count_matrix(g, n).entries for n in range(1, 41)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda n: count_matrix(g, n).entries, range(1, 41)))
        assert parallel == sequential


class TestClosedFormTables:
    """Exact counts against the eigenvalue closed forms of the golden graph."""

    ENTRY_FORMS = {
        ("X", "X"): lambda n: (MU ** n - NU ** n) / SQRT5,
        ("X", "Y"): lambda n: -2 + (5 + 3 * SQRT5) / 10 * MU ** n + (5 - 3 * SQRT5) / 10 * NU ** n,
        ("X", "Z"): lambda n: (5 - SQRT5) / 10 * MU ** n + (5 + SQRT5) / 10 * NU ** n,
        ("Y", "X"): lambda n: 0.0,
        ("Y", "Y"): lambda n: 1.0,
        ("Y", "Z"): lambda n: 0.0,
        ("Z", "X"): lambda n: (5 - SQRT5) / 10 * MU ** n + (5 + SQRT5) / 10 * NU ** n,
        ("Z", "Y"): lambda n: -1 + (5 + SQRT5) / 10 * MU ** n + (5 - SQRT5) / 10 * NU ** n,
        ("Z", "Z"): lambda n: (3 * SQRT5 - 5) / 10 * MU ** n - (3 * SQRT5 + 5) / 10 * NU ** n,
    }
    ROW_FORMS = {
        "X": lambda n: -2 + (5 + 2 * SQRT5) / 5 * MU ** n + (5 - 2 * SQRT5) / 5 * NU ** n,
        "Y": lambda n: 1.0,
        "Z": lambda n: -1 + (5 + 3 * SQRT5) / 10 * MU ** n + (5 - 3 * SQRT5) / 10 * NU ** n,
    }
    COL_FORMS = {
        "X": lambda n: (5 + SQRT5) / 10 * MU ** n + (5 - SQRT5) / 10 * NU ** n,
        "Y": lambda n: -2 + (10 + 4 * SQRT5) / 10 * MU ** n + (10 - 4 * SQRT5) / 10 * NU ** n,
        "Z": lambda n: (MU ** n - NU ** n) / SQRT5,
    }

    @staticmethod
    def total_form(n):
        return -2 + (15 + 7 * SQRT5) / 10 * MU ** n + (15 - 7 * SQRT5) / 10 * NU ** n

    def test_golden_graph_forms_match_exact_counts(self):
        g = golden_graph()
        syms = ("X", "Y", "Z")
        for n in range(1, 61):
            cm = count_matrix(g, n)
            for (a, b), form in self.ENTRY_FORMS.items():
                exact = cm.entry(a, b)
                assert abs(form(n) - exact) <= 1e-9 * max(1, exact)
            for i, s in enumerate(syms):
                assert abs(self.ROW_FORMS[s](n) - cm.row_sums[i]) <= 1e-9 * max(1, cm.row_sums[i])
                assert abs(self.COL_FORMS[s](n) - cm.col_sums[i]) <= 1e-9 * max(1, cm.col_sums[i])
            assert abs(self.total_form(n) - cm.total) <= 1e-9 * max(1, cm.total)

    def test_column_y_variant_coefficient_does_not_match(self):
        # the (5 + 4*sqrt5)/10 variant of the Y-column form disagrees with
        # exact counts; the (10 + 4*sqrt5)/10 version above is the right one
        alt = lambda n: -2 + (5 + 4 * SQRT5) / 10 * MU ** n + (5 - 4 * SQRT5) / 10 * NU ** n
        cm = count_matrix(golden_graph(), 5)
        assert abs(alt(5) - cm.col_sums[1]) > 1

    def test_linear_graph_forms_exact(self):
        g = linear_graph()
        for n in range(2, 61):
            cm = count_matrix(g, n)
            assert cm.entry("X", "X") == 0 and cm.entry("X", "Z") == 0
            assert cm.entry("X", "Y") == 1
            assert cm.entry("Y", "X") == 0 and cm.entry("Y", "Z") == 0
            assert cm.entry("Y", "Y") == 1
            assert cm.entry("Z", "X") == 1 and cm.entry("Z", "Z") == 1
            assert cm.entry("Z", "Y") == 2 * n - 3
            # the Z row sums to 2n - 1 (= 1 + (2n-3) + 1); only the grand
            # total reaches 2n + 1
            assert cm.row_sums == (1, 1, 2 * n - 1)
            assert cm.col_sums == (1, 2 * n - 1, 1)
            assert cm.total == 2 * n + 1
        assert count_matrix(g, 1).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_strict_inequalities_from_n4(self):
        g = golden_graph()
        for n in range(4, 201):
            cm = count_matrix(g, n)
            assert cm.entry("X", "X") > cm.entry("X", "Z")
            assert cm.entry("Z", "X") > cm.entry("Z", "Z")
