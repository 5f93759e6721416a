import hashlib
import itertools
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from symgraph import (
    Alphabet,
    DirectedGraph,
    EXPONENTIAL,
    MIXED,
    POLYNOMIAL,
    char_poly,
    charpoly_at_matrix,
    classify_growth,
    closed_form,
    complete_graph,
    conjecture_scan,
    count_series,
    golden_graph,
    graph_from_bitmask,
    graph_from_edges,
    iter_connected_bitmasks,
    linear_graph,
    two_cycle_graph,
    verify_recurrence,
)
from symgraph import spectral
from symgraph.intmat import mat_pow, mat_total
from symgraph.spectral import CharPoly, RecurrenceFailure, RecurrenceReport, _squarefree_factors
from fractions import Fraction

MU = (1 + math.sqrt(5)) / 2


@st.composite
def dense_or_sparse_matrices(draw, k_max):
    """0/1 matrices whose density runs over all of [0, 1]: empty and full rows both occur."""
    k = draw(st.integers(1, k_max))
    density = draw(st.floats(0, 1))
    cells = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=k * k, max_size=k * k))
    return tuple(tuple(int(u < density) for u in cells[i * k:(i + 1) * k]) for i in range(k))


def chain_witness_graph():
    """Two looped 2-cliques in a chain: counts grow like n * 2**n."""
    adj = ((1, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    return DirectedGraph(Alphabet(("A", "B", "C", "D")), adj)


class TestCharPoly:
    def test_golden(self):
        assert char_poly(golden_graph()).coefficients == (1, -2, 0, 1)

    def test_linear(self):
        assert char_poly(linear_graph()).coefficients == (1, -2, 1, 0)

    def test_complete(self):
        # oracle: det(xI - J) for the all-ones 3x3 expands to x^3 - 3x^2
        assert char_poly(complete_graph()).coefficients == (1, -3, 0, 0)

    def test_two_cycle(self):
        assert char_poly(two_cycle_graph()).coefficients == (1, 0, -1)

    def test_cayley_hamilton_exhaustive_k_le_3(self):
        for k in (1, 2, 3):
            for mask in iter_connected_bitmasks(k):
                g = graph_from_bitmask(k, mask)
                residual = charpoly_at_matrix(char_poly(g), g.adjacency)
                assert all(v == 0 for row in residual for v in row)

    def test_cayley_hamilton_exhaustive_k4(self):
        for mask in iter_connected_bitmasks(4):
            g = graph_from_bitmask(4, mask)
            residual = charpoly_at_matrix(char_poly(g), g.adjacency)
            assert all(v == 0 for row in residual for v in row)

    def test_invariant_under_relabeling(self):
        g = golden_graph()
        for perm in itertools.permutations(range(3)):
            adj = tuple(
                tuple(g.adjacency[perm[i]][perm[j]] for j in range(3)) for i in range(3)
            )
            relabeled = DirectedGraph(Alphabet(("X", "Y", "Z")), adj)
            assert char_poly(relabeled).coefficients == char_poly(g).coefficients

    def test_pretty(self):
        assert char_poly(golden_graph()).pretty() == "x^3 - 2x^2 + 1"

    @settings(max_examples=150, deadline=None)
    @given(adj=dense_or_sparse_matrices(12))
    @example(adj=((0,),))
    @example(adj=((1,),))
    @example(adj=((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    @example(adj=((0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)))
    @example(adj=((0, 1, 1), (0, 0, 1), (0, 0, 0)))
    def test_matches_sympy(self, adj):
        # sparse rows and columns, all-ones blocks and loops against sympy's charpoly
        k = len(adj)
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        expected = tuple(int(c) for c in sympy.Matrix(adj).charpoly().all_coeffs())
        assert char_poly(graph).coefficients == expected
        assert all(type(c) is int for c in char_poly(graph).coefficients)

    def test_one_run_per_graph(self):
        # analyze asks for chi three times; equal successor lists share one result
        g = chain_witness_graph()
        same = DirectedGraph(Alphabet(("P", "Q", "R", "S")), g.adjacency)
        first = char_poly(g)
        hits = spectral._berkowitz.cache_info().hits
        assert char_poly(g) is first and char_poly(same) is first
        assert spectral._berkowitz.cache_info().hits == hits + 2


class TestRecurrence:
    def test_golden_values(self):
        # omega^4 = 2*omega^3 - omega^1: 19 = 22 - 3
        totals = [r.total for r in count_series(golden_graph(), 4).rows]
        assert totals == [3, 6, 11, 19]
        assert totals[3] == 2 * totals[2] - totals[0]
        assert verify_recurrence(golden_graph(), 50).ok

    def test_linear_values(self):
        # 2n+1 satisfies omega^n = 2*omega^(n-1) - omega^(n-2)
        assert verify_recurrence(linear_graph(), 50).ok

    def test_two_cycle(self):
        assert verify_recurrence(two_cycle_graph(), 50).ok

    def test_exhaustive_k_le_3_to_200(self):
        for k in (1, 2, 3):
            for mask in iter_connected_bitmasks(k):
                g = graph_from_bitmask(k, mask)
                if 200 > k:
                    assert verify_recurrence(g, 200).ok

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            verify_recurrence(golden_graph(), 3)

    @staticmethod
    def brute_force_failures(graph, coefficients, n_max):
        """Every failing entry and total, from explicit matrix powers."""
        k = graph.k
        low = coefficients[:0:-1]  # low[r] is the coefficient of x^r
        powers = [None] + [mat_pow(graph.adjacency, n - 1) for n in range(1, n_max + 1)]
        failures = []
        for n in range(k + 1, n_max + 1):
            for i in range(k):
                for j in range(k):
                    want = -sum(low[r] * powers[n - k + r][i][j] for r in range(k))
                    if powers[n][i][j] != want:
                        failures.append(RecurrenceFailure(n, i, j, want, powers[n][i][j]))
            want = -sum(low[r] * mat_total(powers[n - k + r]) for r in range(k))
            if mat_total(powers[n]) != want:
                failures.append(RecurrenceFailure(n, None, None, want, mat_total(powers[n])))
        return tuple(failures)

    def test_annihilating_polynomial_other_than_charpoly(self, monkeypatch):
        # x^3 - 2x^2 - 3x = chi + (x^2 - 3x) also vanishes at the all-ones matrix
        graph = complete_graph()
        poly = CharPoly((1, -2, -3, 0))
        assert poly != char_poly(graph)
        monkeypatch.setattr(spectral, "char_poly", lambda g: poly)
        report = verify_recurrence(graph, 40)
        assert report == RecurrenceReport(True, 40, ())
        assert self.brute_force_failures(graph, poly.coefficients, 40) == ()

    def test_any_n_max_is_proved_at_once(self):
        # the scan over n could not reach this n_max; chi(M) = 0 settles it
        rng = random.Random(16)
        k = 16
        adj = tuple(tuple(int(rng.random() < 0.3) for _ in range(k)) for _ in range(k))
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        assert verify_recurrence(graph, 10 ** 5) == RecurrenceReport(True, 10 ** 5, ())

    def test_failures_of_a_perturbed_polynomial(self, monkeypatch):
        # linear_graph has a zero coefficient, which the perturbation can make nonzero
        graphs = [golden_graph(), linear_graph(), chain_witness_graph(), graph_from_bitmask(4, 0x9A5B)]
        for graph in graphs:
            true_coefficients = char_poly(graph).coefficients
            for position in range(1, graph.k + 1):
                for delta in (1, -1):
                    coefficients = list(true_coefficients)
                    coefficients[position] += delta
                    poly = CharPoly(tuple(coefficients))
                    monkeypatch.setattr(spectral, "char_poly", lambda g, poly=poly: poly)
                    report = verify_recurrence(graph, 40)
                    expected = self.brute_force_failures(graph, poly.coefficients, 40)
                    assert not report.ok and report.n_max == 40
                    assert any(f.i is None for f in expected)
                    assert any(f.i is not None for f in expected)
                    assert report.failures == expected


class TestSquareFree:
    def poly(self, *coeffs):
        return tuple(Fraction(c) for c in coeffs)

    def test_simple_factors(self):
        # x^2 - 1 is square-free
        out = _squarefree_factors(self.poly(1, 0, -1))
        assert out == [(self.poly(1, 0, -1), 1)]

    def test_double_root(self):
        # (x - 1)^2 = x^2 - 2x + 1
        out = _squarefree_factors(self.poly(1, -2, 1))
        assert out == [(self.poly(1, -1), 2)]

    def test_triple_root(self):
        # (x - 1)^3
        out = _squarefree_factors(self.poly(1, -3, 3, -1))
        assert out == [(self.poly(1, -1), 3)]

    def test_mixed_multiplicities(self):
        # x * (x - 1)^2 = x^3 - 2x^2 + x  (the linear graph's polynomial)
        out = _squarefree_factors(self.poly(1, -2, 1, 0))
        assert out == [(self.poly(1, 0), 1), (self.poly(1, -1), 2)]

    def test_product_reconstructs(self):
        # property: multiplying the factors back gives the input
        rng = random.Random(7)
        for _ in range(50):
            roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            coeffs = [Fraction(1)]
            for r in roots:
                coeffs = [a - r * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
            product = [Fraction(1)]
            for factor, mult in _squarefree_factors(tuple(coeffs)):
                for _ in range(mult):
                    new = [Fraction(0)] * (len(product) + len(factor) - 1)
                    for i, a in enumerate(product):
                        for j, b in enumerate(factor):
                            new[i + j] += a * b
                    product = new
            assert tuple(product) == tuple(coeffs)


class TestClosedForm:
    def test_golden(self):
        form = closed_form(golden_graph())
        assert form.validity_floor == 1
        assert form.zero_multiplicity == 0
        roots = sorted((t.root.real for t in form.terms), reverse=True)
        assert abs(roots[0] - MU) < 1e-9
        assert abs(roots[1] - 1.0) < 1e-9
        assert abs(roots[2] - (1 - MU)) < 1e-9
        by_root = {round(t.root.real, 6): t for t in form.terms}
        assert abs(by_root[round(MU, 6)].coefficients[0].real - (15 + 7 * math.sqrt(5)) / 10) < 1e-9
        assert abs(by_root[1.0].coefficients[0].real - (-2.0)) < 1e-9
        assert abs(by_root[round(1 - MU, 6)].coefficients[0].real - (15 - 7 * math.sqrt(5)) / 10) < 1e-9
        assert form.constant_term == pytest.approx(-2.0)

    def test_linear(self):
        form = closed_form(linear_graph())
        assert form.validity_floor == 2
        assert form.zero_multiplicity == 1
        assert len(form.terms) == 1
        term = form.terms[0]
        assert abs(term.root - 1.0) < 1e-12
        assert term.multiplicity == 2
        assert abs(term.coefficients[0].real - 1.0) < 1e-9
        assert abs(term.coefficients[1].real - 2.0) < 1e-9
        # exact match for 2 <= n <= 60
        for row in count_series(linear_graph(), 60).rows[1:]:
            assert round(form.evaluate(row.n)) == row.total
            assert abs(form.evaluate(row.n) - row.total) < 1e-9 * row.total

    def test_complete(self):
        form = closed_form(complete_graph())
        assert form.validity_floor == 3
        assert len(form.terms) == 1
        assert abs(form.terms[0].root - 3.0) < 1e-12
        assert abs(form.terms[0].coefficients[0] - 1.0) < 1e-10

    def test_reproduces_counts_to_60(self):
        for g in (golden_graph(), linear_graph(), complete_graph(), two_cycle_graph()):
            form = closed_form(g)
            for row in count_series(g, 60).rows:
                if row.n < form.validity_floor:
                    continue
                assert abs(form.evaluate(row.n) - row.total) <= 1e-9 * max(1, row.total)

    def test_random_k4_graphs(self):
        rng = random.Random(20260811)
        masks = list(iter_connected_bitmasks(4))
        for mask in rng.sample(masks, 50):
            g = graph_from_bitmask(4, mask)
            form = closed_form(g)
            for row in count_series(g, 60).rows:
                if row.n < form.validity_floor:
                    continue
                assert abs(form.evaluate(row.n) - row.total) <= 1e-9 * max(1, row.total), (
                    f"mask={mask} n={row.n}"
                )

    def test_triple_root_chain(self):
        # (x-1)^3 polynomial: counts are quadratic; exact multiplicities
        # must come out of the square-free split, not root clustering
        g = graph_from_edges(("A", "B", "C"), [("A", "A"), ("A", "B"), ("B", "B"), ("B", "C"), ("C", "C")])
        assert char_poly(g).coefficients == (1, -3, 3, -1)
        form = closed_form(g)
        assert len(form.terms) == 1
        assert form.terms[0].multiplicity == 3
        for row in count_series(g, 60).rows:
            assert abs(form.evaluate(row.n) - row.total) <= 1e-9 * max(1, row.total)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_chain_of_loops_matches_sympy_interpolation(self, k):
        # (x-1)^k: one term, root 1 with multiplicity k, whose coefficients
        # are those of the degree k-1 polynomial through the exact counts
        syms = [f"v{i}" for i in range(k)]
        g = graph_from_edges(syms, [(s, s) for s in syms] + list(zip(syms, syms[1:])))
        form = closed_form(g)
        assert [(t.root, t.multiplicity) for t in form.terms] == [(1, k)]
        n = sympy.Symbol("n")
        points = [(row.n, row.total) for row in count_series(g, k + 2).rows]
        exact = sympy.Poly(sympy.interpolate(points, n), n).all_coeffs()[::-1]
        assert len(exact) == k
        for c, e in zip(form.terms[0].coefficients, exact):
            assert abs(c - float(e)) <= 1e-9 * max(1.0, abs(float(e)))

    @settings(max_examples=150, deadline=None)
    @given(adj=dense_or_sparse_matrices(8))
    @example(adj=((1, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1)))  # root 2, m = 2
    @example(adj=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 0)))  # root 1, m = 3
    @example(adj=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))  # root 1, m = 4
    def test_reproduces_exact_counts(self, adj):
        g = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(len(adj)))), adj)
        form = closed_form(g)
        z = form.zero_multiplicity
        assert sum(t.multiplicity for t in form.terms) + z == len(adj)
        for row in count_series(g, z + 40).rows[z:]:
            assert abs(form.evaluate(row.n) - row.total) <= 1e-9 * max(1, row.total), row.n


class TestClassify:
    def test_golden_exponential(self):
        growth = classify_growth(golden_graph())
        assert growth.kind == EXPONENTIAL
        assert abs(growth.rho - MU) < 1e-9
        assert growth.poly_degree == 0

    def test_linear_polynomial_degree_1(self):
        growth = classify_growth(linear_graph())
        assert growth.kind == POLYNOMIAL
        assert growth.rho == 1.0
        assert growth.poly_degree == 1

    def test_two_cycle_degree_0(self):
        # the (-1)^n coefficient vanishes, leaving a constant
        growth = classify_growth(two_cycle_graph())
        assert growth.kind == POLYNOMIAL
        assert growth.poly_degree == 0

    def test_chain_witness_mixed(self):
        growth = classify_growth(chain_witness_graph())
        assert growth.kind == MIXED
        assert abs(growth.rho - 2.0) < 1e-9
        assert growth.poly_degree == 1

    def test_chain_witness_counts_grow_like_n_2n(self):
        # oracle: exact counts vs c * n * 2^n stabilizes
        g = chain_witness_graph()
        totals = {r.n: r.total for r in count_series(g, 40).rows}
        ratios = [totals[n] / (n * 2 ** n) for n in (20, 30, 40)]
        assert abs(ratios[-1] - ratios[-2]) < 0.05
        assert ratios[-1] > 0.1

    def test_invariant_under_relabeling(self):
        for g in (golden_graph(), linear_graph(), chain_witness_graph()):
            base = classify_growth(g)
            k = g.k
            rng = random.Random(3)
            for _ in range(5):
                perm = list(range(k))
                rng.shuffle(perm)
                adj = tuple(
                    tuple(g.adjacency[perm[i]][perm[j]] for j in range(k)) for i in range(k)
                )
                relabeled = DirectedGraph(Alphabet(tuple("PQRS"[:k])), adj)
                got = classify_growth(relabeled)
                assert got.kind == base.kind
                assert abs(got.rho - base.rho) < 1e-9
                assert got.poly_degree == base.poly_degree


class TestScan:
    def test_k1(self):
        report = conjecture_scan(1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.kind == POLYNOMIAL and row.poly_degree == 0
        assert report.mixed_rows == ()

    def test_k2_no_mixed_among_strongly_connected(self):
        report = conjecture_scan(2)
        assert report.mixed_strongly_connected == ()

    def test_k3_deterministic_and_no_strong_mixed(self):
        # the digest of the table written before polynomials and roots were memoized
        report = conjecture_scan(3)
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
            "753ac2ecf15cce07eb974d74f8722069cf6e408462966f659ebd0f60141f4b2f"
        )
        assert report.mixed_strongly_connected == ()
        assert report.candidates_by_k == ((1, 2), (2, 16), (3, 512))

    def test_connected_bitmasks_match_union_find(self):
        def connected(k, mask):
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            touched = set()
            for i in range(k):
                for j in range(k):
                    if (mask >> (i * k + j)) & 1:
                        touched |= {i, j}
                        parent[find(i)] = find(j)
            return len(touched) == k and len({find(i) for i in range(k)}) == 1

        for k in (1, 2, 3):
            expected = [mask for mask in range(1 << (k * k)) if connected(k, mask)]
            assert list(iter_connected_bitmasks(k)) == expected
        masks = list(iter_connected_bitmasks(4))
        assert len(masks) == 61_344
        assert masks == sorted(set(masks))

    def test_k3_perron_roots_real_simple_for_strongly_connected(self):
        # dominant root of every strongly connected graph is real and simple
        report = conjecture_scan(3)
        for row in report.rows:
            if not row.strongly_connected:
                continue
            g = graph_from_bitmask(row.k, row.bitmask)
            form = closed_form(g)
            dominant = [t for t in form.terms if abs(abs(t.root) - row.rho) < 1e-7]
            if row.rho > 0:
                assert any(t.multiplicity == 1 and abs(t.root.imag) < 1e-7 for t in dominant)

    def test_k4_scan_reports_chain_witness(self):
        report = conjecture_scan(4)
        # the digest of `symgraph scan --k-max 4`'s scan_table.csv, which
        # writes the same bytes
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
            "ec637583be614515484a33637f01d2d9a8e9474f7086cb9dd4d28e1004295014"
        )
        target = chain_witness_graph()
        mask = sum(
            1 << (i * 4 + j)
            for i in range(4)
            for j in range(4)
            if target.adjacency[i][j]
        )
        found = [r for r in report.mixed_rows if r.k == 4 and r.bitmask == mask]
        assert len(found) == 1
        assert not found[0].strongly_connected
        assert found[0] in report.mixed_weakly_only
        # conjecture: no mixed growth among strongly connected graphs
        assert report.mixed_strongly_connected == ()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            conjecture_scan(5)
        with pytest.raises(ValueError):
            conjecture_scan(0)


class TestNumericalGuards:
    def test_normal_tolerance_untouched(self):
        from symgraph import CharPoly
        from symgraph.spectral import _roots_with_multiplicity
        roots = _roots_with_multiplicity(CharPoly((1, -2, 2, -1)))
        assert len(roots) == 3
        assert all(m == 1 for _, m in roots)

    def test_root_table_cache_cannot_be_corrupted(self):
        from symgraph import CharPoly
        from symgraph.spectral import _roots_with_multiplicity
        poly = CharPoly((1, -2, 2, -1))
        first = _roots_with_multiplicity(poly)
        kept = list(first)
        with pytest.raises((TypeError, AttributeError)):
            first[0] = (0j, 9)
        with pytest.raises((TypeError, AttributeError)):
            first.append((0j, 9))
        hits = spectral._root_table.cache_info().hits
        assert _roots_with_multiplicity(poly) == tuple(kept)
        assert spectral._root_table.cache_info().hits == hits + 1
        # trailing zero roots do not enter the key: x * chi shares chi's table
        assert _roots_with_multiplicity(CharPoly((1, -2, 2, -1, 0))) is first
