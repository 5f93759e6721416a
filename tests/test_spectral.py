import functools
import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from symgraph import (
    Alphabet,
    DirectedGraph,
    EXPONENTIAL,
    MIXED,
    POLYNOMIAL,
    char_poly,
    classify_growth,
    closed_form,
    complete_graph,
    conjecture_scan,
    count_series,
    golden_graph,
    graph_from_bitmask,
    graph_from_edges,
    GrowthClass,
    iter_connected_bitmasks,
    linear_graph,
    strongly_connected_components,
    two_cycle_graph,
    verify_recurrence,
)
from symgraph import census, graphs, intmat, spectral
from symgraph.cli import Table
from symgraph.intmat import mat_mul
from symgraph.spectral import CharPoly, RecurrenceReport, _squarefree_factors

MU = (1 + math.sqrt(5)) / 2


@st.composite
def dense_or_sparse_matrices(draw, k_max):
    """0/1 matrices whose density runs over all of [0, 1]: empty and full rows both occur."""
    k = draw(st.integers(1, k_max))
    density = draw(st.floats(0, 1))
    cells = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=k * k, max_size=k * k))
    return tuple(tuple(int(u < density) for u in cells[i * k:(i + 1) * k]) for i in range(k))


@st.composite
def block_triangular_matrices(draw):
    """1-4 diagonal blocks, arrows only from earlier to later blocks, then relabeled.

    A block is a loopless vertex (factor x), a loop (x - 1), a simple
    cycle or a random 0/1 block; a block may repeat the one before it.
    """
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        if blocks and draw(st.booleans()):
            blocks.append(blocks[-1])
            continue
        shape = draw(st.sampled_from(["point", "loop", "cycle", "random"]))
        if shape == "point":
            blocks.append(((0,),))
        elif shape == "loop":
            blocks.append(((1,),))
        elif shape == "cycle":
            n = draw(st.integers(2, 4))
            blocks.append(tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)))
        else:
            n = draw(st.integers(1, 4))
            cells = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
            blocks.append(tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
    starts = list(itertools.accumulate([0] + [len(b) for b in blocks]))
    k = starts[-1]
    owner = [b for b, block in enumerate(blocks) for _ in block]
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if owner[i] == owner[j]:
                adj[i][j] = blocks[owner[i]][i - starts[owner[i]]][j - starts[owner[j]]]
            elif owner[i] < owner[j]:
                adj[i][j] = draw(st.integers(0, 1))
    perm = draw(st.permutations(range(k)))
    return tuple(tuple(adj[perm[i]][perm[j]] for j in range(k)) for i in range(k))


def poly_at_matrix(poly, m):
    """chi(M) by exact integer Horner over intmat.mat_mul."""
    k = len(m)
    acc = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    for c in poly.coefficients[1:]:
        acc = mat_mul(acc, m)
        acc = tuple(tuple(v + c * (i == j) for j, v in enumerate(row)) for i, row in enumerate(acc))
    return acc


def loop_chain_graph(k):
    """k looped vertices in a path: chi = (x-1)^k, counts a degree k-1 polynomial."""
    syms = [f"v{i}" for i in range(k)]
    return graph_from_edges(syms, [(s, s) for s in syms] + list(zip(syms, syms[1:])))


def chain_witness_graph():
    """Two looped 2-cliques in a chain: counts grow like n * 2**n."""
    adj = ((1, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    return DirectedGraph(Alphabet(("A", "B", "C", "D")), adj)


def relabeled(adj, perm):
    """The graph with edge perm[i] -> perm[j] for each edge i -> j of adj."""
    k = len(adj)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[perm[i]][perm[j]] = adj[i][j]
    return DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), tuple(map(tuple, out)))


def canonical_masks(k, masks):
    """Least row-major bitmask over all k! relabelings, as numpy bit permutations."""
    masks = np.asarray(masks, dtype=np.int64)
    least = np.full(len(masks), 1 << (k * k), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        image = np.zeros_like(masks)
        for i in range(k):
            for j in range(k):
                image |= (masks >> (i * k + j) & 1) << (perm[i] * k + perm[j])
        least = np.minimum(least, image)
    return least.tolist()


@pytest.fixture(scope="module")
def k4_scan():
    """conjecture_scan(4) from empty memos: the report, Berkowitz runs per size, the classes.

    A fresh Berkowitz memo of the same size counts its misses, which run
    the unmemoized scheme; a fresh class memo records each class it
    computes under its key.
    """
    runs = Counter()
    classes = {}
    memo, class_of = intmat._berkowitz, spectral._class_of

    def counted(succ):
        runs[len(succ)] += 1
        return memo.__wrapped__(succ)

    def recorded(k, least):
        value = class_of.__wrapped__(k, least)
        classes[k, least] = value[0]
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_berkowitz", functools.lru_cache(memo.cache_info().maxsize)(counted))
        mp.setattr(spectral, "_class_of", functools.lru_cache(maxsize=None)(recorded))
        report = conjecture_scan(4)
    return report, runs, classes


def labeled_rows(report):
    """Each labeled row of a scan report: its bitmask and its class's ScanRow."""
    return [(m, report.classes[i]) for m, i in zip(report.masks.tolist(), report.index.tolist())]


def mixed_rows(report, strongly_connected):
    """(k, bitmask) of each labeled mixed row, strongly or only weakly connected."""
    return [(c.k, m) for m, c in labeled_rows(report)
            if c.kind == MIXED and c.strongly_connected == strongly_connected]


def digest(table):
    return hashlib.sha256(table.encode()).hexdigest()


def golden_tie_graph():
    """A golden block feeding its own edge graph: two components with Perron root mu."""
    return graph_from_edges(
        ("a", "b", "aa", "ab", "ba"),
        [("a", "a"), ("a", "b"), ("b", "a"), ("b", "aa"),
         ("aa", "aa"), ("aa", "ab"), ("ab", "ba"), ("ba", "aa"), ("ba", "ab")],
    )


def sympy_rho(adj):
    """The spectral radius of a 0/1 matrix, correctly rounded, from sympy.

    By Perron-Frobenius it is the largest real root of the characteristic
    polynomial; 60 digits of it round to the same double as the root.
    """
    x = sympy.Symbol("x")
    root = max(sympy.real_roots(sympy.Poly(sympy.Matrix(adj).charpoly(x).as_expr(), x)))
    return float(Fraction(str(sympy.N(root, 60))))


def complete_graph_examples(test):
    """The complete graphs on 2..16 letters, whose rho, the integer k, is a double."""
    for k in range(2, 17):
        test = example(adj=((1,) * k,) * k)(test)
    return test


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
                residual = poly_at_matrix(char_poly(g), g.adjacency)
                assert all(v == 0 for row in residual for v in row)

    def test_cayley_hamilton_exhaustive_k4(self):
        for mask in iter_connected_bitmasks(4):
            g = graph_from_bitmask(4, mask)
            residual = poly_at_matrix(char_poly(g), g.adjacency)
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

    @settings(max_examples=150, deadline=None)
    @given(adj=block_triangular_matrices())
    @example(adj=((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    @example(adj=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    @example(adj=((0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0)))
    def test_block_product_matches_sympy(self, adj):
        # points, loops, cycles and repeated blocks, arranged block triangular
        k = len(adj)
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        expected = tuple(int(c) for c in sympy.Matrix(adj).charpoly().all_coeffs())
        assert char_poly(graph).coefficients == expected

    def test_block_product_matches_whole_matrix_berkowitz(self):
        # every mask up to k = 3, and every 7th at k = 4, against one
        # unmemoized Berkowitz run on the whole matrix
        whole = intmat._berkowitz.__wrapped__
        masks = [(k, m) for k in (1, 2, 3) for m in range(1 << k * k)]
        masks += [(4, m) for m in range(0, 1 << 16, 7)]
        for k, mask in masks:
            g = graph_from_bitmask(k, mask)
            assert char_poly(g).coefficients == whole(g._succ), (k, mask)

    def test_one_run_per_graph(self):
        # analyze asks for chi three times; the block polynomials are memoized
        # by their relabeled successor lists, so the repeats run no Berkowitz
        g = chain_witness_graph()
        same = DirectedGraph(Alphabet(("P", "Q", "R", "S")), g.adjacency)
        blocks = len(strongly_connected_components(g))
        assert blocks == 2
        first = char_poly(g)
        before = intmat._berkowitz.cache_info()
        assert char_poly(g) == first and char_poly(same) == first
        after = intmat._berkowitz.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2 * blocks
        # a strongly connected graph is one block: the memo holds its polynomial
        assert char_poly(complete_graph()).coefficients is char_poly(complete_graph()).coefficients


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
    def nonzero_entries(value):
        """(i, j, value) for each nonzero entry of a matrix, row-major."""
        return tuple((i, j, v) for i, row in enumerate(value) for j, v in enumerate(row) if v)

    def test_annihilating_polynomial_other_than_charpoly(self, monkeypatch):
        # x^3 - 2x^2 - 3x = chi + (x^2 - 3x) also vanishes at the all-ones matrix
        graph = complete_graph()
        poly = CharPoly((1, -2, -3, 0))
        assert poly != char_poly(graph)
        monkeypatch.setattr(spectral, "char_poly", lambda g: poly)
        report = verify_recurrence(graph, 40)
        assert report == RecurrenceReport(True, 40, ())
        assert self.nonzero_entries(poly_at_matrix(poly, graph.adjacency)) == ()

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
            m = sympy.Matrix(graph.adjacency)
            for position in range(1, graph.k + 1):
                for delta in (1, -1):
                    coefficients = list(true_coefficients)
                    coefficients[position] += delta
                    poly = CharPoly(tuple(coefficients))
                    monkeypatch.setattr(spectral, "char_poly", lambda g, poly=poly: poly)
                    report = verify_recurrence(graph, 40)
                    # sympy's value of the polynomial at M, by its own matrix powers
                    value = sum(
                        (c * m ** r for r, c in enumerate(reversed(coefficients))),
                        sympy.zeros(graph.k),
                    )
                    expected = self.nonzero_entries(value.tolist())
                    assert not report.ok and report.n_max == 40
                    assert report.residual == expected
                    # every residual entry lies inside the k x k matrix
                    assert all(i < graph.k and j < graph.k for i, j, _ in report.residual)

    @settings(max_examples=60, deadline=None)
    @given(
        adj=dense_or_sparse_matrices(8),
        position=st.integers(1, 8),
        delta=st.sampled_from((1, -1, 2 ** 100, -(2 ** 100))),
    )
    @example(adj=((1,),), position=1, delta=2 ** 100)
    @example(adj=((1, 1, 1), (1, 1, 1), (1, 1, 1)), position=3, delta=-1)
    @example(adj=((0, 0, 0), (1, 0, 0), (0, 1, 0)), position=2, delta=-(2 ** 100))
    # a 24-letter ring with one chord: row sums at most 2, far below k
    @example(adj=tuple(tuple(int(j == (i + 1) % 24 or (i, j) == (0, 12)) for j in range(24))
                       for i in range(24)), position=5, delta=-1)
    # no edges: every row sum is 0, taken as 1, and chi(M) is its constant term
    @example(adj=((0, 0), (0, 0)), position=2, delta=-1)
    def test_packed_proof_sees_every_perturbation(self, adj, position, delta):
        # the packed vector must read back every entry of chi(M), signs and all
        k = len(adj)
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        coefficients = list(char_poly(graph).coefficients)
        coefficients[min(position, k)] += delta
        poly = CharPoly(tuple(coefficients))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "char_poly", lambda g: poly)
            report = verify_recurrence(graph, 40)
        expected = self.nonzero_entries(poly_at_matrix(poly, adj))
        assert report == RecurrenceReport(not expected, 40, expected)

    def test_packed_width_is_not_too_narrow(self, monkeypatch):
        # a golden block feeding a looped vertex: q = x^2 - x - 1 clears the
        # block, so chi + q leaves only column (2, 1, -1) nonzero at M, and
        # that column packs to 2 + 1*2 - 1*4 = 0 at width 1
        graph = DirectedGraph(Alphabet(("A", "B", "C")), ((1, 1, 1), (1, 0, 1), (0, 0, 1)))
        poly = CharPoly((1, -1, -1, 0))
        assert char_poly(graph).coefficients == (1, -2, 0, 1)
        value = poly_at_matrix(poly, graph.adjacency)
        assert value == ((0, 0, 2), (0, 0, 1), (0, 0, -1))
        assert all(sum(value[i][j] << i for i in range(3)) == 0 for j in range(3))
        monkeypatch.setattr(spectral, "char_poly", lambda g: poly)
        report = verify_recurrence(graph, 40)
        assert not report.ok
        assert report.residual == ((0, 2, 2), (1, 2, 1), (2, 2, -1))

    @pytest.mark.parametrize("edges", [[("v0", "v1"), ("v1", "v2")], [("v2", "v1"), ("v1", "v0")]])
    @pytest.mark.parametrize("delta", [1, -(2 ** 100)])
    def test_perturbation_nonzero_in_one_entry(self, monkeypatch, edges, delta):
        # on a 3-vertex path chi = x^3 and M^2 has one nonzero entry, so adding
        # delta to the x^2 coefficient leaves chi(M) nonzero there only: in the
        # lowest packed digit of the last column, or the highest of the first
        graph = graph_from_edges(["v0", "v1", "v2"], edges)
        assert char_poly(graph).coefficients == (1, 0, 0, 0)
        poly = CharPoly((1, delta, 0, 0))
        monkeypatch.setattr(spectral, "char_poly", lambda g: poly)
        report = verify_recurrence(graph, 40)
        assert report.residual == self.nonzero_entries(poly_at_matrix(poly, graph.adjacency))
        i, j = (0, 2) if edges[0][0] == "v0" else (2, 0)
        assert report.residual == ((i, j, delta),)


class TestSquareFree:
    def test_simple_factors(self):
        # x^2 - 1 is square-free
        out = _squarefree_factors((1, 0, -1))
        assert out == [((1, 0, -1), 1)]

    def test_double_root(self):
        # (x - 1)^2 = x^2 - 2x + 1
        out = _squarefree_factors((1, -2, 1))
        assert out == [((1, -1), 2)]

    def test_triple_root(self):
        # (x - 1)^3
        out = _squarefree_factors((1, -3, 3, -1))
        assert out == [((1, -1), 3)]

    def test_mixed_multiplicities(self):
        # x * (x - 1)^2 = x^3 - 2x^2 + x  (the linear graph's polynomial)
        out = _squarefree_factors((1, -2, 1, 0))
        assert out == [((1, 0), 1), ((1, -1), 2)]

    def test_product_reconstructs(self):
        # property: multiplying the factors back gives the input
        rng = random.Random(7)
        for _ in range(50):
            roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            coeffs = [1]
            for r in roots:
                coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            product = [1]
            for factor, mult in _squarefree_factors(tuple(coeffs)):
                for _ in range(mult):
                    new = [0] * (len(product) + len(factor) - 1)
                    for i, a in enumerate(product):
                        for j, b in enumerate(factor):
                            new[i + j] += a * b
                    product = new
            assert tuple(product) == tuple(coeffs)


@st.composite
def integer_polynomials(draw, monic=False):
    """Integer polynomials of degree 1..10, often with a repeated factor."""
    lead = 1 if monic else draw(st.integers(-9, 9).filter(bool))
    if draw(st.booleans()):
        return tuple([lead] + draw(st.lists(st.integers(-20, 20), min_size=1, max_size=10)))
    # a product of small monic factors, each to a power 1..3
    p = [lead]
    for _ in range(draw(st.integers(1, 4))):
        factor = [1] + draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
        for _ in range(draw(st.integers(1, 3))):
            if len(p) + len(factor) - 2 > 10:
                break
            new = [0] * (len(p) + len(factor) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(factor):
                    new[i + j] += a * b
            p = new
    if len(p) == 1:
        p.append(draw(st.integers(-20, 20)))
    return tuple(p)


def root_table_by_yun(reduced):
    """The root table from Yun's exact split and np.roots of every factor."""
    pairs = [
        (complex(r), mult)
        for factor, mult in _squarefree_factors(reduced)
        for r in np.roots([float(c) for c in factor])
    ]
    pairs.sort(key=lambda p: (-abs(p[0]), -p[0].real, p[0].imag))
    return tuple(pairs)


def reduced_coefficients(adj):
    k = len(adj)
    poly = char_poly(DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj))
    return poly.coefficients[: poly.degree + 1 - poly.trailing_zeros]


GOLDEN_TWICE = tuple(
    tuple(int(i // 3 == j // 3 and golden_graph().adjacency[i % 3][j % 3]) for j in range(6))
    for i in range(6)
)


class TestSquareFreeCertificate:
    @settings(max_examples=300, deadline=None)
    @given(p=integer_polynomials())
    @example(p=(1, -2, 1))
    @example(p=(2, 0, -1))
    @example(p=(1, 0))
    def test_certificate_against_sympy(self, p):
        # with P dividing neither the leading coefficient nor the degree, the
        # gcd modulo P is constant exactly when P does not divide the
        # discriminant; a certified p has no repeated factor over Q
        x = sympy.Symbol("x")
        poly = sympy.Poly(p, x)
        certified = spectral._squarefree_mod_p(p)
        assert certified == (int(poly.discriminant()) % spectral._P != 0)
        if certified:
            assert all(m == 1 for _, m in sympy.sqf_list(poly)[1])

    def test_repeated_factor_is_never_certified(self):
        # (x^2 + x - 1)^2 (x - 3) and (x - 1)^k: Yun has to split them
        assert not spectral._squarefree_mod_p((1, -1, -7, 1, 7, -3))
        for k in range(2, 12):
            assert not spectral._squarefree_mod_p(reduced_coefficients(loop_chain_graph(k).adjacency))
        assert not spectral._squarefree_mod_p(reduced_coefficients(GOLDEN_TWICE))

    @settings(max_examples=120, deadline=None)
    @given(adj=dense_or_sparse_matrices(12))
    @example(adj=loop_chain_graph(12).adjacency)
    @example(adj=GOLDEN_TWICE)
    @example(adj=chain_witness_graph().adjacency)
    @example(adj=((0, 1, 1), (0, 0, 1), (0, 0, 0)))
    @example(adj=((0,),))
    def test_root_table_matches_yun(self, adj):
        # chains of loops and repeated blocks take Yun's split; a nilpotent
        # graph's reduced polynomial is the constant 1, with no roots
        reduced = reduced_coefficients(adj)
        expected = root_table_by_yun(reduced)
        assert spectral._roots_with_multiplicity(CharPoly(reduced)) == expected
        if reduced == (1,):
            assert expected == ()

    def test_certified_polynomial_skips_yun(self, monkeypatch):
        rng = random.Random(12)
        adj = tuple(tuple(int(rng.random() < 0.3) for _ in range(12)) for _ in range(12))
        reduced = reduced_coefficients(adj)
        expected = root_table_by_yun(reduced)
        assert spectral._squarefree_mod_p(reduced)

        def forbidden(*args):
            raise AssertionError("Yun's split ran on a certified polynomial")

        monkeypatch.setattr(spectral, "_squarefree_factors", forbidden)
        assert spectral._roots_with_multiplicity(CharPoly(reduced)) == expected
        assert spectral._roots_with_multiplicity(CharPoly((1,))) == ()


class TestIntegerAlgebraAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(p=integer_polynomials(monic=True))
    @example(p=(1, -2, 1, 0))
    @example(p=(1, -1, -7, 1, 7, -3))
    def test_squarefree_factors_match_sqf_list(self, p):
        x = sympy.Symbol("x")
        content, factors = sympy.sqf_list(sympy.Poly(p, x))
        assert content == 1
        want = [(tuple(int(c) for c in f.all_coeffs()), m) for f, m in factors]
        got = _squarefree_factors(p)
        assert all(type(c) is int for factor, _ in got for c in factor)
        assert sorted(got, key=lambda fm: fm[1]) == sorted(want, key=lambda fm: fm[1])

    @settings(max_examples=150, deadline=None)
    @given(polys=st.lists(
        integer_polynomials(monic=True).filter(lambda p: len(p) <= 9), min_size=2, max_size=3,
    ))
    @example(polys=[(1, -1, -1), (1, -1, -1, 0)])  # mu from two polynomials
    @example(polys=[(1, -2, 1), (1, 0, -4), (1, 0, 1)])  # a double root, 2, no real root
    @example(polys=[(1, 0, -2), (1, -1, -1, 1)])  # sqrt(2) against the double root 1
    def test_top_owners_match_real_roots(self, polys):
        x = sympy.Symbol("x")
        tops = [max(sympy.real_roots(sympy.Poly(p, x)), default=None) for p in polys]
        assume(any(t is not None for t in tops))
        top = max(t for t in tops if t is not None)
        want = tuple(i for i, t in enumerate(tops) if t is not None and t == top)
        assert spectral._top_owners(tuple(polys))[0] == want

    @settings(max_examples=150, deadline=None)
    @given(polys=st.lists(
        integer_polynomials(monic=True).filter(lambda p: len(p) <= 9), min_size=1, max_size=3,
    ))
    @example(polys=[(1, -3)])  # an integer root, an exact double
    @example(polys=[(1, 5, 6)])  # the largest real root is negative, -2
    @example(polys=[(1, -2, 1), (1, 0, -2)])  # sqrt(2) beats the double root 1
    def test_top_owners_rho_is_the_rounded_largest_real_root(self, polys):
        x = sympy.Symbol("x")
        roots = [r for p in polys for r in sympy.real_roots(sympy.Poly(p, x))]
        assume(roots)
        want = float(Fraction(str(sympy.N(max(roots), 60))))
        assert spectral._top_owners(tuple(polys))[1] == want


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
        (one,) = [t for t in form.terms if abs(t.root - 1) < 1e-9]
        assert one.coefficients[0].real == pytest.approx(-2.0)

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
        g = loop_chain_graph(k)
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
                got = spectral._classify_graph(relabeled)  # as given, not through the memo
                assert got.kind == base.kind
                assert abs(got.rho - base.rho) < 1e-9
                assert got.poly_degree == base.poly_degree


class TestStructuralClass:
    """classify_growth(graph) reads the class from the condensation DAG."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_chain_of_loops_degree(self, k):
        assert classify_growth(loop_chain_graph(k)) == GrowthClass(POLYNOMIAL, 1.0, k - 1)

    def test_float_rule_drops_the_top_power_of_twelve_loops(self):
        # the n^11 coefficient of the chain of 12 loops is 1/11! ~ 2.5e-8
        # of the largest, below COEFF_TOL, so the closed form's rule reads
        # degree 10; the exact counts fit a degree-11 polynomial only
        g = loop_chain_graph(12)
        assert classify_growth(closed_form(g)).poly_degree == 10
        n = sympy.Symbol("n")
        points = [(row.n, row.total) for row in count_series(g, 14).rows]
        assert sympy.degree(sympy.interpolate(points, n), n) == 11

    @settings(max_examples=200, deadline=None)
    @given(adj=dense_or_sparse_matrices(8))
    @example(adj=((0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)))  # roots +-2, t(n) = 2^(n+1)
    @example(adj=((0, 1, 1), (1, 0, 0), (1, 0, 0)))  # roots +-sqrt(2), both in t(n)
    @example(adj=((1, 1, 1, 0), (1, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0)))  # two golden blocks
    def test_agrees_with_closed_form_rule(self, adj):
        # the float rule on the closed form is an independent route; its one
        # known failure, the chain of 12 loops (see above), lies beyond k = 8
        g = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(len(adj)))), adj)
        got = spectral._classify_graph(g)  # as given; the memo may hold a relabeling's class
        assert classify_growth(g) == got
        want = classify_growth(closed_form(g))
        assert (got.kind, got.poly_degree) == (want.kind, want.poly_degree)
        assert got.rho == sympy_rho(adj)

    @settings(max_examples=150, deadline=None)
    @given(adj=dense_or_sparse_matrices(8))
    @complete_graph_examples
    @example(adj=chain_witness_graph().adjacency)  # 2.0, owned by two blocks
    @example(adj=golden_tie_graph().adjacency)  # mu, owned by two different polynomials
    def test_rho_is_the_correctly_rounded_perron_root(self, adj):
        g = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(len(adj)))), adj)
        assert classify_growth(g).rho == spectral._classify_graph(g).rho == sympy_rho(adj)

    def test_exact_tie_between_different_polynomials(self):
        # a golden block feeding its own edge graph: both have Perron root
        # mu, from x^2 - x - 1 and x^3 - x^2 - x, so mu is counted twice
        g = golden_tie_graph()
        comps = strongly_connected_components(g)
        assert comps == ((2, 3, 4), (0, 1))
        polys = [spectral._component_poly(g._succ, c) for c in comps]
        assert polys[0] != polys[1]
        assert spectral._top_owners(tuple(polys))[0] == (0, 1)
        growth = classify_growth(g)
        assert (growth.kind, growth.poly_degree) == (MIXED, 1)
        assert abs(growth.rho - MU) < 1e-12
        # oracle: t(n) / mu^n = a*n + b + o(1) with a > 0, so its steps settle
        totals = {r.n: r.total for r in count_series(g, 201).rows}
        steps = [totals[n + 1] / MU ** (n + 1) - totals[n] / MU ** n for n in (100, 200)]
        assert steps[0] > 0.1
        assert abs(steps[1] - steps[0]) < 1e-9

    def test_two_twenty_letter_blocks_in_time(self):
        # two seeded density-0.3 blocks, each kept strongly connected by a
        # Hamilton cycle, with one edge from the first into the second; the
        # Perron roots are compared on the product of two degree-20 polynomials
        rng = random.Random(20)
        size = 20
        adj = [[0] * (2 * size) for _ in range(2 * size)]
        for base in (0, size):
            for i in range(size):
                for j in range(size):
                    adj[base + i][base + j] = int(rng.random() < 0.3)
                adj[base + i][base + (i + 1) % size] = 1
        adj[0][size] = 1
        g = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(2 * size))), tuple(map(tuple, adj)))
        comps = strongly_connected_components(g)
        assert len(comps) == 2
        start = time.perf_counter()
        growth = classify_growth(g)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        # oracle: the blocks' float Perron roots are far apart, so the larger
        # alone sets rho and no chain carries two of them
        perron = [max(np.linalg.eigvals(np.array([[adj[i][j] for j in c] for i in c])).real)
                  for c in comps]
        assert abs(perron[0] - perron[1]) > 1e-3
        assert (growth.kind, growth.poly_degree) == (EXPONENTIAL, 0)
        assert abs(growth.rho - max(perron)) < 1e-9

    def test_near_tie_is_told_apart(self):
        # the largest roots differ by about 4.5e-13, far inside ROOT_TOL;
        # sympy's exact real roots say which is larger
        p = (1, -1, -1)
        q = (10**12, -10**12, -(10**12 + 1))
        x = sympy.Symbol("x")
        rp, rq = (max(sympy.real_roots(sympy.Poly(c, x))) for c in (p, q))
        assert rp < rq
        assert 0 < float(rq - rp) < 1e-12
        assert spectral._top_owners((p, q))[0] == (1,)
        assert spectral._top_owners((q, p))[0] == (0,)
        assert spectral._top_owners((p, q, p))[0] == (1,)

    def test_runs_no_count_series_and_no_residues(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the structural class must not compute counts, residues or roots")

        monkeypatch.setattr(census, "count_series", forbidden)
        monkeypatch.setattr(spectral, "_totals", forbidden)
        monkeypatch.setattr(spectral, "closed_form", forbidden)
        monkeypatch.setattr(spectral, "_w_series", forbidden)
        monkeypatch.setattr(spectral, "char_poly", forbidden)
        monkeypatch.setattr(spectral, "_roots_with_multiplicity", forbidden)
        golden = classify_growth(golden_graph())
        assert (golden.kind, golden.poly_degree) == (EXPONENTIAL, 0)
        assert abs(golden.rho - MU) < 1e-12
        assert classify_growth(linear_graph()) == GrowthClass(POLYNOMIAL, 1.0, 1)
        witness = classify_growth(chain_witness_graph())
        assert (witness.kind, witness.poly_degree) == (MIXED, 1)
        assert abs(witness.rho - 2.0) < 1e-12
        assert classify_growth(loop_chain_graph(12)) == GrowthClass(POLYNOMIAL, 1.0, 11)
        # the three small graphs were classified here, not read from the memo
        assert spectral._class_of.cache_info().currsize == 3


class TestScan:
    def test_k1(self):
        report = conjecture_scan(1)
        assert len(report.masks) == 1
        ((_, row),) = labeled_rows(report)
        assert row.kind == POLYNOMIAL and row.poly_degree == 0
        assert mixed_rows(report, True) == mixed_rows(report, False) == []

    def test_k2_no_mixed_among_strongly_connected(self):
        report = conjecture_scan(2)
        assert mixed_rows(report, True) == []

    def test_k3_deterministic_and_no_strong_mixed(self):
        # the digest of the table with every rho the correctly rounded Perron root
        report = conjecture_scan(3)
        csv = Table("scan_table", *report.table()).to_csv()
        assert digest(csv) == "4692c0d0515d8d0c88dfbae86335c92aeb8e1ef8339d04a03241c24543ba8505"
        assert mixed_rows(report, True) == []
        assert [(row[0], row[1]) for row in report.summary()[1]] == [("1", "2"), ("2", "16"), ("3", "512")]

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
        for mask, row in labeled_rows(report):
            if not row.strongly_connected:
                continue
            g = graph_from_bitmask(row.k, mask)
            form = closed_form(g)
            dominant = [t for t in form.terms if abs(abs(t.root) - row.rho) < 1e-7]
            if row.rho > 0:
                assert any(t.multiplicity == 1 and abs(t.root.imag) < 1e-7 for t in dominant)

    def test_k4_scan_reports_chain_witness(self, k4_scan):
        report, runs, _ = k4_scan
        # the digests of `symgraph scan --k-max 4`'s tables, as CSV and JSON
        table, summary = Table("scan_table", *report.table()), Table("scan_summary", *report.summary())
        assert digest(table.to_csv()) == "7f24f327a0b60daae6765fc0ec4b9cb0f85dabee83f1383dc456953ff0ff12a5"
        assert digest(summary.to_csv()) == "4a20561130b4b9abb439e01ba872322ed59c587410cdd226ca78816f926f5570"
        assert digest(table.to_json()) == "138d0848d549e062032063fc510d5369ab2d6263b849c04281a37621193fa18d"
        assert digest(summary.to_json()) == "bd06a945a101aa336ab9351a1d33f8953cd3420e7585445cf52ad3e97c154c70"
        target = chain_witness_graph()
        mask = sum(
            1 << (i * 4 + j)
            for i in range(4)
            for j in range(4)
            if target.adjacency[i][j]
        )
        found = [c for m, c in labeled_rows(report) if c.k == 4 and m == mask]
        assert len(found) == 1 and found[0].kind == MIXED
        assert not found[0].strongly_connected
        assert (4, mask) in mixed_rows(report, False)
        # conjecture: no mixed growth among strongly connected graphs
        assert mixed_rows(report, True) == []
        # only a strongly connected graph runs Berkowitz on all 4 vertices,
        # to report its rho, and only the canonical graph of its isomorphism
        # class; the others multiply memoized blocks
        exponential = [(m, c) for m, c in labeled_rows(report) if c.k == 4 and c.rho > 1]
        assert len(exponential) == 51_152
        strong = [m for m, c in exponential if c.strongly_connected]
        assert len(strong) == 25_690
        assert runs[4] == len(set(canonical_masks(4, strong))) == 1_167

    def test_class_memo_holds_one_entry_per_class(self, k4_scan):
        report, _, classes = k4_scan
        keys = {
            (k, least)
            for k in (1, 2, 3, 4)
            for least in canonical_masks(k, list(iter_connected_bitmasks(k)))
        }
        assert set(classes) == keys and len(keys) == 2_912
        # every labeled row reads the class of its canonical form
        for k in (1, 2, 3, 4):
            rows = [(m, c) for m, c in labeled_rows(report) if c.k == k]
            for (_, row), least in zip(rows, canonical_masks(k, [m for m, _ in rows])):
                growth = classes[k, least]
                assert (row.kind, row.rho, row.poly_degree) == (
                    growth.kind, growth.rho, growth.poly_degree
                )

    @settings(max_examples=80, deadline=None)
    @given(adj=dense_or_sparse_matrices(4), data=st.data())
    @example(adj=((0,),), data=None)
    @example(adj=((0, 0, 0), (0, 0, 0), (0, 0, 0)), data=None)
    @example(adj=((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1)), data=None)
    def test_class_memo_is_relabeling_invariant(self, adj, data):
        # edgeless and disconnected graphs included: each relabeling,
        # classified as given, has the class the memo returns for it, and
        # all relabelings share one memo entry
        k = len(adj)
        perms = [tuple(range(k)), tuple(reversed(range(k)))]
        if data is not None:
            perms += data.draw(st.lists(st.permutations(range(k)), min_size=1, max_size=6))
        graphs = [relabeled(adj, perm) for perm in perms]
        given = [spectral._classify_graph(g) for g in graphs]
        before = spectral._class_of.cache_info().currsize
        memoized = [classify_growth(g) for g in graphs]
        assert spectral._class_of.cache_info().currsize <= before + 1
        assert memoized == given
        assert all(growth is memoized[0] for growth in memoized)

    def test_five_letters_bypass_the_class_memo(self):
        tables = spectral._canonical.cache_info().currsize
        g = graph_from_edges("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"),
                                       ("E", "A"), ("A", "C")])
        growth = classify_growth(g)
        assert growth.kind == EXPONENTIAL and growth.rho > 1
        assert classify_growth(g) == growth
        assert spectral._class_of.cache_info().currsize == 0
        assert spectral._canonical.cache_info().currsize <= tables

    def test_k3_rows_match_their_own_labeled_graph(self):
        # each row, copied from its class, equals its own graph classified
        # and reachability-tested without the class memo
        report = conjecture_scan(3)
        assert len(report.masks) == 445
        for mask, row in labeled_rows(report):
            g = graph_from_bitmask(row.k, mask)
            growth = spectral._classify_graph(g)
            assert (row.strongly_connected, row.kind, row.rho, row.poly_degree) == (
                graphs.validate(g).strongly_connected, growth.kind, growth.rho, growth.poly_degree
            )

    def test_scan_builds_each_class_graph_once(self, monkeypatch):
        # from empty memos: strong connectivity is read from the graph the
        # class memo builds to classify, not from a second build of it
        builds = Counter()
        build = spectral._graph_from_rows

        def counted(alphabet, *rest):
            builds[alphabet.k] += 1
            return build(alphabet, *rest)

        monkeypatch.setattr(spectral, "_graph_from_rows", counted)
        conjecture_scan(4)
        classes = {k: len(set(canonical_masks(k, list(iter_connected_bitmasks(k))))) for k in range(1, 5)}
        assert builds == classes and sum(builds.values()) == 2_912

    def test_warm_scan_splits_no_graph_into_components(self):
        # the class memo keeps strong connectivity with the growth class,
        # so a second scan runs no component search
        conjecture_scan(4)
        misses = graphs._components.cache_info().misses
        conjecture_scan(4)
        assert graphs._components.cache_info().misses == misses

    def test_k4_report_keeps_no_per_row_objects(self):
        # with the class memo warm, the report is the classes and two columns
        # of 61,789 labeled rows; one object per row would take about 10 MiB
        conjecture_scan(4)
        tracemalloc.start()
        try:
            report = conjecture_scan(4)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2 << 20, retained
        assert len(report.masks) == 61_789 and len(report.classes) == 2_912
        with pytest.raises(ValueError, match="read-only"):
            report.index[0] = 1

    def test_connected_bitmasks_reject_k_outside_1_to_4(self):
        # k = 5 would loop over 2**25 masks: check only that it raises
        for k in (0, -1, 5):
            with pytest.raises(ValueError, match="k must be between 1 and 4"):
                next(iter_connected_bitmasks(k))

    def test_graph_from_bitmask_rejects_k_outside_1_to_4(self):
        for k in (0, 5, -1):
            with pytest.raises(ValueError, match="k must be between 1 and 4"):
                graph_from_bitmask(k, 1)

    def test_graph_from_bitmask_rejects_mask_out_of_range(self):
        # bit 4 has no cell in a 2x2 matrix; -1 has every bit set
        for k, mask in ((2, 0b10001), (2, 1 << 4), (2, -1), (1, 2), (4, 1 << 16)):
            with pytest.raises(ValueError, match="bitmask must be in"):
                graph_from_bitmask(k, mask)
        # the extreme masks stay valid: no edge, and every edge
        assert graph_from_bitmask(2, 0).edge_count == 0
        assert graph_from_bitmask(4, (1 << 16) - 1).edge_count == 16

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            conjecture_scan(5)
        with pytest.raises(ValueError):
            conjecture_scan(0)


def brute_canonical(k, mask):
    """Least row-major bitmask over all relabelings, moved one edge at a time."""
    edges = [(i, j) for i in range(k) for j in range(k) if mask >> (i * k + j) & 1]
    return min(
        sum(1 << (p[i] * k + p[j]) for i, j in edges) for p in itertools.permutations(range(k))
    )


class TestCanonicalTable:
    def test_matches_brute_force(self):
        for k in (1, 2, 3):
            assert spectral._canonical(k).tolist() == [
                brute_canonical(k, mask) for mask in range(1 << (k * k))
            ]
        table = spectral._canonical(4)
        sample = random.Random(4).sample(range(1 << 16), 3_000) + [0, (1 << 16) - 1]
        for mask in sample:
            assert int(table[mask]) == brute_canonical(4, mask)

    def test_keys_are_fixed_points(self):
        # A000595: 2, 10, 104 and 3,044 classes of all digraphs on 1..4 letters
        for k, classes in ((1, 2), (2, 10), (3, 104), (4, 3_044)):
            table = spectral._canonical(k)
            assert table.size == 1 << (k * k)
            assert (table[table] == table).all()
            assert (table <= np.arange(table.size)).all()
            assert len(np.unique(table)) == classes


class TestAlphabetSize:
    def test_forty_eight_letters(self, monkeypatch):
        # the certificate spares Yun's split, which took about 4 s here,
        # and the proof reads only the k predecessor lists, never the k*k
        # flattened ones
        rng = random.Random(48)
        k = 48
        adj = tuple(tuple(int(rng.random() < 0.3) for _ in range(k)) for _ in range(k))
        graph = DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(k))), adj)
        stepped = []

        def forbidden(*args):
            raise AssertionError("Yun's split ran on a certified polynomial")

        def step(pred, vec):
            stepped.append(pred)
            return intmat._step(pred, vec)

        monkeypatch.setattr(spectral, "_squarefree_factors", forbidden)
        start = time.perf_counter()
        form = closed_form(graph)
        # record the recurrence proof's products only, not Berkowitz's
        monkeypatch.setattr(spectral, "_step", step)
        report = verify_recurrence(graph, 200)
        elapsed = time.perf_counter() - start
        assert report == RecurrenceReport(True, 200, ())
        # one product over the k predecessor lists per coefficient below the leading one
        assert len(stepped) == char_poly(graph).degree == k
        assert all(pred is graph._pred for pred in stepped)
        assert len(form.terms) == k - char_poly(graph).trailing_zeros
        assert all(term.multiplicity == 1 for term in form.terms)
        assert elapsed < 5.0


class TestNumericalGuards:
    def test_normal_tolerance_untouched(self):
        from symgraph import CharPoly
        from symgraph.spectral import _roots_with_multiplicity
        roots = _roots_with_multiplicity(CharPoly((1, -2, 2, -1)))
        assert len(roots) == 3
        assert all(m == 1 for _, m in roots)

