import json
from collections import deque
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symgraph import (
    Alphabet,
    DirectedGraph,
    GraphDiagnostics,
    GraphSpecError,
    MIXED,
    complete_graph,
    conjecture_scan,
    golden_graph,
    graph_from_edges,
    graph_to_json,
    higher_order_graph,
    iter_connected_bitmasks,
    graph_from_bitmask,
    linear_graph,
    parse_graph,
    strongly_connected_components,
    two_cycle_graph,
    validate,
)
from symgraph import spectral

G1_SPEC = json.dumps({
    "alphabet": ["X", "Y", "Z"],
    "edges": [["X", "X"], ["X", "Y"], ["X", "Z"], ["Y", "Y"], ["Z", "X"], ["Z", "Y"]],
})
G2_SPEC = json.dumps({
    "alphabet": ["X", "Y", "Z"],
    "edges": [["X", "Y"], ["Y", "Y"], ["Z", "X"], ["Z", "Y"], ["Z", "Z"]],
})


def bfs_weakly_connected(adj):
    """Oracle: undirected BFS from vertex 0 reaches every vertex, and none is edgeless."""
    k = len(adj)
    nbrs = [{j for j in range(k) if adj[i][j] or adj[j][i]} for i in range(k)]
    if not all(nbrs):
        return False
    seen, queue = {0}, deque([0])
    while queue:
        for j in nbrs[queue.popleft()] - seen:
            seen.add(j)
            queue.append(j)
    return len(seen) == k


def bfs_strongly_connected(adj):
    """Oracle: BFS from vertex 0 reaches every vertex along the arrows, and against them."""
    k = len(adj)
    for arrow in (lambda i, j: adj[i][j], lambda i, j: adj[j][i]):
        seen, queue = {0}, deque([0])
        while queue:
            i = queue.popleft()
            for j in range(k):
                if arrow(i, j) and j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) < k:
            return False
    return True


def graph_of(adj):
    return DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(len(adj)))), adj)


@st.composite
def adjacencies(draw, k_max=8):
    """0/1 matrices with k <= k_max, from edgeless to half the cells filled."""
    k = draw(st.integers(1, k_max))
    density = draw(st.floats(0, 0.5))
    cells = draw(st.lists(st.floats(0, 1), min_size=k * k, max_size=k * k))
    return tuple(tuple(int(u < density) for u in cells[i * k:(i + 1) * k]) for i in range(k))


def naive_matmul(a, b):
    k = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


class TestParse:
    def test_g1_adjacency(self):
        g = parse_graph(G1_SPEC)
        assert g.adjacency == ((1, 1, 1), (0, 1, 0), (1, 1, 0))

    def test_g2_adjacency(self):
        g = parse_graph(G2_SPEC)
        assert g.adjacency == ((0, 1, 0), (0, 1, 0), (1, 1, 1))

    def test_single_letter_no_edges(self):
        g = parse_graph(json.dumps({"alphabet": ["X"], "edges": []}))
        assert g.adjacency == ((0,),)

    def test_edge_order_irrelevant(self):
        doc = json.loads(G1_SPEC)
        doc["edges"] = list(reversed(doc["edges"]))
        assert parse_graph(json.dumps(doc)).adjacency == parse_graph(G1_SPEC).adjacency

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(GraphSpecError):
            parse_graph(json.dumps({"alphabet": ["X", "X"], "edges": []}))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(GraphSpecError):
            parse_graph(json.dumps({"alphabet": ["X"], "edges": [["X", "Q"]]}))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphSpecError):
            parse_graph(json.dumps({"alphabet": ["X"], "edges": [["X", "X"], ["X", "X"]]}))

    @pytest.mark.parametrize("sym", ["a,b", 'a"b', "a\nb", "a\rb", "a\u2028b"])
    def test_csv_breaking_symbol_rejected(self, sym):
        # a comma, quote or line break in a symbol would shift the CSV table columns
        with pytest.raises(GraphSpecError, match="comma, quote or line break"):
            parse_graph(json.dumps({"alphabet": [sym, "c"], "edges": [[sym, "c"]]}))

    def test_malformed_document_rejected(self):
        with pytest.raises(GraphSpecError):
            parse_graph("{not json")
        with pytest.raises(GraphSpecError):
            parse_graph(json.dumps(["not", "an", "object"]))
        with pytest.raises(GraphSpecError):
            parse_graph(json.dumps({"alphabet": ["X"]}))

    def test_roundtrip_identity(self):
        for g in (golden_graph(), linear_graph(), complete_graph(), two_cycle_graph()):
            back = parse_graph(graph_to_json(g))
            assert back.adjacency == g.adjacency
            assert back.alphabet.symbols == g.alphabet.symbols
            assert back.name == g.name

    def test_serialized_edges_sorted(self):
        doc = json.loads(graph_to_json(golden_graph()))
        assert doc["edges"] == sorted(doc["edges"])


class TestValidate:
    def test_g1_diagnostics(self):
        d = validate(golden_graph())
        assert d.absorbing_states == ("Y",)
        assert d.weakly_connected
        assert not d.strongly_connected
        assert d.edge_count == 6

    def test_complete_graph_no_absorbing(self):
        d = validate(complete_graph())
        assert d.absorbing_states == ()
        assert d.strongly_connected

    def test_two_cycle(self):
        d = validate(two_cycle_graph())
        assert d.strongly_connected
        assert d.edge_count == 2

    def test_disconnected_reported(self):
        g = graph_from_edges(("A", "B", "C", "D"), [("A", "B"), ("C", "D")])
        assert not validate(g).weakly_connected

    def test_isolated_single_vertex_counts_as_disconnected(self):
        g = graph_from_edges(("X",), [])
        assert not validate(g).weakly_connected
        assert validate(graph_from_edges(("X",), [("X", "X")])).weakly_connected

    @pytest.mark.parametrize("adj, weakly, absorbing, edges", [
        (((0,),), False, ("v0",), 0),
        (((1,),), True, ("v0",), 1),
    ])
    def test_single_vertex_is_strongly_connected(self, adj, weakly, absorbing, edges):
        # one vertex is one strong component with or without its loop; weakly
        # connected only with it
        g = graph_of(adj)
        assert validate(g) == GraphDiagnostics(weakly, True, absorbing, edges)
        assert strongly_connected_components(g) == ((0,),)

    def test_weakly_connected_matches_bfs_every_mask_k_le_3(self):
        for k in (1, 2, 3):
            for mask in range(1 << (k * k)):
                g = graph_from_bitmask(k, mask)
                assert validate(g).weakly_connected == bfs_weakly_connected(g.adjacency), (k, mask)

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 16), density=st.floats(0, 0.3), data=st.data())
    def test_weakly_connected_matches_bfs_random(self, k, density, data):
        # sparse graphs, so that both connected and disconnected ones occur
        cells = data.draw(st.lists(st.floats(0, 1), min_size=k * k, max_size=k * k))
        adj = tuple(tuple(int(u < density) for u in cells[i * k:(i + 1) * k]) for i in range(k))
        assert validate(graph_of(adj)).weakly_connected == bfs_weakly_connected(adj)

    def test_strongly_connected_matches_bfs_every_mask_k_le_3(self):
        for k in (1, 2, 3):
            for mask in range(1 << (k * k)):
                g = graph_from_bitmask(k, mask)
                want = bfs_strongly_connected(g.adjacency)
                assert validate(g).strongly_connected == want, (k, mask)
                assert (len(strongly_connected_components(g)) == 1) == want, (k, mask)

    @settings(max_examples=300, deadline=None)
    @given(adj=adjacencies())
    @example(adj=((0,),))  # one vertex without a loop: one component
    @example(adj=((1,),))
    @example(adj=((0, 0), (0, 0)))
    @example(adj=((0, 1, 0), (1, 0, 0), (0, 0, 0)))  # a 2-cycle and an isolated vertex
    @example(adj=((0, 0, 0), (0, 0, 1), (0, 1, 0)))  # the isolated vertex is vertex 0
    def test_strongly_connected_matches_bfs_random(self, adj):
        g = graph_of(adj)
        want = bfs_strongly_connected(adj)
        assert validate(g).strongly_connected == want
        assert (len(strongly_connected_components(g)) == 1) == want

    def test_scan_strongly_connected_column_matches_bfs(self):
        report = conjecture_scan(3)
        for mask, c in zip(report.masks.tolist(), report.index.tolist()):
            row = report.classes[c]
            k = row.k
            adj = tuple(tuple(mask >> (i * k + j) & 1 for j in range(k)) for i in range(k))
            assert row.strongly_connected == bfs_strongly_connected(adj), (k, mask)

    def test_scan_summary_matches_a_tally_of_every_labeled_graph(self):
        # from empty memos, each labeled connected graph classified on its
        # own, without the class memo: the summary's counts per k
        want = []
        for k in (1, 2, 3):
            row = [k, 1 << k * k, 0, 0, 0]
            for mask in iter_connected_bitmasks(k):
                row[2] += 1
                if spectral._classify_graph(graph_from_bitmask(k, mask)).kind == MIXED:
                    adj = tuple(tuple(mask >> (i * k + j) & 1 for j in range(k)) for i in range(k))
                    row[3 if bfs_strongly_connected(adj) else 4] += 1
            want.append(list(map(str, row)))
        columns, rows = conjecture_scan(3).summary()
        assert columns == ["k", "candidates", "weakly_connected_graphs",
                           "mixed_strongly_connected", "mixed_weakly_only"]
        assert rows == want

    def test_absorbing_rows_zero_off_diagonal(self):
        # property: the absorbing states are exactly the vertices whose row
        # vanishes off the diagonal, in alphabet order
        for k in (1, 2, 3):
            for mask in range(1 << k * k):
                g = graph_from_bitmask(k, mask)
                expected = tuple(
                    sym for i, sym in enumerate(g.alphabet.symbols)
                    if all(g.adjacency[i][j] == 0 for j in range(k) if j != i)
                )
                assert validate(g).absorbing_states == expected, (k, mask)

    def test_edge_count_is_adjacency_sum(self):
        for k in (1, 2, 3):
            for mask in range(1 << k * k):
                g = graph_from_bitmask(k, mask)
                assert g.edge_count == validate(g).edge_count == sum(map(sum, g.adjacency))
                assert g.edge_count == len(g.edges()) == bin(mask).count("1")


class TestComponents:
    def test_golden_components(self):
        # X and Z form a cycle with X's loop; Y is reached from both
        assert strongly_connected_components(golden_graph()) == ((1,), (0, 2))

    def test_mutual_reachability_and_order_k_le_3(self):
        # oracle: reachability closed by repeated unions of successor sets
        for k in (1, 2, 3):
            for mask in iter_connected_bitmasks(k):
                g = graph_from_bitmask(k, mask)
                reach = [{i} | set(g.successors(i)) for i in range(k)]
                for _ in range(k):
                    reach = [set().union(*(reach[j] for j in r)) for r in reach]
                comps = strongly_connected_components(g)
                index = {v: c for c, comp in enumerate(comps) for v in comp}
                assert sorted(index) == list(range(k))
                assert all(list(comp) == sorted(comp) for comp in comps)
                for u in range(k):
                    for v in range(k):
                        mutual = v in reach[u] and u in reach[v]
                        assert mutual == (index[u] == index[v])
                        if v in reach[u] and not mutual:
                            assert index[v] < index[u]  # successors first


class TestHigherOrder:
    def test_two_cycle(self):
        h = higher_order_graph(two_cycle_graph())
        assert set(h.alphabet.symbols) == {"X>Y", "Y>X"}
        assert h.edge_count == 2
        assert h.has_edge(h.alphabet.index("X>Y"), h.alphabet.index("Y>X"))
        assert h.has_edge(h.alphabet.index("Y>X"), h.alphabet.index("X>Y"))

    def test_g1_vertex_and_edge_counts(self):
        g = golden_graph()
        h = higher_order_graph(g)
        assert h.k == 6
        # oracle: edge count of the second-order graph equals the total of M^2
        m2 = naive_matmul(g.adjacency, g.adjacency)
        assert h.edge_count == sum(map(sum, m2)) == 11

    def test_complete_graph(self):
        h = higher_order_graph(complete_graph())
        assert h.k == 9
        # oracle: brute-force count of 2-paths i->j->k
        g = complete_graph()
        paths = sum(
            1
            for i in range(3)
            for j in range(3)
            for k in range(3)
            if g.adjacency[i][j] and g.adjacency[j][k]
        )
        assert h.edge_count == paths == 27

    def test_edgeless_input_rejected(self):
        with pytest.raises(GraphSpecError):
            higher_order_graph(graph_from_edges(("X",), []))

    def test_counts_match_m_squared_exhaustively(self):
        # for every connected digraph with k <= 3: |V(G2)| = edges, |E(G2)| = |M^2|
        for k in (1, 2, 3):
            for mask in iter_connected_bitmasks(k):
                g = graph_from_bitmask(k, mask)
                if g.edge_count == 0:
                    continue
                h = higher_order_graph(g)
                assert h.k == g.edge_count
                m2 = naive_matmul(g.adjacency, g.adjacency)
                assert h.edge_count == sum(map(sum, m2))


class TestAlphabet:
    def test_index_bijection(self):
        a = Alphabet(("X", "Y", "Z"))
        assert [a.index(s) for s in a.symbols] == [0, 1, 2]
        with pytest.raises(GraphSpecError):
            a.index("Q")

    def test_rejects_empty_and_blank(self):
        with pytest.raises(GraphSpecError):
            Alphabet(())
        with pytest.raises(GraphSpecError):
            Alphabet(("X", " "))

    def test_adjacency_entries_validated(self):
        with pytest.raises(GraphSpecError):
            DirectedGraph(Alphabet(("X",)), ((2,),))

    @pytest.mark.parametrize("entry", [2, -1, "1", None, 0.5, [1]])
    def test_bad_entry_named_in_message(self, entry):
        adj = ((1, 0), (0, entry))
        for _ in range(2):  # a second build is rejected the same way
            with pytest.raises(GraphSpecError) as err:
                DirectedGraph(Alphabet(("X", "Y")), adj)
            assert str(err.value) == f"adjacency entries must be 0 or 1, got {entry!r}"

    def test_first_bad_entry_in_row_major_order_is_named(self):
        # an unhashable entry in a later row does not hide an earlier bad one
        for adj, bad in [(((1, 2), (0, [1])), 2), (((1, 0), (5, [1])), 5), (((1, 0), ([1], 5)), [1])]:
            with pytest.raises(GraphSpecError) as err:
                DirectedGraph(Alphabet(("X", "Y")), adj)
            assert str(err.value) == f"adjacency entries must be 0 or 1, got {bad!r}"

    @pytest.mark.parametrize("convert", [
        lambda adj: [list(row) for row in adj],
        lambda adj: tuple(tuple(map(bool, row)) for row in adj),
        lambda adj: tuple(tuple(map(np.int64, row)) for row in adj),
        lambda adj: tuple(tuple(map(np.bool_, row)) for row in adj),
        lambda adj: np.array(adj, dtype=np.uint8),
        lambda adj: tuple(tuple(map(np.array, row)) for row in adj),  # unhashable, accepted
        lambda adj: tuple(tuple(map(float, row)) for row in adj),
    ], ids=["lists", "bool", "int64", "np-bool", "ndarray", "0-d-arrays", "float"])
    def test_other_entry_types_build_the_same_lists(self, convert):
        # and the same graph: the adjacency is stored as exact Python ints
        for k in (1, 2, 3):
            for mask in range(1 << (k * k)):
                g = graph_from_bitmask(k, mask)
                h = DirectedGraph(g.alphabet, convert(g.adjacency))
                assert h._succ == g._succ and h._pred == g._pred, (k, mask)
                assert all(type(j) is int for s in h._succ + h._pred for j in s)
                assert h == g and hash(h) == hash(g), (k, mask)
                assert all(type(x) is int for row in h.adjacency for x in row)

    @settings(max_examples=100, deadline=None)
    @given(adjs=st.lists(adjacencies(), min_size=1, max_size=40))
    def test_successor_lists_match_compress(self, adjs):
        # many graphs in a row, so one graph's lists cannot leak into the next
        graphs = [graph_of(adj) for adj in adjs]
        for adj, g in zip(adjs, graphs):
            cols = range(len(adj))
            assert g._succ == tuple(tuple(compress(cols, row)) for row in adj)
            assert g._pred == tuple(tuple(compress(cols, col)) for col in zip(*adj))

    def test_bitmask_graphs_match_the_public_constructor(self):
        # graph_from_bitmask skips the entry check and reads its lists from tables
        for k in (1, 2, 3, 4):
            alphabet = Alphabet(("A", "B", "C", "D")[:k])
            for mask in range(1 << k * k):
                adj = tuple(tuple(mask >> i * k + j & 1 for j in range(k)) for i in range(k))
                g, h = graph_from_bitmask(k, mask), DirectedGraph(alphabet, adj)
                assert g == h and hash(g) == hash(h) and g.name is h.name is None, (k, mask)
                assert g._succ == h._succ and g._pred == h._pred, (k, mask)
                assert g.edges() == [(i, j) for i in range(k) for j in range(k) if adj[i][j]]

    @pytest.mark.parametrize("adj", [((1, 0), (0,)), ((1, 0),), ((1, 0), (0, 1), (1, 1)), ((1, 0, 0), (0, 1))])
    def test_ragged_or_wrong_size_rows_rejected(self, adj):
        with pytest.raises(GraphSpecError) as err:
            DirectedGraph(Alphabet(("X", "Y")), adj)
        assert str(err.value) == "adjacency must be 2x2"
