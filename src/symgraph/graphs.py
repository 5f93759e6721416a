"""Alphabets and directed graphs over them.

A directed graph on an alphabet generates a symbolic dynamics: the
admissible words are exactly the walks on the graph, read off as letter
sequences.  This module holds the graph value types, the JSON graph-spec
document format, structural diagnostics, and the derived second-order
graph whose vertices are the edges of the original.

Conventions
-----------
* adjacency[i][j] == 1 means there is an arrow from symbol i to symbol j;
  at most one arrow per ordered pair, self-loops allowed.
* "weakly connected" means the undirected shadow is connected and no
  vertex is isolated.  (The two notions only differ for a single vertex
  without a self-loop, which counts as disconnected here.)
* all types are frozen; every function is pure, so values can be shared
  freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, filterfalse

from .intmat import IntMatrix

HIGHER_ORDER_SEP = ">"


class GraphSpecError(ValueError):
    """Raised for malformed graph-spec documents or inconsistent graphs."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct symbols; index <-> symbol is a bijection."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise GraphSpecError("alphabet must contain at least one symbol")
        for sym in self.symbols:
            if not isinstance(sym, str) or not sym or sym != sym.strip():
                raise GraphSpecError(f"bad symbol {sym!r}: need non-empty stripped string")
        if len(set(self.symbols)) != len(self.symbols):
            dupes = sorted({s for s in self.symbols if self.symbols.count(s) > 1})
            raise GraphSpecError(f"duplicate symbols in alphabet: {dupes}")

    @property
    def k(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise GraphSpecError(f"unknown symbol {symbol!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class DirectedGraph:
    """0/1 adjacency over an alphabet; the generator of a symbolic dynamics."""

    alphabet: Alphabet
    adjacency: IntMatrix
    name: str | None = None
    _succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _pred: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, adj = self.alphabet.k, self.adjacency
        if len(adj) != k or any(len(row) != k for row in adj):
            raise GraphSpecError(f"adjacency must be {k}x{k}")
        try:
            succ = tuple(map(_indices, map(tuple, adj)))
            pred = tuple(map(_indices, zip(*adj)))
        except TypeError:
            # an unhashable entry cannot key the memo: check and build without it
            succ = tuple(map(_indices.__wrapped__, adj))
            pred = tuple(map(_indices.__wrapped__, zip(*adj)))
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)

    @property
    def k(self) -> int:
        return self.alphabet.k

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._succ))

    def successors(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i][j])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as index pairs, row-major order."""
        return [(i, j) for i in range(self.k) for j in range(self.k) if self.adjacency[i][j]]


@lru_cache(maxsize=256)
def _indices(row: tuple) -> tuple[int, ...]:
    """Positions of the 1 entries of a 0/1 row or column, checking every entry."""
    # a k <= 4 graph has at most 16 distinct rows; rows of larger graphs
    # rarely repeat, so a memo sized by the number of graphs would only hold them
    for entry in filterfalse((0, 1).__contains__, row):
        raise GraphSpecError(f"adjacency entries must be 0 or 1, got {entry!r}")
    return tuple(compress(range(len(row)), row))


@dataclass(frozen=True)
class GraphDiagnostics:
    weakly_connected: bool
    strongly_connected: bool
    absorbing_states: tuple[str, ...]
    edge_count: int


def graph_from_edges(
    symbols: tuple[str, ...] | list[str],
    edges: list[tuple[str, str]],
    name: str | None = None,
) -> DirectedGraph:
    """Build a graph from symbol pairs; rejects duplicate edges."""
    alphabet = Alphabet(tuple(symbols))
    k = alphabet.k
    adj = [[0] * k for _ in range(k)]
    for frm, to in edges:
        i, j = alphabet.index(frm), alphabet.index(to)
        if adj[i][j]:
            raise GraphSpecError(f"duplicate edge {frm!r} -> {to!r}")
        adj[i][j] = 1
    return DirectedGraph(alphabet, tuple(tuple(row) for row in adj), name=name)


def parse_graph(text: str) -> DirectedGraph:
    """Parse a JSON graph-spec document.

    Expected shape: {"alphabet": [sym, ...], "edges": [[from, to], ...]}
    with an optional "name".  The result is independent of edge order.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError(f"malformed graph document: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphSpecError("graph document must be a JSON object")
    unknown = set(doc) - {"alphabet", "edges", "name"}
    if unknown:
        raise GraphSpecError(f"unknown fields in graph document: {sorted(unknown)}")
    if "alphabet" not in doc or "edges" not in doc:
        raise GraphSpecError('graph document needs "alphabet" and "edges" fields')
    symbols = doc["alphabet"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise GraphSpecError('"alphabet" must be a list of strings')
    for sym in symbols:
        # str.splitlines knows every line break; the padding keeps a trailing one
        if "," in sym or '"' in sym or len(f".{sym}.".splitlines()) > 1:
            raise GraphSpecError(f"symbol {sym!r} has a comma, quote or line break")
    edges_raw = doc["edges"]
    if not isinstance(edges_raw, list):
        raise GraphSpecError('"edges" must be a list of [from, to] pairs')
    edges: list[tuple[str, str]] = []
    for item in edges_raw:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(s, str) for s in item)):
            raise GraphSpecError(f"bad edge entry {item!r}: expected [from, to]")
        edges.append((item[0], item[1]))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise GraphSpecError('"name" must be a string')
    return graph_from_edges(symbols, edges, name=name)


def graph_to_json(graph: DirectedGraph) -> str:
    """Serialize to the graph-spec format; edges sorted lexicographically."""
    syms = graph.alphabet.symbols
    edges = sorted([syms[i], syms[j]] for i, j in graph.edges())
    doc: dict = {"alphabet": list(syms), "edges": edges}
    if graph.name is not None:
        doc["name"] = graph.name
    return json.dumps(doc, indent=2)


def strongly_connected_components(graph: DirectedGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the strongly connected components, successors first.

    Reachability is closed transitively over vertex bitmasks (Warshall);
    a component is the set of vertices that reach one vertex and are
    reached from it.  If component A reaches component B, what A reaches
    strictly contains what B reaches, so ordering by the size of that set
    puts every component after all the components it reaches.
    """
    return _components(graph._succ)


@lru_cache(maxsize=128)
def _components(succ: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # keyed by the successor lists, so char_poly and classify_growth on one
    # graph share one run
    k = len(succ)
    reach = [1 << v | sum(1 << j for j in s) for v, s in enumerate(succ)]
    for m in range(k):
        bit = 1 << m
        for i in range(k):
            if reach[i] & bit:
                reach[i] |= reach[m]
    found = []
    seen = 0
    for v in range(k):
        if not seen >> v & 1:
            comp = tuple(u for u in range(k) if reach[v] >> u & 1 and reach[u] >> v & 1)
            seen |= sum(1 << u for u in comp)
            found.append((reach[v].bit_count(), comp))
    found.sort()
    return tuple(comp for _, comp in found)


def _reach(lists: tuple[tuple[int, ...], ...]) -> int:
    """Bitmask of the vertices reached from vertex 0, where vertex i leads to lists[i]."""
    seen, stack = 1, [0]
    while stack:
        for j in lists[stack.pop()]:
            if not seen >> j & 1:
                seen |= 1 << j
                stack.append(j)
    return seen


def _strongly_connected(
    succ: tuple[tuple[int, ...], ...], pred: tuple[tuple[int, ...], ...]
) -> bool:
    """Vertex 0 reaches every vertex along the arrows and against them: one component."""
    full = (1 << len(succ)) - 1
    return _reach(succ) == full == _reach(pred)


def validate(graph: DirectedGraph) -> GraphDiagnostics:
    """Pure structural report; callers decide what to reject.

    Weak connectivity is a flood fill from vertex 0 on the undirected
    shadow (an isolated vertex disconnects); strong connectivity is the
    same fill along the arrows and against them, each of which must reach
    every vertex.  Absorbing states are vertices with no outgoing edge
    besides a possible self-loop.
    """
    succ, pred = graph._succ, graph._pred
    strongly = _strongly_connected(succ, pred)
    # undirected neighbours; an empty list is an isolated vertex.  What
    # vertex 0 reaches along the arrows it reaches in the shadow too.
    nbrs = [s + p for s, p in zip(succ, pred)]
    weakly = all(nbrs) and (strongly or _reach(nbrs) == (1 << graph.k) - 1)
    absorbing = tuple(
        sym
        for i, (sym, s) in enumerate(zip(graph.alphabet.symbols, succ))
        if not s or s == (i,)
    )
    return GraphDiagnostics(
        weakly_connected=weakly,
        strongly_connected=strongly,
        absorbing_states=absorbing,
        edge_count=graph.edge_count,
    )


def higher_order_graph(graph: DirectedGraph) -> DirectedGraph:
    """Second-order graph: vertices are the edges of the input.

    Vertex "i>j" stands for the edge i->j; there is an arrow
    "i>j" -> "j>k" exactly when the two edges chain into a 2-step walk
    i->j->k.  Walks on the result correspond to walks on the input that
    are one step longer.
    """
    edges = graph.edges()
    if not edges:
        raise GraphSpecError("higher-order graph of an edgeless graph is undefined")
    syms = graph.alphabet.symbols
    for sym in syms:
        if HIGHER_ORDER_SEP in sym:
            raise GraphSpecError(
                f"symbol {sym!r} contains the reserved separator {HIGHER_ORDER_SEP!r}"
            )
    labels = tuple(f"{syms[i]}{HIGHER_ORDER_SEP}{syms[j]}" for i, j in edges)
    m = len(edges)
    adj = tuple(
        tuple(1 if edges[a][1] == edges[b][0] else 0 for b in range(m))
        for a in range(m)
    )
    name = f"{graph.name}^(2)" if graph.name else None
    return DirectedGraph(Alphabet(labels), adj, name=name)
