#!/usr/bin/env python3
"""Exhaustive growth census of small digraphs, and higher-order graphs.

Classifies every weakly connected digraph on up to 3 labeled vertices
(530 candidate adjacency matrices, 445 connected) and reports how many
land in each growth class.  Mixed polynomial-exponential growth - a
root of modulus > 1 with multiplicity > 1 actually reaching the counts -
never occurs among strongly connected graphs in this range, which is the
observation behind the conjecture that it cannot occur at all.  Weakly
connected chains of equal-growth blocks do exhibit it; the k = 4 witness
below grows like n * 2**n.

Also demonstrates the second-order graph construction (vertices = edges,
arrows = 2-step walks), whose counts shadow the original's one step up.

Run:  python demos/growth_census_scan.py
"""

from collections import Counter

import numpy as np

from symgraph import (
    Alphabet,
    DirectedGraph,
    classify_growth,
    conjecture_scan,
    count_series,
    golden_graph,
    higher_order_graph,
    total_count,
)


def main():
    report = conjecture_scan(3)
    # each class stands for its orbit, the labeled rows that index it
    kinds = Counter()
    for c, orbit in zip(report.classes, np.bincount(report.index).tolist()):
        kinds[c.k, c.kind] += orbit
    _, summary = report.summary()
    print("exhaustive scan, k <= 3 labeled vertices")
    for k, candidates, connected, _, _ in (map(int, row) for row in summary):
        print(f"  k={k}: {candidates:>4} candidates, {connected:>3} weakly connected -> "
              + ", ".join(f"{kind}: {num}" for (j, kind), num in sorted(kinds.items()) if j == k))
    print(f"  mixed growth among strongly connected graphs: "
          f"{sum(int(row[3]) for row in summary)} (conjectured impossible)")
    print(f"  mixed growth among weakly-only connected graphs: "
          f"{sum(int(row[4]) for row in summary)}")

    print("\nk = 4 witness: two looped 2-cliques in a chain")
    adj = ((1, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    chain = DirectedGraph(Alphabet(("A", "B", "C", "D")), adj)
    growth = classify_growth(chain)
    print(f"  classification: {growth.kind}, rho={growth.rho:.1f}, degree {growth.poly_degree}")
    print("  counts vs n * 2^n:")
    for n in (5, 10, 20, 30):
        count = total_count(chain, n)
        print(f"    n={n:>2}: count={count:>12}  count/(n*2^n)={count / (n * 2 ** n):.4f}")

    print("\nsecond-order graph of the golden graph:")
    g = golden_graph()
    h = higher_order_graph(g)
    print(f"  vertices ({h.k}): {', '.join(h.alphabet.symbols)}")
    print(f"  edges: {h.edge_count} (= number of length-3 words of the original:"
          f" {total_count(g, 3)})")
    base = [r.total for r in count_series(g, 9).rows]
    lifted = [r.total for r in count_series(h, 8).rows]
    print(f"  original counts n=1..9: {base}")
    print(f"  lifted counts   n=1..8: {lifted}  (matches shifted by one)")


if __name__ == "__main__":
    main()
