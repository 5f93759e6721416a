"""Independent answers the benchmark checks the program against.

Nothing here imports symgraph: every answer comes from a different route
than the one the program takes, so a wrong result cannot agree with
itself.

* Growth class of a 0/1 digraph from its condensation (SCC) DAG, by the
  index theorem for nonnegative matrices (Rothblum 1975; Lind & Marcus,
  ch. 4): rho is the largest SCC spectral radius, and the polynomial
  degree is the largest number of radius-rho SCCs on one chain, minus 1.
* Word counts by pushing a vector of walk counts through the graph, or
  through the graphs of a schedule one stint at a time with a plain-Python
  matrix power, never through `intmat`.
* The quartic schedule written out from its closed formula.
"""

from __future__ import annotations

import numpy as np

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"
MIXED = "mixed-polynomial-exponential"

TIE_TOL = 1e-9


def _sccs(adj) -> list[list[int]]:
    """Strongly connected components, by mutual reachability."""
    k = len(adj)
    reach = [[bool(adj[i][j]) or i == j for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            if reach[i][m]:
                row_m = reach[m]
                row_i = reach[i]
                for j in range(k):
                    if row_m[j]:
                        row_i[j] = True
    comps: list[list[int]] = []
    seen = [False] * k
    for i in range(k):
        if not seen[i]:
            comp = [j for j in range(k) if reach[i][j] and reach[j][i]]
            for j in comp:
                seen[j] = True
            comps.append(comp)
    return comps


def _radius(adj, comp: list[int]) -> float:
    if len(comp) == 1:
        v = comp[0]
        return 1.0 if adj[v][v] else 0.0
    out_degrees = [sum(adj[i][j] for j in comp) for i in comp]
    if all(d == 1 for d in out_degrees):
        return 1.0  # a strongly connected graph of out-degree 1 is one simple cycle
    block = np.array([[adj[i][j] for j in comp] for i in comp], dtype=float)
    return float(max(abs(np.linalg.eigvals(block))))


def scc_growth(adj) -> tuple[str, float, int, bool]:
    """(kind, rho, poly_degree, strongly_connected) of the total word count."""
    comps = _sccs(adj)
    radii = [_radius(adj, c) for c in comps]
    rho = max(radii)
    strongly = len(comps) == 1
    if rho == 0.0:
        return POLYNOMIAL, 0.0, 0, strongly
    owner = {v: ci for ci, comp in enumerate(comps) for v in comp}
    succ = [set() for _ in comps]
    for i, row in enumerate(adj):
        for j, bit in enumerate(row):
            if bit and owner[i] != owner[j]:
                succ[owner[i]].add(owner[j])
    top = [abs(r - rho) <= TIE_TOL for r in radii]
    best: dict[int, int] = {}

    def chain(c: int) -> int:
        if c not in best:
            best[c] = top[c] + max((chain(d) for d in succ[c]), default=0)
        return best[c]

    degree = max(chain(c) for c in range(len(comps))) - 1
    if rho > 1.0:
        return (MIXED if degree else EXPONENTIAL), rho, degree, strongly
    return POLYNOMIAL, rho, degree, strongly


def walks_from(adj, length: int) -> list[list[int]]:
    """ways[r][v]: number of walks with r letters that start at v, r <= length."""
    k = len(adj)
    succ = [[j for j in range(k) if adj[i][j]] for i in range(k)]
    ways = [[0] * k, [1] * k]
    for _ in range(length - 1):
        prev = ways[-1]
        ways.append([sum(prev[j] for j in succ[i]) for i in range(k)])
    return ways


def walk_totals(adj, n_max: int) -> list[int]:
    """Number of walks with n letters, for n = 1..n_max."""
    return [sum(w) for w in walks_from(adj, n_max)[1:]]


def quartic_stint(m: int) -> int:
    """s_1 = 4, s_(2t-1) = 2t + 1, s_(2t) = (t+1)^4 - t^4 + t^2 - (t+1)^2."""
    if m == 1:
        return 4
    if m % 2:
        return m + 2
    t = m // 2
    return (t + 1) ** 4 - t ** 4 + t ** 2 - (t + 1) ** 2


def _mat_mul(a, b):
    k = len(a)
    return [[sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k)] for i in range(k)]


def _vec_mat_pow(v, adj, e: int):
    """v * adj**e by repeated squaring of adj."""
    base = [list(row) for row in adj]
    k = len(v)
    while e:
        if e & 1:
            v = [sum(v[i] * base[i][j] for i in range(k)) for j in range(k)]
        e >>= 1
        if e:
            base = _mat_mul(base, base)
    return v


def combined_totals(adjs, lengths) -> list[int]:
    """Word counts, at each of the ascending lengths, of graphs on the quartic schedule.

    The extension to length j is made by graph (m-1) mod len(adjs), where
    stint m is the one with g_(m-1) < j <= g_m.
    """
    v = [1] * len(adjs[0])
    length, m, g_next = 1, 0, 0
    out = []
    for n in lengths:
        while length < n:
            while length >= g_next:
                m += 1
                g_next += quartic_stint(m)
            steps = min(g_next, n) - length
            v = _vec_mat_pow(v, adjs[(m - 1) % len(adjs)], steps)
            length += steps
        out.append(sum(v))
    return out


def combined_admissible(adjs, word: list[int]) -> bool:
    """True iff every step of the word is an edge of the graph active there."""
    m, g_next = 1, 4
    for j in range(2, len(word) + 1):
        while j > g_next:
            m += 1
            g_next += quartic_stint(m)
        if not adjs[(m - 1) % len(adjs)][word[j - 2]][word[j - 1]]:
            return False
    return True
