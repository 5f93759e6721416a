"""Spectral analysis of the counting recursion.

Every count sequence coming from a graph satisfies the integer linear
recurrence induced by the characteristic polynomial of the adjacency
matrix (Cayley-Hamilton), and therefore has a closed form as a sum of
polynomial-times-geometric terms over the nonzero eigenvalues.  This
module computes the polynomial exactly (division-free Berkowitz scheme),
verifies the recurrence in exact arithmetic, extracts the closed form,
classifies the resulting growth (exponential / polynomial / mixed), and
scans all small weakly connected digraphs for mixed-growth witnesses.
The polynomial vanishing at the matrix proves the recurrence at every n
at once; the scan over n runs only to list the failures.

Numerical policy: neither the root table nor the closed form rests on a
float tolerance.  The integer polynomial is split into square-free
factors by Yun's algorithm in exact rational arithmetic, so each float
root comes with an exact multiplicity, and roots of different factors
are distinct because the factors are pairwise coprime.  The closed-form
coefficients are residues of the exact rational generating function,
read at each float root without a linear solve.  Only classify_growth
still compares floats, by ROOT_TOL and COEFF_TOL.  The split and the
float roots run once per distinct polynomial (with its zero roots
removed); later calls read the stored, immutable root table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import Alphabet, DirectedGraph, validate
from .intmat import IntMatrix, identity, mat_mul
from .census import count_series

ROOT_TOL = 1e-7     # float distance at which two roots or moduli count as equal
COEFF_TOL = 1e-8    # relative modulus below which a term is treated as absent

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"
MIXED = "mixed-polynomial-exponential"


class RootClusterError(RuntimeError):
    """Root clustering is ambiguous at the configured tolerance.

    Nothing in symgraph raises it; it stays because the benchmark
    harness (perfbench) imports it.
    """


class IllConditionedError(RuntimeError):
    """The closed-form coefficient system is numerically unreliable.

    Nothing in symgraph raises it; it stays because the benchmark
    harness (perfbench) imports it.
    """

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(f"coefficient system condition estimate {condition:.3e}")


# ---------------------------------------------------------------------------
# characteristic polynomial


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial, coefficients from the leading term down."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def trailing_zeros(self) -> int:
        """Multiplicity of the zero root, read off exactly."""
        z = 0
        for c in reversed(self.coefficients):
            if c != 0:
                break
            z += 1
        return z

    def pretty(self, var: str = "x") -> str:
        parts = []
        for i, c in enumerate(self.coefficients):
            p = self.degree - i
            if c == 0:
                continue
            term = f"{var}^{p}" if p > 1 else (var if p == 1 else "")
            mag = abs(c)
            coeff = "" if (mag == 1 and p > 0) else str(mag)
            body = f"{coeff}{term}" if term or coeff else "1"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def char_poly(graph: DirectedGraph) -> CharPoly:
    """det(xI - M) with exact integer coefficients (Berkowitz, division-free)."""
    return _berkowitz(graph._succ)


@lru_cache(maxsize=128)
def _berkowitz(succ: tuple[tuple[int, ...], ...]) -> CharPoly:
    # Successor lists fix the graph, so one graph's repeated callers
    # (analyze's table, closed form and recurrence check) share one run.
    # Step m borders the leading m x m block with row and column m.
    v = [1, -int(0 in succ[0])]
    for m in range(1, len(succ)):
        block = [[j for j in s if j < m] for s in succ[:m]]
        row = [j for j in succ[m] if j < m]
        # Toeplitz column: 1, -a_mm, -(row @ block^i @ col) for i = 0..m-1
        toep = [1, -int(m in succ[m])]
        w = [int(m in s) for s in succ[:m]]
        for i in range(m):
            if i:
                w = [sum(map(w.__getitem__, b)) for b in block]
            toep.append(-sum(map(w.__getitem__, row)))
        # v <- (lower-triangular Toeplitz matrix of toep) @ v, one entry longer
        nv = [0] * (m + 2)
        for j, c in enumerate(v):
            if c:
                for t, d in enumerate(toep[: m + 2 - j]):
                    if d:
                        nv[j + t] += d * c
        v = nv
    return CharPoly(tuple(v))


def charpoly_at_matrix(poly: CharPoly, m: IntMatrix) -> IntMatrix:
    """Evaluate the polynomial at a matrix by exact integer Horner."""
    k = len(m)
    acc = identity(k)
    for c in poly.coefficients[1:]:
        acc = mat_mul(acc, m)
        if c:
            acc = tuple(
                tuple(acc[i][j] + (c if i == j else 0) for j in range(k)) for i in range(k)
            )
    return acc


# ---------------------------------------------------------------------------
# recurrence verification


@dataclass(frozen=True)
class RecurrenceFailure:
    n: int
    i: int | None      # None, None marks the total-count sequence
    j: int | None
    expected: int
    got: int


@dataclass(frozen=True)
class RecurrenceReport:
    ok: bool
    n_max: int
    failures: tuple[RecurrenceFailure, ...]


def verify_recurrence(graph: DirectedGraph, n_max: int) -> RecurrenceReport:
    """Check the induced recurrence exactly for k < n <= n_max.

    Both the total count and every endpoint-resolved count sequence are
    checked, in unbounded integer arithmetic: with the polynomial
    sum_r c_r x^r, the residual sum_r c_r M^(n-1-k+r) over the nonzero
    c_r must vanish entrywise and in total at every n.  That residual is
    M^(n-1-k) times the polynomial evaluated at M, so a zero value at M,
    computed once, proves the recurrence at every n.  Only a nonzero
    value runs the scan over n, which lists each failure.
    """
    k = graph.k
    if n_max <= k:
        raise ValueError(f"n_max must exceed the alphabet size {k}")
    poly = char_poly(graph)
    # M^(n-1) and the polynomial at M are flattened row-major; entry
    # (i, j) of a product with M sums entries (i, l) over the
    # predecessors l of j
    steps = [[i * k + l for l in graph._pred[j]] for i in range(k) for j in range(k)]
    identity_flat = [int(i == j) for i in range(k) for j in range(k)]
    acc = identity_flat
    for c in poly.coefficients[1:]:
        acc = [sum(map(acc.__getitem__, idx)) for idx in steps]
        if c:
            for d in range(0, k * k, k + 1):
                acc[d] += c
    if not any(acc):
        return RecurrenceReport(True, n_max, ())
    # (r, c_r) for r < k; the leading c_k = 1 multiplies M^(n-1) itself
    terms = [(k - 1 - d, c) for d, c in enumerate(poly.coefficients[1:]) if c]
    mats = [None, identity_flat]
    for _ in range(2, n_max + 1):
        prev = mats[-1]
        mats.append([sum(map(prev.__getitem__, idx)) for idx in steps])
    failures: list[RecurrenceFailure] = []
    for n in range(k + 1, n_max + 1):
        got_all = mats[n]
        residual = got_all
        for r, c in terms:
            residual = [x + c * y for x, y in zip(residual, mats[n - k + r])]
        if not any(residual):
            continue
        # the recurrence predicts got - residual
        for pos, d in enumerate(residual):
            if d:
                got = got_all[pos]
                failures.append(RecurrenceFailure(n, pos // k, pos % k, got - d, got))
        d = sum(residual)
        if d:
            got = sum(got_all)
            failures.append(RecurrenceFailure(n, None, None, got - d, got))
    return RecurrenceReport(not failures, n_max, tuple(failures))


# ---------------------------------------------------------------------------
# exact square-free decomposition (rational arithmetic)

Poly = tuple[Fraction, ...]  # descending coefficients, leading nonzero


def _trim(p: list[Fraction]) -> Poly:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return tuple(p[i:])


def _deriv(p: Poly) -> Poly:
    n = len(p) - 1
    if n == 0:
        return (Fraction(0),)
    return _trim([c * (n - i) for i, c in enumerate(p[:-1])])


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if len(b) == 1 and b[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    qdeg = len(a) - len(b)
    if qdeg < 0:
        return (Fraction(0),), a
    quot = [Fraction(0)] * (qdeg + 1)
    for i in range(qdeg + 1):
        c = rem[i] / b[0]
        quot[i] = c
        if c:
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
    return _trim(quot), _trim(rem[qdeg + 1:] if len(rem) > qdeg + 1 else [Fraction(0)])


def _monic(p: Poly) -> Poly:
    lead = p[0]
    return tuple(c / lead for c in p) if lead != 1 else p


def _gcd(a: Poly, b: Poly) -> Poly:
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _divmod(a, b)[1]
    return _monic(a) if len(a) > 1 else (Fraction(1),)


def _squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = prod factor^multiplicity, factors square-free."""
    if len(p) == 1:
        return []
    dp = _deriv(p)
    a = _gcd(p, dp)
    b = _divmod(p, a)[0]
    c = _divmod(dp, a)[0]
    d = _trim([x - y for x, y in _zip_pad(c, _deriv(b))])
    out: list[tuple[Poly, int]] = []
    i = 1
    while len(b) > 1:
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _divmod(b, g)[0]
        c = _divmod(d, g)[0]
        d = _trim([x - y for x, y in _zip_pad(c, _deriv(b))])
        i += 1
    return out


def _zip_pad(a: Poly, b: Poly):
    la, lb = len(a), len(b)
    n = max(la, lb)
    pa = (Fraction(0),) * (n - la) + a
    pb = (Fraction(0),) * (n - lb) + b
    return zip(pa, pb)


# ---------------------------------------------------------------------------
# closed form


@dataclass(frozen=True)
class ClosedFormTerm:
    root: complex
    multiplicity: int
    coefficients: tuple[complex, ...]  # for n^0, n^1, ..., n^(multiplicity-1)


@dataclass(frozen=True)
class ClosedForm:
    terms: tuple[ClosedFormTerm, ...]
    validity_floor: int
    zero_multiplicity: int

    def evaluate(self, n: int) -> float:
        acc = 0j
        for term in self.terms:
            scale = term.root ** n
            acc += sum(c * n ** q for q, c in enumerate(term.coefficients)) * scale
        return acc.real

    @property
    def constant_term(self) -> float | None:
        """Coefficient of the root-1 term, when 1 is a simple-enough root."""
        for term in self.terms:
            if abs(term.root - 1) <= ROOT_TOL:
                return term.coefficients[0].real
        return None


def _roots_with_multiplicity(poly: CharPoly) -> tuple[tuple[complex, int], ...]:
    """Nonzero roots with exact multiplicities, by decreasing modulus."""
    reduced = poly.coefficients[: len(poly.coefficients) - poly.trailing_zeros]
    return _root_table(reduced)


@lru_cache(maxsize=4096)
def _root_table(reduced: tuple[int, ...]) -> tuple[tuple[complex, int], ...]:
    # Many graphs share a polynomial (333 distinct among the 61,344
    # connected 4-vertex digraphs), so the exact split and the float
    # roots run once per polynomial.  Yun's factors are pairwise coprime,
    # so no root appears in two of them.
    pairs = [
        (complex(r), mult)
        for factor, mult in _squarefree_factors(tuple(Fraction(c) for c in reduced))
        for r in np.roots([float(c) for c in factor])
    ]
    pairs.sort(key=lambda p: (-abs(p[0]), -p[0].real, p[0].imag))
    return tuple(pairs)


def _w_series(p: list[int] | tuple[int, ...], root: complex, terms: int) -> list[complex]:
    """First coefficients in w = 1 - root*x of sum_i p[i] x^i."""
    # repeated synthetic division by (x - 1/root) gives the Taylor
    # coefficients at 1/root, and x - 1/root = -w/root
    x0 = 1 / root
    rest = [complex(c) for c in reversed(p)]
    out = []
    for order in range(terms):
        for i in range(1, len(rest)):
            rest[i] += rest[i - 1] * x0
        out.append(rest.pop() * (-x0) ** order if rest else 0j)
    return out


def closed_form(graph: DirectedGraph) -> ClosedForm:
    """Closed form of the total count over the nonzero eigenvalues.

    The counts t(n) of n-letter words have the rational generating
    function G(x) = sum_{n>=1} t(n) x^n = N(x)/D(x), where
    D(x) = det(I - xM) is the characteristic polynomial read low-first
    and N = D*G mod x^(k+1) is exact from the first k counts (Stanley,
    Enumerative Combinatorics I, Thm 4.1.1; Flajolet & Sedgewick,
    Analytic Combinatorics, IV.5).  A nonzero root r of multiplicity m
    is a pole of order m at x = 1/r.  Its principal part
    sum_{j=1..m} b_j / (1 - rx)^j, one series division in w = 1 - rx,
    contributes b_j C(n+j-1, j-1) r^n to t(n); for a simple root
    b_1 = -r N(1/r) / D'(1/r).  The polynomial part of N/D has degree
    at most z, the multiplicity of the zero root, so the form is exact
    for every n >= z+1.
    """
    poly = char_poly(graph)
    z = poly.trailing_zeros
    d = poly.coefficients
    t = [0] + [row.total for row in count_series(graph, poly.degree).rows]
    num = [sum(d[i] * t[n - i] for i in range(n + 1)) for n in range(len(d))]
    terms = []
    for root, m in _roots_with_multiplicity(poly):
        nw = _w_series(num, root, m)
        dw = _w_series(d, root, 2 * m)[m:]  # D / w^m: D's first m terms vanish
        a: list[complex] = []  # N / (D / w^m) to m terms, so b_j = a[m - j]
        for i in range(m):
            a.append((nw[i] - sum(a[h] * dw[i - h] for h in range(i))) / dw[0])
        coefs = [0j] * m
        binom = [1.0]  # C(n+j-1, j-1) in powers of n, low-first
        for j in range(1, m + 1):
            for q, c in enumerate(binom):
                coefs[q] += a[m - j] * c
            binom = [(lo * j + hi) / j for lo, hi in zip(binom + [0], [0] + binom)]
        terms.append(ClosedFormTerm(root, m, tuple(coefs)))
    return ClosedForm(tuple(terms), z + 1, z)


# ---------------------------------------------------------------------------
# growth classification


@dataclass(frozen=True)
class GrowthClass:
    kind: str            # EXPONENTIAL, POLYNOMIAL, or MIXED
    rho: float           # dominant surviving root modulus
    poly_degree: int


def classify_growth(
    source: DirectedGraph | ClosedForm,
    coeff_tol: float = COEFF_TOL,
    root_tol: float = ROOT_TOL,
) -> GrowthClass:
    """Growth trichotomy of the count sequence.

    Terms whose coefficient modulus is below coeff_tol (relative to the
    largest coefficient) do not participate: rho is the largest surviving
    root modulus and the polynomial degree is the largest power attached
    to a root of that modulus.
    """
    form = source if isinstance(source, ClosedForm) else closed_form(source)
    entries = [
        (term.root, q, c)
        for term in form.terms
        for q, c in enumerate(term.coefficients)
    ]
    max_coeff = max((abs(c) for _, _, c in entries), default=0.0)
    if max_coeff == 0.0:
        return GrowthClass(POLYNOMIAL, 0.0, 0)
    surviving = [(root, q) for root, q, c in entries if abs(c) > coeff_tol * max_coeff]
    if not surviving:
        return GrowthClass(POLYNOMIAL, 0.0, 0)
    rho = max(abs(root) for root, _ in surviving)
    degree = max(q for root, q in surviving if abs(abs(root) - rho) <= root_tol)
    if abs(rho - 1.0) <= root_tol:
        rho = 1.0  # snap the unit root so polynomial growth reports rho <= 1
    if rho > 1.0:
        kind = EXPONENTIAL if degree == 0 else MIXED
        return GrowthClass(kind, rho, degree if kind == MIXED else 0)
    return GrowthClass(POLYNOMIAL, rho, degree)


# ---------------------------------------------------------------------------
# exhaustive small-graph scan


@dataclass(frozen=True)
class ScanRow:
    bitmask: int         # adjacency bits, row-major: bit i*k+j is edge i->j
    k: int
    strongly_connected: bool
    kind: str
    rho: float
    poly_degree: int


@dataclass(frozen=True)
class ScanReport:
    k_max: int
    candidates_by_k: tuple[tuple[int, int], ...]  # (k, 2**(k*k))
    rows: tuple[ScanRow, ...]

    @property
    def mixed_rows(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.rows if r.kind == MIXED)

    @property
    def mixed_strongly_connected(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.mixed_rows if r.strongly_connected)

    @property
    def mixed_weakly_only(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.mixed_rows if not r.strongly_connected)

    def to_csv(self) -> str:
        lines = ["bitmask,k,strongly_connected,kind,rho,poly_degree"]
        for r in self.rows:
            lines.append(
                f"{r.bitmask},{r.k},{str(r.strongly_connected).lower()},"
                f"{r.kind},{r.rho!r},{r.poly_degree}"
            )
        return "\n".join(lines) + "\n"


_SCAN_SYMBOLS = ("A", "B", "C", "D")


def graph_from_bitmask(k: int, bitmask: int) -> DirectedGraph:
    """Adjacency from row-major bits: bit i*k+j set means edge i -> j."""
    adj = tuple(
        tuple((bitmask >> (i * k + j)) & 1 for j in range(k)) for i in range(k)
    )
    return DirectedGraph(Alphabet(_SCAN_SYMBOLS[:k]), adj)


def iter_connected_bitmasks(k: int):
    """Row-major bitmasks of all weakly connected digraphs on k labeled vertices."""
    full = (1 << k) - 1
    bits_of = [tuple(j for j in range(k) if (r >> j) & 1) for r in range(1 << k)]
    # mask 0 is skipped: no graph without edges counts as connected
    for mask in range(1, 1 << (k * k)):
        # undirected neighbours of each vertex, as vertex bitmasks
        rows = [(mask >> (i * k)) & full for i in range(k)]
        nbr = rows[:]
        for i, row in enumerate(rows):
            for j in bits_of[row]:
                nbr[j] |= 1 << i
        # flood fill from vertex 0
        seen = frontier = 1
        while frontier:
            reach = 0
            for i in bits_of[frontier]:
                reach |= nbr[i]
            frontier = reach & ~seen
            seen |= reach
        if seen == full:
            yield mask


def conjecture_scan(k_max: int) -> ScanReport:
    """Classify every weakly connected digraph on up to k_max labeled vertices.

    The report lists each graph with its growth class, in canonical
    (k, bitmask) order, so that mixed polynomial-exponential findings can
    be inspected separately for strongly and only-weakly connected graphs.
    """
    if not 1 <= k_max <= 4:
        raise ValueError("k_max must be between 1 and 4")
    rows: list[ScanRow] = []
    for k in range(1, k_max + 1):
        for mask in iter_connected_bitmasks(k):
            graph = graph_from_bitmask(k, mask)
            growth = classify_growth(graph)
            strongly = validate(graph).strongly_connected
            rows.append(
                ScanRow(mask, k, strongly, growth.kind, growth.rho, growth.poly_degree)
            )
    candidates = tuple((k, 1 << (k * k)) for k in range(1, k_max + 1))
    return ScanReport(k_max, candidates, tuple(rows))
