"""Spectral analysis of the counting recursion.

Every count sequence coming from a graph satisfies the integer linear
recurrence induced by the characteristic polynomial of the adjacency
matrix (Cayley-Hamilton), and therefore has a closed form as a sum of
polynomial-times-geometric terms over the nonzero eigenvalues.  This
module computes the polynomial exactly, as the product of the
polynomials of the strongly connected components (the matrix is block
triangular over them), each by the division-free Berkowitz scheme; it
verifies the recurrence in exact arithmetic, extracts the closed form,
classifies the resulting growth (exponential / polynomial / mixed), and
scans all small weakly connected digraphs for mixed-growth witnesses.
The growth class of a graph on up to 4 letters is kept per isomorphism
class, under its canonical bitmask (the least over relabelings), read
from one table per k; the scan classifies one graph per class, 2,912, and
holds each of the 61,789 labeled rows as its bitmask and class index.
The polynomial vanishing at the matrix proves the recurrence at every n
at once, checked on one row vector of k packed integers; when it does
not vanish, the same packed integers hold its nonzero entries, the
witness of every failure.

Numerical policy: no decision rests on a float tolerance.  The integer
polynomial is split into square-free factors exactly, so each float
root comes with an exact multiplicity, and roots of different factors
are distinct because the factors are pairwise coprime.  Most
polynomials are certified square-free by one gcd modulo the prime
2^61 - 1 and are then their own single factor; the others are split by
Yun's algorithm over the integers, with primitive pseudo-remainders.
The closed-form coefficients are residues of the exact rational
generating function, read at each float root without a linear solve.
The growth class of a graph comes from its strongly connected
components; their Perron roots are compared by Sturm counts at dyadic
points, and the same bisection rounds the largest one to rho.  Every
exact polynomial is a tuple of integers, leading coefficient first.
ROOT_TOL and COEFF_TOL serve only the rule that classifies a given
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, permutations
from math import gcd
from typing import NamedTuple

import numpy as np

from .graphs import Alphabet, DirectedGraph, strongly_connected_components
from .graphs import _graph_from_rows, _strongly_connected
from .census import _totals
from .intmat import _berkowitz, _step

# for classifying a closed form only: the float distance at which two root
# moduli count as equal, and the relative modulus below which a term is absent
ROOT_TOL = 1e-7
COEFF_TOL = 1e-8

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

    def pretty(self) -> str:
        parts = []
        for i, c in enumerate(self.coefficients):
            p = self.degree - i
            if c == 0:
                continue
            term = f"x^{p}" if p > 1 else ("x" if p == 1 else "")
            mag = abs(c)
            coeff = "" if (mag == 1 and p > 0) else str(mag)
            body = f"{coeff}{term}" if term or coeff else "1"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def char_poly(graph: DirectedGraph) -> CharPoly:
    """det(xI - M) with exact integer coefficients.

    Ordered by strongly connected components, M is block triangular, so
    det(xI - M) is the product of the components' polynomials (Lind &
    Marcus, Symbolic Dynamics and Coding, ch. 4).  Each component runs
    the division-free Berkowitz scheme once per relabeled form; only a
    strongly connected graph runs it on the whole matrix.
    """
    succ, comps = graph._succ, strongly_connected_components(graph)
    if len(comps) == 1:
        return CharPoly(_berkowitz(succ))
    coefficients: Poly = (1,)
    for comp in comps:
        coefficients = _mul(coefficients, _component_poly(succ, comp))
    return CharPoly(coefficients)


def _component_poly(succ: tuple[tuple[int, ...], ...], comp: tuple[int, ...]) -> Poly:
    """Characteristic polynomial of the subgraph on one component."""
    pos = {v: i for i, v in enumerate(comp)}
    sub = tuple(tuple(pos[j] for j in succ[v] if j in pos) for v in comp)
    return _berkowitz(sub)


# ---------------------------------------------------------------------------
# recurrence verification


@dataclass(frozen=True)
class RecurrenceReport:
    ok: bool
    n_max: int
    # (i, j, value) for each nonzero entry of the polynomial at M, row-major
    residual: tuple[tuple[int, int, int], ...]


def verify_recurrence(graph: DirectedGraph, n_max: int) -> RecurrenceReport:
    """Check the induced recurrence exactly for k < n <= n_max.

    Both the total count and every endpoint-resolved count sequence are
    checked, in unbounded integer arithmetic: with the polynomial
    sum_r c_r x^r, the residual sum_r c_r M^(n-1-k+r) over the nonzero
    c_r must vanish entrywise and in total at every n.  That residual is
    M^(n-1-k) times the polynomial evaluated at M, so a zero value at M
    proves the recurrence at every n, and a nonzero one is the witness
    of every failure: the report lists its nonzero entries.

    The value at M is found on one packed row vector
    u = (1, 2^w, 2^(2w), ...): entry j of u times the value holds column
    j as digits in base 2^w.  With D the largest row sum of M, taken as
    at least 1, no entry of a power M^r with r <= deg exceeds D^deg, so
    no entry of the value exceeds B = sum_r |c_r| * D^deg in modulus,
    and w is chosen with 2^(w-1) > B.  Each packed column then reads back as k signed base-2^w
    digits, lowest first, and is 0 exactly when the column is.  Horner's
    rule on u costs one product `_step` over the k predecessor lists per
    coefficient.
    """
    k = graph.k
    if n_max <= k:
        raise ValueError(f"n_max must exceed the alphabet size {k}")
    poly = char_poly(graph)
    w = (sum(map(abs, poly.coefficients)) * max(1, *map(len, graph._succ)) ** poly.degree).bit_length() + 1
    u = [1 << (i * w) for i in range(k)]
    packed = u
    for c in poly.coefficients[1:]:
        packed = [s + c * x for s, x in zip(_step(graph._pred, packed), u)]
    half = 1 << (w - 1)
    residual = []
    for j, x in enumerate(packed):
        for i in range(k if x else 0):  # column j as signed base-2^w digits, lowest first
            x, digit = divmod(x + half, 2 * half)
            if digit != half:
                residual.append((i, j, digit - half))
    return RecurrenceReport(not residual, n_max, tuple(sorted(residual)))


# ---------------------------------------------------------------------------
# exact polynomial algebra over the integers

Poly = tuple[int, ...]  # descending coefficients, leading nonzero; (0,) is zero


def _trim(p: list[int] | tuple[int, ...]) -> Poly:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return tuple(p[i:]) or (0,)


def _deriv(p: Poly) -> Poly:
    n = len(p) - 1
    return tuple(c * (n - i) for i, c in enumerate(p[:-1])) or (0,)


def _sub(a: Poly, b: Poly) -> Poly:
    pad = len(a) - len(b)
    return _trim([x - y for x, y in zip((0,) * -pad + a, (0,) * pad + b)])


def _mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _rem(a: Poly, b: Poly) -> Poly:
    """A positive multiple of a mod b, with content 1; b is not zero.

    Each step scales the remainder by a positive divisor of |lc(b)|, so
    the signs over Q stay, as Sturm chains need; dividing out the content
    keeps the coefficients small (the primitive remainder sequence:
    Collins 1967; von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).
    """
    lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    r = list(a)
    top = max(len(a) - len(b) + 1, 0)
    tail = b[1:] + (0,) * top
    for i in range(top):
        if r[i]:
            g = gcd(lead, r[i])
            scale, q = lead // g, r[i] * sign // g
            # scale * r - q * b * x^(top-1-i) clears entry i
            r[i + 1:] = [scale * x - q * y for x, y in zip(r[i + 1:], tail)]
    rest = _trim(r[top:])
    g = gcd(*rest)
    return tuple(c // g for c in rest) if g > 1 else rest


def _quo(a: Poly, b: Poly) -> Poly:
    """a / b where b divides a over Q; exact for a primitive b (Gauss's lemma)."""
    r = list(a)
    top = max(len(a) - len(b) + 1, 0)
    for i in range(top):
        r[i] //= b[0]  # r's head holds the quotient
        r[i + 1:i + len(b)] = [x - r[i] * y for x, y in zip(r[i + 1:i + len(b)], b[1:])]
    return _trim(r[:top])


def _gcd(a: Poly, b: Poly) -> Poly:
    """The gcd with content 1 and a positive leading coefficient."""
    while b != (0,):
        a, b = b, _rem(a, b)
    g = gcd(*a) if a[0] > 0 else -gcd(*a)
    return tuple(c // g for c in a)


def _squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: monic p = prod factor^multiplicity, factors square-free.

    Each gcd divides a monic polynomial, so content 1 makes it monic and
    every quotient by it exact.  The first step, with b = p and d = p',
    splits off gcd(p, p') and records no factor.
    """
    out: list[tuple[Poly, int]] = []
    b, d, i = p, _deriv(p), 0
    while len(b) > 1:
        g = _gcd(b, d)
        if i and len(g) > 1:
            out.append((g, i))
        b = _quo(b, g)
        d = _sub(_quo(d, g), _deriv(b))
        i += 1
    return out


_P = (1 << 61) - 1  # a Mersenne prime


def _squarefree_mod_p(p: Poly) -> bool:
    """Certify that an integer polynomial is square-free.

    The certificate is gcd(p, p') modulo the prime P = 2^61 - 1 being a
    nonzero constant; P must not divide the leading coefficient.  A
    repeated factor of p over Q is a common factor of p and p'.  By
    Gauss's lemma it can be taken primitive in Z[x], and then it divides
    p and p' in Z[x].  Its leading coefficient divides p's, so modulo P
    it keeps its positive degree and divides both reductions, and their
    gcd is not a constant.  A False answer proves nothing; the caller
    then takes the gcd exactly, by Yun's algorithm or in _sturm_chain.
    """
    n = len(p) - 1
    a = [c % _P for c in p]
    b = _trim([c * (n - i) % _P for i, c in enumerate(p[:-1])])
    while len(b) > 1:
        # a <- a mod b, in place; the remainder is a's tail
        inv = pow(b[0], -1, _P)
        top = len(a) - len(b) + 1
        for i in range(top):
            q = a[i] * inv % _P
            if q:
                a[i + 1:i + len(b)] = [(x - q * y) % _P for x, y in zip(a[i + 1:i + len(b)], b[1:])]
        a, b = list(b), _trim(a[top:])
    # the gcd is b, or a when b is the zero polynomial
    return b != (0,) or len(a) == 1


# ---------------------------------------------------------------------------
# exact comparison of largest real roots (Sturm sequences)


def _sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence, up to positive factors, of p's square-free part.

    A p certified square-free is its own square-free part, so the gcd
    with p' runs only on the others; p's leading coefficient must not be
    a multiple of 2^61 - 1, as no monic product's is.
    """
    if not _squarefree_mod_p(p):
        p = _quo(p, _gcd(p, _deriv(p)))
    chain = [p, _deriv(p)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in _rem(chain[-2], chain[-1])))
    return chain


def _scaled_value(q: Poly, num: int, shift: int) -> int:
    """The integer 2**(shift * deg q) * q(num / 2**shift), by Horner's rule."""
    v, scale = q[0], 1
    for c in q[1:]:
        scale <<= shift
        v = v * num + c * scale
    return v


def _roots_above(chain: list[Poly], num: int, shift: int) -> int:
    """Number of distinct real roots above num / 2**shift (Sturm's theorem).

    There q has the sign of _scaled_value(q, num, shift).
    """
    def changes(signs: list[bool]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    values = [_scaled_value(q, num, shift) for q in chain]
    return changes([v > 0 for v in values if v]) - changes([q[0] > 0 for q in chain if q[0]])


@lru_cache(maxsize=1024)
def _top_owners(polys: tuple[Poly, ...]) -> tuple[tuple[int, ...], float]:
    """The polynomials whose largest real root is the largest of all, and that root.

    Every root of each polynomial is a root of their product.  Bisection
    from Fujiwara's bound on the root moduli, 2 max_i |c_i / c_0|^(1/i),
    rounded up to a power of two, isolates the product's largest real
    root r in a dyadic interval (lo, hi] that holds no other root; a
    polynomial owns r exactly when it has a root above lo.  There r is a
    simple root of the chain's first polynomial, which has the sign of
    its leading coefficient from r up and the other sign below, so each
    further halving reads that one sign, until lo and hi round to the same
    double.  Python's int / int is correctly rounded and rounding is
    monotone, so that double is r correctly rounded.  The halving ends
    because r is no rounding midpoint: a rational root of a monic integer
    polynomial is an integer, at most k < 2**53 for a graph's, and an
    irrational r is no dyadic number.  At least one polynomial must have
    a real root.
    """
    product = polys[0]
    for p in polys[1:]:
        product = _mul(product, p)
    chain = _sturm_chain(product)
    first, up = chain[0], chain[0][0] > 0
    e = 1  # 2**e bounds the moduli: (2**(e-1))**i * |c_0| >= |c_i| for every i
    while any(abs(c) > abs(first[0]) << (e - 1) * i for i, c in enumerate(first[1:], 1)):
        e += 1
    # the endpoints are lo / 2**shift and hi / 2**shift
    lo, hi, shift = -(1 << e), 1 << e, 0
    above = _roots_above(chain, lo, shift)
    while above > 1 or lo / (1 << shift) != hi / (1 << shift):
        if hi - lo == 1:
            lo, hi, shift = 2 * lo, 2 * hi, shift + 1
        mid = (lo + hi) // 2
        if above > 1:
            count = _roots_above(chain, mid, shift)
        else:  # r alone is left in (lo, hi]: is it above mid?
            v = _scaled_value(first, mid, shift)
            count = int(v != 0 and (v > 0) != up)
        if count:
            lo, above = mid, count
        else:
            hi = mid
    rho = hi / (1 << shift)
    if len(polys) == 1:
        return (0,), rho
    return tuple(i for i, p in enumerate(polys) if _roots_above(_sturm_chain(p), lo, shift)), rho


# ---------------------------------------------------------------------------
# closed form


class ClosedFormTerm(NamedTuple):
    root: complex
    multiplicity: int
    coefficients: tuple[complex, ...]  # for n^0, n^1, ..., n^(multiplicity-1)


@dataclass(frozen=True)
class ClosedForm:
    terms: tuple[ClosedFormTerm, ...]
    validity_floor: int
    zero_multiplicity: int

    def evaluate(self, n: int) -> float:
        """The form at n in floats, for reporting; exact counts come from census.

        At simple roots it is close: on 37 seeded graphs with k = 8..96,
        every n <= 200 was within a relative 2.7e-11 (1e-12 for k <= 48).
        Terms at a root of multiplicity above 1 come from float Taylor
        series and can be far off: chains of 40 / 60 / 100 looped vertices,
        (x-1)^k, read relative errors of 4.1e-2 / 1.0e10 / 8.5e33 at n = k + 5.
        """
        acc = 0j
        for term in self.terms:
            scale = term.root ** n
            acc += sum(c * n ** q for q, c in enumerate(term.coefficients)) * scale
        return acc.real


def _roots_with_multiplicity(poly: CharPoly) -> tuple[tuple[complex, int], ...]:
    """Nonzero roots with exact multiplicities, by decreasing modulus."""
    # A square-free polynomial is its own single factor, as Yun's
    # algorithm would return it; Yun's factors are pairwise coprime, so
    # no root appears in two of them.
    reduced = poly.coefficients[: len(poly.coefficients) - poly.trailing_zeros]
    if _squarefree_mod_p(reduced):
        factors = [(reduced, 1)]
    else:
        factors = _squarefree_factors(reduced)
    pairs = [
        (complex(r), mult)
        for factor, mult in factors
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


def _numerator(graph: DirectedGraph, poly: CharPoly) -> list[int]:
    """N = D*G mod x^(k+1), low-first, from the exact counts t(1..k)."""
    d, k = poly.coefficients, graph.k
    t = [0, *_totals(graph, range(1, k + 1))]
    return [sum(d[i] * t[n - i] for i in range(n + 1)) for n in range(len(d))]


def _term(num: list[int], d: tuple[int, ...], root: complex, m: int) -> ClosedFormTerm:
    """The closed-form term of one root, from the principal part of N/D there."""
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
    return ClosedFormTerm(root, m, tuple(coefs))


def closed_form(graph: DirectedGraph) -> ClosedForm:
    """Closed form of the total count: one ClosedFormTerm per nonzero eigenvalue.

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
    num = _numerator(graph, poly)
    terms = tuple(
        _term(num, poly.coefficients, root, m) for root, m in _roots_with_multiplicity(poly)
    )
    return ClosedForm(terms, z + 1, z)


# ---------------------------------------------------------------------------
# growth classification


@dataclass(frozen=True, slots=True)
class GrowthClass:
    kind: str            # EXPONENTIAL, POLYNOMIAL, or MIXED
    rho: float           # dominant surviving root modulus
    poly_degree: int


def classify_growth(source: DirectedGraph | ClosedForm) -> GrowthClass:
    """Growth trichotomy of the count sequence.

    For a graph the class is read exactly from the condensation, the DAG
    of strongly connected components, by the index theorem for
    nonnegative matrices (Rothblum, "Algebraic eigenspaces of nonnegative
    matrices", 1975; Lind & Marcus, Symbolic Dynamics and Coding, ch. 4):
    rho is the largest component spectral radius, and the polynomial
    degree is the largest number of radius-rho components on one chain,
    minus 1.  A component has radius 0 when it is one vertex without a
    loop, radius 1 when it is one simple cycle, and a larger radius
    otherwise.  Components of radius above 1 are compared by their exact
    Perron roots, the largest real roots of their polynomials, and the
    same Sturm bisection rounds the winning root to the reported rho (see
    _top_owners).  The class and rho need no counts, closed form, float
    root or tolerance.

    Kind, rho and degree do not change when the letters are relabeled, so
    a graph on up to 4 letters is classified once per isomorphism class:
    the canonical graph of the class, the one with the least row-major
    bitmask over all k! relabelings, is classified, and its GrowthClass is
    kept under (k, that bitmask), read from one table per k (_canonical).
    The 61,344 weakly connected graphs on 4 labeled letters fall into
    2,818 classes.  A larger graph is classified every time, as its
    canonical form would cost k! relabelings.

    For a closed form, terms whose coefficient modulus is below COEFF_TOL
    (relative to the largest coefficient) do not participate: rho is the
    largest surviving root modulus and the polynomial degree is the
    largest power attached to a root of that modulus, within ROOT_TOL.
    """
    if isinstance(source, ClosedForm):
        return _classify_terms(source.terms)
    k = source.k
    if k not in _SCAN_ROWS:
        return _classify_graph(source)
    row_bits = _ROW_BITS[k]
    mask = 0
    for s in reversed(source._succ):
        mask = mask << k | row_bits[s]
    return _class_of(k, int(_canonical(k)[mask]))[0]


@lru_cache(maxsize=None)
def _class_of(k: int, least: int) -> tuple[GrowthClass, bool]:
    """The growth class of the graphs on k letters whose least relabeled bitmask
    is least, and whether they are strongly connected."""
    graph = graph_from_bitmask(k, least)
    return _classify_graph(graph), _strongly_connected(graph)


@lru_cache(maxsize=None)
def _canonical(k: int) -> np.ndarray:
    """Entry m is the least row-major bitmask over the k! relabelings of mask m.

    A relabeling p moves row i to row p[i], and column j of every row to
    column p[j]: one table per p maps each of the 2**k rows to its moved
    row.  Built on first use of each k; 128 KiB for k = 4.
    """
    masks = np.arange(1 << k * k, dtype=np.uint16)
    rows = [masks >> i * k & (1 << k) - 1 for i in range(k)]
    least = masks
    for p in permutations(range(k)):
        moved = np.array([sum(1 << p[j] for j in s) for s in _SCAN_LISTS[k]], np.uint16)
        least = np.minimum(least, sum(moved[row] << p[i] * k for i, row in enumerate(rows)))
    return least


def _classify_graph(graph: DirectedGraph) -> GrowthClass:
    """classify_growth of a graph, from its condensation."""
    succ = graph._succ
    comps = strongly_connected_components(graph)
    # every vertex of a component of two or more has a successor inside,
    # so one inside edge per vertex means one simple cycle; 2 stands for
    # every radius above 1
    radii = []
    for comp in comps:
        inside = set(comp)
        edges = sum(j in inside for i in comp for j in succ[i])
        radii.append(0 if edges == 0 else 1 if edges == len(comp) else 2)
    top_radius = max(radii)
    if top_radius == 0:
        return GrowthClass(POLYNOMIAL, 0.0, 0)
    top = [r == top_radius for r in radii]
    if top_radius == 2:
        # each component's Perron root is the largest real root of its polynomial
        ids = [c for c, t in enumerate(top) if t]
        owners, rho = _top_owners(tuple(_component_poly(succ, comps[c]) for c in ids))
        winners = {ids[i] for i in owners}
        top = [c in winners for c in range(len(comps))]
    # comps come successors first, so each chain extends chains already known
    owner = [0] * graph.k
    for c, comp in enumerate(comps):
        for v in comp:
            owner[v] = c
    chain: list[int] = []
    for c, comp in enumerate(comps):
        below = max((chain[owner[j]] for i in comp for j in succ[i] if owner[j] != c), default=0)
        chain.append(top[c] + below)
    degree = max(chain) - 1
    if top_radius == 1:
        return GrowthClass(POLYNOMIAL, 1.0, degree)
    return GrowthClass(MIXED if degree else EXPONENTIAL, rho, degree)


def _classify_terms(terms: tuple[ClosedFormTerm, ...]) -> GrowthClass:
    entries = [
        (term.root, q, c)
        for term in terms
        for q, c in enumerate(term.coefficients)
    ]
    max_coeff = max((abs(c) for _, _, c in entries), default=0.0)
    if max_coeff == 0.0:
        return GrowthClass(POLYNOMIAL, 0.0, 0)
    surviving = [(root, q) for root, q, c in entries if abs(c) > COEFF_TOL * max_coeff]
    if not surviving:
        return GrowthClass(POLYNOMIAL, 0.0, 0)
    rho = max(abs(root) for root, _ in surviving)
    degree = max(q for root, q in surviving if abs(abs(root) - rho) <= ROOT_TOL)
    if abs(rho - 1.0) <= ROOT_TOL:
        rho = 1.0  # snap the unit root so polynomial growth reports rho <= 1
    if rho > 1.0:
        kind = EXPONENTIAL if degree == 0 else MIXED
        return GrowthClass(kind, rho, degree if kind == MIXED else 0)
    return GrowthClass(POLYNOMIAL, rho, degree)


# ---------------------------------------------------------------------------
# exhaustive small-graph scan


class ScanRow(NamedTuple):
    bitmask: int         # adjacency bits, row-major: bit i*k+j is edge i->j
    k: int
    strongly_connected: bool
    kind: str
    rho: float
    poly_degree: int


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Each isomorphism class as its canonical graph's ScanRow; each labeled row as its class's index."""

    k_max: int
    classes: tuple[ScanRow, ...]  # each class's canonical graph, by ascending (k, bitmask)
    masks: np.ndarray    # the labeled rows' bitmasks, by ascending (k, bitmask)
    index: np.ndarray    # each labeled row's position in classes

    def table(self) -> tuple[list[str], list[list[str]]]:
        """The columns and rows of the scan table; each class's cells are formatted once."""
        tails = [[str(c.k), "true" if c.strongly_connected else "false", c.kind, repr(c.rho), str(c.poly_degree)]
                 for c in self.classes]
        rows = [[m, *tails[i]] for m, i in zip(map(str, self.masks.tolist()), self.index.tolist())]
        return ["bitmask", "k", "strongly_connected", "kind", "rho", "poly_degree"], rows

    def summary(self) -> tuple[list[str], list[list[str]]]:
        """Per k: the candidate masks, the labeled rows, and the mixed ones strongly
        and only weakly connected; each class counts its labeled rows."""
        rows = {k: [k, 1 << k * k, 0, 0, 0] for k in range(1, self.k_max + 1)}
        for c, orbit in zip(self.classes, np.bincount(self.index).tolist()):
            rows[c.k][2] += orbit
            if c.kind == MIXED:
                rows[c.k][3 if c.strongly_connected else 4] += orbit
        columns = ["k", "candidates", "weakly_connected_graphs", "mixed_strongly_connected", "mixed_weakly_only"]
        return columns, [list(map(str, row)) for row in rows.values()]


_SCAN_SYMBOLS = ("A", "B", "C", "D")
# per k: the alphabet; the 0/1 entries and the index list of the row with bits r < 2**k;
# and r by its index list
_SCAN_ALPHABETS = {k: Alphabet(_SCAN_SYMBOLS[:k]) for k in range(1, 5)}
_SCAN_ROWS = {
    k: tuple(tuple(r >> j & 1 for j in range(k)) for r in range(1 << k)) for k in range(1, 5)
}
_SCAN_LISTS = {
    k: tuple(tuple(compress(range(k), row)) for row in rows) for k, rows in _SCAN_ROWS.items()
}
_ROW_BITS = {k: {s: r for r, s in enumerate(lists)} for k, lists in _SCAN_LISTS.items()}


def graph_from_bitmask(k: int, bitmask: int) -> DirectedGraph:
    """Adjacency from row-major bits: bit i*k+j set means edge i -> j.

    k must be 1..4 and 0 <= bitmask < 2**(k*k); ValueError otherwise.
    """
    if k not in _SCAN_ALPHABETS:
        raise ValueError(f"k must be between 1 and 4, got {k!r}")
    if not 0 <= bitmask < 1 << k * k:
        raise ValueError(f"bitmask must be in [0, 2**{k * k}), got {bitmask}")
    bits = [bitmask >> i * k & (1 << k) - 1 for i in range(k)]
    return _graph_from_rows(_SCAN_ALPHABETS[k], _SCAN_ROWS[k], _SCAN_LISTS[k], bits)


def iter_connected_bitmasks(k: int):
    """Row-major bitmasks of all weakly connected digraphs on k labeled vertices.

    k must be 1..4, as for graph_from_bitmask; ValueError otherwise.
    """
    yield from _connected_masks(k).tolist()


def _connected_masks(k: int) -> np.ndarray:
    """The bitmasks of iter_connected_bitmasks, ascending, in one array."""
    if k not in _SCAN_ALPHABETS:
        raise ValueError(f"k must be between 1 and 4, got {k!r}")
    full = (1 << k) - 1
    # all masks at once; mask 0 is skipped: no graph without edges counts as connected
    masks = np.arange(1, 1 << k * k, dtype=np.uint16)
    rows = [masks >> i * k & full for i in range(k)]
    # undirected neighbours of vertex j, as vertex bitmasks: row j and column j
    nbr = [rows[j] | sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(k)]
    seen = np.ones_like(masks)  # flood fill from vertex 0: k - 1 rounds reach its component
    for _ in range(k - 1):
        for i in range(k):
            seen |= np.where(seen >> i & 1, nbr[i], 0)
    return masks[seen == full]


def conjecture_scan(k_max: int) -> ScanReport:
    """Classify every weakly connected digraph on up to k_max labeled vertices.

    The report lists each graph with its growth class, in canonical
    (k, bitmask) order; its summary counts the mixed polynomial-exponential
    findings separately for strongly and only-weakly connected graphs.
    Growth and strong connectivity (weak connectivity is already proved)
    do not change under relabeling, so both are read once per isomorphism
    class, which each row indexes, from the class memo (`_class_of`) of
    `classify_growth`.  It finds strong connectivity on the canonical
    graph by the reachability test `validate` uses, so a second scan
    builds no graph.
    """
    if not 1 <= k_max <= 4:
        raise ValueError("k_max must be between 1 and 4")
    classes: list[ScanRow] = []
    masks, index = [], []
    for k in range(1, k_max + 1):
        masks.append(_connected_masks(k))
        keys, inverse = np.unique(_canonical(k)[masks[-1]], return_inverse=True)
        index.append(inverse + len(classes))
        for key in keys.tolist():
            growth, strongly = _class_of(k, key)
            classes.append(ScanRow(key, k, strongly, growth.kind, growth.rho, growth.poly_degree))
    masks, index = np.concatenate(masks), np.concatenate(index)
    masks.flags.writeable = index.flags.writeable = False  # a report is a value
    return ScanReport(k_max, tuple(classes), masks, index)
