"""Exact integer matrix primitives on tuple-of-tuples and index lists.

Word counts grow geometrically, so everything here runs on Python's
unbounded integers.  Matrices are immutable: tuples of row tuples.

`vec_pow` is the one matrix power: it forms v * m**e by the
right-to-left binary method (Knuth, TAOCP vol. 2, 4.6.3), one vector
product per set bit of e, with the squares m**(2**i) read from a bounded
cache keyed by m, so powers of one matrix share a single chain of
squarings.  A whole power M**e is its rows e_i * M**e.  `_step` is the
0/1 matrix-vector product over index lists, and `_berkowitz` the
characteristic polynomial by the division-free Berkowitz scheme.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two square integer matrices of equal size."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def vec_mul(v: tuple[int, ...], m: IntMatrix) -> tuple[int, ...]:
    """Exact row-vector product v * m."""
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


@lru_cache(maxsize=128)
def _square(m: IntMatrix, i: int) -> IntMatrix:
    """m**(2**i), each square from the memoized one below it."""
    if i == 0:
        return m
    half = _square(m, i - 1)
    return mat_mul(half, half)


def vec_pow(v: tuple[int, ...], m: IntMatrix, e: int) -> tuple[int, ...]:
    """Exact row-vector product v * m**e over the binary digits of e; e >= 0."""
    if e < 0:
        raise ValueError("negative matrix power")
    i = 0
    while e:
        if e & 1:
            v = vec_mul(v, _square(m, i))
        e >>= 1
        i += 1
    return tuple(v)


def _step(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    """The 0/1 matrix-vector product: entry v sums vec over rows[v]."""
    out = []
    for p in rows:
        s = 0
        for i in p:
            s += vec[i]
        out.append(s)
    return out


@lru_cache(maxsize=128)
def _berkowitz(succ: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    # det(xI - M), leading 1 first, M's row i listing succ[i].  Memoized by
    # successor lists: one graph's callers (analyze's table, closed form,
    # recurrence check, count walk) share one run, as do equal components
    # relabeled from 0.  Step m borders the leading m x m block with row and column m.
    v = [1, -int(0 in succ[0])]
    for m in range(1, len(succ)):
        # the leading block's rows, then row m, each cut to columns < m
        bordered = [[j for j in s if j < m] for s in succ[: m + 1]]
        # Toeplitz column: 1, -a_mm, -(row @ block^i @ col) for i = 0..m-1
        toep = [1, -int(m in succ[m])]
        w = [int(m in s) for s in succ[:m]]
        for _ in range(m):
            w = _step(bordered, w)  # block @ w, then row @ w
            toep.append(-w.pop())
        # v <- (lower-triangular Toeplitz matrix of toep) @ v, one entry longer
        nv = [0] * (m + 2)
        for j, c in enumerate(v):
            if c:
                for t, d in enumerate(toep[: m + 2 - j]):
                    if d:
                        nv[j + t] += d * c
        v = nv
    return tuple(v)
