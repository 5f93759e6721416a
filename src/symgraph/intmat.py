"""Exact integer matrix arithmetic on tuple-of-tuples.

Word counts grow geometrically, so everything here runs on Python's
unbounded integers.  Matrices are immutable: tuples of row tuples.

`vec_pow` is the one matrix power: it forms v * m**e by the
right-to-left binary method (Knuth, TAOCP vol. 2, 4.6.3), one vector
product per set bit of e, with the squares m**(2**i) read from a bounded
cache keyed by m, so powers of one matrix share a single chain of
squarings.  A whole power M**e is its rows e_i * M**e.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

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
