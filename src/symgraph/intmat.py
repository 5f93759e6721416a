"""Exact integer matrix arithmetic on tuple-of-tuples.

Word counts grow geometrically, so everything here runs on Python's
unbounded integers.  Matrices are immutable: tuples of row tuples.

`vec_pow` forms v * m**e by the right-to-left binary method (Knuth,
TAOCP vol. 2, 4.6.3): one vector product per set bit of e, with the
squares m**(2**i) read from a bounded cache, so powers of one matrix
share a single chain of squarings.
"""

from __future__ import annotations

from functools import lru_cache

IntMatrix = tuple[tuple[int, ...], ...]


def identity(k: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two square integer matrices of equal size."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(m: IntMatrix, e: int) -> IntMatrix:
    """m**e by repeated squaring; e >= 0."""
    if e < 0:
        raise ValueError("negative matrix power")
    result = identity(len(m))
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def mat_total(m: IntMatrix) -> int:
    return sum(sum(row) for row in m)


def row_sums(m: IntMatrix) -> tuple[int, ...]:
    return tuple(sum(row) for row in m)


def col_sums(m: IntMatrix) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*m))


def vec_mul(v: tuple[int, ...], m: IntMatrix) -> tuple[int, ...]:
    """Exact row-vector product v * m."""
    return tuple(sum(x * y for x, y in zip(v, col)) for col in zip(*m))


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
    m = tuple(map(tuple, m))  # a hashable cache key
    i = 0
    while e:
        if e & 1:
            v = vec_mul(v, _square(m, i))
        e >>= 1
        i += 1
    return tuple(v)
