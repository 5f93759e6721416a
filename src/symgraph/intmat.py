"""Exact integer matrix arithmetic on tuple-of-tuples.

Word counts grow geometrically, so everything here runs on Python's
unbounded integers.  Matrices are immutable: tuples of row tuples.
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def identity(k: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two square integer matrices of equal size."""
    k = len(a)
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
