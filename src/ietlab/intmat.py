"""Small exact integer matrix helpers (arbitrary precision, tuple-based).

Matrices are tuples of row tuples of Python ints; sizes here are tiny
(n <= a few dozen), so exactness beats vectorization.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import ZeroLine

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# id of each matrix built by `elementary` -> (matrix, i, j); the matrix is
# kept here, so its id is never reused
_ELEMENTARY: dict[int, tuple[IntMatrix, int, int]] = {}


@functools.lru_cache(maxsize=None)
def elementary(n: int, i: int, j: int) -> IntMatrix:
    """Identity plus a single 1 at (i, j), 0-based, i != j.  One matrix per
    (n, i, j), so that `mat_mul` and `transpose` know it by identity."""
    m = tuple(tuple((1 if r == c else 0) + (1 if (r, c) == (i, j) else 0)
                    for c in range(n)) for r in range(n))
    _ELEMENTARY[id(m)] = (m, i, j)
    return m


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    e = _ELEMENTARY.get(id(b))
    if e is not None:   # a * (I + E_ij): add column i of a to column j
        _, i, j = e
        return tuple([(*row[:j], row[j] + row[i], *row[j + 1:]) for row in a])
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_vec(a: IntMatrix, v: Sequence) -> tuple:
    if len(a[0]) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: IntMatrix) -> IntMatrix:
    e = _ELEMENTARY.get(id(a))
    if e is not None:
        return elementary(len(a), e[2], e[1])
    return tuple(zip(*a))


def product(ms: Sequence[IntMatrix]) -> IntMatrix:
    if not ms:
        raise ValueError("empty product")
    acc = ms[0]
    for m in ms[1:]:
        acc = mat_mul(acc, m)
    return acc


def is_strictly_positive(a: IntMatrix) -> bool:
    return all(v > 0 for row in a for v in row)


def is_zero_one(a: IntMatrix) -> bool:
    return all(v in (0, 1) for row in a for v in row)


def check_nonnegative(a: IntMatrix) -> None:
    """Connecting matrices span the positive cone: no entry is negative."""
    if any(v < 0 for row in a for v in row):
        raise ValueError("negative entry in nonnegative matrix")


def check_no_zero_line(a: IntMatrix) -> None:
    if id(a) in _ELEMENTARY:   # I + E_ij: nonnegative, no zero line
        return
    check_nonnegative(a)
    for i, row in enumerate(a):
        if not any(row):
            raise ZeroLine(f"row {i} is zero")
    for j in range(len(a[0])):
        if not any(row[j] for row in a):
            raise ZeroLine(f"column {j} is zero")
