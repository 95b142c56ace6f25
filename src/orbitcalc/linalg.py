"""Exact linear algebra over Q, the package's one elimination module (the
Faddeev-LeVerrier recurrence of :mod:`.series` aside).  Two fraction-free
kernels run on :func:`integral` multiples: the sparse span :func:`insert`
of both generator searches, which :func:`rank` counts, and one Bareiss
Gauss-Jordan loop behind :func:`mat_inverse` and :func:`det`.
:func:`echelon` and :func:`solve`, Gaussian elimination on ``Fraction``
entries, are the dense oracle: only :func:`.invariants.invariant_basis` and
the tests call them."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

# An integral entry is an ``int`` and any other a ``Fraction``; the two
# compare and hash alike and both carry .numerator and .denominator.
Matrix = tuple[tuple[Union[int, Fraction], ...], ...]


def _entry(q):
    """A matrix entry: ``q`` as an ``int`` when integral, else as given."""
    return q.numerator if q.denominator == 1 else q


def integral(m: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(D, D m) for a matrix m of ints and Fractions, D the lcm of m's denominators."""
    scale = math.lcm(*(e.denominator for row in m for e in row))
    return scale, [[e.numerator * (scale // e.denominator) for e in row] for row in m]


def insert(vector: dict, rows: dict) -> bool:
    """Reduce a sparse integer vector by echelon rows (keyed by their
    largest coordinate); if something is left, add it, divided by its
    content, as a row and return True, else return False.  Only the span
    matters, so the steps are fraction-free: a * vector - b * row clears the
    pivot, with a : b the ratio of the two pivot entries."""
    while vector:
        pivot = max(vector)
        row = rows.get(pivot)
        if row is None:
            content = math.gcd(*vector.values())
            rows[pivot] = {e: c // content for e, c in vector.items()}
            return True
        a, b = row[pivot], vector[pivot]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        vector = {e: a * c for e, c in vector.items()}
        for e, c in row.items():
            new = vector.get(e, 0) - b * c
            if new:
                vector[e] = new
            else:
                del vector[e]
    return False


def rank(matrix: Sequence[Sequence], ncols: int) -> int:
    """The rank of the first ``ncols`` columns of a rational matrix: the
    rows of its integral multiple that :func:`insert` keeps."""
    _, scaled = integral([row[:ncols] for row in matrix])
    rows: dict = {}
    return sum(insert({j: c for j, c in enumerate(row) if c}, rows) for row in scaled)


def _bareiss(work: list[list[int]], n: int) -> tuple[int, int]:
    """Gauss-Jordan on the first n columns of the n int rows ``work``, in
    place: a step replaces each other row by (pivot * row - row[col] * pivot
    row) / previous pivot, exact as in Bareiss's elimination.  Returns (sign
    of the swaps, d), d on the diagonal at the end, or d = 0 if singular."""
    sign, previous = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return sign, 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        top = work[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = work[r]
                f = row[col]
                work[r] = [(p * e - f * t) // previous for e, t in zip(row, top)]
        previous = p
    return sign, previous


def mat_inverse(m: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan inverse; raises ValueError on a singular
    matrix.  The loop runs on a = D m (:func:`integral`) beside the
    identity and leaves d I beside d a^-1, so m^-1 = D (d a^-1) / d."""
    n = len(m)
    scale, a = integral(m)
    work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    _, d = _bareiss(work, n)
    if not d:
        raise ValueError("matrix is singular")
    return tuple(tuple(_entry(Fraction(scale * e, d)) for e in row[n:]) for row in work)


def det(m: Sequence[Sequence]):
    """det m, an ``int`` when integral: det(D m) / D^n (:func:`integral`)."""
    scale, a = integral(m)
    sign, d = _bareiss(a, len(a))
    return _entry(Fraction(sign * d, scale ** len(a)))


def echelon(rows: list[list[Fraction]], width: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce to reduced row echelon form.

    Returns the reduced rows (zero rows dropped) and the pivot column list.
    """
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of ``matrix @ x = rhs`` with free variables set to 0,
    or None if the system is inconsistent.

    The particular solution is canonical: pivot columns are chosen left to
    right, so callers get deterministic output for a fixed unknown ordering.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = echelon(augmented, ncols + 1)
    if ncols in pivots:
        return None  # a pivot in the constant column: 0 = 1
    solution = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = row[ncols]
    return solution
