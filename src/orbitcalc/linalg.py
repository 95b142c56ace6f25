"""Dense exact linear algebra over the rationals.

Plain Gaussian elimination on ``fractions.Fraction`` entries.  In the
package only :func:`orbitcalc.invariants.invariant_basis` uses it; every
membership question (equivariant generators, minimality, pulls of forms)
goes through the Groebner module layer instead.  The tests keep these
routines as an independent dense oracle for that layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def echelon(rows: list[Row], width: int | None = None) -> tuple[list[Row], list[int]]:
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


def nullspace(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel of ``matrix`` acting on column vectors of length ``ncols``."""
    reduced, pivots = echelon([list(r) for r in matrix], ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[f]
        basis.append(vec)
    return basis


def rank(matrix: Sequence[Sequence[Fraction]], ncols: int) -> int:
    _, pivots = echelon([list(r) for r in matrix], ncols)
    return len(pivots)
