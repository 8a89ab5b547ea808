"""Exact linear algebra over the rationals (dense, desk scale).

One fraction-free elimination serves both `rank` and `solve`: every row is
scaled to integers by the lcm of its denominators, and Gauss-Jordan
elimination runs over the integers with each step dividing exactly by the
previous pivot (Bareiss, Math. Comp. 22 (1968), 565-578).  Every pivot row
then carries the same pivot value, and rationals appear again only when the
reduced row echelon form is read back.  Entries are ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple


def _eliminate(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan on the first `ncols` columns of `rows`.

    Returns the integer matrix and its pivot columns; row i < len(pivots)
    has its pivot at column pivots[i], and a[i][c] / a[i][pivots[i]] is the
    entry of the reduced row echelon form.  Columns past `ncols` (the
    right-hand sides) are carried along but never pivoted on.
    """
    a: List[List[int]] = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(a)
    pivots: List[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        p = prow[col]
        for i in range(nrows):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def solve(rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]
          ) -> Tuple[List[Optional[List[Fraction]]], List[List[Fraction]]]:
    """Solve rows*x = rhs exactly for every rhs in `rhs_columns` at once.

    Returns (particulars, nullspace_basis): one particular solution per
    right-hand side, with free variables set to 0, or None when that system
    is inconsistent.  The nullspace basis is that of the homogeneous system
    regardless.
    """
    nrows = len(rows)
    if any(len(b) != nrows for b in rhs_columns):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [b[i] for b in rhs_columns] for i in range(nrows)]
    a, pivots = _eliminate(aug, ncols)
    r = len(pivots)

    particulars: List[Optional[List[Fraction]]] = []
    for t in range(ncols, ncols + len(rhs_columns)):
        if any(a[i][t] for i in range(r, nrows)):
            particulars.append(None)
            continue
        particular = [Fraction(0)] * ncols
        for i, col in enumerate(pivots):
            particular[col] = Fraction(a[i][t], a[i][col])
        particulars.append(particular)

    free_cols = [c for c in range(ncols) if c not in pivots]
    null_basis: List[List[Fraction]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = Fraction(-a[i][fc], a[i][col])
        null_basis.append(vec)
    return particulars, null_basis
