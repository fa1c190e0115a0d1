"""Exact linear algebra over the rationals.

Everything here is built on fractions.Fraction; no floats enter at any point.
A matrix is a list of rows, each a dense sequence or a {column: value} dict
of its nonzero entries. rank is a sparse elimination on such rows, the
sparsest row pivoting first, and spans_equal compares row spaces by rank.
Lattice maps are not matrices of this kind: they are integer 4-tuples (see
toricsym.symmetry).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Rat, ...]


def rank(a: Iterable[Sequence | dict[int, object]]) -> int:
    """Rank of a matrix given as rows that are sequences (dense) or
    {column: value} dicts (sparse), by sparse elimination.

    Rows are held as {column: Fraction} dicts of their nonzero entries. The
    pivot is always the remaining row with the fewest entries; its first
    column is eliminated from the other rows, and a row that becomes empty
    is dropped. Sparse rows (orbit sums, single variables) then pivot first
    and each costs O(its support) on every row it meets.
    """
    rows = []
    for r in a:
        d = {j: x if type(x) is Fraction else Fraction(x) for j, x in
             (r.items() if isinstance(r, dict) else enumerate(r)) if x}
        if d:
            rows.append(d)
    found = 0
    while rows:
        piv = rows.pop(min(range(len(rows)), key=lambda k: len(rows[k])))
        c = min(piv)
        pc = piv[c]
        for row in rows:
            f = row.get(c)
            if f is None:
                continue
            f /= pc
            for j, x in piv.items():
                y = row.get(j)
                y = -f * x if y is None else y - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        rows = [row for row in rows if row]
        found += 1
    return found


def spans_equal(a: Iterable[Sequence | dict[int, object]],
                b: Iterable[Sequence | dict[int, object]]) -> bool:
    """Whether two collections of rows, in any form rank takes, span the
    same row space."""
    a, b = list(a), list(b)
    return rank(a) == rank(b) == rank(a + b)
