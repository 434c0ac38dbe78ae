"""Exact sparse linear algebra over the scalar field.

A matrix is a list of rows, each a dict {column: scalar} of the nonzero
entries.  One forward elimination serves `rank` and `solve`.  It takes pivot
columns left to right, which are the pivot columns of the dense reduced row
echelon form, and in each pivots on the shortest row nonzero there
(Markowitz's rule), which keeps fill-in low.  So the solution with free
variables set to zero is the vector a dense elimination gives.  Pivot rows
stay unscaled; `solve` divides by each pivot once, in back substitution.
Every division is exact in every supported field: no tolerance enters.
`rank` of rows of Python ints eliminates fraction-free instead (Bareiss, Math.
Comp. 22, 1968), dividing out the content of each updated row.
"""

from __future__ import annotations

from math import gcd


def _eliminate(rows, ncols, integral=False):
    """Forward elimination on copies of `rows` over the columns below `ncols`:
    the pivots in column order as (column, pivot, row) triples, each row kept
    unscaled with its pivot entry dropped, and the nonzero rows left over
    (zero below `ncols`).  With `integral`, on rows of ints, an entry f under
    a pivot p updates row <- (p/g) row - (f/g) source for g = gcd(p, f)."""
    active = [dict(row) for row in rows if row]
    pivots = []
    for col in range(ncols):
        hits = [row for row in active if col in row]
        if not hits:
            continue
        source = min(hits, key=len)
        p = source.pop(col)
        for row in hits:
            if row is source:
                continue
            f = row.pop(col)
            if not source:
                continue
            if integral:
                g = gcd(p, f)
                a, f = p // g, f // g
                row.update({c: a * v for c, v in row.items()})
            else:
                f /= p
            for c, v in source.items():
                w = row.pop(c, None)
                w = -f * v if w is None else w - f * v
                if w:
                    row[c] = w
            if integral and row:
                g = gcd(*row.values())
                row.update({c: v // g for c, v in row.items()})
        active = [row for row in active if row and row is not source]
        pivots.append((col, p, source))
    return pivots, active


def rank(rows, ncols) -> int:
    integral = all(type(v) is int for row in rows for v in row.values())
    return len(_eliminate(rows, ncols, integral)[0])


def solve(rows, rhs, ncols, field):
    """A particular solution of rows * x = rhs with free variables set to
    zero, or None when the system is inconsistent."""
    augmented = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
    pivots, rest = _eliminate(augmented, ncols)
    if rest:
        return None
    x = {}
    for col, p, row in reversed(pivots):
        known = sum((v * x[c] for c, v in row.items() if c in x), field.zero)
        x[col] = (row.get(ncols, field.zero) - known) / p
    return [x.get(c, field.zero) for c in range(ncols)]
