"""Exact sparse linear algebra over the scalar field.

A matrix is a list of rows, each a dict {column: scalar} of the nonzero
entries.  One forward elimination serves `rank` and `factor`.  It takes pivot
columns left to right, which are the pivot columns of the dense reduced row
echelon form, and in each pivots on the shortest row nonzero there
(Markowitz's rule), which keeps fill-in low.  So the solution with free
variables set to zero is the vector a dense elimination gives, whichever rows
the pivots sit in.  Pivot rows stay unscaled; `solve` divides by each pivot
once as it replays the elimination and once in back substitution.  Every
division is exact in every supported field: no tolerance enters.  `rank` of
rows of Python ints eliminates fraction-free instead (Bareiss, Math. Comp. 22,
1968), dividing out the content of each updated row.

`factor` eliminates a matrix once and records, for each pivot, the entries
under it in the other rows, whose multiples of the pivot row the elimination
subtracted.  `solve` takes only such a `Factored` matrix, and any number of
right-hand sides against it: it replays those row operations on the
right-hand side alone and back-substitutes, so a matrix shared by many
systems is eliminated once.
"""

from __future__ import annotations

from math import gcd


def _eliminate(rows, ncols, integral=False, log=None):
    """Forward elimination on copies of `rows` over the columns below `ncols`:
    the pivots in column order as (column, pivot, row) triples, each row kept
    unscaled with its pivot entry dropped, and the nonzero rows left over
    (zero below `ncols`).  With `integral`, on rows of ints, an entry f under
    a pivot p updates row <- (p/g) row - (f/g) source for g = gcd(p, f).
    With a list `log`, each pivot appends (source, [(r, f), ...]) in the
    indices of `rows`: row r had f under the pivot p, and lost f/p times the
    source row."""
    active = [dict(row) for row in rows if row]
    if log is not None:
        index = dict(zip(map(id, active), (r for r, row in enumerate(rows) if row)))
    pivots = []
    for col in range(ncols):
        hits = [row for row in active if col in row]
        if not hits:
            continue
        source = min(hits, key=len)
        p = source.pop(col)
        if log is not None:
            multiples = [(index[id(row)], row[col]) for row in hits if row is not source]
            log.append((index[id(source)], multiples))
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


class Factored:
    """A matrix of field scalars eliminated once, for `solve`: its row count,
    per pivot (column, pivot, pivot row, its index, the entries under the
    pivot in other rows by index), and the indices of the rows no pivot took,
    which a consistent right-hand side leaves at zero."""

    __slots__ = ("nrows", "pivots", "rest")

    def __init__(self, nrows, pivots, rest):
        self.nrows, self.pivots, self.rest = nrows, pivots, rest

    def __len__(self):
        return self.nrows


def factor(rows, ncols) -> Factored:
    """`rows` (field scalars) eliminated once over the columns below `ncols`,
    for any number of right-hand sides."""
    log = []
    pivots, _ = _eliminate(rows, ncols, log=log)
    taken = {source for source, _ in log}
    rest = [r for r in range(len(rows)) if r not in taken]
    return Factored(len(rows), [(*pivot, *step) for pivot, step in zip(pivots, log)], rest)


def solve(rows, rhs, ncols, field):
    """A particular solution of rows * x = rhs with free variables set to
    zero, or None when the system is inconsistent, for the `Factored` matrix
    `rows`."""
    b = list(rhs)
    for _, p, _, source, multiples in rows.pivots:
        v = b[source]
        if v:
            v /= p
            for r, f in multiples:
                b[r] -= f * v
    if any(b[r] for r in rows.rest):
        return None
    x = {}
    for col, p, row, source, _ in reversed(rows.pivots):
        known = sum((v * x[c] for c, v in row.items() if c in x), field.zero)
        x[col] = (b[source] - known) / p
    return [x.get(c, field.zero) for c in range(ncols)]
