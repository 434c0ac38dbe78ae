"""Exact linear algebra over the scalar field.

Matrices are lists of rows of field scalars; elimination divides by pivots,
which is exact in every supported field, so rank, nullspace and solving carry
no tolerance whatsoever.
"""

from __future__ import annotations


def _rref(rows, ncols):
    """Reduced row echelon form in place (on a copied matrix).

    Returns (pivot column list, reduced rows).
    """
    mat = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [c * inv for c in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots, mat


def rank(rows, ncols=None) -> int:
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    pivots, _ = _rref(rows, ncols)
    return len(pivots)


def nullspace(rows, ncols, field):
    """A basis of the kernel, one vector per free column (deterministic)."""
    if not rows:
        return [
            [field.one if c == k else field.zero for c in range(ncols)]
            for k in range(ncols)
        ]
    pivots, mat = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, col in enumerate(pivots):
            vec[col] = -mat[r][free]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols, field):
    """A particular solution of rows * x = rhs with free variables set to
    zero, or None when the system is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, mat = _rref(aug, ncols)
    for r in range(len(pivots), len(mat)):
        if mat[r][ncols]:
            return None
    vec = [field.zero] * ncols
    for r, col in enumerate(pivots):
        vec[col] = mat[r][ncols]
    return vec
