"""The sparse elimination of `xnalg.linalg` against the dense oracles:
`rank` against `column_rank`, and `solve` against the dense first-row
pivoting `solve`, vector for vector, over Q, Q(zeta_3), Q(zeta_4) and
Q(zeta_5)."""

import math
import random
from fractions import Fraction

from xnalg import linalg
from xnalg.scalars import CycloField, CycloScalar

from oracles import column_rank, dense, solve

FIELDS = [CycloField(n) for n in (1, 3, 4, 5)]


def _scalar(rng, field):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(field.degree)]
    return field.from_coeffs(coeffs) or field.one


def _combine(rows, weights, zero):
    out = {}
    for row, w in zip(rows, weights):
        for c, v in row.items():
            out[c] = out.get(c, zero) + w * v
    return {c: v for c, v in out.items() if v}


def _system(rng, field):
    """A sparse system; some rows get a single entry, some rows and columns
    are made dependent, and the storage order of every row is shuffled (it
    carries no meaning)."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice((0.15, 0.3, 0.5))
    rows = [
        {c: _scalar(rng, field) for c in range(ncols) if rng.random() < density}
        for _ in range(nrows)
    ]
    if ncols and rng.random() < 0.3:
        for r in rng.sample(range(nrows), nrows // 2):
            rows[r] = {rng.randrange(ncols): _scalar(rng, field)}
    if nrows >= 3 and rng.random() < 0.5:
        weights = [_scalar(rng, field), _scalar(rng, field)]
        rows[-1] = _combine(rows[:2], weights, field.zero)
    if ncols >= 3 and rng.random() < 0.5:
        src, dst = sorted(rng.sample(range(ncols), 2))
        w = _scalar(rng, field)
        for row in rows:
            row.pop(dst, None)
            if src in row:
                row[dst] = w * row[src]
    shuffled = []
    for row in rows:
        keys = list(row)
        rng.shuffle(keys)
        shuffled.append({c: row[c] for c in keys})
    return shuffled, ncols


def _rhs(rng, field, rows, ncols, consistent):
    if not consistent:
        return [_scalar(rng, field) if rng.random() < 0.5 else field.zero for _ in rows]
    x = [_scalar(rng, field) if rng.random() < 0.6 else field.zero for _ in range(ncols)]
    return [sum((v * x[c] for c, v in row.items()), field.zero) for row in rows]


def _check(rows, rhs, ncols, field):
    before = [dict(row) for row in rows]
    full = dense(rows, ncols, field.zero)
    assert linalg.rank(rows, ncols) == column_rank(full, ncols)
    got = linalg.solve(linalg.factor(rows, ncols), rhs, ncols, field)
    assert got == solve(full, rhs, ncols, field)
    assert rows == before
    if got is not None:
        kind = Fraction if field.order == 1 else CycloScalar
        assert all(type(v) is kind for v in got)
    return got


def test_rank_and_solve_match_dense_oracles_on_random_systems():
    rng = random.Random(20240617)
    for field in FIELDS:
        solved = unsolvable = deficient = 0
        for trial in range(150):
            rows, ncols = _system(rng, field)
            consistent = trial % 2 == 0
            rhs = _rhs(rng, field, rows, ncols, consistent)
            got = _check(rows, rhs, ncols, field)
            if consistent:
                assert got is not None
            solved += got is not None
            unsolvable += got is None
            deficient += linalg.rank(rows, ncols) < min(len(rows), ncols)
        assert solved >= 50 and unsolvable >= 20 and deficient >= 20, field


def test_empty_and_zero_systems():
    for field in FIELDS:
        zero, one = field.zero, field.one
        assert linalg.rank([], 0) == 0 and linalg.rank([], 4) == 0
        assert linalg.solve(linalg.factor([], 0), [], 0, field) == []
        assert linalg.solve(linalg.factor([], 3), [], 3, field) == [zero] * 3
        assert _check([{}, {}], [zero, zero], 3, field) == [zero] * 3
        assert _check([{}, {}], [zero, one], 3, field) is None
        assert _check([{0: one}], [one], 0, field) is None


def test_shortest_candidate_row_is_not_the_first():
    # column 0 is nonzero in both rows and the second, shorter row is the
    # pivot; its first stored entry sits in the free column 2, which must not
    # become a pivot column, or the solution with free variables zero moves
    q = Fraction
    rows = [{0: q(1), 1: q(2), 2: q(1)}, {2: q(3), 0: q(1)}]
    field = FIELDS[0]
    assert _check(rows, [q(4), q(5)], 3, field) == [q(5), q(-1, 2), q(0)]
    assert linalg.rank(rows, 3) == 2
    tall = [{0: q(1), 1: q(1), 3: q(1)}, {3: q(1), 0: q(2)}, {1: q(1), 2: q(1)}]
    _check(tall, [q(1), q(2), q(3)], 4, field)


def test_pivot_rows_stay_unscaled(monkeypatch):
    # a rank reads no pivot row, so a pivot alone in its column costs no
    # inverse; a column shared by two rows costs one division, for the row
    # that is updated
    field = CycloField(5)
    z = field.zeta
    calls = []
    inverse = CycloScalar.inverse
    monkeypatch.setattr(CycloScalar, "inverse", lambda a: calls.append(a) or inverse(a))
    lone = [{0: z + 2, 2: z}, {1: z * z - 3}, {3: 2 * z + 1, 4: z}]
    assert linalg.rank(lone, 5) == 3
    assert calls == []
    shared = [{0: z + 2, 1: z}, {2: z + 3, 0: z, 1: field.one}]
    assert linalg.rank(shared, 3) == 2
    assert calls == [z + 2]


def test_integer_rank_matches_the_fraction_rank_and_the_oracle():
    # rows of Python ints take the fraction-free elimination: entries up to
    # 2^200, rows with a common content, dependent rows and shuffled storage;
    # its rank must equal the rank of the same rows as Fractions and the dense
    # oracle's, and the input rows stay as they were
    rng = random.Random(29)
    deficient = 0
    for trial in range(200):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        bound = 2 ** rng.choice((3, 40, 200))
        rows = [{c: rng.randint(-bound, bound) for c in range(ncols) if rng.random() < 0.5}
                for _ in range(nrows)]
        for r in range(nrows):
            if rng.random() < 0.3:
                content = rng.choice((2, 6, 3**50, -(2**100)))
                rows[r] = {c: content * v for c, v in rows[r].items()}
        if nrows >= 3 and rng.random() < 0.5:
            a, b = rng.randint(-bound, bound), rng.randint(1, bound)
            rows[-1] = _combine(rows[:2], (a, b), 0)
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        for row in rows:
            keys = list(row)
            rng.shuffle(keys)
            row.update({c: row.pop(c) for c in keys})
        before = [dict(row) for row in rows]
        fractions = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        got = linalg.rank(rows, ncols)
        assert rows == before
        # no int reaches a true division: every pivot and pivot row stays int
        pivots, rest = linalg._eliminate(rows, ncols, integral=True)
        assert len(pivots) == got and rest == []
        assert all(type(v) is int for _, p, row in pivots for v in (p, *row.values()))
        assert got == linalg.rank(fractions, ncols) == column_rank(dense(fractions, ncols, Fraction(0)), ncols)
        deficient += got < min(nrows, ncols)
    assert deficient >= 30



def test_integer_rank_keeps_entries_within_hadamards_bound():
    # after k pivots a row is proportional to the (k+1)-minors of its input
    # row and the k pivot rows, so once its content is divided out no entry
    # exceeds Hadamard's bound, the product of the input rows' norms;
    # cross-multiplying alone about doubles the entries' size at every step
    rng = random.Random(30)
    for n in (6, 12):
        rows = [{c: rng.randint(-9, 9) for c in range(n)} for _ in range(n)]
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        bound = math.prod(math.isqrt(sum(v * v for v in row.values())) + 1 for row in rows)
        pivots, _ = linalg._eliminate(rows, n, integral=True)
        assert len(pivots) == column_rank(dense(rows, n, Fraction(0)), n)
        assert max(abs(v) for _, p, row in pivots for v in (p, *row.values())) <= bound


def test_one_factorization_serves_many_right_hand_sides():
    # a matrix factored once answers each of many right-hand sides as the
    # dense oracle and a fresh factorization do: consistent ones, inconsistent
    # ones and zero; the rows and the factorization stay as they were
    rng = random.Random(3030)
    for field in FIELDS:
        solved = unsolvable = 0
        for _ in range(40):
            rows, ncols = _system(rng, field)
            before = [dict(row) for row in rows]
            factored = linalg.factor(rows, ncols)
            kept = [(col, p, dict(row), r, list(multiples))
                    for col, p, row, r, multiples in factored.pivots], list(factored.rest)
            assert len(factored) == len(rows) and rows == before
            full = dense(rows, ncols, field.zero)
            for k in range(8):
                rhs = _rhs(rng, field, rows, ncols, k % 2 == 0) if k else [field.zero] * len(rows)
                got = linalg.solve(factored, rhs, ncols, field)
                assert got == solve(full, rhs, ncols, field)
                assert got == linalg.solve(linalg.factor(rows, ncols), rhs, ncols, field)
                if k % 2 == 0:
                    assert got is not None
                solved += got is not None
                unsolvable += got is None
            assert (factored.pivots, factored.rest) == kept
        assert solved >= 160 and unsolvable >= 40, field
