"""Degreewise Hochschild cohomology of the algebra (plain and twisted) from
the explicit three-term complex

    A --d0--> A (x) V* --d1--> A (x) L^2 V*,

an innerness decision procedure with witness, bracket tables on the degree-one
cohomology with comparison against the closed structure constants, the residue
criterion for innerness over the localization, Veronese fixed spaces, and the
obstruction to inner-faithful Taft-algebra actions.

The dual generators carry degrees -1 and -(N-1) and their wedge degree -N, so
every degree slice of the complex is finite dimensional once N >= 2 and all
ranks are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from types import SimpleNamespace

from . import linalg
from .maps import (
    Automorphism,
    GenDerivation,
    IllDefinedDerivationError,
    ad_phi,
    decompose_degree,
    grading_derivation,
    partial_l,
    restrict_to_algebra,
)
from .ncalg import AlgebraCtx, Element, add_word, basis_of_degree, check_phi_index, commutator
from .scalars import CycloField, CycloScalar, numerators, scalar_to_json
from .sequences import q_pascal_row


def _matrix(columns, bases):
    """Sparse rows {column: scalar} of the matrix whose k-th column stacks the
    coefficient tables {monomial: scalar} columns[k][b] over the monomial
    bases[b], the rows of bases[0] on top.  Only nonzero entries are stored,
    the format of :mod:`xnalg.linalg`."""
    row_of, nrows = [], 0
    for basis in bases:
        row_of.append({mono: nrows + r for r, mono in enumerate(basis)})
        nrows += len(basis)
    rows = [{} for _ in range(nrows)]
    for col, tables in enumerate(columns):
        for block, table in zip(row_of, tables):
            for key, c in table.items():
                if c:
                    rows[block[key]][col] = c
    return rows


def _span(ctx, reps, candidates, twist=None):
    """The span of the derivations `reps` and of ad_phi(m, twist) over the
    monomials `candidates`, in that column order: its coefficient rows, keyed
    by (image, monomial) with image 0 for dx and 1 for dy, factored once for
    every right-hand side `_decompose` brings."""
    columns = [(rep.dx.terms, rep.dy.terms) for rep in reps]
    for mono in candidates:
        w = ad_phi(ctx.monomial(*mono), twist)
        columns.append((w.dx.terms, w.dy.terms))
    bases = [sorted({key for tables in columns for key in tables[b]}) for b in range(2)]
    row_of = {key: r for r, key in enumerate((b, key) for b in range(2) for key in bases[b])}
    factored = linalg.factor(_matrix(columns, bases), len(columns))
    return SimpleNamespace(ctx=ctx, reps=reps, candidates=candidates, twist=twist,
                           row_of=row_of, factored=factored)


def _decompose(span, target):
    """Write the derivation `target` as sum_k c_k reps[k] + ad_phi(u, twist)
    in the span, u spanned by its candidates, free coordinates pinned to
    zero.  Returns (coefficients c_k, witness u), or None when `target` is
    outside the span (also when it has a term on no row of the span).  The
    witness is re-applied to the residual before it is returned."""
    ctx, reps = span.ctx, span.reps
    rhs = [ctx.field.zero] * len(span.factored)
    for b, table in enumerate((target.dx.terms, target.dy.terms)):
        for key, c in table.items():
            r = span.row_of.get((b, key))
            if r is None:
                return None
            rhs[r] = c
    sol = linalg.solve(span.factored, rhs, len(reps) + len(span.candidates), ctx.field)
    if sol is None:
        return None
    coeffs = sol[: len(reps)]
    witness = Element(ctx, {mono: c for mono, c in zip(span.candidates, sol[len(reps) :]) if c})
    residual_dx, residual_dy = target.dx, target.dy
    for c, rep in zip(coeffs, reps):
        residual_dx = residual_dx - c * rep.dx
        residual_dy = residual_dy - c * rep.dy
    check = ad_phi(witness, span.twist)
    if check.dx != residual_dx or check.dy != residual_dy:
        raise AssertionError("inner witness fails to reproduce the derivation")
    return coeffs, witness


class _Record:
    """A plain record: its fields are its ``__slots__``, set positionally or
    by keyword; records of one class compare and print field by field.  A
    slot named with a leading underscore is private state, not a field."""

    __slots__ = ()

    @property
    def _fields(self):
        return [name for name in self.__slots__ if name[0] != "_"]

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args):]
        if len(args) > len(names) or set(kwargs) != set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in rest:
            setattr(self, name, kwargs[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class ComplexSlice(_Record):
    """The degree-l slice of the three-term complex.  `rows0` and `rows1`, the
    checked matrices of d0 and d1, are sparse rows from `_matrix` (rows
    indexed by the codomain bases, columns by the domain bases) of Python
    ints, on a twisted slice values at t = 2**W of polynomials in a formal
    twist t.  `d0` and `d1` are them read over the field by `_read`, zeros
    dropped, on first read and kept.  `dims` ranks the integer rows, or the
    field rows of a twisted slice.  d0 sends a to ad_phi(a) = (a x - phi(x) a,
    a y - phi(y) a), the negative of the other usual sign."""

    __slots__ = ("ctx", "l", "omega", "basis0", "basis1x", "basis1y", "basis2", "rows0", "rows1",
                 "_read", "_d0", "_d1")

    d0 = property(lambda self: self._over_field("_d0", self.rows0))
    d1 = property(lambda self: self._over_field("_d1", self.rows1))

    def _over_field(self, name, rows):
        if not hasattr(self, name):
            read = self._read
            setattr(self, name, [{j: s for j, c in r.items() if (s := read(c))} for r in rows])
        return getattr(self, name)

    def dims(self):
        """(dim HH^0, dim HH^1, dim HH^2) on this slice."""
        twisted = self.omega is not None and self.omega != self.ctx.field.one
        rows0, rows1 = (self.d0, self.d1) if twisted else (self.rows0, self.rows1)
        rank0 = linalg.rank(rows0, len(self.basis0))
        rank1 = linalg.rank(rows1, len(self.basis1x) + len(self.basis1y))
        h0 = len(self.basis0) - rank0
        h1 = (len(self.basis1x) + len(self.basis1y)) - rank1 - rank0
        h2 = len(self.basis2) - rank1
        return h0, h1, h2


def build_slice(ctx: AlgebraCtx, l: int, omega=None) -> ComplexSlice:
    """Assemble the degree-l slice; `omega` twists the bimodule by the
    diagonal automorphism x -> omega x, y -> omega^{N-1} y.

    Both differentials are added word by word by `add_word`, d0 from the
    words of ad_phi and d1 from those of relation_residual, so every weight
    stays a Python int.  A twist enters only through lam^k and phi(y), as
    powers of a formal t, so a twisted entry is an integer polynomial in t,
    kept as its value at t = 2**W.  The composite d1 . d0 of those rows is
    checked to vanish (in Z[t] with a twist, for every twist scalar at once),
    and each d0 row that no d1 row reads is compared with ad_phi.  The slice
    keeps these rows and reads them over the field (as `Fraction`, by
    `ctx.coerce`, or at t = omega) only when asked.
    """
    if ctx.N < 2:
        raise ValueError("degreewise cohomology needs N >= 2")
    if ctx.localized:
        raise ValueError("slices are built over the unlocalized algebra")
    omega = None if omega is None else ctx.coerce(omega)
    N, k = ctx.N, ctx.N - 1

    basis0 = basis_of_degree(ctx, l)
    basis1x = basis_of_degree(ctx, l + 1)
    basis1y = basis_of_degree(ctx, l + k)
    basis2 = basis_of_degree(ctx, l + N)
    twisted, over_q = omega is not None and omega != ctx.field.one, ctx.field.order == 1
    read = Fraction if over_q else ctx.coerce
    t = [1] * N  # lam^0 .. lam^{N-1}: ones untwisted, powers of a formal t twisted
    if twisted:
        # Width of the substitution.  Every word x^a y^s x^b y^r met here has
        # degree at most D = l + N, so b + sk <= D; moving one y across x^c
        # adds weight c (y x^c = x^c y + c x^{c+k}), hence the nonnegative
        # weights of the word sum to at most prod_{q<s} (1 + b + qk) <=
        # prod_{p=1..D//k} (1 + D - pk) = M.  An entry sums at most N + 2
        # words (relation_residual of dx), each times +-t^p, and an entry of
        # d1 . d0 at most R = len(basis1x) + len(basis1y) products of two
        # entries; so every t-coefficient that is checked or read is below
        # R ((N + 2) M)^2 < 2**(width - 1) in absolute value, and its value at
        # t = 2**width determines it (balanced base-2**width digits).
        entry = (N + 2) * math.prod(range(l + N + 1 - k, 0, -k))
        width = ((len(basis1x) + len(basis1y)) * entry * entry).bit_length() + 1
        t, half = [1 << width * p for p in range(N)], 1 << width - 1
        # the coordinates of omega^0 .. omega^{N-1}, as integers over one den
        dim, powers = ctx.field.degree, [omega ** p for p in range(N)]
        nums, den = numerators([c for w in powers for c in ((w,) if over_q else w.coeffs)])

        @cache
        def read(v):
            # the balanced base-2**width digits of v are its t-coefficients
            coords, p = [0] * dim, 0
            while v:
                digit = ((v + half) & (2 * half - 1)) - half
                if digit:
                    coords = [a + digit * b for a, b in zip(coords, nums[p * dim :])]
                v, p = (v - digit) >> width, p + 1
            coords = [Fraction(a, den) for a in coords]
            return coords[0] if over_q else CycloScalar(ctx.field, coords)

    # ad_phi's words for u = x^i y^j: u x - lam x u and u y - phi(y) u, phi(y) = lam^k y
    d0_columns = [({}, {}) for _ in basis0]
    for (dx, dy), (i, j) in zip(d0_columns, basis0):
        add_word(dx, 1, i, j, 1, 0, k)
        add_word(dx, -t[1], 1, 0, i, j, k)
        add_word(dy, 1, i, j, 0, 1, k)
        add_word(dy, -t[k], 0, 1, i, j, k)
    d0 = _matrix(d0_columns, [basis1x, basis1y])
    # relation_residual's words; the twist is diagonal, so phi(y) dx = lam^k y dx
    d1_columns = [{} for _ in range(len(basis1x) + len(basis1y))]
    for col, (i, j) in zip(d1_columns, basis1x):
        add_word(col, t[k], 0, 1, i, j, k)
        add_word(col, -1, i, j, 0, 1, k)
        for s in range(N):
            add_word(col, -t[s], s + i, j, k - s, 0, k)
    for col, (i, j) in zip(d1_columns[len(basis1x) :], basis1y):
        add_word(col, 1, i, j, 1, 0, k)
        add_word(col, -t[1], 1, 0, i, j, k)
    d1 = _matrix([(col,) for col in d1_columns], [basis2])

    # d1 . d0 on the integer rows: row r sums d1[r][mid] * d0[mid] over d1 row r
    for row in d1:
        total = {}
        for mid, v in row.items():
            for col, c in d0[mid].items():
                acc = total.get(col)
                total[col] = c * v if acc is None else acc + c * v
        if any(total.values()):
            raise AssertionError("the slice differentials do not compose to zero")
    # a d0 row that no d1 row reads escapes that check.  A twisted slice has
    # none: in Z[t] the t^k part of the d1 column of x^i y^j in basis1x holds
    # x^i y^{j+1} with weight 1, and the t part of that of x^i y^j in basis1y
    # is -x^{i+1} y^j.  Untwisted, each is compared with the ad_phi images of
    # the x^i y^j of basis0 that reach it: y-degree at most j in dx (x^i y^j x
    # - x^{i+1} y^j), j or j + 1 in dy (x^i y^{j+1} - y x^i y^j); so the dy
    # row x^{l+N-1} needs ad_phi(x^l) alone
    read_rows = {mid for row in d1 for mid in row}
    rows = [(m, True) for m in basis1x] + [(m, False) for m in basis1y]
    for r, (key, in_dx) in enumerate(rows):
        if r in read_rows:
            continue
        if twisted:
            raise AssertionError("a d0 row of a twisted slice escapes the d1 . d0 check")
        expected = {}
        for col, mono in enumerate(basis0):
            if mono[1] >= key[1] if in_dx else key[1] - 1 <= mono[1] <= key[1]:
                image = ad_phi(Element(ctx, {mono: 1}))
                c = (image.dx if in_dx else image.dy).terms.get(key)
                if c:
                    expected[col] = c
        if d0[r] != expected:
            raise AssertionError("a d0 row disagrees with ad_phi")
    out = ComplexSlice(ctx, l, omega, basis0, basis1x, basis1y, basis2, d0, d1)
    out._read = read
    return out


def expected_hh_dim(N: int, p: int, l: int, twist_branch) -> int:
    """Closed-form dimension of HH^p in degree l.

    `twist_branch` is None for the untwisted complex, True when the twist
    scalar satisfies omega^{N-1} = 1, and False otherwise.  The identity twist
    omega = 1 is the untwisted complex, so it takes the None branch.
    """
    if twist_branch is None:
        if p == 0:
            return 1 if l == 0 else 0
        if p == 1:
            if l == 0:
                return 2
            return 1 if l >= -N + 1 else 0
        if p == 2:
            return 1 if l >= -N else 0
    else:
        if p == 0:
            return 0
        if twist_branch:
            if p == 1:
                return 1 if l >= -1 and (l + 1) % (N - 1) == 0 else 0
            if p == 2:
                return 1 if l >= -N and (l + N) % (N - 1) == 0 else 0
        else:
            if p == 1:
                return 0
            if p == 2:
                return 1 if l == -N else 0
    raise ValueError("p must be 0, 1 or 2")


class DimsReport(_Record):
    """Computed versus closed-form dimensions over a degree window."""

    __slots__ = (
        "N", "p", "lo", "hi", "twist_order", "computed", "expected", "match",
        "euler_computed", "euler_expected", "euler_match",
    )

    def to_json(self):
        return {
            "N": self.N,
            "p": self.p,
            "from": self.lo,
            "to": self.hi,
            "twist_order": self.twist_order,
            "computed": self.computed,
            "expected": self.expected,
            "match": self.match,
            "euler_computed": self.euler_computed,
            "euler_expected": self.euler_expected,
            "euler_match": self.euler_match,
        }


# Budgets of an hh_profile or veronese_basis window, refused as precondition
# violations (exit 2 on the command line).  Over N = 2 a degree-l slice has
# about l monomials per basis and its check and rank take about l^3 steps: the
# window [-63..64] runs in 0.3 s (2.7 s over Q(zeta_5); Python 3.11, shared
# 2-vCPU x86 host), and the cost grows as the top degree cubed; so does the
# Veronese cross-check, about a second for N = 2, m = 4 on [0..64].
MAX_HH_DEGREE = 64
MAX_HH_WIDTH = 128
# Budget of N in an hh_profile window.  Each dx column of d1 adds N words, and
# with a twist each word carries t^s, an integer of about s * width bits, so a
# twisted window costs about N^2 per slice: [-63..64] over Q(zeta_5) takes
# about a second at N = 100 on the host above (0.65 s at N = 64, 1.6 s at
# N = 128); untwisted, the same window takes 0.01 s there.
MAX_HH_N = 100
# Budget of a twisted hh_profile window over Q(zeta_n), in the units of
# `_twisted_cost` (about 5 ns each on the host above).  Its edge is N = 2 over
# Q(zeta_5) on [-63..64], about 2.4 s; at order 97, [-63..64] took 164 s at
# N = 2 and about 22 s at N = 100, and [-1..24] 36 s at N = 2.
MAX_TWISTED_HH_COST = 500_000_000


def _twisted_cost(N: int, degree: int, lo: int, hi: int) -> int:
    """An estimate of the work of a twisted window over a field of the given
    degree d (euler_phi(n)).  A slice with b monomials in its middle basis
    ranks in about b^3 products of about 4 + 2d steps each and about b
    inverses of about 7 d^3 steps (a product costs d^2 and an inverse d^3
    integer steps, plus a constant), and its d1 columns carry N words each
    with t^s of about s times the width bits, about 4 N^2 b steps per field
    step."""
    count = lambda e: e // (N - 1) + 1 if e >= 0 else 0  # monomials of degree e
    field = 4 + 2 * degree
    total = 0
    for l in range(lo, hi + 1):
        b = count(l + 1) + count(l + N - 1)
        total += field * (b**3 + 4 * N * N * b) + 7 * degree**3 * b
    return total


def _check_window(lo: int, hi: int):
    if hi > MAX_HH_DEGREE:
        raise ValueError(f"top degree {hi} is above the budget of {MAX_HH_DEGREE}")
    if hi - lo + 1 > MAX_HH_WIDTH:
        raise ValueError(
            f"degree window [{lo}..{hi}] is wider than the budget of {MAX_HH_WIDTH} degrees"
        )


def hh_profile(ctx: AlgebraCtx, lo: int, hi: int, omega=None):
    """All three cohomology dimension rows over a window, plus the per-degree
    Euler characteristics (computed two ways).  The window must lie within
    the budgets MAX_HH_DEGREE (top degree) and MAX_HH_WIDTH (slices), and N
    within MAX_HH_N."""
    _check_window(lo, hi)
    if ctx.N > MAX_HH_N:
        raise ValueError(f"N = {ctx.N} is above the hh budget of {MAX_HH_N}")
    if ctx.N < 2:
        raise ValueError("degreewise cohomology needs N >= 2")
    if omega is not None and ctx.coerce(omega) != ctx.field.one:
        cost = _twisted_cost(ctx.N, ctx.field.degree, lo, hi)
        if cost > MAX_TWISTED_HH_COST:
            raise ValueError(
                f"the twisted window [{lo}..{hi}] over {ctx.field!r} has an estimated cost of "
                f"{cost}, above the twisted hh budget of {MAX_TWISTED_HH_COST}"
            )
    rows = {0: [], 1: [], 2: []}
    euler = []
    for l in range(lo, hi + 1):
        h0, h1, h2 = build_slice(ctx, l, omega).dims()
        rows[0].append(h0)
        rows[1].append(h1)
        rows[2].append(h2)
        euler.append(h0 - h1 + h2)
    return rows, euler


def hh_reports(ctx: AlgebraCtx, lo: int, hi: int, omega=None) -> list:
    """The reports for HH^0, HH^1 and HH^2 over a window, from one profile:
    exact kernel/rank dimensions per degree against the closed Hilbert-series
    values; mismatches are reported, never reconciled."""
    branch = None
    twist_order = None
    if omega is not None:
        omega = ctx.coerce(omega)
        if omega != ctx.field.one:
            branch = omega ** (ctx.N - 1) == ctx.field.one
        twist_order = ctx.field.order
    rows, euler = hh_profile(ctx, lo, hi, omega)
    degrees = range(lo, hi + 1)
    euler_expected = [1 if l == -ctx.N else 0 for l in degrees]
    reports = []
    for p in (0, 1, 2):
        expected = [expected_hh_dim(ctx.N, p, l, branch) for l in degrees]
        reports.append(
            DimsReport(
                N=ctx.N,
                p=p,
                lo=lo,
                hi=hi,
                twist_order=twist_order,
                computed=rows[p],
                expected=expected,
                match=rows[p] == expected,
                euler_computed=list(euler),
                euler_expected=list(euler_expected),
                euler_match=euler == euler_expected,
            )
        )
    return reports


def is_inner(d: GenDerivation, i_min=None):
    """Decide innerness of a homogeneous derivation by solving
    ad_phi(u) = d for u ranging over the finite degree slice.

    Returns a witness element (free coordinates pinned to zero, so in
    particular no component on central monomials) or None.  In a localized
    context a lower bound on the x-exponent is mandatory.
    """
    if not d.well_defined():
        raise IllDefinedDerivationError("innerness is decided for derivations only")
    ctx = d.ctx
    l = d.degree()
    if l is None:
        return ctx.zero()
    found = _decompose(_span(ctx, [], basis_of_degree(ctx, l, i_min), d.twist), d)
    return None if found is None else found[1]


MAX_STANDARD_DERIVATIONS = 512  # kept per (context, slot) by the bracket tables
MAX_BRACKET_SPANS = 128  # kept per (context, target degree) by the bracket tables


@lru_cache(maxsize=MAX_STANDARD_DERIVATIONS)
def standard_derivation(ctx: AlgebraCtx, k: int) -> GenDerivation:
    """The degree-k basis representative used by the bracket tables: the
    grading derivation at k = 0, the standard derivation otherwise.  Each is
    built and checked once, then shared; derivations are never mutated."""
    d = grading_derivation(ctx) if k == 0 else partial_l(ctx, k)
    d.well_defined()  # memoized: every later use reads this one check
    return d


@lru_cache(maxsize=MAX_BRACKET_SPANS)
def _bracket_span(ctx: AlgebraCtx, n: int):
    """The span the bracket tables reduce a degree-n bracket in: the slot-n
    representative (and partial_0 at n = 0, where the grading derivation is
    the representative) while n >= -N+1, and the inner derivations of the
    degree-n monomials while n >= 0; factored once, then shared."""
    reps = []
    if n >= -ctx.N + 1:
        reps.append(standard_derivation(ctx, n))
        if n == 0:
            reps.append(partial_l(ctx, 0))
    return _span(ctx, reps, basis_of_degree(ctx, n) if n >= 0 else [])


def _check_slot(N: int, l: int):
    """Refuse slot l before anything is built when its representative reads
    phi_{j+1} past its budget (l + 1 = i + j(N-1))."""
    if l >= 1:
        check_phi_index(decompose_degree(l, N)[1] + 1)


def expected_partial_bracket(N: int, l: int, m: int):
    """Closed-form class coefficient of the bracket of the slot-l and slot-m
    representatives on the slot-(l+m) representative (slot 0 is the grading
    derivation).  A zero coefficient means the bracket is inner."""
    if l == 0 and m == 0:
        return Fraction(0)
    if l == 0:
        return Fraction(m)
    if m == 0:
        return Fraction(-l)
    i, j = decompose_degree(l, N)
    u, v = decompose_degree(m, N)
    if i + u > N:
        return Fraction(0)
    if l >= 1 and m >= 1:
        return Fraction(u - i) + Fraction(N - i, j + 1) * v - Fraction(N - u, v + 1) * j
    if l <= -1 and m <= -1:
        return Fraction(0)
    if l > m:
        return -expected_partial_bracket(N, m, l)
    if l + m >= 1:
        return Fraction(v)
    if l + m <= -1:
        return Fraction(-(l + m))
    return Fraction(1)


def _l_scale(N: int, k: int) -> Fraction:
    """Scale factor taking the slot-k representative to the L-basis one."""
    if k >= 1:
        _, j = decompose_degree(k, N)
        return Fraction(-(j + 1), N - 1)
    if k == 0:
        return Fraction(-1, N - 1)
    return Fraction(k, N - 1)


def expected_l_bracket(N: int, l: int, m: int) -> Fraction:
    """Closed-form structure constant in the rescaled L-basis."""
    i, j = decompose_degree(l, N)
    u, v = decompose_degree(m, N)
    if i + u > N or l + m < -N + 1:
        return Fraction(0)
    return Fraction(l * (v + 1) - m * (j + 1), N - 1)


class BracketResult(_Record):
    """Bracket of two slot representatives, reduced against the slot basis
    with an explicit inner witness, both in the raw and the L-rescaled basis."""

    __slots__ = (
        "N", "l", "m", "target_degree", "computed_coeff", "computed_center", "witness",
        "expected_coeff", "match", "l_computed", "l_expected", "l_match",
    )

    @property
    def inner(self) -> bool:
        return self.computed_coeff == 0

    def to_json(self):
        return {
            "N": self.N,
            "l": self.l,
            "m": self.m,
            "target_degree": self.target_degree,
            "computed_coeff": None
            if self.computed_coeff is None
            else scalar_to_json(self.computed_coeff),
            "computed_center": None
            if self.computed_center is None
            else scalar_to_json(self.computed_center),
            "expected_coeff": scalar_to_json(self.expected_coeff),
            "inner": self.inner,
            "match": self.match,
            "witness": None if self.witness is None else self.witness.to_json(),
            "L_computed": None if self.l_computed is None else scalar_to_json(self.l_computed),
            "L_expected": scalar_to_json(self.l_expected),
            "L_match": self.l_match,
        }


def bracket_table(ctx: AlgebraCtx, l: int, m: int) -> BracketResult:
    """Compute the bracket of the slot-l and slot-m representatives, solve for
    the class coefficient and an exact inner witness, and compare with the
    closed forms in both bases."""
    if ctx.N < 2:
        raise ValueError("bracket tables need N >= 2")
    if l < -ctx.N + 1 or m < -ctx.N + 1:
        raise ValueError("slots start at degree -N+1")
    N = ctx.N
    _check_slot(N, max(l, m, l + m))
    b = standard_derivation(ctx, l).bracket(standard_derivation(ctx, m))
    n = l + m
    found = _decompose(_bracket_span(ctx, n), b)

    expected = expected_partial_bracket(N, l, m)
    l_expected = expected_l_bracket(N, l, m)
    if found is None:
        return BracketResult(
            N, l, m, n, None, None, None, expected, False, None, l_expected, False
        )
    coeffs, witness = found
    coeff = coeffs[0] if coeffs else ctx.field.zero
    center = coeffs[1] if len(coeffs) == 2 else None
    match = coeff == expected and (center is None or not center)
    if n >= -N + 1:
        l_computed = _l_scale(N, l) * _l_scale(N, m) * coeff / _l_scale(N, n)
    else:
        l_computed = ctx.field.zero
    l_match = l_computed == l_expected
    return BracketResult(
        N, l, m, n, coeff, center, witness, expected, match, l_computed, l_expected, l_match
    )


def residue_inner_test(d: GenDerivation):
    """Residue obstruction to innerness over the localization: the coefficient
    of 1/t in (extension of d)(x^{-N+1} y) acting on 1/t.  Zero signals that d
    becomes inner after inverting x.

    The action x . f = t f, y . f = t^N f' on k[t, 1/t] is the cyclic module
    A_x / A_x y: t^k is the class of x^k, because [y, x^k] = k x^{k+N-1}.  So
    w acting on 1/t is the y-free part of the normal-form product w x^{-1}."""
    if d.is_twisted():
        raise ValueError("the residue criterion applies to untwisted derivations")
    if d.ctx.N < 2:
        raise ValueError("the residue criterion needs N >= 2")
    loc = d if d.ctx.localized else d.extend_localized()
    w = loc.apply(loc.ctx.monomial(-loc.ctx.N + 1, 1))
    return (w * loc.ctx.x(-1)).coefficient(-1, 0)


class TaftReport(_Record):
    """Mechanical content of the obstruction to inner-faithful Taft actions:
    the n-th power of the candidate twisted derivation collapses to a
    commutator with u^n, which cannot vanish."""

    __slots__ = (
        "N", "n", "qbinom_vanishing", "collapse_ok", "checked_monomials", "witness_monomial",
        "witness_nonzero", "witness_value",
    )

    @property
    def ok(self) -> bool:
        return self.qbinom_vanishing and self.collapse_ok and self.witness_nonzero

    def to_json(self):
        return {
            "N": self.N,
            "n": self.n,
            "qbinom_vanishing": self.qbinom_vanishing,
            "collapse_ok": self.collapse_ok,
            "checked_monomials": self.checked_monomials,
            "witness_monomial": {"xexp": self.witness_monomial[0], "yexp": self.witness_monomial[1]},
            "witness_nonzero": self.witness_nonzero,
            "witness_value": self.witness_value.to_json(),
            "obstructed": self.ok,
        }


# Budgets of taft_obstruction, refused before any field or context is built.
# Its work grows with the monomials of degree <= max_degree, each taken n
# times through d, and with the twist order n (a q-Pascal row and d's scalars
# over Q(zeta_n)), which n | N - 1 bounds by N - 1.  The costliest accepted
# call, N = 24 with the prime n = 23 and max_degree 32, takes 0.9 s, and
# N = 3, n = 2, max_degree 32 takes 0.5 s (Python 3.11, shared 2-vCPU x86
# host).  Past them, N = 3 with max_degree 80 took 23-26 s there, N = 62 with
# n = 61 1.8-3.4 s and N = 100001 with n = 2 8-14 s, both at max_degree 2.
MAX_TAFT_DEGREE = 32
MAX_TAFT_N = 24


def taft_obstruction(N: int, n: int, max_degree: int = 6) -> TaftReport:
    """For the default candidate u = x^{-1} with diagonal twist of primitive
    order n (requires n | N-1): verify the q-binomial collapse
    d^n = [u^n, -] on all monomials of degree <= max_degree and exhibit a
    monomial on which the power does not vanish.  N and max_degree must lie
    within the budgets MAX_TAFT_N and MAX_TAFT_DEGREE.

    The collapse follows from the expansion of d^k over q-binomials, whose
    inner coefficients vanish at primitive n-th roots of unity; only the i = 0
    and i = n terms survive, and they assemble to the plain commutator with
    u^n (the (-1)^n-signed variant agrees for even n and fails the k = 1 base
    case of the expansion for odd n)."""
    if N < 2 or n < 2:
        raise ValueError("the obstruction check needs N >= 2 and n >= 2")
    if (N - 1) % n != 0:
        raise ValueError("the default candidate needs n to divide N-1")
    if max_degree < 0:
        raise ValueError("the collapse check needs max_degree >= 0")
    if N > MAX_TAFT_N:
        raise ValueError(f"N = {N} is above the taft budget of {MAX_TAFT_N}")
    if max_degree > MAX_TAFT_DEGREE:
        raise ValueError(f"max_degree {max_degree} is above the taft budget of {MAX_TAFT_DEGREE}")
    fld = CycloField(n)
    omega = fld.zeta
    ctx = AlgebraCtx(N, False, fld)
    loc = ctx.localize()
    twist = Automorphism.diagonal(ctx, omega)
    lam = 1 / omega
    # the inner q-binomials binom(n, i), 0 < i < n, at omega and at lam
    vanishing = not any(q_pascal_row(n, omega)[1:-1] + q_pascal_row(n, lam)[1:-1])
    d = restrict_to_algebra(ad_phi(loc.x(-1), twist))
    u_n = loc.x(-n)

    def d_n(a):
        for _ in range(n):
            a = d.apply(a)
        return a

    monos = [ctx.monomial(*m) for l in range(max_degree + 1) for m in basis_of_degree(ctx, l)]
    agree = [Element(loc, d_n(a).terms) == commutator(u_n, Element(loc, a.terms)) for a in monos]
    value = d_n(ctx.y())
    return TaftReport(
        N=N,
        n=n,
        qbinom_vanishing=vanishing,
        collapse_ok=all(agree),
        checked_monomials=len(agree),
        witness_monomial=(0, 1),
        witness_nonzero=bool(value),
        witness_value=value,
    )


def veronese_basis(ctx: AlgebraCtx, m: int, lo: int, hi: int):
    """Monomials of degree divisible by m in the window, degree by degree,
    cross-checked against the fixed space of the diagonal automorphism of
    order m computed by eigenvalue filtering.  The window must lie within the
    budgets MAX_HH_DEGREE and MAX_HH_WIDTH of hh_profile."""
    if m < 1:
        raise ValueError("the Veronese order must be >= 1")
    _check_window(lo, hi)
    fld = CycloField(m)
    ctx_m = AlgebraCtx(ctx.N, False, fld)
    phi = Automorphism.diagonal(ctx_m, fld.zeta)
    out = []
    for l in range(lo, hi + 1):
        if l < 0:
            out.append((l, []))
            continue
        monos = basis_of_degree(ctx, l)
        keep = monos if l % m == 0 else []
        fixed = [
            mono
            for mono in monos
            if phi.apply(ctx_m.monomial(*mono)) == ctx_m.monomial(*mono)
        ]
        if fixed != keep:
            raise AssertionError("eigenvalue filtering disagrees with divisibility")
        out.append((l, keep))
    return out


class VeroneseRelationReport(_Record):
    """Defining relation of the invariant subalgebra generated by x^m and y
    when m divides N-1: records the computed power against the claimed one."""

    __slots__ = (
        "N", "m", "relation_coeff", "relation_exponent", "computed_power", "claimed_power",
    )

    @property
    def discrepancy(self) -> bool:
        return self.computed_power != self.claimed_power

    def to_json(self):
        return {
            "N": self.N,
            "m": self.m,
            "relation": f"[y, x^{self.m}] = {self.relation_coeff} * x^{self.relation_exponent}",
            "computed_power": self.computed_power,
            "claimed_power": self.claimed_power,
            "discrepancy": self.discrepancy,
        }


def veronese_relation_report(N: int, m: int) -> VeroneseRelationReport:
    """Compute [y, x^m] = m x^{m+N-1} and express the right side as a power of
    the generator x^m, flagging the mismatch with the claimed exponent
    (N-1)/m."""
    if m < 1 or (N - 1) % m != 0:
        raise ValueError("this report needs m to divide N-1")
    ctx = AlgebraCtx(N)
    value = commutator(ctx.y(), ctx.x(m))
    expected = ctx.monomial(m + N - 1, 0, m)
    if value != expected:
        raise AssertionError("normal form of [y, x^m] is off")
    exponent = m + N - 1
    if exponent % m != 0:
        raise AssertionError("relation exponent is not a multiple of m")
    return VeroneseRelationReport(
        N=N,
        m=m,
        relation_coeff=m,
        relation_exponent=exponent,
        computed_power=exponent // m,
        claimed_power=(N - 1) // m,
    )


class NilReport(_Record):
    """Windowed check of the nilpotent-ideal structure on the degree-one
    cohomology: bracket containment for one (r, s) pair, plus the lower
    central series length actually observed on the window, reported next to
    the two printed claims without asserting either."""

    __slots__ = (
        "N", "r", "s", "lo", "hi", "containment_ok", "violations", "lcs_lengths",
        "computed_index", "printed_index", "printed_vanishing_threshold",
        "observed_vanishing_threshold",
    )

    def __bool__(self):
        return self.containment_ok

    def to_json(self):
        return {
            "N": self.N,
            "r": self.r,
            "s": self.s,
            "from": self.lo,
            "to": self.hi,
            "containment_ok": self.containment_ok,
            "violations": self.violations,
            "lcs_level_sizes": self.lcs_lengths,
            "computed_index_on_window": self.computed_index,
            "printed_index": self.printed_index,
            "printed_vanishing_threshold": self.printed_vanishing_threshold,
            "observed_vanishing_threshold": self.observed_vanishing_threshold,
        }


def nil_chain_check(ctx: AlgebraCtx, r: int, s: int, lo: int, hi: int) -> NilReport:
    """Check [Nil_r, Nil_s] <= Nil_{r+s} modulo inner on a degree window, with
    bracket coefficients taken from the computed tables, and measure the lower
    central series of Nil_1 on the window."""
    N = ctx.N
    if N < 3:
        raise ValueError("the nilpotent chain is trivial below N = 3")
    lo = max(lo, -N + 1)
    if lo > hi:
        raise ValueError(f"empty degree window: slots start at degree {-N + 1}, above {hi}")
    window = range(lo, hi + 1)
    rho = lambda k: k % (N - 1)
    # the top slot built: the window's, or that of the largest containment bracket
    tops = [max((k for k in window if rho(k) >= t), default=None) for t in (r, s)]
    _check_slot(N, hi if None in tops else max(hi, sum(tops)))

    table = {}

    def coeff(a, b):
        # [d_b, d_a] = -[d_a, d_b], so a pair read the other way round is
        # negated, not computed again (None, outside the span, stays None)
        if (a, b) not in table:
            if (b, a) in table:
                c = table[b, a]
                table[a, b] = None if c is None else -c
            else:
                table[a, b] = bracket_table(ctx, a, b).l_computed
        return table[a, b]

    violations = []
    for a in window:
        if rho(a) < r:
            continue
        for b in window:
            if rho(b) < s:
                continue
            c = coeff(a, b)
            if c and rho(a + b) < r + s:
                violations.append((a, b))

    nil1 = [k for k in window if rho(k) >= 1]
    levels = []
    current = set(nil1)
    while current:
        levels.append(sorted(current))
        nxt = set()
        for a in nil1:
            for b in current:
                if lo <= a + b <= hi and coeff(a, b):
                    nxt.add(a + b)
        if nxt == current:
            break
        current = nxt

    observed_threshold = max((rho(k) for k in window), default=-1) + 1
    return NilReport(
        N=N,
        r=r,
        s=s,
        lo=lo,
        hi=hi,
        containment_ok=not violations,
        violations=violations,
        lcs_lengths=[len(level) for level in levels],
        computed_index=len(levels),
        printed_index=N - 2,
        printed_vanishing_threshold=N - 2,
        observed_vanishing_threshold=observed_threshold,
    )
