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

from dataclasses import dataclass
from fractions import Fraction

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
from .ncalg import AlgebraCtx, Element, basis_of_degree
from .scalars import CycloField, scalar_to_json
from .sequences import gaussian_binomial


def _matrix(columns, bases, zero):
    """Dense rows of the matrix whose k-th column stacks the coefficient
    vectors of the elements columns[k][b] over the monomial bases[b], the
    rows of bases[0] on top."""
    row_of, nrows = [], 0
    for basis in bases:
        row_of.append({mono: nrows + r for r, mono in enumerate(basis)})
        nrows += len(basis)
    rows = [[zero] * len(columns) for _ in range(nrows)]
    for col, elts in enumerate(columns):
        for block, elt in zip(row_of, elts):
            for key, c in elt.terms.items():
                rows[block[key]][col] = c
    return rows


def _solve_in_span(target, columns, field):
    """Coefficients writing the element tuple `target` as a combination of
    the element tuples `columns`, free coordinates pinned to zero; None when
    `target` is outside their span.  Rows run over the monomials that occur."""
    bases = [
        sorted({key for elts in (target, *columns) for key in elts[b].terms})
        for b in range(len(target))
    ]
    rows = _matrix([*columns, target], bases, field.zero)
    rhs = [row.pop() for row in rows]
    return linalg.solve(rows, rhs, len(columns), field)


@dataclass
class ComplexSlice:
    """The degree-l slice of the three-term complex, with exact matrices of
    both differentials (columns indexed by the domain bases)."""

    ctx: AlgebraCtx
    l: int
    omega: object
    basis0: list
    basis1x: list
    basis1y: list
    basis2: list
    d0: list
    d1: list

    def dims(self):
        """(dim HH^0, dim HH^1, dim HH^2) on this slice."""
        rank0 = linalg.rank(self.d0, len(self.basis0))
        rank1 = linalg.rank(self.d1, len(self.basis1x) + len(self.basis1y))
        h0 = len(self.basis0) - rank0
        h1 = (len(self.basis1x) + len(self.basis1y)) - rank1 - rank0
        h2 = len(self.basis2) - rank1
        return h0, h1, h2

    def space_euler(self) -> int:
        return len(self.basis0) - len(self.basis1x) - len(self.basis1y) + len(self.basis2)


def build_slice(ctx: AlgebraCtx, l: int, omega=None) -> ComplexSlice:
    """Assemble the degree-l slice; `omega` twists the bimodule by the
    diagonal automorphism x -> omega x, y -> omega^{N-1} y.

    The composite d1 . d0 is checked to vanish before the slice is returned.
    """
    if ctx.N < 2:
        raise ValueError("degreewise cohomology needs N >= 2")
    if ctx.localized:
        raise ValueError("slices are built over the unlocalized algebra")
    N = ctx.N
    fld = ctx.field
    omega = None if omega is None else ctx.coerce(omega)
    w_pow = [fld.one] * N if omega is None else [omega ** s for s in range(N)]
    w = fld.one if omega is None else omega
    w_n1 = fld.one if omega is None else omega ** (N - 1)

    basis0 = basis_of_degree(ctx, l)
    basis1x = basis_of_degree(ctx, l + 1)
    basis1y = basis_of_degree(ctx, l + N - 1)
    basis2 = basis_of_degree(ctx, l + N)

    x_elt, y_elt = ctx.x(), ctx.y()

    d0_columns = []
    for mono in basis0:
        a = ctx.monomial(*mono)
        d0_columns.append(
            (w * (x_elt * a) - a * x_elt, w_n1 * (y_elt * a) - a * y_elt)
        )
    d0 = _matrix(d0_columns, [basis1x, basis1y], fld.zero)

    d1_columns = []
    for mono in basis1x:
        b = ctx.monomial(*mono)
        value = w_n1 * (y_elt * b) - b * y_elt
        for s in range(N):
            value = value - w_pow[s] * (ctx.x(s) * b * ctx.x(N - 1 - s))
        d1_columns.append((value,))
    for mono in basis1y:
        c_elt = ctx.monomial(*mono)
        d1_columns.append((c_elt * x_elt - w * (x_elt * c_elt),))
    d1 = _matrix(d1_columns, [basis2], fld.zero)

    ncols1 = len(d1_columns)
    for col in range(len(basis0)):
        for row in range(len(basis2)):
            acc = fld.zero
            for k in range(ncols1):
                acc = acc + d1[row][k] * d0[k][col]
            if acc:
                raise AssertionError("the slice differentials do not compose to zero")

    return ComplexSlice(ctx, l, omega, basis0, basis1x, basis1y, basis2, d0, d1)


def expected_hh_dim(N: int, p: int, l: int, twist_branch) -> int:
    """Closed-form dimension of HH^p in degree l.

    `twist_branch` is None for the untwisted complex, True when the twist
    scalar satisfies omega^{N-1} = 1, and False otherwise.
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


@dataclass
class DimsReport:
    """Computed versus closed-form dimensions over a degree window."""

    N: int
    p: int
    lo: int
    hi: int
    twist_order: int | None
    computed: list
    expected: list
    match: bool
    euler_computed: list
    euler_expected: list
    euler_match: bool

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


def hh_profile(ctx: AlgebraCtx, lo: int, hi: int, omega=None):
    """All three cohomology dimension rows over a window, plus the per-degree
    Euler characteristics (computed two ways)."""
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
        branch = omega ** (ctx.N - 1) == ctx.field.one
        twist_order = getattr(ctx.field, "order", None)
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


def cohomology_dims(ctx: AlgebraCtx, p: int, lo: int, hi: int, omega=None) -> DimsReport:
    """The HH^p report of :func:`hh_reports`."""
    if p not in (0, 1, 2):
        raise ValueError("p must be 0, 1 or 2")
    return hh_reports(ctx, lo, hi, omega)[p]


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
    candidates = basis_of_degree(ctx, l, i_min)
    columns = []
    for mono in candidates:
        w = ad_phi(ctx.monomial(*mono), d.twist)
        columns.append((w.dx, w.dy))
    sol = _solve_in_span((d.dx, d.dy), columns, ctx.field)
    if sol is None:
        return None
    witness = Element(ctx, {mono: c for mono, c in zip(candidates, sol) if c})
    check = ad_phi(witness, d.twist)
    if check.dx != d.dx or check.dy != d.dy:
        raise AssertionError("inner witness fails to reproduce the derivation")
    return witness


def standard_derivation(ctx: AlgebraCtx, k: int) -> GenDerivation:
    """The degree-k basis representative used by the bracket tables: the
    grading derivation at k = 0, the standard derivation otherwise."""
    return grading_derivation(ctx) if k == 0 else partial_l(ctx, k)


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


@dataclass
class BracketResult:
    """Bracket of two slot representatives, reduced against the slot basis
    with an explicit inner witness, both in the raw and the L-rescaled basis."""

    N: int
    l: int
    m: int
    target_degree: int
    computed_coeff: object
    computed_center: object
    witness: Element | None
    expected_coeff: Fraction
    match: bool
    l_computed: object
    l_expected: Fraction
    l_match: bool

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
    b = standard_derivation(ctx, l).bracket(standard_derivation(ctx, m))
    n = l + m

    unknown_reps = []
    if n >= -N + 1:
        unknown_reps.append(standard_derivation(ctx, n))
        if n == 0:
            unknown_reps.append(partial_l(ctx, 0))
    candidates = basis_of_degree(ctx, n) if n >= 0 else []
    columns = [(rep.dx, rep.dy) for rep in unknown_reps]
    for mono in candidates:
        w = ad_phi(ctx.monomial(*mono))
        columns.append((w.dx, w.dy))
    sol = _solve_in_span((b.dx, b.dy), columns, ctx.field)

    expected = expected_partial_bracket(N, l, m)
    l_expected = expected_l_bracket(N, l, m)
    if sol is None:
        return BracketResult(
            N, l, m, n, None, None, None, expected, False, None, l_expected, False
        )

    offset = len(unknown_reps)
    coeff = sol[0] if offset >= 1 else ctx.field.zero
    center = sol[1] if offset == 2 else None
    witness = Element(
        ctx, {mono: c for mono, c in zip(candidates, sol[offset:]) if c}
    )
    residual_dx = b.dx - sum(
        (sol[k] * rep.dx for k, rep in enumerate(unknown_reps)), ctx.zero()
    )
    residual_dy = b.dy - sum(
        (sol[k] * rep.dy for k, rep in enumerate(unknown_reps)), ctx.zero()
    )
    check = ad_phi(witness)
    if check.dx != residual_dx or check.dy != residual_dy:
        raise AssertionError("bracket witness fails to reproduce the residual")

    match = coeff == expected and (center is None or not center)
    if n >= -N + 1:
        l_computed = _l_scale(N, l) * _l_scale(N, m) * coeff / _l_scale(N, n)
    else:
        l_computed = ctx.field.zero
    l_match = l_computed == l_expected
    return BracketResult(
        N, l, m, n, coeff, center, witness, expected, match, l_computed, l_expected, l_match
    )


class LaurentPoly:
    """A Laurent polynomial: finite scalar coefficient table over integer
    exponents.  Representation target for the residue criterion."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return LaurentPoly(out)

    def scale(self, c):
        return LaurentPoly({k: c * v for k, v in self.terms.items()})

    def shift(self, n: int):
        """Multiplication by t^n."""
        return LaurentPoly({k + n: c for k, c in self.terms.items()})

    def deriv(self):
        return LaurentPoly({k - 1: k * c for k, c in self.terms.items() if k})

    def coefficient(self, k: int, zero=Fraction(0)):
        return self.terms.get(k, zero)

    def __repr__(self):
        bits = [f"{c!r}*t^{k}" for k, c in sorted(self.terms.items())]
        return "LaurentPoly(" + (" + ".join(bits) if bits else "0") + ")"


def laurent_act(a: Element, f: LaurentPoly) -> LaurentPoly:
    """Action of an element on a Laurent polynomial under the representation
    x . f = t f and y . f = t^N f', extended along the normal form."""
    N = a.ctx.N
    out = LaurentPoly()
    for (i, j), c in a.terms.items():
        g = f
        for _ in range(j):
            g = g.deriv().shift(N)
        out = out + g.shift(i).scale(c)
    return out


def residue_inner_test(d: GenDerivation):
    """Residue obstruction to innerness over the localization: the coefficient
    of 1/t in (extension of d)(x^{-N+1} y) acting on 1/t.  Zero signals that d
    becomes inner after inverting x."""
    if d.is_twisted():
        raise ValueError("the residue criterion applies to untwisted derivations")
    if d.ctx.N < 2:
        raise ValueError("the residue criterion needs N >= 2")
    loc = d if d.ctx.localized else d.extend_localized()
    w = loc.apply(loc.ctx.monomial(-loc.ctx.N + 1, 1))
    g = laurent_act(w, LaurentPoly({-1: loc.ctx.field.one}))
    return g.coefficient(-1, loc.ctx.field.zero)


@dataclass
class TaftReport:
    """Mechanical content of the obstruction to inner-faithful Taft actions:
    the n-th power of the candidate twisted derivation collapses to a
    commutator with u^n, which cannot vanish."""

    N: int
    n: int
    qbinom_vanishing: bool
    collapse_ok: bool
    checked_monomials: int
    witness_monomial: tuple
    witness_nonzero: bool
    witness_value: Element

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


def taft_obstruction(N: int, n: int, max_degree: int = 6) -> TaftReport:
    """For the default candidate u = x^{-1} with diagonal twist of primitive
    order n (requires n | N-1): verify the q-binomial collapse
    d^n = [u^n, -] on all monomials of degree <= max_degree and exhibit a
    monomial on which the power does not vanish.

    The collapse follows from the expansion of d^k over q-binomials, whose
    inner coefficients vanish at primitive n-th roots of unity; only the i = 0
    and i = n terms survive, and they assemble to the plain commutator with
    u^n (the (-1)^n-signed variant agrees for even n and fails the k = 1 base
    case of the expansion for odd n)."""
    if N < 2 or n < 2:
        raise ValueError("the obstruction check needs N >= 2 and n >= 2")
    if (N - 1) % n != 0:
        raise ValueError("the default candidate needs n to divide N-1")
    fld = CycloField(n)
    omega = fld.zeta
    ctx = AlgebraCtx(N, False, fld)
    loc = ctx.localize()
    twist = Automorphism.diagonal(ctx, omega)
    lam = 1 / omega
    vanishing = all(
        gaussian_binomial(n, i, at=omega) == 0 and gaussian_binomial(n, i, at=lam) == 0
        for i in range(1, n)
    )
    d = restrict_to_algebra(ad_phi(loc.x(-1), twist))
    u_n = loc.x(-n)

    collapse_ok = True
    checked = 0
    monomials = []
    for l in range(max_degree + 1):
        monomials.extend(basis_of_degree(ctx, l))
    for mono in monomials:
        a = ctx.monomial(*mono)
        lhs = a
        for _ in range(n):
            lhs = d.apply(lhs)
        a_loc = Element(loc, dict(a.terms))
        rhs = u_n * a_loc - a_loc * u_n
        if Element(loc, dict(lhs.terms)) != rhs:
            collapse_ok = False
        checked += 1

    witness = (0, 1)
    value = ctx.y()
    for _ in range(n):
        value = d.apply(value)
    return TaftReport(
        N=N,
        n=n,
        qbinom_vanishing=vanishing,
        collapse_ok=collapse_ok,
        checked_monomials=checked,
        witness_monomial=witness,
        witness_nonzero=bool(value),
        witness_value=value,
    )


def veronese_basis(ctx: AlgebraCtx, m: int, lo: int, hi: int):
    """Monomials of degree divisible by m in the window, degree by degree,
    cross-checked against the fixed space of the diagonal automorphism of
    order m computed by eigenvalue filtering."""
    if m < 1:
        raise ValueError("the Veronese order must be >= 1")
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


@dataclass
class VeroneseRelationReport:
    """Defining relation of the invariant subalgebra generated by x^m and y
    when m divides N-1: records the computed power against the claimed one."""

    N: int
    m: int
    relation_coeff: int
    relation_exponent: int
    computed_power: int
    claimed_power: int

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
    value = ctx.y() * ctx.x(m) - ctx.x(m) * ctx.y()
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


@dataclass
class NilReport:
    """Windowed check of the nilpotent-ideal structure on the degree-one
    cohomology: bracket containment for one (r, s) pair, plus the lower
    central series length actually observed on the window, reported next to
    the two printed claims without asserting either."""

    N: int
    r: int
    s: int
    lo: int
    hi: int
    containment_ok: bool
    violations: list
    lcs_lengths: list
    computed_index: int
    printed_index: int
    printed_vanishing_threshold: int
    observed_vanishing_threshold: int

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
    window = range(lo, hi + 1)
    rho = lambda k: k % (N - 1)

    cache: dict[tuple, object] = {}

    def coeff(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = bracket_table(ctx, a, b).l_computed
        return cache[key]

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
