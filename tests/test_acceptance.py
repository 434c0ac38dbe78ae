"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (with its wall-clock time) once all of its
assertions hold; a failing assertion is the FAIL line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import random
import time
from fractions import Fraction

from xnalg import linalg
from xnalg.cohomology import (
    bracket_table,
    build_slice,
    hh_profile,
    is_inner,
    residue_inner_test,
    taft_obstruction,
    veronese_basis,
)
from xnalg.maps import (
    Automorphism,
    GenDerivation,
    ad_phi,
    conjugator_to_diagonal,
    d_g,
    exp_ad,
    exp_lnd,
    grading_derivation,
    partial_l,
    restrict_to_algebra,
    sigma,
)
from xnalg.ncalg import (
    AlgebraCtx,
    basis_of_degree,
    comm_move_left,
    comm_move_right,
    commutator,
    laguerre_identity_check,
    phi_element,
)
from xnalg.scalars import (
    CycloField,
    QPoly,
    cyclo_primitive_root,
)
from xnalg.sequences import (
    bernoulli,
    c_poly,
    gaussian_binomial,
    gregory,
    pochhammer_k,
)

from polys import MPoly, PolyRing, series_from_coeff_rule


def _report(number, description, started):
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} ({description}): PASS [{elapsed:.2f}s]")


# published table of the polynomial family, rows 0..11 (descending powers)
C_TABLE = {
    0: {0: "1"},
    1: {1: "-1/2", 0: "-1/2"},
    2: {2: "-1/6", 0: "1/6"},
    3: {3: "-1/4", 1: "1/4"},
    4: {4: "-19/30", 2: "2/3", 0: "-1/30"},
    5: {5: "-9/4", 3: "5/2", 1: "-1/4"},
    6: {6: "-863/84", 4: "12", 2: "-7/4", 0: "1/42"},
    7: {7: "-1375/24", 5: "70", 3: "-105/8", 1: "5/12"},
    8: {8: "-33953/90", 6: "480", 4: "-1624/15", 2: "50/9", 0: "-1/30"},
    9: {9: "-57281/20", 7: "3780", 5: "-9849/10", 3: "70", 1: "-21/20"},
    10: {10: "-3250433/132", 8: "33600", 6: "-29531/3", 4: "5345/6", 2: "-91/4", 0: "5/66"},
    11: {11: "-1891755/8", 9: "332640", 7: "-214995/2", 5: "47025/4", 3: "-3465/8", 1: "15/4"},
}
BERNOULLI_TABLE = ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30", "0", "5/66"]
GREGORY_TABLE = [
    "1", "1/2", "-1/12", "1/24", "-19/720", "3/160", "-863/60480",
    "275/24192", "-33953/3628800", "8183/1036800", "-3250433/479001600",
]


def test_criterion_01_sequence_tables():
    started = time.monotonic()
    for j, row in C_TABLE.items():
        coeffs = [Fraction(row.get(k, 0)) for k in range(j + 1)]
        assert c_poly(j) == QPoly(coeffs), f"c_{j} differs from the published table"
    for n, text in enumerate(BERNOULLI_TABLE):
        assert bernoulli(n) == Fraction(text)
    for n, text in enumerate(GREGORY_TABLE):
        assert gregory(n) == Fraction(text)
    _report(1, "sequence tables", started)


def test_criterion_02_c_family_laws():
    started = time.monotonic()
    for j in range(31):
        poly = c_poly(j)
        assert poly.degree() == j
        assert poly.lead() == (-1) ** j * math.factorial(j) * gregory(j)
        assert poly.const() == bernoulli(j)
    order = 16
    q = QPoly.gen()
    left = series_from_coeff_rule(lambda k: c_poly(k) / math.factorial(k), order)
    right = series_from_coeff_rule(
        lambda k: pochhammer_k(QPoly.one(), q, k + 1) / math.factorial(k + 1), order
    )
    one = series_from_coeff_rule(lambda k: QPoly.one() if k == 0 else QPoly.zero(), order)
    assert left * right == one
    _report(2, "c-family laws and generating function", started)


def test_criterion_03_pbw_kernel():
    started = time.monotonic()
    for N in range(1, 6):
        for i in range(7):
            for j in range(7):
                total = {}
                for c, a, t in comm_move_right(i, j, N):
                    for c2, a2, t2 in comm_move_left(i, t, N):
                        key = (a + a2, t2)
                        total[key] = total.get(key, 0) + c * c2
                total = {k: v for k, v in total.items() if v}
                assert total == {(i, j): 1}, (N, i, j)
    rng = random.Random(300)
    triples = 0
    while triples < 200:
        N = rng.randint(1, 5)
        localized = N >= 2 and rng.random() < 0.4
        ctx = AlgebraCtx(N, localized)
        low = -2 if localized else 0

        def rand_elt():
            out = ctx.zero()
            for _ in range(rng.randint(1, 3)):
                out = out + ctx.monomial(
                    rng.randint(low, 3), rng.randint(0, 3),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
            return out

        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)
        triples += 1
    _report(3, "commutation round-trip and associativity", started)


def test_criterion_04_phi_family():
    started = time.monotonic()
    for N in range(2, 7):
        ctx = AlgebraCtx(N)
        for j in range(1, 11):
            assert commutator(phi_element(ctx, j), ctx.x()) == ctx.monomial(N, j - 1)
    ctx2 = AlgebraCtx(2)
    assert phi_element(ctx2, 1) == ctx2.y()
    for j in range(2, 11):
        closed = (ctx2.monomial(0, j) - ctx2.monomial(1, j - 1, j)) / j
        assert phi_element(ctx2, j) == closed
    _report(4, "special elements and their commutator law", started)


def test_criterion_05_laguerre_identity():
    started = time.monotonic()
    for N in (2, 3, 4):
        loc = AlgebraCtx(N, True)
        for i in range(5):
            for j in range(6):
                assert laguerre_identity_check(loc, i, j), (N, i, j)
    _report(5, "Laguerre conjugation identity", started)


def test_criterion_06_cohomology_dims():
    started = time.monotonic()
    for N in (2, 3, 4, 5):
        ctx = AlgebraCtx(N)
        lo, hi = -N - 3, 12
        rows, euler = hh_profile(ctx, lo, hi)
        for offset, l in enumerate(range(lo, hi + 1)):
            assert rows[0][offset] == (1 if l == 0 else 0), (N, l)
            expected1 = 2 if l == 0 else (1 if l >= -N + 1 else 0)
            assert rows[1][offset] == expected1, (N, l)
            assert rows[2][offset] == (1 if l >= -N else 0), (N, l)
            assert euler[offset] == (1 if l == -N else 0), (N, l)
    _report(6, "cohomology dimensions and Euler characteristics", started)


def test_criterion_07_explicit_representatives():
    started = time.monotonic()
    for N in (2, 3, 4, 5):
        ctx = AlgebraCtx(N)
        for l in range(-N + 1, 13):
            d = partial_l(ctx, l)
            assert d.well_defined(), (N, l)
            assert is_inner(d) is None, (N, l)
            sl = build_slice(ctx, l)
            idx1x = {m: k for k, m in enumerate(sl.basis1x)}
            idx1y = {m: k for k, m in enumerate(sl.basis1y)}
            dim1 = len(sl.basis1x) + len(sl.basis1y)

            def vec(dd):
                out = {}
                for key, c in dd.dx.terms.items():
                    out[idx1x[key]] = c
                for key, c in dd.dy.terms.items():
                    out[len(sl.basis1x) + idx1y[key]] = c
                return out

            reps = [d] + ([grading_derivation(ctx)] if l == 0 else [])
            image_rows = [
                {r: row[c] for r, row in enumerate(sl.d0) if c in row}
                for c in range(len(sl.basis0))
            ]
            base_rank = linalg.rank(image_rows, dim1)
            assert linalg.rank(image_rows + [vec(r) for r in reps], dim1) == base_rank + len(reps)
            assert sl.dims()[1] == len(reps), (N, l)
    _report(7, "explicit representatives realize the dimensions", started)


def _l_coeff_table(ctx, lo, hi):
    cache = {}

    def coeff(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = bracket_table(ctx, a, b)
        return cache[key]

    return coeff


def test_criterion_08_bracket_tables():
    started = time.monotonic()
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        coeff = _l_coeff_table(ctx, -N + 1, 8)
        window = range(-N + 1, 9)
        table = {}
        for l in window:
            for m in window:
                r = coeff(l, m)
                assert r.match, (N, l, m, r.computed_coeff, r.expected_coeff)
                assert r.l_match, (N, l, m)
                table[(l, m)] = r.l_computed
        # named special values
        for m in window:
            assert coeff(0, m).computed_coeff == m, (N, m)
        e_case = coeff(-N + 1, N - 1)
        assert e_case.computed_coeff == 1 and e_case.l_computed == -2
        # antisymmetry of the computed class coefficients
        for l in window:
            for m in window:
                assert table[(l, m)] == -table[(m, l)], (N, l, m)
        # Jacobi identity of the computed structure constants

        def g(a, b):
            if a + b < -N + 1:
                return Fraction(0)
            return coeff(a, b).l_computed

        for l in window:
            for m in window:
                for k in window:
                    acc = Fraction(0)
                    for a, b, c in ((l, m, k), (m, k, l), (k, l, m)):
                        first = g(b, c)
                        if first:
                            acc += first * g(a, b + c)
                    assert acc == 0, (N, l, m, k)
    _report(8, "bracket structure constants, antisymmetry, Jacobi", started)


def test_criterion_09_automorphisms():
    started = time.monotonic()
    rng = random.Random(900)
    units = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(5, 2)]
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for _ in range(30):
            a = Automorphism(
                ctx, rng.choice(units),
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 4))],
            )
            b = Automorphism(
                ctx, rng.choice(units),
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 4))],
            )
            composed = a.compose(b)
            for gen in (ctx.x(), ctx.y()):
                assert composed.apply(gen) == a.apply(b.apply(gen))
            # pair group law
            size = max(len(a.f), len(b.f))
            coeffs = [
                (b.lam ** (N - 1) * a.f[d] if d < len(a.f) else Fraction(0))
                + (b.f[d] * a.lam ** d if d < len(b.f) else Fraction(0))
                for d in range(size)
            ]
            assert composed == Automorphism(ctx, a.lam * b.lam, coeffs)
    # exponentials of bracketing by a polynomial (series checked inside exp_ad)
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        for _ in range(15):
            f = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 6))]
            expected = [Fraction(0)] * (N + max(len(f) - 1, 0))
            for s in range(1, len(f)):
                expected[N + s - 1] = s * f[s]
            assert exp_ad(ctx, f) == Automorphism.shear(ctx, expected)
    # symbolic-parameter exponential of the locally nilpotent derivations
    ring = PolyRing()
    T = QPoly.gen()
    for N in (2, 3):
        ctxs = AlgebraCtx(N, False, ring)
        g = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]
        d = d_g(ctxs, g)
        aut = exp_lnd(ctxs, g, T)
        for gen in (ctxs.x(), ctxs.y()):
            acc, term, k = gen, gen, 1
            while True:
                term = d.apply(term) * T
                if not term:
                    break
                acc = acc + term / math.factorial(k)
                k += 1
            assert acc == aut.apply(gen)
        assert exp_lnd(ctxs, [Fraction(0)] * (N - 1) + [Fraction(1)], T) == sigma(ctxs, T)
    # normal element law
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        s1 = sigma(ctx, 1)
        for l in range(13):
            for i, j in basis_of_degree(ctx, l):
                a = ctx.monomial(i, j)
                assert a * ctx.x() == ctx.x() * s1.apply(a)
    # conjugation-normalization of finite-order automorphisms
    for m in (2, 3, 4):
        fld = CycloField(m)
        for N in (2, 3, 4):
            ctx = AlgebraCtx(N, False, fld)
            lam = fld.zeta
            for _ in range(8):
                f = [Fraction(0)] * 9
                for _ in range(3):
                    dgr = rng.randrange(9)
                    if (dgr - (N - 1)) % m != 0:
                        f[dgr] = Fraction(rng.randint(-3, 3))
                aut = Automorphism(ctx, lam, f)
                h = conjugator_to_diagonal(aut)
                assert h is not None
                assert h.compose(aut).compose(h.inverse()) == Automorphism.diagonal(ctx, lam)
    _report(9, "automorphism group laws and exponentials", started)


def test_criterion_10_twisted_cohomology():
    started = time.monotonic()
    lo, hi = -3, 9
    root_cases = ((3, 2), (5, 2), (4, 3), (5, 4))
    for N, n in root_cases:
        fld = CycloField(n)
        ctx = AlgebraCtx(N, False, fld)
        assert fld.zeta ** (N - 1) == fld.one
        rows, euler = hh_profile(ctx, lo, hi, fld.zeta)
        for offset, l in enumerate(range(lo, hi + 1)):
            assert rows[0][offset] == 0, (N, n, l)
            expected1 = 1 if l >= -1 and (l + 1) % (N - 1) == 0 else 0
            assert rows[1][offset] == expected1, (N, n, l)
            expected2 = 1 if l >= -N and (l + N) % (N - 1) == 0 else 0
            assert rows[2][offset] == expected2, (N, n, l)
            assert euler[offset] == (1 if l == -N else 0)
    # the branch with omega^{N-1} != 1 has no outer twisted derivations
    fld = CycloField(4)
    ctx = AlgebraCtx(4, False, fld)
    assert fld.zeta ** 3 != fld.one
    rows, _ = hh_profile(ctx, lo, hi, fld.zeta)
    assert all(v == 0 for v in rows[0])
    assert all(v == 0 for v in rows[1])
    assert all(v == 0 for v in rows[2])  # the only class sits at -N = -4 < lo
    _report(10, "twisted cohomology dimensions", started)


def test_criterion_11_twisted_representatives():
    started = time.monotonic()
    for N, n in ((3, 2), (4, 3), (5, 2), (5, 4)):
        fld = CycloField(n)
        ctx = AlgebraCtx(N, False, fld)
        loc = ctx.localize()
        twist = Automorphism.diagonal(ctx, fld.zeta)
        d0phi = restrict_to_algebra(ad_phi(loc.x(-1), twist))
        assert d0phi.dx == ctx.scalar(1 - fld.zeta)
        assert d0phi.dy == ctx.x(N - 2)
        assert d0phi.degree() == -1
        assert d0phi.well_defined()
        assert is_inner(d0phi) is None
        # iterating the degree-(N-1) derivation matches bracketing by it
        dn1 = partial_l(ctx, N - 1)
        dn1_loc = dn1.extend_localized()
        by_bracket = d0phi
        u = loc.x(-1)
        for l in range(1, 5):
            u = dn1_loc.apply(u)
            by_bracket = dn1.bracket(by_bracket)
            direct = restrict_to_algebra(ad_phi(u, twist))
            assert by_bracket.dx == direct.dx and by_bracket.dy == direct.dy
            assert direct.degree() == -1 + l * (N - 1)
    # exceptional localized values at N = 3
    ctx3 = AlgebraCtx(3)
    d2 = partial_l(ctx3, 2).extend_localized()
    loc3 = d2.ctx
    first = d2.apply(loc3.x(-1))
    assert first == -loc3.monomial(-1, 1) + loc3.x()
    assert d2.apply(first) == -loc3.x(3)
    _report(11, "twisted representative family", started)


def test_criterion_12_q_binomials():
    started = time.monotonic()
    for n in range(2, 13):
        z = cyclo_primitive_root(n)
        for i in range(1, n):
            assert gaussian_binomial(n, i, at=z) == 0, (n, i)
    q = MPoly.var(3, 0)
    y = MPoly.var(3, 1)
    z = MPoly.var(3, 2)
    for n in range(9):
        lhs = MPoly.constant(3, 1)
        for i in range(n):
            lhs = lhs * (y + z * q ** i)
        rhs = MPoly(3)
        for i in range(n + 1):
            binom = gaussian_binomial(n, i)
            poly = MPoly.constant(3, 0)
            for dgr, c in enumerate(binom.coeffs):
                poly = poly + c * q ** dgr
            rhs = rhs + q ** math.comb(i, 2) * poly * y ** (n - i) * z ** i
        assert lhs == rhs, n
    _report(12, "q-binomial vanishing and Cauchy identity", started)


def test_criterion_13_taft_obstruction():
    started = time.monotonic()
    for N, n in ((3, 2), (4, 3), (5, 2), (5, 4), (7, 6)):
        report = taft_obstruction(N, n, max_degree=6)
        assert report.qbinom_vanishing, (N, n)
        assert report.collapse_ok, (N, n)
        assert report.witness_nonzero, (N, n)
    _report(13, "Taft action obstruction", started)


def test_criterion_14_residue_criterion():
    started = time.monotonic()
    rng = random.Random(1400)
    for _ in range(20):
        N = rng.choice((2, 3, 4))
        loc = AlgebraCtx(N, True)
        u = loc.zero()
        for _ in range(rng.randint(1, 4)):
            u = u + loc.monomial(
                rng.randint(-3, 3), rng.randint(0, 3),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
        assert residue_inner_test(ad_phi(u)) == 0
    assert residue_inner_test(partial_l(AlgebraCtx(3), 0)) == 1
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        assert residue_inner_test(partial_l(ctx, 0)) == 1
        for l in range(-N + 1, 9):
            for m in range(-N + 1, 9):
                r = bracket_table(ctx, l, m)
                if r.witness is None:
                    continue
                residual = ad_phi(r.witness)
                assert residue_inner_test(residual) == 0, (N, l, m)
    _report(14, "residue criterion", started)


def test_criterion_15_veronese():
    started = time.monotonic()
    for N in (3, 4):
        ctx = AlgebraCtx(N)
        for m in (2, 3):
            rows = veronese_basis(ctx, m, 0, 12)
            for l, monos in rows:
                expected = basis_of_degree(ctx, l) if l % m == 0 else []
                assert monos == expected, (N, m, l)
    _report(15, "Veronese fixed spaces", started)
