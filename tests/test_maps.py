import math
import random
from fractions import Fraction

import pytest

from xnalg import ncalg
from xnalg.maps import (
    Automorphism,
    GenDerivation,
    IllDefinedDerivationError,
    ad_phi,
    conjugator_to_diagonal,
    d_g,
    decompose_degree,
    exp_ad,
    exp_lnd,
    grading_derivation,
    partial_l,
    relation_residual,
    restrict_to_algebra,
    sigma,
)
from xnalg.ncalg import AlgebraCtx, Element, basis_of_degree, commutator, phi_element
from xnalg.scalars import CycloField, QPoly

from oracles import (
    brute_apply,
    brute_relation_residual,
    product_chain_ad_phi,
    product_chain_apply,
    product_chain_relation_residual,
)
from polys import PolyRing


def _random_aut(rng, ctx, units):
    lam = rng.choice(units)
    f = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    return Automorphism(ctx, lam, f)


def test_aut_apply_examples():
    ctx = AlgebraCtx(3)
    phi = Automorphism.diagonal(ctx, Fraction(2))
    for i in range(4):
        for j in range(3):
            expected = ctx.monomial(i, j, Fraction(2) ** (i + 2 * j))
            assert phi.apply(ctx.monomial(i, j)) == expected
    shear = Automorphism.shear(ctx, [1, 2])
    assert shear.apply(ctx.x()) == ctx.x()
    s1 = sigma(ctx, 1)
    assert s1.apply(ctx.y()) == ctx.y() + ctx.x(2)


def test_aut_apply_localized():
    ctx = AlgebraCtx(3)
    loc = ctx.localize()
    phi = Automorphism.diagonal(ctx, Fraction(2))
    assert phi.apply(loc.x(-1)) == loc.monomial(-1, 0, Fraction(1, 2))


def _count_products(monkeypatch):
    """Record every normal-form product of two elements from here on."""
    calls = []
    real = ncalg.normalize_product
    monkeypatch.setattr(ncalg, "normalize_product", lambda a, b: calls.append(1) or real(a, b))
    return calls


def test_y_power_matches_product_chain():
    for field in (CycloField(1), CycloField(3)):
        ctx = AlgebraCtx(3, False, field)
        shear = Automorphism.shear(ctx, [1, Fraction(-1, 2), 2])
        phi_y = shear.y_image()
        assert phi_y == ctx.y() + ctx.one() - ctx.monomial(1, 0, Fraction(1, 2)) + ctx.x(2) * 2
        chain = ctx.one()
        for j in range(7):
            assert shear.y_power(j) == chain, (field, j)
            chain = chain * phi_y


def test_aut_apply_reuses_its_powers(monkeypatch):
    # a second apply with the same automorphism builds no power of phi(y)
    ctx = AlgebraCtx(3)
    aut = Automorphism(ctx, Fraction(2), [1, 3])
    a = ctx.monomial(1, 4) - ctx.monomial(2, 1)
    b = Element(ctx.localize(), {(-2, 3): Fraction(5, 2), (0, 2): 1})
    expected = [aut.apply(a), aut.apply(b)]
    calls = _count_products(monkeypatch)
    assert [aut.apply(a), aut.apply(b)] == expected
    assert calls == []


def test_untwisted_apply_makes_no_product(monkeypatch):
    # without a twist the powers of y are single words, so apply adds words
    # only, on plain and on localized operands
    ctx = AlgebraCtx(3)
    d = partial_l(ctx, 2)
    wide = d.extend_localized()
    cases = [(d, ctx.monomial(2, 3)), (wide, wide.ctx.monomial(-2, 3))]
    expected = [product_chain_apply(*case) for case in cases]
    assert d.well_defined() and wide.well_defined()
    calls = _count_products(monkeypatch)
    assert [e.apply(a) for e, a in cases] == expected
    assert calls == []


def test_compose_matches_pair_law():
    rng = random.Random(31)
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        units = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-2, 5)]
        for _ in range(30):
            a = _random_aut(rng, ctx, units)
            b = _random_aut(rng, ctx, units)
            composed = a.compose(b)
            # direct composition on generators
            for gen in (ctx.x(), ctx.y()):
                assert composed.apply(gen) == a.apply(b.apply(gen))
            # explicit pair law
            lam, mu = a.lam, b.lam
            size = max(len(a.f), len(b.f))
            coeffs = []
            for d in range(size):
                c = Fraction(0)
                if d < len(a.f):
                    c += mu ** (N - 1) * a.f[d]
                if d < len(b.f):
                    c += b.f[d] * lam ** d
                coeffs.append(c)
            assert composed == Automorphism(ctx, lam * mu, coeffs)


def test_compose_special_cases():
    ctx = AlgebraCtx(4)
    a = Automorphism.diagonal(ctx, Fraction(2))
    b = Automorphism.diagonal(ctx, Fraction(3))
    assert a.compose(b) == Automorphism.diagonal(ctx, Fraction(6))
    assert sigma(ctx, Fraction(2)).compose(sigma(ctx, Fraction(5))) == sigma(ctx, Fraction(7))


def test_group_axioms_randomized():
    rng = random.Random(77)
    ctx = AlgebraCtx(3)
    units = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)]
    for _ in range(20):
        a, b, c = (_random_aut(rng, ctx, units) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()


def test_inverse_examples():
    ctx = AlgebraCtx(3)
    assert Automorphism.diagonal(ctx, Fraction(5)).inverse() == Automorphism.diagonal(
        ctx, Fraction(1, 5)
    )
    f = [Fraction(1), Fraction(-2)]
    assert Automorphism.shear(ctx, f).inverse() == Automorphism.shear(ctx, [-c for c in f])
    assert sigma(ctx, Fraction(3)).inverse() == sigma(ctx, Fraction(-3))


def test_aut_order():
    fld = CycloField(4)
    ctx = AlgebraCtx(3, False, fld)
    assert Automorphism.diagonal(ctx, fld.zeta).order(10) == 4
    ctx_q = AlgebraCtx(3)
    assert Automorphism.shear(ctx_q, [0, 1]).order(25) is None
    assert Automorphism.identity(ctx_q).order(5) == 1


def test_normal_element_identity():
    # a x = x sigma_1(a) on all basis monomials of degree <= 12
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        s1 = sigma(ctx, 1)
        for l in range(13):
            for i, j in basis_of_degree(ctx, l):
                a = ctx.monomial(i, j)
                assert a * ctx.x() == ctx.x() * s1.apply(a)


def test_exp_ad():
    ctx2 = AlgebraCtx(2)
    assert exp_ad(ctx2, [Fraction(7)]).is_identity()
    assert exp_ad(ctx2, [0, 1]) == Automorphism.shear(ctx2, [0, 0, 1])
    ctx3 = AlgebraCtx(3)
    assert exp_ad(ctx3, [0, 0, 1]) == Automorphism.shear(ctx3, [0, 0, 0, 0, 2])
    # the closed form is checked internally against the terminating series;
    # exercise it across degrees and N
    rng = random.Random(8)
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for _ in range(10):
            f = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 6))]
            aut = exp_ad(ctx, f)
            assert aut.lam == 1


def test_exp_lnd():
    ctx = AlgebraCtx(4)
    g = [0, 0, 0, 1]  # x^{N-1} at N=4
    assert exp_lnd(ctx, g, Fraction(5)) == sigma(ctx, Fraction(5))
    assert exp_lnd(ctx, [1, 2, 3], 0).is_identity()
    ctx2 = AlgebraCtx(2)
    aut = exp_lnd(ctx2, [1], 1)
    assert aut.apply(ctx2.y()) == ctx2.y() + ctx2.one()


def test_exp_lnd_symbolic_parameter():
    # with a symbolic t the exponential series of t d_g equals the shear by
    # t g(x), coefficient ring Q[T]
    ring = PolyRing()
    T = QPoly.gen()
    for N in (2, 3):
        ctx = AlgebraCtx(N, False, ring)
        g = [Fraction(2), Fraction(-1), Fraction(1)]
        d = d_g(ctx, g)
        aut = exp_lnd(ctx, g, T)
        for gen in (ctx.x(), ctx.y()):
            acc, term, k = gen, gen, 1
            while True:
                term = d.apply(term) * T
                if not term:
                    break
                acc = acc + term / math.factorial(k)
                k += 1
            assert acc == aut.apply(gen)
        assert aut.compose(aut.inverse()).is_identity()


def test_grading_derivation_eigenvalues():
    for N in (2, 3, 5):
        ctx = AlgebraCtx(N)
        E = grading_derivation(ctx)
        for l in range(8):
            for i, j in basis_of_degree(ctx, l):
                assert E.apply(ctx.monomial(i, j)) == ctx.monomial(i, j, l)


def test_der_apply_examples():
    ctx = AlgebraCtx(3)
    d0 = partial_l(ctx, 0)
    assert not d0.apply(ctx.x())
    assert d0.apply(ctx.y()) == ctx.x(2)
    g = [Fraction(1), Fraction(2)]
    d = d_g(ctx, g)
    g_elt = ctx.one() + ctx.x(1, ) * 2
    assert d.apply(ctx.y(2)) == g_elt * ctx.y() + ctx.y() * g_elt


def test_check_welldefined():
    for N in (2, 3, 4, 5):
        ctx = AlgebraCtx(N)
        for l in range(-N + 1, 13):
            assert partial_l(ctx, l).well_defined(), (N, l)
        assert grading_derivation(ctx).well_defined()
    ctx2 = AlgebraCtx(2)
    bad = GenDerivation(ctx2, ctx2.y(), ctx2.zero())
    assert not bad.well_defined()
    with pytest.raises(IllDefinedDerivationError):
        bad.apply(ctx2.y())
    assert GenDerivation.zero(ctx2).well_defined()


def test_relation_residual_against_brute_expansion():
    # random generator assignments, untwisted and under rational diagonal
    # twists (every third one with a shear part too), against the Leibniz
    # rule expanded on words and normalized by rewriting
    rng = random.Random(1945)

    def random_terms():
        return {
            (rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(0, 3))
        }

    for trial in range(36):
        N = rng.randint(2, 4)
        ctx = AlgebraCtx(N)
        dx, dy = random_terms(), random_terms()
        lam, f, twist = Fraction(1), [], None
        if trial % 2:
            lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
            if trial % 3 == 0:
                f = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
            twist = Automorphism(ctx, lam, f)
        got = relation_residual(Element(ctx, dx), Element(ctx, dy), twist)
        assert got.terms == brute_relation_residual(dx, dy, N, lam, f), (N, dx, dy, lam, f)
    # derivations have residual zero under both routes
    ctx = AlgebraCtx(3)
    twist = Automorphism.diagonal(ctx, Fraction(-2))
    for d, lam in ((partial_l(ctx, 2), 1), (ad_phi(ctx.monomial(1, 1), twist), Fraction(-2))):
        assert not relation_residual(d.dx, d.dy, d.twist)
        assert brute_relation_residual(d.dx.terms, d.dy.terms, 3, lam) == {}


def _random_scalar(rng, field):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(max(field.degree, 1))]
    return field.from_coeffs(coeffs)


def _random_element(rng, ctx, terms=3):
    lo = -3 if ctx.localized else 0
    return Element(ctx, {
        (rng.randint(lo, 3), rng.randint(0, 2)): _random_scalar(rng, ctx.field)
        for _ in range(rng.randint(0, terms))
    })


def test_relation_residual_against_product_chain():
    # where the word oracle cannot reach: localized inputs with negative
    # x-exponents, and Q(zeta_n) diagonal twists with and without a shear
    # part, against the chain of whole-element products
    rng = random.Random(2024)
    nonzero = 0
    for trial in range(160):
        order = (1, 3, 4, 5)[trial % 4]
        field = CycloField(order)
        N = rng.randint(2, 5)
        ctx = AlgebraCtx(N, trial % 3 != 0, field)
        twist = None
        if trial % 5:
            if order == 1:
                lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
            else:
                lam = field.zeta ** rng.randint(1, order - 1)
            f = [_random_scalar(rng, field) for _ in range(rng.randint(0, 3) if trial % 2 else 0)]
            twist = Automorphism(ctx.unlocalized(), lam, f)
        dx, dy = _random_element(rng, ctx), _random_element(rng, ctx)
        got = relation_residual(dx, dy, twist)
        assert got == product_chain_relation_residual(dx, dy, twist), (ctx, dx, dy, twist)
        nonzero += bool(got)
    assert nonzero > 100
    # twisted inner derivations a -> u a - phi(a) u kill the relation
    for order in (3, 4, 5):
        field = CycloField(order)
        for localized in (False, True):
            ctx = AlgebraCtx(3, localized, field)
            for k in range(1, order):
                f = [_random_scalar(rng, field) for _ in range(k % 2 * 2)]
                twist = Automorphism(ctx.unlocalized(), field.zeta ** k, f)
                d = ad_phi(_random_element(rng, ctx, terms=4), twist)
                assert not relation_residual(d.dx, d.dy, twist)
                assert not product_chain_relation_residual(d.dx, d.dy, twist)


def _nonzero_element(rng, ctx, terms=3):
    while True:
        a = _random_element(rng, ctx, terms)
        if a:
            return a


def _twist_parameters(d):
    if d.twist is None:
        return Fraction(1), ()
    return d.twist.lam, d.twist.f


def test_apply_against_brute_expansion():
    # standard, grading, locally nilpotent and twisted inner derivations (the
    # twists diagonal, or diagonal with a shear part), on random elements with
    # x-exponents down to -3, against the Leibniz rule expanded letter by
    # letter on words and normalized by rewriting.  Each derivation is reused
    # on further operands (a second generator keeps the first one's draws, and
    # they keep their own floor), and every coefficient over Q is a Fraction
    rng = random.Random(808)
    more = random.Random(809)
    nonzero = reused = 0
    for trial in range(80):
        N = rng.randint(2, 4)
        ctx = AlgebraCtx(N)
        localized = trial % 3 != 0
        kind = trial % 4
        if kind == 0:
            d = partial_l(ctx, rng.randint(-N + 1, 3))
        elif kind == 1:
            d = grading_derivation(ctx)
        elif kind == 2:
            d = d_g(ctx, [_random_scalar(rng, ctx.field) for _ in range(rng.randint(1, 3))])
        else:
            lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
            shear = rng.randint(1, 2) if trial % 8 == 7 else 0
            f = [_random_scalar(rng, ctx.field) for _ in range(shear)]
            twist = Automorphism(ctx, lam, f)
            u_ctx = ctx.localize() if localized else ctx
            d = ad_phi(_nonzero_element(rng, u_ctx, terms=2), twist)
        if localized and not d.ctx.localized:
            d = d.extend_localized()
        a = _nonzero_element(rng, d.ctx)
        lam, f = _twist_parameters(d)
        for use, a in enumerate((a, *(_nonzero_element(more, d.ctx) for _ in range(2)))):
            got = d.apply(a)
            assert got.terms == brute_apply(a.terms, d.dx.terms, d.dy.terms, N, lam, f), (d, a)
            assert all(type(c) is Fraction for c in got.terms.values()), (d, a)
            if use:
                reused += bool(got)
            else:
                nonzero += bool(got)
    assert nonzero > 60
    assert reused > 120


def test_apply_against_product_chain():
    # over Q and Q(zeta_n), plain and localized, untwisted, diagonal and
    # diagonal-plus-shear twists, against the chain of whole-element products.
    # Each derivation is reused on further operands (a second generator keeps
    # the first one's draws, and they keep their own floor), the unlocalized
    # ones also on localized operands
    # through extend_localized; every coefficient over Q is a Fraction
    rng = random.Random(1707)
    more = random.Random(1708)
    nonzero = reused = 0
    for trial in range(120):
        order = (1, 3, 4, 5)[trial % 4]
        field = CycloField(order)
        N = rng.randint(2, 5)
        ctx = AlgebraCtx(N, False, field)
        loc = ctx.localize()
        localized = trial % 3 != 0
        kind = trial % 5
        if kind == 0:
            d = partial_l(ctx, rng.randint(-N + 1, 4))
        elif kind == 1:
            d = d_g(ctx, [_random_scalar(rng, field) for _ in range(rng.randint(1, 3))])
        else:
            twist = None
            if kind > 2:
                if order == 1:
                    lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
                else:
                    lam = field.zeta ** rng.randint(1, order - 1)
                shear = rng.randint(1, 3) if kind == 4 else 0
                f = [_random_scalar(rng, field) for _ in range(shear)]
                twist = Automorphism(ctx, lam, f)
            d = ad_phi(_nonzero_element(rng, loc if localized else ctx), twist)
        if localized and not d.ctx.localized:
            d = d.extend_localized()
        a = _nonzero_element(rng, d.ctx, terms=4)
        uses = [(d, a), *((d, _nonzero_element(more, d.ctx, terms=3)) for _ in range(2))]
        if not d.ctx.localized:
            wide = d.extend_localized()
            uses += [(wide, _nonzero_element(more, wide.ctx, terms=3)) for _ in range(2)]
        for use, (d, a) in enumerate(uses):
            got = d.apply(a)
            assert got == product_chain_apply(d, a), (d, a)
            if order == 1:
                assert all(type(c) is Fraction for c in got.terms.values()), (d, a)
            if use:
                reused += bool(got)
            else:
                nonzero += bool(got)
        # and x^-2 y^3 under the localized derivation, whose twist is
        # unlocalized; kept out of the counts above
        d, a = uses[-1][0], loc.monomial(-2, 3)
        assert d.apply(a) == product_chain_apply(d, a), (d, a)
    assert nonzero > 100
    assert reused > 270


def test_untwisted_apply_on_high_exponents_against_product_chain():
    # untwisted, operands with x-exponents up to 40 and y-exponents up to 7,
    # under standard derivations of high slots and d_g, plain and localized,
    # over Q and Q(zeta_3), against the product chain
    rng = random.Random(3232)
    for trial in range(24):
        field = CycloField((1, 3)[trial % 2])
        N = rng.randint(2, 5)
        ctx = AlgebraCtx(N, False, field)
        if trial % 3:
            d = partial_l(ctx, rng.randint(1, 12))
        else:
            d = d_g(ctx, [_random_scalar(rng, field) for _ in range(3)])
        if trial % 4 == 3:
            d = d.extend_localized()
        lo = -6 if d.ctx.localized else 0
        a = Element(d.ctx, {(rng.randint(lo, 40), rng.randint(0, 7)): _random_scalar(rng, field)
                            for _ in range(4)})
        assert d.apply(a) == product_chain_apply(d, a), (d, a)


def test_ad_phi_against_product_chain():
    # over Q and Q(zeta_n), plain and localized, untwisted, diagonal and
    # diagonal-plus-shear twists, single monomials and sums, against the four
    # whole-element products u x - lam x u and u y - phi(y) u
    rng = random.Random(9090)
    nonzero = 0
    for trial in range(160):
        order = (1, 3, 4, 5)[trial % 4]
        field = CycloField(order)
        N = rng.randint(2, 5)
        ctx = AlgebraCtx(N, False, field)
        kind = trial % 3
        twist = None
        if kind:
            if order == 1:
                lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
            else:
                lam = field.zeta ** rng.randint(1, order - 1)
            shear = rng.randint(1, 3) if kind == 2 else 0
            twist = Automorphism(ctx, lam, [_random_scalar(rng, field) for _ in range(shear)])
        u_ctx = ctx.localize() if trial % 5 in (1, 3) else ctx
        u = _nonzero_element(rng, u_ctx, terms=1 if trial % 2 else 4)
        d = ad_phi(u, twist)
        assert (d.dx, d.dy) == product_chain_ad_phi(u, twist), (u, twist)
        assert d.ctx == u_ctx and d.twist in (None, twist)
        nonzero += bool(d.dx or d.dy)
    assert nonzero > 100


def test_aut_apply_is_multiplicative():
    # plain and localized elements over Q and Q(zeta_n), under random
    # automorphisms with and without a shear part
    rng = random.Random(6160)
    for trial in range(60):
        order = (1, 3, 4, 5)[trial % 4]
        field = CycloField(order)
        ctx = AlgebraCtx(rng.randint(1, 4), False, field)
        if order == 1:
            lam = Fraction(rng.choice([-3, -1, 2, 3]), rng.choice([1, 2]))
        else:
            lam = field.zeta ** rng.randint(1, order - 1)
        f = [_random_scalar(rng, field) for _ in range(rng.randint(0, 3))]
        aut = Automorphism(ctx, lam, f)
        elt_ctx = ctx.localize() if trial % 3 and ctx.N >= 2 else ctx
        a, b = _random_element(rng, elt_ctx), _random_element(rng, elt_ctx)
        assert aut.apply(a * b) == aut.apply(a) * aut.apply(b), (aut, a, b)


def test_partial_l_images():
    ctx = AlgebraCtx(3)
    d0 = partial_l(ctx, 0)
    assert not d0.dx and d0.dy == ctx.x(2)
    dlow = partial_l(ctx, -2)
    assert not dlow.dx and dlow.dy == ctx.one()
    d2 = partial_l(ctx, 2)
    assert d2.dx == ctx.monomial(1, 1)
    expected_dy = (
        ctx.monomial(1, 1) * ctx.x()
        + 2 * (ctx.monomial(2, 1))
        + (ctx.y(2) - 3 * ctx.monomial(2, 1))
    )
    assert d2.dy == expected_dy
    with pytest.raises(ValueError):
        partial_l(ctx, -3)


def test_partial_l_degrees():
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for l in range(-N + 1, 9):
            assert partial_l(ctx, l).degree() == l


def test_ad_phi_examples():
    N = 4
    ctx = AlgebraCtx(N)
    d = ad_phi(ctx.x(N - 1))
    assert not d.dx
    assert d.dy == ctx.monomial(2 * N - 2, 0, -(N - 1))
    assert not ad_phi(ctx.zero()).dx and not ad_phi(ctx.zero()).dy
    # twisted example over a root of unity with omega^{N-1} = 1
    fld = CycloField(3)
    ctxt = AlgebraCtx(4, False, fld)
    loc = ctxt.localize()
    twist = Automorphism.diagonal(ctxt, fld.zeta)
    dphi = ad_phi(loc.x(-1), twist)
    assert dphi.dx == loc.scalar(1 - fld.zeta)
    assert dphi.dy == loc.x(2)
    assert dphi.well_defined()
    assert restrict_to_algebra(dphi).degree() == -1


def test_der_bracket_with_grading():
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        E = grading_derivation(ctx)
        for m in range(-N + 1, 7):
            dm = partial_l(ctx, m)
            br = E.bracket(dm)
            assert br.dx == m * dm.dx and br.dy == m * dm.dy, (N, m)
        d5 = partial_l(ctx, 5)
        self_bracket = d5.bracket(d5)
        assert not self_bracket.dx and not self_bracket.dy


def test_der_bracket_twist_rules():
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    twist = Automorphism.diagonal(ctx, fld.zeta)
    tw = ad_phi(ctx.localize().x(-1), twist)
    tw = restrict_to_algebra(tw)
    with pytest.raises(ValueError):
        tw.bracket(tw)
    # the grading derivation commutes with diagonal twists
    E = grading_derivation(ctx)
    assert E.bracket(tw).twist == twist
    # an odd-degree derivation anticommutes with the order-2 twist: rejected
    d1 = partial_l(ctx, 1)
    with pytest.raises(ValueError):
        d1.bracket(tw)


def test_bracket_of_standard_with_twisted_family():
    # [d_{N-1}, d_0^phi] equals the inner twisted derivation attached to the
    # image of x^{-1} under the extension of d_{N-1}
    for N, n in ((3, 2), (4, 3), (5, 2)):
        fld = CycloField(n)
        ctx = AlgebraCtx(N, False, fld)
        loc = ctx.localize()
        twist = Automorphism.diagonal(ctx, fld.zeta)
        d0phi = restrict_to_algebra(ad_phi(loc.x(-1), twist))
        dn1 = partial_l(ctx, N - 1)
        lhs = dn1.bracket(d0phi)
        u1 = dn1.extend_localized().apply(loc.x(-1))
        rhs = restrict_to_algebra(ad_phi(u1, twist))
        assert lhs.dx == rhs.dx and lhs.dy == rhs.dy


def test_extend_localized_values():
    ctx = AlgebraCtx(3)
    d0 = partial_l(ctx, 0).extend_localized()
    assert not d0.apply(d0.ctx.x(-1))
    d2 = partial_l(ctx, 2).extend_localized()
    loc = d2.ctx
    first = d2.apply(loc.x(-1))
    assert first == -loc.monomial(-1, 1) + loc.x()
    assert d2.apply(first) == -loc.x(3)


def test_is_locally_nilpotent():
    ctx = AlgebraCtx(3)
    assert d_g(ctx, [1, 0, 5]).is_locally_nilpotent()
    assert not grading_derivation(ctx).is_locally_nilpotent()
    assert not partial_l(ctx, ctx.N - 1).is_locally_nilpotent()


def test_locally_ad_nilpotent_membership():
    from xnalg.maps import is_locally_ad_nilpotent

    ctx = AlgebraCtx(3)
    f = ctx.one() + 2 * ctx.x(2)
    assert is_locally_ad_nilpotent(f)
    assert not is_locally_ad_nilpotent(ctx.y())
    assert not is_locally_ad_nilpotent(ctx.x() + ctx.y())


def test_degree_zero_derivation_at_n1():
    # at N = 1 the map x -> 0, y -> 1 is a well-defined degree-0 derivation
    ctx = AlgebraCtx(1)
    d0 = d_g(ctx, [1])
    assert d0.well_defined()
    assert d0.degree() == 0
    assert d0.apply(ctx.y(3)) == ctx.y(2) * 3
    assert d0.is_locally_nilpotent()


def test_lnd_inner_exactly_for_high_valuation():
    # x -> 0, y -> g is inner exactly when x^N divides g
    from xnalg.cohomology import is_inner

    ctx = AlgebraCtx(3)
    inner = d_g(ctx, [0, 0, 0, 2])  # g = 2 x^3, divisible by x^N
    w = is_inner(inner)
    assert w is not None
    not_inner = d_g(ctx, [0, 0, 1])  # g = x^2, not divisible
    assert is_inner(not_inner) is None


def test_conjugation_normalization():
    rng = random.Random(4242)
    for m in (2, 3, 4):
        fld = CycloField(m)
        for N in (2, 3, 4):
            ctx = AlgebraCtx(N, False, fld)
            lam = fld.zeta
            diagonal = Automorphism.diagonal(ctx, lam)
            for _ in range(10):
                # f supported away from exponents congruent to N-1 mod m
                f = [Fraction(0)] * 8
                for _ in range(3):
                    d = rng.randrange(8)
                    if (d - (N - 1)) % m != 0:
                        f[d] = Fraction(rng.randint(-3, 3))
                aut = Automorphism(ctx, lam, f)
                h = conjugator_to_diagonal(aut)
                assert h is not None
                assert h.compose(aut).compose(h.inverse()) == diagonal
                assert aut.order(4 * m) == diagonal.order(4 * m)


def _in_exponential_subgroup(aut):
    # exponentials of bracketing by polynomials are exactly the shears by
    # multiples of x^N
    if aut.lam != aut.ctx.field.one:
        return False
    return all(not c for c in aut.f[: aut.ctx.N])


def test_quotient_by_exponentials_group_law():
    # modulo the exponential subgroup, an automorphism is determined by its
    # scaling and by its shear truncated below x^N, and composition descends
    rng = random.Random(88)
    units = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)]
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        for _ in range(20):
            f = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
            lam = rng.choice(units)
            a = Automorphism(ctx, lam, f)
            truncated = Automorphism(ctx, lam, f[:N])
            assert _in_exponential_subgroup(truncated.inverse().compose(a))
            # the subgroup is normal: conjugates of exponentials stay inside
            e = exp_ad(ctx, [Fraction(rng.randint(-2, 2)) for _ in range(4)])
            assert _in_exponential_subgroup(a.compose(e).compose(a.inverse()))


def test_finite_order_is_conjugacy_invariant():
    # phi_{f, lam} with lam of order m and f supported off the obstructed
    # degrees has order exactly m, like its diagonal conjugate
    for m in (2, 3, 4):
        fld = CycloField(m)
        ctx = AlgebraCtx(3, False, fld)
        f = [Fraction(0)] * 6
        for dgr in range(6):
            if (dgr - 2) % m != 0:
                f[dgr] = Fraction(1)
        aut = Automorphism(ctx, fld.zeta, f)
        assert aut.order(3 * m) == m


def test_conjugation_obstructed_degrees():
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    # exponent 2 is congruent to N-1 = 2 mod 2: obstructed
    aut = Automorphism(ctx, fld.zeta, [0, 0, 1])
    assert conjugator_to_diagonal(aut) is None


def test_decompose_degree():
    for N in (2, 3, 4, 5):
        for l in range(-N + 1, 15):
            i, j = decompose_degree(l, N)
            assert 1 <= i <= N - 1
            assert j >= -1
            assert l + 1 == i + j * (N - 1)


def test_derivation_json_round_trip():
    import json

    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    twist = Automorphism.diagonal(ctx, fld.zeta)
    d = restrict_to_algebra(ad_phi(ctx.localize().x(-1), twist))
    blob = json.dumps(d.to_json())
    back = GenDerivation.from_json(json.loads(blob))
    assert back == d
    plain = partial_l(AlgebraCtx(4), 2)
    assert GenDerivation.from_json(json.loads(json.dumps(plain.to_json()))) == plain


def test_automorphism_json_round_trip():
    import json

    fld = CycloField(4)
    ctx = AlgebraCtx(2, False, fld)
    aut = Automorphism(ctx, fld.zeta, [fld.one, fld.zero, fld.zeta * 2])
    blob = json.dumps(aut.to_json())
    assert Automorphism.from_json(json.loads(blob), ctx) == aut


def _searched_order(aut, bound):
    """Least k <= bound with aut^k the identity, by composing k times."""
    acc = aut
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(aut)
    return None


def test_aut_order_agrees_with_the_composition_search():
    rng = random.Random(29)
    cases = []
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for lam in (1, -1, 2, Fraction(1, 2)):
            for f in ([], [1], [0, 1], [1, 0, 2], [rng.randint(-3, 3) for _ in range(3)]):
                cases.append(Automorphism(ctx, lam, f))
        for n in (3, 4, 5, 6):
            fld = CycloField(n)
            ctx = AlgebraCtx(N, False, fld)
            for lam in (fld.zeta, -fld.zeta, fld.zeta ** 2, fld.zeta + 1):
                for f in ([], [1], [0, 1], [0, 0, 1]):
                    cases.append(Automorphism(ctx, lam, f))
    finite = 0
    for aut in cases:
        for bound in (1, 2, 3, 5, 12, 13):
            assert aut.order(bound) == _searched_order(aut, bound), (aut, bound)
        finite += aut.order(13) is not None
    # shears that cancel: x -> -x, y -> -y + f(x) with f even has order 2
    assert Automorphism(AlgebraCtx(2), -1, [1, 0, 3]).order(2) == 2
    assert finite > 20


def test_aut_order_needs_no_search_up_to_the_bound():
    ctx = AlgebraCtx(2)
    assert Automorphism(ctx, 1, [1]).order(10**9) is None
    assert Automorphism(ctx, 2).order(10**9) is None
    assert Automorphism(ctx, -1).order(10**9) == 2
    fld = CycloField(5)
    assert Automorphism(AlgebraCtx(3, False, fld), fld.zeta).order(10**9) == 5
    assert Automorphism(AlgebraCtx(3, False, fld), -fld.zeta).order(10**9) == 10
