import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from xnalg import ncalg
from xnalg.ncalg import (
    AlgebraCtx,
    CtxMismatchError,
    Element,
    add_word,
    basis_of_degree,
    comm_move_left,
    comm_move_right,
    commutator,
    hilbert_count,
    normalize_product,
    laguerre_identity_check,
    normal_order_power,
    phi_element,
    power,
    render_element,
)
from xnalg.scalars import CycloField, QPoly, repeated_squaring
from xnalg.sequences import pochhammer_k

from oracles import brute_normalize, monomial_word, nullspace
from polys import PolyRing


def _as_table(elt):
    return {key: c for key, c in elt.terms.items()}


def test_defining_relation_examples():
    ctx = AlgebraCtx(2)
    assert ctx.y() * ctx.x() == ctx.monomial(1, 1) + ctx.monomial(2, 0)
    assert ctx.y() * ctx.x(2) == ctx.monomial(2, 1) + ctx.monomial(3, 0, 2)
    ctx3 = AlgebraCtx(3)
    expected = ctx3.monomial(1, 2) + ctx3.monomial(3, 1, 2) + ctx3.monomial(5, 0, 3)
    assert ctx3.y(2) * ctx3.x() == expected


def test_products_against_rewriting_oracle():
    rng = random.Random(13)
    for N in range(6):
        ctx = AlgebraCtx(N)
        for _ in range(20):
            i1, j1 = rng.randint(0, 3), rng.randint(0, 3)
            i2, j2 = rng.randint(0, 3), rng.randint(0, 3)
            got = ctx.monomial(i1, j1) * ctx.monomial(i2, j2)
            want = brute_normalize(monomial_word(i1, j1) + monomial_word(i2, j2), N)
            assert _as_table(got) == want, (N, i1, j1, i2, j2)


def test_localized_products_against_rewriting_oracle():
    rng = random.Random(14)
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N, True)
        for _ in range(25):
            i1, j1 = rng.randint(-3, 2), rng.randint(0, 3)
            i2, j2 = rng.randint(-3, 2), rng.randint(0, 2)
            got = ctx.monomial(i1, j1) * ctx.monomial(i2, j2)
            want = brute_normalize(monomial_word(i1, j1) + monomial_word(i2, j2), N)
            assert _as_table(got) == want, (N, i1, j1, i2, j2)


def test_add_word_against_rewriting_oracle():
    # words x^a y^s x^b y^r, with negative a and b where the rewriting oracle
    # allows them (N >= 2), added twice into one table
    rng = random.Random(15)
    for N in range(6):
        lo = -3 if N >= 2 else 0
        for _ in range(40):
            a, b = rng.randint(lo, 3), rng.randint(lo, 3)
            s, r = rng.randint(0, 4), rng.randint(0, 2)
            c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            c2 = Fraction(rng.choice([-1, 1]), 2)
            table = {}
            add_word(table, c1, a, s, b, r, N - 1)
            add_word(table, c2, a, s, b, r, N - 1)
            want = brute_normalize(monomial_word(a, s) + monomial_word(b, r), N)
            got = {key: v for key, v in table.items() if v}
            assert got == {key: (c1 + c2) * v for key, v in want.items() if c1 + c2}, (
                N, a, s, b, r,
            )


def test_commutator_examples():
    ctx = AlgebraCtx(4)
    assert commutator(ctx.y(), ctx.x()) == ctx.x(4)
    assert not commutator(ctx.x(), ctx.x(2))
    # [y, x^-1] = -x^{N-2}: the scalar -1 at N=2, -x at N=3
    loc2 = AlgebraCtx(2, True)
    assert commutator(loc2.y(), loc2.x(-1)) == loc2.scalar(-1)
    loc3 = AlgebraCtx(3, True)
    assert commutator(loc3.y(), loc3.x(-1)) == -loc3.x()
    for N in (2, 3, 4, 5):
        loc = AlgebraCtx(N, True)
        assert commutator(loc.y(), loc.x(-1)) == -loc.x(N - 2)


def test_ctx_mismatch():
    with pytest.raises(CtxMismatchError):
        AlgebraCtx(2).x() * AlgebraCtx(3).x()


def test_negative_x_exponent_guard():
    ctx = AlgebraCtx(3)
    with pytest.raises(ValueError):
        ctx.monomial(-1, 0)
    with pytest.raises(ValueError):
        ctx.monomial(0, -1)


def test_move_back_round_trip():
    # split x^i y^j with the right-moving rule, renormalize every piece with
    # the left-moving one, and land back on the monomial
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


def test_comm_move_right_against_pochhammer():
    # independent of add_word: x^i y^j = sum_t binom(j, t) (-i)_{N-1, j-t}
    # x^{(j-t)(N-1)} y^t x^i, also for negative i and N <= 1, which the round
    # trip above does not reach
    for N in range(6):
        for i in range(-6, 7):
            for j in range(7):
                expected = []
                for t in range(j + 1):
                    c = math.comb(j, t) * pochhammer_k(-i, N - 1, j - t)
                    if c:
                        expected.append((c, (j - t) * (N - 1), t))
                assert comm_move_right(i, j, N) == expected, (N, i, j)


def test_associativity_randomized():
    rng = random.Random(99)
    for N in range(1, 6):
        for localized in (False, True):
            if localized and N < 2:
                continue
            ctx = AlgebraCtx(N, localized)
            low = -2 if localized else 0
            for _ in range(20):
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


def test_degree_additivity():
    rng = random.Random(5)
    for N in (2, 3, 4, 5):
        ctx = AlgebraCtx(N)
        for _ in range(20):
            l1, l2 = rng.randint(0, 6), rng.randint(0, 6)
            a = sum(
                (ctx.monomial(i, j, rng.randint(1, 3)) for i, j in basis_of_degree(ctx, l1)),
                ctx.zero(),
            )
            b = sum(
                (ctx.monomial(i, j, rng.randint(1, 3)) for i, j in basis_of_degree(ctx, l2)),
                ctx.zero(),
            )
            if a and b:
                assert (a * b).degree() == l1 + l2


def test_filtration_level():
    rng = random.Random(6)
    ctx = AlgebraCtx(3)
    for _ in range(30):
        a = ctx.monomial(rng.randint(0, 3), rng.randint(0, 3))
        b = ctx.monomial(rng.randint(0, 3), rng.randint(0, 3))
        assert (a * b).level() <= a.level() + b.level()
    # y^i x^j lands on x^j y^i plus terms of strictly smaller level
    for i in range(5):
        for j in range(5):
            got = ctx.y(i) * ctx.x(j)
            rest = got - ctx.monomial(j, i)
            assert not rest or rest.level() <= i - 1, (i, j)


def test_basis_of_degree():
    ctx = AlgebraCtx(3)
    assert basis_of_degree(ctx, 2) == [(2, 0), (0, 1)]
    assert basis_of_degree(AlgebraCtx(2), 0) == [(0, 0)]
    assert basis_of_degree(ctx, -1) == []
    loc = AlgebraCtx(3, True)
    assert basis_of_degree(loc, 0, i_min=-2) == [(0, 0), (-2, 1)]
    with pytest.raises(ValueError):
        basis_of_degree(loc, 0)


def test_hilbert_counts():
    assert hilbert_count(AlgebraCtx(3), 0, 4) == [1, 1, 2, 2, 3]
    assert hilbert_count(AlgebraCtx(2), 0, 3) == [1, 2, 3, 4]
    assert hilbert_count(AlgebraCtx(4), -1, -1) == [0]


def test_hilbert_series_product_form():
    # coefficients of 1/((1-t)(1-t^{N-1})) by direct series expansion
    for N in (2, 3, 4, 5):
        hi = 12
        series = [0] * (hi + 1)
        for a in range(hi + 1):
            for b in range(0, hi + 1, N - 1):
                if a + b <= hi:
                    series[a + b] += 1
        assert hilbert_count(AlgebraCtx(N), 0, hi) == series


def test_phi_element_examples():
    for N in range(1, 7):
        assert phi_element(AlgebraCtx(N), 1) == AlgebraCtx(N).y()
    ctx2 = AlgebraCtx(2)
    assert phi_element(ctx2, 3) == ctx2.monomial(0, 3, Fraction(1, 3)) - ctx2.monomial(1, 2)
    ctx3 = AlgebraCtx(3)
    expected = ctx3.monomial(0, 2, Fraction(1, 2)) + ctx3.monomial(2, 1, Fraction(-3, 2))
    assert phi_element(ctx3, 2) == expected


def test_phi_element_bracket_property():
    for N in range(2, 7):
        ctx = AlgebraCtx(N)
        for j in range(1, 11):
            ph = phi_element(ctx, j)
            assert ph.degree() == j * (N - 1)
            assert all(yexp >= 1 for (_, yexp) in ph.terms)
            assert commutator(ph, ctx.x()) == ctx.monomial(N, j - 1)


def test_phi_element_n2_closed_form():
    # (y^j - j x y^{j-1})/j for j >= 2; at j = 1 the canonical representative
    # in Ay is y itself (the x-term of the closed form has the same bracket
    # with x but leaves Ay)
    ctx = AlgebraCtx(2)
    assert phi_element(ctx, 1) == ctx.y()
    for j in range(2, 11):
        closed = (ctx.monomial(0, j) - ctx.monomial(1, j - 1, j)) / j
        assert phi_element(ctx, j) == closed


def test_power_examples():
    ctx = AlgebraCtx(2)
    assert power(ctx.x(), 5) == ctx.x(5)
    assert power(ctx.y(), 2) == ctx.y(2)
    assert power(ctx.x() + ctx.y(), 0) == ctx.one()
    # (x + y)^2 expanded term by term: xx + xy + yx + yy
    lhs = power(ctx.x() + ctx.y(), 2)
    rhs = ctx.zero()
    for first in (ctx.x(), ctx.y()):
        for second in (ctx.x(), ctx.y()):
            rhs = rhs + first * second
    assert lhs == rhs


def test_sum_of_sandwiches_identity():
    # sum_{s+1+t=N} x^s u x^t - N x^{N-1} u = [sum_{s+2+t=N} (s+1) x^s u x^t, x]
    rng = random.Random(17)
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for _ in range(20):
            u = ctx.zero()
            for _ in range(rng.randint(1, 4)):
                u = u + ctx.monomial(
                    rng.randint(0, 3), rng.randint(0, 4),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
            lhs = sum((ctx.x(s) * u * ctx.x(N - 1 - s) for s in range(N)), ctx.zero())
            lhs = lhs - ctx.monomial(N - 1, 0, N) * u
            inner = sum(
                ((s + 1) * (ctx.x(s) * u * ctx.x(N - 2 - s)) for s in range(N - 1)),
                ctx.zero(),
            )
            assert lhs == commutator(inner, ctx.x())


def test_centralizer_of_x_per_degree():
    # in degree l the kernel of u -> [u, x] is spanned by x^l (dimension 1
    # whenever the pure x-power exists, i.e. for every l >= 0)
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for l in range(11):
            basis = basis_of_degree(ctx, l)
            images = [commutator(ctx.monomial(i, j), ctx.x()) for i, j in basis]
            keys = sorted({k for img in images for k in img.terms})
            index = {k: r for r, k in enumerate(keys)}
            rows = [[Fraction(0)] * len(basis) for _ in keys]
            for col, img in enumerate(images):
                for key, c in img.terms.items():
                    rows[index[key]][col] = c
            null = nullspace(rows, len(basis), ctx.field)
            assert len(null) == 1
            vec = null[0]
            nonzero = [basis[k] for k, c in enumerate(vec) if c]
            assert nonzero == [(l, 0)]


def test_normal_order_power_examples():
    loc3 = AlgebraCtx(3, True)
    assert normal_order_power(loc3, 0) == loc3.one()
    assert normal_order_power(loc3, 1) == loc3.monomial(-2, 1, Fraction(1, 2))
    loc2 = AlgebraCtx(2, True)
    assert normal_order_power(loc2, 2) == loc2.monomial(-2, 2)
    with pytest.raises(ValueError):
        normal_order_power(AlgebraCtx(1, True), 1)


def test_normal_order_powers_multiply():
    # the generator z = x^{-N+1}/(N-1) satisfies [z, y] = 1, so the plain
    # square of zy differs from the normal-ordered square by one reordering
    for N in (2, 3, 4):
        loc = AlgebraCtx(N, True)
        z = loc.monomial(-N + 1, 0, Fraction(1, N - 1))
        assert commutator(z, loc.y()) == loc.one()
        zy = normal_order_power(loc, 1)
        assert zy * zy == normal_order_power(loc, 2) - zy


def test_laguerre_identity():
    assert laguerre_identity_check(AlgebraCtx(3, True), 0, 3)
    assert laguerre_identity_check(AlgebraCtx(2, True), 1, 1)
    assert laguerre_identity_check(AlgebraCtx(4, True), 2, 2)


def test_element_json_round_trip():
    ctx = AlgebraCtx(2)
    elt = ctx.monomial(2, 1)
    blob = elt.to_json()
    assert blob == {
        "N": 2,
        "localized": False,
        "field": {"cyclo_order": 1},
        "terms": [{"xexp": 2, "yexp": 1, "coeff": "1/1"}],
    }
    assert Element.from_json(json.loads(json.dumps(blob))) == elt


def test_element_json_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(100):
        order = rng.choice([1, 1, 2, 3, 4])
        localized = rng.random() < 0.3
        ctx = AlgebraCtx(rng.randint(0, 4), localized, CycloField(order))
        elt = ctx.zero()
        for _ in range(rng.randint(0, 4)):
            coeff = ctx.field.from_coeffs(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ctx.field.degree)]
            )
            elt = elt + ctx.monomial(rng.randint(-2 if localized else 0, 4), rng.randint(0, 4), coeff)
        assert Element.from_json(json.loads(json.dumps(elt.to_json()))) == elt


def test_element_json_bad_coeff():
    from xnalg.scalars import SchemaError

    data = {"N": 2, "localized": False, "terms": [{"xexp": 0, "yexp": 0, "coeff": "1/0"}]}
    with pytest.raises(SchemaError):
        Element.from_json(data)


def test_render_element():
    ctx = AlgebraCtx(2)
    elt = ctx.monomial(2, 1, Fraction(3, 2)) - ctx.monomial(0, 0, 1)
    assert render_element(elt) == "-1 + 3/2*x^2*y"
    assert render_element(ctx.zero()) == "0"


def _oracle_power(a, k):
    """a^k expanded over every k-tuple of terms, each word normalized by the
    rewriting oracle (the one empty tuple gives a^0 = 1)."""
    ctx = a.ctx
    out = ctx.zero()
    for combo in itertools.product(a.terms.items(), repeat=k):
        c, word = ctx.field.one, ()
        for (i, j), cc in combo:
            c, word = c * cc, word + monomial_word(i, j)
        table = brute_normalize(word, ctx.N)
        out = out + Element(ctx, {key: c * v for key, v in table.items()})
    return out


def test_power_by_left_multiplication_matches_squaring_and_the_oracle():
    rng = random.Random(27)
    T = QPoly.gen()
    rings = [
        (AlgebraCtx(2), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (AlgebraCtx(3), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (AlgebraCtx(3, True), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (AlgebraCtx(3, False, CycloField(3)),
         lambda: CycloField(3).from_coeffs([rng.randint(-2, 2), Fraction(1, rng.randint(1, 3))])),
        (AlgebraCtx(2, False, PolyRing()), lambda: QPoly((rng.randint(-2, 2), 1)) * T),
    ]
    for ctx, coeff in rings:
        low = -2 if ctx.localized else 0
        for _ in range(4):
            a = ctx.zero()
            for _ in range(rng.randint(2, 3)):
                a = a + ctx.monomial(rng.randint(low, 2), rng.randint(0, 1), coeff())
            squared = {k: repeated_squaring(a, k, ctx.one()) for k in (0, 1, 2, 3, 9)}
            for k, want in squared.items():
                assert power(a, k) == want, (ctx, a, k)
            for k in (0, 1, 2, 3):
                assert power(a, k) == _oracle_power(a, k), (ctx, a, k)
    ctx = AlgebraCtx(3)
    a = Fraction(1, 2) * ctx.one() + ctx.x() - Fraction(2, 3) * ctx.y()
    assert power(a, 20) == repeated_squaring(a, 20, ctx.one())


def test_power_of_a_pure_monomial_stays_one_term_at_any_exponent(monkeypatch):
    ctx = AlgebraCtx(3, True)
    products = []

    def counted(a, b):
        products.append((a, b))
        return normalize_product(a, b)

    monkeypatch.setattr(ncalg, "normalize_product", counted)
    cases = [
        (ctx.x(), 10**8, ctx.x(10**8)),
        (ctx.x(-1), 10**6, ctx.x(-(10**6))),
        (ctx.monomial(0, 2, Fraction(-1, 2)), 41, ctx.monomial(0, 82, Fraction(-1, 2**41))),
        (ctx.zero(), 10**6, ctx.zero()),
        (ctx.zero(), 0, ctx.one()),
    ]
    for base, k, want in cases:
        products.clear()
        assert power(base, k) == want
        # squared: a product per bit of the exponent, not one per unit
        assert len(products) <= 2 * k.bit_length(), (base, k)
    # a one-term base with both letters grows and is multiplied on the left
    xy = ctx.monomial(1, 1)
    assert power(xy, 12) == repeated_squaring(xy, 12, ctx.one())


def test_products_over_q_on_numerators_keep_their_types():
    ctx = AlgebraCtx(3)
    rng = random.Random(31)

    def word_by_word(a, b):
        out = ctx.zero()
        for (i1, j1), c1 in a.terms.items():
            for (i2, j2), c2 in b.terms.items():
                table = brute_normalize(monomial_word(i1, j1) + monomial_word(i2, j2), ctx.N)
                out = out + Element(ctx, {key: c1 * c2 * v for key, v in table.items()})
        return out

    for _ in range(20):
        a = Element(ctx, {(rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          for _ in range(4)})
        b = Element(ctx, {(rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          for _ in range(4)})
        got = normalize_product(a, b)
        assert got == word_by_word(a, b)
        for c in got.terms.values():
            assert type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
    # int-only operands give int coefficients, whatever their size
    a = Element(ctx, {(0, 1): 2, (1, 0): -3, (2, 1): 5})
    b = Element(ctx, {(1, 1): 7, (0, 0): 1})
    got = normalize_product(a, b)
    assert got == word_by_word(a, b)
    assert {type(c) for c in got.terms.values()} == {int}
    # a Fraction in first place puts the whole product on numerators
    mixed = Element(ctx, {(0, 1): Fraction(1, 2), (1, 0): 3})
    assert {type(c) for c in normalize_product(mixed, a).terms.values()} == {Fraction}
    assert normalize_product(mixed, a) == word_by_word(mixed, a)


def test_power_cost_covers_the_words_of_every_step():
    # the estimate is at least the words that a^(i+1) = a * a^i, i < k, makes:
    # x^i1 y^j1 * x^i2 y^j2 rewrites y^j1 x^i2 into up to j1 + 1 words (one
    # when i2 = 0), however the base mixes x, y and (localized) x^-1
    rng = random.Random(28)
    contexts = [AlgebraCtx(n) for n in range(5)] + [AlgebraCtx(3, True), AlgebraCtx(2, False, CycloField(3))]
    for ctx in contexts:
        low = -2 if ctx.localized else 0
        for _ in range(6):
            a = ctx.zero()
            while len(a.terms) < 2:
                a = a + ctx.monomial(rng.randint(low, 3), rng.randint(0, 2), rng.choice([1, 2, Fraction(-1, 3)]))
            out, words = a, 0
            for k in range(2, 9):
                words += sum(j1 + 1 if i2 else 1 for (_, j1) in a.terms for (i2, _) in out.terms)
                assert ncalg._power_cost(a, k) >= words, (ctx, a, k)
                out = normalize_product(a, out)


def test_power_budget_refuses_before_any_product(monkeypatch):
    ctx = AlgebraCtx(3)
    products = []
    monkeypatch.setattr(ncalg, "normalize_product", lambda a, b: products.append(1))
    for base, k in ((ctx.one() + ctx.y(), 2000), (ctx.one() + ctx.x(), 2000),
                    (ctx.x() + ctx.y(), 150), (ctx.monomial(1, 1), 10**5)):
        with pytest.raises(ValueError, match=r"above the power budget of 1000000$"):
            power(base, k)
    assert products == []
    assert ncalg._power_cost(ctx.x() + ctx.y(), 60) <= ncalg.MAX_POWER_COST


def test_product_cost_covers_the_words_and_refuses_before_the_product(monkeypatch):
    # x^i1 y^j1 * x^i2 y^j2 rewrites y^j1 x^i2 into up to j1 + 1 words (one
    # when i2 = 0); the estimate is at least the words of the product
    rng = random.Random(29)
    contexts = [AlgebraCtx(n) for n in range(5)] + [AlgebraCtx(3, True), AlgebraCtx(2, False, CycloField(3))]
    for ctx in contexts:
        low = -2 if ctx.localized else 0
        for _ in range(12):
            a, b = (sum((ctx.monomial(rng.randint(low, 4), rng.randint(0, 3), rng.choice([1, -2, Fraction(5, 3)]))
                         for _ in range(rng.randint(1, 4))), ctx.zero()) for _ in range(2))
            if not a or not b:
                continue
            words = sum(j1 + 1 if i2 else 1 for (_, j1) in a.terms for (i2, _) in b.terms)
            assert ncalg._product_cost(a, b) >= words, (ctx, a, b)
            assert ncalg.product(a, b) == normalize_product(a, b)
    ctx = AlgebraCtx(3)
    big = power(ctx.x() + ctx.y(), 40)
    products, real = [], ncalg.normalize_product
    monkeypatch.setattr(ncalg, "normalize_product", lambda a, b: products.append(1) or real(a, b))
    for a, b in ((big, big), (ctx.y(2000), big)):
        with pytest.raises(ValueError, match=r"above the product budget of 1000000$"):
            ncalg.product(a, b)
    # zero and a single word are exempt
    assert ncalg.product(ctx.zero(), big) == ctx.zero()
    assert ncalg.product(ctx.y(3), ctx.x(2)) == ctx.y(3) * ctx.x(2)
    assert len(products) == 3


def test_power_cost_counts_the_rewrite_bits_of_the_base():
    # a = x y^2 + x at N = 3, k = 10: terms 2559 (p = 4, q = 2, n = 9), words
    # 2 * 3, and bits 10 (0 + 1 + 2 (log2(10 (1 + 2 * 2) + 1) + 1)) = 10 (1 + 14)
    # = 150, so the cost is 6 * 2559 * (1000^2 + 150^2) // 1000^2
    ctx = AlgebraCtx(3)
    a = ctx.monomial(1, 2) + ctx.x()
    assert ncalg._power_cost(a, 10) == 6 * 2559 * (1000**2 + 150**2) // 1000**2 == 15699
    # a base without y rewrites nothing: x^2 + x has terms 45 + 9, words 2 and
    # bits 10 (0 + 1), with no rewrite bits
    assert ncalg._power_cost(ctx.x(2) + ctx.x(), 10) == 2 * 54 * (1000**2 + 10**2) // 1000**2


def test_budgets_refuse_past_their_edge_and_exempt_scalars(monkeypatch):
    # a cost at the budget is accepted and one unit above it is refused, for
    # the product and the power estimate alike
    ctx = AlgebraCtx(3)
    a, b = ctx.monomial(1, 2) + ctx.x(), ctx.x() + ctx.y()
    expected = normalize_product(a, b)
    cost = ncalg._product_cost(a, b)
    monkeypatch.setattr(ncalg, "MAX_POWER_COST", cost)
    assert ncalg.product(a, b) == expected
    monkeypatch.setattr(ncalg, "MAX_POWER_COST", cost - 1)
    with pytest.raises(ValueError, match=rf"estimated cost of {cost}, above the product budget of {cost - 1}$"):
        ncalg.product(a, b)
    cost = ncalg._power_cost(a, 10)
    monkeypatch.setattr(ncalg, "MAX_POWER_COST", cost)
    assert power(a, 10) == repeated_squaring(a, 10, ctx.one())
    monkeypatch.setattr(ncalg, "MAX_POWER_COST", cost - 1)
    with pytest.raises(ValueError, match=rf"estimated cost of {cost}, above the power budget of {cost - 1}$"):
        power(a, 10)
    # a scalar or zero factor multiplies even with no budget left
    monkeypatch.setattr(ncalg, "MAX_POWER_COST", 0)
    three = ctx.scalar(3)
    assert ncalg.product(three, b) == ncalg.product(b, three) == b + b + b
    assert ncalg.product(ctx.zero(), b) == ncalg.product(b, ctx.zero()) == ctx.zero()
    with pytest.raises(ValueError, match=r"above the product budget of 0$"):
        ncalg.product(three + ctx.x(), b)
