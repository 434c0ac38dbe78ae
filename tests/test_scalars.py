import json
import random
from fractions import Fraction

import pytest

from xnalg.scalars import (
    CycloField,
    CycloScalar,
    FieldMismatchError,
    QPoly,
    SchemaError,
    cyclo_primitive_root,
    cyclotomic_polynomial,
    euler_phi,
    scalar_from_json,
    scalar_to_json,
)
from xnalg.sequences import bernoulli

from oracles import cyclo_reduce, euclid_inverse, poly_divmod, schoolbook_mul
from polys import MPoly, TruncSeries, series_from_coeff_rule


def test_cyclotomic_small_values():
    assert cyclotomic_polynomial(1) == QPoly((-1, 1))
    assert cyclotomic_polynomial(4) == QPoly((1, 0, 1))
    assert cyclotomic_polynomial(6) == QPoly((1, -1, 1))


def test_cyclotomic_product_over_divisors():
    # q^n - 1 factors exactly into the cyclotomic polynomials of the divisors
    for n in range(1, 21):
        product = QPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == QPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_degree_is_totient():
    for n in range(1, 21):
        assert cyclotomic_polynomial(n).degree() == euler_phi(n)


def test_qpoly_divmod_against_long_division_oracle():
    rng = random.Random(7)
    for _ in range(25):
        num = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        den = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        if not den:
            continue
        quo, rem = divmod(num, den)
        oq, orem = poly_divmod(num.coeffs, den.coeffs)
        assert quo == QPoly(oq)
        assert rem == QPoly(orem)


def test_primitive_root_orders():
    for n in range(1, 13):
        z = cyclo_primitive_root(n)
        acc = z ** 0
        for k in range(1, n):
            acc = acc * z
            assert acc != 1, (n, k)
        assert acc * z == 1


def test_primitive_root_examples():
    assert cyclo_primitive_root(2) == -1
    z4 = cyclo_primitive_root(4)
    assert z4 * z4 == -1
    z3 = cyclo_primitive_root(3)
    assert z3 * z3 + z3 + 1 == 0


def _random_scalar(rng, field):
    return field.from_coeffs(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(field.degree)]
    )


def test_field_axioms_randomized():
    rng = random.Random(20240901)
    for n in range(1, 13):
        field = CycloField(n)
        for _ in range(12):
            a, b, c = (_random_scalar(rng, field) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if b:
                assert (a / b) * b == a
            assert a + field.zero == a
            assert a * field.one == a


def test_scalar_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    z4 = cyclo_primitive_root(4)
    assert z4 * z4 == -1
    z3 = cyclo_primitive_root(3)
    # multiply-then-reduce oracle: (1 + z)(1 + z^2) with z^2 = -1 - z
    lhs = (1 + z3) * (1 + z3 * z3)
    field = CycloField(3)
    raw = [Fraction(1), Fraction(1)]  # 1 + z
    other = [Fraction(0), Fraction(0), Fraction(1)]  # z^2 before reduction
    prod = [Fraction(0)] * 4
    for i, ca in enumerate(raw):
        prod[i] += ca  # times 1
        for j, cb in enumerate(other):
            if cb:
                prod[i + j] += ca * cb
    _, rem = poly_divmod(prod, cyclotomic_polynomial(3).coeffs)
    assert lhs == field.from_coeffs(rem)


def test_cyclo_arithmetic_against_schoolbook_and_euclid():
    # every operand kind on both sides - general, rational-valued, zero, int
    # and Fraction - against the Fraction schoolbook product with long
    # division by the modulus and the extended Euclid inverse, over degree 1
    # (n = 2), prime and composite orders
    rng = random.Random(90210)
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16):
        field = CycloField(n)
        d = field.degree

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

        def operand(kind):
            if kind == "general":
                coords = [rational() if rng.random() < 0.8 else Fraction(0) for _ in range(d)]
                coords[-1] = coords[-1] or Fraction(1, 3)
                return field.from_coeffs(coords)
            if kind == "rational":
                return field.coerce(rational())
            if kind == "zero":
                return field.zero
            if kind == "int":
                return rng.randint(-7, 7)
            return rational()

        def coords(value):
            if isinstance(value, CycloScalar):
                return value.coeffs
            return cyclo_reduce(field, [value])

        def check(got, want):
            assert isinstance(got, CycloScalar) and got.field is field
            assert got.coeffs == tuple(want), (n, got, want)
            assert all(type(c) is Fraction for c in got.coeffs), got
            if not any(got.coeffs[1:]):
                assert hash(got) == hash(got.coeffs[0])

        kinds = ("general", "rational", "zero", "int", "fraction")
        for _ in range(12):
            for left in kinds:
                for right in kinds:
                    if left in ("int", "fraction") and right in ("int", "fraction"):
                        continue
                    a, b = operand(left), operand(right)
                    ca, cb = coords(a), coords(b)
                    check(a * b, schoolbook_mul(field, ca, cb))
                    check(a + b, [x + y for x, y in zip(ca, cb)])
                    check(a - b, [x - y for x, y in zip(ca, cb)])
                    if any(cb):
                        check(a / b, schoolbook_mul(field, ca, euclid_inverse(field, cb)))
                    else:
                        with pytest.raises(ZeroDivisionError):
                            a / b
            a = operand(rng.choice(("general", "rational")))
            if a:
                check(a.inverse(), euclid_inverse(field, a.coeffs))
            with pytest.raises(ZeroDivisionError):
                field.zero.inverse()


def test_equal_scalars_hash_alike():
    # a rational value in Q(zeta_n) or a constant QPoly equals its Fraction,
    # so sets and dicts must treat the two as one key
    half = Fraction(1, 2)
    for n in (2, 3, 5, 6):
        fld = CycloField(n)
        for q in (half, Fraction(0), Fraction(-3)):
            a = fld.coerce(q)
            assert a == q
            assert len({a, q}) == 1 and len({q, a}) == 1, (n, q)
            assert {q: "q"}[a] == "q" and {a: "a"}[q] == "a"
        assert len({fld.coerce(3), 3, Fraction(3)}) == 1
        assert len({fld.zeta, fld.zeta * 1, fld.one}) == 2
    for value in (half, Fraction(0), Fraction(7)):
        p = QPoly((value,))
        assert p == value
        assert len({p, value}) == 1 and {value: 1}[p] == 1, value
    assert len({QPoly(), 0}) == 1
    assert len({QPoly((1, 2)), QPoly((1, 2)), Fraction(1)}) == 2


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        cyclo_primitive_root(3) + cyclo_primitive_root(4)


def test_division_by_zero_scalar():
    z = cyclo_primitive_root(5)
    with pytest.raises(ZeroDivisionError):
        z / (z - z)


def test_series_from_rule_examples():
    ones = series_from_coeff_rule(lambda k: Fraction(1 if k == 0 else 0), 5)
    assert list(ones.coeffs) == [1, 0, 0, 0, 0]
    import math

    expo = series_from_coeff_rule(lambda k: Fraction(1, math.factorial(k)), 4)
    assert list(expo.coeffs) == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    bern = series_from_coeff_rule(lambda k: bernoulli(k) / math.factorial(k), 4)
    # t/(e^t - 1): divide the constant series 1 by (e^t - 1)/t
    denom = series_from_coeff_rule(lambda k: Fraction(1, math.factorial(k + 1)), 4)
    one = series_from_coeff_rule(lambda k: Fraction(1 if k == 0 else 0), 4)
    assert bern == one / denom


def test_series_arith_examples():
    one_plus = TruncSeries(3, [Fraction(1), Fraction(1), Fraction(0)])
    one_minus = TruncSeries(3, [Fraction(1), Fraction(-1), Fraction(0)])
    assert list((one_plus * one_minus).coeffs) == [1, 0, -1]
    one = series_from_coeff_rule(lambda k: Fraction(1 if k == 0 else 0), 4)
    geom = one / TruncSeries(4, [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
    assert list(geom.coeffs) == [1, 1, 1, 1]


def test_series_division_inverts_multiplication():
    rng = random.Random(11)
    for _ in range(20):
        order = rng.randint(1, 8)
        a = TruncSeries(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order)])
        b_coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order)]
        b_coeffs[0] = Fraction(rng.choice([1, 2, -1, 3]))
        b = TruncSeries(order, b_coeffs)
        assert (a * b) / b == a
        assert (a / b) * b == a


def test_series_division_needs_unit():
    a = TruncSeries(3, [Fraction(1), Fraction(0), Fraction(0)])
    b = TruncSeries(3, [Fraction(0), Fraction(1), Fraction(0)])
    with pytest.raises(ZeroDivisionError):
        a / b


def test_mpoly_basic_identities():
    a = MPoly.var(2, 0)
    b = MPoly.var(2, 1)
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b


def test_scalar_json_round_trip():
    field = CycloField(6)
    value = field.from_coeffs([Fraction(3, 7), Fraction(-2)])
    blob = json.dumps(scalar_to_json(value))
    assert scalar_from_json(json.loads(blob), field) == value
    rational = Fraction(-5, 9)
    assert scalar_from_json(scalar_to_json(rational), CycloField(1)) == rational


def test_scalar_json_rejects_zero_denominator():
    with pytest.raises(SchemaError):
        scalar_from_json("1/0", CycloField(1))


def test_rational_canonical_encoding():
    assert scalar_to_json(Fraction(2, 4)) == "1/2"
    assert scalar_to_json(Fraction(3)) == "3/1"
