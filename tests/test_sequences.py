import math
from fractions import Fraction

import pytest

from xnalg import sequences
from xnalg.scalars import CycloScalar, QPoly, cyclo_primitive_root
from xnalg.sequences import (
    bernoulli,
    c_eval,
    c_poly,
    falling_binomial,
    gaussian_binomial,
    gregory,
    laguerre_poly,
    pochhammer_k,
    q_pascal_row,
)

from polys import MPoly, series_from_coeff_rule


def double_factorial(m: int) -> int:
    """m!! with the convention 1 for m <= 0."""
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result

# the published tables of the two number sequences
BERNOULLI_TABLE = [
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
    Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30), Fraction(0), Fraction(5, 66),
]
GREGORY_TABLE = [
    Fraction(1), Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24), Fraction(-19, 720),
    Fraction(3, 160), Fraction(-863, 60480), Fraction(275, 24192),
    Fraction(-33953, 3628800), Fraction(8183, 1036800), Fraction(-3250433, 479001600),
]


def test_bernoulli_table():
    assert [bernoulli(n) for n in range(11)] == BERNOULLI_TABLE


def test_gregory_table():
    assert [gregory(n) for n in range(11)] == GREGORY_TABLE


def test_pochhammer_examples():
    assert pochhammer_k(Fraction(5), Fraction(3), 0) == 1
    assert pochhammer_k(2, 1, 3) == 24
    x = MPoly.var(2, 0)
    k = MPoly.var(2, 1)
    assert pochhammer_k(x, k, 2) == x * (x + k)
    assert pochhammer_k(x, k, 3) == x * (x + k) * (x + 2 * k)


def test_c_poly_small_values():
    q = QPoly.gen()
    assert c_poly(0) == QPoly.one()
    assert c_poly(1) == -Fraction(1, 2) * q - Fraction(1, 2)
    assert c_poly(2) == -Fraction(1, 6) * q ** 2 + Fraction(1, 6)
    assert c_poly(4) == -Fraction(19, 30) * q ** 4 + Fraction(2, 3) * q ** 2 - Fraction(1, 30)


def test_c_poly_structure():
    # degree j, leading coefficient (-1)^j j! G_j, constant term B_j
    for j in range(31):
        poly = c_poly(j)
        assert poly.degree() == j
        assert poly.lead() == (-1) ** j * math.factorial(j) * gregory(j)
        assert poly.const() == bernoulli(j)


def test_c_poly_satisfies_the_pochhammer_recurrence():
    # sum_{i<=j} (1)_{q,j+1-i}/(j+1-i)! * c_i(q)/i! = [j == 0], with the
    # Pochhammer symbol (1)_{q,r} = prod_{s<r} (1 + s q) written out here
    q = QPoly.gen()
    weights = []
    for r in range(32):
        poch = QPoly.one()
        for s in range(r):
            poch = poch * (QPoly.one() + s * q)
        weights.append(poch / math.factorial(r))
    for j in range(31):
        total = QPoly.zero()
        for i in range(j + 1):
            total = total + weights[j + 1 - i] * c_poly(i) / math.factorial(i)
        assert total == (QPoly.one() if j == 0 else QPoly.zero()), j


def test_gregory_nonzero():
    assert all(gregory(j) for j in range(31))


def test_c_eval_specializations():
    # at q = 1 the generating function is 1 - t
    assert c_eval(0, Fraction(1)) == 1
    assert c_eval(1, Fraction(1)) == -1
    for j in range(2, 10):
        assert c_eval(j, Fraction(1)) == 0
    # at q = 2 the coefficients involve double factorials
    assert c_eval(1, Fraction(2)) == Fraction(-3, 2)
    for j in range(2, 10):
        assert c_eval(j, Fraction(2)) == -Fraction(double_factorial(2 * j - 3), 2)
    # the constant term is the Bernoulli number
    assert c_eval(1, Fraction(0)) == Fraction(-1, 2)


def test_c_eval_matches_the_polynomial_table_without_filling_it(monkeypatch):
    # the recurrence run on values at a point gives the values of the
    # polynomials there, and never touches the polynomial table
    points = [Fraction(0), *map(Fraction, range(1, 7)), Fraction(1, 2), Fraction(-3, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_cpolys", [QPoly.one()])
        patch.setattr(sequences, "_cweights", [QPoly.one()])
        patch.setattr(sequences, "_cpoints", {})
        values = {(j, q0): c_eval(j, q0) for q0 in reversed(points) for j in range(41)}
        assert sequences._cpolys == [QPoly.one()]
        assert sequences._cweights == [QPoly.one()]
    for (j, q0), value in values.items():
        assert type(value) is Fraction
        assert value == c_poly(j).eval(q0), (j, q0)
    with pytest.raises(ValueError, match="c_eval index 41 is above the budget of 40"):
        c_eval(41, 1)


def test_c_eval_keeps_a_bounded_number_of_points(monkeypatch):
    monkeypatch.setattr(sequences, "_cpoints", {})
    for q0 in range(3 * sequences.MAX_C_POINTS):
        assert c_eval(3, q0) == c_poly(3).eval(Fraction(q0))
        assert len(sequences._cpoints) <= sequences.MAX_C_POINTS
    assert c_eval(3, 0) == c_poly(3).eval(Fraction(0))


def test_c_eval_refuses_points_that_are_not_rational(monkeypatch):
    # a float would be read as its binary fraction, and a Q(zeta_n) point has
    # no table; c_poly(j).eval takes either
    monkeypatch.setattr(sequences, "_cpoints", {})
    zeta = cyclo_primitive_root(3)
    for q0, name in ((0.5, "float"), (zeta, "CycloScalar")):
        with pytest.raises(ValueError, match=f"c_eval takes an int or Fraction point, not {name}"):
            c_eval(2, q0)
    assert sequences._cpoints == {}


def test_generating_function_identity():
    # sum c_j(q) t^j / j!  times  sum (1)_{q, j+1} t^j / (j+1)!  equals 1
    q = QPoly.gen()
    for order in (6, 16):
        left = series_from_coeff_rule(lambda k: c_poly(k) / math.factorial(k), order)
        right = series_from_coeff_rule(
            lambda k: pochhammer_k(QPoly.one(), q, k + 1) / math.factorial(k + 1), order
        )
        one = series_from_coeff_rule(
            lambda k: QPoly.one() if k == 0 else QPoly.zero(), order
        )
        assert left * right == one


def test_zhu_vandermonde_identity():
    # sum_i (a)_{k, j-i}/(j-i)! (b)_{k, i}/i! = (a+b)_{k, j}/j! in Q[a, b, k]
    a = MPoly.var(3, 0)
    b = MPoly.var(3, 1)
    k = MPoly.var(3, 2)
    for j in range(11):
        lhs = MPoly(3)
        for i in range(j + 1):
            lhs = lhs + pochhammer_k(a, k, j - i) * pochhammer_k(b, k, i) / (
                math.factorial(j - i) * math.factorial(i)
            )
        assert lhs == pochhammer_k(a + b, k, j) / math.factorial(j)


def test_laguerre_examples():
    t = QPoly.gen()
    assert laguerre_poly(0, Fraction(7, 3)) == QPoly.one()
    alpha = Fraction(5, 2)
    assert laguerre_poly(1, alpha) == (1 + alpha) - t
    for j in range(6):
        assert laguerre_poly(j, Fraction(-j)) == (-1) ** j * t ** j / math.factorial(j)


def test_laguerre_leading_coefficient():
    for j in range(8):
        poly = laguerre_poly(j, Fraction(3, 4))
        assert poly.degree() == j
        assert poly.lead() == Fraction((-1) ** j, math.factorial(j))


def test_laguerre_differential_equation():
    # t u'' + (alpha + 1 - t) u' + j u = 0
    t = QPoly.gen()
    for j in range(6):
        alpha = Fraction(2, 3)
        u = laguerre_poly(j, alpha)
        lhs = t * u.deriv().deriv() + ((alpha + 1) - t) * u.deriv() + j * u
        assert not lhs


def test_gaussian_binomial_examples():
    q = QPoly.gen()
    assert gaussian_binomial(2, 1) == 1 + q
    assert gaussian_binomial(4, 2) == (1 + q ** 2) * (1 + q + q ** 2)
    assert gaussian_binomial(7, 0) == QPoly.one()
    assert gaussian_binomial(4, 2, at=cyclo_primitive_root(4)) == 0


def test_gaussian_binomial_counts_at_one():
    for k in range(8):
        for i in range(k + 1):
            assert gaussian_binomial(k, i, at=Fraction(1)) == math.comb(k, i)


def test_q_pascal_row_is_the_row_of_gaussian_binomials():
    # one row per scalar: entry i is binom(k, i)_q, as a polynomial and as a
    # value, in the scalar's own ring (an int stays an int); at a primitive
    # n-th root of unity the inner entries of row n vanish
    for k in range(7):
        row = q_pascal_row(k)
        assert len(row) == k + 1 and row[0] == row[-1] == QPoly.one()
        for i in range(k + 1):
            assert row[i] == gaussian_binomial(k, i)
            for at in (2, Fraction(-1, 3), cyclo_primitive_root(5)):
                entry = q_pascal_row(k, at)[i]
                assert entry == gaussian_binomial(k, i, at=at)
                assert type(entry) is type(at)
        assert q_pascal_row(k, 1) == [math.comb(k, i) for i in range(k + 1)]
    for n in range(2, 9):
        z = cyclo_primitive_root(n)
        assert not any(q_pascal_row(n, z)[1:-1]) and not any(q_pascal_row(n, 1 / z)[1:-1])
        assert all(type(c) is CycloScalar for c in q_pascal_row(n, z))


def test_gaussian_binomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_cauchy_q_binomial_theorem():
    # prod_{i<n} (y + z q^i) = sum_i q^binom(i,2) binom(n,i)_q y^{n-i} z^i
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
            term = MPoly.constant(3, 0)
            for dgr, c in enumerate(binom.coeffs):
                term = term + c * q ** dgr
            rhs = rhs + q ** math.comb(i, 2) * term * y ** (n - i) * z ** i
        assert lhs == rhs


def test_faulhaber_sums():
    # (B_p(n) - B_p)/p = sum_{k<n} k^{p-1}, with B_p(t) built from bernoulli()
    for p in range(1, 9):
        coeffs = [math.comb(p, i) * bernoulli(i) for i in range(p + 1)]
        for n in range(21):
            value = sum(c * Fraction(n) ** (p - i) for i, c in enumerate(coeffs))
            assert (value - bernoulli(p)) / p == sum(Fraction(k) ** (p - 1) for k in range(n))


def test_falling_binomial_matches_comb():
    for top in range(8):
        for m in range(8):
            assert falling_binomial(Fraction(top), m) == math.comb(top, m) if m <= top else True


def test_falling_binomial_is_a_fraction():
    # the empty product at m = 0 must not turn into a float
    for m in range(4):
        assert type(falling_binomial(Fraction(7, 3), m)) is Fraction, m
    assert falling_binomial(Fraction(7, 3), 0) == 1
