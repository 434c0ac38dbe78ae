"""Special sequences and polynomial families: Pochhammer k-symbols, Bernoulli
numbers, Gregory coefficients, the q-Bernoulli polynomials c_j(q), generalized
Laguerre polynomials, and Gaussian q-binomials.

All values are exact.  The caches are private to the module, and a lock keeps
concurrent population safe (recomputation would give the same values anyway).
Tables only grow, except the values c_j(q0): one table per rational point q0,
at most MAX_C_POINTS of them (oldest dropped first), filled by one recurrence.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .scalars import CycloScalar, QPoly

_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1)]
_gregory: list[Fraction] = [Fraction(1), Fraction(1, 2)]
_cpolys: list[QPoly] = [QPoly.one()]
_cweights: list[QPoly] = [QPoly.one()]  # (1)_{q,r} / r! at index r
_cpoints: dict = {}  # q0 -> (c_j(q0) by j, weights at q0)

# Budgets of the sequence indices, refused as precondition violations (exit 2
# on the command line) before any table grows.  A recurrence fills its table
# up to the index asked for; cold, c_poly(40) takes about 1.1 s, gregory(300)
# about 1.0 s and bernoulli(300) about 0.35 s (Python 3.11, shared 2-vCPU x86
# host), and each grows faster than the index cubed.
MAX_C_INDEX = 40
MAX_NUMBER_INDEX = 300
MAX_C_POINTS = 16  # tables of c_eval, each of at most 2 * MAX_C_INDEX + 3 numbers


def _check_index(name: str, j: int, budget: int):
    if j < 0:
        raise ValueError(f"{name} wants j >= 0")
    if j > budget:
        raise ValueError(f"{name} index {j} is above the budget of {budget}")


def pochhammer_k(a, k, i: int):
    """The Pochhammer k-symbol (a)_{k,i} = a (a+k) (a+2k) ... (a+(i-1)k).

    Works in any commutative ring containing both arguments; i = 0 gives the
    ring's one.
    """
    if i < 0:
        raise ValueError("pochhammer_k wants i >= 0")
    result = a ** 0
    for s in range(i):
        result = result * (a + k * s)
    return result


def bernoulli(j: int) -> Fraction:
    """The j-th Bernoulli number, from the recurrence
    sum_{i<=j} binom(j+1, i) B_i = [j == 0]."""
    _check_index("bernoulli", j, MAX_NUMBER_INDEX)
    with _lock:
        while len(_bernoulli) <= j:
            m = len(_bernoulli)
            acc = Fraction(0)
            for i in range(m):
                acc += math.comb(m + 1, i) * _bernoulli[i]
            _bernoulli.append(-acc / (m + 1))
        return _bernoulli[j]


def gregory(j: int) -> Fraction:
    """The j-th Gregory coefficient (G_0 = 1, G_1 = 1/2), from the recurrence
    sum_{1<=i<=j} (-1)^{i+1} G_i / (j+1-i) = 1/(j+1) for j >= 2."""
    _check_index("gregory", j, MAX_NUMBER_INDEX)
    with _lock:
        while len(_gregory) <= j:
            m = len(_gregory)
            acc = Fraction(1, m + 1)
            for i in range(1, m):
                acc -= (-1) ** (i + 1) * _gregory[i] / (m + 1 - i)
            _gregory.append((-1) ** (m + 1) * acc)
        return _gregory[j]


def _fill_c(values: list, weights: list, j: int, q):
    """Extend `values` to c_0 .. c_j, and `weights` to w_r = (1)_{q,r} / r!,
    in the ring of q: the variable of Q[q], or a point (a ring map of Q[q])."""
    while len(values) <= j:
        m = len(values)
        while len(weights) <= m + 1:
            r = len(weights)
            weights.append(weights[-1] * (1 + (r - 1) * q) / r)
        acc = weights[m + 1] * values[0]
        for i in range(1, m):
            acc = acc + weights[m + 1 - i] * values[i] / math.factorial(i)
        values.append(-acc * math.factorial(m))


def c_poly(j: int) -> QPoly:
    """The j-th polynomial of the family c_j(q) in Q[q], determined by c_0 = 1
    and sum_{i<=j} (1)_{q,j+1-i}/(j+1-i)! * c_i(q)/i! = [j == 0]."""
    _check_index("c_poly", j, MAX_C_INDEX)
    with _lock:
        _fill_c(_cpolys, _cweights, j, QPoly.gen())
        return _cpolys[j]


def c_eval(j: int, q0) -> Fraction:
    """c_j at an int or Fraction point q0, by the recurrence run on values at
    q0; the polynomial table is not filled (c_poly(j).eval takes any point)."""
    _check_index("c_eval", j, MAX_C_INDEX)
    if not isinstance(q0, (int, Fraction)):
        raise ValueError(f"c_eval takes an int or Fraction point, not {type(q0).__name__}")
    with _lock:
        if q0 not in _cpoints and len(_cpoints) >= MAX_C_POINTS:
            del _cpoints[next(iter(_cpoints))]
        values, weights = _cpoints.setdefault(q0, ([Fraction(1)], [Fraction(1)]))
        _fill_c(values, weights, j, q0)
        return values[j]


def falling_binomial(top, m: int) -> Fraction:
    """binom(top, m) read as a falling-factorial ratio,
    top (top-1) ... (top-m+1) / m!, valid for any rational top."""
    if m < 0:
        return Fraction(0)
    return pochhammer_k(Fraction(top), -1, m) / math.factorial(m)


def laguerre_poly(j: int, alpha) -> QPoly:
    """The generalized Laguerre polynomial L_j^{(alpha)} as a polynomial in one
    variable: sum_i (-1)^i binom(j+alpha, j-i) t^i / i!.

    The binomial is interpreted as a falling-factorial ratio, so alpha may be
    any rational scalar; the leading coefficient is (-1)^j / j!.
    """
    if j < 0:
        raise ValueError("laguerre_poly wants j >= 0")
    alpha = Fraction(alpha)
    coeffs = []
    for i in range(j + 1):
        coeffs.append((-1) ** i * falling_binomial(j + alpha, j - i) / math.factorial(i))
    return QPoly(coeffs)


def q_pascal_row(k: int, at=None) -> list:
    """The Gaussian binomials binom(k, 0)_q .. binom(k, k)_q, by the q-Pascal
    recurrence binom(n,m) = binom(n-1,m) + q^{n-m} binom(n-1,m-1), which stays
    well defined at roots of unity where q-factorials vanish.  With
    ``at=None`` the entries are polynomials in Q[q]; otherwise they are exact
    values at the scalar ``at`` (an int, a Fraction or a CycloScalar), whose
    powers are built once, by one product each."""
    if k < 0:
        raise ValueError("q_pascal_row wants k >= 0")
    if at is None:
        q, one = QPoly.gen(), QPoly.one()
    else:
        q, one = at, at.field.one if isinstance(at, CycloScalar) else type(at)(1)
    powers = [one]
    for _ in range(k):
        powers.append(powers[-1] * q)
    row = [one]
    for n in range(1, k + 1):
        row = [one, *(row[m] + powers[n - m] * row[m - 1] for m in range(1, n)), one]
    return row


def gaussian_binomial(k: int, i: int, at=None):
    """The Gaussian binomial binom(k, i)_q: the polynomial in Q[q] with
    ``at=None``, otherwise its exact value at the given scalar (see
    `q_pascal_row`)."""
    if k < 0 or i < 0 or i > k:
        raise ValueError("gaussian_binomial wants 0 <= i <= k")
    return q_pascal_row(k, at)[i]
