"""Special sequences and polynomial families: Pochhammer k-symbols, Bernoulli
numbers, Gregory coefficients, the q-Bernoulli polynomials c_j(q), generalized
Laguerre polynomials, and Gaussian q-binomials.

All values are exact.  The number caches only ever grow and are private to the
module; a lock keeps concurrent population safe (recomputation would give the
same values anyway).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .scalars import QPoly

_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1)]
_gregory: list[Fraction] = [Fraction(1), Fraction(1, 2)]
_cpolys: list[QPoly] = [QPoly.one()]
_cweights: list[QPoly] = [QPoly.one()]  # (1)_{q,r} / r! at index r

# Budgets of the sequence indices, refused as precondition violations (exit 2
# on the command line) before any table grows.  A recurrence fills its table
# up to the index asked for; cold, c_poly(40) takes about 1.1 s, gregory(300)
# about 1.0 s and bernoulli(300) about 0.35 s (Python 3.11, shared 2-vCPU x86
# host), and each grows faster than the index cubed.
MAX_C_INDEX = 40
MAX_NUMBER_INDEX = 300


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


def c_poly(j: int) -> QPoly:
    """The j-th polynomial of the family c_j(q) in Q[q], determined by c_0 = 1
    and sum_{i<=j} (1)_{q,j+1-i}/(j+1-i)! * c_i(q)/i! = [j == 0]."""
    _check_index("c_poly", j, MAX_C_INDEX)
    q = QPoly.gen()
    with _lock:
        while len(_cpolys) <= j:
            m = len(_cpolys)
            while len(_cweights) <= m + 1:
                r = len(_cweights)
                _cweights.append(_cweights[-1] * (1 + (r - 1) * q) / r)
            acc = QPoly.zero()
            for i in range(m):
                acc = acc + _cweights[m + 1 - i] * _cpolys[i] / math.factorial(i)
            _cpolys.append(-acc * math.factorial(m))
        return _cpolys[j]


def c_eval(j: int, q0):
    """c_j evaluated at a scalar point."""
    return c_poly(j).eval(q0)


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


def gaussian_binomial(k: int, i: int, at=None):
    """The Gaussian binomial binom(k, i)_q.

    With ``at=None`` the result is the polynomial in Q[q]; otherwise it is the
    exact value at the given scalar.  Either way the computation runs the
    q-Pascal recurrence binom(k,i) = binom(k-1,i) + q^{k-i} binom(k-1,i-1),
    which stays well defined at roots of unity where q-factorials vanish.
    """
    if k < 0 or i < 0 or i > k:
        raise ValueError("gaussian_binomial wants 0 <= i <= k")
    if at is None:
        q = QPoly.gen()
        one = QPoly.one()
    else:
        q = at
        one = at ** 0
    row = [one]
    for n in range(1, k + 1):
        prev = row
        row = [one]
        for m in range(1, n):
            row.append(prev[m] + (q ** (n - m)) * prev[m - 1])
        row.append(one)
    return row[i]

