"""Exact scalar arithmetic: rationals, rational polynomials and cyclotomic
fields.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator).  A cyclotomic field Q(zeta_n) is represented by residues modulo
the n-th cyclotomic polynomial; Q is identified with Q(zeta_1), so every
consumer is written against one field interface.  All values are immutable and
all operations are pure.

Cyclotomic arithmetic pays only for what its operands need.  The modulus
Phi_n is monic with integer coefficients, so the residues of q^d .. q^{2d-2}
(d = euler_phi(n)) are integer vectors; each field computes them once, as its
fold table.  A product with a rational operand (an int, a Fraction or a
scalar whose coordinates after the first are zero) scales the coordinates of
the other; any other product multiplies integer numerators over a common
denominator, folds the high part through the table and divides once per
coordinate.  Adding a rational changes coordinate 0 only.  A rational value
is inverted by one Fraction division; any other value a by solving a x = 1 on
the integer matrix whose columns are the numerators of a zeta^k, with
fraction-free (Bareiss) Gauss-Jordan elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache


class FieldMismatchError(ValueError):
    """Two scalars from different fields met in a single operation."""


class SchemaError(ValueError):
    """A JSON payload does not match the documented schema."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def euler_phi(n: int) -> int:
    """Euler totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi is defined for n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _as_fraction(c):
    return c if isinstance(c, Fraction) else Fraction(c)


def repeated_squaring(base, k: int, one):
    """base ** k for an integer k >= 0 by square-and-multiply, multiplying
    only with ``*``; ``one`` is the empty product."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class QPoly:
    """Univariate polynomial over Q in the variable q.

    Coefficients are stored in ascending degree with no trailing zeros; the
    zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def gen(cls):
        return cls((0, 1))

    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def const(self):
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly((other,))
        return None

    def __eq__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its Fraction value, so it hashes as that value
        if len(self.coeffs) <= 1:
            return hash(self.const())
        return hash(("QPoly", self.coeffs))

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("polynomial powers take an integer exponent")
        if k < 0:
            return (1 / self) ** -k
        return repeated_squaring(self, k, QPoly.one())

    def __divmod__(self, other):
        other = QPoly._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dy = other.degree()
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(len(rem) - dy, 0)
        for k in range(len(rem) - dy - 1, -1, -1):
            c = rem[k + dy] / lead
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return QPoly(quo), QPoly(rem[:dy])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            inv = Fraction(1) / _as_fraction(other)
            return QPoly(tuple(c * inv for c in self.coeffs))
        if isinstance(other, QPoly):
            quo, rem = divmod(self, other)
            if rem:
                raise ValueError("inexact polynomial division")
            return quo
        return NotImplemented

    def __rtruediv__(self, other):
        other = QPoly._coerce(other)
        return NotImplemented if other is None else other / self

    def deriv(self):
        return QPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def eval(self, value):
        """Horner evaluation; the point may live in any commutative ring."""
        if not self.coeffs:
            return value * 0
        acc = self.coeffs[-1] + value * 0
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def format(self, var="q"):
        """Human rendering, highest degree first, e.g. ``-1/6*q^2 + 1/6``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(check_output_digits(abs(c)))
            else:
                mono = var if k == 1 else f"{var}^{k}"
                body = mono if abs(c) == 1 else f"{check_output_digits(abs(c))}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QPoly({self.format()})"


@cache
def cyclotomic_polynomial(n: int) -> QPoly:
    """The n-th cyclotomic polynomial.

    Computed by exact division: q^n - 1 divided by the cyclotomic polynomials
    of the proper divisors of n.  Monic with integer coefficients, of degree
    euler_phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial is defined for n >= 1")
    poly = QPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic recurrence division left a remainder")
    return poly


# Largest cyclotomic order a field may have, refused as a precondition
# violation (exit 2 on the command line).  A product costs euler_phi(n)^2 and
# an inverse euler_phi(n)^3 integer steps; at order 97 (degree 96) one
# twisted `hh` over four degrees takes about two seconds (Python 3.11, shared
# 2-vCPU x86 host).
MAX_CYCLO_ORDER = 100


class CycloField:
    """The cyclotomic field Q(zeta_n); order 1 is plain Q.

    Instances are interned per order.  Elements of the order-1 field are bare
    ``Fraction`` values; higher orders use :class:`CycloScalar` residues.
    Orders run from 1 to MAX_CYCLO_ORDER.
    """

    __slots__ = ("order", "modulus", "degree", "fold")
    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, order: int):
        inst = cls._instances.get(order)
        if inst is None:
            if order < 1:
                raise ValueError("cyclotomic order must be >= 1")
            if order > MAX_CYCLO_ORDER:
                raise ValueError(
                    f"cyclotomic order {order} is above the budget of {MAX_CYCLO_ORDER}"
                )
            inst = super().__new__(cls)
            inst.order = order
            inst.modulus = cyclotomic_polynomial(order)
            inst.degree = d = inst.modulus.degree()
            # fold[e - d]: the integer residue of q^e, d <= e <= 2d - 2
            fold = [tuple(-int(c) for c in inst.modulus.coeffs[:d])]
            while len(fold) < d - 1:
                fold.append(tuple(_times_zeta(fold[-1], fold[0])))
            inst.fold = tuple(fold[: d - 1])
            cls._instances[order] = inst
        return inst

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def __repr__(self):
        return "Q" if self.order == 1 else f"Q(zeta_{self.order})"

    @property
    def zero(self):
        return Fraction(0) if self.order == 1 else CycloScalar(self, (Fraction(0),) * self.degree)

    @property
    def one(self):
        return self.coerce(1)

    @property
    def zeta(self):
        """The class of the generator: a primitive root of unity of this order."""
        if self.order == 1:
            return Fraction(1)
        return self.from_coeffs((0, 1))

    def from_coeffs(self, coeffs):
        """The class of the polynomial with ascending coefficients `coeffs`."""
        _, rem = divmod(QPoly(coeffs), self.modulus)
        reduced = rem.coeffs + (Fraction(0),) * (self.degree - len(rem.coeffs))
        if self.order == 1:
            return reduced[0]
        return CycloScalar(self, reduced)

    def coerce(self, value):
        if isinstance(value, CycloScalar):
            if value.field.order != self.order:
                raise FieldMismatchError(
                    f"scalar from {value.field!r} used in {self!r}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            if self.order == 1:
                return _as_fraction(value)
            coeffs = (_as_fraction(value),) + (Fraction(0),) * (self.degree - 1)
            return CycloScalar(self, coeffs)
        raise ValueError(f"cannot coerce {value!r} into {self!r}")


def _times_zeta(vec, low):
    """The residue vector of zeta times `vec`, where `low` is the residue of
    q^d: shift up one place and fold the top coordinate through `low`."""
    top = vec[-1]
    return [top * low[0]] + [c + top * m for c, m in zip(vec, low[1:])]


def numerators(coeffs):
    """Integer numerators over one common denominator: (nums, den)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def cyclo_primitive_root(n: int):
    """The class of zeta_n in Q(zeta_n): a primitive n-th root of unity."""
    return CycloField(n).zeta


class CycloScalar:
    """An element of Q(zeta_n), n >= 2: a reduced residue modulo the
    cyclotomic polynomial, stored as euler_phi(n) rational coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, (CycloScalar, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as that Fraction
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(("CycloScalar", self.field.order, self.coeffs))

    def __neg__(self):
        return CycloScalar(self.field, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloScalar(self.field, (self.coeffs[0] + other,) + self.coeffs[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloScalar(self.field, (self.coeffs[0] - other,) + self.coeffs[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.coeffs
        if isinstance(other, (int, Fraction)):
            return CycloScalar(self.field, tuple(c * other if c else c for c in a))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b = other.coeffs
        if not any(a[1:]):
            a, b = b, a
        if not any(b[1:]):
            r = b[0]
            return CycloScalar(self.field, tuple(c * r if c else c for c in a))
        na, da = numerators(a)
        nb, db = numerators(b)
        d = len(a)
        out = [0] * (2 * d - 1)
        for i, ca in enumerate(na):
            if ca:
                for j, cb in enumerate(nb):
                    out[i + j] += ca * cb
        for e, row in enumerate(self.field.fold, d):
            top = out[e]
            if top:
                for i, m in enumerate(row):
                    out[i] += top * m
        den = da * db
        return CycloScalar(self.field, tuple(Fraction(n, den) for n in out[:d]))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse.  With a = na / D over integers, a^{-1} is
        D x for the solution x of the integer system sum_k x_k (na zeta^k) = 1,
        solved by fraction-free Gauss-Jordan elimination (Bareiss): every
        entry stays an integer minor, each division is exact, and at the end
        the matrix is det * I and the right-hand side det * x."""
        a = self.coeffs
        if not any(a[1:]):
            if not a[0]:
                raise ZeroDivisionError("inverse of zero")
            return CycloScalar(self.field, (1 / a[0],) + a[1:])
        col, dn = numerators(a)
        d = len(a)
        cols = [col]
        for _ in range(d - 1):
            cols.append(_times_zeta(cols[-1], self.field.fold[0]))
        rows = [[cols[k][i] for k in range(d)] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            p = next(i for i in range(k, d) if rows[i][k])
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            pk = pivot[k]
            for i in range(d):
                if i != k:
                    row = rows[i]
                    f = row[k]
                    rows[i] = [(pk * r - f * v) // prev for r, v in zip(row, pivot)]
            prev = pk
        return CycloScalar(self.field, tuple(Fraction(dn * row[d], prev) for row in rows))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("scalar powers take an integer exponent")
        if k < 0:
            return self.inverse() ** (-k)
        return repeated_squaring(self, k, self.field.one)

    def __repr__(self):
        return f"({QPoly(self.coeffs).format(var='z')} in {self.field!r})"


# Output budget: a rational is written out, as text or JSON, only while its
# numerator and denominator have at most MAX_OUTPUT_DIGITS decimal digits (the
# interpreter's default limit on int-to-text conversion, which takes time
# quadratic in the length); past it the request is refused (exit 2).
MAX_OUTPUT_DIGITS = 4300


def check_output_digits(value):
    """`value` (an int or Fraction), refused past the output budget."""
    for n in (abs(value.numerator), value.denominator):
        # a number below 2^(3d) = 8^d < 10^d has at most d digits
        if n.bit_length() > 3 * MAX_OUTPUT_DIGITS and n >= 10**MAX_OUTPUT_DIGITS:
            raise ValueError(
                f"a coefficient has more than {MAX_OUTPUT_DIGITS} digits, above the output budget"
            )
    return value


def rational_to_json(value: Fraction) -> str:
    check_output_digits(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_json(text, path="coeff") -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected a rational string, got {text!r}")
    num, _, den = text.partition("/")
    try:
        n = int(num)
        d = int(den) if den else 1
    except ValueError:
        raise SchemaError(path, f"malformed rational {text!r}") from None
    if d == 0:
        raise SchemaError(path, f"zero denominator in {text!r}")
    return Fraction(n, d)


def scalar_to_json(value):
    """Encode a scalar: plain rationals as "p/q", cyclotomic scalars as
    {"order": n, "coeffs": [...]}."""
    if isinstance(value, (int, Fraction)):
        return rational_to_json(_as_fraction(value))
    if isinstance(value, CycloScalar):
        return {
            "order": value.field.order,
            "coeffs": [rational_to_json(c) for c in value.coeffs],
        }
    raise ValueError(f"not a serializable scalar: {value!r}")


def scalar_from_json(data, field: CycloField, path="coeff"):
    if isinstance(data, str):
        return field.coerce(rational_from_json(data, path))
    if isinstance(data, dict):
        order = data.get("order")
        coeffs = data.get("coeffs")
        if type(order) is not int or not isinstance(coeffs, list):
            raise SchemaError(path, "cyclotomic scalar needs integer 'order' and list 'coeffs'")
        if order != field.order:
            raise FieldMismatchError(f"{path}: scalar of order {order} in field of order {field.order}")
        if len(coeffs) != field.degree:
            raise SchemaError(path, f"expected {field.degree} coordinates, got {len(coeffs)}")
        return field.from_coeffs(
            [rational_from_json(c, f"{path}.coeffs[{k}]") for k, c in enumerate(coeffs)]
        )
    raise SchemaError(path, f"not a scalar encoding: {data!r}")
