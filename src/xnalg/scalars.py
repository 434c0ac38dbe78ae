"""Exact scalar arithmetic: rationals, rational polynomials, cyclotomic fields,
and truncated power series.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator).  A cyclotomic field Q(zeta_n) is represented by residues modulo
the n-th cyclotomic polynomial; Q is identified with Q(zeta_1), so every
consumer is written against one field interface.  All values are immutable and
all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction


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
        result = QPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
                body = str(abs(c))
            else:
                mono = var if k == 1 else f"{var}^{k}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QPoly({self.format()})"


_cyclo_cache: dict[int, QPoly] = {}


def cyclotomic_polynomial(n: int) -> QPoly:
    """The n-th cyclotomic polynomial.

    Computed by exact division: q^n - 1 divided by the cyclotomic polynomials
    of the proper divisors of n.  Monic with integer coefficients, of degree
    euler_phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial is defined for n >= 1")
    got = _cyclo_cache.get(n)
    if got is not None:
        return got
    poly = QPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic recurrence division left a remainder")
    _cyclo_cache[n] = poly
    return poly


class CycloField:
    """The cyclotomic field Q(zeta_n); order 1 is plain Q.

    Instances are interned per order.  Elements of the order-1 field are bare
    ``Fraction`` values; higher orders use :class:`CycloScalar` residues.
    """

    __slots__ = ("order", "modulus", "degree")
    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, order: int):
        inst = cls._instances.get(order)
        if inst is None:
            if order < 1:
                raise ValueError("cyclotomic order must be >= 1")
            inst = super().__new__(cls)
            inst.order = order
            inst.modulus = cyclotomic_polynomial(order)
            inst.degree = inst.modulus.degree()
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

    def _reduce(self, coeffs):
        """Reduce an ascending coefficient list modulo the cyclotomic polynomial."""
        rem = [_as_fraction(c) for c in coeffs]
        mod = self.modulus.coeffs
        dy = self.degree
        for k in range(len(rem) - dy - 1, -1, -1):
            c = rem[k + dy]
            if c:
                for j, b in enumerate(mod):
                    rem[k + j] -= c * b
        rem = rem[:dy]
        rem += [Fraction(0)] * (dy - len(rem))
        return tuple(rem)

    def from_coeffs(self, coeffs):
        reduced = self._reduce(coeffs)
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
        raise TypeError(f"cannot coerce {value!r} into {self!r}")


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
        if isinstance(other, CycloScalar):
            if other.field.order != self.field.order:
                raise FieldMismatchError(
                    f"scalar from {other.field!r} used in {self.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
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
        return hash(("CycloScalar", self.field.order, self.coeffs))

    def __neg__(self):
        return CycloScalar(self.field, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (2 * len(a) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return CycloScalar(self.field, self.field._reduce(out))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclid algorithm modulo the
        cyclotomic polynomial (which is irreducible over Q)."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = self.field.modulus, QPoly(self.coeffs)
        s0, s1 = QPoly.zero(), QPoly.one()
        while r1:
            quo, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - quo * s1
        if r0.degree() != 0:
            raise AssertionError("cyclotomic modulus is not coprime to a nonzero residue")
        inv = s0 / r0.const()
        return CycloScalar(self.field, self.field._reduce(inv.coeffs))

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
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def rational(self):
        """The rational value, when the residue happens to be a constant."""
        if any(self.coeffs[1:]):
            raise ValueError("scalar is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"({QPoly(self.coeffs).format(var='z')} in {self.field!r})"


class MPoly:
    """Sparse multivariate polynomial over Q with a fixed variable count.

    Keys of the term table are exponent tuples.  Used for checking polynomial
    identities in several symbolic parameters at once.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, k):
        exps = [0] * nvars
        exps[k] = 1
        return cls(nvars, {tuple(exps): 1})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self.nvars, other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(("MPoly", self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / _as_fraction(other)
            return MPoly(self.nvars, {e: c * inv for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        result = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"v{k}^{e}" if e > 1 else f"v{k}" for k, e in enumerate(exps) if e
            )
            c = self.terms[exps]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


class PolyRing:
    """Coefficient ring Q[T], packaged with the small interface algebra
    contexts expect from their scalar ring.  Used for identity checks that
    involve one symbolic parameter."""

    order = None

    def __eq__(self, other):
        return isinstance(other, PolyRing)

    def __hash__(self):
        return hash("PolyRing")

    def __repr__(self):
        return "Q[T]"

    @property
    def zero(self):
        return QPoly.zero()

    @property
    def one(self):
        return QPoly.one()

    def coerce(self, value):
        if isinstance(value, QPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return QPoly((value,))
        raise TypeError(f"cannot coerce {value!r} into Q[T]")


class TruncSeries:
    """Power series truncated at a fixed order.

    Coefficients may live in any commutative ring (rationals, cyclotomic
    scalars, rational polynomials); multiplication discards degrees >= order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = tuple(coeffs)
        if order < 1:
            raise ValueError("series order must be >= 1")
        if len(coeffs) != order:
            raise ValueError("coefficient list must have exactly `order` entries")
        self.order = order
        self.coeffs = coeffs

    def __getitem__(self, k):
        return self.coeffs[k]

    def _check(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("expected a truncated series")
        if other.order != self.order:
            raise ValueError("series orders differ")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(("TruncSeries", self.order, self.coeffs))

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        self._check(other)
        out = []
        for k in range(self.order):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return TruncSeries(self.order, out)

    def __truediv__(self, other):
        """Division by a series with invertible constant term."""
        self._check(other)
        b0 = other.coeffs[0]
        if not b0:
            raise ZeroDivisionError("series division needs an invertible constant term")
        out = [self.coeffs[0] / b0]
        for k in range(1, self.order):
            acc = self.coeffs[k]
            for i in range(1, k + 1):
                acc = acc - other.coeffs[i] * out[k - i]
            out.append(acc / b0)
        return TruncSeries(self.order, out)

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {list(self.coeffs)!r})"


def series_from_coeff_rule(rule, order):
    """Build a truncated series whose k-th coefficient is rule(k)."""
    return TruncSeries(order, [rule(k) for k in range(order)])


def rational_to_json(value: Fraction) -> str:
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
    raise TypeError(f"not a serializable scalar: {value!r}")


def scalar_from_json(data, field: CycloField, path="coeff"):
    if isinstance(data, str):
        return field.coerce(rational_from_json(data, path))
    if isinstance(data, dict):
        order = data.get("order")
        coeffs = data.get("coeffs")
        if not isinstance(order, int) or not isinstance(coeffs, list):
            raise SchemaError(path, "cyclotomic scalar needs integer 'order' and list 'coeffs'")
        if order != field.order:
            raise FieldMismatchError(f"{path}: scalar of order {order} in field of order {field.order}")
        if len(coeffs) != field.degree:
            raise SchemaError(path, f"expected {field.degree} coordinates, got {len(coeffs)}")
        return field.from_coeffs(
            [rational_from_json(c, f"{path}.coeffs[{k}]") for k, c in enumerate(coeffs)]
        )
    raise SchemaError(path, f"not a scalar encoding: {data!r}")
