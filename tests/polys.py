"""Polynomial and series helpers that only the test suite uses: the
coefficient ring Q[T] for identities in one symbolic parameter, sparse
multivariate polynomials over Q for identities in several, and truncated power
series for generating-function identities."""

from fractions import Fraction

from xnalg.scalars import QPoly


class PolyRing:
    """Coefficient ring Q[T], packaged with the small interface algebra
    contexts expect from their scalar ring.  Used for identity checks that
    involve one symbolic parameter."""

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
        raise ValueError(f"cannot coerce {value!r} into Q[T]")


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
            c = Fraction(c)
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
            inv = Fraction(1) / Fraction(other)
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
