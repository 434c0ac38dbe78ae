"""Elements of the algebra A = k<x, y>/(yx - xy - x^N) and of its localization
at the normal element x, in the normal-ordered basis {x^i y^j}.

Every rewrite into the basis goes through one word kernel, `add_word`,
the one place that applies the closed commutation rule

    y^j x^i = sum_t (i)_{N-1, j-t} binom(j, t) x^{i + (j-t)(N-1)} y^t,

whose integer Pochhammer symbols stay valid for negative i, so localized
arithmetic uses the same kernel.  Products, the twisted Leibniz rule and
automorphism images all add their words x^a y^s x^b y^r through it.  The
grading puts x in degree 1 and y in degree N-1; the filtration level of an
element is its top y-exponent.  Elements are immutable and operations are
pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (
    CycloField,
    CycloScalar,
    QPoly,
    SchemaError,
    check_output_digits,
    numerators,
    repeated_squaring,
    scalar_from_json,
    scalar_to_json,
)
from .sequences import MAX_C_INDEX, c_eval, laguerre_poly


# the scalar types some coefficient ring accepts; anything else leaves the
# product to the other operand
_SCALAR_TYPES = (int, Fraction, CycloScalar, QPoly)
# the coefficient types a product may run on integer numerators
_RATIONAL_TYPES = {int, Fraction}


class CtxMismatchError(ValueError):
    """Two elements from different algebra contexts met in one operation."""


class AlgebraCtx:
    """Ambient description of the algebra: the exponent N of the defining
    relation, whether powers of x are inverted, and the scalar ring."""

    __slots__ = ("N", "localized", "field")

    def __init__(self, N: int, localized: bool = False, field=None):
        if N < 0:
            raise ValueError("the relation exponent N must be >= 0")
        self.N = N
        self.localized = bool(localized)
        self.field = CycloField(1) if field is None else field

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraCtx)
            and other.N == self.N
            and other.localized == self.localized
            and other.field == self.field
        )

    def __hash__(self):
        return hash(("AlgebraCtx", self.N, self.localized, self.field))

    def __repr__(self):
        loc = ", localized" if self.localized else ""
        return f"AlgebraCtx(N={self.N}{loc}, field={self.field!r})"

    def localize(self) -> "AlgebraCtx":
        return AlgebraCtx(self.N, True, self.field)

    def unlocalized(self) -> "AlgebraCtx":
        return AlgebraCtx(self.N, False, self.field)

    def coerce(self, value):
        return self.field.coerce(value)

    # element constructors

    def zero(self) -> "Element":
        return Element(self, {})

    def scalar(self, c) -> "Element":
        return Element(self, {(0, 0): self.coerce(c)})

    def one(self) -> "Element":
        return self.scalar(1)

    def monomial(self, i: int, j: int, c=1) -> "Element":
        return Element(self, {(i, j): self.coerce(c)})

    def x(self, i: int = 1) -> "Element":
        return self.monomial(i, 0)

    def y(self, j: int = 1) -> "Element":
        return self.monomial(0, j)

    def _check_exponents(self, i: int, j: int):
        if j < 0:
            raise ValueError("y-exponents must be non-negative")
        if i < 0 and not self.localized:
            raise ValueError("negative x-exponents need a localized context")


def add_word(out, c, a: int, s: int, b: int, r: int, k: int):
    """Add c x^a y^s x^b y^r, in normal form, into the coefficient table
    `out` ((x-exponent, y-exponent) -> scalar), with k = N - 1.

    The word is the sum over m of the weights (b)_{k, m} binom(s, m) times
    x^{a+b+mk} y^{s-m+r}.  The weights are integers, built by their ratio
    from m to m + 1; once the Pochhammer factor b + mk vanishes, so does
    every later weight.  Exponents a and b may be negative.
    """
    w = 1
    for m in range(s + 1):
        key = (a + b + m * k, s - m + r)
        v = c if w == 1 else c * w
        acc = out.get(key)
        out[key] = v if acc is None else acc + v
        w = w * (b + m * k) * (s - m) // (m + 1)
        if not w:
            return


def comm_move_left(i: int, j: int, N: int):
    """Rewrite y^j x^i in the normal-ordered basis.

    Returns a list of integer-weighted monomials (coeff, xexp, yexp) by
    ascending yexp.  The exponent i may be negative.
    """
    out: dict = {}
    add_word(out, 1, 0, j, i, 0, N - 1)
    return sorted(((c, e, t) for (e, t), c in out.items()), key=lambda term: term[2])


def comm_move_right(i: int, j: int, N: int):
    """Rewrite x^i y^j as a combination of words x^a y^t x^i.

    Returns a list of (coeff, a, t) by ascending t; the trailing factor x^i
    is implicit.  These are the words of x^i (y^j x^{-i}), so of
    `comm_move_left(-i, j, N)` shifted by x^i: the coefficient of
    x^{mk} y^{j-m} x^i (k = N - 1) is the integer Pochhammer symbol
    (-i)_{k, m} = (-i)(-i+k)...(-i+(m-1)k) times binom(j, m).
    """
    return [(c, a + i, t) for c, a, t in comm_move_left(-i, j, N)]


class Element:
    """An element of A (or A_x): a finite scalar-coefficient table keyed by
    (x-exponent, y-exponent), fully normal ordered."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraCtx, terms):
        clean = {}
        for (i, j), c in terms.items():
            ctx._check_exponents(i, j)
            if c:
                clean[(i, j)] = c
        self.ctx = ctx
        self.terms = clean

    # basic structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def items(self):
        """Terms in sorted key order (deterministic iteration)."""
        return [(key, self.terms[key]) for key in sorted(self.terms)]

    def coefficient(self, i: int, j: int):
        return self.terms.get((i, j), self.ctx.field.zero)

    def _check_ctx(self, other: "Element"):
        if other.ctx != self.ctx:
            raise CtxMismatchError(f"{self.ctx!r} vs {other.ctx!r}")

    # ring operations

    def __neg__(self):
        return Element(self.ctx, {key: -c for key, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_ctx(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return Element(self.ctx, out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_ctx(other)
            return normalize_product(self, other)
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        c = self.ctx.coerce(other)
        return Element(self.ctx, {key: v * c for key, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self.ctx.coerce(other)
        return Element(self.ctx, {key: v / c for key, v in self.terms.items()})

    def __pow__(self, k):
        return power(self, k)

    # grading and filtration

    def monomial_degree(self, i: int, j: int) -> int:
        return i + j * (self.ctx.N - 1)

    def degree(self):
        """The common degree of all terms; None for zero, ValueError if the
        element is not homogeneous."""
        degs = {self.monomial_degree(i, j) for (i, j) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def level(self) -> int:
        """Filtration level: the top y-exponent (-1 for the zero element)."""
        return max((j for (_, j) in self.terms), default=-1)

    # rendering and serialization

    def __repr__(self):
        return f"Element({render_element(self)})"

    def to_json(self):
        return {
            "N": self.ctx.N,
            "localized": self.ctx.localized,
            "field": {"cyclo_order": self.ctx.field.order},
            "terms": [
                {"xexp": i, "yexp": j, "coeff": scalar_to_json(c)}
                for (i, j), c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data, path="element"):
        if not isinstance(data, dict):
            raise SchemaError(path, "expected an object")
        n = data.get("N")
        # type(), not isinstance: a JSON true or false is no integer
        if type(n) is not int or n < 0:
            raise SchemaError(f"{path}.N", "expected an integer >= 0")
        localized = data.get("localized", False)
        if not isinstance(localized, bool):
            raise SchemaError(f"{path}.localized", "expected a boolean")
        order = 1
        fld = data.get("field")
        if fld is not None:
            if not isinstance(fld, dict) or type(fld.get("cyclo_order")) is not int:
                raise SchemaError(f"{path}.field", "expected {'cyclo_order': n}")
            order = fld["cyclo_order"]
        ctx = AlgebraCtx(n, localized, CycloField(order))
        raw = data.get("terms")
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.terms", "expected a list")
        terms = {}
        for k, item in enumerate(raw):
            here = f"{path}.terms[{k}]"
            if not isinstance(item, dict):
                raise SchemaError(here, "expected an object")
            i, j = item.get("xexp"), item.get("yexp")
            if type(i) is not int or type(j) is not int:
                raise SchemaError(here, "expected integer 'xexp' and 'yexp'")
            if j < 0:
                raise SchemaError(f"{here}.yexp", "y-exponents must be non-negative")
            if i < 0 and not localized:
                raise SchemaError(f"{here}.xexp", "negative x-exponent outside localized mode")
            c = scalar_from_json(item.get("coeff"), ctx.field, f"{here}.coeff")
            if (i, j) in terms:
                raise SchemaError(here, "duplicate monomial")
            if c:
                terms[(i, j)] = c
        return cls(ctx, terms)


def _on_numerators(ta, tb) -> bool:
    """Whether a product of these coefficient tables runs on integer
    numerators: the first coefficient of one is a Fraction and every
    coefficient is an int or a Fraction, so int-only operands are told apart
    without a scan."""
    if type(next(iter(ta.values()))) is not Fraction and type(next(iter(tb.values()))) is not Fraction:
        return False
    return all(type(c) in _RATIONAL_TYPES for c in (*ta.values(), *tb.values()))


def normalize_product(a: Element, b: Element) -> Element:
    """The normal-ordered product, by bilinear extension of the word kernel.

    Two rational operands of several terms (`_on_numerators`) add their words
    on integer numerators over one denominator per operand, and one Fraction
    is built per output coefficient.  Any other operands (int-only,
    one-term, or over another ring) run the same loop on their own
    coefficients."""
    a._check_ctx(b)
    k = a.ctx.N - 1
    ta, tb = a.terms, b.terms
    den = None
    if len(ta) > 1 and len(tb) > 1 and _on_numerators(ta, tb):
        na, da = numerators(ta.values())
        nb, db = numerators(tb.values())
        ta, tb, den = dict(zip(ta, na)), dict(zip(tb, nb)), da * db
    out: dict = {}
    for (i1, j1), c1 in ta.items():
        for (i2, j2), c2 in tb.items():
            add_word(out, c1 * c2, i1, j1, i2, j2, k)
    if den is not None:
        out = {key: Fraction(v, den) for key, v in out.items() if v}
    return Element(a.ctx, out)


def commutator(a: Element, b: Element) -> Element:
    """ab - ba in normal form."""
    return a * b - b * a


# Budget of a power a^k of an element of several terms, and of a product of
# two elements that is more than one word, in the units of `_power_cost`
# (about a microsecond each), so that an accepted power or product answers in
# about a second at N = 3.
MAX_POWER_COST = 1_000_000
# the coefficient size, in bits, at which a word costs about twice as much
_POWER_COST_BITS = 1000
# Budget of the rewrite weights of one word, in bits: y^s moved across x^b
# makes weights (b)_{N-1,m} binom(s, m) of about s (log2 (b + s(N-1)) + 1)
# bits (`_rewrite_bits`).  At N = 3 the product y^3000 x^3000 (45,000 bits)
# takes 0.05 s, y^6200 x^6200 (99,200 bits) 0.2 s and y^20000 x^20000
# (340,000 bits) 2.3 s (Python 3.11, shared 2-vCPU x86 host).
MAX_WORD_BITS = 100_000


def _coefficient_sizes(terms):
    """(height, field factor, whether a coordinate is not an integer) of a
    nonempty coefficient table: the height is the largest log2 |numerator| *
    denominator over the rational coordinates, and a word on a coefficient of
    c rational coordinates (euler_phi(n) over Q(zeta_n)) costs 4 + 2c times
    more than over Q."""
    coords, scale = [], 1
    for v in terms.values():
        if type(v) in _RATIONAL_TYPES:
            coords.append(v)
        else:
            # a Q(zeta_n) scalar (or a polynomial) and its rational coordinates
            coords += v.coeffs
            scale = max(scale, 4 + 2 * len(v.coeffs))
    height = max((abs(c.numerator) * c.denominator).bit_length() - 1 for c in coords)
    return height, scale, any(c.denominator != 1 for c in coords)


def _cost(words, scale, bits):
    """Words at a field factor `scale` on coefficients of `bits` bits."""
    return words * scale * (_POWER_COST_BITS**2 + bits**2) // _POWER_COST_BITS**2


def _power_cost(a: Element, k: int) -> int:
    """An estimate of the work of a^k by left multiplication, from bounds on
    the terms and coefficient sizes of a^1 .. a^(k-1).

    Products keep the grading and never raise the y-exponent, so a^i has at
    most i (dmax - dmin) + 1 degrees times i s + 1 y-exponents, for a base of
    level s.  A base without x or without y rewrites no word, and the
    exponents of a^i stay in i times the base's exponent ranges.  Each step
    makes |a| words per term (two more with a non-integer coefficient), each
    rewritten into at most s + 1 words when the base has x and y.  A step
    adds at most h + log2 |a| bits to a coefficient, for a base of
    height h, and a rewrite weight (b)_{N-1,m} binom(s, m) adds
    s (log2 X + 1) more for x-exponents below X (`_coefficient_sizes` gives
    h and the field factor)."""
    keys = list(a.terms)
    xs, ys = [i for i, _ in keys], [j for _, j in keys]
    s, span = max(ys), a.ctx.N - 1
    if any(xs) and s:
        degrees = [i + span * j for i, j in keys]
        p, q, rewrites = max(degrees) - min(degrees), s, s + 1
        reach = k * (max(map(abs, xs)) + s * abs(span)) + 1
        rewrite_bits = s * (reach.bit_length() + 1)
    else:
        p, q, rewrites, rewrite_bits = max(xs) - min(xs), s - min(ys), 1, 0
    n = max(k - 1, 0)
    terms = p * q * n * (n + 1) * (2 * n + 1) // 6 + (p + q) * n * (n + 1) // 2 + n
    height, scale, fractional = _coefficient_sizes(a.terms)
    bits = k * (height + (len(keys) - 1).bit_length() + rewrite_bits)
    words = (len(keys) + 2 * fractional) * rewrites
    return _cost(words * terms, scale, bits)


def power(a: Element, k: int) -> Element:
    """a^k by k - 1 multiplications on the left by a; a^0 = 1.

    A left factor of y-degree s makes at most s + 1 words per pair of terms,
    so each step adds few words to the accumulated power; squaring instead
    multiplies two large operands of high y-degree.  Repeated multiplication
    beats squaring for sparse polynomials (Fateman, Stud. Appl. Math. 53,
    1974), and the commutation rule widens the gap.  Zero and a base c x^i
    or c y^j have powers of at most one term, so they square; a power of
    several terms past `MAX_POWER_COST` is refused before any product."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("element powers take a non-negative integer")
    keys = list(a.terms)
    if not keys or (len(keys) == 1 and 0 in keys[0]):
        return repeated_squaring(a, k, a.ctx.one())
    cost = _power_cost(a, k)
    if cost > MAX_POWER_COST:
        raise ValueError(
            f"the power {k} of a {len(keys)}-term element has an estimated cost of {cost}, "
            f"above the power budget of {MAX_POWER_COST}"
        )
    out = a if k else a.ctx.one()
    for _ in range(k - 1):
        out = normalize_product(a, out)
    return out


def _rewrite_bits(s: int, x: int, k: int) -> int:
    """A bound on the bits of the weights (b)_{k,m} binom(s, m) that moving y^s
    across x^b makes, for |b| <= x."""
    return s * ((x + s * abs(k) + 1).bit_length() + 1)


def _product_cost(a: Element, b: Element) -> int:
    """An estimate of the work of the product a b, in the units of
    `_power_cost`: a term x^i y^j of a and a term of b make one word,
    rewritten into at most j + 1 words when b has x, so at most |a| |b| (s + 1)
    for a left factor of level s.  Coefficients have at most
    h_a + h_b + log2 min(|a|, |b|) bits, plus s (log2 X + 1) for the rewrite
    weights when X bounds the x-exponents y^s moves across; the larger field
    factor applies."""
    height_a, scale_a, _ = _coefficient_sizes(a.terms)
    height_b, scale_b, _ = _coefficient_sizes(b.terms)
    s, xs = a.level(), [abs(i) for i, _ in b.terms]
    words, rewrite_bits = len(a.terms), 0
    if s and any(xs):
        words = sum(j + 1 for _, j in a.terms)
        rewrite_bits = _rewrite_bits(s, max(xs), a.ctx.N - 1)
    size = min(len(a.terms), len(b.terms))
    bits = height_a + height_b + (size - 1).bit_length() + rewrite_bits
    return _cost(words * len(b.terms), max(scale_a, scale_b), bits)


def product(a: Element, b: Element) -> Element:
    """a * b, refused before any word when its estimated cost
    (`_product_cost`) passes `MAX_POWER_COST`.  A product with zero or a
    scalar makes at most one unrewritten word per term of the other factor;
    it is exempt.  A product of two one-term factors is one word, refused
    when its rewrite weights (`_rewrite_bits`) pass `MAX_WORD_BITS`; with no
    y on the left or no x on the right nothing is rewritten."""
    if a.terms.keys() <= {(0, 0)} or b.terms.keys() <= {(0, 0)}:
        return a * b
    if len(a.terms) * len(b.terms) > 1:
        cost = _product_cost(a, b)
        if cost > MAX_POWER_COST:
            raise ValueError(
                f"the product of a {len(a.terms)}-term and a {len(b.terms)}-term element has an "
                f"estimated cost of {cost}, above the product budget of {MAX_POWER_COST}"
            )
    else:
        ((_, s),), ((x, _),) = a.terms, b.terms
        bits = _rewrite_bits(s, abs(x), a.ctx.N - 1) if s and x else 0
        if bits > MAX_WORD_BITS:
            raise ValueError(
                f"the word product has rewrite weights of about {bits} bits, above the word "
                f"budget of {MAX_WORD_BITS}"
            )
    return a * b


def basis_of_degree(ctx: AlgebraCtx, l: int, i_min=None):
    """All basis monomials (i, j) of total degree l, sorted by y-exponent.

    Degreewise finiteness needs N >= 2.  In a localized context a lower bound
    on the x-exponent is mandatory, because homogeneous components are
    infinite-dimensional there.
    """
    if ctx.N < 2:
        raise ValueError("degreewise enumeration needs N >= 2")
    if ctx.localized:
        if i_min is None:
            raise ValueError("localized contexts need an explicit x-exponent lower bound")
        floor = i_min
    else:
        floor = 0 if i_min is None else max(0, i_min)
    k = ctx.N - 1
    out = []
    j = 0
    while True:
        i = l - j * k
        if i < floor:
            break
        out.append((i, j))
        j += 1
    return out


def hilbert_count(ctx: AlgebraCtx, lo: int, hi: int):
    """Dimensions of the homogeneous components in a degree window."""
    if ctx.localized:
        raise ValueError("hilbert_count works on the unlocalized algebra")
    return [len(basis_of_degree(ctx, l)) for l in range(lo, hi + 1)]


def check_phi_index(j: int):
    """Refuse phi_j past its budget: it reads c_0(N-1) .. c_{j-1}(N-1)."""
    if j > MAX_C_INDEX + 1:
        raise ValueError(f"phi_element index {j} is above the budget of {MAX_C_INDEX + 1}")


def phi_element(ctx: AlgebraCtx, j: int) -> Element:
    """The unique element of Ay, homogeneous of degree j(N-1), whose
    commutator with x is x^N y^{j-1}:

        (1/j) sum_{i<j} binom(j, i) c_i(N-1) x^{i(N-1)} y^{j-i}.
    """
    if j < 1:
        raise ValueError("phi_element wants j >= 1")
    check_phi_index(j)
    if ctx.N < 1:
        raise ValueError("phi_element wants N >= 1")
    k = ctx.N - 1
    terms = {}
    for i in range(j):
        c = Fraction(math.comb(j, i), j) * c_eval(i, Fraction(k))
        if c:
            terms[(i * k, j - i)] = ctx.coerce(c)
    return Element(ctx, terms)


def normal_order_power(ctx: AlgebraCtx, j: int) -> Element:
    """The j-th normal-order power z^j y^j, with z = x^{-N+1}/(N-1)."""
    if ctx.N < 2:
        raise ValueError("normal-order powers need N >= 2")
    if not ctx.localized:
        raise ValueError("normal-order powers live in the localization")
    if j < 0:
        raise ValueError("normal_order_power wants j >= 0")
    if j == 0:
        return ctx.one()
    k = ctx.N - 1
    return ctx.monomial(-j * k, j, Fraction(1, k ** j))


def laguerre_identity_check(ctx: AlgebraCtx, i: int, j: int) -> bool:
    """Check that conjugating the j-th normal-order power by x^i agrees with
    the Laguerre-polynomial expansion

        x^{-i} (zy)^j x^i = (-1)^j j! L_j^{(-i/(N-1)-j)}(zy),

    where powers of the indeterminate are replaced by normal-order powers.
    """
    if ctx.N < 2:
        raise ValueError("the identity needs N >= 2")
    if i < 0 or j < 0:
        raise ValueError("exponents must be non-negative")
    loc = ctx if ctx.localized else ctx.localize()
    lhs = loc.x(-i) * normal_order_power(loc, j) * loc.x(i)
    rhs = loc.zero()
    sign = (-1) ** j * math.factorial(j)
    for s, c in enumerate(laguerre_poly(j, Fraction(-i, loc.N - 1) - j).coeffs):
        if c:
            rhs = rhs + sign * c * normal_order_power(loc, s)
    return lhs == rhs


def render_scalar(c) -> str:
    """Scalar rendering for the pretty printer."""
    if isinstance(c, (int, Fraction)):
        return str(check_output_digits(c))
    if isinstance(c, CycloScalar):
        return "(" + QPoly(c.coeffs).format(var="z") + ")"
    return repr(c)


def render_element(a: Element) -> str:
    """Canonical text form, parseable back by the expression grammar whenever
    the coefficients are rational."""
    if not a.terms:
        return "0"
    parts = []
    for (i, j), c in a.items():
        factors = []
        if i == 1:
            factors.append("x")
        elif i != 0:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j != 0:
            factors.append(f"y^{j}")
        mono = "*".join(factors)
        negative = isinstance(c, (int, Fraction)) and c < 0
        body = render_scalar(-c if negative else c)
        if mono:
            text = mono if body == "1" else f"{body}*{mono}"
        else:
            text = body
        if not parts:
            parts.append(("-" if negative else "") + text)
        else:
            parts.append(("- " if negative else "+ ") + text)
    return " ".join(parts)
