"""Automorphisms and (twisted) derivations of the algebra, determined by their
values on the generators.

Every automorphism is of the form x -> lam x, y -> lam^{N-1} y + f(x) with
lam invertible and f a polynomial in x; composition corresponds to the group
law (f, lam) * (g, mu) = (mu^{N-1} f + g(lam x), lam mu) on parameter pairs.
A generator-determined derivation carries an optional twist automorphism phi
and satisfies the twisted Leibniz rule d(ab) = d(a) b + phi(a) d(b); it is
usable only after the defining relation has been checked to map to zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ncalg import AlgebraCtx, CtxMismatchError, Element, add_word, commutator, phi_element
from .scalars import CycloField, SchemaError, numerators, scalar_from_json, scalar_to_json


class IllDefinedDerivationError(ValueError):
    """A generator assignment that does not kill the defining relation was
    used as a derivation."""


def decompose_degree(l: int, N: int):
    """The unique (i, j) with l + 1 = i + j(N-1), 1 <= i <= N-1, j >= -1."""
    if N < 2:
        raise ValueError("degree decomposition needs N >= 2")
    i = (l % (N - 1)) + 1
    j = (l + 1 - i) // (N - 1)
    return i, j


class Automorphism:
    """The automorphism x -> lam x, y -> lam^{N-1} y + f(x).

    Instances are immutable, so the powers of lam and of the image of y are
    computed once per instance and reused."""

    __slots__ = ("ctx", "lam", "f", "_lam_powers", "_y_powers")

    def __init__(self, ctx: AlgebraCtx, lam, f=()):
        lam = ctx.coerce(lam)
        if not lam:
            raise ValueError("the scaling parameter must be invertible")
        coeffs = [ctx.coerce(c) for c in f]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ctx = ctx
        self.lam = lam
        self.f = tuple(coeffs)
        self._lam_powers = {}
        self._y_powers = {}

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, 1)

    @classmethod
    def diagonal(cls, ctx, lam):
        return cls(ctx, lam)

    @classmethod
    def shear(cls, ctx, f):
        return cls(ctx, 1, f)

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.ctx == other.ctx and self.lam == other.lam and self.f == other.f

    def __hash__(self):
        return hash((self.ctx, self.lam, self.f))

    def __repr__(self):
        return f"Automorphism(lam={self.lam!r}, f={list(self.f)!r})"

    def is_identity(self) -> bool:
        return not self.f and self.lam == self.ctx.field.one

    def f_element(self) -> Element:
        return Element(self.ctx, {(s, 0): c for s, c in enumerate(self.f) if c})

    def x_image(self) -> Element:
        return self.ctx.monomial(1, 0, self.lam)

    def y_image(self) -> Element:
        return self.y_power(1)

    def lam_power(self, k: int):
        """lam^k for any integer k."""
        power = self._lam_powers.get(k)
        if power is None:
            power = self._lam_powers[k] = self.lam ** k
        return power

    def y_power(self, j: int) -> Element:
        """phi(y)^j for j >= 0, one product per power not built before."""
        powers = self._y_powers
        if not powers:
            y = self.ctx.monomial(0, 1, self.lam_power(self.ctx.N - 1))
            powers.update({0: self.ctx.one(), 1: y + self.f_element()})
        for m in range(len(powers), j + 1):
            powers[m] = powers[m - 1] * powers[1]
        return powers[j]

    def apply(self, a: Element) -> Element:
        """Image of an element: multiplicative extension of the generator
        images, renormalized.  In a localized context x^{-1} -> lam^{-1} x^{-1}.
        The image of x^i y^j is lam^i x^i phi(y)^j, a shift of phi(y)^j."""
        if a.ctx != self.ctx and a.ctx != self.ctx.localize():
            raise CtxMismatchError(f"{a.ctx!r} vs {self.ctx!r}")
        k = self.ctx.N - 1
        out: dict = {}
        for (i, j), c in a.terms.items():
            ci = c * self.lam_power(i)
            for (u, v), g in self.y_power(j).terms.items():
                add_word(out, ci * g, i, 0, u, v, k)
        return Element(a.ctx, out)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: x -> self(other(x)).  Matches the parameter-pair
        group law (f, lam) * (g, mu)."""
        if other.ctx != self.ctx:
            raise CtxMismatchError(f"{other.ctx!r} vs {self.ctx!r}")
        lam, f = self.lam, self.f
        mu, g = other.lam, other.f
        n1 = mu ** (self.ctx.N - 1)
        size = max(len(f), len(g))
        coeffs = []
        for d in range(size):
            c = self.ctx.field.zero
            if d < len(f):
                c = c + n1 * f[d]
            if d < len(g):
                c = c + g[d] * lam ** d
            coeffs.append(c)
        return Automorphism(self.ctx, lam * mu, coeffs)

    def inverse(self) -> "Automorphism":
        mu = 1 / self.lam
        mu_n1 = mu ** (self.ctx.N - 1)
        coeffs = [-mu_n1 * c * mu ** d for d, c in enumerate(self.f)]
        return Automorphism(self.ctx, mu, coeffs)

    def order(self, bound: int):
        """Least k <= bound with the k-th power equal to the identity, else None.

        The k-th power scales x by lam^k, so a finite order is a multiple of
        the order m of lam, which divides lcm(2, n) in Q(zeta_n): its roots of
        unity are +-zeta^i.  The m-th power is a shear y -> y + f_m(x), whose
        powers add in characteristic 0, so the order is m if f_m = 0 and
        infinite otherwise: at most lcm(2, n) compositions, whatever the bound."""
        if bound < 1:
            raise ValueError("the order search bound must be >= 1")
        one = self.ctx.field.one
        acc = self
        for k in range(1, min(bound, math.lcm(2, self.ctx.field.order)) + 1):
            if acc.lam == one:
                return k if acc.is_identity() else None
            acc = acc.compose(self)
        return None

    def to_json(self):
        return {
            "lambda": scalar_to_json(self.lam),
            "f": [scalar_to_json(c) for c in self.f],
        }

    @classmethod
    def from_json(cls, data, ctx: AlgebraCtx, path="automorphism"):
        if not isinstance(data, dict):
            raise SchemaError(path, "expected an object")
        lam = scalar_from_json(data.get("lambda"), ctx.field, f"{path}.lambda")
        raw = data.get("f", [])
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.f", "expected a list")
        f = [scalar_from_json(c, ctx.field, f"{path}.f[{k}]") for k, c in enumerate(raw)]
        return cls(ctx, lam, f)


def sigma(ctx: AlgebraCtx, t) -> Automorphism:
    """The central automorphism x -> x, y -> y + t x^{N-1}."""
    coeffs = [0] * (ctx.N - 1) + [t]
    return Automorphism(ctx, 1, coeffs)


def exp_ad(ctx: AlgebraCtx, f) -> Automorphism:
    """Exponential of the inner derivation u -> [u, f(x)], which is locally
    nilpotent for every polynomial f: the result is x -> x, y -> y + x^N f'.

    The terminating exponential series is evaluated on both generators and
    checked against the closed form before returning.
    """
    coeffs = [ctx.coerce(c) for c in f]
    g = [ctx.field.zero] * max(ctx.N + len(coeffs) - 1, 0)
    for s in range(1, len(coeffs)):
        g[ctx.N + s - 1] = s * coeffs[s]
    result = Automorphism(ctx, 1, g)
    f_elt = Element(ctx, {(s, 0): c for s, c in enumerate(coeffs) if c})
    for gen, image in ((ctx.x(), result.x_image()), (ctx.y(), result.y_image())):
        acc, term, k = gen, gen, 1
        while True:
            term = commutator(term, f_elt)
            if not term:
                break
            acc = acc + term / math.factorial(k)
            k += 1
        if acc != image:
            raise AssertionError("exponential series disagrees with the closed form")
    return result


def exp_lnd(ctx: AlgebraCtx, g, t) -> Automorphism:
    """Exponential of t times the locally nilpotent derivation x -> 0, y -> g(x):
    the automorphism x -> x, y -> y + t g(x)."""
    t = ctx.coerce(t)
    return Automorphism(ctx, 1, [t * ctx.coerce(c) for c in g])


def _twist_images(twist: Automorphism | None):
    """(k -> lam^k, j -> terms of phi(y)^j) of the twist, or (k -> 1, j -> y^j)
    without one; the terms serve the localized context too.  Without a twist
    the unit is the integer 1, so integer inputs stay integers and
    field-scalar inputs keep their type."""
    if twist is None:
        return (lambda k: 1), (lambda j: {(0, j): 1})
    return twist.lam_power, (lambda j: twist.y_power(j).terms)


def relation_residual(dx: Element, dy: Element, twist: Automorphism | None = None) -> Element:
    """The image of yx - xy - x^N under the (twisted) Leibniz extension of
    x -> dx, y -> dy; it vanishes exactly when the assignment is a derivation.
    Linear in (dx, dy).

    The image is dy x + phi(y) dx - dx y - lam x dy - sum_s lam^s x^s dx x^{N-1-s}.
    Every term but phi(y) dx (phi(y) may carry a shear part f(x)) is a word
    x^a y^j x^b y^r, added by `add_word` into one coefficient table."""
    ctx = dx.ctx
    N = ctx.N
    k = N - 1
    lam_power, phi_y = _twist_images(twist)
    out = dict((Element(ctx, phi_y(1)) * dx).terms)
    for (i, j), c in dy.terms.items():
        add_word(out, c, i, j, 1, 0, k)
        add_word(out, -(lam_power(1) * c), 1, 0, i, j, k)
    for (i, j), c in dx.terms.items():
        add_word(out, -c, i, j, 0, 1, k)
        for s in range(N):
            add_word(out, -(lam_power(s) * c), s + i, j, N - 1 - s, 0, k)
    return Element(ctx, out)


class GenDerivation:
    """A (possibly twisted) derivation determined by its generator images."""

    __slots__ = ("ctx", "dx", "dy", "twist", "_well_defined", "_images")

    def __init__(self, ctx: AlgebraCtx, dx: Element, dy: Element, twist=None):
        if dx.ctx != ctx or dy.ctx != ctx:
            raise CtxMismatchError("generator images live in a different context")
        if twist is not None and twist.ctx != ctx.unlocalized():
            raise CtxMismatchError("twist automorphism context mismatch")
        if twist is not None and twist.is_identity():
            twist = None
        self.ctx = ctx
        self.dx = dx
        self.dy = dy
        self.twist = twist
        self._well_defined = None
        self._images = None

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ctx.zero(), ctx.zero())

    def __eq__(self, other):
        if not isinstance(other, GenDerivation):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.dx == other.dx
            and self.dy == other.dy
            and self.twist == other.twist
        )

    def __repr__(self):
        tw = "" if self.twist is None else f", twist={self.twist!r}"
        return f"GenDerivation(dx={self.dx!r}, dy={self.dy!r}{tw})"

    def is_twisted(self) -> bool:
        return self.twist is not None

    def well_defined(self) -> bool:
        """Whether the generator assignment kills yx - xy - x^N under the
        twisted Leibniz rule."""
        if self._well_defined is None:
            self._well_defined = not relation_residual(self.dx, self.dy, self.twist)
        return self._well_defined

    def _demand(self):
        if not self.well_defined():
            raise IllDefinedDerivationError(
                "the generator assignment does not kill the defining relation"
            )

    def apply(self, a: Element) -> Element:
        """Value on an element, via the twisted Leibniz rule on monomials:

            d(x^i y^j) = sum_{0<=s<i} lam^s x^s dx x^{i-1-s} y^j    (i > 0)
                       - sum_{i<=s<0} lam^s x^s dx x^{i-1-s} y^j    (i < 0)
                       + lam^i x^i sum_{s<j} phi(y)^s dy y^{j-1-s},

        the negative exponents by the forced rule
        d(x^{-1}) = -phi(x^{-1}) d(x) x^{-1}.  Every word goes through
        `add_word` into one table; the powers of phi(y) are the twist's
        (`Automorphism.y_power`), so only a new power is a product.
        Untwisted over Q, the loop runs on integer numerators (the images' kept
        over one denominator) and one Fraction is built per output coefficient."""
        self._demand()
        ctx = self.ctx
        if a.ctx != ctx:
            raise CtxMismatchError(f"{a.ctx!r} vs {ctx!r}")
        k = ctx.N - 1
        lam_power, phi_y = _twist_images(self.twist)
        if self._images is None:
            dx, dy, den = self.dx.terms, self.dy.terms, None
            if self.twist is None and ctx.field == CycloField(1):
                nums, den = numerators([*dx.values(), *dy.values()])
                dx, dy = dict(zip(dx, nums)), dict(zip(dy, nums[len(dx) :]))
            self._images = (tuple(dx.items()), tuple(dy.items()), den)
        dx, dy, den = self._images
        terms = a.terms
        if den is not None:
            nums, den_a = numerators(terms.values())
            terms, den = dict(zip(terms, nums)), den * den_a
        out: dict = {}
        for (i, j), c in terms.items():
            # the sign for i < 0 is that of d(x^-1) = -phi(x^-1) d(x) x^-1
            cx, lo, hi = (c, 0, i) if i > 0 else (-c, i, 0)
            for s in range(lo, hi):
                cs = cx * lam_power(s)
                for (p, q), e in dx:
                    add_word(out, cs * e, s + p, q, i - 1 - s, j, k)
            if j > 0:
                ci = c * lam_power(i)
                for s in range(j):
                    for (u, v), g in phi_y(s).items():
                        cg = ci * g
                        for (p, q), e in dy:
                            add_word(out, cg * e, i + u, v, p, q + j - 1 - s, k)
        if den is not None:
            out = {key: Fraction(v, den) for key, v in out.items() if v}
        return Element(ctx, out)

    def degree(self):
        """Degree as a homogeneous map (the x-image sits in degree l+1, the
        y-image in degree l+N-1); None for the zero assignment."""
        candidates = set()
        if self.dx:
            candidates.add(self.dx.degree() - 1)
        if self.dy:
            candidates.add(self.dy.degree() - (self.ctx.N - 1))
        if not candidates:
            return None
        if len(candidates) > 1:
            raise ValueError("derivation is not homogeneous")
        return candidates.pop()

    def _rebase(self, ctx: AlgebraCtx) -> "GenDerivation":
        """The same generator images and twist over `ctx`, which differs only
        by localization; the memoized well-definedness carries over."""
        dx, dy = Element(ctx, self.dx.terms), Element(ctx, self.dy.terms)
        out = GenDerivation(ctx, dx, dy, self.twist)
        out._well_defined = self._well_defined
        return out

    def extend_localized(self) -> "GenDerivation":
        """The same generator images over the localized context; application
        then handles negative x-exponents."""
        return self._rebase(self.ctx.localize())

    def bracket(self, other: "GenDerivation") -> "GenDerivation":
        """The commutator self o other - other o self, as a generator-determined
        map.  At most one operand may be twisted, and then the untwisted one
        must commute with the twist."""
        if other.ctx != self.ctx:
            raise CtxMismatchError(f"{other.ctx!r} vs {self.ctx!r}")
        if self.is_twisted() and other.is_twisted():
            raise ValueError("the bracket of two twisted derivations is not supported")
        twist = self.twist or other.twist
        if twist is not None:
            plain = other if self.is_twisted() else self
            for gen in (self.ctx.x(), self.ctx.y()):
                left = twist.apply(plain.apply(gen))
                right = plain.apply(twist.apply(gen))
                if left != right:
                    raise ValueError("the untwisted operand does not commute with the twist")
        dx = self.apply(other.dx) - other.apply(self.dx)
        dy = self.apply(other.dy) - other.apply(self.dy)
        return GenDerivation(self.ctx, dx, dy, twist)

    def is_locally_nilpotent(self) -> bool:
        """True exactly for the derivations x -> 0, y -> g(x) (untwisted); a
        second application to y is checked to vanish as a sanity witness."""
        if self.is_twisted():
            raise ValueError("local nilpotency is only decided for untwisted derivations")
        if self.dx:
            return False
        if any(j for (_, j) in self.dy.terms):
            return False
        if self.apply(self.dy):
            raise AssertionError("a polynomial y-image must be killed by a second application")
        return True

    def to_json(self):
        return {
            "twist": None if self.twist is None else self.twist.to_json(),
            "dx": self.dx.to_json(),
            "dy": self.dy.to_json(),
        }

    @classmethod
    def from_json(cls, data, path="derivation"):
        if not isinstance(data, dict):
            raise SchemaError(path, "expected an object")
        dx = Element.from_json(data.get("dx"), f"{path}.dx")
        dy = Element.from_json(data.get("dy"), f"{path}.dy")
        if dx.ctx != dy.ctx:
            raise SchemaError(path, "generator images disagree about the context")
        twist = None
        if data.get("twist") is not None:
            twist = Automorphism.from_json(
                data["twist"], dx.ctx.unlocalized(), f"{path}.twist"
            )
        return cls(dx.ctx, dx, dy, twist)


def ad_phi(u: Element, twist: Automorphism | None = None) -> GenDerivation:
    """The inner twisted derivation a -> u a - phi(a) u, restricted to its
    generator images x -> u x - lam x u and y -> u y - phi(y) u.  Always well
    defined.  Every term but phi(y) u (phi(y) may carry a shear part f(x)) is
    a word added by `add_word` into one coefficient table per image."""
    ctx = u.ctx
    k = ctx.N - 1
    lam_power, phi_y = _twist_images(twist)
    lam = lam_power(1)
    dx: dict = {}
    dy = dict((-(Element(ctx, phi_y(1)) * u)).terms)
    for (i, j), c in u.terms.items():
        add_word(dx, c, i, j, 1, 0, k)
        add_word(dx, -(lam * c), 1, 0, i, j, k)
        add_word(dy, c, i, j, 0, 1, k)
    d = GenDerivation(ctx, Element(ctx, dx), Element(ctx, dy), twist)
    d._well_defined = True
    return d


def grading_derivation(ctx: AlgebraCtx) -> GenDerivation:
    """The Euler derivation of the grading: x -> x, y -> (N-1) y."""
    return GenDerivation(ctx, ctx.x(), ctx.monomial(0, 1, ctx.N - 1))


def d_g(ctx: AlgebraCtx, g) -> GenDerivation:
    """The locally nilpotent derivation x -> 0, y -> g(x)."""
    coeffs = [ctx.coerce(c) for c in g]
    dy = Element(ctx, {(s, 0): c for s, c in enumerate(coeffs) if c})
    return GenDerivation(ctx, ctx.zero(), dy)


def partial_l(ctx: AlgebraCtx, l: int) -> GenDerivation:
    """The standard homogeneous derivation of degree l (l >= -N+1).

    For l <= 0 it is x -> 0, y -> x^{l+N-1}.  For l >= 1, with (i, j) the
    decomposition l + 1 = i + j(N-1), it maps x to x^i y^j and y to
    sum_{s+2+t=N} (s+1) x^{s+i} y^j x^t + (N-i) x^{i-1} Phi_{j+1}.
    The grading derivation at degree 0 is a separate constructor,
    :func:`grading_derivation`.
    """
    if ctx.N < 2:
        raise ValueError("the standard derivations need N >= 2")
    if l < -ctx.N + 1:
        raise ValueError("no standard derivation below degree -N+1")
    N = ctx.N
    if l <= 0:
        return GenDerivation(ctx, ctx.zero(), ctx.x(l + N - 1))
    i, j = decompose_degree(l, N)
    k = N - 1
    dy: dict = {}
    for s in range(N - 1):
        add_word(dy, ctx.coerce(s + 1), s + i, j, N - 2 - s, 0, k)
    scale = ctx.coerce(N - i)
    for (u, v), c in phi_element(ctx, j + 1).terms.items():
        add_word(dy, scale * c, i - 1, 0, u, v, k)
    return GenDerivation(ctx, ctx.monomial(i, j), Element(ctx, dy))


def restrict_to_algebra(d: GenDerivation) -> GenDerivation:
    """Rebase a localized derivation whose generator images have no negative
    exponents onto the unlocalized context."""
    if not d.ctx.localized:
        return d
    for img in (d.dx, d.dy):
        if any(i < 0 for (i, _) in img.terms):
            raise ValueError("generator images do not lie in the algebra")
    return d._rebase(d.ctx.unlocalized())


def is_locally_ad_nilpotent(u: Element) -> bool:
    """Membership in the set of locally ad-nilpotent elements, which is the
    polynomial subalgebra in x alone."""
    return all(j == 0 for (_, j) in u.terms)


def conjugator_to_diagonal(aut: Automorphism) -> Automorphism | None:
    """For an automorphism (f, lam), a shear h with
    (h, 1) (f, lam) (h, 1)^{-1} = (0, lam), obtained by solving
    lam^{N-1} h(x) - h(lam x) = -f(x) degree by degree.

    Returns None when some monomial x^d of f sits in an obstructed degree,
    one with lam^d = lam^{N-1} (for lam of finite order m: d congruent to
    N-1 modulo m).
    """
    ctx = aut.ctx
    lam_n1 = aut.lam ** (ctx.N - 1)
    h = []
    for dgr, c in enumerate(aut.f):
        if not c:
            h.append(ctx.field.zero)
            continue
        denom = lam_n1 - aut.lam ** dgr
        if not denom:
            return None
        h.append(-c / denom)
    return Automorphism(ctx, 1, h)
