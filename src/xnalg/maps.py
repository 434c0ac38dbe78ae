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

from .ncalg import AlgebraCtx, CtxMismatchError, Element, phi_element
from .scalars import SchemaError, scalar_from_json, scalar_to_json


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
    """The automorphism x -> lam x, y -> lam^{N-1} y + f(x)."""

    __slots__ = ("ctx", "lam", "f")

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

    @property
    def det(self):
        """The scaling parameter; multiplicative under composition."""
        return self.lam

    def f_element(self) -> Element:
        return Element(self.ctx, {(s, 0): c for s, c in enumerate(self.f) if c})

    def x_image(self) -> Element:
        return self.ctx.monomial(1, 0, self.lam)

    def y_image(self) -> Element:
        img = self.ctx.monomial(0, 1, self.lam ** (self.ctx.N - 1))
        return img + self.f_element()

    def apply(self, a: Element) -> Element:
        """Image of an element: multiplicative extension of the generator
        images, renormalized.  In a localized context x^{-1} -> lam^{-1} x^{-1}."""
        if a.ctx != self.ctx and a.ctx != self.ctx.localize():
            raise CtxMismatchError(f"{a.ctx!r} vs {self.ctx!r}")
        ctx = a.ctx
        y_img = self.y_image()
        if ctx.localized:
            y_img = Element(ctx, dict(y_img.terms))
        ypow = [ctx.one()]
        out = ctx.zero()
        for (i, j), c in a.terms.items():
            while len(ypow) <= j:
                ypow.append(ypow[-1] * y_img)
            out = out + (c * self.lam ** i) * (ctx.monomial(i, 0) * ypow[j])
        return out

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
        """Least k <= bound with the k-th power equal to the identity, else None."""
        if bound < 1:
            raise ValueError("the order search bound must be >= 1")
        acc = self
        for k in range(1, bound + 1):
            if acc.is_identity():
                return k
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
            term = term * f_elt - f_elt * term
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


class GenDerivation:
    """A (possibly twisted) derivation determined by its generator images."""

    __slots__ = ("ctx", "dx", "dy", "twist", "_well_defined")

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

    def _twist_lambda(self):
        return self.ctx.field.one if self.twist is None else self.twist.lam

    def _twist_y_image(self) -> Element:
        if self.twist is None:
            return self.ctx.y()
        img = self.twist.y_image()
        return Element(self.ctx, dict(img.terms))

    def is_twisted(self) -> bool:
        return self.twist is not None

    def well_defined(self) -> bool:
        """Whether the generator assignment kills yx - xy - x^N under the
        twisted Leibniz rule."""
        if self._well_defined is None:
            ctx, lam = self.ctx, self._twist_lambda()
            phi_y = self._twist_y_image()
            value = self.dy * ctx.x() + phi_y * self.dx
            value = value - self.dx * ctx.y() - lam * (ctx.x() * self.dy)
            for s in range(ctx.N):
                value = value - lam ** s * (ctx.x(s) * self.dx * ctx.x(ctx.N - 1 - s))
            self._well_defined = not value
        return self._well_defined

    def _demand(self):
        if not self.well_defined():
            raise IllDefinedDerivationError(
                "the generator assignment does not kill the defining relation"
            )

    def apply(self, a: Element) -> Element:
        """Value on an element, via the twisted Leibniz rule on monomials.
        Negative x-exponents use the forced rule
        d(x^{-1}) = -phi(x^{-1}) d(x) x^{-1}."""
        self._demand()
        ctx = self.ctx
        if a.ctx != ctx:
            raise CtxMismatchError(f"{a.ctx!r} vs {ctx!r}")
        lam = self._twist_lambda()
        phi_ypow = [ctx.one()]
        phi_y = None
        out = ctx.zero()
        for (i, j), c in a.terms.items():
            part = ctx.zero()
            if i > 0:
                for s in range(i):
                    part = part + lam ** s * (
                        ctx.x(s) * self.dx * ctx.monomial(i - 1 - s, j)
                    )
            elif i < 0:
                d_xinv = (-1 / lam) * (ctx.x(-1) * self.dx * ctx.x(-1))
                for s in range(-i):
                    part = part + lam ** (-s) * (
                        ctx.x(-s) * d_xinv * ctx.monomial(i + 1 + s, j)
                    )
            if j > 0:
                if phi_y is None:
                    phi_y = self._twist_y_image()
                while len(phi_ypow) < j:
                    phi_ypow.append(phi_ypow[-1] * phi_y)
                inner = ctx.zero()
                for s in range(j):
                    inner = inner + phi_ypow[s] * self.dy * ctx.y(j - 1 - s)
                part = part + lam ** i * (ctx.x(i) * inner)
            out = out + c * part
        return out

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

    def extend_localized(self) -> "GenDerivation":
        """The same generator images over the localized context; application
        then handles negative x-exponents."""
        ctx = self.ctx.localize()
        ext = GenDerivation(
            ctx,
            Element(ctx, dict(self.dx.terms)),
            Element(ctx, dict(self.dy.terms)),
            self.twist,
        )
        ext._well_defined = self._well_defined
        return ext

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
    generator images.  Always well defined."""
    ctx = u.ctx
    if twist is None:
        dx = u * ctx.x() - ctx.x() * u
        dy = u * ctx.y() - ctx.y() * u
    else:
        phi_x = ctx.monomial(1, 0, twist.lam)
        phi_y = Element(ctx, dict(twist.y_image().terms))
        dx = u * ctx.x() - phi_x * u
        dy = u * ctx.y() - phi_y * u
    d = GenDerivation(ctx, dx, dy, twist)
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
    dx = ctx.monomial(i, j)
    dy = ctx.zero()
    for s in range(N - 1):
        dy = dy + (s + 1) * (ctx.monomial(s + i, j) * ctx.x(N - 2 - s))
    dy = dy + (N - i) * (ctx.x(i - 1) * phi_element(ctx, j + 1))
    return GenDerivation(ctx, dx, dy)


def restrict_to_algebra(d: GenDerivation) -> GenDerivation:
    """Rebase a localized derivation whose generator images have no negative
    exponents onto the unlocalized context."""
    if not d.ctx.localized:
        return d
    for img in (d.dx, d.dy):
        if any(i < 0 for (i, _) in img.terms):
            raise ValueError("generator images do not lie in the algebra")
    ctx = d.ctx.unlocalized()
    out = GenDerivation(
        ctx,
        Element(ctx, dict(d.dx.terms)),
        Element(ctx, dict(d.dy.terms)),
        d.twist,
    )
    out._well_defined = d._well_defined
    return out


def is_locally_ad_nilpotent(u: Element) -> bool:
    """Membership in the set of locally ad-nilpotent elements, which is the
    polynomial subalgebra in x alone."""
    return all(j == 0 for (_, j) in u.terms)


def ad_nilpotency_evidence(u: Element, probe: Element, bound: int):
    """Bounded empirical evidence for the membership predicate: the least
    k <= bound with the k-fold bracket of u against the probe equal to zero,
    or None if it survives the whole bound."""
    value = probe
    for k in range(bound + 1):
        if not value:
            return k
        value = u * value - value * u
    return None


def conjugator_to_diagonal(aut: Automorphism, order: int) -> Automorphism | None:
    """For an automorphism (f, lam) with lam of the given finite order, a shear
    h with (h, 1) (f, lam) (h, 1)^{-1} = (0, lam), obtained by solving
    lam^{N-1} h(x) - h(lam x) = -f(x) degree by degree.

    Returns None when some monomial of f sits in an obstructed degree
    (exponent congruent to N-1 modulo the order).
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
