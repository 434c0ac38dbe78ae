"""Independent oracles used by the test suite.

These deliberately avoid the package's multiplication kernel: products are
normalized by brute single-step rewriting with the defining relation,
polynomial division is redone from scratch, and the action of A_x on
k[t, 1/t] behind the residue criterion is applied term by term with t-shifts
and derivatives, and linear algebra runs on dense rows with first-row
pivoting, so agreement is meaningful.  The exceptions are
`product_chain_relation_residual`, `product_chain_apply` and
`product_chain_ad_phi`, which use whole-element products on purpose: they
reach cyclotomic inputs, where the word oracles `brute_relation_residual` and
`brute_apply` do not.  The cyclotomic scalar oracles (`cyclo_reduce`,
`schoolbook_mul`, `euclid_inverse`) compute with Fraction coordinates,
schoolbook products, long division and the extended Euclid algorithm,
independently of the package's integer fold table and fraction-free inverse.
This module imports nothing from the package, so it also loads where the
package is not importable.
"""

from __future__ import annotations

from fractions import Fraction


def brute_normalize(word, N):
    """Normalize a word over the letters 'x', 'y', 'X' (X = x^{-1}) by
    repeatedly applying yx -> xy + x^N, yX -> Xy - x^{N-2} and xX = Xx = 1.

    Returns a dict (x-exponent, y-exponent) -> Fraction.
    """
    todo = {tuple(word): Fraction(1)}
    done: dict = {}
    while todo:
        w, c = todo.popitem()
        if not c:
            continue
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a == "y" and b == "x":
                w1 = w[:k] + ("x", "y") + w[k + 2 :]
                w2 = w[:k] + ("x",) * N + w[k + 2 :]
                todo[w1] = todo.get(w1, 0) + c
                todo[w2] = todo.get(w2, 0) + c
                break
            if a == "y" and b == "X":
                if N < 2:
                    raise ValueError("localized rewriting oracle assumes N >= 2")
                w1 = w[:k] + ("X", "y") + w[k + 2 :]
                w2 = w[:k] + ("x",) * (N - 2) + w[k + 2 :]
                todo[w1] = todo.get(w1, 0) + c
                todo[w2] = todo.get(w2, 0) - c
                break
            if (a == "x" and b == "X") or (a == "X" and b == "x"):
                w1 = w[:k] + w[k + 2 :]
                todo[w1] = todo.get(w1, 0) + c
                break
        else:
            key = (w.count("x") - w.count("X"), w.count("y"))
            done[key] = done.get(key, Fraction(0)) + c
    return {k: v for k, v in done.items() if v}


def monomial_word(i, j):
    """The word for x^i y^j (negative i uses the inverse letter)."""
    xs = ("x",) * i if i >= 0 else ("X",) * (-i)
    return xs + ("y",) * j


def brute_leibniz(words, dx, dy, N, lam=Fraction(1), f=()):
    """The sum of c D(w) over the (word, c) pairs, where D is the twisted
    Leibniz extension of x -> dx, y -> dy with twist phi(x) = lam x,
    phi(y) = lam^{N-1} y + f(x); on the inverse letter X = x^{-1} it is forced
    to d(X) = -phi(X) d(x) X with phi(X) = lam^{-1} X.

    dx and dy are dicts (i, j) -> coefficient over normal monomials.  Each
    word w expands letter by letter into sum_k phi(w[:k]) d(w[k]) w[k+1:] as
    words, which brute_normalize then rewrites; the result is a dict like
    brute_normalize's.
    """
    lam = Fraction(lam)
    phi = {
        "x": [(("x",), lam)],
        "X": [(("X",), 1 / lam)],
        "y": [(("y",), lam ** (N - 1))]
        + [(("x",) * s, Fraction(c)) for s, c in enumerate(f) if c],
    }
    d_x = [(monomial_word(i, j), Fraction(c)) for (i, j), c in dx.items()]
    d = {
        "x": d_x,
        "X": [(("X",) + w + ("X",), -c / lam) for w, c in d_x],
        "y": [(monomial_word(i, j), Fraction(c)) for (i, j), c in dy.items()],
    }

    def leibniz(word, coeff):
        for k, letter in enumerate(word):
            prefixes = [((), Fraction(coeff))]
            for a in word[:k]:
                prefixes = [(p + w, c * e) for p, c in prefixes for w, e in phi[a]]
            for p, c in prefixes:
                for w, e in d[letter]:
                    yield p + w + word[k + 1 :], c * e

    total: dict = {}
    for word, coeff in words:
        for w, c in leibniz(word, coeff):
            for key, v in brute_normalize(w, N).items():
                total[key] = total.get(key, Fraction(0)) + c * v
    return {k: v for k, v in total.items() if v}


def brute_relation_residual(dx, dy, N, lam=Fraction(1), f=()):
    """The image of yx - xy - x^N under the twisted Leibniz extension of
    x -> dx, y -> dy (see brute_leibniz)."""
    words = [(("y", "x"), 1), (("x", "y"), -1), (("x",) * N, -1)]
    return brute_leibniz(words, dx, dy, N, lam, f)


def brute_apply(a, dx, dy, N, lam=Fraction(1), f=()):
    """The value on a = {(i, j): c} of the twisted derivation x -> dx,
    y -> dy (see brute_leibniz), each monomial read as the word x^i y^j."""
    words = [(monomial_word(i, j), c) for (i, j), c in a.items()]
    return brute_leibniz(words, dx, dy, N, lam, f)


def _product_chain_twist(ctx, twist):
    """lam and phi(y) = lam^{N-1} y + f(x), built from the twist's parameters
    (1 and y without a twist)."""
    if twist is None:
        return ctx.field.one, ctx.y()
    phi_y = ctx.monomial(0, 1, twist.lam ** (ctx.N - 1))
    for s, c in enumerate(twist.f):
        phi_y = phi_y + ctx.monomial(s, 0, c)
    return twist.lam, phi_y


def product_chain_relation_residual(dx, dy, twist=None):
    """The image of yx - xy - x^N under the twisted Leibniz extension of
    x -> dx, y -> dy, as the chain of whole-element normal-form products

        dy x + phi(y) dx - dx y - lam x dy - sum_s lam^s x^s dx x^{N-1-s}

    with phi(x) = lam x and phi(y) = lam^{N-1} y + f(x) built from the twist's
    parameters.  dx and dy are elements, possibly localized, over any field."""
    ctx = dx.ctx
    N = ctx.N
    lam, phi_y = _product_chain_twist(ctx, twist)
    x = ctx.x()
    value = dy * x + phi_y * dx - dx * ctx.y() - lam * (x * dy)
    lam_s = ctx.field.one
    for s in range(N):
        value = value - lam_s * (ctx.x(s) * dx * ctx.x(N - 1 - s))
        lam_s = lam_s * lam
    return value


def product_chain_ad_phi(u, twist=None):
    """The generator images (dx, dy) of the inner twisted derivation
    a -> u a - phi(a) u, as the whole-element normal-form products

        dx = u x - lam x u,    dy = u y - phi(y) u

    with lam and phi(y) built from the twist's parameters."""
    ctx = u.ctx
    lam, phi_y = _product_chain_twist(ctx, twist)
    return u * ctx.x() - ctx.monomial(1, 0, lam) * u, u * ctx.y() - phi_y * u


def product_chain_apply(d, a):
    """The value of the derivation d on the element a, as the chain of
    whole-element normal-form products of the twisted Leibniz rule on each
    monomial x^i y^j:

        sum_{s<i} lam^s x^s dx x^{i-1-s} y^j                  (i > 0)
        sum_{s<-i} lam^{-s} x^{-s} d(x^{-1}) x^{i+1+s} y^j    (i < 0)
        lam^i x^i sum_{s<j} phi(y)^s dy y^{j-1-s}

    with d(x^{-1}) = -lam^{-1} x^{-1} dx x^{-1}, and lam and phi(y) built from
    the twist's parameters."""
    ctx = d.ctx
    lam, phi_y = _product_chain_twist(ctx, d.twist)
    out = ctx.zero()
    for (i, j), c in a.terms.items():
        part = ctx.zero()
        if i > 0:
            for s in range(i):
                part = part + lam ** s * (ctx.x(s) * d.dx * ctx.monomial(i - 1 - s, j))
        elif i < 0:
            d_xinv = -(lam ** -1) * (ctx.x(-1) * d.dx * ctx.x(-1))
            for s in range(-i):
                part = part + lam ** -s * (ctx.x(-s) * d_xinv * ctx.monomial(i + 1 + s, j))
        if j > 0:
            inner = ctx.zero()
            phi_ys = ctx.one()
            for s in range(j):
                inner = inner + phi_ys * d.dy * ctx.y(j - 1 - s)
                phi_ys = phi_ys * phi_y
            part = part + lam ** i * (ctx.x(i) * inner)
        out = out + c * part
    return out


def poly_divmod(num, den):
    """Plain long division on ascending Fraction coefficient lists."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError
    dy = len(den) - 1
    quo = [Fraction(0)] * max(len(num) - dy, 0)
    for k in range(len(num) - dy - 1, -1, -1):
        c = num[k + dy] / den[-1]
        quo[k] = c
        for t, b in enumerate(den):
            num[k + t] -= c * b
    while num and not num[-1]:
        num.pop()
    return quo, num


def cyclo_reduce(field, coeffs):
    """Reduce an ascending coefficient list modulo the cyclotomic polynomial
    of `field` by Fraction long division; a tuple of field.degree
    coordinates."""
    rem = [Fraction(c) for c in coeffs]
    mod = field.modulus.coeffs
    dy = field.degree
    for k in range(len(rem) - dy - 1, -1, -1):
        c = rem[k + dy]
        if c:
            for j, b in enumerate(mod):
                rem[k + j] -= c * b
    rem = rem[:dy]
    rem += [Fraction(0)] * (dy - len(rem))
    return tuple(rem)


def schoolbook_mul(field, a, b):
    """The product of two coordinate tuples of Q(zeta_n): the d x d Fraction
    schoolbook product, then `cyclo_reduce`."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return cyclo_reduce(field, out)


def euclid_inverse(field, a):
    """The inverse of a nonzero coordinate tuple of Q(zeta_n), by the extended
    Euclid algorithm modulo the (irreducible) cyclotomic polynomial, on
    ascending Fraction lists with `poly_divmod`."""
    r0 = [Fraction(c) for c in field.modulus.coeffs]
    r1 = [Fraction(c) for c in a]
    while r1 and not r1[-1]:
        r1.pop()
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        step = [Fraction(0)] * max(len(s0), len(quo) + len(s1) - 1)
        step[: len(s0)] = s0
        for i, cq in enumerate(quo):
            for j, cs in enumerate(s1):
                step[i + j] -= cq * cs
        s0, s1 = s1, step
    if len(r0) != 1:
        raise AssertionError("cyclotomic modulus is not coprime to a nonzero residue")
    return cyclo_reduce(field, [c / r0[0] for c in s0])


def column_rank(rows, ncols):
    """Rank by elimination on the transpose with last-nonzero pivoting; a
    second, differently structured route to the same number."""
    cols = [[row[c] for row in rows] for c in range(ncols)]
    rank = 0
    reduced = []
    for vec in cols:
        vec = list(vec)
        for basis_vec, pivot in reduced:
            if vec[pivot]:
                factor = vec[pivot] / basis_vec[pivot]
                vec = [a - factor * b for a, b in zip(vec, basis_vec)]
        pivot = None
        for k in range(len(vec) - 1, -1, -1):
            if vec[k]:
                pivot = k
                break
        if pivot is not None:
            reduced.append((vec, pivot))
            rank += 1
    return rank


def dense(rows, ncols, zero):
    """Dense list rows of a matrix given as sparse {column: scalar} rows."""
    return [[row.get(c, zero) for c in range(ncols)] for row in rows]


def _rref(rows, ncols):
    """Dense reduced row echelon form on a copied matrix, pivoting on the
    first nonzero row of each column.

    Returns (pivot column list, reduced rows).
    """
    mat = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [c * inv for c in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots, mat


def nullspace(rows, ncols, field):
    """A basis of the kernel of a dense matrix, one vector per free column
    (deterministic)."""
    if not rows:
        return [
            [field.one if c == k else field.zero for c in range(ncols)]
            for k in range(ncols)
        ]
    pivots, mat = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, col in enumerate(pivots):
            vec[col] = -mat[r][free]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols, field):
    """A particular solution of the dense system rows * x = rhs with free
    variables set to zero, or None when the system is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, mat = _rref(aug, ncols)
    for r in range(len(pivots), len(mat)):
        if mat[r][ncols]:
            return None
    vec = [field.zero] * ncols
    for r, col in enumerate(pivots):
        vec[col] = mat[r][ncols]
    return vec


class LaurentPoly:
    """A Laurent polynomial: finite scalar coefficient table over integer
    exponents.  Representation target for the residue criterion."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return LaurentPoly(out)

    def scale(self, c):
        return LaurentPoly({k: c * v for k, v in self.terms.items()})

    def shift(self, n: int):
        """Multiplication by t^n."""
        return LaurentPoly({k + n: c for k, c in self.terms.items()})

    def deriv(self):
        return LaurentPoly({k - 1: k * c for k, c in self.terms.items() if k})

    def coefficient(self, k: int, zero=Fraction(0)):
        return self.terms.get(k, zero)

    def __repr__(self):
        bits = [f"{c!r}*t^{k}" for k, c in sorted(self.terms.items())]
        return "LaurentPoly(" + (" + ".join(bits) if bits else "0") + ")"


def laurent_act(a: Element, f: LaurentPoly) -> LaurentPoly:
    """Action of an element on a Laurent polynomial under the representation
    x . f = t f and y . f = t^N f', extended along the normal form."""
    N = a.ctx.N
    out = LaurentPoly()
    for (i, j), c in a.terms.items():
        g = f
        for _ in range(j):
            g = g.deriv().shift(N)
        out = out + g.shift(i).scale(c)
    return out
