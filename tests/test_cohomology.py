import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from xnalg import linalg
from xnalg.cli import run_command
from xnalg.cohomology import (
    DimsReport,
    VeroneseRelationReport,
    bracket_table,
    build_slice,
    expected_l_bracket,
    expected_partial_bracket,
    hh_profile,
    hh_reports,
    is_inner,
    nil_chain_check,
    residue_inner_test,
    standard_derivation,
    taft_obstruction,
    veronese_basis,
    veronese_relation_report,
)
from xnalg.maps import (
    Automorphism,
    GenDerivation,
    ad_phi,
    grading_derivation,
    partial_l,
    relation_residual,
    restrict_to_algebra,
)
from xnalg.ncalg import AlgebraCtx, Element, basis_of_degree, commutator
from xnalg.scalars import CycloField, CycloScalar

from oracles import (
    LaurentPoly,
    column_rank,
    dense,
    laurent_act,
    nullspace,
    product_chain_ad_phi,
    product_chain_relation_residual,
)


def test_slice_ranks_against_column_oracle():
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        for l in range(-N - 1, 7):
            sl = build_slice(ctx, l)
            ncols0 = len(sl.basis0)
            ncols1 = len(sl.basis1x) + len(sl.basis1y)
            d0 = dense(sl.d0, ncols0, ctx.field.zero)
            d1 = dense(sl.d1, ncols1, ctx.field.zero)
            assert linalg.rank(sl.d0, ncols0) == column_rank(d0, ncols0)
            assert linalg.rank(sl.d1, ncols1) == column_rank(d1, ncols1)


def test_slice_twisted_composes_to_zero():
    # build_slice verifies d1 . d0 = 0 internally; exercise twisted slices
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    for l in range(-4, 6):
        build_slice(ctx, l, fld.zeta)


def test_slice_check_catches_a_wrong_d0(monkeypatch):
    # d0 is read off the words of ad_phi; doubling the words of its x-part
    # (the words of degree l + 1, where no d1 word lands) must trip the
    # d1 . d0 = 0 check on plain and on twisted slices
    from xnalg import cohomology

    real, l = cohomology.add_word, 3

    def wrong(out, c, a, s, b, r, k):
        real(out, 2 * c if a + b + k * (s + r) == l + 1 else c, a, s, b, r, k)

    monkeypatch.setattr(cohomology, "add_word", wrong)
    fld = CycloField(2)
    for ctx, omega in ((AlgebraCtx(3), None), (AlgebraCtx(3, False, fld), fld.zeta)):
        with pytest.raises(AssertionError, match="the slice differentials do not compose to zero"):
            build_slice(ctx, l, omega)


def test_slice_and_residual_coefficients_are_field_scalars():
    # exactness: the integer commutation weights must never surface as bare
    # ints (nor anything else) among the coefficients of relation residuals
    # or of the slice matrices
    rng = random.Random(7)
    checked = 0
    for order, kind in ((1, Fraction), (3, CycloScalar), (4, CycloScalar), (5, CycloScalar)):
        field = CycloField(order)
        ctx = AlgebraCtx(3, False, field)
        for omega in (None, field.zeta if order > 1 else Fraction(2)):
            for l in (-3, 0, 4, 9):
                sl = build_slice(ctx, l, omega)
                for row in (*sl.d0, *sl.d1):
                    assert all(type(c) is kind for c in row.values()), (order, omega, l)
                    checked += len(row)
        loc = ctx.localize()
        for twist in (None, Automorphism(ctx, field.zeta if order > 1 else 2, [1, 3])):
            for _ in range(6):
                dx, dy = (Element(loc, {(rng.randint(-3, 3), rng.randint(0, 2)): field.one})
                          for _ in range(2))
                value = relation_residual(dx, dy, twist)
                assert all(type(c) is kind for c in value.terms.values())
                checked += len(value.terms)
    assert checked > 400


def _reference_slice(ctx, l, twist):
    """The d0 and d1 rows of the degree-l slice assembled over field scalars
    from the whole-element product oracles, in the row and column order of
    build_slice."""
    basis0 = basis_of_degree(ctx, l)
    basis1x = basis_of_degree(ctx, l + 1)
    basis1y = basis_of_degree(ctx, l + ctx.N - 1)
    basis2 = basis_of_degree(ctx, l + ctx.N)

    def rows(images, blocks):
        out = []
        for block, basis in enumerate(blocks):
            for mono in basis:
                out.append({k: img[block].coefficient(*mono) for k, img in enumerate(images)
                            if img[block].coefficient(*mono)})
            assert all(set(img[block].terms) <= set(basis) for img in images)
        return out

    images0 = [product_chain_ad_phi(ctx.monomial(*m), twist) for m in basis0]
    zero = ctx.zero()
    images1 = [(product_chain_relation_residual(ctx.monomial(*m), zero, twist),) for m in basis1x]
    images1 += [(product_chain_relation_residual(zero, ctx.monomial(*m), twist),) for m in basis1y]
    return rows(images0, [basis1x, basis1y]), rows(images1, [basis2])


def test_slice_rows_match_the_product_chain_reference():
    # the slices are assembled on integers without a twist and on field
    # scalars with one; either way the rows must equal the rows read off the
    # whole-element product oracles, entry by entry and in field types
    q, f3, f4 = CycloField(1), CycloField(3), CycloField(4)
    cases = [(q, None), (q, Fraction(1)), (q, Fraction(-2, 3)),
             (f3, None), (f3, f3.one), (f3, f3.zeta), (f4, f4.zeta)]
    checked = 0
    for N in (2, 3, 4, 5, 6):
        for field, omega in cases:
            ctx = AlgebraCtx(N, False, field)
            kind = Fraction if field.order == 1 else CycloScalar
            twist = None if omega is None else Automorphism.diagonal(ctx, omega)
            for l in (-N, -N + 1, -1, 0, 1, N + 2, 3 * N + 1):
                sl = build_slice(ctx, l, omega)
                ref_d0, ref_d1 = _reference_slice(ctx, l, twist)
                assert sl.d0 == ref_d0, (N, field, omega, l)
                assert sl.d1 == ref_d1, (N, field, omega, l)
                for row in (*sl.d0, *sl.d1):
                    assert all(type(c) is kind for c in row.values()), (N, field, omega, l)
                    checked += len(row)
    assert checked > 2000


def test_identity_twist_slices_take_the_integer_path(monkeypatch):
    # omega = 1 is the untwisted complex: the slice is assembled from words
    # of weight +-1 and equals the untwisted slice; a genuine twist enters
    # only through lam^k and phi(y), as powers of the formal t, so its words
    # carry int weights too
    from xnalg import cohomology

    weights = []
    real = cohomology.add_word

    def spy(out, c, *word):
        weights.append(c)
        real(out, c, *word)

    monkeypatch.setattr(cohomology, "add_word", spy)
    for field in (CycloField(1), CycloField(3)):
        ctx = AlgebraCtx(3, False, field)
        for l in (0, 5):
            twisted, plain = build_slice(ctx, l, field.one), build_slice(ctx, l)
            assert (twisted.d0, twisted.d1) == (plain.d0, plain.d1)
            assert (twisted.rows0, twisted.rows1) == (plain.rows0, plain.rows1)
    assert weights and {type(c) for c in weights} == {int} and set(map(abs, weights)) == {1}
    f3 = CycloField(3)
    for field, omega in ((f3, f3.zeta), (CycloField(1), Fraction(2))):
        ctx = AlgebraCtx(3, False, field)
        for l in (0, 5):
            weights.clear()
            build_slice(ctx, l, omega)
            assert weights and {type(c) for c in weights} == {int}, (field, l)
            assert max(map(abs, weights)) > 1, (field, l)


def test_twisted_slices_over_a_formal_twist_match_the_product_chain_reference():
    # a twisted slice is assembled and checked over a formal twist t and read
    # at omega once, after the checks; its rows must equal the rows read off
    # the whole-element product oracles, entry by entry and in field types,
    # on both branches (omega^{N-1} = 1 and not): over Q(zeta_5) and
    # Q(zeta_6), zeta_n itself and, when gcd(n, N - 1) > 1, a power of it
    # with omega^{N-1} = 1; plus omega = -2/3 and omega = 1 + zeta_3, which
    # are not roots of unity
    q, f3 = CycloField(1), CycloField(3)
    cases = []
    for N in range(2, 7):
        for n in (5, 6):
            field = CycloField(n)
            g = math.gcd(n, N - 1)
            cases += [(N, field, w) for w in [field.zeta] + [field.zeta ** (n // g)] * (g > 1)]
        cases += [(N, q, Fraction(-2, 3)), (N, f3, f3.one + f3.zeta)]
    branches = set()
    checked = 0
    for N, field, omega in cases:
        ctx = AlgebraCtx(N, False, field)
        kind = Fraction if field.order == 1 else CycloScalar
        twist = Automorphism.diagonal(ctx, omega)
        branches.add(omega ** (N - 1) == field.one)
        for l in (-N, -N + 1, -1, 0, 1, N + 2, 3 * N + 1):
            sl = build_slice(ctx, l, omega)
            ref_d0, ref_d1 = _reference_slice(ctx, l, twist)
            assert (sl.d0, sl.d1) == (ref_d0, ref_d1), (N, field, omega, l)
            for row in (*sl.d0, *sl.d1):
                assert all(type(c) is kind for c in row.values()), (N, field, omega, l)
                checked += len(row)
    assert branches == {True, False}
    assert checked > 3000
    # the largest slice the hh budgets allow, where the weights are largest
    f5 = CycloField(5)
    ctx = AlgebraCtx(2, False, f5)
    sl = build_slice(ctx, 64, f5.zeta)
    assert (sl.d0, sl.d1) == _reference_slice(ctx, 64, Automorphism.diagonal(ctx, f5.zeta))
    assert sl.dims() == (0, 0, 0)


def test_a_corrupted_t_coefficient_fails_the_check_in_z_t(monkeypatch):
    # over Q(zeta_3), 1 + t + t^2 vanishes at t = zeta_3; adding it to one d0
    # entry leaves every row at omega unchanged, yet the check of d1 . d0 = 0
    # in Z[t] fires (on these slices every nonzero d0 row is read by some d1
    # row in Z[t])
    from xnalg import cohomology

    f3 = CycloField(3)
    ctx = AlgebraCtx(3, False, f3)
    real_add_word, real_matrix = cohomology.add_word, cohomology._matrix
    weights, ts = [], []

    def spy(out, c, *word):
        weights.append(c)
        real_add_word(out, c, *word)

    def corrupted(columns, bases):
        rows = real_matrix(columns, bases)
        if len(bases) == 2:  # d0, rows over basis1x then basis1y
            t = -weights[1]  # the weight of d0's second word, -lam x u
            ts.append(t)
            row = next(row for row in rows[row_index:] if row)
            row[next(iter(row))] += 1 + t + t * t
        return rows

    monkeypatch.setattr(cohomology, "add_word", spy)
    assert 1 + f3.zeta + f3.zeta ** 2 == f3.zero
    for l in (0, 2, 6):
        build_slice(ctx, l, f3.zeta)
        for row_index in (0, len(basis_of_degree(ctx, l + 1))):  # a dx row, a dy row
            weights.clear()
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, "_matrix", corrupted)
                with pytest.raises(AssertionError,
                                   match="the slice differentials do not compose to zero"):
                    build_slice(ctx, l, f3.zeta)
    assert len(ts) == 6 and all(type(t) is int and t > 1 and t & (t - 1) == 0 for t in ts)


def test_unread_rows_are_compared_exactly(monkeypatch):
    # a d0 row that no d1 row reads is compared entry by entry with ad_phi:
    # a corruption that keeps the weighted sum sum_k (k + 1) d0[r][k] of the
    # row (the detector this comparison replaced) must still raise
    from xnalg import cohomology

    real = cohomology._matrix
    ctx = AlgebraCtx(3)

    def corrupted(columns, bases):
        rows = real(columns, bases)
        if len(bases) == 2:  # d0; its dy row x^4 has one entry, at x^2
            row = rows[len(bases[0]) + bases[1].index((4, 0))]
            (k0, c), = row.items()
            k1 = 1 - k0  # the column of y, the other monomial of degree 2
            row[k0], row[k1] = c - (k1 + 1), k0 + 1
        return rows

    monkeypatch.setattr(cohomology, "_matrix", corrupted)
    with pytest.raises(AssertionError, match="a d0 row disagrees with ad_phi"):
        build_slice(ctx, 2)


def test_twisted_slices_read_every_d0_row_and_call_no_ad_phi(monkeypatch):
    # with a twist every d1 column is nonzero in Z[t], so the d1 . d0 check
    # reads every d0 row and none is compared with ad_phi, on both twist
    # branches; an unread twisted row is a fault (exit 3), not compared with
    # the untwisted ad_phi, while an untwisted one is compared
    from xnalg import cohomology

    calls = []
    real_ad_phi, real_matrix = cohomology.ad_phi, cohomology._matrix

    def spy(*args):
        calls.append(args)
        return real_ad_phi(*args)

    monkeypatch.setattr(cohomology, "ad_phi", spy)
    q, f3 = CycloField(1), CycloField(3)
    branches, checked = set(), 0
    for N in range(2, 8):
        omegas = [(CycloField(n), CycloField(n).zeta) for n in sorted({2, 3, N - 1, N} - {1})]
        for field, omega in omegas + [(q, Fraction(-2, 3)), (f3, f3.one + f3.zeta)]:
            ctx = AlgebraCtx(N, False, field)
            branches.add(omega ** (N - 1) == field.one)
            for l in range(-N - 1, 2 * N + 4):
                sl = build_slice(ctx, l, omega)
                middle = len(sl.basis1x) + len(sl.basis1y)
                assert {mid for row in sl.rows1 for mid in row} == set(range(middle)), (N, l)
                checked += middle
    assert calls == [] and branches == {True, False} and checked > 2500

    def unread(columns, bases):  # a d1 that reads no d0 row
        rows = real_matrix(columns, bases)
        return [{} for _ in rows] if len(bases) == 1 else rows

    monkeypatch.setattr(cohomology, "_matrix", unread)
    build_slice(AlgebraCtx(3, False, f3), 4)
    assert calls
    calls.clear()
    with pytest.raises(AssertionError, match="a d0 row of a twisted slice escapes the d1 . d0 check"):
        build_slice(AlgebraCtx(3, False, f3), 4, f3.zeta)
    result = run_command(["hh", "--N", "3", "--twist-order", "3", "--from", "4", "--to", "4"])
    assert result.status == 3 and "escapes the d1 . d0 check" in result.text
    assert calls == []


def test_operations_over_q_return_fraction_coefficients():
    # over Q every coefficient a caller sees is a Fraction: the integer unit
    # of the untwisted kernels must never surface as an int, and no float
    # may enter anywhere
    rng = random.Random(29)

    def coefficients(value):
        if isinstance(value, GenDerivation):
            return [*value.dx.terms.values(), *value.dy.terms.values()]
        return list(value.terms.values())

    def scalar():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))

    def element(ctx, i_lo=0):
        return Element(ctx, {(rng.randint(i_lo, 4), rng.randint(0, 3)): scalar() for _ in range(3)})

    checked = 0
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        loc = ctx.localize()
        twists = (None, Automorphism.identity(ctx), Automorphism.diagonal(ctx, Fraction(-1, 2)),
                  Automorphism(ctx, 2, [1, 3]))
        for _ in range(4):
            a, b, u = element(ctx), element(ctx), element(ctx)
            al, bl = element(loc, -3), element(loc, -3)
            results = [a + b, a - b, a * b, a / 3, a / Fraction(2, 5), a ** 3, a ** 0,
                       al * bl, al - bl, al ** 2]
            for twist in twists:
                d = ad_phi(u, twist)
                results += [d, relation_residual(a, b, twist), d.apply(a),
                            d.extend_localized().apply(al)]
                if twist is not None:
                    results += [twist.apply(a), twist.inverse().apply(al)]
            for l in (-N + 1, 0, 2, 5):
                d = grading_derivation(ctx) if l == 0 else partial_l(ctx, l)
                results += [d.apply(a), d.extend_localized().apply(al), d.bracket(ad_phi(u))]
            results.append(ad_phi(u, twists[2]).bracket(grading_derivation(ctx)))
            for value in results:
                coeffs = coefficients(value)
                assert all(type(c) is Fraction for c in coeffs), value
                checked += len(coeffs)
        for l in (-N, 0, 3, 7):
            for omega in (None, 1, Fraction(3)):
                sl = build_slice(ctx, l, omega)
                for row in (*sl.d0, *sl.d1):
                    assert all(type(c) is Fraction for c in row.values()), (N, l, omega)
                    checked += len(row)
    assert checked > 2000


def test_space_euler_characteristic():
    # dim C^0 - dim C^1 + dim C^2 per degree extracts the t^{-N} coefficient
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        for l in range(-N - 2, 9):
            sl = build_slice(ctx, l)
            euler = len(sl.basis0) - len(sl.basis1x) - len(sl.basis1y) + len(sl.basis2)
            assert euler == (1 if l == -N else 0), (N, l)


def test_d1_kernel_is_welldefinedness():
    # a degree-l vector lies in the kernel of d1 exactly when the generator
    # assignment it encodes kills the defining relation; this ties the slice
    # differential to the derivation machinery
    from xnalg.maps import GenDerivation

    cases = [(3, None), (4, None), (3, 2), (4, 3)]
    for N, n in cases:
        fld = CycloField(n) if n else CycloField(1)
        ctx = AlgebraCtx(N, False, fld)
        omega = fld.zeta if n else None
        twist = Automorphism.diagonal(ctx, omega) if n else None
        for l in range(-2, 5):
            sl = build_slice(ctx, l, omega)
            ncols = len(sl.basis1x) + len(sl.basis1y)
            d1 = dense(sl.d1, ncols, fld.zero)
            kernel = nullspace(d1, ncols, fld)
            for vec in kernel:
                dx = sum(
                    (ctx.monomial(i, j, c) for (i, j), c in zip(sl.basis1x, vec) if c),
                    ctx.zero(),
                )
                dy = sum(
                    (
                        ctx.monomial(i, j, c)
                        for (i, j), c in zip(sl.basis1y, vec[len(sl.basis1x):])
                        if c
                    ),
                    ctx.zero(),
                )
                assert GenDerivation(ctx, dx, dy, twist).well_defined(), (N, n, l)
            # conversely the standard representatives vectorize into the kernel
            if n is None and l >= -N + 1:
                d = partial_l(ctx, l)
                idx1x = {m: k for k, m in enumerate(sl.basis1x)}
                idx1y = {m: k for k, m in enumerate(sl.basis1y)}
                vec = [fld.zero] * ncols
                for key, c in d.dx.terms.items():
                    vec[idx1x[key]] = c
                for key, c in d.dy.terms.items():
                    vec[len(sl.basis1x) + idx1y[key]] = c
                image = [
                    sum((row[k] * vec[k] for k in range(ncols)), fld.zero)
                    for row in d1
                ]
                assert not any(image), (N, l)


def test_center_is_scalars():
    ctx = AlgebraCtx(2)
    sl = build_slice(ctx, 0)
    assert linalg.rank(sl.d0, len(sl.basis0)) == 0 and len(sl.basis0) == 1
    for l in range(1, 8):
        h0 = build_slice(ctx, l).dims()[0]
        assert h0 == 0


def test_dims_untwisted_examples():
    ctx = AlgebraCtx(3)
    rep = hh_reports(ctx, -4, 3)[1]
    assert rep.computed == [0, 0, 1, 1, 2, 1, 1, 1]
    assert rep.match and rep.euler_match
    rep2 = hh_reports(ctx, -4, 0)[2]
    assert rep2.computed == [0, 1, 1, 1, 1]
    assert rep2.match


def test_dims_twisted_example():
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    rep = hh_reports(ctx, -2, 3, fld.zeta)[1]
    assert rep.computed == [0, 1, 0, 1, 0, 1]
    assert rep.match and rep.euler_match


def test_twisted_nonroot_branch():
    # omega^{N-1} != 1: no outer twisted derivations at all
    fld = CycloField(4)
    ctx = AlgebraCtx(4, False, fld)
    for p, expected in ((0, 0), (1, 0)):
        rep = hh_reports(ctx, -3, 5, fld.zeta)[p]
        assert rep.match, (p, rep.computed)
        assert all(v == expected for v in rep.computed)
    rep2 = hh_reports(ctx, -5, 2, fld.zeta)[2]
    assert rep2.match
    assert rep2.computed == [0, 1, 0, 0, 0, 0, 0, 0]


def test_commutator_image_is_xN_slice():
    # in degree l >= N the image of u -> [u, x] is the slice of x^N A
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        for l in range(N, N + 6):
            basis = basis_of_degree(ctx, l)
            target = basis_of_degree(ctx, l)  # images have the same degree... exponent shifted
            images = [commutator(ctx.monomial(i, j), ctx.x()) for i, j in basis]
            keys = sorted({k for img in images for k in img.terms})
            # containment: every image lives in x^N A
            assert all(i >= N for (i, _) in keys)
            index = {k: r for r, k in enumerate(keys)}
            rows = [{} for _ in keys]
            for col, img in enumerate(images):
                for key, c in img.terms.items():
                    rows[index[key]][col] = c
            expected_dim = sum(1 for (i, j) in basis_of_degree(ctx, l + 1) if i >= N)
            assert linalg.rank(rows, len(basis)) == expected_dim


def test_is_inner_examples():
    ctx = AlgebraCtx(3)
    w = is_inner(ad_phi(ctx.x(2)))
    assert w == ctx.x(2)
    assert is_inner(partial_l(ctx, 0)) is None
    assert is_inner(grading_derivation(ctx)) is None
    # twisted degree -1 candidate has no witnesses at all
    fld = CycloField(2)
    ctxt = AlgebraCtx(3, False, fld)
    twist = Automorphism.diagonal(ctxt, fld.zeta)
    d0phi = restrict_to_algebra(ad_phi(ctxt.localize().x(-1), twist))
    assert is_inner(d0phi) is None


def test_is_inner_witness_avoids_center():
    # degree-0 witnesses carry no scalar component
    ctx = AlgebraCtx(3)
    u = ctx.y() * 0 + ctx.scalar(5) + ctx.zero()  # the scalar 5: ad(5) = 0
    d = ad_phi(u)
    w = is_inner(d)
    assert w == ctx.zero()


def test_is_inner_rejects_inhomogeneous():
    ctx = AlgebraCtx(3)
    d = ad_phi(ctx.x() + ctx.x(2))
    with pytest.raises(ValueError):
        is_inner(d)


def test_standard_derivations_realize_dims():
    # the standard representatives are non-inner and exhaust the computed
    # cohomology in every degree of the window
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        rows_by_p, _ = hh_profile(ctx, -N + 1, 8)
        hh1 = rows_by_p[1]
        for offset, l in enumerate(range(-N + 1, 9)):
            sl = build_slice(ctx, l)
            idx1x = {m: k for k, m in enumerate(sl.basis1x)}
            idx1y = {m: k for k, m in enumerate(sl.basis1y)}
            ncols = len(sl.basis0)

            def vec(d):
                out = {}
                for key, c in d.dx.terms.items():
                    out[idx1x[key]] = c
                for key, c in d.dy.terms.items():
                    out[len(sl.basis1x) + idx1y[key]] = c
                return out

            reps = [partial_l(ctx, l)]
            if l == 0:
                reps.append(grading_derivation(ctx))
            dim1 = len(sl.basis1x) + len(sl.basis1y)
            image_rows = [
                {r: row[c] for r, row in enumerate(sl.d0) if c in row} for c in range(ncols)
            ]
            base_rank = linalg.rank(image_rows, dim1)
            stacked = image_rows + [vec(d) for d in reps]
            assert linalg.rank(stacked, dim1) == base_rank + len(reps)
            assert hh1[offset] == len(reps)


def test_bracket_examples():
    ctx3 = AlgebraCtx(3)
    r = bracket_table(ctx3, 0, 5)
    assert r.computed_coeff == 5 and r.expected_coeff == 5 and r.match
    r = bracket_table(ctx3, -2, 2)
    assert r.target_degree == 0 and r.computed_coeff == 1 and r.match
    assert r.l_computed == -2 and r.l_expected == -2
    r = bracket_table(AlgebraCtx(4), 2, 2)
    assert r.inner and r.match


def test_degree_zero_standard_derivation_is_central():
    # brackets of the degree-0 standard derivation with every slot
    # representative are inner: its class spans the center
    for N in (2, 3, 4):
        ctx = AlgebraCtx(N)
        d0 = partial_l(ctx, 0)
        for m in range(-N + 1, 7):
            other = standard_derivation(ctx, m)
            br = d0.bracket(other)
            assert is_inner(br) is not None, (N, m)


def test_localized_center_is_scalars_on_windows():
    # the kernel of u -> ([u, x], [u, y]) on localized degree slices is the
    # scalars in degree 0 and nothing anywhere else
    for N in (2, 3):
        loc = AlgebraCtx(N, True)
        for l in range(-4, 5):
            basis = basis_of_degree(loc, l, i_min=-4)
            columns = []
            for mono in basis:
                u = loc.monomial(*mono)
                columns.append((commutator(u, loc.x()), commutator(u, loc.y())))
            keys_x = sorted({k for cx, _ in columns for k in cx.terms})
            keys_y = sorted({k for _, cy in columns for k in cy.terms})
            rows = [[Fraction(0)] * len(basis) for _ in range(len(keys_x) + len(keys_y))]
            for col, (cx, cy) in enumerate(columns):
                for key, c in cx.terms.items():
                    rows[keys_x.index(key)][col] = c
                for key, c in cy.terms.items():
                    rows[len(keys_x) + keys_y.index(key)][col] = c
            null = nullspace(rows, len(basis), loc.field)
            if l == 0:
                assert len(null) == 1
                nonzero = [basis[k] for k, c in enumerate(null[0]) if c]
                assert nonzero == [(0, 0)]
            else:
                assert not null, (N, l)


def test_bracket_negative_pair_vanishes():
    ctx = AlgebraCtx(4)
    for l in range(-3, 0):
        for m in range(-3, 0):
            r = bracket_table(ctx, l, m)
            assert r.inner and r.match
            assert not r.witness


def test_bracket_window_matches_closed_forms():
    for N in (2, 3):
        ctx = AlgebraCtx(N)
        for l in range(-N + 1, 6):
            for m in range(-N + 1, 6):
                r = bracket_table(ctx, l, m)
                assert r.match, (N, l, m, r.computed_coeff, r.expected_coeff)
                assert r.l_match, (N, l, m)


def test_bracket_antisymmetry_of_closed_forms():
    for N in (2, 3, 4):
        for l in range(-N + 1, 7):
            for m in range(-N + 1, 7):
                assert expected_partial_bracket(N, l, m) == -expected_partial_bracket(N, m, l)
                assert expected_l_bracket(N, l, m) == -expected_l_bracket(N, m, l)


def test_laurent_act_examples():
    ctx = AlgebraCtx(3, True)
    one = Fraction(1)
    f = LaurentPoly({-1: one})
    assert laurent_act(ctx.x(), f) == LaurentPoly({0: one})
    assert laurent_act(ctx.y(), f) == LaurentPoly({1: -one})
    assert laurent_act(ctx.x(-1), LaurentPoly({2: one})) == LaurentPoly({1: one})


def test_laurent_act_is_module_action():
    rng = random.Random(3)
    ctx = AlgebraCtx(3, True)
    for _ in range(25):
        a = ctx.monomial(rng.randint(-2, 2), rng.randint(0, 2), rng.randint(1, 3))
        b = ctx.monomial(rng.randint(-2, 2), rng.randint(0, 2), rng.randint(1, 3))
        f = LaurentPoly({rng.randint(-3, 3): Fraction(rng.randint(1, 4))})
        assert laurent_act(a * b, f) == laurent_act(a, laurent_act(b, f))


def test_product_y_free_part_is_laurent_action():
    # A_x acts on k[t, 1/t] as on A_x / A_x y, with t^k the class of x^k: the
    # y-free part of a * (sum f_k x^k) is the oracle's term-by-term action
    rng = random.Random(29)
    for _ in range(40):
        N = rng.randint(2, 5)
        loc = AlgebraCtx(N, True)
        a = loc.zero()
        for _ in range(rng.randint(1, 4)):
            a = a + loc.monomial(
                rng.randint(-4, 4), rng.randint(0, 3),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
        f = {rng.randint(-4, 4): Fraction(rng.randint(-4, 4), rng.randint(1, 2))
             for _ in range(rng.randint(1, 4))}
        image = a * Element(loc, {(k, 0): c for k, c in f.items() if c})
        y_free = {i: c for (i, j), c in image.terms.items() if j == 0}
        assert LaurentPoly(y_free) == laurent_act(a, LaurentPoly(f)), (N, a, f)


def _oracle_residue(d):
    loc = d if d.ctx.localized else d.extend_localized()
    w = loc.apply(loc.ctx.monomial(-loc.ctx.N + 1, 1))
    g = laurent_act(w, LaurentPoly({-1: loc.ctx.field.one}))
    return g.coefficient(-1, loc.ctx.field.zero)


def test_residue_matches_laurent_oracle():
    rng = random.Random(4242)
    nonzero = 0
    for trial in range(60):
        N = rng.randint(2, 4)
        fld = CycloField(rng.choice((1, 3)))
        ctx = AlgebraCtx(N, trial % 3 == 2, fld)

        def scalar():
            return fld.from_coeffs(
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(fld.degree)]
            )

        u = ctx.zero()
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(-3 if ctx.localized else 0, 3)
            u = u + ctx.monomial(i, rng.randint(0, 2), scalar())
        inner = ad_phi(u)
        assert residue_inner_test(inner) == _oracle_residue(inner) == 0
        base = ctx.unlocalized()
        parts = [(scalar(), grading_derivation(base))]
        parts += [(scalar(), partial_l(base, l)) for l in range(-N + 1, 3)]
        dx, dy = base.zero(), base.zero()
        for c, part in parts:
            dx, dy = dx + c * part.dx, dy + c * part.dy
        d = GenDerivation(base, dx, dy)
        value = residue_inner_test(d)
        assert value == _oracle_residue(d), (N, fld, parts)
        nonzero += bool(value)
    assert nonzero > 40


def test_residue_examples():
    ctx = AlgebraCtx(3)
    assert residue_inner_test(ad_phi(ctx.y())) == 0
    assert residue_inner_test(partial_l(ctx, 0)) == 1
    for N in (2, 3, 4, 5):
        loc = AlgebraCtx(N, True)
        assert residue_inner_test(ad_phi(loc.monomial(-1, 1))) == 0


def test_residue_randomized_inner():
    rng = random.Random(616)
    for _ in range(20):
        N = rng.choice((2, 3, 4))
        loc = AlgebraCtx(N, True)
        u = loc.zero()
        for _ in range(rng.randint(1, 4)):
            u = u + loc.monomial(
                rng.randint(-3, 3), rng.randint(0, 3),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
        assert residue_inner_test(ad_phi(u)) == 0


def test_residue_nonpositive_representatives():
    # every standard derivation of degree l with -N+1 <= l <= 0 except the
    # localization-logarithmic one has nonzero residue obstruction only at 0
    ctx = AlgebraCtx(4)
    assert residue_inner_test(partial_l(ctx, 0)) != 0
    assert residue_inner_test(grading_derivation(ctx)) == 0


def test_taft_obstruction_pairs():
    for N, n in ((3, 2), (4, 3)):
        rep = taft_obstruction(N, n, max_degree=5)
        assert rep.qbinom_vanishing
        assert rep.collapse_ok
        assert rep.witness_nonzero
        assert rep.ok
    with pytest.raises(ValueError):
        taft_obstruction(4, 2)  # 2 does not divide N-1 = 3


def test_taft_witness_values():
    rep = taft_obstruction(3, 2, max_degree=3)
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    assert rep.witness_value == ctx.scalar(2)
    rep = taft_obstruction(4, 3, max_degree=3)
    fld3 = CycloField(3)
    ctx3 = AlgebraCtx(4, False, fld3)
    assert rep.witness_value == ctx3.scalar(3)


def test_taft_reports_a_failed_collapse(monkeypatch):
    # a commutator that is wrong on the first monomial breaks the collapse;
    # every monomial is still checked and counted, and the discrepancy is
    # data, so the command still exits 0
    from xnalg import cohomology

    N, n, top = 3, 2, 4
    calls = []

    def wrong_on_one(u, a):
        calls.append(a)
        c = commutator(u, a)
        return c + a if a == a.ctx.one() else c

    monkeypatch.setattr(cohomology, "commutator", wrong_on_one)
    count = sum(len(basis_of_degree(AlgebraCtx(N), l)) for l in range(top + 1))
    report = taft_obstruction(N, n, max_degree=top)
    assert not report.collapse_ok and not report.ok
    assert report.checked_monomials == len(calls) == count
    assert report.qbinom_vanishing and report.witness_nonzero
    result = run_command(["taft", "--N", str(N), "--n", str(n), "--max-degree", str(top),
                          "--json"])
    assert result.status == 0
    assert result.payload["obstructed"] is False
    assert json.loads(result.text)["collapse_ok"] is False


def test_veronese_examples():
    rows = dict(veronese_basis(AlgebraCtx(3), 2, 0, 4))
    assert rows[0] == [(0, 0)]
    assert rows[1] == []
    assert rows[2] == [(2, 0), (0, 1)]
    assert rows[4] == [(4, 0), (2, 1), (0, 2)]
    rows = dict(veronese_basis(AlgebraCtx(4), 3, 3, 3))
    assert rows[3] == [(3, 0), (0, 1)]
    # m = 1 keeps everything
    rows = dict(veronese_basis(AlgebraCtx(3), 1, 0, 3))
    for l, monos in rows.items():
        assert monos == basis_of_degree(AlgebraCtx(3), l)


def test_veronese_relation_report():
    rep = veronese_relation_report(5, 2)
    assert rep.relation_exponent == 6
    assert rep.computed_power == 3  # x^6 = (x^2)^3
    assert rep.claimed_power == 2
    assert rep.discrepancy


def test_nil_chain():
    ctx4 = AlgebraCtx(4)
    rep = nil_chain_check(ctx4, 1, 1, -3, 8)
    assert rep.containment_ok
    # brackets of levels whose rho-sum reaches N-1 land on zero classes
    rep2 = nil_chain_check(ctx4, 2, 2, -3, 8)
    assert rep2.containment_ok
    ctx3 = AlgebraCtx(3)
    rep3 = nil_chain_check(ctx3, 1, 1, -2, 8)
    assert rep3.containment_ok
    # at N = 3 the level-1 part is abelian modulo inner on the window
    window = range(-2, 9)
    for l in window:
        for m in window:
            if l % 2 == 1 and m % 2 == 1:
                assert bracket_table(ctx3, l, m).inner


def test_nil_chain_reports_violations(monkeypatch):
    # a bracket table that never vanishes breaks the containment: every pair
    # it reports lands below level r+s, and the discrepancy is data, so the
    # command still exits 0
    from xnalg import cohomology

    monkeypatch.setattr(cohomology, "bracket_table",
                        lambda ctx, l, m: SimpleNamespace(l_computed=Fraction(1)))
    N, r, s = 4, 1, 1
    report = nil_chain_check(AlgebraCtx(N), r, s, -3, 6)
    assert not report.containment_ok and not report
    assert report.violations
    assert all((a + b) % (N - 1) < r + s for a, b in report.violations)
    result = run_command(["nil", "--N", "4", "--r", "1", "--s", "1", "--from", "-3",
                          "--to", "6", "--json"])
    assert result.status == 0
    assert result.payload["containment_ok"] is False
    assert json.loads(result.text)["containment_ok"] is False


def test_cached_standard_derivations_survive_a_nil_window():
    # the bracket tables share one representative per (context, slot), built
    # and checked once; after a whole nil window each still carries the
    # generator images it was built with, equal to a fresh build
    from xnalg import cohomology

    ctx = AlgebraCtx(5)
    lo, hi = -4, 12
    slots = range(lo, 2 * hi + 1)
    cached = {k: standard_derivation(ctx, k) for k in slots}
    snapshot = {k: (dict(d.dx.terms), dict(d.dy.terms)) for k, d in cached.items()}
    assert all(d._well_defined is True for d in cached.values())
    nil_chain_check(ctx, 1, 1, lo, hi)
    for k in slots:
        d = standard_derivation(ctx, k)
        assert d is cached[k]
        fresh = grading_derivation(ctx) if k == 0 else partial_l(ctx, k)
        assert (d.dx.terms, d.dy.terms) == snapshot[k] == (fresh.dx.terms, fresh.dy.terms)
    info = cohomology.standard_derivation.cache_info()
    assert info.maxsize == cohomology.MAX_STANDARD_DERIVATIONS


def test_cached_bracket_spans_survive_a_nil_window():
    # the bracket tables factor one span per (context, target degree) and
    # share it; after a whole nil window each cached span is still the one it
    # was, equal to a fresh build, so no right-hand side wrote into it
    from xnalg import cohomology

    ctx = AlgebraCtx(5)
    lo, hi = -4, 12
    degrees = range(2 * lo, 2 * hi + 1)
    cached = {n: cohomology._bracket_span(ctx, n) for n in degrees}
    nil_chain_check(ctx, 1, 1, lo, hi)
    for n in degrees:
        span = cohomology._bracket_span(ctx, n)
        fresh = cohomology._bracket_span.__wrapped__(ctx, n)
        assert span is cached[n]
        assert (span.reps, span.candidates, span.row_of) == (fresh.reps, fresh.candidates, fresh.row_of)
        mine, theirs = span.factored, fresh.factored
        assert (mine.nrows, mine.pivots, mine.rest) == (theirs.nrows, theirs.pivots, theirs.rest)
        # over Q every entry, pivot and multiple is a Fraction: no int / int
        for _, p, row, _, multiples in mine.pivots:
            assert all(type(v) is Fraction for v in (p, *row.values(), *(f for _, f in multiples)))
    info = cohomology._bracket_span.cache_info()
    assert info.maxsize == cohomology.MAX_BRACKET_SPANS


def test_one_span_decomposes_many_targets_like_a_dense_solve():
    # targets reduced against one factored span agree with the dense oracle
    # solving a matrix assembled for each target over the keys of the target
    # and the span together: combinations of the columns (in the span), the
    # same plus one more term on a row of the span (mostly outside it), and
    # a term on no row of the span (outside it)
    from xnalg import cohomology

    from oracles import solve

    rng = random.Random(3131)
    outside = inside = 0
    for ctx, n in ((AlgebraCtx(3), 5), (AlgebraCtx(4), 0), (AlgebraCtx(5), -2),
                   (AlgebraCtx(3, False, CycloField(3)), 4)):
        span = cohomology._bracket_span(ctx, n)
        zero = ctx.field.zero
        columns = [(rep.dx, rep.dy) for rep in span.reps]
        columns += [(w.dx, w.dy) for w in (ad_phi(ctx.monomial(*m)) for m in span.candidates)]
        keys = sorted(span.row_of)
        for trial in range(24):
            weights = [ctx.coerce(rng.randint(-3, 3)) if rng.random() < 0.6 else zero
                       for _ in columns]
            dx = sum((w * c[0] for w, c in zip(weights, columns)), ctx.zero())
            dy = sum((w * c[1] for w, c in zip(weights, columns)), ctx.zero())
            extra = {}
            if trial % 3 == 1:
                extra[rng.choice(keys)] = ctx.coerce(rng.randint(1, 3))
            elif trial % 3 == 2:
                extra[(0, (n + 5, 0))] = ctx.field.one  # degree n + 4 in dx
            for (b, key), c in extra.items():
                image = Element(ctx, {key: c})
                dx, dy = (dx + image, dy) if b == 0 else (dx, dy + image)
            target = GenDerivation(ctx, dx, dy)
            got = cohomology._decompose(span, target)
            goal = [(0, key) for key in dx.terms] + [(1, key) for key in dy.terms]
            rows = sorted(set(keys) | set(goal))
            table = lambda pair, b, key: pair[b].terms.get(key, zero)
            full = [[table(col, b, key) for col in columns] for b, key in rows]
            rhs = [table((dx, dy), b, key) for b, key in rows]
            expected = solve(full, rhs, len(columns), ctx.field)
            if expected is None:
                assert got is None
                outside += 1
                continue
            coeffs, witness = got
            nreps = len(span.reps)
            assert coeffs == expected[:nreps]
            assert witness == Element(ctx, dict(zip(span.candidates, expected[nreps:])))
            inside += 1
    assert inside >= 32 and outside >= 32


def test_nil_reads_each_bracket_antisymmetrically():
    # nil takes the coefficient of (b, a) as minus that of (a, b); on every
    # pair it reads in the windows of the benchmark's nil requests (N = 3, 4,
    # 5, slots from -N+1 up to 9, 8 and 8) the computed tables agree, and each
    # unordered pair is computed once
    from xnalg import cohomology

    for N, top in {3: 9, 4: 8, 5: 8}.items():
        ctx = AlgebraCtx(N)
        window = [k for k in range(-N + 1, top + 1) if k % (N - 1) >= 1]
        for a in window:
            for b in window:
                forward = bracket_table(ctx, a, b).l_computed
                backward = bracket_table(ctx, b, a).l_computed
                assert forward is not None and backward == -forward, (N, a, b)
        seen = []
        real = cohomology.bracket_table

        def counted(ctx, l, m):
            seen.append((l, m))
            return real(ctx, l, m)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cohomology, "bracket_table", counted)
            report = nil_chain_check(ctx, 1, 1, -N + 1, top)
        assert report.containment_ok
        assert len(set(seen)) == len(seen)
        assert not {(b, a) for a, b in seen if a != b} & set(seen)


def test_a_corrupted_cached_factorization_fails_the_witness_check():
    # a cached span whose factorization went wrong gives a wrong solution,
    # which re-applying the witness catches: AssertionError in the library,
    # exit 3 on the command line
    from xnalg import cohomology

    ctx = AlgebraCtx(3)
    argv = ["bracket", "--N", "3", "--l", "2", "--m", "3"]
    result = run_command(argv)
    assert result.status == 0 and result.payload["computed_coeff"] != "0/1"
    pivots = cohomology._bracket_span(ctx, 5).factored.pivots
    saved = list(pivots)
    try:
        # each pivot and the entries logged under it doubled: the replay on
        # the right-hand side is unchanged, back substitution halves the
        # solution, and the system still reads consistent
        pivots[:] = [(col, 2 * p, row, r, [(i, 2 * f) for i, f in multiples])
                     for col, p, row, r, multiples in saved]
        with pytest.raises(AssertionError, match="inner witness"):
            bracket_table(ctx, 2, 3)
        result = run_command(argv)
        assert result.status == 3
        assert result.text.startswith("internal invariant breach: inner witness")
    finally:
        pivots[:] = saved
    assert run_command(argv).status == 0


def test_twisted_representatives_realize_dims():
    # the inner-from-the-localization family spans the twisted cohomology in
    # every degree of a window; for N = 3 the replacement family is used
    cases = [(4, 3), (5, 2)]
    for N, n in cases:
        fld = CycloField(n)
        ctx = AlgebraCtx(N, False, fld)
        loc = ctx.localize()
        twist = Automorphism.diagonal(ctx, fld.zeta)
        dn1 = partial_l(ctx, N - 1).extend_localized()
        rows_by_p, _ = hh_profile(ctx, -1, 2 * (N - 1), fld.zeta)
        hh1 = rows_by_p[1]
        u = loc.x(-1)
        family = {}
        for k in range(3):
            d = restrict_to_algebra(ad_phi(u, twist))
            family[d.degree()] = d
            u = dn1.apply(u)
        for offset, l in enumerate(range(-1, 2 * (N - 1) + 1)):
            if hh1[offset]:
                d = family[l]
                assert d.well_defined()
                assert is_inner(d) is None, (N, n, l)


def test_twisted_replacement_family_n3():
    # N = 3: the iterates of x^{-1} become inner from degree 3 on; the
    # x^{-1} y^2 family furnishes the missing classes
    fld = CycloField(2)
    ctx = AlgebraCtx(3, False, fld)
    loc = ctx.localize()
    twist = Automorphism.diagonal(ctx, fld.zeta)
    d2 = partial_l(ctx, 2).extend_localized()
    u = d2.apply(d2.apply(loc.x(-1)))
    assert u == -loc.x(3)  # lands inside the algebra: the iterate is inner
    d = restrict_to_algebra(ad_phi(u, twist))
    assert is_inner(d) is not None
    # replacement family
    u = loc.monomial(-1, 2)
    for _ in range(3):
        d = ad_phi(u, twist)
        dd = restrict_to_algebra(d)
        assert dd.well_defined()
        assert is_inner(dd) is None
        u = d2.apply(u)


def test_twisted_derivations_are_localized_inner():
    # every non-inner twisted derivation in the window admits a localized
    # inner presentation, recovered by solving on slices with an exponent floor
    for N, n in ((3, 2), (4, 3)):
        fld = CycloField(n)
        ctx = AlgebraCtx(N, False, fld)
        loc = ctx.localize()
        twist = Automorphism.diagonal(ctx, fld.zeta)
        d0phi = restrict_to_algebra(ad_phi(loc.x(-1), twist))
        assert is_inner(d0phi) is None
        w = is_inner(d0phi.extend_localized(), i_min=-3)
        assert w is not None
        assert w == loc.x(-1)
        # higher-degree classes of the family, and the N = 3 replacements
        dn1 = partial_l(ctx, N - 1).extend_localized()
        seeds = [loc.x(-1)] + ([loc.monomial(-1, 2)] if N == 3 else [])
        for seed in seeds:
            u = seed
            for _ in range(3):
                d = restrict_to_algebra(ad_phi(u, twist))
                if is_inner(d) is None:
                    w = is_inner(d.extend_localized(), i_min=-4)
                    assert w is not None, (N, n, d.degree())
                    recovered = ad_phi(w, twist)
                    assert restrict_to_algebra(recovered).dx == d.dx
                u = dn1.apply(u)


def test_records_construct_compare_and_print_field_by_field():
    args = (3, 1, 0, 2, None, [1, 2, 2], [1, 2, 2], True, [0], [0], True)
    report = DimsReport(*args)
    by_keyword = DimsReport(3, 1, 0, 2, None, [1, 2, 2], [1, 2, 2], True,
                            euler_computed=[0], euler_expected=[0], euler_match=True)
    assert report == by_keyword
    assert report != DimsReport(*args[:-1], False)
    assert report.computed == [1, 2, 2] and report.twist_order is None
    assert repr(report).startswith("DimsReport(N=3, p=1, lo=0, hi=2, twist_order=None, ")
    with pytest.raises(TypeError):
        DimsReport(*args[:-1])
    with pytest.raises(TypeError):
        DimsReport(*args, euler_match=False)
    ctx = AlgebraCtx(3)
    s = build_slice(ctx, 2)
    assert s == build_slice(ctx, 2)
    assert (s.d0, s.d1) == (build_slice(ctx, 2).d0, build_slice(ctx, 2).d1)
    assert repr(s).startswith("ComplexSlice(ctx=AlgebraCtx(N=3, field=Q), l=2, omega=None, ")
    report = veronese_relation_report(4, 3)
    assert report == VeroneseRelationReport(4, 3, 3, 6, 2, 1) and report.discrepancy


def test_d1_columns_equal_the_relation_residual_of_each_basis_monomial():
    # d1 is assembled from the words of relation_residual, phi(y) dx among
    # them as one word; each column must equal relation_residual of its basis
    # monomial, untwisted and over the formal twist, read in the field
    f3, f5, q = CycloField(3), CycloField(5), CycloField(1)
    checked = 0
    for N in range(2, 7):
        for field, omega in ((q, None), (f3, f3.zeta), (f5, f5.zeta), (q, Fraction(-2, 3))):
            ctx = AlgebraCtx(N, False, field)
            twist = None if omega is None else Automorphism.diagonal(ctx, omega)
            zero = ctx.zero()
            for l in range(-N - 1, 16):
                sl = build_slice(ctx, l, omega)
                inputs = [(ctx.monomial(*m), zero) for m in sl.basis1x]
                inputs += [(zero, ctx.monomial(*m)) for m in sl.basis1y]
                for col, (dx, dy) in enumerate(inputs):
                    column = {sl.basis2[r]: row[col] for r, row in enumerate(sl.d1) if col in row}
                    assert column == relation_residual(dx, dy, twist).terms, (N, omega, l, col)
                    checked += 1
    assert checked > 3000


def test_a_fault_in_one_d1_word_fails_the_check(monkeypatch):
    # one weight off by one in the first d1 word (phi(y) dx in the column of
    # x^{l+1}, a column that d0 reaches once l >= N - 1) must trip the
    # d1 . d0 check, untwisted and over the formal twist
    from xnalg import cohomology

    real = cohomology.add_word
    words = []

    def faulty(out, c, a, s, b, r, k):
        real(out, c, a, s, b, r, k)
        if len(words) == first:
            out[(a + b, s + r)] += 1
        words.append((a, s, b, r))

    f3 = CycloField(3)
    for ctx, omega in ((AlgebraCtx(3), None), (AlgebraCtx(4), None),
                       (AlgebraCtx(3, False, f3), f3.zeta), (AlgebraCtx(2), Fraction(-2, 3))):
        for l in (ctx.N - 1, 6):
            sl = build_slice(ctx, l, omega)
            assert sl.rows0[0], (ctx, l)  # d0 reaches the faulted column
            first = 4 * len(sl.basis0)  # d0's words come first, four per monomial
            words.clear()
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, "add_word", faulty)
                with pytest.raises(AssertionError,
                                   match="the slice differentials do not compose to zero"):
                    build_slice(ctx, l, omega)
            assert words[first] == (0, 1, l + 1, 0)


def test_plain_slices_rank_their_integer_rows_and_read_fractions_once(monkeypatch):
    # an untwisted slice over Q keeps its checked integer rows for the rank;
    # d0 and d1 are built from them on first read, as reduced Fractions equal
    # to the product-chain rows, and kept; dims() builds no Fraction
    from xnalg import cohomology
    from xnalg.cohomology import expected_hh_dim

    built = []

    class Spy(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(cohomology, "Fraction", Spy)
    for N in (2, 3, 5):
        ctx = AlgebraCtx(N)
        for l in (-N, 0, 4, 3 * N + 1):
            sl = build_slice(ctx, l)
            dims = sl.dims()
            assert built == [], (N, l)
            for row in (*sl.rows0, *sl.rows1):
                assert all(type(c) is int for c in row.values())
            d0, d1 = sl.d0, sl.d1
            assert len(built) == sum(map(len, (*d0, *d1))), (N, l)  # one per entry
            assert (d0, d1) == _reference_slice(ctx, l, None), (N, l)
            assert (d0, d1) == (sl.rows0, sl.rows1)
            for row in (*d0, *d1):
                assert all(type(c) is Fraction and c.denominator == 1 for c in row.values())
            built.clear()
            assert sl.d0 is d0 and sl.d1 is d1 and built == []
            assert sl.dims() == dims
            assert dims == tuple(expected_hh_dim(N, p, l, None) for p in (0, 1, 2))
    # every slice keeps its integer rows.  Untwisted over Q(zeta_3), dims()
    # ranks them and builds no CycloScalar; twisted, it ranks the field rows,
    # read once at omega and kept
    f3 = CycloField(3)
    made = []
    real_init = CycloScalar.__init__

    def counted(self, *args):
        made.append(args)
        real_init(self, *args)

    monkeypatch.setattr(CycloScalar, "__init__", counted)
    ctx = AlgebraCtx(3, False, f3)
    for l in (-3, 0, 4, 10):
        sl = build_slice(ctx, l)
        made.clear()
        assert sl.dims() == tuple(expected_hh_dim(3, p, l, None) for p in (0, 1, 2)), l
        assert made == [], l
        for row in (*sl.rows0, *sl.rows1):
            assert all(type(c) is int for c in row.values())
        assert (sl.d0, sl.d1) == _reference_slice(ctx, l, None), l
    for ctx, omega in ((AlgebraCtx(3, False, f3), f3.zeta), (AlgebraCtx(3), Fraction(-2, 3))):
        sl = build_slice(ctx, 4, omega)
        for row in (*sl.rows0, *sl.rows1):
            assert all(type(c) is int for c in row.values())
        d0, d1 = sl.d0, sl.d1
        dims = sl.dims()
        assert sl.d0 is d0 and sl.d1 is d1 and sl.dims() == dims
        assert (d0, d1) == _reference_slice(ctx, 4, Automorphism.diagonal(ctx, omega))
        assert (d0, d1) != (sl.rows0, sl.rows1)


def test_hh_n_budget_refuses_before_any_slice(monkeypatch):
    from xnalg import cohomology

    monkeypatch.setattr(cohomology, "build_slice", lambda *args: pytest.fail("a slice was built"))
    f3 = CycloField(3)
    for ctx, omega in ((AlgebraCtx(101), None), (AlgebraCtx(10**6), None),
                       (AlgebraCtx(10**4, False, f3), f3.zeta)):
        with pytest.raises(ValueError, match=rf"^N = {ctx.N} is above the hh budget of 100$"):
            hh_profile(ctx, 0, 1, omega)
    assert cohomology.MAX_HH_N == 100


def test_taft_obstruction_checks_up_to_degree_6_by_default():
    # degrees 0..6 at N = 3 hold 1, 1, 2, 2, 3, 3, 4 monomials
    report = taft_obstruction(3, 2)
    assert report.checked_monomials == 16 and report.ok
    assert report == taft_obstruction(3, 2, 6)
    assert taft_obstruction(4, 3).checked_monomials == 1 + 1 + 1 + 2 + 2 + 2 + 3
