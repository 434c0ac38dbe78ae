"""Exact computer-algebra kernel for the algebras k<x, y>/(yx - xy - x^N):
normal-form arithmetic, special sequences, the automorphism group, (twisted)
derivations, degreewise Hochschild cohomology, and the related obstruction
checks - everything over exact scalar fields."""

from .scalars import (
    CycloField,
    CycloScalar,
    FieldMismatchError,
    MPoly,
    PolyRing,
    QPoly,
    SchemaError,
    TruncSeries,
    cyclo_primitive_root,
    cyclotomic_polynomial,
    euler_phi,
    series_from_coeff_rule,
)
from .sequences import (
    bernoulli,
    c_eval,
    c_poly,
    double_factorial,
    gaussian_binomial,
    gregory,
    laguerre_poly,
    pochhammer_k,
)
from .ncalg import (
    AlgebraCtx,
    CtxMismatchError,
    Element,
    basis_of_degree,
    comm_move_left,
    comm_move_right,
    commutator,
    hilbert_count,
    laguerre_identity_check,
    normal_order_power,
    normalize_product,
    phi_element,
    power,
    render_element,
)
from .maps import (
    Automorphism,
    GenDerivation,
    IllDefinedDerivationError,
    ad_nilpotency_evidence,
    ad_phi,
    conjugator_to_diagonal,
    d_g,
    decompose_degree,
    exp_ad,
    exp_lnd,
    grading_derivation,
    is_locally_ad_nilpotent,
    partial_l,
    restrict_to_algebra,
    sigma,
)
from .cohomology import (
    BracketResult,
    ComplexSlice,
    DimsReport,
    LaurentPoly,
    NilReport,
    TaftReport,
    bracket_table,
    build_slice,
    cohomology_dims,
    expected_hh_dim,
    hh_profile,
    hh_reports,
    is_inner,
    laurent_act,
    nil_chain_check,
    residue_inner_test,
    standard_derivation,
    taft_obstruction,
    veronese_basis,
    veronese_relation_report,
)

__version__ = "0.1.0"
