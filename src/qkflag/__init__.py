"""Exact torus-equivariant quantum K-theory of type A partial flag varieties.

Fixed-point localization model, Demazure operators, curve neighborhoods,
K-theoretic Gromov-Witten invariants, quantum products by line bundles, and
machine verification of quantum Whitney relations and ring presentations.
"""

__version__ = "0.1.0"

from .algebra import (
    LaurentPolynomial,
    QSeries,
    elem_sym,
    qs_inverse,
)
from .weyl import FlagSpace, min_coset_reps, z_d
from .ktheory import (
    KClass,
    bundle_class,
    bundle_quotient_class,
    det_class,
    demazure_op,
    euler_char,
    expand_schubert,
    pairings,
    schubert_class,
)
from .curves import curve_neighborhood_schubert
from .qk import (
    GWOracle,
    QKElement,
    basis_element,
    conjectural_product_fln,
    embed_classical,
    gw2,
    gw3_divisor,
    line_bundle_product,
    line_bundle_solve,
    quantum_gram,
    verify_flag_reduction,
    verify_qk_whitney,
)
from .presentation import (
    IdealSpec,
    PresPoly,
    clear_q_units,
    coulomb_equivalence,
    groebner_dimension,
    ideal_generators,
    pres_names,
    pres_one,
    pres_q,
    pres_q0,
    pres_scalar,
    pres_substitute,
    pres_var,
    pres_zero,
    psi_evaluate,
    render_pres,
)
