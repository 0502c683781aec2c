"""pfaffkit: exact chain certificates and series criteria for algebraic ODEs.

A symbolic toolkit that decides, with certificates or named criterion
violations, whether generic solutions of given equations live in
triangular polynomial chains, rational chains, or solvability and
reducibility classes described through their symmetry groups.
"""

from .errors import PfaffkitError, InternalInvariant
from .exactfield import (
    AlgebraicScalar,
    NumberField,
    UniPoly,
    extract_linear_roots,
    nf_new,
    poly_gcd,
    rational_multiple,
    scalar_sqrt,
)
from .diffalg import (
    BaseDiffField,
    DiffIndeterminateExpr,
    DiffPoly,
    DiffRatFunc,
    RatFunc,
    riccati_reduce,
    substitute,
)
from .chains import (
    ChainElement,
    NoetherianSystem,
    PfaffianChain,
    PresentationCertificate,
    VerifyResult,
    combine,
    invert_element,
    rational_to_noetherian,
    search_presentation,
    total_derivative,
    verify_backward,
    verify_forward,
)
from .groups import (
    AllowedSet,
    Atom,
    EULERIAN,
    Elliptic,
    Extension,
    Finite,
    GL,
    Ga,
    GaxGm,
    Gm,
    ONE_REDUCIBLE_INTERNAL,
    PGL,
    PSL,
    Product,
    SL,
    ThreeValued,
    Torus,
    UnknownSubgroupOf,
    check_series,
    d_solvable,
    d_solvable_set,
    generic_transitivity,
    gl_affine_action,
    pgl_projective_action,
    product,
    extension,
    subgroup_of,
    reducibility_profile,
    series_witness_valid,
)
from .criteria import (
    FactoredRatFunc,
    LinearReport,
    ResidueData,
    Verdict,
    classify_linear,
    classify_order_one,
    degree_criterion,
    extract_factored,
    not_pfaffian_by_degree_theorem,
    residues_of_inverse,
    strict_disintegration_test,
    weierstrass_check,
)
from .parser import ParseError

__version__ = "0.1.0"
