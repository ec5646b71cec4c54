"""Exact deformation-space reports and K-moduli branch bounds for lattice polygons.

Public surface: exact polynomial algebra (Groebner bases over the
rationals), lattice polygons with maximal Minkowski decompositions, hull
reports and classification, the Fano polytope over a polygon (in closed
form) with branch bounds, and a CLI (``toric-deform``).
"""

__version__ = "0.1.0"

from .polynomials import (  # noqa: F401
    GREVLEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    linear_substitute,
)
from .groebner import (  # noqa: F401
    GroebnerBasis,
    buchberger,
    contains_cube_of_maximal_ideal,
    eliminate,
    hilbert_function,
    ideal_equal,
    ideal_intersect,
    normal_form,
)
from .lattice import (  # noqa: F401
    BASE_HEXAGON,
    DegeneratePolygonError,
    EnumerationCapError,
    EdgeVectorList,
    LatticePolygon,
    MinkowskiDecomposition,
    UnimodularMap,
    apply_unimodular,
    build_hexagon_family,
    check_iterate_disjointness,
    decomposition_count,
    edge_vectors,
    enumerate_maximal_decompositions,
    is_centrally_symmetric,
    is_unit_edge,
    minkowski_sum,
    polygon_from_points,
    symmetry_center_doubled,
)
from .hulls import (  # noqa: F401
    AltmannPresentation,
    ClassificationCase,
    CyclicQuotient,
    HJExpansion,
    HullReport,
    NonUnitEdgeError,
    build_altmann_ideal,
    classify,
    cyclic_quotient_t1,
    hj_expansion,
    hull_report,
    reduced_presentation,
    rigidity_oracle,
    verify_drop_edge_invariance,
    verify_truncation,
)
from .fano import (  # noqa: F401
    BranchBounds,
    Facet,
    FamilyBranchReport,
    LatticePolytope3,
    build_P_F,
    family_branch_report,
    is_fano,
    is_prism_over,
    is_reflexive,
    kmoduli_branch_bounds,
)
