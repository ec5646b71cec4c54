"""Named example polygons used by the CLI, the verification ledger and tests.

Each constant is a canonical unit-edge lattice polygon whose deformation
base realizes one of the small hull types, plus the two hexagons: the
centrally symmetric one that seeds the iterate family and the skew one whose
algebra is not isomorphic to any monomial quotient.
"""

from .lattice import BASE_HEXAGON, polygon_from_points

# hull C[x]/(x^2): a quadrilateral that is not a parallelogram
QUADRILATERAL_DUAL_NUMBERS = polygon_from_points(
    [(1, 1), (-1, 0), (-1, -1), (0, -1)])

# hull C[[x,y]]/(x^2, x*y): the two reduced quadrics share a factor and the
# cube of the maximal ideal survives
PENTAGON_MONOMIAL_HULL = polygon_from_points(
    [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])

# hull C[x,y]/(x^2, y^2): the two reduced quadrics are coprime
PENTAGON_COPRIME_QUADRICS = polygon_from_points(
    [(0, 0), (1, 0), (1, 1), (0, 2), (-2, 1)])

# hull C[x,y]/(x^2, x*y, y^3): quadrics share a factor, cube dies
PENTAGON_TANGENT_QUADRICS = polygon_from_points(
    [(0, 0), (1, 0), (2, 2), (0, 3), (-3, 2)])

# hull C[x,y,z]/(x*y, x*z) after completion; centrally symmetric, seeds the
# iterate family
HEXAGON_SYMMETRIC = BASE_HEXAGON

# hull not isomorphic to any monomial quotient; two maximal Minkowski
# decompositions (quadrilateral + segment, triangle + triangle)
HEXAGON_SKEW = polygon_from_points(
    [(0, 0), (1, 0), (1, 1), (0, 2), (-2, 3), (-1, 1)])

GALLERY = {
    "quadrilateral-dual-numbers": QUADRILATERAL_DUAL_NUMBERS,
    "pentagon-monomial-hull": PENTAGON_MONOMIAL_HULL,
    "pentagon-coprime-quadrics": PENTAGON_COPRIME_QUADRICS,
    "pentagon-tangent-quadrics": PENTAGON_TANGENT_QUADRICS,
    "hexagon-symmetric": HEXAGON_SYMMETRIC,
    "hexagon-skew": HEXAGON_SKEW,
}
