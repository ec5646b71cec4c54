"""The centrally symmetric Fano 3-polytope over a polygon and the branch
count bounds it yields on the K-moduli side.

The polytope spanned by the polygon at height 1 and its negative at height
-1 is Fano (origin interior, primitive vertices); when the polygon is
centrally symmetric it is a prism.  It is an affine image of the Cayley
polytope of the polygon and its negative, so its vertices and facets are
written down in closed form, with no hull search.  Its top and bottom facets
are the polygon and its negative, with D maximal Minkowski decompositions
each, so a pair of decompositions, one per facet, gives a local branch: D^2
on the moduli stack and floor(D^2 / |Aut|) on the moduli space, with
|Aut| = 4 on the prism family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import (
    LatticePolygon,
    build_hexagon_family,
    decomposition_count,
    edge_vectors,
    is_unit_edge,
    symmetry_center_doubled,
)
from .hulls import NonUnitEdgeError

Vec3 = tuple[int, int, int]


def _content3(v: Vec3) -> int:
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))


@dataclass(frozen=True)
class Facet:
    """Supporting inequality normal . p <= offset with primitive outward normal."""

    normal: Vec3
    offset: int


@dataclass(frozen=True)
class LatticePolytope3:
    """Full-dimensional lattice polytope: extreme points plus facet inequalities."""

    vertices: tuple[Vec3, ...]
    facets: tuple[Facet, ...]

    def to_json_dict(self) -> dict:
        return {"vertices": [[x, y, z] for x, y, z in self.vertices],
                "facets": [{"normal": list(f.normal), "offset": f.offset}
                           for f in self.facets]}


def build_P_F(polygon: LatticePolygon) -> LatticePolytope3:
    """Convex hull of the polygon at height 1 and its negative at height -1;
    centrally symmetric by construction.

    Written down in closed form: the 2m lifted vertices, the top and bottom
    facets, and one side facet per outer edge normal u of F + (-F), with
    normal (2u, h_{-F}(u) - h_F(u)) and offset h_F(u) + h_{-F}(u), where h is
    the support function.
    """
    vs = polygon.vertices
    vertices = sorted([(x, y, 1) for x, y in vs] + [(-x, -y, -1) for x, y in vs])
    planes = {((0, 0, 1), 1), ((0, 0, -1), 1)}
    for ex, ey in edge_vectors(polygon).primitives:
        for ux, uy in ((ey, -ex), (-ey, ex)):
            h_top = max(ux * x + uy * y for x, y in vs)
            h_bottom = max(-ux * x - uy * y for x, y in vs)
            n = (2 * ux, 2 * uy, h_bottom - h_top)
            c = _content3(n)
            planes.add(((n[0] // c, n[1] // c, n[2] // c), (h_top + h_bottom) // c))
    return LatticePolytope3(tuple(vertices),
                            tuple(Facet(n, offset) for n, offset in sorted(planes)))


def is_fano(polytope: LatticePolytope3) -> bool:
    """Origin strictly interior and every vertex a primitive lattice vector."""
    if any(f.offset <= 0 for f in polytope.facets):
        return False
    return all(_content3(v) == 1 for v in polytope.vertices)


def is_reflexive(polytope: LatticePolytope3) -> bool:
    """The polar polytope has lattice vertices; with primitive normals this
    means every facet offset is 1.  Reported, never required."""
    return all(f.offset == 1 for f in polytope.facets)


def is_prism_over(polytope: LatticePolytope3, polygon: LatticePolygon) -> bool:
    """Is the polytope the region between the polygon at height 1 and its
    parallel translate at height -1?

    This needs the polygon to be centrally symmetric: the bottom copy is the
    top one shifted by minus twice the symmetry center (no shift at all when
    the polygon is symmetric about the origin, giving the literal product
    with a length-2 segment).
    """
    s = symmetry_center_doubled(polygon)
    if s is None:
        return False
    expected = {(v[0], v[1], 1) for v in polygon.vertices}
    expected |= {(v[0] - s[0], v[1] - s[1], -1) for v in polygon.vertices}
    return set(polytope.vertices) == expected


@dataclass(frozen=True)
class BranchBounds:
    """Lower bounds for local branch counts at the Fano 3-fold attached to a
    polygon: D^2 on the moduli stack, floor(D^2/aut_divisor) (at least 1) on
    the moduli space."""

    decomposition_count: int
    stack_lower: int
    space_lower: int
    aut_divisor: int

    def to_json_dict(self) -> dict:
        return {"decomposition_count": self.decomposition_count,
                "stack_lower": self.stack_lower,
                "space_lower": self.space_lower,
                "aut_divisor": self.aut_divisor}


def kmoduli_branch_bounds(polygon: LatticePolygon, aut_divisor: int = 4,
                          cap: int | None = None) -> BranchBounds:
    """Branch-count lower bounds from the decomposition count D.

    The top and bottom facets of ``build_P_F(polygon)`` are the polygon and
    its negative, each with D maximal decompositions, and every pair of them
    gives a branch: D * D on the stack.  The default divisor 4 is the order
    of the polytope automorphism group on the prism family; for other
    polygons the caller owns the choice.
    """
    if aut_divisor < 1:
        raise ValueError("aut_divisor must be positive")
    if not is_unit_edge(polygon):
        raise NonUnitEdgeError("branch bounds need unit edges (isolated singularities)")
    d = decomposition_count(polygon, cap)
    stack = d * d
    space = max(1, stack // aut_divisor)
    return BranchBounds(d, stack, space, aut_divisor)


@dataclass(frozen=True)
class FamilyBranchReport:
    """Verified data for one member of the iterated-hexagon family."""

    r: int
    polygon: LatticePolygon
    vertex_count: int
    unit_edges: bool
    centrally_symmetric: bool
    bounds: BranchBounds
    fano: bool
    prism: bool
    reflexive: bool

    def to_json_dict(self) -> dict:
        return {"r": self.r,
                "polygon": self.polygon.to_json_dict(),
                "vertex_count": self.vertex_count,
                "unit_edges": self.unit_edges,
                "centrally_symmetric": self.centrally_symmetric,
                "bounds": self.bounds.to_json_dict(),
                "fano": self.fano,
                "prism": self.prism,
                "reflexive": self.reflexive}


def family_branch_report(r: int, aut_divisor: int = 4,
                         cap: int | None = None) -> FamilyBranchReport:
    """Build the r-th family polygon, check every claimed property, and
    return the verified report.  Raises if any check fails."""
    polygon = build_hexagon_family(r)
    vertex_count = len(polygon.vertices)
    unit = is_unit_edge(polygon)
    symmetric = symmetry_center_doubled(polygon) is not None
    bounds = kmoduli_branch_bounds(polygon, aut_divisor, cap)
    polytope = build_P_F(polygon)
    fano = is_fano(polytope)
    prism = is_prism_over(polytope, polygon)
    checks = {
        "vertex count 6r+6": vertex_count == 6 * r + 6,
        "unit edges": unit,
        "centrally symmetric": symmetric,
        "decompositions >= 2^(r+1)": bounds.decomposition_count >= 2 ** (r + 1),
        "stack bound >= 2^(2r+2)": bounds.stack_lower >= 2 ** (2 * r + 2),
        "space bound >= 2^(2r)": bounds.space_lower >= 2 ** (2 * r),
        "Fano polytope": fano,
        "prism over the polygon": prism,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(f"family member r={r} fails: {', '.join(failed)}")
    return FamilyBranchReport(r, polygon, vertex_count, unit, symmetric, bounds,
                              fano, prism, is_reflexive(polytope))
