"""The pinned verification ledger behind ``toric-deform verify-paper``.

Every worked example with a documented expected value runs here as an
independent pass/fail check: the hexagon coordinate change onto its
four-generator ideal, the primary-component intersection, the pentagon
classification table, Hilbert values, the iterate family bounds, the
surface-side continued fractions, and the Fano polytope facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

from .fano import (
    build_P_F,
    family_branch_report,
    is_fano,
    is_prism_over,
    kmoduli_branch_bounds,
)
from .gallery import (
    GALLERY,
    HEXAGON_SKEW,
    HEXAGON_SYMMETRIC,
    PENTAGON_COPRIME_QUADRICS,
    PENTAGON_MONOMIAL_HULL,
    PENTAGON_TANGENT_QUADRICS,
    QUADRILATERAL_DUAL_NUMBERS,
)
from .groebner import (
    contains_cube_of_maximal_ideal,
    hilbert_function,
    ideal_equal,
    ideal_intersect,
)
from .hulls import (
    CyclicQuotient,
    build_altmann_ideal,
    classify,
    cyclic_quotient_t1,
    drop_edge_map,
    hj_expansion,
    hull_report,
    reduced_presentation,
    rigidity_oracle,
)
from .lattice import (
    build_hexagon_family,
    check_iterate_disjointness,
    decomposition_count,
    edge_vectors,
    enumerate_maximal_decompositions,
    is_unit_edge,
    minkowski_sum,
    polygon_from_points,
)
from .polynomials import Ideal, Polynomial, linear_substitute


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    run: Callable[[], bool]


def _skew_hexagon_reduced() -> tuple:
    """The three-variable presentation of the skew hexagon printed in the
    worked example: drop the edge (1,-1), solve for the edges (1,0), (0,1)."""
    edges = edge_vectors(HEXAGON_SKEW).edges
    pres = build_altmann_ideal(HEXAGON_SKEW, dropped_edge=edges.index((1, -1)), k_max=4)
    p = pres.variables[pres.edge_indices.index(edges.index((1, 0)))]
    q = pres.variables[pres.edge_indices.index(edges.index((0, 1)))]
    red = reduced_presentation(pres, pivot_variables=(p, q))
    # remaining labels, in the roles x, y, z of the worked example
    x = pres.variables[pres.edge_indices.index(edges.index((-1, 1)))]
    y = pres.variables[pres.edge_indices.index(edges.index((-2, 1)))]
    z = pres.variables[pres.edge_indices.index(edges.index((1, -2)))]
    return red, (x, y, z)


def _monomial_target_ideal() -> Ideal:
    ring = ("u", "v", "w")
    u = Polynomial.variable(ring, "u")
    v = Polynomial.variable(ring, "v")
    w = Polynomial.variable(ring, "w")
    return Ideal.from_generators([u * v, u * w + v * w, u ** 3, v ** 2 * w])


def _check_hexagon_substitution() -> bool:
    red, (x, y, z) = _skew_hexagon_reduced()
    ring = ("u", "v", "w")
    u = Polynomial.variable(ring, "u")
    v = Polynomial.variable(ring, "v")
    w = Polynomial.variable(ring, "w")
    image = linear_substitute(red.ideal,
                              {x: 4 * u + 4 * v, y: u + w, z: 3 * u + 4 * v + w},
                              ring)
    return ideal_equal(image, _monomial_target_ideal())


def _check_hexagon_primary_intersection() -> bool:
    ring = ("u", "v", "w")
    u = Polynomial.variable(ring, "u")
    v = Polynomial.variable(ring, "v")
    w = Polynomial.variable(ring, "w")
    first = Ideal.from_generators([u + v, v ** 2], ring)
    second = Ideal.from_generators([u, w], ring)
    third = Ideal.from_generators([u ** 3, v, w], ring)
    met = ideal_intersect(ideal_intersect(first, second), third)
    return ideal_equal(met, _monomial_target_ideal())


def _check_pentagon_quadric_dimension() -> bool:
    red = reduced_presentation(build_altmann_ideal(PENTAGON_MONOMIAL_HULL))
    # H(2) = 1 in the two reduced variables: dim I_2 = C(3, 2) - 1 = 2
    return hilbert_function(red.ideal, 2)[2] == 1


def _check_coprime_cubes() -> bool:
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    return (contains_cube_of_maximal_ideal(x ** 2, y ** 2)
            and contains_cube_of_maximal_ideal(2 * x * y + y ** 2, x ** 2 - x * y))


def _check_drop_map_telescope() -> bool:
    """The explicit change of variables between two dropped-edge
    presentations sends each power sum onto the stated binomial combination
    of the other presentation's power sums."""
    m = HEXAGON_SKEW.edge_count
    pres_a = build_altmann_ideal(HEXAGON_SKEW, dropped_edge=0)
    pres_b = build_altmann_ideal(HEXAGON_SKEW, dropped_edge=m - 1)
    target = pres_b.variables
    y1 = Polynomial.variable(target, "x1")
    mapping = drop_edge_map(pres_a, pres_b)
    for k in range(1, m - 1):
        image = pres_a.power_sum("a", k).substitute(mapping, target)
        expected = Polynomial.zero(target)
        for l in range(1, k + 1):
            expected = expected + comb(k, l) * (-y1) ** (k - l) * pres_b.power_sum("a", l)
        if image != expected:
            return False
    return True


def _check_quadrilateral_vertices() -> bool:
    poly = polygon_from_points([(1, 1), (-1, 0), (-1, -1), (0, -1)])
    return poly == QUADRILATERAL_DUAL_NUMBERS and len(poly.vertices) == 4


def _check_symmetric_hexagon_edges() -> bool:
    edges = edge_vectors(HEXAGON_SYMMETRIC).edges
    wanted = {(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, 1)}
    return set(edges) == wanted and sum(e[0] for e in edges) == 0


def _check_skew_hexagon_edges() -> bool:
    edges = set(edge_vectors(HEXAGON_SKEW).edges)
    return edges == {(1, 0), (0, 1), (-1, 1), (-2, 1), (1, -2), (1, -1)}


def _check_two_triangle_sum() -> bool:
    decs = enumerate_maximal_decompositions(HEXAGON_SYMMETRIC)
    triangle_dec = next(d for d in decs if len(d.parts) == 2)
    a, b = triangle_dec.summand_vertex_lists()
    total = minkowski_sum(a, b)
    return sorted(edge_vectors(total).edges) == sorted(edge_vectors(HEXAGON_SYMMETRIC).edges)


def _check_hexagon_decompositions() -> bool:
    decs = enumerate_maximal_decompositions(HEXAGON_SYMMETRIC)
    sizes = sorted(len(d.parts) for d in decs)
    return len(decs) == 2 and sizes == [2, 3]


def _check_family_shapes() -> bool:
    for r in (1, 2):
        poly = build_hexagon_family(r)
        if len(poly.vertices) != 6 * r + 6 or not is_unit_edge(poly):
            return False
    return decomposition_count(build_hexagon_family(2)) >= 8


def _check_triangle_presentation() -> bool:
    pres = build_altmann_ideal(polygon_from_points([(0, 0), (1, 0), (0, 1)]))
    ring = pres.variables
    target = Ideal.from_generators(
        [Polynomial.variable(ring, v) for v in ring], ring)
    return ideal_equal(pres.ideal, target) and hilbert_function(pres.ideal, 2) == [1, 0, 0]


def _check_quadrilateral_hilbert() -> bool:
    pres = build_altmann_ideal(QUADRILATERAL_DUAL_NUMBERS)
    return hilbert_function(pres.ideal, 3) == [1, 1, 0, 0]


def _check_symmetric_hexagon_hilbert() -> bool:
    pres = build_altmann_ideal(HEXAGON_SYMMETRIC)
    return hilbert_function(pres.ideal, 4) == [1, 3, 4, 5, 6]


def _check_classification_table() -> bool:
    return (classify(QUADRILATERAL_DUAL_NUMBERS).tag == "Case1a"
            and classify(PENTAGON_MONOMIAL_HULL).tag == "Case2c"
            and classify(PENTAGON_COPRIME_QUADRICS).tag == "Case2a"
            and classify(PENTAGON_TANGENT_QUADRICS).tag == "Case2b")


def _check_skew_hexagon_report() -> bool:
    report = hull_report(HEXAGON_SKEW)
    return (report.embedding_dimension == 3
            and report.hilbert[2] == 4
            and len(report.components) == 2
            and all(c.dimension == 1 for c in report.components))


def _check_family_r1_report() -> bool:
    report = hull_report(build_hexagon_family(1), d_max=1)
    return report.embedding_dimension == 9 and len(report.components) >= 4


def _check_obstruction_dimensions() -> bool:
    """H(2), computed, of every gallery pentagon (d = 2) and hexagon (d = 3)."""
    forced = {2: 1, 3: 4}
    found: dict[int, set[int]] = {}
    for polygon in GALLERY.values():
        d = polygon.edge_count - 3
        if d in forced:
            found.setdefault(d, set()).add(
                hilbert_function(build_altmann_ideal(polygon).ideal, 2)[2])
    return found == {d: {h} for d, h in forced.items()}


def _check_hj_expansions() -> bool:
    return (hj_expansion(3, 2).entries == (2, 2)
            and hj_expansion(5, 2).entries == (3, 2)
            and hj_expansion(5, 3).entries == (2, 3))


def _check_cyclic_quotients() -> bool:
    return (cyclic_quotient_t1(CyclicQuotient(3, 2)) == 2
            and cyclic_quotient_t1(CyclicQuotient(5, 3)) == 3
            and cyclic_quotient_t1(CyclicQuotient(5, 2)) == 3)


def _check_rigidity() -> bool:
    return rigidity_oracle(4, True) and rigidity_oracle(3, False)


def _check_prism_and_fano() -> bool:
    prism = build_P_F(HEXAGON_SYMMETRIC)
    triangle = polygon_from_points([(0, 0), (1, 0), (0, 1)])
    return (is_prism_over(prism, HEXAGON_SYMMETRIC)
            and is_fano(prism)
            and is_fano(build_P_F(triangle)))


def _check_segre_counts() -> bool:
    """The stack bound is the product of the decomposition counts of the
    top and bottom facets of P_F, read off the polytope."""
    for polygon in (HEXAGON_SYMMETRIC, HEXAGON_SKEW, build_hexagon_family(1)):
        vertices = build_P_F(polygon).vertices
        top, bottom = (polygon_from_points([(x, y) for x, y, z in vertices if z == h])
                       for h in (1, -1))
        if (kmoduli_branch_bounds(polygon).stack_lower
                != decomposition_count(top) * decomposition_count(bottom)):
            return False
    return True


def _check_hexagon_bounds() -> bool:
    bounds = kmoduli_branch_bounds(HEXAGON_SYMMETRIC)
    return (bounds.decomposition_count, bounds.stack_lower, bounds.space_lower) == (2, 4, 1)


def _check_family_bounds() -> bool:
    for r in (0, 1, 2):
        rep = family_branch_report(r)
        if not (rep.bounds.stack_lower >= 2 ** (2 * r + 2)
                and rep.bounds.space_lower >= 2 ** (2 * r)):
            return False
    return True


def _check_iterates() -> bool:
    ok, witness = check_iterate_disjointness(10)
    return ok and witness is None


PAPER_EXAMPLE_CHECKS: tuple[Check, ...] = (
    Check("hexagon-substitution", "skew hexagon ideal matches (uv, uw+vw, u^3, v^2 w) "
          "after the documented coordinate change", _check_hexagon_substitution),
    Check("hexagon-primary-intersection", "the three primary components intersect "
          "to the skew hexagon's ideal", _check_hexagon_primary_intersection),
    Check("pentagon-quadric-dimension", "a pentagon's reduced ideal has a "
          "2-dimensional degree-2 piece", _check_pentagon_quadric_dimension),
    Check("coprime-quadrics-cube", "coprime binary quadrics contain the cube of the "
          "maximal ideal", _check_coprime_cubes),
    Check("drop-map-telescope", "the change of variables between dropped-edge "
          "presentations telescopes power sums as stated", _check_drop_map_telescope),
    Check("quadrilateral-hull-vertices", "the dual-numbers quadrilateral has the "
          "expected canonical vertices", _check_quadrilateral_vertices),
    Check("symmetric-hexagon-edges", "the symmetric hexagon has the six expected "
          "unit edges summing to zero", _check_symmetric_hexagon_edges),
    Check("skew-hexagon-edges", "the skew hexagon has the six expected unit edges",
          _check_skew_hexagon_edges),
    Check("two-triangle-sum", "the symmetric hexagon's triangle summands recombine "
          "to its edge multiset", _check_two_triangle_sum),
    Check("hexagon-decompositions", "the symmetric hexagon has exactly two maximal "
          "decompositions: two triangles and three segments", _check_hexagon_decompositions),
    Check("family-shapes", "family members have 6r+6 vertices, unit edges, and at "
          "least 2^(r+1) decompositions", _check_family_shapes),
    Check("triangle-presentation", "a unit triangle's ideal is the full maximal "
          "ideal (hull is a point)", _check_triangle_presentation),
    Check("quadrilateral-hilbert", "the dual-numbers quadrilateral has Hilbert "
          "values (1, 1, 0)", _check_quadrilateral_hilbert),
    Check("symmetric-hexagon-hilbert", "the symmetric hexagon has Hilbert values "
          "(1, 3, 4, 5, 6)", _check_symmetric_hexagon_hilbert),
    Check("classification-table", "the four gallery polygons classify as Case1a, "
          "Case2c, Case2a, Case2b", _check_classification_table),
    Check("skew-hexagon-report", "the skew hexagon report has embedding dimension 3 "
          "and two components of dimension 1", _check_skew_hexagon_report),
    Check("family-r1-report", "the r=1 family member has embedding dimension 9 and "
          "at least 4 components", _check_family_r1_report),
    Check("obstruction-dimensions", "the forced degree-2 dimensions are 1 (d=2) "
          "and 4 (d=3)", _check_obstruction_dimensions),
    Check("hj-expansions", "3/2=[2,2], 5/2=[3,2], 5/3=[2,3]", _check_hj_expansions),
    Check("cyclic-quotient-dimensions", "first-order deformation dimensions: "
          "(3,2)->2, (5,3)->3, (5,2)->3", _check_cyclic_quotients),
    Check("rigidity-oracle", "dimension >= 4 and non-Gorenstein 3-folds are rigid",
          _check_rigidity),
    Check("prism-and-fano", "the polytope over a symmetric polygon is a Fano prism",
          _check_prism_and_fano),
    Check("segre-counts", "Segre products multiply minimal prime counts",
          _check_segre_counts),
    Check("hexagon-branch-bounds", "the symmetric hexagon gives bounds (4, 1)",
          _check_hexagon_bounds),
    Check("family-branch-bounds", "family bounds meet 2^(2r+2) and 2^(2r) for r <= 2",
          _check_family_bounds),
    Check("iterate-disjointness", "iterate vector sets up to n=10 are pairwise "
          "disjoint and the matrix is the identity mod 2", _check_iterates),
)


def run_checks() -> list[dict]:
    """Run every pinned check; returns one record per check."""
    records = []
    for check in PAPER_EXAMPLE_CHECKS:
        try:
            passed = bool(check.run())
            error = None
        except Exception as exc:  # a crash is a failure, not an abort
            passed = False
            error = f"{type(exc).__name__}: {exc}"
        records.append({"id": check.check_id,
                        "description": check.description,
                        "passed": passed,
                        **({"error": error} if error else {})})
    return records
