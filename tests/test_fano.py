"""The height-(+1/-1) polytope, its Fano/prism checks, and branch bounds."""

import pytest

from oracles import _dot3, convex_hull_3d
from toric_deform.fano import (
    BranchBounds,
    build_P_F,
    family_branch_report,
    is_fano,
    is_prism_over,
    is_reflexive,
    kmoduli_branch_bounds,
)
from toric_deform.gallery import (
    GALLERY,
    HEXAGON_SYMMETRIC,
    PENTAGON_COPRIME_QUADRICS,
    QUADRILATERAL_DUAL_NUMBERS,
)
from toric_deform.hulls import NonUnitEdgeError
from toric_deform.lattice import (
    build_hexagon_family,
    decomposition_count,
    is_centrally_symmetric,
    is_unit_edge,
    polygon_from_points,
)

TRIANGLE = polygon_from_points([(0, 0), (1, 0), (0, 1)])


def _content(v):
    from math import gcd
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))


def _assert_valid_polytope(p):
    for vertex in p.vertices:
        sat = 0
        for facet in p.facets:
            value = _dot3(facet.normal, vertex)
            assert value <= facet.offset
            if value == facet.offset:
                sat += 1
        assert sat >= 3
    for facet in p.facets:
        assert _content(facet.normal) == 1
        assert any(_dot3(facet.normal, v) == facet.offset for v in p.vertices)


def test_triangle_polytope():
    p = build_P_F(TRIANGLE)
    assert len(p.vertices) == 6
    assert set(p.vertices) == {(-x, -y, -z) for x, y, z in p.vertices}
    assert is_fano(p)
    assert not is_prism_over(p, TRIANGLE)
    _assert_valid_polytope(p)


def test_symmetric_hexagon_polytope_is_prism():
    p = build_P_F(HEXAGON_SYMMETRIC)
    assert is_prism_over(p, HEXAGON_SYMMETRIC)
    assert is_fano(p)
    assert is_reflexive(p)
    assert {f.normal for f in p.facets} >= {(0, 0, 1), (0, 0, -1)}
    _assert_valid_polytope(p)


def test_family_polytopes():
    for r in (1, 2, 8):
        poly = build_hexagon_family(r)
        p = build_P_F(poly)
        assert len(p.vertices) == 2 * (6 * r + 6)
        assert is_prism_over(p, poly)
        assert is_fano(p)
        _assert_valid_polytope(p)


def test_closed_form_matches_hull_oracle(corpus, random_polygons):
    assert any(not is_unit_edge(p) for p in random_polygons)
    polygons = (list(GALLERY.values()) + corpus
                + [build_hexagon_family(r) for r in range(4)] + random_polygons)
    for poly in polygons:
        lifted = [(x, y, 1) for x, y in poly.vertices]
        lifted += [(-x, -y, -1) for x, y in poly.vertices]
        assert build_P_F(poly) == convex_hull_3d(lifted), poly.vertices


def test_corpus_polytopes_are_fano_and_symmetric(corpus):
    for poly in corpus:
        p = build_P_F(poly)
        assert is_fano(p)
        assert set(p.vertices) == {(-x, -y, -z) for x, y, z in p.vertices}
        assert is_prism_over(p, poly) == is_centrally_symmetric(poly)
        _assert_valid_polytope(p)


def test_cube_is_fano_and_reflexive():
    cube = convex_hull_3d([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert len(cube.vertices) == 8
    assert len(cube.facets) == 6
    assert is_fano(cube)
    assert is_reflexive(cube)


def test_translated_polytope_is_not_fano():
    p = build_P_F(HEXAGON_SYMMETRIC)
    shifted = convex_hull_3d([(x, y, z + 1) for x, y, z in p.vertices])
    assert not is_fano(shifted)


def test_nonprimitive_vertex_is_not_fano():
    p = convex_hull_3d([(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0),
                        (0, 0, 1), (0, 0, -1)])
    assert not is_fano(p)  # (2, 0, 0) is not primitive


def test_hull_rejects_degenerate_input():
    with pytest.raises(ValueError):
        convex_hull_3d([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        convex_hull_3d([(0, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_hull_keeps_only_extreme_points():
    p = convex_hull_3d([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                        (1, 0, 0), (0, 1, 1)])
    assert set(p.vertices) == {(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)}


def test_prism_requires_central_symmetry():
    p = build_P_F(QUADRILATERAL_DUAL_NUMBERS)
    assert not is_prism_over(p, QUADRILATERAL_DUAL_NUMBERS)


def facet_polygons(polytope):
    """The top (z = 1) and bottom (z = -1) facets of P_F as plane polygons."""
    return tuple(polygon_from_points([(x, y) for x, y, z in polytope.vertices if z == h])
                 for h in (1, -1))


def test_stack_bound_is_product_of_facet_counts(corpus):
    polygons = list(GALLERY.values()) + corpus + [build_hexagon_family(r) for r in range(3)]
    for polygon in polygons:
        top, bottom = facet_polygons(build_P_F(polygon))
        assert top == polygon
        assert (kmoduli_branch_bounds(polygon).stack_lower
                == decomposition_count(top) * decomposition_count(bottom))


def test_hexagon_branch_bounds():
    bounds = kmoduli_branch_bounds(HEXAGON_SYMMETRIC)
    assert bounds == BranchBounds(2, 4, 1, 4)


def test_indecomposable_pentagon_bounds_floor_at_one():
    bounds = kmoduli_branch_bounds(PENTAGON_COPRIME_QUADRICS)
    assert bounds.decomposition_count == 1
    assert bounds.stack_lower == 1
    assert bounds.space_lower == 1


def test_bounds_reject_non_unit_edges():
    doubled = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(NonUnitEdgeError):
        kmoduli_branch_bounds(doubled)
    with pytest.raises(ValueError):
        kmoduli_branch_bounds(HEXAGON_SYMMETRIC, aut_divisor=0)


def test_family_branch_reports():
    r0 = family_branch_report(0)
    assert r0.bounds == BranchBounds(2, 4, 1, 4)
    assert r0.prism and r0.fano
    r1 = family_branch_report(1)
    assert r1.bounds.stack_lower >= 16
    assert r1.bounds.space_lower >= 4
    assert isinstance(r1.reflexive, bool)
    json_data = r1.to_json_dict()
    assert json_data["vertex_count"] == 12
    assert json_data["bounds"]["stack_lower"] == r1.bounds.stack_lower


def test_bounds_monotone_along_family():
    counts = [family_branch_report(r).bounds.decomposition_count for r in (0, 1, 2)]
    assert counts[0] == 2
    assert counts[1] >= 2 * counts[0]
    assert counts[2] >= 2 * counts[1]


def test_polytope_json():
    p = build_P_F(TRIANGLE)
    data = p.to_json_dict()
    assert set(data) == {"vertices", "facets"}
    assert all(len(v) == 3 for v in data["vertices"])
    assert all(set(f) == {"normal", "offset"} for f in data["facets"])
