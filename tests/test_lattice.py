"""Lattice polygons, Minkowski decompositions, unimodular maps, the family."""

import random

import pytest

from toric_deform.lattice import (
    BASE_HEXAGON,
    DegeneratePolygonError,
    EnumerationCapError,
    LatticePolygon,
    UnimodularMap,
    apply_unimodular,
    build_hexagon_family,
    check_iterate_disjointness,
    cross,
    decomposition_count,
    edge_vectors,
    enumerate_maximal_decompositions,
    is_centrally_symmetric,
    is_unit_edge,
    iterate_matrix_mod2,
    mat_pow,
    minkowski_sum,
    polygon_from_points,
    symmetry_center_doubled,
)

from oracles import decomposition_count_bitmask, enumerate_decompositions_backtracking
from toric_deform.gallery import GALLERY

TRIANGLE = polygon_from_points([(0, 0), (1, 0), (0, 1)])
SQUARE = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
QUAD = polygon_from_points([(1, 1), (-1, 0), (-1, -1), (0, -1)])


def test_hull_of_triangle():
    assert TRIANGLE.vertices == ((0, 0), (1, 0), (0, 1))


def test_hull_dedupes_and_drops_interior():
    poly = polygon_from_points([(0, 0), (1, 0), (0, 1), (1, 0)])
    assert poly == TRIANGLE
    bigger = polygon_from_points([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert bigger.vertices == ((0, 0), (2, 0), (0, 2))


def test_hull_is_idempotent_on_canonical_input():
    assert polygon_from_points(QUAD.vertices) == QUAD


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegeneratePolygonError):
        polygon_from_points([(0, 0), (1, 1)])
    with pytest.raises(DegeneratePolygonError):
        polygon_from_points([(0, 0), (1, 1), (2, 2), (3, 3)])


def test_points_must_have_integer_coordinates():
    for bad in ([(0.5, 0), (1, 0), (0, 1)], [(True, 0), (1, 0), (0, 1)],
                [(0, 0, 5), (1, 0, 7), (0, 1, 9)], [(0,), (1, 0), (0, 1)],
                [None, (1, 0), (0, 1)], [5, (1, 0), (0, 1)]):
        with pytest.raises(ValueError):
            polygon_from_points(bad)
        with pytest.raises(ValueError):
            minkowski_sum(TRIANGLE, bad)
        with pytest.raises(ValueError):
            minkowski_sum(bad, TRIANGLE)


def test_quadrilateral_has_four_vertices():
    assert QUAD.edge_count == 4
    assert set(QUAD.vertices) == {(1, 1), (-1, 0), (-1, -1), (0, -1)}


def test_edge_vectors_of_square():
    ev = edge_vectors(SQUARE)
    assert ev.edges == ((1, 0), (0, 1), (-1, 0), (0, -1))
    assert ev.lengths == (1, 1, 1, 1)


def test_edge_vectors_of_base_hexagon():
    ev = edge_vectors(BASE_HEXAGON)
    assert set(ev.edges) == {(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, 1)}
    assert sum(e[0] for e in ev.edges) == 0 and sum(e[1] for e in ev.edges) == 0


def test_edge_vectors_of_skew_hexagon():
    poly = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 2), (-2, 3), (-1, 1)])
    edges = set(edge_vectors(poly).edges)
    assert {(1, 0), (0, 1), (-1, 1), (-2, 1), (1, -2)} < edges
    assert (1, -1) in edges


def test_unit_edge_and_symmetry_flags():
    assert is_unit_edge(SQUARE) and is_centrally_symmetric(SQUARE)
    assert is_unit_edge(QUAD) and not is_centrally_symmetric(QUAD)
    assert is_centrally_symmetric(BASE_HEXAGON)
    assert symmetry_center_doubled(BASE_HEXAGON) == (0, 0)
    assert symmetry_center_doubled(SQUARE) == (1, 1)
    doubled = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert not is_unit_edge(doubled)


def test_minkowski_sum_with_point_translates():
    moved = minkowski_sum(TRIANGLE, [(5, 7)])
    assert moved.vertices == tuple((x + 5, y + 7) for x, y in TRIANGLE.vertices)


def test_minkowski_sum_edge_multisets_merge():
    s = minkowski_sum(TRIANGLE, SQUARE)
    left = sorted(edge_vectors(TRIANGLE).primitives + edge_vectors(SQUARE).primitives)
    expanded = []
    ev = edge_vectors(s)
    for prim, length in zip(ev.primitives, ev.lengths):
        expanded.extend([prim] * length)
    assert sorted(expanded) == left


def test_two_triangles_sum_to_hexagon():
    decs = enumerate_maximal_decompositions(BASE_HEXAGON)
    two = next(d for d in decs if len(d.parts) == 2)
    a, b = two.summand_vertex_lists()
    total = minkowski_sum(a, b)
    assert sorted(edge_vectors(total).edges) == sorted(edge_vectors(BASE_HEXAGON).edges)
    assert len(a) == 3 and len(b) == 3


def test_segment_sum_builds_hexagon():
    segs = [[(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (-1, 1)]]
    total = minkowski_sum(minkowski_sum(segs[0], segs[1]), segs[2])
    assert total.edge_count == 6
    assert set(edge_vectors(total).edges) == {(1, 0), (0, 1), (-1, 1),
                                              (-1, 0), (0, -1), (1, -1)}


def test_triangle_is_indecomposable():
    decs = enumerate_maximal_decompositions(TRIANGLE)
    assert len(decs) == 1
    assert len(decs[0].parts) == 1


def test_hexagon_has_exactly_two_decompositions():
    decs = enumerate_maximal_decompositions(BASE_HEXAGON)
    assert len(decs) == 2
    sizes = sorted(len(d.parts) for d in decs)
    assert sizes == [2, 3]
    segments = next(d for d in decs if len(d.parts) == 3)
    assert all(len(part) == 2 for part in segments.parts)
    assert all(len(s) == 2 for s in segments.summand_vertex_lists())


def test_unit_square_decomposes_into_two_segments():
    decs = enumerate_maximal_decompositions(SQUARE)
    assert len(decs) == 1
    assert decs[0].parts == (((-1, 0), (1, 0)), ((0, -1), (0, 1)))


def test_decomposition_counts_match_bitmask_oracle(corpus):
    for poly in corpus:
        assert decomposition_count(poly) == decomposition_count_bitmask(poly)
    assert decomposition_count(build_hexagon_family(1)) == \
        decomposition_count_bitmask(build_hexagon_family(1))


def test_bitmask_oracle_refuses_non_unit_edges():
    with pytest.raises(AssertionError):
        decomposition_count_bitmask(polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)]))


def test_enumeration_matches_backtracking_oracle(corpus, random_polygons):
    assert any(not is_unit_edge(p) for p in random_polygons)
    polygons = (list(GALLERY.values()) + corpus
                + [build_hexagon_family(r) for r in range(3)] + random_polygons)
    for poly in polygons:
        expected = enumerate_decompositions_backtracking(poly)
        found = enumerate_maximal_decompositions(poly)
        assert len(set(found)) == len(found), poly
        assert found == expected, poly
        assert decomposition_count(poly) == len(expected), poly


def test_shared_first_value_parts_counted_once():
    # non-unit edges: two parts may both use the first primitive value
    for vertices, distinct in (([(-3, 2), (-1, -2), (0, -2), (1, -1), (1, 4), (-3, 4)], 2),
                               ([(-3, -3), (4, -3), (4, 3), (3, 4), (1, 3), (-2, 0)], 3)):
        poly = polygon_from_points(vertices)
        decompositions = enumerate_maximal_decompositions(poly)
        assert len(decompositions) == len(set(decompositions)) == distinct
        assert decomposition_count(poly) == distinct


def test_family_counts_pinned():
    # r = 4 has 30 copies, exactly the default cap
    counts = [decomposition_count(build_hexagon_family(r)) for r in range(5)]
    assert counts == [2, 8, 28, 100, 356]


def test_parts_recombine_and_are_indecomposable(corpus):
    for poly in corpus:
        ev = edge_vectors(poly)
        full = sorted(ev.primitives)
        for dec in enumerate_maximal_decompositions(poly):
            assert sorted(v for part in dec.parts for v in part) == full
            for part in dec.parts:
                if len(part) == 2:
                    assert part[0] == (-part[1][0], -part[1][1])
                else:
                    summand = polygon_from_points(_walk(part))
                    assert len(enumerate_maximal_decompositions(summand)) == 1


def _walk(part):
    from toric_deform.lattice import angle_key
    pos = (0, 0)
    out = [pos]
    for v in sorted(part, key=angle_key):
        pos = (pos[0] + v[0], pos[1] + v[1])
        out.append(pos)
    return out[:-1]


def test_decomposition_count_is_unimodular_invariant(corpus):
    rng = random.Random(20240701)
    shear_up = ((1, 1), (0, 1))
    shear_dn = ((1, 0), (1, 1))
    rot = ((0, -1), (1, 0))
    flip = ((0, 1), (1, 0))
    for poly in corpus:
        base = decomposition_count(poly)
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 4)):
            from toric_deform.lattice import mat_mul
            m = mat_mul(m, rng.choice([shear_up, shear_dn, rot, flip]))
        moved = apply_unimodular(
            UnimodularMap(m, (rng.randint(-3, 3), rng.randint(-3, 3))), poly)
        assert decomposition_count(moved) == base


def test_count_is_supermultiplicative_on_family():
    h_count = decomposition_count(BASE_HEXAGON)
    first_iterate = apply_unimodular(UnimodularMap(mat_pow(((5, 2), (2, 1)), 1)),
                                     BASE_HEXAGON)
    assert decomposition_count(first_iterate) == h_count
    summed = minkowski_sum(BASE_HEXAGON, first_iterate)
    assert decomposition_count(summed) >= h_count * h_count
    assert decomposition_count(build_hexagon_family(2)) >= \
        decomposition_count(summed) * h_count


def test_apply_unimodular_examples():
    ident = UnimodularMap(((1, 0), (0, 1)))
    assert apply_unimodular(ident, QUAD) == QUAD
    rot = UnimodularMap(((0, -1), (1, 0)))
    rotated = apply_unimodular(rot, SQUARE)
    assert sorted(edge_vectors(rotated).edges) == sorted(edge_vectors(SQUARE).edges)
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))


def test_enumeration_cap():
    big = polygon_from_points([(0, 0), (16, 0), (16, 16), (0, 16)])
    with pytest.raises(EnumerationCapError) as info:
        enumerate_maximal_decompositions(big)
    assert info.value.count == 64
    assert "64" in str(info.value)
    with pytest.raises(EnumerationCapError):
        enumerate_maximal_decompositions(BASE_HEXAGON, cap=3)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("TORIC_DEFORM_CAP", "4")
    with pytest.raises(EnumerationCapError):
        enumerate_maximal_decompositions(BASE_HEXAGON)
    monkeypatch.setenv("TORIC_DEFORM_CAP", "40")
    big = polygon_from_points([(0, 0), (9, 0), (9, 9), (0, 9)])
    assert len(enumerate_maximal_decompositions(big)) >= 1


def test_family_shape_through_r4():
    for r in range(5):
        poly = build_hexagon_family(r)
        assert len(poly.vertices) == 6 * r + 6
        assert is_unit_edge(poly)
        assert is_centrally_symmetric(poly)


def test_family_counts_meet_lower_bounds():
    for r in (0, 1, 2):
        assert decomposition_count(build_hexagon_family(r)) >= 2 ** (r + 1)


def test_family_count_monotonicity():
    counts = [decomposition_count(build_hexagon_family(r)) for r in (0, 1, 2)]
    assert counts[1] >= 2 * counts[0]
    assert counts[2] >= 2 * counts[1]


def test_iterate_disjointness():
    ok, witness = check_iterate_disjointness(1)
    assert ok and witness is None
    ok, witness = check_iterate_disjointness(10)
    assert ok and witness is None
    assert iterate_matrix_mod2(5) == ((1, 0), (0, 1))
    assert iterate_matrix_mod2(1) == ((1, 0), (0, 1))


def test_corpus_edge_invariants(corpus):
    for poly in corpus:
        ev = edge_vectors(poly)
        assert sum(e[0] for e in ev.edges) == 0
        assert sum(e[1] for e in ev.edges) == 0
        assert len(set(ev.primitives)) == len(ev.primitives)
        n = len(ev.edges)
        for i in range(n):
            assert cross(ev.edges[i], ev.edges[(i + 1) % n]) > 0


def test_polygon_json_roundtrip():
    data = QUAD.to_json_dict()
    assert data == {"vertices": [[-1, -1], [0, -1], [1, 1], [-1, 0]]}
    assert LatticePolygon.from_json_dict(data) == QUAD
