"""Presentations, algebra identity checks, classification, hull reports,
and the cyclic-quotient surface side."""

import itertools
import random
from fractions import Fraction

import pytest

from toric_deform.gallery import (
    GALLERY,
    HEXAGON_SKEW,
    HEXAGON_SYMMETRIC,
    PENTAGON_COPRIME_QUADRICS,
    PENTAGON_MONOMIAL_HULL,
    PENTAGON_TANGENT_QUADRICS,
    QUADRILATERAL_DUAL_NUMBERS,
)
from toric_deform.groebner import buchberger, hilbert_function, ideal_equal, normal_form
from toric_deform.hulls import (
    CASE_2D,
    CyclicQuotient,
    HJExpansion,
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
from toric_deform.lattice import (
    UnimodularMap,
    apply_unimodular,
    build_hexagon_family,
    edge_vectors,
    mat_mul,
    polygon_from_points,
)
from toric_deform.polynomials import Ideal, Polynomial

from conftest import build_corpus
from test_polynomials import verify_newton_recurrence
from oracles import (
    hilbert_by_graded_ranks,
    hilbert_by_standard_monomials,
    quadrics_coprime,
    reduced_presentation_by_substitution,
)

TRIANGLE = polygon_from_points([(0, 0), (1, 0), (0, 1)])
SQUARE = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


# -- presentations --------------------------------------------------------------


def test_triangle_presentation_is_maximal_ideal():
    pres = build_altmann_ideal(TRIANGLE)
    ring = pres.variables
    maximal = Ideal.from_generators([Polynomial.variable(ring, v) for v in ring], ring)
    assert ideal_equal(pres.ideal, maximal)
    assert hilbert_function(pres.ideal, 3) == [1, 0, 0, 0]


def test_quadrilateral_presentation_hilbert():
    pres = build_altmann_ideal(QUADRILATERAL_DUAL_NUMBERS)
    assert hilbert_function(pres.ideal, 4) == [1, 1, 0, 0, 0]


def test_symmetric_hexagon_presentation_hilbert():
    pres = build_altmann_ideal(HEXAGON_SYMMETRIC)
    assert hilbert_function(pres.ideal, 4) == [1, 3, 4, 5, 6]


def test_presentation_counts_and_labels():
    pres = build_altmann_ideal(HEXAGON_SKEW)
    assert len(pres.ideal.generators) == 2 * (6 - 2)
    assert pres.ideal.is_homogeneous
    assert len(pres.variables) == 5
    assert pres.dropped_edge == 5
    assert all(f"x{i + 1}" in pres.variables for i in pres.edge_indices)
    other = build_altmann_ideal(HEXAGON_SKEW, dropped_edge=2)
    assert "x3" not in other.variables and "x6" in other.variables


def test_presentation_rejects_bad_indices():
    with pytest.raises(ValueError):
        build_altmann_ideal(TRIANGLE, dropped_edge=3)
    with pytest.raises(ValueError):
        build_altmann_ideal(TRIANGLE, k_max=0)


def test_reduced_presentation_matches_full_membership():
    pres = build_altmann_ideal(PENTAGON_COPRIME_QUADRICS)
    red = reduced_presentation(pres)
    substitution, _ = reduced_presentation_by_substitution(pres)
    assert len(red.variables) == 2
    gb_full = buchberger(pres.ideal)
    gb_red = buchberger(red.ideal)
    for k in (4, 5):
        full_member = normal_form(pres.power_sum("a", k), gb_full).is_zero
        image = pres.power_sum("a", k).substitute(substitution, red.variables)
        red_member = normal_form(image, gb_red).is_zero
        assert full_member and red_member


def test_reduced_presentation_matches_substitution_oracle(corpus):
    polygons = list(GALLERY.values()) + corpus + _unimodular_images(corpus, 20, 20261020)
    presentations = [build_altmann_ideal(poly) for poly in polygons]
    # the first two columns are parallel, so the second pivot is the third
    presentations.append(build_altmann_ideal(SQUARE, dropped_edge=1))
    for pres in presentations:
        red = reduced_presentation(pres)
        substitution, ideal = reduced_presentation_by_substitution(pres)
        assert red.pivot_variables == tuple(substitution)
        assert red.variables == ideal.variables
        assert buchberger(red.ideal).elements == buchberger(ideal).elements, pres.polygon
    assert red.pivot_variables == ("x1", "x4")


def test_reduced_presentation_explicit_pivots_on_skew_hexagon():
    invertible = singular = 0
    for dropped in range(HEXAGON_SKEW.edge_count):
        pres = build_altmann_ideal(HEXAGON_SKEW, dropped_edge=dropped)
        a, b = pres.a_coeffs, pres.b_coeffs
        for i, j in itertools.combinations(range(len(a)), 2):
            pivots = (pres.variables[i], pres.variables[j])
            if a[i] * b[j] - a[j] * b[i] == 0:
                singular += 1
                with pytest.raises(ValueError, match="invertible minor"):
                    reduced_presentation(pres, pivots)
                continue
            invertible += 1
            red = reduced_presentation(pres, pivots)
            _, ideal = reduced_presentation_by_substitution(pres, pivots)
            assert red.pivot_variables == pivots
            assert buchberger(red.ideal).elements == buchberger(ideal).elements, pivots
    # the edge pair (-1, 1), (1, -1) is parallel whenever neither is dropped
    assert singular == 4 and invertible == 56


# -- identity checks ------------------------------------------------------------


def test_newton_recurrence_single_variable():
    assert verify_newton_recurrence(["x1"], [1], 3)


def test_newton_recurrence_random_rationals():
    rng = random.Random(20240801)
    for _ in range(10):
        n = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        k = n + rng.randint(1, 2)
        assert verify_newton_recurrence([f"x{i}" for i in range(n)], coeffs, k)


def test_newton_recurrence_hexagon_coefficients():
    coeffs = [e[0] for e in edge_vectors(HEXAGON_SKEW).edges[:4]]
    assert verify_newton_recurrence(["x1", "x2", "x3", "x4"], coeffs, 6)


def test_newton_recurrence_rejects_small_k():
    with pytest.raises(ValueError):
        verify_newton_recurrence(["x1", "x2"], [1, 1], 2)


def test_truncation_examples():
    assert verify_truncation(TRIANGLE, 2)
    assert verify_truncation(SQUARE, 2)
    assert verify_truncation(HEXAGON_SKEW, 2)
    assert verify_truncation(PENTAGON_TANGENT_QUADRICS, 2)


def test_truncation_needs_a_degree_to_check():
    for k_extra in (0, -4):
        with pytest.raises(ValueError):
            verify_truncation(HEXAGON_SKEW, k_extra)


def test_drop_edge_invariance_examples():
    assert verify_drop_edge_invariance(TRIANGLE)
    assert verify_drop_edge_invariance(SQUARE)
    assert verify_drop_edge_invariance(PENTAGON_COPRIME_QUADRICS)


def test_drop_edge_invariance_cost_guard():
    with pytest.raises(ValueError):
        verify_drop_edge_invariance(build_hexagon_family(1))


# -- classification --------------------------------------------------------------


def test_classification_of_gallery():
    assert classify(TRIANGLE).tag == "Case0"
    assert classify(SQUARE).tag == "Case1b"
    assert classify(QUADRILATERAL_DUAL_NUMBERS).tag == "Case1a"
    assert classify(PENTAGON_MONOMIAL_HULL).tag == "Case2c"
    assert classify(PENTAGON_COPRIME_QUADRICS).tag == "Case2a"
    assert classify(PENTAGON_TANGENT_QUADRICS).tag == "Case2b"
    assert classify(HEXAGON_SYMMETRIC).label == "HigherEmbeddingDim(3)"


def test_classification_requires_unit_edges():
    doubled = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(NonUnitEdgeError):
        classify(doubled)


EXPECTED_HILBERT = {
    "Case0": (1, 0, 0, 0, 0),
    "Case1a": (1, 1, 0, 0, 0),
    "Case1b": (1, 1, 1, 1, 1),
    "Case2a": (1, 2, 1, 0, 0),
    "Case2b": (1, 2, 1, 0, 0),
    "Case2c": (1, 2, 1, 1, 1),
}


def test_classification_exhaustive_and_hilbert_closed_forms(corpus):
    seen = set()
    for poly in corpus:
        if poly.edge_count > 5:
            continue
        case = classify(poly)
        assert case.tag in EXPECTED_HILBERT
        assert case.tag != CASE_2D.tag
        seen.add(case.tag)
        report = hull_report(poly)
        assert report.hilbert == EXPECTED_HILBERT[case.tag]
    for poly in (TRIANGLE, SQUARE, QUADRILATERAL_DUAL_NUMBERS, PENTAGON_MONOMIAL_HULL,
                 PENTAGON_COPRIME_QUADRICS, PENTAGON_TANGENT_QUADRICS):
        case = classify(poly)
        seen.add(case.tag)
        assert hull_report(poly).hilbert == EXPECTED_HILBERT[case.tag]
    assert seen == set(EXPECTED_HILBERT)


def _pentagon_case_by_substitution(polygon):
    """Case2a when the two quadrics of the substituted presentation have no
    common root; otherwise Case2b or Case2c as H(3) is 0 or not."""
    _, ideal = reduced_presentation_by_substitution(build_altmann_ideal(polygon))
    f, g = (q for q in ideal.generators if q.total_degree() == 2)
    if quadrics_coprime(f, g):
        return "Case2a"
    return "Case2b" if hilbert_by_standard_monomials(ideal, 3)[3] == 0 else "Case2c"


def test_pentagon_classification_matches_oracle_on_census():
    # all 104 zero-sum sets of 5 distinct primitive vectors in [-2, 2]^2
    census = build_corpus({5: 104})
    gallery = [PENTAGON_MONOMIAL_HULL, PENTAGON_COPRIME_QUADRICS, PENTAGON_TANGENT_QUADRICS]
    tags = set()
    for poly in census + gallery + _unimodular_images(gallery, 9, 20261021):
        tag = classify(poly).tag
        assert tag == _pentagon_case_by_substitution(poly), poly
        tags.add(tag)
    assert tags == {"Case2a", "Case2b", "Case2c"}


def test_case_2a_2b_share_hilbert_but_differ_by_coprimality():
    a = hull_report(PENTAGON_COPRIME_QUADRICS)
    b = hull_report(PENTAGON_TANGENT_QUADRICS)
    assert a.hilbert == b.hilbert
    assert a.classification.tag != b.classification.tag


# -- hull reports ----------------------------------------------------------------


def test_skew_hexagon_report():
    report = hull_report(HEXAGON_SKEW)
    assert report.embedding_dimension == 3
    # frozen from the standard-monomial count for (uv, uw+vw, u^3, v^2 w)
    assert report.hilbert == (1, 3, 4, 3, 3)
    assert len(report.components) == 2
    assert all(c.dimension == 1 for c in report.components)
    assert not report.artinian
    assert report.obstruction_check is True
    sizes = sorted(sorted(len(s) for s in c.decomposition.summand_vertex_lists())
                   for c in report.components)
    assert sizes == [[2, 4], [3, 3]]  # quadrilateral + segment, two triangles


def test_triangle_report_is_artinian():
    report = hull_report(TRIANGLE)
    assert report.embedding_dimension == 0
    assert report.artinian
    assert len(report.components) == 1
    assert report.components[0].dimension == 0
    assert report.classification.tag == "Case0"
    assert report.obstruction_check is None


def test_family_r1_report():
    report = hull_report(build_hexagon_family(1), d_max=2)
    assert report.embedding_dimension == 9
    assert len(report.components) >= 4
    assert report.hilbert[2] == (12 * 12 - 5 * 12 + 2) // 2


def test_component_dimensions_and_artinian_flag(corpus):
    for poly in corpus:
        if poly.edge_count > 6:
            continue
        report = hull_report(poly, d_max=2)
        for comp in report.components:
            assert comp.dimension == len(comp.decomposition.parts) - 1
        assert report.artinian == (len(report.components) == 1
                                   and report.components[0].dimension == 0)


def test_hilbert_formulas_over_corpus(corpus):
    assert len(corpus) >= 20
    for poly in corpus:
        m = poly.edge_count
        values = hilbert_function(build_altmann_ideal(poly).ideal, 2)
        assert values[1] == m - 3
        if m >= 5:
            assert values[2] == (m * m - 5 * m + 2) // 2


def _unimodular_images(polygons, count, seed):
    rng = random.Random(seed)
    moves = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)), ((0, 1), (1, 0))]
    images = []
    for k in range(count):
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 4)):
            m = mat_mul(m, rng.choice(moves))
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        images.append(apply_unimodular(UnimodularMap(m, shift), polygons[k % len(polygons)]))
    return images


def test_hilbert_agrees_with_graded_ranks(corpus):
    polygons = list(GALLERY.values()) + corpus + _unimodular_images(corpus, 20, 20241001)
    for poly in polygons:
        ideal = build_altmann_ideal(poly).ideal
        d_max = 4 if poly.edge_count == 8 else 5
        assert hilbert_function(ideal, d_max) == hilbert_by_graded_ranks(ideal, d_max), poly


def test_truncated_basis_is_low_degree_part_of_full_basis(corpus):
    for poly in corpus:
        if poly.edge_count > 7:
            continue
        ideal = build_altmann_ideal(poly).ideal
        full = buchberger(ideal).elements
        for degree in range(1, 6):
            assert buchberger(ideal, max_degree=degree).elements == tuple(
                g for g in full if g.total_degree() <= degree), (poly, degree)


def test_hilbert_values_are_prefixes(corpus):
    for poly in corpus:
        ideal = build_altmann_ideal(poly).ideal
        d = 4 if poly.edge_count == 8 else 5
        values = hilbert_function(ideal, d)
        for k in range(d + 1):
            assert hilbert_function(ideal, k) == values[:k + 1], (poly, k)


def test_report_json_shape():
    data = hull_report(HEXAGON_SKEW).to_json_dict()
    assert set(data) == {"polygon", "embedding_dimension", "generators", "hilbert",
                         "components", "classification", "artinian", "obstruction_check"}
    assert data["classification"]["tag"] == "HigherEmbeddingDim(3)"
    assert all(isinstance(v, int) for v in data["hilbert"])
    assert len(data["generators"]) == 2 * (6 - 2)
    assert all(isinstance(g, str) and g for g in data["generators"])


def test_report_invariants_do_not_depend_on_dropped_edge(corpus):
    polygons = list(GALLERY.values()) + [p for p in corpus if p.edge_count <= 6]
    count = 0
    for poly in polygons:
        reports = [hull_report(poly, dropped_edge=j).to_json_dict()
                   for j in range(poly.edge_count)]
        for data in reports:
            del data["generators"]
        assert all(data == reports[0] for data in reports), poly
        count += len(reports)
    assert count == 102
    # generators show the chosen presentation, so they do change with it
    readme_pentagon = polygon_from_points([(0, 0), (1, 0), (2, 2), (0, 3), (-3, 2)])
    assert (hull_report(readme_pentagon, dropped_edge=0).generators
            != hull_report(readme_pentagon).generators)


def test_report_requires_unit_edges():
    doubled = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(NonUnitEdgeError):
        hull_report(doubled)


# -- cyclic quotient surfaces ------------------------------------------------------


def test_hj_expansion_examples():
    assert hj_expansion(3, 2).entries == (2, 2)
    assert hj_expansion(5, 2).entries == (3, 2)
    assert hj_expansion(5, 3).entries == (2, 3)


def test_hj_expansion_roundtrip_up_to_50():
    from math import gcd
    for n in range(2, 51):
        for d in range(1, n):
            if gcd(n, d) != 1:
                continue
            exp = hj_expansion(n, d)
            assert all(a >= 2 for a in exp.entries)
            assert exp.evaluate() == Fraction(n, d)


def test_hj_expansion_validates():
    with pytest.raises(ValueError):
        hj_expansion(4, 2)
    with pytest.raises(ValueError):
        hj_expansion(2, 3)
    with pytest.raises(ValueError):
        HJExpansion((1, 2))


def test_cyclic_quotient_t1_examples():
    assert cyclic_quotient_t1(CyclicQuotient(3, 2)) == 2
    assert cyclic_quotient_t1(CyclicQuotient(5, 3)) == 3
    assert cyclic_quotient_t1(CyclicQuotient(5, 2)) == 3


def test_cyclic_quotient_a_series():
    for n in range(2, 9):
        assert cyclic_quotient_t1(CyclicQuotient(n, n - 1)) == n - 1


def test_cyclic_quotient_validates():
    with pytest.raises(ValueError):
        CyclicQuotient(4, 2)
    with pytest.raises(ValueError):
        CyclicQuotient(5, 5)


def test_rigidity_oracle():
    assert rigidity_oracle(4, True)
    assert rigidity_oracle(4, False)
    assert rigidity_oracle(3, False)
    assert not rigidity_oracle(3, True)
    assert not rigidity_oracle(2, True)
    with pytest.raises(ValueError):
        rigidity_oracle(1, True)
