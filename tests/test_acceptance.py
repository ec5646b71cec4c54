"""Acceptance gate: every criterion below is exact (integer or rational
equality; no tolerances) and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

from toric_deform.fano import build_P_F, family_branch_report, is_fano, is_prism_over
from toric_deform.gallery import (
    HEXAGON_SKEW,
    PENTAGON_COPRIME_QUADRICS,
    PENTAGON_MONOMIAL_HULL,
    PENTAGON_TANGENT_QUADRICS,
    QUADRILATERAL_DUAL_NUMBERS,
)
from toric_deform.groebner import hilbert_function, ideal_equal, ideal_intersect
from toric_deform.hulls import (
    CyclicQuotient,
    build_altmann_ideal,
    classify,
    cyclic_quotient_t1,
    hj_expansion,
    hull_report,
    reduced_presentation,
    verify_drop_edge_invariance,
    verify_truncation,
)
from toric_deform.lattice import (
    build_hexagon_family,
    check_iterate_disjointness,
    edge_vectors,
    is_unit_edge,
    iterate_matrix_mod2,
    polygon_from_points,
)
from toric_deform.polynomials import Ideal, Polynomial, linear_substitute

import test_fano
import test_groebner
import test_hulls
import test_lattice
import test_polynomials
from test_polynomials import verify_newton_recurrence


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_classification_table():
    with criterion(1, "classification table for the four reference polygons"):
        assert classify(QUADRILATERAL_DUAL_NUMBERS).tag == "Case1a"
        assert classify(PENTAGON_MONOMIAL_HULL).tag == "Case2c"
        assert classify(PENTAGON_COPRIME_QUADRICS).tag == "Case2a"
        assert classify(PENTAGON_TANGENT_QUADRICS).tag == "Case2b"


def test_criterion_2_hilbert_formulas(corpus):
    with criterion(2, "H(1) = m-3 and H(2) = (m^2-5m+2)/2 over a corpus of >= 20"):
        assert len(corpus) >= 20
        assert {p.edge_count for p in corpus} == {4, 5, 6, 7, 8}
        for poly in corpus:
            m = poly.edge_count
            values = hilbert_function(build_altmann_ideal(poly).ideal, 2)
            assert values[1] == m - 3
            if m >= 5:
                assert values[2] == (m * m - 5 * m + 2) // 2


def test_criterion_3_skew_hexagon():
    with criterion(3, "skew hexagon: coordinate change, primary components, report"):
        ring = ("u", "v", "w")
        u, v, w = (Polynomial.variable(ring, n) for n in ring)
        target = Ideal.from_generators([u * v, u * w + v * w, u ** 3, v ** 2 * w])

        # (a) the printed presentation maps onto the four-generator ideal
        edges = edge_vectors(HEXAGON_SKEW).edges
        pres = build_altmann_ideal(HEXAGON_SKEW,
                                   dropped_edge=edges.index((1, -1)), k_max=4)
        p_var = pres.variables[pres.edge_indices.index(edges.index((1, 0)))]
        q_var = pres.variables[pres.edge_indices.index(edges.index((0, 1)))]
        red = reduced_presentation(pres, pivot_variables=(p_var, q_var))
        x_var = pres.variables[pres.edge_indices.index(edges.index((-1, 1)))]
        y_var = pres.variables[pres.edge_indices.index(edges.index((-2, 1)))]
        z_var = pres.variables[pres.edge_indices.index(edges.index((1, -2)))]
        image = linear_substitute(
            red.ideal,
            {x_var: 4 * u + 4 * v, y_var: u + w, z_var: 3 * u + 4 * v + w},
            ring)
        assert ideal_equal(image, target)

        # (b) the three printed primary components intersect to the ideal
        met = ideal_intersect(
            ideal_intersect(Ideal.from_generators([u + v, v ** 2], ring),
                            Ideal.from_generators([u, w], ring)),
            Ideal.from_generators([u ** 3, v, w], ring))
        assert ideal_equal(met, target)

        # (c) exactly two components, both of dimension 1
        report = hull_report(HEXAGON_SKEW)
        assert len(report.components) == 2
        assert all(c.dimension == 1 for c in report.components)


def test_criterion_4_newton_and_truncation(corpus):
    with criterion(4, "50 random power-sum recurrences and truncation with "
                      "k_extra=3 over the corpus (seed 20240901)"):
        rng = random.Random(20240901)
        for _ in range(50):
            n = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(-10, 10), rng.randint(1, 10))
                      for _ in range(n)]
            k = n + rng.randint(1, 3)
            assert verify_newton_recurrence([f"x{i + 1}" for i in range(n)], coeffs, k)
        for poly in corpus:
            assert verify_truncation(poly, 3)


def test_criterion_5_drop_edge_invariance(corpus):
    with criterion(5, "drop-edge invariance for all corpus polygons with m <= 6"):
        small = [p for p in corpus if p.edge_count <= 6]
        assert small
        for poly in small:
            assert verify_drop_edge_invariance(poly)


def test_criterion_6_family_bounds():
    with criterion(6, "family r = 0, 1, 2: shapes, bounds, Fano prism, "
                      "r=2 within 60 s"):
        start = time.monotonic()
        for r in (0, 1, 2):
            poly = build_hexagon_family(r)
            assert len(poly.vertices) == 6 * r + 6
            assert is_unit_edge(poly)
            report = family_branch_report(r)
            assert report.bounds.decomposition_count >= 2 ** (r + 1)
            assert report.bounds.stack_lower >= 2 ** (2 * r + 2)
            assert report.bounds.space_lower >= 2 ** (2 * r)
            polytope = build_P_F(poly)
            assert is_fano(polytope)
            assert is_prism_over(polytope, poly)
        assert time.monotonic() - start < 60


def test_criterion_7_iterate_disjointness():
    with criterion(7, "iterate sets disjoint up to n=10 and matrix = identity mod 2"):
        ok, witness = check_iterate_disjointness(10)
        assert ok and witness is None
        assert iterate_matrix_mod2(1) == ((1, 0), (0, 1))


def test_criterion_8_cyclic_quotients():
    with criterion(8, "cyclic quotient dimensions and continued fractions"):
        assert cyclic_quotient_t1(CyclicQuotient(3, 2)) == 2
        assert cyclic_quotient_t1(CyclicQuotient(5, 3)) == 3
        assert cyclic_quotient_t1(CyclicQuotient(5, 2)) == 3
        assert hj_expansion(3, 2).entries == (2, 2)
        assert hj_expansion(5, 2).entries == (3, 2)
        assert hj_expansion(5, 3).entries == (2, 3)


# a unit-edge 9-gon (d = 6), one beyond the corpus
NONAGON = polygon_from_points([(-2, 1), (0, 0), (1, 0), (3, 1), (4, 3), (4, 4),
                               (2, 5), (0, 4), (-1, 3)])


def cube_quotient_h2(d):
    """H(2) of one quadric plus the cube of the maximal ideal in d variables."""
    ring = tuple(f"y{i}" for i in range(d))
    ys = [Polynomial.variable(ring, v) for v in ring]
    gens = [ys[0] ** 2] + [a * b * c for a, b, c in combinations_with_replacement(ys, 3)]
    return hilbert_function(Ideal.from_generators(gens, ring), 2)[2]


def test_criterion_9_obstruction_mismatch(corpus):
    with criterion(9, "H(2) of a polygon, (d^2+d-4)/2, never equals H(2) of a "
                      "quadric plus the cube quotient, (d^2+d)/2 - 1, for d = 2..6"):
        polygons = {9: NONAGON}
        for poly in corpus:
            polygons.setdefault(poly.edge_count, poly)
        assert NONAGON.edge_count == 9 and is_unit_edge(NONAGON)
        for d in range(2, 7):
            forced = hilbert_function(build_altmann_ideal(polygons[d + 3]).ideal, 2)[2]
            cube = cube_quotient_h2(d)
            assert forced == (d * d + d - 4) // 2
            assert cube == (d * d + d) // 2 - 1
            assert forced != cube


def test_criterion_10_property_suites(corpus):
    with criterion(10, "module invariant suites rerun green (fixed seeds)"):
        test_polynomials.test_rational_arithmetic_is_exact()
        test_polynomials.test_monomial_orders_are_multiplicative()
        test_groebner.test_groebner_idempotence_random()
        test_groebner.test_membership_soundness_random_combinations()
        test_groebner.test_intersection_on_principal_ideals_is_lcm()
        test_groebner.test_hilbert_of_zero_ideal_is_binomial()
        test_groebner.test_contains_cube_matches_root_oracle()
        test_lattice.test_corpus_edge_invariants(corpus)
        test_lattice.test_parts_recombine_and_are_indecomposable(corpus)
        test_lattice.test_decomposition_count_is_unimodular_invariant(corpus)
        test_lattice.test_count_is_supermultiplicative_on_family()
        test_lattice.test_family_shape_through_r4()
        test_lattice.test_decomposition_counts_match_bitmask_oracle(corpus)
        test_hulls.test_hilbert_formulas_over_corpus(corpus)
        test_hulls.test_classification_exhaustive_and_hilbert_closed_forms(corpus)
        test_hulls.test_component_dimensions_and_artinian_flag(corpus)
        test_hulls.test_hj_expansion_roundtrip_up_to_50()
        test_fano.test_corpus_polytopes_are_fano_and_symmetric(corpus)
        test_fano.test_stack_bound_is_product_of_facet_counts(corpus)
        test_fano.test_bounds_monotone_along_family()
