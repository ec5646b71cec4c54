"""Groebner engine: bases, truncated bases, normal forms, elimination,
intersection, Hilbert values, and the coprimality test for binary quadrics;
plus the graded-rank oracle's own unit tests."""

import random
from fractions import Fraction
from math import comb

import pytest

from toric_deform.groebner import (
    GroebnerBasis,
    buchberger,
    contains_cube_of_maximal_ideal,
    eliminate,
    hilbert_function,
    ideal_equal,
    ideal_intersect,
    normal_form,
)
from toric_deform.hulls import build_altmann_ideal, reduced_presentation
from toric_deform.polynomials import (
    GREVLEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    exponent_divides,
)

from oracles import (
    graded_piece_dimension,
    monomials_of_degree,
    quadrics_coprime,
    univariate_product,
)

RING = ("x", "y", "z")
X = Polynomial.variable(RING, "x")
Y = Polynomial.variable(RING, "y")
Z = Polynomial.variable(RING, "z")

UVW = ("u", "v", "w")
U = Polynomial.variable(UVW, "u")
V = Polynomial.variable(UVW, "v")
W = Polynomial.variable(UVW, "w")

K_IDEAL = Ideal.from_generators([U * V, U * W + V * W, U ** 3, V ** 2 * W])


def test_monomial_ideal_is_its_own_reduced_basis():
    gb = buchberger(Ideal.from_generators([X * Y, X * Z]))
    assert {str(g) for g in gb.elements} == {"x*y", "x*z"}


def test_single_generator_is_normalized():
    ring = ("x",)
    x = Polynomial.variable(ring, "x")
    gb = buchberger(Ideal.from_generators([3 * x ** 2 - 3]))
    assert [str(g) for g in gb.elements] == ["x^2 - 1"]


def test_four_generator_ideal_closed_under_s_pairs():
    gb = buchberger(K_IDEAL)
    for gen in K_IDEAL.generators:
        assert normal_form(gen, gb).is_zero
    # reduced basis: same ideal, all S-polynomials reduce to zero (idempotence)
    again = buchberger(Ideal.from_generators(list(gb.elements)))
    assert again.elements == gb.elements


def test_normal_form_examples():
    gb = buchberger(Ideal.from_generators([X * Y, X * Z]))
    assert normal_form(X * Y * Z, gb).is_zero
    gb2 = buchberger(Ideal.from_generators([X ** 2, X * Y]))
    assert normal_form(Y ** 3, gb2) == Y ** 3
    assert normal_form(U ** 2 * V, buchberger(K_IDEAL)).is_zero


def test_normal_form_ring_mismatch():
    gb = buchberger(K_IDEAL)
    with pytest.raises(RingMismatchError):
        normal_form(X, gb)


def test_ideal_equal_examples():
    assert ideal_equal(Ideal.from_generators([X]), Ideal.from_generators([2 * X]))
    assert not ideal_equal(Ideal.from_generators([X ** 2, X * Y]),
                           Ideal.from_generators([X ** 2, X * Y, Y ** 3]))


def test_eliminate_examples():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    zero = eliminate(Ideal.from_generators([x - y]), ("x",))
    assert zero.variables == ("y",) and zero.generators == ()
    squared = eliminate(Ideal.from_generators([x - y ** 2, x]), ("x",))
    assert [str(g) for g in squared.generators] == ["y^2"]
    ring3 = ("t", "u", "v")
    t, u, v = (Polynomial.variable(ring3, n) for n in ring3)
    prod = eliminate(Ideal.from_generators([t * u, (1 - t) * v, t ** 2 - t]), ("t",))
    assert prod.variables == ("u", "v")
    assert [str(g) for g in prod.generators] == ["u*v"]


def test_zero_ideal_cases():
    zero = Ideal((), RING)
    assert ideal_equal(zero, Ideal((Polynomial.zero(RING),), RING))
    assert not ideal_equal(zero, Ideal.from_generators([X]))
    assert not ideal_equal(Ideal.from_generators([X]), zero)
    gone = eliminate(zero, ("x",))
    assert gone.variables == ("y", "z") and gone.generators == ()
    for left, right in ((zero, Ideal.from_generators([X])),
                        (Ideal.from_generators([X]), zero), (zero, zero)):
        met = ideal_intersect(left, right)
        assert met.variables == RING and met.generators == ()
    assert hilbert_function(zero, 2) == [1, 3, 6]


def test_eliminate_unknown_variable():
    with pytest.raises(ValueError):
        eliminate(Ideal.from_generators([X]), ("q",))


def test_intersection_examples():
    assert [str(g) for g in ideal_intersect(
        Ideal.from_generators([X], RING), Ideal.from_generators([Y], RING)).generators] == ["x*y"]
    same = ideal_intersect(Ideal.from_generators([X], RING),
                           Ideal.from_generators([X], RING))
    assert [str(g) for g in same.generators] == ["x"]


def test_intersection_of_printed_primary_components():
    first = Ideal.from_generators([U + V, V ** 2], UVW)
    second = Ideal.from_generators([U, W], UVW)
    third = Ideal.from_generators([U ** 3, V, W], UVW)
    met = ideal_intersect(ideal_intersect(first, second), third)
    assert ideal_equal(met, K_IDEAL)


def test_intersection_on_principal_ideals_is_lcm():
    ring = ("x",)
    rng = random.Random(20240601)
    for _ in range(15):
        shared = univariate_product(ring, [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
        left = univariate_product(ring, [5]) * shared
        right = univariate_product(ring, [-7]) * shared
        lcm = univariate_product(ring, [5]) * univariate_product(ring, [-7]) * shared
        met = ideal_intersect(Ideal.from_generators([left], ring),
                              Ideal.from_generators([right], ring))
        assert ideal_equal(met, Ideal.from_generators([lcm], ring))


def _random_ideals() -> list[Ideal]:
    rng = random.Random(20240602)
    ideals = []
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {tuple(rng.randint(0, 2) for _ in RING): Fraction(rng.randint(-4, 4))
                     for _ in range(3)}
            p = Polynomial(RING, terms)
            if not p.is_zero:
                gens.append(p)
        if gens:
            ideals.append(Ideal.from_generators(gens, RING))
    return ideals


def test_groebner_idempotence_random():
    for ideal in _random_ideals():
        gb = buchberger(ideal)
        if gb.elements:
            assert buchberger(Ideal.from_generators(list(gb.elements))).elements == gb.elements


def _assert_reduced(gb: GroebnerBasis) -> None:
    """Monic elements, and no term of any element divisible by the lead of
    another: the defining properties of the reduced basis."""
    leads = gb.leading_exponents()
    for idx, g in enumerate(gb.elements):
        assert g.leading_coefficient(gb.order) == 1, g
        for k, lead in enumerate(leads):
            if k != idx:
                assert not any(exponent_divides(lead, e) for e in g.terms), (g, lead)


def test_bases_are_reduced_random():
    for ideal in _random_ideals():
        for order in (GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)):
            _assert_reduced(buchberger(ideal, order))


def test_bases_are_reduced_on_corpus_presentations(corpus):
    for poly in corpus:
        pres = build_altmann_ideal(poly)
        red = reduced_presentation(pres)
        _assert_reduced(buchberger(pres.ideal))
        _assert_reduced(buchberger(red.ideal))
        if poly.edge_count <= 7:
            _assert_reduced(buchberger(red.ideal, MonomialOrder.block(1)))


def test_membership_soundness_random_combinations():
    rng = random.Random(20240603)

    def random_poly(max_exp, terms):
        return Polynomial(RING, {tuple(rng.randint(0, max_exp) for _ in RING):
                                 Fraction(rng.randint(-3, 3)) for _ in range(terms)})

    for _ in range(8):
        gens = [p for p in (random_poly(2, 3) for _ in range(rng.randint(1, 3)))
                if not p.is_zero]
        if not gens:
            continue
        gb = buchberger(Ideal.from_generators(gens, RING))
        for _ in range(5):
            f = Polynomial.zero(RING)
            for g in gens:
                f = f + random_poly(2, 2) * g
            assert normal_form(f, gb).is_zero


def test_graded_piece_dimension_examples():
    ideal = Ideal.from_generators([X * Y, X * Z])
    assert graded_piece_dimension(ideal, 2) == 2
    assert graded_piece_dimension(ideal, 3) == 5


def test_graded_piece_requires_homogeneous():
    with pytest.raises(ValueError):
        graded_piece_dimension(Ideal.from_generators([X + 1]), 2)


def test_truncation_needs_homogeneous_input():
    with pytest.raises(ValueError):
        buchberger(Ideal.from_generators([X ** 2 - Y, X * Y - Z]), max_degree=3)
    with pytest.raises(ValueError):
        buchberger(Ideal.from_generators([X ** 2 + Y]), max_degree=2)
    # without a bound, the same input is fine
    assert buchberger(Ideal.from_generators([X ** 2 - Y, X * Y - Z])).elements


def test_truncation_keeps_low_degree_elements():
    ring = ("a", "b", "c", "d")
    a, b, c, d = (Polynomial.variable(ring, v) for v in ring)
    twisted_cubic = Ideal.from_generators([a * c - b ** 2, b * d - c ** 2, a * d - b * c])
    mixed = Ideal.from_generators([a ** 2 - b * c, a * b - c * d, d ** 3])
    for ideal in (twisted_cubic, mixed, K_IDEAL):
        full = buchberger(ideal).elements
        for degree in range(0, 6):
            assert buchberger(ideal, max_degree=degree).elements == tuple(
                g for g in full if g.total_degree() <= degree)


def test_hilbert_function_examples():
    ring1 = ("x",)
    assert hilbert_function(Ideal((), ring1), 4) == [1, 1, 1, 1, 1]
    ring2 = ("x", "y")
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    assert hilbert_function(Ideal.from_generators([x ** 2, y ** 2]), 4) == [1, 2, 1, 0, 0]
    assert hilbert_function(Ideal.from_generators([x ** 2, x * y]), 5) == [1, 2, 1, 1, 1, 1]


def test_hilbert_of_zero_ideal_is_binomial():
    for n in (1, 2, 3, 5):
        ring = tuple(f"x{i}" for i in range(n))
        values = hilbert_function(Ideal((), ring), 6)
        assert values == [comb(n - 1 + d, d) for d in range(7)]


def test_monomials_of_degree_counts():
    for n in (1, 2, 4):
        for d in (0, 1, 3):
            monos = monomials_of_degree(n, d)
            assert len(monos) == comb(n - 1 + d, d)
            assert len(set(monos)) == len(monos)
            assert all(sum(e) == d for e in monos)
            keys = [GREVLEX.key(e) for e in monos]
            assert keys == sorted(keys, reverse=True)


def test_contains_cube_examples():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    assert contains_cube_of_maximal_ideal(x ** 2, y ** 2)
    assert not contains_cube_of_maximal_ideal(x ** 2, x * y)
    assert contains_cube_of_maximal_ideal(2 * x * y + y ** 2, x ** 2 - x * y)


def test_contains_cube_validates_input():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    with pytest.raises(ValueError):
        contains_cube_of_maximal_ideal(x, x ** 2)
    with pytest.raises(ValueError):
        contains_cube_of_maximal_ideal(X ** 2, Y ** 2)  # 3-variable ring


def test_contains_cube_matches_root_oracle():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    rng = random.Random(20240604)
    pairs = []
    while len(pairs) < 20:
        f = Polynomial(ring, {(2, 0): rng.randint(-4, 4), (1, 1): rng.randint(-4, 4),
                              (0, 2): rng.randint(-4, 4)})
        g = Polynomial(ring, {(2, 0): rng.randint(-4, 4), (1, 1): rng.randint(-4, 4),
                              (0, 2): rng.randint(-4, 4)})
        if not f.is_zero and not g.is_zero:
            pairs.append((f, g))
    # make sure both outcomes occur
    pairs.append((x * y, x * (x - y)))
    pairs.append((x * y, y * (x - y)))
    seen = set()
    for f, g in pairs:
        expected = quadrics_coprime(f, g)
        assert contains_cube_of_maximal_ideal(f, g) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_equal_leading_monomials_reduce():
    gb = buchberger(Ideal.from_generators([X ** 2 + Y ** 2, X ** 2 + Z ** 2]))
    assert ideal_equal(Ideal.from_generators(list(gb.elements)),
                       Ideal.from_generators([X ** 2 + Z ** 2, Y ** 2 - Z ** 2]))
    leads = gb.leading_exponents()
    assert len(set(leads)) == len(leads)


def test_eliminate_two_variables_at_once():
    ring = ("x", "y", "z", "w")
    x, y, z, w = (Polynomial.variable(ring, n) for n in ring)
    gone = eliminate(Ideal.from_generators([x - z, y - w]), ("x", "y"))
    assert gone.variables == ("z", "w")
    assert gone.generators == ()
    kept = eliminate(Ideal.from_generators([x - z * w, y - z ** 2, x * y]), ("x", "y"))
    assert ideal_equal(kept, Ideal.from_generators(
        [Polynomial.variable(("z", "w"), "z") ** 3 * Polynomial.variable(("z", "w"), "w")],
        ("z", "w")))


def test_intersection_non_principal():
    met = ideal_intersect(Ideal.from_generators([X, Y], RING),
                          Ideal.from_generators([Z], RING))
    assert ideal_equal(met, Ideal.from_generators([X * Z, Y * Z]))


def test_unit_ideal_collapses_to_one():
    ring = ("x",)
    x = Polynomial.variable(ring, "x")
    gb = buchberger(Ideal.from_generators([x, x - 1]))
    assert [str(g) for g in gb.elements] == ["1"]
    assert normal_form(x ** 5 + 3, gb).is_zero


def test_buchberger_known_basis_with_spair_reduction():
    # classic non-trivial case: the twisted relations force a new element
    gens = Ideal.from_generators([X ** 2 - Y, X * Y - Z])
    gb = buchberger(gens)
    for g in (X ** 2 - Y, X * Y - Z, X * Z - Y ** 2):
        assert normal_form(g, gb).is_zero
    assert isinstance(gb, GroebnerBasis)
    lead_exps = gb.leading_exponents()
    assert len(set(lead_exps)) == len(lead_exps)
