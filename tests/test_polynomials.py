"""Exact polynomial arithmetic, monomial orders, substitution, text form, and
the weighted power-sum recurrence as an identity the arithmetic must satisfy."""

import random
from fractions import Fraction

import pytest

from toric_deform.polynomials import (
    GREVLEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    RingMismatchError,
)

RING = ("x", "y", "z")
X = Polynomial.variable(RING, "x")
Y = Polynomial.variable(RING, "y")
Z = Polynomial.variable(RING, "z")


def random_fraction(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def random_polynomial(rng, nterms=4, degree=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, degree) for _ in RING)
        terms[exps] = random_fraction(rng)
    return Polynomial(RING, terms)


def test_rational_arithmetic_is_exact():
    rng = random.Random(20240501)
    for _ in range(200):
        a, b = random_fraction(rng), random_fraction(rng)
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a


def test_polynomial_add_sub_roundtrip():
    rng = random.Random(20240502)
    for _ in range(50):
        f, g = random_polynomial(rng), random_polynomial(rng)
        assert (f + g) - g == f
        assert f + g == g + f
        assert f - f == Polynomial.zero(RING)


def test_polynomial_ring_axioms():
    rng = random.Random(20240503)
    for _ in range(25):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


def test_powers():
    f = X + Y
    assert f ** 0 == Polynomial.constant(RING, 1)
    assert f ** 2 == X ** 2 + 2 * X * Y + Y ** 2
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_zero_coefficients_never_stored():
    f = X - X
    assert f.terms == {}
    g = Polynomial(RING, {(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert list(g.terms.values()) == [Fraction(2)]


def test_monomial_orders_are_multiplicative():
    rng = random.Random(20240504)
    orders = [GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        c = tuple(rng.randint(0, 4) for _ in range(3))
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        for order in orders:
            if order.key(a) < order.key(b):
                assert order.key(ac) < order.key(bc)
            elif order.key(a) == order.key(b):
                assert a == b


def test_grevlex_against_known_comparisons():
    # degree first; ties broken against the trailing exponents
    assert GREVLEX.key((2, 0, 0)) > GREVLEX.key((1, 1, 0)) > GREVLEX.key((0, 2, 0))
    assert GREVLEX.key((0, 2, 0)) > GREVLEX.key((1, 0, 1)) > GREVLEX.key((0, 1, 1))
    assert GREVLEX.key((0, 1, 1)) > GREVLEX.key((0, 0, 2))


def test_block_order_eliminates_first_block():
    order = MonomialOrder.block(1)
    # any monomial using the first variable beats any that does not
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def test_leading_term_and_monic():
    f = 3 * X * Y + Y ** 2 + Z
    assert f.leading_exponent(GREVLEX) == (1, 1, 0)
    assert f.leading_coefficient(GREVLEX) == 3
    assert f.monic(GREVLEX).leading_coefficient(GREVLEX) == 1


def test_substitution_linear_expansion():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    image = (x ** 2).substitute({"x": y - x}, ring)
    assert image == y ** 2 - 2 * x * y + x ** 2


def test_substitution_requires_declared_variables():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    with pytest.raises(ValueError):
        (x + Polynomial.variable(ring, "y")).substitute(
            {"x": Polynomial.variable(("u",), "u")}, ("u",))


def test_ring_mismatch_raises():
    other = Polynomial.variable(("a", "b"), "a")
    with pytest.raises(RingMismatchError):
        X + other
    with pytest.raises(RingMismatchError):
        X * other


def test_canonical_text_form():
    f = (X + Y) ** 2
    assert str(f) == "x^2 + 2*x*y + y^2"
    g = Fraction(1, 2) * X - 1
    assert str(g) == "1/2*x - 1"
    assert str(Polynomial.zero(RING)) == "0"
    assert str(-X * Z + Y) == "-x*z + y"


def test_text_form_is_stable_under_reconstruction():
    rng = random.Random(20240505)
    for _ in range(20):
        f = random_polynomial(rng)
        again = Polynomial(RING, dict(f.terms))
        assert str(f) == str(again)


def test_ideal_homogeneous_flag_is_checked():
    assert Ideal.from_generators([X * Y, X ** 2 + Y * Z]).is_homogeneous
    assert not Ideal.from_generators([X * Y + Z]).is_homogeneous
    assert Ideal.from_generators([Polynomial.zero(RING)], RING).is_homogeneous


def test_ideal_rejects_mixed_rings():
    with pytest.raises(RingMismatchError):
        Ideal((Polynomial.variable(("a",), "a"),), RING)


# -- the weighted power-sum recurrence ---------------------------------------


def verify_newton_recurrence(variables: list[str], coeffs: list, k: int) -> bool:
    """Check the weighted power-sum recurrence as an exact polynomial
    identity: with s_r the signed elementary symmetric functions,
    a_k + s_1 a_{k-1} + ... + s_n a_{k-n} vanishes for every k > n."""
    n = len(variables)
    if len(coeffs) != n:
        raise ValueError("need one coefficient per variable")
    if k <= n:
        raise ValueError(f"recurrence needs k > n, got k={k}, n={n}")
    ring = tuple(variables)
    xs = [Polynomial.variable(ring, v) for v in ring]
    weights = [Fraction(c) for c in coeffs]

    def alpha(j: int) -> Polynomial:
        out = Polynomial.zero(ring)
        for w, x in zip(weights, xs):
            out = out + w * x ** j
        return out

    # coefficients of prod (t - x_i): s[r] multiplies t^(n-r), s[0] = 1
    s: list[Polynomial] = [Polynomial.constant(ring, 1)]
    for x in xs:
        nxt = [s[0]]
        for r in range(1, len(s) + 1):
            prev = s[r] if r < len(s) else Polynomial.zero(ring)
            nxt.append(prev - x * s[r - 1])
        s = nxt
    acc = alpha(k)
    for r in range(1, n + 1):
        acc = acc + s[r] * alpha(k - r)
    return acc.is_zero
