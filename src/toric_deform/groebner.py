"""Groebner bases over the rationals, and Hilbert functions read off them.

Buchberger's algorithm with the coprime-lead and chain criteria and pairs
taken from a heap by sugar degree.  It ends in the unique reduced basis
(minimalize, then one interreduction pass), sorted by descending lead, so
two ideals are equal exactly when their bases are.  Elimination uses a block
order, intersection the auxiliary-variable trick.  Inputs are ``Ideal``s;
normal forms are taken against a ``GroebnerBasis``.  Division takes terms
from a heap, with order keys cached per run.  For homogeneous input
``max_degree`` truncates the run, and H(d) counts the degree-d monomials
that no lead term of the truncated basis divides.  Scale target is
desk-size ideals: about a dozen variables, degrees up to the high single
digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .polynomials import (
    GREVLEX,
    Exponent,
    Ideal,
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    exponent_divides,
    exponent_lcm,
    exponent_mul,
    exponent_quotient,
)

# (lead exponent, lead coefficient, polynomial) of one reducer
_Reducer = tuple[Exponent, Fraction, Polynomial]


class _KeyCache(dict):
    """``order.descending_key`` per exponent, computed once on first use."""

    def __init__(self, order: MonomialOrder):
        self.order = order

    def __missing__(self, e: Exponent) -> tuple:
        key = self[e] = self.order.descending_key(e)
        return key


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no leading monomial divides
    another, every element fully reduced against the rest."""

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    variables: tuple[str, ...]

    def leading_exponents(self) -> list[Exponent]:
        return [g.leading_exponent(self.order) for g in self.elements]

    @cached_property
    def _reduction_data(self) -> list[_Reducer]:
        return [(g.leading_exponent(self.order), g.leading_coefficient(self.order), g)
                for g in self.elements]


def _reduce_full(f: Polynomial, reducers: Sequence[_Reducer], keys: _KeyCache) -> Polynomial:
    """Fully reduced remainder of f modulo the reducers (multivariate division).

    Terms come largest first from a heap; a cancelled term's entry is skipped.
    A popped term never comes back, since reduction only adds smaller terms.
    """
    work = dict(f.terms)
    heap = [(keys[e], e) for e in work]
    heapify(heap)
    remainder: dict[Exponent, Fraction] = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for le, lc, g in reducers:
            if exponent_divides(le, e):
                shift = exponent_quotient(e, le)
                factor = c / lc
                for ge, gc in g.terms.items():
                    if ge == le:
                        continue
                    k = exponent_mul(ge, shift)
                    old = work.get(k)
                    if old is None:
                        work[k] = -factor * gc
                        heappush(heap, (keys[k], k))
                    else:
                        s = old - factor * gc
                        if s:
                            work[k] = s
                        else:
                            del work[k]
                break
        else:
            remainder[e] = c
    return Polynomial(f.variables, remainder)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Fully reduced remainder of ``f`` against a Groebner basis.

    The result is zero exactly when ``f`` lies in the ideal.
    """
    if f.variables != gb.variables:
        raise RingMismatchError(f"rings differ: {f.variables} vs {gb.variables}")
    return _reduce_full(f, gb._reduction_data, _KeyCache(gb.order))


def _s_polynomial(f: Polynomial, g: Polynomial, lf: Exponent, lg: Exponent) -> Polynomial:
    """S-polynomial of two monic polynomials with leads ``lf`` and ``lg``."""
    l = exponent_lcm(lf, lg)
    return (Polynomial.monomial(f.variables, exponent_quotient(l, lf)) * f
            - Polynomial.monomial(g.variables, exponent_quotient(l, lg)) * g)


def buchberger(ideal: Ideal, order: MonomialOrder = GREVLEX,
               max_degree: int | None = None) -> GroebnerBasis:
    """Unique reduced Groebner basis of the given ideal under ``order``.

    Pairs are taken from a heap by (sugar degree, lcm), with the coprime-lead
    and chain criteria; the output is sorted by descending leading monomial
    so equal ideals give byte-identical bases.

    ``max_degree`` needs homogeneous generators, for which the sugar of a
    pair is its degree: generators and pairs above it are dropped, and the
    result is exactly the elements of degree <= ``max_degree`` of the full
    reduced basis.
    """
    polys = ideal.nonzero_generators()
    if max_degree is not None:
        if not all(p.is_homogeneous() for p in polys):
            raise ValueError("max_degree needs homogeneous generators")
        polys = [p for p in polys if p.total_degree() <= max_degree]

    keys = _KeyCache(order)
    sugars: list[int] = []
    leads: list[Exponent] = []
    reducers: list[_Reducer] = []
    pending: set[tuple[int, int]] = set()
    heap: list[tuple] = []

    def add(p: Polynomial, sugar: int) -> None:
        new = len(leads)
        sugars.append(sugar)
        leads.append(p.leading_exponent(order))
        reducers.append((leads[new], Fraction(1), p))
        for i in range(new):
            l = exponent_lcm(leads[i], leads[new])
            pair_sugar = max(sugars[i] + sum(l) - sum(leads[i]),
                             sugars[new] + sum(l) - sum(leads[new]))
            if max_degree is None or pair_sugar <= max_degree:
                pending.add((i, new))
                heappush(heap, (pair_sugar, order.key(l), i, new))

    for p in sorted({p.monic(order) for p in polys},
                    key=lambda q: order.key(q.leading_exponent(order))):
        add(p, p.total_degree())

    while heap:
        sugar, _, i, j = heappop(heap)
        pending.discard((i, j))
        l = exponent_lcm(leads[i], leads[j])
        # coprime leads: S-polynomial reduces to zero
        if l == exponent_mul(leads[i], leads[j]):
            continue
        # chain criterion: lcm divisible by a third lead whose pairs are done
        if any(exponent_divides(leads[k], l) and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(leads)) if k not in (i, j)):
            continue
        h = _reduce_full(_s_polynomial(reducers[i][2], reducers[j][2], leads[i], leads[j]),
                         reducers, keys)
        if not h.is_zero:
            add(h.monic(order), sugar)

    # minimalize: drop elements whose lead is divisible by another's lead
    keep: list[_Reducer] = []
    for idx, lp in enumerate(leads):
        if any(exponent_divides(leads[k], lp) for k in range(len(leads))
               if k != idx and (not exponent_divides(lp, leads[k]) or k < idx)):
            continue
        keep.append(reducers[idx])
    # auto-reduction: the leads are now fixed and never reduced, so once an
    # element's tail is reduced against them it stays so, and one pass gives
    # the unique reduced basis
    for idx, (le, lc, p) in enumerate(keep):
        keep[idx] = (le, lc, _reduce_full(p, keep[:idx] + keep[idx + 1:], keys))
    keep.sort(key=lambda t: order.key(t[0]), reverse=True)
    return GroebnerBasis(tuple(t[2] for t in keep), order, ideal.variables)


def ideal_equal(i: Ideal, j: Ideal) -> bool:
    """Equal ideals are those with the same (unique) reduced basis."""
    if i.variables != j.variables:
        raise RingMismatchError(f"rings differ: {i.variables} vs {j.variables}")
    return buchberger(i).elements == buchberger(j).elements


def eliminate(ideal: Ideal, drop_vars: Iterable[str]) -> Ideal:
    """Generators of the contraction of ``ideal`` to the subring without
    ``drop_vars``, via a block-order Groebner basis."""
    drop = tuple(drop_vars)
    for v in drop:
        if v not in ideal.variables:
            raise ValueError(f"variable {v!r} not in ring {ideal.variables}")
    drop_set = set(drop)
    kept = tuple(v for v in ideal.variables if v not in drop_set)
    ordered = tuple(v for v in ideal.variables if v in drop_set) + kept
    perm = [ideal.variables.index(v) for v in ordered]

    def permute(p: Polynomial) -> Polynomial:
        return Polynomial(ordered, {tuple(e[k] for k in perm): c
                                    for e, c in p.terms.items()})

    gens = [permute(g) for g in ideal.nonzero_generators()]
    split = len(ordered) - len(kept)
    gb = buchberger(Ideal(tuple(gens), ordered), MonomialOrder.block(split))
    out: list[Polynomial] = []
    for g in gb.elements:
        if all(all(x == 0 for x in e[:split]) for e in g.terms):
            out.append(Polynomial(kept, {e[split:]: c for e, c in g.terms.items()}))
    return Ideal(tuple(out), kept)


def _fresh_variable(taken: Sequence[str]) -> str:
    name = "t"
    k = 0
    while name in taken:
        name = f"t{k}"
        k += 1
    return name


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    """Intersection via the auxiliary variable trick:
    ``i ∩ j = (t·i + (1−t)·j) ∩ k[ring]``."""
    if i.variables != j.variables:
        raise RingMismatchError(f"rings differ: {i.variables} vs {j.variables}")
    aux = _fresh_variable(i.variables)
    big = (aux,) + i.variables
    t = Polynomial.variable(big, aux)
    one_minus_t = Polynomial.constant(big, 1) - t

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(big, {(0,) + e: c for e, c in p.terms.items()})

    gens = [t * lift(g) for g in i.nonzero_generators()]
    gens += [one_minus_t * lift(g) for g in j.nonzero_generators()]
    return eliminate(Ideal(tuple(gens), big), (aux,))


# -- the Hilbert function -----------------------------------------------------


def hilbert_function(ideal: Ideal, d_max: int) -> list[int]:
    """Values H(0..d_max) of the Hilbert function of the quotient by a
    homogeneous ideal: H(d) counts the standard monomials of degree d, those
    that no lead term of the degree-``d_max`` truncated basis divides.  Each is
    grown from the standard monomial one degree lower, minus its last variable.
    """
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if not ideal.is_homogeneous:
        raise ValueError("Hilbert function needs a homogeneous ideal")
    leads = buchberger(ideal, max_degree=d_max).leading_exponents()
    n = len(ideal.variables)
    level = [((0,) * n, 0)]  # (standard monomial, index of its last variable)
    values: list[int] = []
    for d in range(d_max + 1):
        if d:
            level = [(mono[:i] + (mono[i] + 1,) + mono[i + 1:], i)
                     for mono, last in level for i in range(last, n)]
        level = [(m, i) for m, i in level if not any(exponent_divides(l, m) for l in leads)]
        values.append(len(level))
    return values


def contains_cube_of_maximal_ideal(f: Polynomial, g: Polynomial) -> bool:
    """For two binary quadrics: does (f, g) contain every degree-3 monomial,
    that is, is H(3) of the quotient zero?

    Equivalent to coprimality of f and g.
    """
    if f.variables != g.variables:
        raise RingMismatchError(f"rings differ: {f.variables} vs {g.variables}")
    if len(f.variables) != 2:
        raise ValueError("expected a ring in exactly 2 variables")
    for p in (f, g):
        if p.is_zero or not p.is_homogeneous() or p.total_degree() != 2:
            raise ValueError("expected nonzero homogeneous quadrics")
    return hilbert_function(Ideal((f, g), f.variables), 3)[3] == 0
