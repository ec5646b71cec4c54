"""Groebner bases over the rationals and the linear algebra built on them.

Buchberger's algorithm with the coprime-lead and chain criteria and
sugar-degree pair selection, reduced bases with deterministic ordering,
block-order elimination, the auxiliary-variable ideal intersection, and
exact graded ranks (fraction-free integer elimination) for Hilbert
functions.  Scale target is desk-size ideals: about a dozen variables,
degrees up to the high single digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
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


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no leading monomial divides
    another, every element fully reduced against the rest."""

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    variables: tuple[str, ...]

    def leading_exponents(self) -> list[Exponent]:
        return [g.leading_exponent(self.order) for g in self.elements]

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero


def _common_ring(polys: Sequence[Polynomial]) -> tuple[str, ...]:
    ring = polys[0].variables
    for p in polys[1:]:
        if p.variables != ring:
            raise RingMismatchError(f"rings differ: {ring} vs {p.variables}")
    return ring


def _reduce_full(f: Polynomial, reducers: Sequence[Polynomial],
                 order: MonomialOrder) -> Polynomial:
    """Fully reduced remainder of f modulo the reducers (multivariate division)."""
    reduction_data = [(g.leading_exponent(order), g.leading_coefficient(order), g)
                      for g in reducers if not g.is_zero]
    work = dict(f.terms)
    remainder: dict[Exponent, Fraction] = {}
    key = order.key
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, lc, g in reduction_data:
            if exponent_divides(le, e):
                shift = exponent_quotient(e, le)
                factor = c / lc
                for ge, gc in g.terms.items():
                    if ge == le:
                        continue
                    k = exponent_mul(ge, shift)
                    s = work.get(k, Fraction(0)) - factor * gc
                    if s:
                        work[k] = s
                    else:
                        work.pop(k, None)
                break
        else:
            remainder[e] = c
    return Polynomial(f.variables, remainder)


def normal_form(f: Polynomial, gb: "GroebnerBasis | Sequence[Polynomial]",
                order: MonomialOrder | None = None) -> Polynomial:
    """Fully reduced remainder of ``f`` against a Groebner basis.

    The result is zero exactly when ``f`` lies in the ideal.
    """
    if isinstance(gb, GroebnerBasis):
        if f.variables != gb.variables:
            raise RingMismatchError(f"rings differ: {f.variables} vs {gb.variables}")
        return _reduce_full(f, gb.elements, gb.order)
    reducers = list(gb)
    if reducers:
        ring = _common_ring(reducers)
        if f.variables != ring:
            raise RingMismatchError(f"rings differ: {f.variables} vs {ring}")
    return _reduce_full(f, reducers, order or GREVLEX)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = f.leading_exponent(order), g.leading_exponent(order)
    l = exponent_lcm(lf, lg)
    mf = Polynomial.monomial(f.variables, exponent_quotient(l, lf),
                             1 / f.leading_coefficient(order))
    mg = Polynomial.monomial(g.variables, exponent_quotient(l, lg),
                             1 / g.leading_coefficient(order))
    return mf * f - mg * g


def buchberger(gens: "Ideal | Iterable[Polynomial]",
               order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Unique reduced Groebner basis of the given ideal under ``order``.

    Pair selection is by sugar degree, with the coprime-lead and chain
    criteria; the output is sorted by descending leading monomial so equal
    ideals give byte-identical bases.
    """
    if isinstance(gens, Ideal):
        ring = gens.variables
        polys = [g for g in gens.generators if not g.is_zero]
    else:
        polys = [g for g in gens if not g.is_zero]
        if not polys:
            raise ValueError("no variables known for an empty generator list")
        ring = _common_ring(polys)

    basis: list[Polynomial] = []
    sugars: list[int] = []
    leads: list[Exponent] = []
    for p in sorted({p.monic(order) for p in polys},
                    key=lambda q: order.key(q.leading_exponent(order))):
        basis.append(p)
        sugars.append(p.total_degree())
        leads.append(p.leading_exponent(order))

    def pair_data(i: int, j: int) -> tuple:
        l = exponent_lcm(leads[i], leads[j])
        sugar = max(sugars[i] + sum(l) - sum(leads[i]),
                    sugars[j] + sum(l) - sum(leads[j]))
        return (sugar, order.key(l), i, j)

    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    while pending:
        i, j = min(pending, key=lambda ij: pair_data(*ij))
        pending.discard((i, j))
        l = exponent_lcm(leads[i], leads[j])
        # coprime leads: S-polynomial reduces to zero
        if l == exponent_mul(leads[i], leads[j]):
            continue
        # chain criterion: lcm divisible by a third lead whose pairs are done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if exponent_divides(leads[k], l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        h = _reduce_full(s, basis, order)
        if h.is_zero:
            continue
        h = h.monic(order)
        new = len(basis)
        basis.append(h)
        sugars.append(max(sugars[i] + sum(l) - sum(leads[i]),
                          sugars[j] + sum(l) - sum(leads[j])))
        leads.append(h.leading_exponent(order))
        pending.update((t, new) for t in range(new))

    # minimalize: drop elements whose lead is divisible by another's lead
    keep: list[Polynomial] = []
    for idx, p in enumerate(basis):
        lp = leads[idx]
        if any(exponent_divides(leads[k], lp) for k in range(len(basis))
               if k != idx and (not exponent_divides(lp, leads[k]) or k < idx)):
            continue
        keep.append(p)
    # full auto-reduction to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for idx in range(len(keep)):
            others = keep[:idx] + keep[idx + 1:]
            r = _reduce_full(keep[idx], others, order) if others else keep[idx]
            r = r.monic(order)
            if r != keep[idx]:
                keep[idx] = r
                changed = True
        keep = [p for p in keep if not p.is_zero]
    keep.sort(key=lambda p: order.key(p.leading_exponent(order)), reverse=True)
    return GroebnerBasis(tuple(keep), order, ring)


def ideal_equal(i: Ideal, j: Ideal) -> bool:
    """Mutual membership of the generators, checked through normal forms."""
    if i.variables != j.variables:
        raise RingMismatchError(f"rings differ: {i.variables} vs {j.variables}")
    gi, gj = i.nonzero_generators(), j.nonzero_generators()
    if not gi or not gj:
        return not gi and not gj
    gb_i = buchberger(Ideal(gi, i.variables))
    gb_j = buchberger(Ideal(gj, j.variables))
    return (all(normal_form(g, gb_j).is_zero for g in gi)
            and all(normal_form(g, gb_i).is_zero for g in gj))


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
    if not gens:
        return Ideal((), kept)
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
    if not gens:
        return Ideal((), i.variables)
    return eliminate(Ideal(tuple(gens), big), (aux,))


# -- graded linear algebra ----------------------------------------------------


def monomials_of_degree(nvars: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree ``d``, in descending grevlex order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out: list[Exponent] = []

    def rec(prefix: list[int], remaining: int, slot: int) -> None:
        if slot == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slot + 1)

    rec([], d, 0)
    out.sort(key=GREVLEX.key, reverse=True)
    return out


def _integer_row(row: dict[int, Fraction]) -> dict[int, int]:
    denom = 1
    for c in row.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {k: int(c * denom) for k, c in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints


def fraction_free_rank(rows: Iterable[dict[int, Fraction]]) -> int:
    """Exact rank of a sparse rational matrix.

    Rows are reduced one at a time by cross-multiplication against integer
    pivot rows (fraction-free, Bareiss-style), with contents stripped so the
    entries stay small.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = _integer_row({k: v for k, v in raw.items() if v})
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                rank += 1
                break
            pc, rc = p[c], row[c]
            new: dict[int, int] = {}
            for k in row.keys() | p.keys():
                v = row.get(k, 0) * pc - p.get(k, 0) * rc
                if v:
                    new[k] = v
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            row = new
    return rank


def graded_piece_dimension(ideal: Ideal, d: int) -> int:
    """Dimension of the degree-``d`` piece of a homogeneous ideal.

    Spanned by all products (monomial)·(generator) of degree ``d``; the rank
    is computed exactly over the integer-cleared coefficient matrix.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if not ideal.is_homogeneous:
        raise ValueError("graded pieces need a homogeneous ideal")
    n = len(ideal.variables)
    basis = monomials_of_degree(n, d)
    index = {e: i for i, e in enumerate(basis)}

    def rows():
        for g in ideal.nonzero_generators():
            e_g = g.total_degree()
            if e_g > d:
                continue
            for mu in monomials_of_degree(n, d - e_g):
                yield {index[exponent_mul(mu, e)]: c for e, c in g.terms.items()}

    return fraction_free_rank(rows())


def hilbert_function(ideal: Ideal, d_max: int) -> list[int]:
    """Values H(0..d_max) of the Hilbert function of the quotient by a
    homogeneous ideal: H(d) = C(n-1+d, d) - dim(ideal)_d."""
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if not ideal.is_homogeneous:
        raise ValueError("Hilbert function needs a homogeneous ideal")
    n = len(ideal.variables)
    return [comb(n - 1 + d, d) - graded_piece_dimension(ideal, d)
            for d in range(d_max + 1)]


def contains_cube_of_maximal_ideal(f: Polynomial, g: Polynomial) -> bool:
    """For two binary quadrics: does (f, g) contain every degree-3 monomial?

    Equivalent to coprimality of f and g.
    """
    if f.variables != g.variables:
        raise RingMismatchError(f"rings differ: {f.variables} vs {g.variables}")
    if len(f.variables) != 2:
        raise ValueError("expected a ring in exactly 2 variables")
    for p in (f, g):
        if p.is_zero or not p.is_homogeneous() or p.total_degree() != 2:
            raise ValueError("expected nonzero homogeneous quadrics")
    gb = buchberger(Ideal((f, g), f.variables))
    ring = f.variables
    cubics = [Polynomial.monomial(ring, (3 - k, k)) for k in range(4)]
    return all(normal_form(c, gb).is_zero for c in cubics)
