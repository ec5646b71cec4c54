"""Independent oracles used to cross-check the main implementations.

Everything here is deliberately written against different algorithms than
the package: Hilbert values by exact ranks of the graded pieces
(fraction-free integer elimination, no Groebner basis) and by counting
standard monomials under an untruncated Groebner basis, the reduced
presentation by Gaussian elimination on the linear generators and
substitution into the others (no block order), binary-quadric coprimality by
exact root comparison over quadratic extensions, maximal decompositions by
per-state multiset backtracking and their counts by a bitmask partition DP,
and the Fano polytope by a general 3D hull that scans every triple of points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Iterator

from toric_deform.fano import Facet, LatticePolytope3
from toric_deform.groebner import buchberger
from toric_deform.hulls import AltmannPresentation
from toric_deform.lattice import LatticePolygon, MinkowskiDecomposition, Vec2, edge_vectors
from toric_deform.polynomials import (
    GREVLEX,
    Exponent,
    Ideal,
    Polynomial,
    exponent_divides,
    exponent_mul,
)


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


def hilbert_by_standard_monomials(ideal: Ideal, d_max: int) -> list[int]:
    """H(d) as the number of degree-d monomials outside the lead ideal."""
    gens = ideal.nonzero_generators()
    n = len(ideal.variables)
    leads = []
    if gens:
        gb = buchberger(Ideal(gens, ideal.variables))
        leads = [g.leading_exponent(GREVLEX) for g in gb.elements]
    out = []
    for d in range(d_max + 1):
        count = sum(1 for mono in monomials_of_degree(n, d)
                    if not any(exponent_divides(l, mono) for l in leads))
        out.append(count)
    return out


def reduced_presentation_by_substitution(
        pres: AltmannPresentation, pivot_variables: tuple[str, str] | None = None
) -> tuple[dict[str, Polynomial], Ideal]:
    """Solve the two degree-1 generators for two pivot variables by Gaussian
    elimination and substitute the solution into every generator.

    Returns the substitution and the substituted ideal in the other m-3
    variables.  Default pivots are the reduced-row-echelon pivot columns; an
    explicit pair must have an invertible 2x2 minor.
    """
    a = [Fraction(c) for c in pres.a_coeffs]
    b = [Fraction(c) for c in pres.b_coeffs]
    n = len(a)
    rows = [a[:], b[:]]
    if pivot_variables is not None:
        columns = [pres.variables.index(v) for v in pivot_variables]
        if a[columns[0]] * b[columns[1]] - a[columns[1]] * b[columns[0]] == 0:
            raise ValueError(f"columns {pivot_variables} are not an invertible minor")
    else:
        columns = range(n)
    pivots: list[int] = []
    r = 0
    for col in columns:
        src = next((k for k in range(r, 2) if rows[k][col]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(2):
            if k != r and rows[k][col]:
                c = rows[k][col]
                rows[k] = [v - c * w for v, w in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == 2:
            break
    assert len(pivots) == 2, "rank 2 was checked at construction"
    keep = tuple(v for i, v in enumerate(pres.variables) if i not in pivots)
    substitution: dict[str, Polynomial] = {}
    for row, piv in zip(rows, pivots):
        image = Polynomial.zero(keep)
        for j, c in enumerate(row):
            if j != piv and c:
                image = image - c * Polynomial.variable(keep, pres.variables[j])
        substitution[pres.variables[piv]] = image
    gens = []
    for g in pres.ideal.generators:
        img = g.substitute(substitution, keep)
        if not img.is_zero:
            gens.append(img)
    return substitution, Ideal(tuple(gens), keep)


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


def hilbert_by_graded_ranks(ideal: Ideal, d_max: int) -> list[int]:
    """H(d) = C(n-1+d, d) - dim(ideal)_d, each graded piece ranked on its own."""
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    n = len(ideal.variables)
    return [comb(n - 1 + d, d) - graded_piece_dimension(ideal, d)
            for d in range(d_max + 1)]


def _squarefree_part(n: int) -> int:
    assert n > 0
    result = 1
    d = 2
    while d * d <= n:
        power = 0
        while n % d == 0:
            n //= d
            power += 1
        if power % 2:
            result *= d
        d += 1
    return result * n


def quadric_roots(f: Polynomial) -> frozenset:
    """Roots in the projective line of a nonzero binary quadric, as exact
    hashable tokens (rational, infinite, or conjugate quadratic-surd pairs)."""
    coeff = {2: Fraction(0), 1: Fraction(0), 0: Fraction(0)}
    for (i, j), c in f.terms.items():
        assert i + j == 2
        coeff[i] = c
    a, b, c = coeff[2], coeff[1], coeff[0]
    roots = []
    if a == 0:
        roots.append(("inf",))
        if b == 0:
            roots.append(("inf",))  # double root at infinity
        else:
            roots.append(("rat", -c / b))
        return frozenset(roots)
    disc = b * b - 4 * a * c
    if disc == 0:
        roots.append(("rat", -b / (2 * a)))
    else:
        num = disc.numerator * disc.denominator  # sign preserved, square-free below
        sign = 1 if num > 0 else -1
        square_free = sign * _squarefree_part(abs(num))
        # disc = square_free * s^2 for rational s > 0
        s2 = disc / square_free
        s = _fraction_sqrt(s2)
        if square_free == 1:
            roots.append(("rat", (-b + s) / (2 * a)))
            roots.append(("rat", (-b - s) / (2 * a)))
        else:
            roots.append(("alg", -b / (2 * a), s / (2 * a), square_free))
            roots.append(("alg", -b / (2 * a), -s / (2 * a), square_free))
    return frozenset(roots)


def _fraction_sqrt(q: Fraction) -> Fraction:
    num = _int_sqrt_exact(q.numerator)
    den = _int_sqrt_exact(q.denominator)
    return Fraction(num, den)


def _int_sqrt_exact(n: int) -> int:
    from math import isqrt
    r = isqrt(n)
    assert r * r == n, f"{n} is not a perfect square"
    return r


def quadrics_coprime(f: Polynomial, g: Polynomial) -> bool:
    return not (quadric_roots(f) & quadric_roots(g))


def _minimal_zero_parts(counts: tuple[int, ...], values: tuple[Vec2, ...],
                        cache: dict) -> list[tuple[int, ...]]:
    """All minimal zero-sum sub-multisets (as count vectors) that use at
    least one copy of the first value still present in ``counts``."""
    if counts in cache:
        return cache[counts]
    first = next(i for i, c in enumerate(counts) if c)
    # largest coordinate sums still reachable from each suffix, for pruning
    remaining_x = [0] * (len(values) + 1)
    remaining_y = [0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        remaining_x[i] = remaining_x[i + 1] + counts[i] * abs(values[i][0])
        remaining_y[i] = remaining_y[i + 1] + counts[i] * abs(values[i][1])

    found: list[tuple[int, ...]] = []
    chosen = [0] * len(values)

    def rec(i: int, sx: int, sy: int) -> None:
        if abs(sx) > remaining_x[i] or abs(sy) > remaining_y[i]:
            return
        if i == len(values):
            if sx == 0 and sy == 0 and any(chosen):
                found.append(tuple(chosen))
            return
        lo = 1 if i == first else 0
        for c in range(lo, counts[i] + 1):
            chosen[i] = c
            rec(i + 1, sx + c * values[i][0], sy + c * values[i][1])
        chosen[i] = 0

    rec(0, 0, 0)
    minimal = [s for s in found
               if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in found)]
    cache[counts] = minimal
    return minimal


def enumerate_decompositions_backtracking(polygon: LatticePolygon) -> list[MinkowskiDecomposition]:
    """Maximal Minkowski decompositions by multiset backtracking that lists
    the minimal zero-sum parts again for every remaining multiset state.

    Same output as ``enumerate_maximal_decompositions`` (canonically sorted,
    each decomposition once), by a different search: no packed count vectors,
    no meet-in-the-middle, no cap, and repeats removed by a set rather than
    by an order on the parts.  Exponential; keep inputs to about 24 copies.
    """
    ev = edge_vectors(polygon)
    copies: list[Vec2] = []
    for prim, length in zip(ev.primitives, ev.lengths):
        copies.extend([prim] * length)
    values = tuple(sorted(set(copies)))
    counts = tuple(sum(1 for c in copies if c == v) for v in values)
    cache: dict = {}

    def partitions(state: tuple[int, ...]) -> Iterator[tuple[tuple[Vec2, ...], ...]]:
        if not any(state):
            yield ()
            return
        for part in _minimal_zero_parts(state, values, cache):
            rest = tuple(a - b for a, b in zip(state, part))
            part_vectors = tuple(v for v, c in zip(values, part) for _ in range(c))
            for tail in partitions(rest):
                yield (part_vectors,) + tail

    # a set, since parts that share the first value come in every order
    results = sorted({MinkowskiDecomposition(tuple(sorted(parts)))
                      for parts in partitions(counts)},
                     key=lambda d: (len(d.parts), d.parts))
    return results


def decomposition_count_bitmask(polygon: LatticePolygon) -> int:
    """Count partitions of the primitive edge copies into minimal zero-sum
    parts by an index-bitmask dynamic program (independent of the
    count-vector search used by the package).

    Unit-edge polygons only: the bitmask tells identical copies of a
    primitive apart, so a non-unit edge would count one multiset partition
    several times (4 instead of 1 on the 2x2 square).
    """
    ev = edge_vectors(polygon)
    assert all(l == 1 for l in ev.lengths), "bitmask oracle needs unit edges"
    vectors: list[tuple[int, int]] = []
    for prim, length in zip(ev.primitives, ev.lengths):
        vectors.extend([prim] * length)
    n = len(vectors)
    assert n <= 14, "oracle is exponential; keep it small"
    full = (1 << n) - 1
    sums = [(0, 0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = sums[mask & (mask - 1)]
        sums[mask] = (rest[0] + vectors[low][0], rest[1] + vectors[low][1])
    zero_masks = [m for m in range(1, full + 1) if sums[m] == (0, 0)]
    zero_set = set(zero_masks)

    def minimal(mask: int) -> bool:
        sub = (mask - 1) & mask
        while sub:
            if sub in zero_set:
                return False
            sub = (sub - 1) & mask
        return True

    parts = [m for m in zero_masks if minimal(m)]
    memo = {0: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        low = 1 << ((mask & -mask).bit_length() - 1)
        total = 0
        for part in parts:
            if part & low and part & mask == part:
                total += count(mask & ~part)
        memo[mask] = total
        return total

    return count(full)


def univariate_product(variables: tuple[str, ...], roots: list[int]) -> Polynomial:
    """Monic univariate polynomial with the given integer roots."""
    x = Polynomial.variable(variables, variables[0])
    out = Polynomial.constant(variables, 1)
    for r in roots:
        out = out * (x - r)
    return out


Vec3 = tuple[int, int, int]


def _cross3(a: Vec3, b: Vec3) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot3(a: Vec3, b: Vec3) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _content3(v: Vec3) -> int:
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))


def convex_hull_3d(points: list[Vec3] | tuple[Vec3, ...]) -> LatticePolytope3:
    """Exact 3D convex hull over the integers.

    Supporting planes are found by checking, for every non-degenerate triple
    of points, whether all points lie on one side; coplanar point sets merge
    into a single facet automatically.  Quadratic-to-quartic in the number of
    points, which is fine at the tens-of-vertices scale this package needs.
    """
    pts = sorted({(int(p[0]), int(p[1]), int(p[2])) for p in points})
    if len(pts) < 4:
        raise ValueError("need at least 4 distinct points for a 3-polytope")
    if not _full_dimensional(pts):
        raise ValueError("points are not full-dimensional")

    planes: set[tuple[Vec3, int]] = set()
    for i, j, k in combinations(range(len(pts)), 3):
        n = _cross3(_sub3(pts[j], pts[i]), _sub3(pts[k], pts[i]))
        if n == (0, 0, 0):
            continue
        c = _content3(n)
        n = (n[0] // c, n[1] // c, n[2] // c)
        offset = _dot3(n, pts[i])
        if (n, offset) in planes or ((-n[0], -n[1], -n[2]), -offset) in planes:
            continue
        side = {(_dot3(n, p) > offset) - (_dot3(n, p) < offset) for p in pts}
        if 1 not in side:
            planes.add((n, offset))
        elif -1 not in side:
            planes.add(((-n[0], -n[1], -n[2]), -offset))

    facets = tuple(Facet(n, c) for n, c in sorted(planes))
    vertices = tuple(p for p in pts if _is_vertex(p, facets))
    return LatticePolytope3(vertices, facets)


def _full_dimensional(pts: list[Vec3]) -> bool:
    base = pts[0]
    spanning: list[Vec3] = []
    for p in pts[1:]:
        d = _sub3(p, base)
        if len(spanning) == 0 and d != (0, 0, 0):
            spanning.append(d)
        elif len(spanning) == 1 and _cross3(spanning[0], d) != (0, 0, 0):
            spanning.append(d)
        elif len(spanning) == 2 and _dot3(_cross3(spanning[0], spanning[1]), d) != 0:
            return True
    return False


def _is_vertex(p: Vec3, facets: tuple[Facet, ...]) -> bool:
    normals = [f.normal for f in facets if _dot3(f.normal, p) == f.offset]
    if len(normals) < 3:
        return False
    for a, b, c in combinations(normals, 3):
        if _dot3(_cross3(a, b), c) != 0:
            return True
    return False
