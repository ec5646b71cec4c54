"""Lattice polygons, Minkowski sums and maximal Minkowski decompositions.

Vertices are plain ``(int, int)`` tuples; Python integers keep everything
exact at any size.  A polygon is canonical: counter-clockwise, strictly
convex, starting at the lexicographically smallest vertex, so equal polygons
compare equal and serialized output is byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Iterator, Sequence

Vec2 = tuple[int, int]

DEFAULT_DECOMPOSITION_CAP = 30
CAP_ENV_VAR = "TORIC_DEFORM_CAP"


class DegeneratePolygonError(ValueError):
    """Input points do not span a two-dimensional convex polygon."""


class EnumerationCapError(RuntimeError):
    """Too many primitive edge copies for exhaustive decomposition search."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"decomposition search needs {count} primitive edge copies, "
            f"which exceeds the cap of {cap} (override with {CAP_ENV_VAR})")
        self.count = count
        self.cap = cap


def cross(a: Vec2, b: Vec2) -> int:
    return a[0] * b[1] - a[1] * b[0]


def vec_add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def vec_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def vec_neg(a: Vec2) -> Vec2:
    return (-a[0], -a[1])


def lattice_length(v: Vec2) -> int:
    return gcd(abs(v[0]), abs(v[1]))


def is_primitive(v: Vec2) -> bool:
    return lattice_length(v) == 1


def _angle_cmp(a: Vec2, b: Vec2) -> int:
    """Order nonzero vectors counter-clockwise starting from the positive
    x-axis; equal directions compare by the raw tuples."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    c = cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return (a > b) - (a < b)


angle_key = cmp_to_key(_angle_cmp)


@dataclass(frozen=True)
class LatticePolygon:
    """Canonical strictly convex lattice polygon (vertices only)."""

    vertices: tuple[Vec2, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if len(vs) < 3:
            raise DegeneratePolygonError(f"{len(vs)} vertices do not make a polygon")
        if min(vs) != vs[0]:
            raise DegeneratePolygonError("vertices must start at the lexicographic minimum")
        edges = [vec_sub(vs[(i + 1) % len(vs)], vs[i]) for i in range(len(vs))]
        for i in range(len(edges)):
            if cross(edges[i], edges[(i + 1) % len(edges)]) <= 0:
                raise DegeneratePolygonError(
                    "vertices must be strictly convex in counter-clockwise order")

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    def translated(self, t: Vec2) -> "LatticePolygon":
        return polygon_from_points([vec_add(v, t) for v in self.vertices])

    def to_json_dict(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @classmethod
    def from_json_dict(cls, data: object) -> "LatticePolygon":
        """Parse {"vertices": [[x, y], ...]} with JSON integer coordinates;
        anything else raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
            raise ValueError("expected a JSON object with a 'vertices' list")
        for p in data["vertices"]:
            if not (isinstance(p, list) and len(p) == 2 and all(type(c) is int for c in p)):
                raise ValueError(f"vertex {p!r} is not an [x, y] pair of integers")
        return polygon_from_points(data["vertices"])


def polygon_from_points(points: Iterable[Sequence[int]]) -> LatticePolygon:
    """Convex hull with canonical vertex order; idempotent on canonical input."""
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) < 3:
        raise DegeneratePolygonError("need at least 3 distinct points")

    def chain(seq: Iterable[Vec2]) -> list[Vec2]:
        hull: list[Vec2] = []
        for p in seq:
            while len(hull) >= 2 and cross(vec_sub(hull[-1], hull[-2]),
                                           vec_sub(p, hull[-2])) <= 0:
                hull.pop()
            hull.append(p)
        return hull

    lower = chain(pts)
    upper = chain(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        raise DegeneratePolygonError("points are collinear")
    return LatticePolygon(tuple(verts))


@dataclass(frozen=True)
class EdgeVectorList:
    """Edge vectors of a polygon in counter-clockwise order.

    Each edge is ``length`` times its primitive direction and the edges sum
    to zero.
    """

    edges: tuple[Vec2, ...]
    lengths: tuple[int, ...]
    primitives: tuple[Vec2, ...]


def edge_vectors(polygon: LatticePolygon) -> EdgeVectorList:
    vs = polygon.vertices
    edges = tuple(vec_sub(vs[(i + 1) % len(vs)], vs[i]) for i in range(len(vs)))
    lengths = tuple(lattice_length(e) for e in edges)
    primitives = tuple((e[0] // l, e[1] // l) for e, l in zip(edges, lengths))
    assert sum(e[0] for e in edges) == 0 and sum(e[1] for e in edges) == 0
    return EdgeVectorList(edges, lengths, primitives)


def is_unit_edge(polygon: LatticePolygon) -> bool:
    return all(l == 1 for l in edge_vectors(polygon).lengths)


def symmetry_center_doubled(polygon: LatticePolygon) -> Vec2 | None:
    """Twice the symmetry center when the polygon is centrally symmetric."""
    vs = set(polygon.vertices)
    s = vec_add(min(vs), max(vs))
    if {vec_sub(s, v) for v in vs} == vs:
        return s
    return None


def is_centrally_symmetric(polygon: LatticePolygon) -> bool:
    return symmetry_center_doubled(polygon) is not None


def minkowski_sum(a: "LatticePolygon | Iterable[Sequence[int]]",
                  b: "LatticePolygon | Iterable[Sequence[int]]") -> LatticePolygon:
    """Minkowski sum of two polytopes (polygon, segment or point operands)."""
    av = a.vertices if isinstance(a, LatticePolygon) else tuple((int(p[0]), int(p[1])) for p in a)
    bv = b.vertices if isinstance(b, LatticePolygon) else tuple((int(p[0]), int(p[1])) for p in b)
    return polygon_from_points([vec_add(p, q) for p in av for q in bv])


# -- Minkowski decompositions -------------------------------------------------


@dataclass(frozen=True)
class MinkowskiDecomposition:
    """A partition of the primitive edge copies into zero-sum summands.

    Maximal by construction: no summand has a proper nonempty zero-sum
    sub-multiset, so no summand splits further.
    """

    parts: tuple[tuple[Vec2, ...], ...]

    @property
    def dimension(self) -> int:
        """Dimension of the matching component of the deformation space."""
        return len(self.parts) - 1

    def summand_vertex_lists(self) -> tuple[tuple[Vec2, ...], ...]:
        return tuple(_part_vertices(p) for p in self.parts)

    def to_json(self) -> list:
        return [[[x, y] for x, y in summand] for summand in self.summand_vertex_lists()]


def _part_vertices(part: Sequence[Vec2]) -> tuple[Vec2, ...]:
    """Walk the zero-sum vectors in angular order; translate so the
    lexicographically smallest vertex sits at the origin."""
    steps = sorted(part, key=angle_key)
    corners: list[Vec2] = []
    pos = (0, 0)
    for i, v in enumerate(steps):
        if i == 0 or v != steps[i - 1]:
            corners.append(pos)
        pos = vec_add(pos, v)
    assert pos == (0, 0)
    base = min(corners)
    start = corners.index(base)
    rotated = corners[start:] + corners[:start]
    return tuple(vec_sub(p, base) for p in rotated)


def _decomposition_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    return int(os.environ.get(CAP_ENV_VAR, DEFAULT_DECOMPOSITION_CAP))


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


def enumerate_maximal_decompositions(polygon: LatticePolygon,
                                     cap: int | None = None) -> list[MinkowskiDecomposition]:
    """Exhaustively enumerate the maximal Minkowski decompositions.

    Every edge is expanded into lattice-length many primitive copies and the
    copy multiset is partitioned into minimal zero-sum parts by backtracking
    on the first unassigned copy.  The result is canonically sorted.
    """
    ev = edge_vectors(polygon)
    copies: list[Vec2] = []
    for prim, length in zip(ev.primitives, ev.lengths):
        copies.extend([prim] * length)
    limit = _decomposition_cap(cap)
    if len(copies) > limit:
        raise EnumerationCapError(len(copies), limit)

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

    results = [MinkowskiDecomposition(tuple(sorted(parts)))
               for parts in partitions(counts)]
    results.sort(key=lambda d: (len(d.parts), d.parts))
    return results


def decomposition_count(polygon: LatticePolygon, cap: int | None = None) -> int:
    return len(enumerate_maximal_decompositions(polygon, cap))


# -- unimodular maps and the iterate family -----------------------------------

Mat2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class UnimodularMap:
    """An element of GL2(Z) semidirect Z^2: integer matrix with det +-1 plus
    a translation."""

    matrix: Mat2
    translation: Vec2 = (0, 0)

    def __post_init__(self) -> None:
        if self.determinant not in (1, -1):
            raise ValueError(f"matrix {self.matrix} is not unimodular")

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def apply(self, v: Vec2) -> Vec2:
        (a, b), (c, d) = self.matrix
        return (a * v[0] + b * v[1] + self.translation[0],
                c * v[0] + d * v[1] + self.translation[1])


def apply_unimodular(m: UnimodularMap, polygon: LatticePolygon) -> LatticePolygon:
    return polygon_from_points([m.apply(v) for v in polygon.vertices])


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_pow(m: Mat2, n: int) -> Mat2:
    if n < 0:
        raise ValueError("negative matrix power not supported")
    result: Mat2 = ((1, 0), (0, 1))
    for _ in range(n):
        result = mat_mul(result, m)
    return result


def mat_apply(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


ITERATE_MATRIX: Mat2 = ((5, 2), (2, 1))

BASE_HEXAGON = polygon_from_points(
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])


def build_hexagon_family(r: int) -> LatticePolygon:
    """Minkowski sum of the base hexagon with its first ``r`` iterates under
    the fixed SL2(Z) matrix; the result has 6r+6 vertices and unit edges."""
    if r < 0:
        raise ValueError("r must be non-negative")
    result = BASE_HEXAGON
    power: Mat2 = ITERATE_MATRIX
    for _ in range(r):
        iterate = apply_unimodular(UnimodularMap(power), BASE_HEXAGON)
        result = minkowski_sum(result, iterate)
        power = mat_mul(power, ITERATE_MATRIX)
    return result


def iterate_matrix_mod2(n: int) -> Mat2:
    m = mat_pow(ITERATE_MATRIX, n)
    return tuple(tuple(x % 2 for x in row) for row in m)  # type: ignore[return-value]


def check_iterate_disjointness(n_max: int) -> tuple[bool, tuple | None]:
    """Verify that the six-vector sets of distinct iterates never meet, and
    that the iterate matrix is the identity mod 2.

    Returns ``(True, None)`` or ``(False, witness)`` with the colliding data.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if iterate_matrix_mod2(1) != ((1, 0), (0, 1)):
        return False, ("mod2", iterate_matrix_mod2(1))
    seeds = [(1, 0), (0, 1), (1, 1)]
    sets = []
    for n in range(n_max + 1):
        m = mat_pow(ITERATE_MATRIX, n)
        vecs = frozenset(w for s in seeds for w in (mat_apply(m, s), vec_neg(mat_apply(m, s))))
        sets.append(vecs)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            hit = sets[i] & sets[j]
            if hit:
                return False, (i, j, sorted(hit)[0])
    return True, None
