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

    def to_json_dict(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @classmethod
    def from_json_dict(cls, data: object) -> "LatticePolygon":
        """Parse {"vertices": [[x, y], ...]} with JSON integer coordinates;
        anything else raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
            raise ValueError("expected a JSON object with a 'vertices' list")
        return polygon_from_points(data["vertices"])


def _lattice_point(p: Sequence[int]) -> Vec2:
    """``(x, y)`` from a point with exactly two coordinates, both ``int``
    (not ``bool``); anything else raises ValueError rather than being
    truncated or rounded."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise ValueError(f"point {p!r} is not an (x, y) pair") from None
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"point {p!r} does not have integer coordinates")
    return (x, y)


def polygon_from_points(points: Iterable[Sequence[int]]) -> LatticePolygon:
    """Convex hull with canonical vertex order; idempotent on canonical input."""
    pts = sorted({_lattice_point(p) for p in points})
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
    av = a.vertices if isinstance(a, LatticePolygon) else tuple(_lattice_point(p) for p in a)
    bv = b.vertices if isinstance(b, LatticePolygon) else tuple(_lattice_point(p) for p in b)
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
    try:
        return int(os.environ.get(CAP_ENV_VAR, DEFAULT_DECOMPOSITION_CAP))
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, "
                         f"got {os.environ[CAP_ENV_VAR]!r}") from None


class _PartTable:
    """The minimal zero-sum parts of a copy multiset, found once per polygon.

    A count vector over the distinct primitive values is packed into one
    integer, ``width`` bits per value with the top bit of each field spare,
    so ``p <= q`` componentwise exactly when ``(q | guard) - p`` keeps every
    guard bit.  Minimality is a property of the part alone, not of the
    multiset it is drawn from, so every search state reuses the same parts.
    """

    def __init__(self, values: tuple[Vec2, ...], counts: tuple[int, ...]):
        self.values = values
        self.width = w = max(counts).bit_length() + 1
        self.guard = sum(1 << (i * w + w - 1) for i in range(len(values)))
        self.full = sum(c << (i * w) for i, c in enumerate(counts))
        self.bits = len(values) * w
        self.by_first: list[list[int]] = [[] for _ in values]
        for part in self._minimal_parts(counts):
            self.by_first[self._first(part)].append(part)

    def _first(self, state: int) -> int:
        return ((state & -state).bit_length() - 1) // self.width

    def _tabulate(self, counts: tuple[int, ...],
                  indices: range) -> dict[Vec2, dict[int, list[int]]]:
        """Every count-vector choice over ``indices``, by sum, then by size."""
        choices = [(0, 0, 0, 0)]
        for i in indices:
            (vx, vy), shift = self.values[i], i * self.width
            choices = [(size + c, x + c * vx, y + c * vy, packed + (c << shift))
                       for size, x, y, packed in choices for c in range(counts[i] + 1)]
        table: dict[Vec2, dict[int, list[int]]] = {}
        for size, x, y, packed in choices:
            table.setdefault((x, y), {}).setdefault(size, []).append(packed)
        return table

    def _minimal_parts(self, counts: tuple[int, ...]) -> list[int]:
        """Meet in the middle: pair the two halves' choices with opposite sums,
        grouped by total size, and keep a zero-sum vector only if no part kept
        so far fits inside it.  Sizes are met in increasing order, so the
        minimal parts inside a vector are all kept before the vector is met."""
        half = len(counts) // 2
        low = self._tabulate(counts, range(half))
        high = self._tabulate(counts, range(half, len(counts)))
        joins: dict[int, list[tuple[list[int], list[int]]]] = {}
        for (x, y), low_sizes in low.items():
            for high_size, highs in high.get((-x, -y), {}).items():
                for low_size, lows in low_sizes.items():
                    joins.setdefault(low_size + high_size, []).append((lows, highs))
        guard = self.guard
        kept: list[int] = []
        for size in sorted(joins)[1:]:  # size 0 is the empty choice
            for lows, highs in joins[size]:
                for high_part in highs:
                    for low_part in lows:
                        room = low_part + high_part + guard
                        for part in kept:
                            if (room - part) & guard == guard:
                                break
                        else:
                            kept.append(room - guard)
        return kept

    def steps(self, state: int, floor: int) -> Iterator[tuple[int, int, int]]:
        """(part, rest, next floor) for the parts inside ``state`` that use its
        first present value and are not below ``floor``.  Parts sharing the first
        value come in non-decreasing order, so each partition is met once; with
        unit edges the first value never outlives its part, and floors stay 0."""
        first = self._first(state)
        head = (1 << (first + 1) * self.width) - 1
        room = state | self.guard
        for part in self.by_first[first]:
            if part >= floor and (room - part) & self.guard == self.guard:
                rest = state - part
                yield part, rest, part if rest & head else 0

    def vectors(self, part: int) -> tuple[Vec2, ...]:
        mask = (1 << self.width) - 1
        return tuple(v for i, v in enumerate(self.values)
                     for _ in range((part >> (i * self.width)) & mask))


def _part_table(polygon: LatticePolygon, cap: int | None) -> _PartTable:
    """Cap check, then the parts table; a strictly convex polygon has one
    edge per primitive direction, so the copy counts are the edge lengths."""
    ev = edge_vectors(polygon)
    limit = _decomposition_cap(cap)
    if sum(ev.lengths) > limit:
        raise EnumerationCapError(sum(ev.lengths), limit)
    values, counts = zip(*sorted(zip(ev.primitives, ev.lengths)))
    return _PartTable(values, counts)


def enumerate_maximal_decompositions(polygon: LatticePolygon,
                                     cap: int | None = None) -> list[MinkowskiDecomposition]:
    """Enumerate the maximal Minkowski decompositions.

    Every edge is expanded into lattice-length many primitive copies.  The
    minimal zero-sum parts of the copy multiset are found once, by a
    meet-in-the-middle join on coordinate sums; the multiset is then
    partitioned into them by backtracking on the first value still present,
    taking parts that share it in non-decreasing order, so each decomposition
    appears once.  The result is canonically sorted.
    """
    table = _part_table(polygon, cap)

    def partitions(state: int, floor: int) -> Iterator[tuple[tuple[Vec2, ...], ...]]:
        if not state:
            yield ()
            return
        for part, rest, next_floor in table.steps(state, floor):
            part_vectors = table.vectors(part)
            for tail in partitions(rest, next_floor):
                yield (part_vectors,) + tail

    results = [MinkowskiDecomposition(tuple(sorted(parts)))
               for parts in partitions(table.full, 0)]
    results.sort(key=lambda d: (len(d.parts), d.parts))
    return results


def decomposition_count(polygon: LatticePolygon, cap: int | None = None) -> int:
    """``len(enumerate_maximal_decompositions(polygon, cap))``, counted by a
    dynamic program memoized on the remaining count vector and the floor;
    no decomposition is built."""
    table = _part_table(polygon, cap)
    memo = {0: 1}

    def count(state: int, floor: int) -> int:
        key = floor << table.bits | state  # just ``state`` while the floor is 0
        if key not in memo:
            memo[key] = sum(count(rest, next_floor)
                            for _, rest, next_floor in table.steps(state, floor))
        return memo[key]

    return count(table.full, 0)


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
