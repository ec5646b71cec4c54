"""From a lattice polygon to the structure of its versal deformation base.

The graded algebra attached to a polygon with m edges lives in m-1 variables
(one edge is dropped; the edge vectors sum to zero, so the choice changes the
ideal only by a linear change of variables) and is cut out by the weighted
power sums of the edge coordinates in degrees 1..m-2.  This module builds
that presentation, checks that neither the truncation degree nor the dropped
edge changes the ideal, eliminates two variables through the linear
generators by a block-order basis (``reduced_presentation``), classifies the
small embedding-dimension hulls, and assembles the full report: Hilbert
values, irreducible components indexed by maximal Minkowski decompositions,
and the artinian/rigidity side facts for cyclic quotient surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .groebner import (
    buchberger,
    contains_cube_of_maximal_ideal,
    eliminate,
    hilbert_function,
    ideal_equal,
    normal_form,
)
from .lattice import (
    LatticePolygon,
    MinkowskiDecomposition,
    edge_vectors,
    enumerate_maximal_decompositions,
    is_unit_edge,
)
from .polynomials import Ideal, Polynomial, linear_substitute


class NonUnitEdgeError(ValueError):
    """The polygon has an edge of lattice length > 1, so the associated
    toric 3-fold singularity is not isolated."""


@dataclass(frozen=True)
class AltmannPresentation:
    """Generators of the homogeneous ideal attached to a polygon.

    Variable names track edge indices (``x3`` belongs to the polygon's third
    edge in canonical order), so presentations with different dropped edges
    can be compared through explicit linear maps.
    """

    polygon: LatticePolygon
    dropped_edge: int
    k_max: int
    variables: tuple[str, ...]
    edge_indices: tuple[int, ...]
    a_coeffs: tuple[int, ...]
    b_coeffs: tuple[int, ...]
    ideal: Ideal

    def power_sum(self, which: str, k: int) -> Polynomial:
        """The degree-k generator candidate: sum of a_i * x_i^k (or b_i)."""
        coeffs = self.a_coeffs if which == "a" else self.b_coeffs
        return _power_sum(self.variables, coeffs, k)


def _power_sum(variables: tuple[str, ...], coeffs: tuple[int, ...], k: int) -> Polynomial:
    terms = {}
    n = len(variables)
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * n
            e[i] = k
            terms[tuple(e)] = Fraction(c)
    return Polynomial(variables, terms)


def build_altmann_ideal(polygon: LatticePolygon, dropped_edge: int | None = None,
                        k_max: int | None = None) -> AltmannPresentation:
    """Presentation of the polygon's graded algebra with one edge dropped.

    Defaults: drop the last edge in canonical order, truncate the power sums
    at degree m-2 (higher ones already lie in the ideal; see
    ``verify_truncation``).
    """
    ev = edge_vectors(polygon)
    m = len(ev.edges)
    if dropped_edge is None:
        dropped_edge = m - 1
    if not 0 <= dropped_edge < m:
        raise ValueError(f"dropped edge index {dropped_edge} out of range for {m} edges")
    if k_max is None:
        k_max = m - 2
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    kept = tuple(i for i in range(m) if i != dropped_edge)
    variables = tuple(f"x{i + 1}" for i in kept)
    a_coeffs = tuple(ev.edges[i][0] for i in kept)
    b_coeffs = tuple(ev.edges[i][1] for i in kept)
    if not any(a_coeffs[i] * b_coeffs[j] - a_coeffs[j] * b_coeffs[i]
               for i in range(m - 1) for j in range(i + 1, m - 1)):
        raise ValueError("edge coordinate matrix has rank < 2; input is not a polygon")
    gens = []
    for k in range(1, k_max + 1):
        gens.append(_power_sum(variables, a_coeffs, k))
        gens.append(_power_sum(variables, b_coeffs, k))
    return AltmannPresentation(polygon, dropped_edge, k_max, variables, kept,
                               a_coeffs, b_coeffs, Ideal(tuple(gens), variables))


@dataclass(frozen=True)
class ReducedPresentation:
    """The presentation with two pivot variables eliminated: its ideal
    contracted to the other m-3 variables, where the two degree-1
    generators solve for the pivots."""

    presentation: AltmannPresentation
    pivot_variables: tuple[str, str]
    variables: tuple[str, ...]
    ideal: Ideal


def reduced_presentation(pres: AltmannPresentation,
                         pivot_variables: tuple[str, str] | None = None) -> ReducedPresentation:
    """Eliminate two variables through the linear generators.

    By default the pivots are the first nonzero column of the coefficient
    rows and the first column independent of it, so the reduction is
    deterministic; an explicit pivot pair with an invertible 2x2 minor may be
    requested instead.  The ideal is the pivot-free part of a block-order
    basis (``eliminate``).
    """
    a, b = pres.a_coeffs, pres.b_coeffs
    if pivot_variables is None:
        i = next(k for k in range(len(a)) if a[k] or b[k])
        j = next(k for k in range(i + 1, len(a)) if a[i] * b[k] - a[k] * b[i])
        pivot_variables = (pres.variables[i], pres.variables[j])
    else:
        i, j = (pres.variables.index(v) for v in pivot_variables)
        if a[i] * b[j] - a[j] * b[i] == 0:
            raise ValueError(f"columns {pivot_variables} are not an invertible minor")
    ideal = eliminate(pres.ideal, pivot_variables)
    return ReducedPresentation(pres, tuple(pivot_variables), ideal.variables, ideal)


# -- identity checks ----------------------------------------------------------


def verify_truncation(polygon: LatticePolygon, k_extra: int) -> bool:
    """The power sums of degrees m-1 .. m-2+k_extra already lie in the
    truncated ideal; ``k_extra`` must be at least 1."""
    if k_extra < 1:
        raise ValueError(f"k_extra must be at least 1, got {k_extra}")
    pres = build_altmann_ideal(polygon)
    gb = buchberger(pres.ideal)
    m = polygon.edge_count
    return all(normal_form(pres.power_sum(which, k), gb).is_zero
               for k in range(m - 1, m - 1 + k_extra) for which in ("a", "b"))


def drop_edge_map(source: AltmannPresentation,
                  target: AltmannPresentation) -> dict[str, Polynomial]:
    """The linear change of variables from one dropped-edge presentation to
    another.  With s and j the edges they drop, it sends x_i -> x_i - x_s and
    x_j -> -x_s, every image in the target's ring."""
    ring = target.variables
    shift = Polynomial.variable(ring, f"x{source.dropped_edge + 1}")
    return {f"x{i + 1}": -shift if i == target.dropped_edge
            else Polynomial.variable(ring, f"x{i + 1}") - shift
            for i in source.edge_indices}


def verify_drop_edge_invariance(polygon: LatticePolygon) -> bool:
    """Dropping any edge yields the same ideal up to the change of variables
    of ``drop_edge_map``."""
    m = polygon.edge_count
    if m > 7:
        raise ValueError("drop invariance check is limited to m <= 7 for cost")
    pres0 = build_altmann_ideal(polygon, dropped_edge=0)
    for j in range(1, m):
        pres_j = build_altmann_ideal(polygon, dropped_edge=j)
        image = linear_substitute(pres0.ideal, drop_edge_map(pres0, pres_j),
                                  pres_j.variables)
        if not ideal_equal(image, pres_j.ideal):
            return False
    return True


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassificationCase:
    """One of the finitely many hull types in embedding dimension <= 2, or
    the higher-dimensional catch-all."""

    tag: str
    embedding_dimension: int
    local_ring: str

    @property
    def label(self) -> str:
        if self.tag == "HigherEmbeddingDim":
            return f"HigherEmbeddingDim({self.embedding_dimension})"
        return self.tag

    def to_json_dict(self) -> dict:
        return {"tag": self.label,
                "embedding_dimension": self.embedding_dimension,
                "local_ring": self.local_ring}


CASE_0 = ClassificationCase("Case0", 0, "C")
CASE_1A = ClassificationCase("Case1a", 1, "C[x]/(x^2)")
CASE_1B = ClassificationCase("Case1b", 1, "C[[x]]")
CASE_2A = ClassificationCase("Case2a", 2, "C[x,y]/(x^2, y^2)")
CASE_2B = ClassificationCase("Case2b", 2, "C[x,y]/(x^2, x*y, y^3)")
CASE_2C = ClassificationCase("Case2c", 2, "C[[x,y]]/(x^2, x*y)")
CASE_2D = ClassificationCase("Case2d", 2, "C[[x,y]]")


def higher_embedding_case(d: int) -> ClassificationCase:
    return ClassificationCase("HigherEmbeddingDim", d, "")


def _pentagon_case(polygon: LatticePolygon) -> ClassificationCase:
    red = reduced_presentation(build_altmann_ideal(polygon))
    quadrics = [g for g in red.ideal.generators if g.total_degree() == 2]
    f, g = quadrics[0], quadrics[1]
    if contains_cube_of_maximal_ideal(f, g):
        return CASE_2A
    h3 = hilbert_function(red.ideal, 3)[3]
    return CASE_2B if h3 == 0 else CASE_2C


def classify(polygon: LatticePolygon) -> ClassificationCase:
    """Hull type of the isolated Gorenstein toric 3-fold singularity
    attached to a unit-edge polygon."""
    if not is_unit_edge(polygon):
        raise NonUnitEdgeError("classification needs unit edges (isolated singularity)")
    m = polygon.edge_count
    if m == 3:
        return CASE_0
    if m == 4:
        e = edge_vectors(polygon).edges
        parallelogram = e[0] == (-e[2][0], -e[2][1]) and e[1] == (-e[3][0], -e[3][1])
        return CASE_1B if parallelogram else CASE_1A
    if m == 5:
        return _pentagon_case(polygon)
    return higher_embedding_case(m - 3)


# -- the full report ----------------------------------------------------------


@dataclass(frozen=True)
class HullComponent:
    decomposition: MinkowskiDecomposition
    dimension: int


@dataclass(frozen=True)
class HullReport:
    """Everything the deformation base of a unit-edge polygon determines:
    embedding dimension, Hilbert values, one component per maximal Minkowski
    decomposition (of dimension = number of summands - 1), the artinian flag
    and the small-embedding-dimension classification."""

    polygon: LatticePolygon
    embedding_dimension: int
    hilbert: tuple[int, ...]
    components: tuple[HullComponent, ...]
    classification: ClassificationCase
    artinian: bool
    obstruction_check: bool | None
    generators: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "polygon": self.polygon.to_json_dict(),
            "embedding_dimension": self.embedding_dimension,
            "generators": list(self.generators),
            "hilbert": list(self.hilbert),
            "components": [
                {"dimension": c.dimension, "summands": c.decomposition.to_json()}
                for c in self.components
            ],
            "classification": self.classification.to_json_dict(),
            "artinian": self.artinian,
            "obstruction_check": self.obstruction_check,
        }


def hull_report(polygon: LatticePolygon, d_max: int | None = None,
                cap: int | None = None, dropped_edge: int | None = None) -> HullReport:
    """Assemble the deformation-space report for a unit-edge polygon.

    ``d_max`` defaults to max(4, m-2), enough to separate every
    classification case and exercise the degree-2 dimension formula.  The
    dropped edge changes no invariant (see ``verify_drop_edge_invariance``);
    ``generators`` shows the presentation it chooses.
    """
    if not is_unit_edge(polygon):
        raise NonUnitEdgeError("hull report needs unit edges (isolated singularity)")
    m = polygon.edge_count
    if d_max is None:
        d_max = max(4, m - 2)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    pres = build_altmann_ideal(polygon, dropped_edge=dropped_edge)
    hilbert = tuple(hilbert_function(pres.ideal, d_max))
    d = m - 3
    if hilbert[1] != d:
        raise RuntimeError(f"degree-1 dimension {hilbert[1]} != {d}; presentation is broken")
    obstruction = None
    if d >= 2 and d_max >= 2:
        obstruction = hilbert[2] == (d * d + d - 4) // 2
    decomps = enumerate_maximal_decompositions(polygon, cap)
    components = tuple(HullComponent(dec, dec.dimension) for dec in decomps)
    artinian = len(components) == 1 and components[0].dimension == 0
    generators = tuple(str(g) for g in pres.ideal.generators)
    return HullReport(polygon, d, hilbert, components, classify(polygon),
                      artinian, obstruction, generators)


# -- cyclic quotient surfaces ---------------------------------------------------


@dataclass(frozen=True)
class CyclicQuotient:
    """The surface singularity of type (1/n)(1, q)."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if not (1 <= self.q <= self.n - 1):
            raise ValueError(f"need 1 <= q <= n-1, got n={self.n}, q={self.q}")
        if gcd(self.n, self.q) != 1:
            raise ValueError(f"n={self.n} and q={self.q} must be coprime")


@dataclass(frozen=True)
class HJExpansion:
    """Continued fraction n/d = a2 - 1/(a3 - 1/(...)), all entries >= 2."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries or any(a < 2 for a in self.entries):
            raise ValueError("expansion entries must all be >= 2")

    def evaluate(self) -> Fraction:
        value = Fraction(self.entries[-1])
        for a in reversed(self.entries[:-1]):
            value = a - 1 / value
        return value


def hj_expansion(n: int, d: int) -> HJExpansion:
    """Negative-regular continued fraction of n/d via ceiling divisions."""
    if not (n > d >= 1):
        raise ValueError(f"need n > d >= 1, got {n}/{d}")
    if gcd(n, d) != 1:
        raise ValueError(f"{n} and {d} must be coprime")
    entries = []
    while d > 0:
        a = -(-n // d)
        entries.append(a)
        n, d = d, a * d - n
    return HJExpansion(tuple(entries))


def cyclic_quotient_t1(s: CyclicQuotient) -> int:
    """Dimension of T^1, the first-order deformation space.  The q = n-1
    series is the du Val A-chain, with one deformation parameter per chain
    node."""
    if s.q == s.n - 1:
        return s.n - 1
    return sum(hj_expansion(s.n, s.n - s.q).entries) - 2


def rigidity_oracle(dim: int, gorenstein: bool) -> bool:
    """Rigidity of isolated Q-Gorenstein toric singularities: everything in
    dimension >= 4 is rigid, and so is the non-Gorenstein case in dimension 3."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return dim >= 4 or (dim == 3 and not gorenstein)
