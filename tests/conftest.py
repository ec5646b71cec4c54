"""Shared fixtures: the deterministic unit-edge polygon corpus and a seeded
set of random lattice polygons."""

from __future__ import annotations

import itertools
import random
from math import gcd

import pytest

from toric_deform.lattice import (
    DegeneratePolygonError,
    LatticePolygon,
    angle_key,
    polygon_from_points,
)

# every primitive vector with coordinates in [-2, 2]
VECTOR_POOL = sorted({(x, y) for x in range(-2, 3) for y in range(-2, 3)
                      if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1})

CORPUS_SIZES = {4: 4, 5: 5, 6: 5, 7: 3, 8: 3}


def build_corpus(sizes: dict[int, int] = CORPUS_SIZES) -> list[LatticePolygon]:
    """Unit-edge polygons with m edges: zero-sum subsets of the primitive
    pool, walked in angular order.  Fully deterministic."""
    polygons: list[LatticePolygon] = []
    for m, want in sorted(sizes.items()):
        found = 0
        for subset in itertools.combinations(VECTOR_POOL, m):
            if sum(v[0] for v in subset) or sum(v[1] for v in subset):
                continue
            steps = sorted(subset, key=angle_key)
            vertices = []
            position = (0, 0)
            for s in steps:
                vertices.append(position)
                position = (position[0] + s[0], position[1] + s[1])
            polygon = polygon_from_points(vertices)
            assert polygon.edge_count == m
            polygons.append(polygon)
            found += 1
            if found >= want:
                break
        assert found == want, f"could not build {want} polygons with {m} edges"
    return polygons


@pytest.fixture(scope="session")
def corpus() -> list[LatticePolygon]:
    return build_corpus()


@pytest.fixture(scope="session")
def random_polygons() -> list[LatticePolygon]:
    """40 hulls of 3..9 random points in [-4, 4]^2 (seed 0); many of them
    have non-unit edges."""
    rng = random.Random(0)
    polygons: list[LatticePolygon] = []
    while len(polygons) < 40:
        points = {(rng.randint(-4, 4), rng.randint(-4, 4))
                  for _ in range(rng.randint(3, 9))}
        try:
            polygons.append(polygon_from_points(points))
        except DegeneratePolygonError:  # collinear or too few distinct points
            continue
    return polygons
