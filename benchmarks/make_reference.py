"""Regenerate ``reference.json``, the benchmark's expected outputs.

Run from the repository root (needs pytest, for the test corpus):

    python3 benchmarks/make_reference.py

The invariants come from the independent oracles in ``tests/oracles.py``, not
from the engines the benchmark times:

- Hilbert values by counting standard monomials outside a Groebner lead ideal
  (the package computes them by graded ranks);
- decomposition counts by a bitmask partition DP (the package backtracks over
  multisets), and the family counts 2, 8, 28, 100 for r = 0..3;
- pentagon classification by exact roots of the two binary quadrics;
- the Fano polytope by its closed form (the package scans every triple).

Last, every workload runs once at the default seed, its outputs are checked
against the invariants above, and the sha256 of each JSON envelope is pinned,
so that any byte change at that seed counts as a failure.  Re-pin only when a
change to the output format is intended.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import signal
import sys
from pathlib import Path

import run

sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]

from conftest import build_corpus  # noqa: E402
from oracles import (  # noqa: E402
    decomposition_count_bitmask,
    hilbert_by_standard_monomials,
    quadrics_coprime,
)
from toric_deform.gallery import GALLERY  # noqa: E402
from toric_deform.hulls import build_altmann_ideal, reduced_presentation  # noqa: E402
from toric_deform.lattice import build_hexagon_family, edge_vectors  # noqa: E402

# maximal Minkowski decompositions of the family members r = 0..3; the
# bitmask oracle confirms r = 0, 1 below and is too slow beyond 14 copies
FAMILY_DECOMPOSITIONS = {0: 2, 1: 8, 2: 28, 3: 100}
VERIFY_PAPER_CHECKS = 26


def part_histogram(polygon) -> dict[int, int]:
    """Maximal decompositions by number of summands, by the same bitmask DP
    as ``decomposition_count_bitmask`` but counting parts."""
    ev = edge_vectors(polygon)
    vectors = [p for p, length in zip(ev.primitives, ev.lengths) for _ in range(length)]
    n = len(vectors)
    full = (1 << n) - 1
    sums = [(0, 0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = sums[mask & (mask - 1)]
        sums[mask] = (rest[0] + vectors[low][0], rest[1] + vectors[low][1])
    zero = [m for m in range(1, full + 1) if sums[m] == (0, 0)]
    zero_set = set(zero)

    def minimal(mask: int) -> bool:
        sub = (mask - 1) & mask
        while sub:
            if sub in zero_set:
                return False
            sub = (sub - 1) & mask
        return True

    parts = [m for m in zero if minimal(m)]
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def count(mask: int) -> dict[int, int]:
        if mask not in memo:
            low = mask & -mask
            out: dict[int, int] = {}
            for part in parts:
                if part & low and part & mask == part:
                    for k, c in count(mask & ~part).items():
                        out[k + 1] = out.get(k + 1, 0) + c
            memo[mask] = out
        return memo[mask]

    return count(full)


def classification(polygon, hilbert: list[int]) -> str:
    m = polygon.edge_count
    if m == 3:
        return "Case0"
    if m == 4:
        e = edge_vectors(polygon).edges
        return "Case1b" if e[0] == tuple(-x for x in e[2]) else "Case1a"
    if m == 5:
        red = reduced_presentation(build_altmann_ideal(polygon))
        f, g = [q for q in red.ideal.generators if q.total_degree() == 2][:2]
        if quadrics_coprime(f, g):
            return "Case2a"
        return "Case2b" if hilbert[3] == 0 else "Case2c"
    return f"HigherEmbeddingDim({m - 3})"


def polygon_entry(name: str, polygon) -> dict:
    m = polygon.edge_count
    vertices = [list(v) for v in polygon.vertices]
    d_max = run.ANALYZE_DMAX_M8 if m == 8 else max(4, m - 2)
    hilbert = hilbert_by_standard_monomials(build_altmann_ideal(polygon).ideal, d_max)
    histogram = part_histogram(polygon)
    count = sum(histogram.values())
    if count != decomposition_count_bitmask(polygon):
        raise AssertionError(f"{name}: the two bitmask counts disagree")
    print(f"{name}: m={m} hilbert={hilbert} decompositions={count}", file=sys.stderr)
    return {"name": name, "m": m, "vertices": vertices, "hilbert": hilbert,
            "decompositions": count,
            "component_dimensions": sorted(k - 1 for k, c in histogram.items()
                                           for _ in range(c)),
            "classification": classification(polygon, hilbert),
            "centrally_symmetric": run.centrally_symmetric(vertices),
            "pf_vertices": 2 * m,
            "pf_facets": len(run.fano_closed_form(vertices)["facets"])}


def family_entry(r: int) -> dict:
    polygon = build_hexagon_family(r)
    vertices = [list(v) for v in polygon.vertices]
    pf_facets = len(run.fano_closed_form(vertices)["facets"])
    if len(vertices) != 6 * r + 6 or pf_facets != 6 * r + 8:
        raise AssertionError(f"family r={r} does not have 6r+6 vertices and 6r+8 facets")
    entry = {"r": r, "vertices": vertices, "centrally_symmetric": True,
             "pf_vertices": 12 * r + 12, "pf_facets": 6 * r + 8}
    if r in FAMILY_DECOMPOSITIONS:
        entry["decompositions"] = FAMILY_DECOMPOSITIONS[r]
        if r <= 1 and decomposition_count_bitmask(polygon) != FAMILY_DECOMPOSITIONS[r]:
            raise AssertionError(f"family r={r}: bitmask count disagrees")
    return entry


def pin_envelopes(reference: dict, workdir: Path) -> dict:
    """sha256 of every JSON envelope at the default seed, after checking it."""
    pins = {}
    modules = run.import_package(run.PACKAGE, run.SRC)
    for workload, build in run.WORKLOADS.items():
        items = build(reference, random.Random(run.DEFAULT_SEED), workdir, modules)
        result = run.run_pass(items, stop_at=float("inf"))
        errors = [run.check_output(item, text, error, {}, use_pins=False)
                  for item, text, error in zip(items, result.outputs, result.errors)]
        bad = [(item.name, e) for item, e in zip(items, errors) if e]
        if bad:
            raise AssertionError(f"{workload}: outputs disagree with the oracles: {bad}")
        pins[workload] = {item.name: hashlib.sha256(text.encode()).hexdigest()
                          for item, text in zip(items, result.outputs)
                          if text.lstrip().startswith("{")}
        print(f"{workload}: {len(items)} items checked and pinned in "
              f"{result.wall:.1f} s", file=sys.stderr)
    return pins


def main() -> None:
    polygons = [polygon_entry(name, p) for name, p in GALLERY.items()]
    polygons += [polygon_entry(f"corpus-{i:02d}", p) for i, p in enumerate(build_corpus())]
    reference = {
        "default_seed": run.DEFAULT_SEED,
        "polygons": polygons,
        "family": [family_entry(r) for r in range(max(run.FANO_FAMILY_R) + 1)],
        "verify_paper": {"checks": VERIFY_PAPER_CHECKS},
    }
    workdir = run.WORK / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.install_thread_streams()
    try:
        reference["sha256"] = pin_envelopes(reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
