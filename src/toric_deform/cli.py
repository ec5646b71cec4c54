"""Command-line front end.

Reads polygon JSON ({"vertices": [[x, y], ...]}), prints deterministic text
or JSON reports, and runs the pinned verification ledger.  Exit codes:
0 success, 1 domain error (invalid polygon, non-unit edges, enumeration
cap), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .fano import build_P_F, family_branch_report, is_fano, is_reflexive, is_prism_over
from .hulls import CyclicQuotient, classify, cyclic_quotient_t1, hull_report
from .lattice import EnumerationCapError, LatticePolygon, is_centrally_symmetric
from .verification import run_checks

_HULL_RING_BY_DIMENSION = {1: "C[[x]]", 2: "C[[x,y]]", 3: "C[[x,y,z]]"}


def _load_polygon(path: str) -> LatticePolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return LatticePolygon.from_json_dict(json.load(fh))


def _envelope(command: str, input_echo, result) -> dict:
    return {"tool": "toric-deform", "version": __version__, "command": command,
            "input": input_echo, "status": "ok", "result": result}


def _emit(args, command: str, input_echo, result, text_lines) -> None:
    if args.json:
        print(json.dumps(_envelope(command, input_echo, result),
                         indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args) -> int:
    polygon = _load_polygon(args.path)
    report = hull_report(polygon, d_max=args.dmax, dropped_edge=args.drop)
    lines = [
        f"polygon: {list(polygon.vertices)}",
        f"embedding dimension: {report.embedding_dimension}",
        f"hilbert: {list(report.hilbert)}",
        f"classification: {report.classification.label}"
        + (f"  (hull {report.classification.local_ring})"
           if report.classification.local_ring else ""),
        f"artinian: {report.artinian}",
        f"components: {len(report.components)}",
    ]
    for idx, comp in enumerate(report.components):
        lines.append(f"  component {idx}: dimension {comp.dimension}, "
                     f"summands {comp.decomposition.to_json()}")
    if report.obstruction_check is not None:
        lines.append(f"degree-2 dimension matches (d^2+d-4)/2: {report.obstruction_check}")
    _emit(args, "analyze", polygon.to_json_dict(), report.to_json_dict(), lines)
    return 0


def _cmd_classify(args) -> int:
    polygon = _load_polygon(args.path)
    case = classify(polygon)
    text = case.label + (f"  (hull {case.local_ring})" if case.local_ring else "")
    _emit(args, "classify", polygon.to_json_dict(), case.to_json_dict(), [text])
    return 0


def _cmd_family(args) -> int:
    report = family_branch_report(args.r, aut_divisor=args.aut_divisor)
    b = report.bounds
    lines = [
        f"family member r={args.r}: {report.vertex_count} vertices, "
        f"unit edges: {report.unit_edges}, centrally symmetric: {report.centrally_symmetric}",
        f"maximal Minkowski decompositions: {b.decomposition_count}",
        f"stack branch lower bound: {b.stack_lower}",
        f"space branch lower bound: {b.space_lower} (aut divisor {b.aut_divisor})",
        f"Fano: {report.fano}, prism: {report.prism}, reflexive: {report.reflexive}",
    ]
    _emit(args, "family", {"r": args.r, "aut_divisor": args.aut_divisor},
          report.to_json_dict(), lines)
    return 0


def _cmd_fano(args) -> int:
    polygon = _load_polygon(args.path)
    polytope = build_P_F(polygon)
    result = {
        "polytope": polytope.to_json_dict(),
        "fano": is_fano(polytope),
        "reflexive": is_reflexive(polytope),
        "prism": is_prism_over(polytope, polygon),
        "centrally_symmetric_base": is_centrally_symmetric(polygon),
    }
    lines = [
        f"vertices: {len(polytope.vertices)}, facets: {len(polytope.facets)}",
        f"Fano: {result['fano']}, reflexive: {result['reflexive']}, "
        f"prism over base: {result['prism']}",
    ]
    for f in polytope.facets:
        lines.append(f"  facet: normal {list(f.normal)}, offset {f.offset}")
    _emit(args, "fano", polygon.to_json_dict(), result, lines)
    return 0


def _cmd_cyclic_quotient(args) -> int:
    quotient = CyclicQuotient(args.n, args.q)
    dim = cyclic_quotient_t1(quotient)
    ring = _HULL_RING_BY_DIMENSION.get(dim, f"C[[x1..x{dim}]]")
    _emit(args, "cyclic-quotient", {"n": args.n, "q": args.q},
          {"t1_dimension": dim, "hull": ring},
          [f"{dim} (hull {ring})"])
    return 0


def _cmd_verify_paper(args) -> int:
    records = run_checks()
    all_ok = all(r["passed"] for r in records)
    lines = []
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        suffix = f"  [{r['error']}]" if "error" in r else ""
        lines.append(f"{status}  {r['id']:32s} {r['description']}{suffix}")
    lines.append(f"{sum(r['passed'] for r in records)}/{len(records)} checks passed")
    _emit(args, "verify-paper", None,
          {"checks": records, "all_passed": all_ok}, lines)
    return 0 if all_ok else 1


@functools.cache  # parse_args leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-deform",
        description="Deformation-space reports and K-moduli branch bounds "
                    "for lattice polygons (exact arithmetic only)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="full deformation-space report for a polygon")
    p.add_argument("path", help="polygon JSON file: {\"vertices\": [[x, y], ...]}")
    p.add_argument("--dmax", type=int, default=None,
                   help="Hilbert depth (default max(4, m-2))")
    p.add_argument("--drop", type=int, default=None,
                   help="dropped edge index, 0-based (default: last edge)")
    add_json(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("classify", help="hull type of a unit-edge polygon")
    p.add_argument("path")
    add_json(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("family", help="branch bounds for an iterated-hexagon family member")
    p.add_argument("--r", type=int, required=True, help="number of iterates (>= 0)")
    p.add_argument("--aut-divisor", type=int, default=4, dest="aut_divisor")
    add_json(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("fano", help="the height-(+1/-1) Fano polytope over a polygon")
    p.add_argument("path")
    add_json(p)
    p.set_defaults(fn=_cmd_fano)

    p = sub.add_parser("cyclic-quotient",
                       help="deformation dimension of the (1/n)(1, q) surface singularity")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    add_json(p)
    p.set_defaults(fn=_cmd_cyclic_quotient)

    p = sub.add_parser("verify-paper", help="run the pinned verification ledger")
    add_json(p)
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "family" and args.r < 0:
        print("error: --r must be non-negative", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (EnumerationCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
