"""The toric-deform benchmark harness (standard library only).

Run from the repository root:

    python3 benchmarks/run.py --workload analyze-corpus --seed 1 --seconds 25 --trace 0

One process imports the package from ``src/``, builds the workload's inputs
from the seed, and runs the items through ``toric_deform.cli.run`` (the
commands users type) or, where no command exists, the public library call.
Every output is checked against ``reference.json``, which was computed by
independent oracles (see ``make_reference.py``).

``--trace 0`` reports the end-to-end metrics.  The items run in lockstep
with a control, a frozen copy of the package in ``control/``, and the times
are reported relative to it (see README.md, Steadiness).  ``--trace 1``
runs traced passes (see ``layers.py``) in turn with untraced ones, checks
that both give the same bytes, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import itertools
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import sys
import threading
import time
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from statistics import fmean, median, quantiles
from typing import Callable

from layers import LayerTracer, median_metrics, metric_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
CONTROL = BENCH_DIR / "control"

PACKAGE = "toric_deform"
CONTROL_PACKAGE = "toric_deform_control"   # frozen copy, see README.md
DEFAULT_SEED = 0          # envelopes are pinned byte for byte at this seed
SETUP_PAIRS = 11          # timed set-up pairs (program, control) after one warm-up pair
ITEM_DEADLINE_S = 60.0    # a single item running longer counts as failed
RUN_LIMIT_S = 150.0       # items still pending after this are failed, not run
MAP_ENTRY_BOUND = 1       # seeded GL2(Z) maps have entries in [-1, 1]
MAP_SHIFT_BOUND = 3       # and translations in [-3, 3]^2
TRUNCATION_K_EXTRA = 3
FAMILY_BOUNDS_R = (0, 1, 2, 3)
FANO_FAMILY_R = (0, 1, 2, 3, 4, 5, 6)
ANALYZE_DMAX_M8 = 5       # the default d_max of 6 costs about 20 s per m = 8 polygon

# Fixed scales for the reported times: round figures for the control's pass
# time, slowest item time and set-up time at seed 0, between those measured
# in the fast and the slow phases of a 2-vCPU Xeon KVM guest (Python 3.11.7).  ``wall_s`` is the pass scale times
# the program's time over the control's on the same items; see README.md.
CONTROL_PASS_S = {"analyze-corpus": 6.0, "family-bounds": 8.0,
                  "ideal-membership": 6.0, "fano-polytopes": 6.0}
CONTROL_SLOWEST_ITEM_S = {"analyze-corpus": 1.65, "family-bounds": 7.8,
                          "ideal-membership": 1.7, "fano-polytopes": 3.3}
CONTROL_SETUP_S = 0.05

END_TO_END_UNITS = {"wall_s": "s", "slowest_item_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


class ItemDeadline(BaseException):
    """Raised by SIGALRM inside an item; a BaseException so that the
    package's own ``except Exception`` handlers cannot swallow it."""


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], tuple[bool, str]]    # (exited cleanly, output text)
    check: Callable[[str], str | None]     # None when the output is right
    seed_free: bool = False                # input does not depend on --seed


# -- inputs -------------------------------------------------------------------


def draw_map(rng: random.Random) -> Callable[[list[int]], list[int]]:
    """A bounded affine unimodular map of the plane, drawn by rejection."""
    while True:
        a, b, c, d = (rng.randint(-MAP_ENTRY_BOUND, MAP_ENTRY_BOUND) for _ in range(4))
        if a * d - b * c in (1, -1):
            break
    tx, ty = (rng.randint(-MAP_SHIFT_BOUND, MAP_SHIFT_BOUND) for _ in range(2))
    return lambda p: [a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty]


def write_polygon(workdir: Path, name: str, vertices: list[list[int]]) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"vertices": vertices}), encoding="utf-8")
    return str(path)


def import_package(package: str, root: Path):
    """Fresh import of ``package`` and its CLI from the directory ``root``."""
    for key in [k for k in sys.modules if k == package or k.startswith(package + ".")]:
        del sys.modules[key]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    cli = importlib.import_module(f"{package}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise ImportError(f"{package} was imported from {cli.__file__}, not from {root}")
    return cli, sys.modules[f"{package}.hulls"], sys.modules[f"{package}.lattice"]


class ThreadStream(io.TextIOBase):
    """Stands in for ``sys.stdout`` or ``sys.stderr``: each thread writes to
    the buffer it set with ``capture``, or else to the real stream.  The
    program and the control run at the same time in two threads, and
    ``contextlib.redirect_stdout`` would mix their outputs."""

    def __init__(self, real):
        self.real = real
        self.local = threading.local()

    def write(self, text: str) -> int:
        return (getattr(self.local, "buffer", None) or self.real).write(text)

    def flush(self) -> None:
        (getattr(self.local, "buffer", None) or self.real).flush()

    @contextlib.contextmanager
    def capture(self, buffer: io.StringIO):
        self.local.buffer = buffer
        try:
            yield buffer
        finally:
            self.local.buffer = None


def install_thread_streams() -> None:
    if not isinstance(sys.stdout, ThreadStream):
        sys.stdout, sys.stderr = ThreadStream(sys.stdout), ThreadStream(sys.stderr)


def call_cli(cli, argv: list[str]) -> tuple[bool, str]:
    out, err = io.StringIO(), io.StringIO()
    with sys.stdout.capture(out), sys.stderr.capture(err):
        code = cli.run(argv)
    return code == 0, out.getvalue()


# -- independent expectations -------------------------------------------------


def fano_closed_form(vertices: list[list[int]]) -> dict:
    """P_F = conv(F x {1}, -F x {-1}) without a hull search.

    F is given by its vertices in cyclic order.  The side facets are the
    outer normals u of F + (-F), i.e. plus or minus every primitive edge
    normal of F, with normal (2u, h_-F(u) - h_F(u)) and offset
    h_F(u) + h_-F(u) divided by the normal's content; top and bottom have
    offset 1.  The vertices are the 2m lifted vertices.
    """
    n = len(vertices)
    normals = set()
    for i in range(n):
        ex = vertices[(i + 1) % n][0] - vertices[i][0]
        ey = vertices[(i + 1) % n][1] - vertices[i][1]
        g = gcd(ex, ey)
        normals |= {(ey // g, -ex // g), (-ey // g, ex // g)}
    facets = {((0, 0, 1), 1), ((0, 0, -1), 1)}
    for ux, uy in normals:
        dots = [ux * x + uy * y for x, y in vertices]
        top, bottom = max(dots), -min(dots)
        normal = (2 * ux, 2 * uy, bottom - top)
        g = gcd(*normal)
        facets.add((tuple(c // g for c in normal), (top + bottom) // g))
    lifted = sorted([(x, y, 1) for x, y in vertices] + [(-x, -y, -1) for x, y in vertices])
    return {"vertices": [list(v) for v in lifted],
            "facets": [{"normal": list(nv), "offset": off} for nv, off in sorted(facets)]}


def centrally_symmetric(vertices: list[list[int]]) -> bool:
    points = {tuple(v) for v in vertices}
    lo, hi = min(points), max(points)
    return {(lo[0] + hi[0] - x, lo[1] + hi[1] - y) for x, y in points} == points


def _mismatch(got: dict, want: dict) -> str | None:
    bad = [f"{k}: got {got.get(k)!r}, want {v!r}" for k, v in want.items() if got.get(k) != v]
    return "; ".join(bad) or None


def _envelope(text: str, command: str) -> dict:
    env = json.loads(text)
    if env.get("status") != "ok" or env.get("command") != command:
        raise ValueError(f"envelope status {env.get('status')!r}, command {env.get('command')!r}")
    return env["result"]


def check_analyze(ref: dict, text: str) -> str | None:
    res = _envelope(text, "analyze")
    d = ref["m"] - 3
    hilbert = ref["hilbert"]
    dims = ref["component_dimensions"]
    components = res["components"]
    got = {"embedding_dimension": res["embedding_dimension"],
           "hilbert": res["hilbert"],
           "classification": res["classification"]["tag"],
           "component_dimensions": sorted(c["dimension"] for c in components),
           "dimension_is_summands_minus_1": all(
               c["dimension"] == len(c["summands"]) - 1 for c in components),
           "artinian": res["artinian"],
           "obstruction_check": res["obstruction_check"]}
    want = {"embedding_dimension": d,
            "hilbert": hilbert,
            "classification": ref["classification"],
            "component_dimensions": dims,
            "dimension_is_summands_minus_1": True,
            "artinian": dims == [0],
            "obstruction_check": (hilbert[2] == (d * d + d - 4) // 2
                                  if d >= 2 and len(hilbert) > 2 else None)}
    return _mismatch(got, want)


def check_family(ref: dict, text: str) -> str | None:
    res = _envelope(text, "family")
    count = ref["decompositions"]
    closed = fano_closed_form(ref["vertices"])
    got = {"polygon": res["polygon"]["vertices"], "vertex_count": res["vertex_count"],
           "bounds": res["bounds"], "unit_edges": res["unit_edges"],
           "centrally_symmetric": res["centrally_symmetric"], "fano": res["fano"],
           "prism": res["prism"], "reflexive": res["reflexive"]}
    want = {"polygon": ref["vertices"], "vertex_count": 6 * ref["r"] + 6,
            "bounds": {"decomposition_count": count, "stack_lower": count * count,
                       "space_lower": max(1, count * count // 4), "aut_divisor": 4},
            "unit_edges": True, "centrally_symmetric": True, "fano": True, "prism": True,
            "reflexive": all(f["offset"] == 1 for f in closed["facets"])}
    return _mismatch(got, want)


def check_fano(ref: dict, vertices: list[list[int]], text: str) -> str | None:
    res = _envelope(text, "fano")
    closed = fano_closed_form(vertices)
    symmetric = centrally_symmetric(vertices)
    polytope = res["polytope"]
    got = {"polytope": polytope, "vertex_count": len(polytope["vertices"]),
           "facet_count": len(polytope["facets"]), "fano": res["fano"],
           "reflexive": res["reflexive"], "prism": res["prism"],
           "centrally_symmetric_base": res["centrally_symmetric_base"]}
    want = {"polytope": closed, "vertex_count": ref["pf_vertices"],
            "facet_count": ref["pf_facets"], "fano": True,
            "reflexive": all(f["offset"] == 1 for f in closed["facets"]),
            "prism": symmetric, "centrally_symmetric_base": ref["centrally_symmetric"]}
    return _mismatch(got, want)


def check_verify_paper(ref: dict, text: str) -> str | None:
    res = _envelope(text, "verify-paper")
    checks = res["checks"]
    got = {"checks": len(checks), "passed": sum(c["passed"] for c in checks),
           "all_passed": res["all_passed"]}
    return _mismatch(got, {"checks": ref["checks"], "passed": ref["checks"],
                           "all_passed": True})


# -- workloads ----------------------------------------------------------------


def _mapped(rng: random.Random, vertices: list[list[int]]) -> list[list[int]]:
    fn = draw_map(rng)
    return [fn(v) for v in vertices]


def analyze_corpus(ref, rng, workdir, modules) -> list[Item]:
    cli = modules[0]
    items = []
    for poly in ref["polygons"]:
        name = poly["name"]
        argv = ["analyze", write_polygon(workdir, name, _mapped(rng, poly["vertices"])),
                "--json"]
        if poly["m"] == 8:
            argv += ["--dmax", str(ANALYZE_DMAX_M8)]
        items.append(Item(f"analyze:{name}",
                          lambda argv=argv: call_cli(cli, argv),
                          lambda text, poly=poly: check_analyze(poly, text)))
    return items


def family_bounds(ref, rng, workdir, modules) -> list[Item]:
    cli = modules[0]
    family = {f["r"]: f for f in ref["family"]}
    return [Item(f"family:r{r}",
                 lambda r=r: call_cli(cli, ["family", "--r", str(r), "--json"]),
                 lambda text, f=family[r]: check_family(f, text),
                 seed_free=True)
            for r in FAMILY_BOUNDS_R]


def ideal_membership(ref, rng, workdir, modules) -> list[Item]:
    cli, hulls, lattice = modules
    items = []
    corpus = [p for p in ref["polygons"] if p["name"].startswith("corpus-")]
    for poly in corpus:
        vertices = _mapped(rng, poly["vertices"])

        def run(vertices=vertices):
            polygon = lattice.polygon_from_points(vertices)
            return True, repr(hulls.verify_truncation(polygon, TRUNCATION_K_EXTRA))

        items.append(Item(f"truncation:{poly['name']}", run,
                          lambda text: None if text == "True" else f"returned {text}"))
    items.append(Item("verify-paper", lambda: call_cli(cli, ["verify-paper", "--json"]),
                      lambda text: check_verify_paper(ref["verify_paper"], text),
                      seed_free=True))
    return items


def fano_polytopes(ref, rng, workdir, modules) -> list[Item]:
    cli = modules[0]
    sources = [(f"family-r{f['r']}", f) for f in ref["family"] if f["r"] in FANO_FAMILY_R]
    sources += [(p["name"], p) for p in ref["polygons"] if not p["name"].startswith("corpus-")]
    items = []
    for name, poly in sources:
        vertices = _mapped(rng, poly["vertices"])
        path = write_polygon(workdir, name, vertices)
        items.append(Item(f"fano:{name}",
                          lambda path=path: call_cli(cli, ["fano", path, "--json"]),
                          lambda text, poly=poly, v=vertices: check_fano(poly, v, text)))
    return items


WORKLOADS = {
    "analyze-corpus": analyze_corpus,
    "family-bounds": family_bounds,
    "ideal-membership": ideal_membership,
    "fano-polytopes": fano_polytopes,
}


# -- passes -------------------------------------------------------------------


def _on_alarm(signum, frame):
    raise ItemDeadline()


def run_item(item: Item, stop_at: float, tracer=None) -> tuple[float, str | None, str | None]:
    """Run one item under its deadline: (seconds, output text, error or None)."""
    remaining = stop_at - time.perf_counter()
    if remaining <= 0:
        return 0.0, None, "not run: the run's time limit was reached"
    if tracer is not None:
        tracer.item = item.name
    text, error = None, None
    signal.setitimer(signal.ITIMER_REAL, min(ITEM_DEADLINE_S, remaining))
    t0 = time.perf_counter()
    try:
        ok, text = item.run()
        if not ok:
            error = "exited non-zero"
    except ItemDeadline:
        error = "passed its deadline"
    except Exception as exc:  # an item that raises is a failed item
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
    return elapsed, text, error


@dataclass
class PassResult:
    wall: float
    item_times: list[float]
    outputs: list[str | None]
    errors: list[str | None]


def run_pass(items: list[Item], stop_at: float, tracer=None) -> PassResult:
    """Run every item once; checks happen afterwards, outside the timing."""
    start = time.perf_counter()
    runs = [run_item(item, stop_at, tracer) for item in items]
    return PassResult(time.perf_counter() - start, *(list(column) for column in zip(*runs)))


def check_output(item: Item, text: str | None, error: str | None, pinned: dict,
                 use_pins: bool, expected: str | None = None) -> str | None:
    """The item's error, or None: the run itself, the reference, the pinned
    sha256, and equality with the ``expected`` output of an earlier pass."""
    if error is not None or text is None:
        return error or "no output"
    try:
        error = item.check(text)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if error is None and (use_pins or item.seed_free) and item.name in pinned \
            and digest != pinned[item.name]:
        error = "sha256 differs from the pinned envelope"
    if error is None and expected is not None and text != expected:
        error = "output differs from the first pass"
    return error


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def _quartiles(values: list[float], what: str = "passes") -> str:
    if len(values) < 2:
        return f"{median(values):.4f} from a single sample"
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return f"median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f} over {len(values)} {what}"


def set_up(args, reference: dict, workdir: Path, package: str, root: Path
           ) -> tuple[list[Item], float]:
    """Fresh import plus the workload's inputs, and the time they took.
    Earlier garbage is collected first, outside the timing."""
    gc.collect()
    t0 = time.perf_counter()
    modules = import_package(package, root)
    items = WORKLOADS[args.workload](reference, random.Random(args.seed), workdir, modules)
    return items, time.perf_counter() - t0


class Report:
    """Item runs of the program, each checked; ``attempted`` and ``failed``."""

    def __init__(self, items: list[Item], pinned: dict, use_pins: bool):
        self.items, self.pinned, self.use_pins = items, pinned, use_pins
        self.first: list[str | None] = [None] * len(items)
        self.errors: list[tuple[str, str]] = []
        self.attempted = 0

    def add(self, i: int, text: str | None, error: str | None, first: bool = False) -> None:
        item = self.items[i]
        error = check_output(item, text, error, self.pinned, self.use_pins,
                             None if first else self.first[i])
        if first:
            self.first[i] = text
        self.attempted += 1
        if error is not None:
            self.errors.append((item.name, error))

    def add_pass(self, result: PassResult, first: bool = False) -> None:
        for i, (text, error) in enumerate(zip(result.outputs, result.errors)):
            self.add(i, text, error, first)


def pin_to_one_cpu() -> None:
    """Keep every thread of the process on one CPU, so that the program and
    the control share whatever state that CPU is in."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def lockstep(item: Item, control_item: Item, stop_at: float, expect: tuple[float, float]
             ) -> tuple[list[tuple[float, str | None, str | None]], list[float], str | None]:
    """Run ``item`` here and ``control_item`` in a second thread at the same time.

    On one CPU the two threads take turns holding the GIL every few
    milliseconds, so both run through the same host state; each is timed by
    its own thread CPU time.  ``expect`` holds the CPU seconds one run of
    each is expected to take.  A side that finishes first runs its item again
    while that run is expected to end before the other side's, so that a
    faster program is still timed alongside the control.  Returns the
    program's runs as (CPU seconds, output, error), the control's CPU
    seconds, and the control's error or None.
    """
    control_times: list[float] = []
    control_error: list[str] = []
    done = threading.Event()

    def control() -> None:
        start = time.thread_time()
        while True:
            t0 = time.thread_time()
            try:
                ok, _ = control_item.run()
                if not ok:
                    control_error.append("exited non-zero")
            except Exception as exc:  # a broken control is reported, not raised
                control_error.append(f"raised {type(exc).__name__}: {exc}")
            control_times.append(time.thread_time() - t0)
            if control_error or done.is_set() \
                    or time.thread_time() - start + control_times[-1] > expect[0]:
                break
        done.set()

    thread = threading.Thread(target=control, name="control")
    program_runs = []
    start = time.thread_time()
    thread.start()
    try:
        while True:
            t0 = time.thread_time()
            _, text, error = run_item(item, stop_at)
            program_runs.append((time.thread_time() - t0, text, error))
            last = program_runs[-1][0]
            if error or done.is_set() or time.thread_time() - start + last > expect[1]:
                break
    finally:
        done.set()
        thread.join()
    return program_runs, control_times, (control_error or [None])[0]


def measure_end_to_end(args, reference: dict, workdir: Path, report_for, process_start: float):
    """The paired run behind the end-to-end metrics.

    Set-ups of the control and the program alternate.  Then one pass of the
    program runs alone, and ``peak_rss_mb`` is read after it.  Then, round
    after round, every item runs under the program and the control in
    lockstep.  Rounds after the first skip an item whose lockstep would end
    after ``--seconds``.  Times are reported relative to the control (see
    README.md, Steadiness).
    """
    pin_to_one_cpu()
    setup_ratios = []
    for k in range(SETUP_PAIRS + 1):
        # the first pair warms up; in a fresh checkout it compiles the
        # bytecode.  Which of the two goes first alternates.
        sides = [(CONTROL_PACKAGE, CONTROL), (PACKAGE, SRC)]
        timed = {package: set_up(args, reference, workdir, package, root)
                 for package, root in (sides if k % 2 else sides[::-1])}
        (control_items, control_s), (items, program_s) = timed[CONTROL_PACKAGE], timed[PACKAGE]
        if k:
            setup_ratios.append(program_s / control_s)
    report = report_for(items)
    stop_at = process_start + RUN_LIMIT_S
    gc.collect()
    measure_start = time.perf_counter()
    first = run_pass(items, stop_at)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.add_pass(first, first=True)
    program: list[list[float]] = [[] for _ in items]
    control: list[list[float]] = [[] for _ in items]
    for rnd in itertools.count(1):
        ran = False
        for i, item in enumerate(items):
            expect = (fmean(program[i] or first.item_times[i:i + 1]),
                      fmean(control[i] or first.item_times[i:i + 1]))
            if rnd > 1 and time.perf_counter() - measure_start + sum(expect) > args.seconds:
                continue
            ran = True
            runs, control_times, control_error = lockstep(item, control_items[i], stop_at,
                                                          expect)
            for cpu, text, error in runs:
                report.add(i, text, error)
                program[i].append(cpu)
            control[i] += control_times
            report.attempted += 1
            if control_error is not None:
                report.errors.append((f"control {item.name}", control_error))
        if not ran:
            break
    return report, program, control, setup_ratios, peak_rss_mb


def measure_layers(args, reference: dict, workdir: Path, report_for, process_start: float):
    """Untraced and traced passes of the program in turn, at least one of each,
    while the next pass fits in ``--seconds``."""
    items, _ = set_up(args, reference, workdir, PACKAGE, SRC)
    report = report_for(items)
    stop_at = process_start + RUN_LIMIT_S
    gc.collect()
    measure_start = time.perf_counter()
    first = run_pass(items, stop_at)
    report.add_pass(first, first=True)
    untraced, traced, layer_runs = [first], [], []
    while True:
        slowest = max(p.wall for p in untraced + traced)
        if traced and time.perf_counter() - measure_start + slowest > args.seconds:
            break
        tracer = LayerTracer(PACKAGE) if len(traced) < len(untraced) else None
        with tracer or contextlib.nullcontext():
            result = run_pass(items, stop_at, tracer)
        report.add_pass(result)
        if tracer is None:
            untraced.append(result)
            continue
        traced.append(result)
        layer_runs.append(tracer.metrics())
        if len(traced) == 1:
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed,
                         "machine": machine_facts()})
    return report, untraced, traced, layer_runs


def main(argv: list[str] | None = None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [SRC / PACKAGE / "__init__.py", CONTROL / CONTROL_PACKAGE / "__init__.py", REFERENCE]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"error: {', '.join(missing)} missing; run from a full checkout of the "
              f"repository", file=sys.stderr)
        return 1

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pinned = reference["sha256"].get(args.workload, {})

    def report_for(items: list[Item]) -> Report:
        return Report(items, pinned, args.seed == DEFAULT_SEED)

    install_thread_streams()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            report, untraced, traced, layer_runs = measure_layers(
                args, reference, workdir, report_for, process_start)
        else:
            report, program, control, setup_ratios, peak_rss_mb = \
                measure_end_to_end(args, reference, workdir, report_for, process_start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    for name, error in report.errors[:20]:
        print(f"FAIL {name}: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(report.items)} items, "
          f"machine {json.dumps(machine_facts())}")
    if args.trace:
        untraced_s = sum(min(p.item_times[i] for p in untraced) for i in range(len(report.items)))
        traced_s = sum(min(p.item_times[i] for p in traced) for i in range(len(report.items)))
        print(f"untraced pass wall in s: {_quartiles([p.wall for p in untraced])}")
        print(f"traced pass wall in s: {_quartiles([p.wall for p in traced])}")
        metrics = median_metrics(layer_runs)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        units = metric_units()
    else:
        program_mean = [fmean(times) for times in program]
        control_mean = [fmean(times) for times in control]
        hardest = control_mean.index(max(control_mean))
        print(f"lockstep CPU s, program over control: pass {sum(program_mean):.4f} / "
              f"{sum(control_mean):.4f}, slowest item {report.items[hardest].name} "
              f"{program_mean[hardest]:.4f} / {control_mean[hardest]:.4f}; "
              f"{min(map(len, program))} to {max(map(len, program))} program runs per item")
        print(f"set-up, program over control: {_quartiles(setup_ratios, 'set-up pairs')}")
        metrics = {
            "wall_s": CONTROL_PASS_S[args.workload] * sum(program_mean) / sum(control_mean),
            "slowest_item_s": CONTROL_SLOWEST_ITEM_S[args.workload]
            * program_mean[hardest] / control_mean[hardest],
            "setup_s": CONTROL_SETUP_S * median(setup_ratios),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (report.attempted - len(report.errors)) / report.attempted,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    failed = len(report.errors)
    print(json.dumps({"correct": failed == 0, "attempted": report.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
