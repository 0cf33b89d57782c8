"""One measurement pass in a fresh process; run.py starts one per mode.

    python3 bench/worker.py MODE WORKDIR [SECONDS]

MODE is one of
  time   passes until SECONDS have elapsed, tracing off; per-input times
  peak   one pass under tracemalloc, for the peak traced heap
  once   one pass, tracing off (the base of trace.overhead_ratio)
  trace  one pass with the span recorder installed
and writes WORKDIR/MODE.json.  Every output of every pass is checked by
certify.py after the pass ends, outside any timed region.

cli-batch runs the whole batch through one `clawcolor color --json`
subprocess per pass.  Its peak and trace passes start that subprocess as
`worker.py cli-peak|cli-trace OUT -- ARGS...`, which starts tracemalloc or
the recorder before `clawcolor.cli.main` runs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from statistics import median

from calibrate import slowdown
from certify import claw_problems, packing_problems
from tracer import FUNCTIONS, RATIO_FUNCTIONS, Tracer, layer_totals, root_wall

SPEC_1122_RADII = (1, 1, 2, 2)
LABELS_1122 = ("1a", "1b", "2a", "2b")
CLI_TIMEOUT_S = 150


def _load(workdir):
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _graphs(manifest, key="edges"):
    from clawcolor import MultiGraph

    return [MultiGraph(item["n"], [tuple(e) for e in item[key]]) for item in manifest["items"]]


# In-process workloads: one op per input, looked up at call time so that
# wrappers installed by the tracer are the ones called.


def _op(workload):
    import clawcolor.colorer
    import clawcolor.oracle
    from clawcolor import SPackingSpec

    if workload == "solve-exact":
        def solve(g, item):
            c = clawcolor.oracle.solve_spacking(g, SPackingSpec(tuple(item["spec"])), cap=g.n)
            return None if c is None else [c.assignment.get(v, -1) for v in range(g.n)]
        return solve

    def color(g, item):
        c = clawcolor.colorer.color_claw_free_cubic(g)
        return [c.assignment.get(v, -1) for v in range(g.n)]
    return color


def _inprocess_pass(manifest, graphs, op, calibrated=False):
    """Per-input seconds, outputs and slowdowns; an exception is an output.

    With `calibrated`, a calibration runs before the first input and after
    each input, so input i lies between slowdowns[i] and slowdowns[i + 1].
    """
    times, outputs = [], []
    slowdowns = [slowdown()] if calibrated else None
    for item, g in zip(manifest["items"], graphs):
        started = time.perf_counter()
        try:
            out = op(g, item)
        except Exception as exc:  # a raise is a failed operation, not a crash
            out = {"raised": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - started)
        outputs.append(out)
        if calibrated:
            slowdowns.append(slowdown())
    return times, outputs, slowdowns


def _check_inprocess(manifest, outputs, key="edges"):
    """Problems per failed input of one pass over the graphs item[key]."""
    failures = []
    for item, out in zip(manifest["items"], outputs):
        edges = item[key]
        if isinstance(out, dict):
            failures.append(f"{item['name']}: raised {out['raised']}")
            continue
        expect = item["expect"]
        if expect == "UNSAT":
            if out is not None:
                failures.append(f"{item['name']}: coloring for an UNSAT instance")
            continue
        if out is None:
            failures.append(f"{item['name']}: no coloring, expected {expect}")
            continue
        radii = tuple(item["spec"]) if item.get("spec") else SPEC_1122_RADII
        problems = packing_problems(item["n"], edges, radii, out)
        if problems:
            failures.append(f"{item['name']}: {problems[0]}")
    return failures


# cli-batch


def _cli_args(manifest):
    return ["color", "--json", "--jobs", "1"] + [item["path"] for item in manifest["items"]]


def _cli_pass(manifest, wrap_mode=None, out=None):
    """(wall seconds, exit code, stdout) of one `clawcolor color` process."""
    if wrap_mode is None:
        cmd = [sys.executable, "-m", "clawcolor"]
    else:
        cmd = [sys.executable, os.path.abspath(__file__), wrap_mode, out, "--"]
    started = time.perf_counter()
    proc = subprocess.run(cmd + _cli_args(manifest), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - started
    return wall, proc.returncode, proc.stdout


def _reports(stdout):
    decoder = json.JSONDecoder()
    reports, at = [], 0
    while True:
        while at < len(stdout) and stdout[at].isspace():
            at += 1
        if at >= len(stdout):
            return reports
        report, at = decoder.raw_decode(stdout, at)
        reports.append(report)


def _check_cli(manifest, returncode, stdout):
    """(per-input seconds of colored inputs or None, colorings, failures)."""
    try:
        reports = _reports(stdout)
    except json.JSONDecodeError as exc:
        return [None] * len(manifest["items"]), 0, [f"unreadable CLI output: {exc}"]
    failures = []
    items = manifest["items"]
    if len(reports) != len(items):
        failures.append(f"{len(reports)} reports for {len(items)} inputs")
    want_exit = max(0 if item["expect"] == "colored" else 2 for item in items)
    if returncode != want_exit:
        failures.append(f"exit {returncode}, expected {want_exit}")
    label_index = {label: i for i, label in enumerate(LABELS_1122)}
    times, colored = [], 0
    for item, report in zip(items, reports):
        name, n, edges = item["name"], item["n"], item["edges"]
        times.append(report.get("elapsed_s"))
        if report.get("input") != item["path"]:
            failures.append(f"{name}: report is for {report.get('input')}")
            continue
        if item["expect"] == "colored":
            if report.get("outcome") != "colored" or report.get("exit") != 0 or not report.get("verified"):
                failures.append(f"{name}: {report.get('outcome')} {report.get('error')}")
                continue
            colored += 1
            coloring = report.get("coloring", {})
            colors = [label_index.get(coloring.get(str(v)), -1) for v in range(n)]
            if len(coloring) != n:
                colors.append(-1)
            problems = packing_problems(n, edges, SPEC_1122_RADII, colors)
            if problems:
                failures.append(f"{name}: {problems[0]}")
        else:
            err = report.get("error") or {}
            if report.get("outcome") != "error" or err.get("kind") != item["expect"] or report.get("exit") != 2:
                failures.append(f"{name}: expected rejection, got {report.get('outcome')} {err}")
                continue
            problems = claw_problems(n, edges, err.get("witness") or [])
            if problems:
                failures.append(f"{name}: bad witness: {problems[0]}")
    return times, colored, failures


# modes


def _size_exp(manifest, item_times):
    """Least-squares slope of log(time) against log(n) over the sweep inputs."""
    pts = [
        (math.log(item["n"]), math.log(t))
        for item, t in zip(manifest["items"], item_times)
        if item["sweep"] and t is not None and t > 0
    ]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx > 0 else None


class _Samples:
    """Normalized times of one timed call, kept apart when the host's speed
    changed during the call (its two calibrations disagree by more than
    STEADY): those are used only if a call never ran at a steady speed."""

    STEADY = 1.25

    def __init__(self):
        self.steady, self.unsteady = [], []

    def add(self, seconds, before, after):
        keep = self.steady if max(before, after) <= self.STEADY * min(before, after) else self.unsteady
        keep.append(seconds / math.sqrt(before * after))

    def median(self):
        return median(self.steady or self.unsteady) if self.steady or self.unsteady else None


def mode_time(manifest, seconds):
    """Passes until `seconds` have elapsed; medians of normalized times.

    Each in-process input, and each whole cli-batch pass, is timed between
    two calibrations and divided by their slowdown (see calibrate.py), so a
    time reads as seconds on the undisturbed reference host.
    """
    workload = manifest["workload"]
    cli = workload == "cli-batch"
    slowdown()  # the first call pays for warming the kernels up
    failures, attempted = [], 0
    if cli:
        # untimed: fills the bytecode cache, as users start warm too
        _, rc, stdout = _cli_pass(manifest)
        failures += _check_cli(manifest, rc, stdout)[2]
        attempted += len(manifest["items"])
    else:
        op = _op(workload)
        graphs = _graphs(manifest)
    per_item = [_Samples() for _ in manifest["items"]]
    passes, raw_walls, factors = _Samples(), [], []
    started = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - started < seconds:
        if cli:
            before = slowdown()
            wall, rc, stdout = _cli_pass(manifest)
            after = slowdown()
            times, _, bad = _check_cli(manifest, rc, stdout)
            passes.add(wall, before, after)
            for acc, t in zip(per_item, times):
                if t is not None:
                    acc.add(t, before, after)
            raw_walls.append(wall)
            factors.append(math.sqrt(before * after))
        else:
            times, outputs, slowdowns = _inprocess_pass(manifest, graphs, op, calibrated=True)
            bad = _check_inprocess(manifest, outputs)
            for i, (acc, t) in enumerate(zip(per_item, times)):
                acc.add(t, slowdowns[i], slowdowns[i + 1])
            raw_walls.append(sum(times))
            factors += slowdowns
        failures += bad
        attempted += len(manifest["items"])
        p += 1
    if "relabeled" in manifest["items"][0]:
        # untimed: the seeded relabeling must keep every verdict
        _, outputs, _ = _inprocess_pass(manifest, _graphs(manifest, "relabeled"), op)
        failures += _check_inprocess(manifest, outputs, "relabeled")
        attempted += len(manifest["items"])
    item_medians = [acc.median() for acc in per_item]
    return {
        "passes": p,
        # cli-batch: the median pass; in-process: per input the median, summed
        "wall_s": passes.median() if cli else sum(item_medians),
        "raw_wall_s": median(raw_walls),
        "slowdown": median(factors),
        "size_exp": _size_exp(manifest, item_medians),
        "attempted": attempted,
        "failures": failures,
    }


def mode_peak(manifest, workdir):
    workload = manifest["workload"]
    if workload == "cli-batch":
        out = os.path.join(workdir, "cli-peak.json")
        _, rc, stdout = _cli_pass(manifest, "cli-peak", out)
        with open(out, encoding="utf-8") as fh:
            peak = json.load(fh)["peak_bytes"]
        _, _, failures = _check_cli(manifest, rc, stdout)
    else:
        op = _op(workload)
        graphs = _graphs(manifest)
        tracemalloc.start()
        _, outputs, _ = _inprocess_pass(manifest, graphs, op)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        failures = _check_inprocess(manifest, outputs)
    return {"peak_mib": peak / 2**20, "attempted": len(manifest["items"]), "failures": failures}


def mode_once(manifest, traced_spans=None):
    """One pass; with `traced_spans` (a path) the recorder is installed."""
    workload = manifest["workload"]
    if workload == "cli-batch":
        if traced_spans is None:
            wall, rc, stdout = _cli_pass(manifest)
        else:
            wall, rc, stdout = _cli_pass(manifest, "cli-trace", traced_spans)
        _, colored, failures = _check_cli(manifest, rc, stdout)
    else:
        graphs = _graphs(manifest)
        tracer = None
        if traced_spans is not None:
            tracer = Tracer()
            tracer.install()
        times, outputs, _ = _inprocess_pass(manifest, graphs, _op(workload))
        if tracer is not None:
            tracer.dump(traced_spans)
        wall = sum(times)
        colored = sum(1 for o in outputs if isinstance(o, list))
        failures = _check_inprocess(manifest, outputs)
    return {"wall_s": wall, "colorings": colored,
            "attempted": len(manifest["items"]), "failures": failures}


def mode_trace(manifest, workdir):
    spans_path = os.path.join(workdir, "spans.json")
    res = mode_once(manifest, traced_spans=spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    totals = layer_totals(spans)
    layers = {}
    for name in FUNCTIONS:
        calls, self_s = totals.get(name, (0, 0.0))
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_s"] = self_s
    colorings = res["colorings"]
    for ratio, name in RATIO_FUNCTIONS.items():
        layers[ratio] = layers[f"{name}.calls"] / colorings if colorings else 0.0
    layers["cli.startup_s"] = 0.0
    main_wall = root_wall(spans, "cli.main")
    if main_wall:
        with open(spans_path + ".dump_s", encoding="utf-8") as fh:
            dump_s = float(fh.read())
        layers["cli.startup_s"] = res["wall_s"] - main_wall - dump_s
    res["layers"] = layers
    return res


def cli_wrapped(mode, out, argv):
    """Inside the CLI subprocess: run clawcolor.cli.main under a recorder."""
    if mode == "cli-peak":
        tracemalloc.start()
    tracer = Tracer() if mode == "cli-trace" else None
    if tracer is not None:
        tracer.install()
    import clawcolor.cli

    rc = clawcolor.cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        started = time.perf_counter()
        tracer.dump(out)
        # writing the spans is the recorder's cost, not the CLI's start-up
        with open(out + ".dump_s", "w", encoding="utf-8") as fh:
            fh.write(repr(time.perf_counter() - started))
    else:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"peak_bytes": tracemalloc.get_traced_memory()[1]}, fh)
    return rc


def main(argv):
    mode = argv[0]
    if mode in ("cli-peak", "cli-trace"):
        return cli_wrapped(mode, argv[1], argv[3:])
    # One CPU for this process and the CLI processes it starts: the host's
    # CPUs slow down independently of each other, so a calibration only
    # speaks for the work that follows it on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = argv[1]
    manifest = _load(workdir)
    if mode == "time":
        res = mode_time(manifest, float(argv[2]))
    elif mode == "peak":
        res = mode_peak(manifest, workdir)
    elif mode == "once":
        res = mode_once(manifest)
    elif mode == "trace":
        res = mode_trace(manifest, workdir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(os.path.join(workdir, f"{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
