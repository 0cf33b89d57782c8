"""The clawcolor benchmark: one workload per run, or all four.

    python3 bench/run.py --workload built-sweep --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere; it uses the package under src/ next to this
directory and fails (exit 2, no result) when that is missing.  It prints
one line per metric with its unit, a line recording the machine, and as
its last line one JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("built-sweep", "bridged-sweep", "cli-batch", "solve-exact")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the worker and any CLI process it started, and wait for them."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _worker(mode: str, workdir: str, deadline: float, *extra: str) -> dict:
    """Run worker.py in its own process group; kill the group at `deadline`."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workdir, *extra]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError(f"worker {mode} did not finish within the run's time limit") from None
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{stderr[-4000:]}")
    with open(os.path.join(workdir, f"{mode}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _setup(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """Median seconds of SETUP_REPEATS full input generations and writes.

    Returns (normalized, raw): each repeat follows a calibration and is
    divided by its slowdown, as the timed passes are (see calibrate.py).
    """
    from calibrate import slowdown
    from workloads import make_inputs

    slowdown()
    normalized, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = slowdown()
        started = time.perf_counter()
        make_inputs(workload, seed, workdir)
        raw.append(time.perf_counter() - started)
        normalized.append(raw[-1] / factor)
    return median(normalized), median(raw)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
    try:
        setup_s, raw_setup_s = _setup(workload, seed, workdir)
        notes = {"raw_setup_s": raw_setup_s}
        if trace:
            base = _worker("once", workdir, deadline)
            traced = _worker("trace", workdir, deadline)
            results = [base, traced]
            metrics = {}
            for name, value in traced["layers"].items():
                unit = "count" if name.endswith(".calls") else "ratio" if name.startswith("ratio.") else "s"
                metrics[name] = _metric(value, unit)
            metrics["trace.overhead_ratio"] = _metric(traced["wall_s"] / base["wall_s"], "ratio")
        else:
            timed = _worker("time", workdir, deadline, str(seconds))
            peak = _worker("peak", workdir, deadline)
            results = [timed, peak]
            notes.update(raw_wall_s=timed["raw_wall_s"], slowdown=timed["slowdown"],
                         passes=timed["passes"])
            metrics = {
                "wall_s": _metric(timed["wall_s"], "s"),
                "peak_mib": _metric(peak["peak_mib"], "MiB"),
                "setup_s": _metric(setup_s, "s"),
                "size_exp": _metric(timed["size_exp"], "exponent"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
        "failures": failures,
        "notes": notes,
    }


def _report(workload: str, seed: int, result: dict) -> None:
    env = {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print(f"# {json.dumps(env)}")
    print(f"# not normalized: {json.dumps(result['notes'])}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"{workload} failed_ratio {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clawcolor", "__init__.py")):
        print(f"error: no clawcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import clawcolor

    if not os.path.abspath(clawcolor.__file__).startswith(SRC + os.sep):
        print(f"error: imported clawcolor from {clawcolor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = None
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        _report(workload, args.seed, result)
        del result["failures"], result["notes"]
        if len(workloads) > 1:
            print(json.dumps({workload: result}))
    if len(workloads) == 1:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
