"""Benchmark of the varexp package: one closed-loop client, one workload per run.

Usage, from the repository root::

    python3 bench/run.py --workload critical-square --seed 1 --seconds 36 --trace 0

The client runs one iteration of the workload at a time (closed loop)
and starts the next only when the previous one has finished.  It starts
no threads of its own; OpenBLAS, inside numpy, uses its default pool.

``--trace 0`` prints the end-to-end metrics: the median wall time of an
iteration, the set-up time (median of several fresh processes that
import the package and build the workload's inputs), and the peak
resident memory.  ``--trace 1`` patches spans around each module's entry
points (see ``tracing.py``) and prints the per-layer metrics of the
first iteration; later iterations alternate untraced and traced on the
same inputs, which gives the tracing overhead and checks that tracing
changes no output bit.

Every output is checked against the tolerance the tier-1 tests pin for
the same quantity.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it show every metric with its unit, the environment, and every
checked value at 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_ITERS = 3


def load_program():
    """Import varexp from this checkout's ``src``, and nowhere else."""
    if not (SRC / "varexp" / "__init__.py").is_file():
        raise SystemExit(f"error: no varexp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import varexp
    if Path(varexp.__file__).resolve().parent != (SRC / "varexp").resolve():
        raise SystemExit(f"error: varexp imported from {varexp.__file__}, not {SRC}")


@dataclass
class RunResult:
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    cpu_per_wall: float = 0.0
    span_count: int = 0
    not_traced: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _check_iteration(outputs, result: RunResult, first: dict | None) -> dict:
    """Check one iteration's outputs; returns the values it recorded."""
    from workloads import CheckFailed
    values = {}
    for op, out, err in outputs:
        result.attempted += 1
        if err is not None:
            result.failures.append(f"{op.name}: raised {type(err).__name__}: {err}")
            continue
        try:
            got = op.check(out)
        except CheckFailed as e:
            result.failures.append(f"{op.name}: {e}")
            continue
        except (KeyError, TypeError, ValueError) as e:
            result.failures.append(f"{op.name}: malformed output: {e!r}")
            continue
        got = {f"{op.name}.{k}": float(v) for k, v in got.items()}
        # same inputs every iteration: a differing bit means tracing, or
        # state left over from an earlier call, changed the computation
        if first is not None and any(first.get(k) != v for k, v in got.items()):
            result.failures.append(f"{op.name}: output differs from the first iteration")
        values.update(got)
    return values


def measure(ops, seconds: float, trace: bool, out_root: Path,
            min_iters: int = MIN_ITERS) -> RunResult:
    """Closed loop over iterations of a workload's ``ops`` for about ``seconds``.

    A new iteration starts only if the median iteration so far still
    fits in the time left, and at least ``min_iters`` run.  With
    ``trace``, iterations 0, 2, 4, ... are traced and 1, 3, 5, ... are
    not; the layer metrics come from iteration 0.
    """
    result = RunResult()
    tracer = tracing.Tracer()
    undo = None
    if trace:
        undo, result.not_traced = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        first = None
        k = 0
        while True:
            all_walls = result.walls + result.traced_walls
            elapsed = time.perf_counter() - t0
            if k >= min_iters and elapsed + statistics.median(all_walls) > seconds:
                break
            traced = trace and k % 2 == 0
            tracer.clear()
            tracer.enabled = traced
            outputs = []
            t_it = time.perf_counter()
            for op in ops:
                try:
                    outputs.append((op, op.run(), None))
                except Exception as e:  # a failed operation is counted, not fatal
                    outputs.append((op, None, e))
            wall = time.perf_counter() - t_it
            tracer.enabled = False
            (result.traced_walls if traced else result.walls).append(wall)
            if traced and k == 0:
                result.layers = tracing.layer_metrics(tracer.spans)
                result.span_count = len(tracer.spans)
            values = _check_iteration(outputs, result, first)
            if first is None:
                first = values
                result.values = values
            shutil.rmtree(out_root, ignore_errors=True)
            k += 1
        result.cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - t0)
    finally:
        if undo is not None:
            undo()
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass   # not empty: another run's outputs
    return result


def setup_times(name: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from process start until the workload's inputs are built,
    in ``probes`` fresh processes run one after another."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return times


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads,
            "src_lines": src_lines}


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_root = ROOT / ".bench_out" / str(os.getpid())
    ops = workloads.prepare(args.workload, args.seed, out_root)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup = time.perf_counter() - T_START

    setups = [] if args.trace else setup_times(args.workload, args.seed)
    res = measure(ops, args.seconds, bool(args.trace), out_root)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("values " + json.dumps({k: f"{v:.17g}" for k, v in res.values.items()}))
    for msg in res.failures:
        print(f"FAILED {msg}")
    fail_frac = res.failed / res.attempted
    if args.trace:
        if res.not_traced:
            print("not traced (absent from the package): "
                  + ", ".join(res.not_traced))
        overhead = (statistics.median(res.traced_walls[1:])
                    - statistics.median(res.walls)) if len(res.traced_walls) > 1 else 0.0
        metrics = {name: (float(v), _unit(name)) for name, v in res.layers.items()}
        metrics["proc.cpu_per_wall"] = (res.cpu_per_wall, "ratio")
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"  traced iterations {len(res.traced_walls)}, untraced "
              f"{len(res.walls)}, spans in iteration 0: {res.span_count}")
    else:
        metrics = {"wall_s": (statistics.median(res.walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        print(f"  wall_s samples {len(res.walls)}: "
              + " ".join(f"{w:.4f}" for w in res.walls))
        print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups)
              + f"  (this process: {own_setup:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {fail_frac:14.6g} ratio "
          f"({res.failed} of {res.attempted} operations)")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", "count", ".iters")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    load_program()
    sys.exit(main())
