"""clbf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-robust --seed 1 --seconds 60 --trace 0

Run from the repository root; clbf is imported from ./src. The run sets up
the workload, runs one untimed warm-up operation, then repeats the operation
until --seconds from the start of the warm-up have passed (stopping before
an operation that would end past them), checking every result from outside.
Every operation of a run must give the same deterministic outputs as the
warm-up. The workload is set up SETUPS_PER_OP times after every operation,
and each operation runs on the latest set-up, so set-up samples span the run
like operation samples do; setup_s is their median.

--trace 0 reports the end-to-end metrics: setup_s, op_s (median wall time of
one operation: a decrease check to its verdict on verify-*, TRAIN_STEPS
training steps on train-pgd) and peak_rss_mb. The workload's own figures
(verdict_s and unknown_volume_frac, or train_steps_per_s) are printed above
the result line.

--trace 1 alternates untraced operations with operations run under the layer
tracer, and reports the per-layer metrics: per-operation medians of span
counts, rows and self times, the verifier's own counts, and the tracing
overhead (traced over untraced median, minus 1; alternating keeps both
halves under the same machine load). Spans are written to .perfbench_runs/
when the run ends.

Timings are taken with BLAS on one thread and with glibc's malloc mmap and
trim thresholds pinned (MALLOC_OPTIONS), so a change to clbf's allocation
churn does not show on op_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation or set-up that raises or fails
a check counts as a failed operation and ends the run; the result line is
still printed, with correct false, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
# One BLAS thread: the products here are at most 4096 x 128, where a second
# thread saved nothing measurable on a 2-core machine, and one thread keeps
# timings steady when the machine is shared.
BLAS_THREADS = 1
MIN_OPS = 3
# Set-up takes about 10 ms and its speed swings twofold within seconds on a
# shared machine, so a run samples it more often than the operation.
SETUPS_PER_OP = 5
# glibc malloc options (mallopt) and values: fixed mmap and trim thresholds.
# By default glibc returns the heap top to the kernel whenever enough is
# free, and a train-pgd operation then spends about a third of its time in
# some 240k page faults; unrelated heap history (a few long-lived objects)
# turns that off and halves the time. Fixed thresholds keep freed memory
# mapped, so operation times measure clbf and not that heuristic.
MALLOC_OPTIONS = {-3: 64 << 20,    # M_MMAP_THRESHOLD
                  -1: 1 << 30}     # M_TRIM_THRESHOLD


def pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def pin_malloc() -> str:
    """Apply MALLOC_OPTIONS where the C library is glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    ok = all(mallopt(option, value) == 1 for option, value in MALLOC_OPTIONS.items())
    return "pinned thresholds" if ok else "default (mallopt refused)"


def _blas_threads(np) -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_environment(np, args, pair_seed: int, malloc: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "malloc": malloc,
            "workload": args.workload, "seed": args.seed, "pair_seed": pair_seed,
            "seconds": args.seconds, "trace": args.trace}


class Runner:
    """Sets up one workload and repeats its operation, checking and timing each."""

    def __init__(self, workloads, workload: str, seed: int):
        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.state = None
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.last = None

    def setup(self) -> bool:
        """Set the workload up again; a raising set-up is a failed operation."""
        t0 = time.perf_counter()
        try:
            self.state = self.w.setup(self.workload, self.seed)
        except Exception as exc:
            self._fail([f"set-up: {type(exc).__name__}: {exc}"], attempt=True)
            return False
        self.setup_times.append(time.perf_counter() - t0)
        return True

    def _fail(self, problems: list[str], attempt: bool = False):
        self.attempted += attempt
        self.failed += 1
        self.problems.extend(f"op {self.attempted}: {p}" for p in problems)

    def one(self, call):
        """One checked operation, timed by call(run_op, state); returns its
        seconds, or None if it raised or failed a check."""
        self.attempted += 1
        try:
            result, seconds = call(self.w.run_op, self.state)
            problems = self.w.check(self.state, result)
            outs = self.w.outputs(result)
        except Exception as exc:  # a raising operation is a failed one
            self._fail([f"{type(exc).__name__}: {exc}"])
            return None
        if self.reference is None:
            self.reference = outs
        elif outs != self.reference:
            problems.append(f"outputs {outs} differ from the first operation's {self.reference}")
        if problems:
            self._fail(problems)
            return None
        self.last = result
        return seconds

    def repeat(self, calls, deadline: float) -> list[list[float]]:
        """Operations timed by each of calls in turn, while the next one is
        expected to end by deadline (a perf_counter time) and until each call
        has run MIN_OPS times; their seconds per call."""
        times = [[] for _ in calls]
        i, last = 0, 0.0
        while len(times[-1]) < MIN_OPS or time.perf_counter() + last < deadline:
            t0 = time.perf_counter()
            t = self.one(calls[i % len(calls)])
            if t is None:
                break  # the program is at fault; repeating it adds nothing
            times[i % len(calls)].append(t)
            i += 1
            if not all(self.setup() for _ in range(SETUPS_PER_OP)):
                break
            last = time.perf_counter() - t0
        return times


def _timed(fn, state):
    t0 = time.perf_counter()
    result = fn(state)
    return result, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_blas()
    malloc = pin_malloc()
    if not (ROOT / "src" / "clbf" / "__init__.py").is_file():
        print(f"perfbench: no clbf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import synth
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    pair_seed = json.loads(synth.PAIR_PATH.read_text())["seed"]
    env = run_environment(np, args, pair_seed, malloc)

    runner = Runner(workloads, args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    def traced_op(fn, state):
        tracer.install()
        try:
            return tracer.run_op(fn, state)
        finally:
            tracer.uninstall()

    times, traced, warmup_s = [], [], None
    deadline = time.perf_counter() + args.seconds
    if runner.setup():
        warmup_s = runner.one(_timed)
    if warmup_s is not None:
        times, *rest = runner.repeat([_timed, traced_op] if tracer else [_timed],
                                     deadline)
        traced = rest[0] if rest else []

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for p in runner.problems:
        print("FAILED " + p)
    outs, metrics = None, {}
    if times and (tracer is None or traced):
        outs = workloads.outputs(runner.last)
        print("outputs: " + json.dumps(outs))
        metrics = _metrics(runner, tracer, outs, times, traced, warmup_s)
    else:
        print("perfbench: no operation completed", file=sys.stderr)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "outputs": outs, "op_times_s": times,
         "setup_times_s": runner.setup_times, "problems": runner.problems,
         "missing_layers": tracer.missing if tracer else [], "result": result}, indent=1))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _metrics(runner: Runner, tracer, outs: dict, times, traced, warmup_s) -> dict:
    """Print the workload's own figures; return the run's metrics as
    name -> (value, unit)."""
    op_s = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (op_s,) * 3
    print(f"op_s median {op_s:.6f} s over {len(times)} operations "
          f"(quartiles {q1:.6f}, {q3:.6f}); warm-up {warmup_s:.6f} s")
    if "unknown_volume_frac" in outs:
        print(f"verdict_s {op_s:.6f} s")
        print(f"unknown_volume_frac {outs['unknown_volume_frac']:.6f} fraction")
    else:
        print(f"train_steps_per_s {runner.state.steps / op_s:.4f} 1/s")

    if tracer is None:
        metrics = {"setup_s": (statistics.median(runner.setup_times), "s"),
                   "op_s": (op_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    else:
        metrics = tracer.layer_metrics()
        metrics.update(_verifier_metrics(outs, op_s, metrics))
        metrics["trace_overhead_frac"] = (statistics.median(traced) / op_s - 1.0, "fraction")
        if tracer.missing:
            print("missing layers (reported as 0): " + ", ".join(tracer.missing))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics


def _verifier_metrics(outs: dict, op_s: float, layers: dict) -> dict:
    """Counts from the Verdict; zero on train-pgd, which runs no check."""
    if "boxes_processed" not in outs:
        outs = {"boxes_processed": 0, "witnesses": 0, "unknown_boxes": 0,
                "unknown_volume_frac": 0.0}
    pgd_s = layers["adversary.pgd_maximize_batch.total_s"][0]
    return {
        "verifier.boxes_processed": (outs["boxes_processed"], "count"),
        "verifier.boxes_per_s": (outs["boxes_processed"] / op_s, "1/s"),
        "verifier.witnesses": (outs["witnesses"], "count"),
        "verifier.unknown_boxes": (outs["unknown_boxes"], "count"),
        "verifier.unknown_volume_frac": (outs["unknown_volume_frac"], "fraction"),
        "verifier.ce_per_adversary_s": (outs["witnesses"] / pgd_s if pgd_s > 0 else 0.0, "1/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
