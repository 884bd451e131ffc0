"""Run one workload in this process and print its metrics.

Started by ``run.py`` in a process of its own, so that the peak resident
memory it reports belongs to this workload alone.  Prints the operations
that failed and, as its last line, one JSON object with the environment and
every metric it measured; ``run.py`` prints them and selects the ones
BENCHMARK.json names.

Closed loop, one caller: each operation starts after the previous one
returns.  Operations cycle in list order until ``--seconds`` have passed and
every operation has run at least once.  With ``--trace 1`` untraced and
traced passes over the list alternate instead, so the run can also report
the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

_T_START = perf_counter()

import numpy as np                      # noqa: E402  (timed as set-up)
import scipy                            # noqa: E402

import congrulab                        # noqa: E402,F401

import tracer as tr                     # noqa: E402
import workloads as wl                  # noqa: E402

IMPORT_S = perf_counter() - _T_START
SETUP_REPS = 3
TAIL_PERCENTILES = (75, 90, 95, 99)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    """(library name, thread count) of the BLAS numpy loaded."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(root: Path) -> dict:
    blas, blas_threads = blas_info()
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "nproc": len(os.sched_getaffinity(0)),
            "CONGRULAB_THREADS": os.environ.get("CONGRULAB_THREADS", "unset"),
            "loop": "closed, 1 caller"}


def run_op(op, tracer=None):
    """(seconds, failure reason or None) for one operation."""
    inputs = op.load()
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.call(*inputs)
        else:
            tracer.enabled = True
            try:
                out = tracer.call("op." + op.kind, op.call, *inputs)
            finally:
                tracer.enabled = False
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    try:
        return seconds, op.check(out)
    except Exception as exc:
        return seconds, f"check raised {type(exc).__name__}: {exc}"


class Recorder:
    def __init__(self, ops):
        self.times = {op.name: [] for op in ops}
        self.failures = []
        self.attempted = 0

    def run(self, op, tracer=None) -> float:
        seconds, reason = run_op(op, tracer)
        self.times[op.name].append(seconds)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")
        return seconds


def measure(ops, seconds: float) -> Recorder:
    rec = Recorder(ops)
    deadline = perf_counter() + seconds
    n = 0
    while True:
        rec.run(ops[n % len(ops)])
        n += 1
        if n >= len(ops) and perf_counter() >= deadline:
            return rec


def measure_traced(ops, seconds: float):
    """Alternate untraced and traced passes over the operation list.

    Returns the recorder, the seconds of each untraced (False) and traced
    (True) pass, the layer metrics of each traced pass, and the tracer.
    """
    rec = Recorder(ops)
    tracer = tr.Tracer()
    walls = {False: [], True: []}
    per_pass = []
    deadline = perf_counter() + seconds
    traced = False
    while not (walls[True] and perf_counter() >= deadline):
        if traced:
            tracer.install()
            lo = len(tracer)
            try:
                walls[True].append(sum(rec.run(op, tracer) for op in ops))
            finally:
                tracer.restore()
            per_pass.append(tr.layer_metrics(tracer, lo, len(tracer)))
        else:
            walls[False].append(sum(rec.run(op) for op in ops))
        traced = not traced
    return rec, walls, per_pass, tracer


def median_of(rec, ops, pred):
    vals = [t for op in ops if pred(op) for t in rec.times[op.name]]
    return statistics.median(vals), vals


def tail(vals):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(vals)
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    return best, float(np.percentile(vals, best))


def end_to_end(rec, ops, workload, setup_s) -> dict:
    per_op = {op.name: statistics.median(rec.times[op.name]) for op in ops}
    # per-operation medians, averaged: fixtures of different cost would make
    # the median of the pooled calls jump between them
    head = statistics.fmean(per_op[op.name] for op in ops
                            if op.name.startswith(workload.headline))
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op.values()), "s"),
        "op_s_p50": (head, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (len(rec.failures) / rec.attempted, "ratio"),
    }
    kinds = {op.kind for op in ops}
    if "verify" in kinds:
        p50, vals = median_of(rec, ops, lambda op: op.kind == "verify")
        m["verify_s_p50"] = (p50, "s")
        m["verify_s.samples"] = (len(vals), "count")
        t = tail(vals)
        if t is not None:
            m[f"verify_s_p{t[0]}"] = (t[1], "s")
    if "rate" in kinds:
        m["rate_s"] = (median_of(rec, ops, lambda op: op.kind == "rate")[0], "s")
        m["symmetry_s"] = (sum(per_op[op.name] for op in ops
                               if op.kind in ("symmetry", "perturb")), "s")
    for name, v in per_op.items():
        m[f"op.{name}.s_p50"] = (v, "s")
        m[f"op.{name}.samples"] = (len(rec.times[name]), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    ap.add_argument("--spans-out", default=None,
                    help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    scale = wl.SCALES[args.scale]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ops = workload.setup(args.seed % 2**64, scale)   # numpy seeds are unsigned
        setup_times.append(perf_counter() - t0)
    setup_s = IMPORT_S + statistics.median(setup_times)

    metrics = {}
    if args.trace:
        rec, walls, per_pass, tracer = measure_traced(ops, args.seconds)
        metrics.update(tr.merge_passes(per_pass))
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]), "s")
        metrics["trace.passes"] = (len(per_pass), "count")
        metrics["trace.spans"] = (len(tracer), "count")
        if not tr.counts_match(per_pass):
            print("warning: traced passes disagree on counts", flush=True)
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans_out)
            print(f"spans written to {args.spans_out}")
        metrics["failed_ratio"] = (len(rec.failures) / rec.attempted, "ratio")
    else:
        rec = measure(ops, args.seconds)
        metrics.update(end_to_end(rec, ops, workload, setup_s))

    for reason in rec.failures[:10]:
        print(f"FAILED {reason}")
    print(json.dumps({"env": environment(Path(__file__).resolve().parent.parent),
                      "attempted": rec.attempted, "failed": len(rec.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
