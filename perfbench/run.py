"""congrulab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload projection --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a worker process of its own (``worker.py``), with the
library at its defaults (``CONGRULAB_THREADS`` removed from the worker's
environment).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Every other measured number is printed above it as a
``metric`` line.  A traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("projection", "section", "smooth", "polylab")
# past --seconds, a worker still sets up, finishes its last operation and
# reports; a worker that takes this much longer is stopped
GRACE_SECONDS = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args, workload: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        out = ROOT / "perfbench" / "out" / f"spans-{workload}-seed{args.seed}.npz"
        cmd += ["--spans-out", str(out)]
    env = dict(os.environ)
    env.pop("CONGRULAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + GRACE_SECONDS)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    return json.loads(lines[-1])


def select(result: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names, with the units it declares."""
    out = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']} missing or not in {spec['unit']}")
        out[spec["name"]] = got
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="congrulab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: reduced grids, for checking the benchmark itself")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "congrulab" / "__init__.py").is_file():
        return fail(f"no congrulab sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_worker(args, name)
            selected = select(results[name], wanted)
            results[name]["selected"] = selected
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    env = next(iter(results.values()))["env"]
    print("env " + json.dumps(env))
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"metric {name} {key} = {m['value']:.6g} {m['unit']}")
        print(f"workload {name}: attempted {res['attempted']}, failed {res['failed']}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["selected"]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items()
                   for k, v in r["selected"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
