"""Smoke check of the benchmark itself, at reduced grids (about a minute).

    python3 perfbench/smoke.py

1. Runs every workload through ``run.py --scale smoke``, untraced and
   traced, and confirms that each metric BENCHMARK.json lists and each
   metric the benchmark promises per workload is printed with a unit, and
   that every operation passed its check.
2. Runs one projection verify with a deliberately wrong expected
   translation and confirms it is reported as a failure.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

E2E = ["setup_s", "wall_s", "op_s_p50", "failed_ratio", "peak_rss_mb"]
E2E_BY_WORKLOAD = {"projection": ["verify_s_p50"], "section": ["verify_s_p50"],
                   "smooth": ["verify_s_p50"], "polylab": ["rate_s", "symmetry_s"]}
LAYERS = [
    "sphere.evaluate_field.points", "sphere.evaluate_field.self_s",
    "sphere.gauss_grid.calls", "sphere.gauss_latitude_nodes.calls",
    "sphere.gauss_latitude_nodes.s",
    *[f"bodies.support.{shape}.{m}" for shape in ("polytope", "bump", "ellipsoid")
      for m in ("points", "s", "mpts_per_s")],
    "bodies.radial.polytope.points", "bodies.radial.polytope.s",
    "bodies.radial.polytope.mpts_per_s",
    "bodies.support_point.calls", "bodies.support_point.s",
    "bodies.find_diameters.calls", "bodies.find_diameters.s",
    "funk.even_parts_equal.calls", "funk.even_parts_equal.points", "funk.even_parts_equal.s",
    "funk.sample_on_sphere.calls", "funk.sample_on_sphere.points", "funk.sample_on_sphere.s",
    "registration.classify_direction.calls", "registration.classify_direction.s",
    "registration.classify_direction.accept_ratio",
    "registration.classify_direction.certify.s", "registration.classify_direction.decide.s",
    "registration.register_pole_rotation.calls", "registration.register_pole_rotation.s",
    "registration.register_pole_flip.calls", "registration.register_pole_flip.s",
    "registration.minimize_scalar.calls", "registration.minimize_scalar.nfev",
    "registration.minimize_scalar.s",
    "verifier.verify.self_s", "verifier.decide_functional_equation.s",
    "verifier.decide_functional_equation.self_s",
    "polylab.inscribe_polytope.s",
    "polylab.hausdorff_distance.calls", "polylab.hausdorff_distance.s",
    "polylab.project_polytope.calls", "polylab.project_polytope.s",
    "polylab.detect_rigid_symmetries.calls", "polylab.detect_rigid_symmetries.s",
    "polylab.asymmetry_margin.calls", "polylab.asymmetry_margin.s",
    "polylab.perturb_to_asymmetric.rounds",
    "trace.overhead_s",
]
# modules whose self time a traced run of each workload must report
SELF_MODULES = {"projection": ("sphere", "bodies", "funk", "registration", "verifier"),
                "polylab": ("bodies", "polylab")}
SELF_MODULES["section"] = SELF_MODULES["smooth"] = SELF_MODULES["projection"]
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) = (\S+) (\S+)$")


def run_benchmark(workload: str, trace: int) -> list:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"run.py exited with code {proc.returncode}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(2)] = m.group(4)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for entry in listed:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            problems.append(f"result line lacks {entry['name']} [{entry['unit']}]")
    promised = LAYERS if trace else E2E + E2E_BY_WORKLOAD[workload]
    problems += [f"no metric line for {name}" for name in promised
                 if not printed.get(name)]
    if trace:
        for module in SELF_MODULES[workload]:
            if not any(k.startswith(module + ".") and k.endswith(".self_s") for k in printed):
                problems.append(f"no self time for the {module} layer")
    return problems


def wrong_translation_is_a_failure() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker
    import workloads

    op = workloads.setup_projection(3, workloads.SCALES["smoke"])[0]
    rec = worker.Recorder([op])
    rec.run(op)
    if rec.failures:
        return [f"the unmodified operation failed: {rec.failures}"]
    op.expected["translation"] = op.expected["translation"] + 1e-3
    rec.run(op)
    if len(rec.failures) != 1 or "translation" not in rec.failures[0]:
        return ["a wrong expected translation was not reported as a failure"]
    return []


def main() -> int:
    problems = []
    for workload in E2E_BY_WORKLOAD:
        for trace in (0, 1):
            found = run_benchmark(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else found}")
            problems += found
    found = wrong_translation_is_a_failure()
    print(f"wrong expected translation: {'reported as a failure' if not found else found}")
    problems += found
    print("smoke check", "passed" if not problems else f"FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
