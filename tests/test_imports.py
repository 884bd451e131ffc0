"""SciPy's spatial submodule loads only where it is used, its optimize
submodule never, and a section verify's traced peak stays small.

Each case runs in a fresh interpreter, since this test process has long
since imported both and warmed every cache.  The bodies cross as JSON
specs, so the child imports congrulab and nothing of the test helpers.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from congrulab.bodies import body_to_spec
from congrulab.orthogonal import pole_reflection

from helpers import SRC, planted_polytope

POLE = np.eye(4)[0]
SHIFT = [0.1, 0.2, -0.3, 0.05]
BUMP = {"kind": "convex", "shape": {
    "type": "zonal_bump", "base": {"type": "ellipsoid", "semiaxes": [1.0, 0.8, 0.7, 0.6]},
    "epsilon": 0.02, "terms": [
        {"axis": [0.3, 0.5, -0.2, 0.8], "degree": 3, "coeff": 0.8},
        {"axis": [-0.6, 0.1, 0.7, 0.3], "degree": 5, "coeff": -0.6},
        {"axis": [0.2, -0.7, 0.4, -0.5], "degree": 3, "coeff": 0.7}]}}

BARE = "import json, sys\n"
PRELUDE = BARE + """import numpy as np
from congrulab.bodies import body_from_spec
from congrulab.verifier import VerifyConfig, verify_projection_theorem, verify_section_theorem
CFG = VerifyConfig(n_t=16, n_azimuth=64, w_samples=8)
POLE = np.eye(4)[0]
"""
REPORT = """
print(json.dumps(sorted({"scipy.spatial", "scipy.optimize"} & set(sys.modules))))
"""


def _loaded(code: str, specs=None, prelude: str = PRELUDE):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", prelude + code + REPORT]
    if specs is not None:
        argv.append(json.dumps(specs))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def _specs(K, L):
    return {"K": body_to_spec(K), "L": body_to_spec(L)}


def test_import_loads_neither():
    assert _loaded("import congrulab, congrulab.cli", prelude=BARE) == set()


@pytest.mark.parametrize("reflect", [False, True], ids=["equal", "reflected"])
def test_projection_verifies_load_neither(reflect):
    K = planted_polytope(110, POLE)
    L = K.apply(pole_reflection(POLE), SHIFT) if reflect else K.translate(SHIFT)
    pairs = [dict(_specs(K, L), outcome="reflected" if reflect else "equal"),
             {"K": BUMP, "L": dict(BUMP, transforms=[{"shift": SHIFT}]), "outcome": "equal"}]
    code = f"""
for pair in json.loads(sys.argv[1]):
    K, L = (body_from_spec(pair[k]) for k in "KL")
    v = verify_projection_theorem(K, L, POLE, CFG)
    assert v.outcome == pair["outcome"]
    assert np.allclose(v.translation, {SHIFT}, rtol=0.0, atol=1e-9), v.translation
"""
    assert _loaded(code, pairs) == set()


def test_section_verify_loads_only_spatial():
    K = planted_polytope(125, POLE, through_origin=True, kind="star")
    L = K.apply(pole_reflection(POLE), 0.05 * POLE)
    code = """
K, L = (body_from_spec(json.loads(sys.argv[1])[k]) for k in "KL")
v = verify_section_theorem(K, L, POLE, CFG)
assert v.outcome == "reflected"
assert np.allclose(v.translation, 0.05 * POLE, rtol=0.0, atol=1e-9), v.translation
"""
    assert _loaded(code, _specs(K, L)) == {"scipy.spatial"}


def test_section_verify_peak_memory(tmp_path):
    # the star-polytope section above at the default 64 x 256 grid with 8
    # working spheres, through the entry point: its traced peak stays within
    # 3.5 MB, since no polytope-kernel product exceeds 2 MB.  scipy.spatial
    # is imported first, so the trace holds the verify and not that import.
    K = planted_polytope(125, POLE, through_origin=True, kind="star")
    paths = {"out": str(tmp_path / "verdict.json")}
    for name, body in zip("KL", (K, K.apply(pole_reflection(POLE), 0.05 * POLE))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body_to_spec(body)))
        paths[name] = str(path)
    code = """
import tracemalloc
import scipy.spatial
from congrulab.cli import main
d = json.loads(sys.argv[1])
tracemalloc.start()
rc = main(["verify", "sections", d["K"], d["L"], "--zeta", "1,0,0,0",
           "--w-samples", "8", "--out", d["out"]])
peak = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
assert rc == 0, rc
with open(d["out"]) as fh:
    assert json.load(fh)["outcome"] == "reflected"
assert peak <= 3.5, f"traced peak {peak:.2f} MB"
"""
    assert _loaded(code, paths, prelude=BARE) == {"scipy.spatial"}


def test_hausdorff_distance_of_smooth_bodies_loads_neither():
    code = """
from congrulab.bodies import ellipsoid
from congrulab.polylab import hausdorff_distance
print(hausdorff_distance(ellipsoid([1.0, 0.9, 0.8, 1.1]), ellipsoid([1.0, 0.9, 0.8, 1.0]), 256))
"""
    assert _loaded(code) == set()


def test_hausdorff_distance_of_a_polytope_loads_only_spatial():
    # its facet normals are candidates, read from the qhull facets
    code = """
from congrulab.bodies import cube, ellipsoid
from congrulab.polylab import hausdorff_distance
print(hausdorff_distance(ellipsoid([2.0, 1.9, 1.8, 2.1]), cube(), 256))
"""
    assert _loaded(code) == {"scipy.spatial"}


def test_rate_command_loads_only_spatial(tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps({"kind": "convex", "shape": {
        "type": "ellipsoid", "semiaxes": [1.0, 0.9, 0.8, 1.1]}}))
    code = """
from congrulab.cli import main
assert main(["rate", json.loads(sys.argv[1]), "--v-list", "20,40"]) == 0
"""
    assert _loaded(code, str(path), prelude=BARE) == {"scipy.spatial"}


def test_missing_qhull_is_an_import_error_not_a_degenerate_body():
    code = """
sys.modules["scipy.spatial"] = None
from congrulab.bodies import cube
from congrulab.errors import DegenerateBodyError
try:
    cube().shape.facets
except DegenerateBodyError:
    raise SystemExit("DegenerateBodyError")
except ImportError:
    pass
else:
    raise SystemExit("no error")
"""
    # the None entry stands for the missing module and counts as loaded
    assert _loaded(code, prelude=BARE) == {"scipy.spatial"}
