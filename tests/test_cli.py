import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrulab.bodies import ball, body_to_spec, cube, ellipsoid
from congrulab.cli import canonicalize_spec, main
from congrulab.orthogonal import pole_reflection
from congrulab.sphere import unit

from helpers import planted_polytope

POLE = np.array([0.0, 0.0, 0.0, 1.0])


def write_body(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body_to_spec(body)))
    return str(path)


def small_verify_args():
    return ["--tol", "1e-6", "--grid-t", "24", "--grid-az", "128",
            "--w-samples", "24", "--seed", "0"]


# -- gen-body -----------------------------------------------------------------


def test_gen_body_roundtrip_byte_identical(tmp_path, capsys):
    src = write_body(tmp_path, "e.json", ellipsoid([1.5, 1.2, 1.0, 0.8]))
    out1 = str(tmp_path / "canon.json")
    assert main(["gen-body", src, "--out", out1]) == 0
    canon = Path(out1).read_text()
    assert main(["gen-body", out1]) == 0
    assert capsys.readouterr().out == canon


def test_gen_body_folds_transform_chain(tmp_path):
    K = planted_polytope(1, unit(np.array([0.1, 0.2, -0.3, 0.9])))
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    from congrulab.orthogonal import Orthogonal4
    chained = K.apply(Orthogonal4(q), [0.1, 0, 0, 0]).apply(
        Orthogonal4(q.T), [0, 0.2, 0, 0])
    spec = body_to_spec(K)
    spec["transforms"] = [{"rot": q.reshape(-1).tolist()}, {"shift": [0.1, 0, 0, 0]},
                          {"rot": q.T.reshape(-1).tolist()}, {"shift": [0, 0.2, 0, 0]}]
    src = tmp_path / "c.json"
    src.write_text(json.dumps(spec))
    out = str(tmp_path / "canon.json")
    assert main(["gen-body", str(src), "--out", out]) == 0
    spec = json.loads(Path(out).read_text())
    assert len(spec["transforms"]) <= 2   # one rot + one shift at most
    from congrulab.bodies import body_from_spec
    from congrulab.sphere import random_directions
    thetas = random_directions(50, rng)
    assert np.max(np.abs(body_from_spec(spec).support(thetas)
                         - chained.support(thetas))) < 1e-10


def test_gen_body_dedupes_vertices(tmp_path, capsys):
    K = cube()
    spec = body_to_spec(K)
    spec["shape"]["vertices"] += [spec["shape"]["vertices"][0]]
    src = tmp_path / "dup.json"
    src.write_text(json.dumps(spec))
    out = str(tmp_path / "out.json")
    assert main(["gen-body", str(src), "--out", out]) == 0
    err = capsys.readouterr().err
    assert "duplicate" in err
    assert len(json.loads(Path(out).read_text())["shape"]["vertices"]) == 16


def _random_spec(kind: str, seed: int, chain: list) -> dict:
    """A body spec of the given shape type with a rot/shift transform chain."""
    rng = np.random.default_rng(seed)

    def rotation():
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        return q.reshape(-1).tolist()

    if kind == "polytope":
        shape = {"type": "polytope", "vertices": rng.standard_normal((9, 4)).tolist()}
    else:
        shape = {"type": "ellipsoid", "semiaxes": rng.uniform(0.9, 1.2, 4).tolist(),
                 "orientation": rotation()}
        if kind == "zonal_bump":
            # axes are deliberately not unit vectors
            terms = [{"axis": rng.standard_normal(4).tolist(), "degree": degree,
                      "coeff": float(rng.uniform(-1.0, 1.0))} for degree in (3, 4)]
            shape = {"type": "zonal_bump", "base": shape, "epsilon": 0.005,
                     "terms": terms}
    transforms = [{"rot": rotation()} if op == "rot"
                  else {"shift": rng.uniform(-1.0, 1.0, 4).tolist()} for op in chain]
    return {"kind": "convex", "shape": shape, "transforms": transforms}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(kind=st.sampled_from(["polytope", "ellipsoid", "zonal_bump"]),
       seed=st.integers(0, 2**32 - 1),
       chain=st.lists(st.sampled_from(["rot", "shift"]), max_size=4))
def test_gen_body_idempotent_on_random_specs(kind, seed, chain):
    canonical, _ = canonicalize_spec(_random_spec(kind, seed, chain))
    again, warnings = canonicalize_spec(json.loads(json.dumps(canonical)))
    assert warnings == []
    assert json.dumps(again, sort_keys=True) == json.dumps(canonical, sort_keys=True)


def test_gen_body_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["gen-body", str(bad)])
    assert rc == 1
    assert "SpecParseError" in capsys.readouterr().err


# -- verify ---------------------------------------------------------------------


def test_verify_planted_translation(tmp_path, capsys):
    K = planted_polytope(5, POLE)
    b = np.array([0.2, -0.1, 0.15, 0.1])
    pk = write_body(tmp_path, "K.json", K)
    pl = write_body(tmp_path, "L.json", K.translate(b))
    out = str(tmp_path / "v.json")
    rc = main(["verify", "projections", pk, pl, "--zeta", "0,0,0,1",
               "--out", out, *small_verify_args()])
    assert rc == 0
    verdict = json.loads(Path(out).read_text())
    assert verdict["outcome"] == "equal"
    assert np.linalg.norm(np.array(verdict["translation"]) - b) < 1e-6


def test_verify_planted_reflection(tmp_path):
    K = planted_polytope(6, POLE)
    b = np.array([0.1, 0.1, -0.2, 0.05])
    L = K.apply(pole_reflection(POLE), b)
    pk = write_body(tmp_path, "K.json", K)
    pl = write_body(tmp_path, "L.json", L)
    out = str(tmp_path / "v.json")
    rc = main(["verify", "projections", pk, pl, "--zeta", "0,0,0,1",
               "--out", out, *small_verify_args()])
    assert rc == 0
    verdict = json.loads(Path(out).read_text())
    assert verdict["outcome"] == "reflected"
    assert np.linalg.norm(np.array(verdict["translation"]) - b) < 1e-6


def test_verify_hypothesis_failure_exit_code(tmp_path, capsys):
    pk = write_body(tmp_path, "ball.json", ball())
    pl = write_body(tmp_path, "cube.json", cube())
    rc = main(["verify", "projections", pk, pl, "--zeta", "0,0,0,1",
               *small_verify_args()])
    assert rc == 3
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] in (
        "DegenerateBodyError", "DiameterHypothesisFailed")


def test_verify_sections_planted(tmp_path):
    K = planted_polytope(7, POLE, through_origin=True, kind="star")
    L = K.translate(-0.08 * POLE)
    pk = write_body(tmp_path, "K.json", K)
    pl = write_body(tmp_path, "L.json", L)
    out = str(tmp_path / "v.json")
    rc = main(["verify", "sections", pk, pl, "--zeta", "0,0,0,1",
               "--out", out, *small_verify_args()])
    assert rc == 0
    verdict = json.loads(Path(out).read_text())
    assert verdict["outcome"] == "equal"
    t = np.array(verdict["translation"])
    assert np.linalg.norm(t - (-0.08) * POLE) < 1e-6


def test_verify_json_matches_schema(tmp_path):
    import congrulab
    import jsonschema
    import os
    K = planted_polytope(8, POLE)
    pk = write_body(tmp_path, "K.json", K)
    out = str(tmp_path / "v.json")
    assert main(["verify", "projections", pk, pk, "--zeta", "0,0,0,1",
                 "--out", out, *small_verify_args()]) == 0
    schema_path = os.path.join(os.path.dirname(congrulab.__file__),
                               "schema", "verdict.schema.json")
    jsonschema.validate(json.loads(Path(out).read_text()),
                        json.loads(Path(schema_path).read_text()))


def test_verify_csv_format(tmp_path):
    K = planted_polytope(9, POLE)
    pk = write_body(tmp_path, "K.json", K)
    out = str(tmp_path / "v.csv")
    assert main(["verify", "projections", pk, pk, "--zeta", "0,0,0,1",
                 "--format", "csv", "--out", out, *small_verify_args()]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0].startswith("w1,w2,w3,w4,label")
    assert len(lines) == 1 + 24


def test_verify_tol_out_of_range_is_config_error(tmp_path, capsys):
    pk = write_body(tmp_path, "K.json", planted_polytope(11, POLE))
    rc = main(["verify", "projections", pk, pk, "--zeta", "0,0,0,1", "--tol", "inf"])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(last)["error"] == "ConfigInvalidError"


# -- symmetry ----------------------------------------------------------------------


def test_symmetry_cube_coordinate_subspace(tmp_path):
    pk = write_body(tmp_path, "cube.json", cube())
    out = str(tmp_path / "s.json")
    rc = main(["symmetry", pk, "--subspace", "1,0,0,0;0,1,0,0;0,0,1,0",
               "--out", out])
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    assert len(rep["subspaces"][0]["symmetries"]) == 47


def test_symmetry_perturbed_polytope_clean(tmp_path):
    from congrulab.polylab import perturb_to_asymmetric, random_subspace_bases
    P, _ = perturb_to_asymmetric(cube(), random_subspace_bases(6, seed=2),
                                 tol=1e-8, seed=1)
    pk = write_body(tmp_path, "p.json", P)
    out = str(tmp_path / "s.json")
    rc = main(["symmetry", pk, "--sample", "6", "--seed", "2", "--out", out])
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    assert rep["summary"] == "asymmetric on 6/6 sampled subspaces"


def test_symmetry_sample_zero_usage_error(tmp_path, capsys):
    pk = write_body(tmp_path, "cube.json", cube())
    rc = main(["symmetry", pk, "--sample", "0"])
    assert rc != 0


# -- rate --------------------------------------------------------------------------


def test_rate_csv_deterministic(tmp_path, capsys):
    pk = write_body(tmp_path, "ball.json", ball())
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main(["rate", pk, "--v-list", "20,40,80", "--seed", "4",
                 "--out", out1]) == 0
    assert main(["rate", pk, "--v-list", "20,40,80", "--seed", "4",
                 "--out", out2]) == 0
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "v,delta"
    assert len(lines) == 4


@pytest.mark.parametrize("v_list", ["40", "40,40"])
def test_rate_single_v_insufficient(tmp_path, capsys, v_list):
    pk = write_body(tmp_path, "ball.json", ball())
    rc = main(["rate", pk, "--v-list", v_list])
    assert rc == 1
    assert "InsufficientData" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "projections", "{body}", "{body}", "--zeta", "a,b,c,d"],
    ["verify", "projections", "{body}", "{body}", "--zeta", "0,0,0,0"],
    ["rate", "{body}", "--v-list", "40,abc"],
    ["rate", "{body}", "--v-list", "3,4"],
    ["symmetry", "{body}", "--subspace", "1,0,0,0;1,0,0,0;0,0,1,0"],
], ids=["zeta-text", "zeta-zero", "v-list-text", "v-list-small", "subspace-rank"])
def test_bad_cli_input_is_spec_parse_error(tmp_path, capsys, argv):
    body = write_body(tmp_path, "cube.json", cube())
    rc = main([a.format(body=body) for a in argv])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(last)["error"] == "SpecParseError"


def test_verify_deterministic_given_seed(tmp_path):
    K = planted_polytope(10, POLE)
    pk = write_body(tmp_path, "K.json", K)
    pl = write_body(tmp_path, "L.json", K.translate([0.1, -0.05, 0.2, 0.0]))
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["verify", "projections", pk, pl, "--zeta", "0,0,0,1",
                     "--out", out, *small_verify_args()]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]
