import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrulab.bodies import ball, body_to_spec, cube, ellipsoid
from congrulab.cli import _HYPOTHESIS_ERRORS, canonicalize_spec, classifications_to_csv, main
from congrulab.funk import sample_on_sphere
from congrulab.orthogonal import Orthogonal4, pole_reflection
from congrulab.registration import classify_direction
from congrulab.sphere import complement_basis, gauss_grid, make_frame, unit

from helpers import SRC, band_limited_field, narrow_cone_polytope, planted_polytope

POLE = np.array([0.0, 0.0, 0.0, 1.0])
E1 = np.eye(4)[0]


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
    # duplicates are equal within a fraction of the largest coordinate, so a
    # cube 2e-14 wide keeps its 16 distinct vertices too
    for half_width in (1.0, 1e-14):
        spec = body_to_spec(cube(half_width))
        spec["shape"]["vertices"] += [spec["shape"]["vertices"][0]]
        src = tmp_path / "dup.json"
        src.write_text(json.dumps(spec))
        out = str(tmp_path / "out.json")
        assert main(["gen-body", str(src), "--out", out]) == 0
        err = capsys.readouterr().err
        assert "dropped 1 duplicate" in err
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


@settings(max_examples=30)
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


def _bump_spec(base, epsilon, terms):
    return {"kind": "convex", "shape": {"type": "zonal_bump", "base": base,
                                        "epsilon": epsilon, "terms": terms}}


ROUND = {"type": "ellipsoid", "semiaxes": [1.0] * 4}


# a bump term's degree is at most 64; at epsilon 0.23 the boundary bump of
# test_bodies.py (BOUNDARY_BASE with BOUNDARY_TERMS) has a tangent Hessian
# with a negative eigenvalue
@pytest.mark.parametrize("spec, detail", [
    ({"kind": "convex", "shape": {"type": "blob"}}, ""),
    (_bump_spec(ROUND, float("nan"), []), ""),
    ([], ""),
    ({"kind": "convex", "shape": ROUND,
      "transforms": [{"shift": [0.0, 0.0, 0.0, float("nan")]}]}, ""),
    ({"kind": "convex", "shape": ROUND,
      "transforms": [{"shift": [float("inf"), 0.0, 0.0, 0.0]}]}, ""),
    (_bump_spec(ROUND, 0.01, [{"axis": [1.0, 0.0, 0.0, 0.0], "degree": 200, "coeff": 1.0}]),
     "degree must be an integer"),
    (_bump_spec(ROUND, 0.001, [{"axis": [1.0, 0.0, 0.0, 0.0], "degree": 65, "coeff": 1.0}]),
     "degree must be an integer"),
    (_bump_spec({"type": "ellipsoid", "semiaxes": [1.0, 0.8, 0.7, 0.6]}, 0.23, [
        {"axis": [0.3, -0.5, 0.2, 0.8], "degree": 4, "coeff": 1.0},
        {"axis": [-0.6, 0.1, 0.7, 0.2], "degree": 3, "coeff": -0.7}]), "breaks convexity"),
], ids=["unknown-type", "nan-epsilon", "not-an-object", "nan-shift", "inf-shift",
        "degree-200", "degree-65", "bump-concave"])
def test_gen_body_spec_that_builds_no_body(tmp_path, capsys, spec, detail):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    rc = main(["gen-body", str(bad)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpecParseError"
    assert detail in err["detail"]


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
    assert np.allclose(verdict["translation"], b, rtol=0.0, atol=1e-9)


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
    assert np.allclose(verdict["translation"], b, rtol=0.0, atol=1e-9)


def _star_ellipsoid(semiaxes, shift=(0.0, 0.0, 0.0, 0.0)):
    return ellipsoid(semiaxes, kind="star").translate(shift)


def _hypothesis_cases():
    """(mode, K, L, pole, error name): one failing verify per hypothesis error."""
    cone, cone_pole = narrow_cone_polytope(np.random.default_rng(1))
    star = planted_polytope(122, POLE, through_origin=True, kind="star")
    return [
        # a ball's width is constant, so it has no countable diameter set
        ("projections", ball(), cube(), POLE, "DegenerateBodyError"),
        # the narrow-cone polytope's pole is wider than its chords near the
        # diameter but 2e-4 short of the diameter itself
        ("projections", cone, cone.translate([0.1, 0.2, 0.0, -0.1]), cone_pole,
         "DiameterHypothesisFailed"),
        # congruent sections force equal diameter lengths
        ("sections", _star_ellipsoid([2.0, 1.0, 0.9, 0.8]),
         _star_ellipsoid([1.5, 1.0, 0.9, 0.8], [0.3, 0.0, 0.0, 0.0]), E1,
         "DiameterHypothesisFailed"),
        # a thinner third semiaxis leaves no congruent section
        ("sections", _star_ellipsoid([2.0, 1.0, 0.9, 0.8]),
         _star_ellipsoid([2.0, 1.0, 0.85, 0.8]), E1, "CongruenceHypothesisFailed"),
        # a shift as large as the origin's cross-polytope moves the origin out
        ("sections", star, star.translate(0.3 * 2.0 * complement_basis(POLE)[0]), POLE,
         "StarShapednessLost"),
    ]


def test_verify_hypothesis_failure_exit_code(tmp_path, capsys):
    cases = _hypothesis_cases()
    assert {c[-1] for c in cases} == {e.__name__ for e in _HYPOTHESIS_ERRORS}
    for mode, K, L, zeta, error in cases:
        pk, pl = write_body(tmp_path, "K.json", K), write_body(tmp_path, "L.json", L)
        rc = main(["verify", mode, pk, pl, "--zeta=" + ",".join(map(repr, zeta.tolist())),
                   "--grid-t", "16", "--grid-az", "64", "--w-samples", "8"])
        assert rc == 3, (mode, error)
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"] == error


def test_module_run_exits_with_main_code(tmp_path):
    # `python -m congrulab.cli` hands main's exit code and its stderr JSON on
    pk = write_body(tmp_path, "K.json", _star_ellipsoid([2.0, 1.0, 0.9, 0.8]))
    pl = write_body(tmp_path, "L.json", _star_ellipsoid([1.5, 1.0, 0.9, 0.8], [0.3, 0, 0, 0]))
    out = subprocess.run([sys.executable, "-m", "congrulab.cli", "verify", "sections", pk, pl,
                          "--zeta", "1,0,0,0", "--grid-t", "16", "--grid-az", "64",
                          "--w-samples", "8"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert json.loads(out.stderr.strip().splitlines()[-1])["error"] == "DiameterHypothesisFailed"


def test_verify_pole_with_negative_first_component(tmp_path, capsys):
    # an ellipsoid and its translate verify as `both` about e1 and about -e1;
    # argparse reads a value that starts with "-" after a space as an option,
    # so a negative first component takes "="
    K = ellipsoid([2.0, 1.0, 0.9, 0.8])
    pk = write_body(tmp_path, "K.json", K)
    pl = write_body(tmp_path, "L.json", K.translate([0.1, 0.2, -0.3, 0.05]))
    out = str(tmp_path / "v.json")
    for zeta in (["--zeta", "1,0,0,0"], ["--zeta=-1,0,0,0"]):
        assert main(["verify", "projections", pk, pl, *zeta, "--grid-t", "16",
                     "--grid-az", "64", "--w-samples", "8", "--out", out]) == 0
        assert json.loads(Path(out).read_text())["outcome"] == "both"
    with pytest.raises(SystemExit) as usage:
        main(["verify", "projections", pk, pl, "--zeta", "-1,0,0,0"])
    assert usage.value.code == 2


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


def test_classification_csv():
    grid = gauss_grid(make_frame(POLE, [1.0, 0.0, 0.0, 0.0]), 32, 256)
    fg = sample_on_sphere(band_limited_field(76), grid)
    row = classify_direction(fg, fg, 1e-6)
    lines = classifications_to_csv([row, replace(row, witness=None)]).strip().split("\n")
    assert lines[0].startswith("w1,w2,w3,w4")
    assert len(lines) == 3 and ",fix_pole," in lines[1]
    assert lines[2].endswith(",fix_pole,,")


@pytest.mark.parametrize("argv", [
    ["verify", "projections", "{body}", "{body}", "--zeta", "0,0,0,1", "--tol", "inf"],
    ["symmetry", "{cube}", "--sample", "3", "--tol", "0"],
    ["symmetry", "{cube}", "--sample", "3", "--tol", "-1"],
    ["symmetry", "{cube}", "--sample", "3", "--tol", "nan"],
    ["symmetry", "{cube}", "--sample", "3", "--tol", "inf"],
], ids=["verify-inf", "symmetry-0", "symmetry-neg", "symmetry-nan", "symmetry-inf"])
def test_verify_tol_out_of_range_is_config_error(tmp_path, capsys, argv):
    # a symmetry tol that admits no map would certify asymmetry falsely;
    # an infinite one would accept every candidate map
    body = write_body(tmp_path, "K.json", planted_polytope(11, POLE))
    cube_body = write_body(tmp_path, "cube.json", cube())
    rc = main([a.format(body=body, cube=cube_body) for a in argv])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(last)["error"] == "ConfigInvalidError"


@pytest.mark.parametrize("argv", [
    ["verify", "projections", "{body}", "{body}", "--zeta", "0,0,0,1"],
    ["symmetry", "{body}", "--sample", "3"],
    ["rate", "{body}", "--v-list", "40,80"],
], ids=["verify", "symmetry", "rate"])
def test_negative_seed_is_config_error(tmp_path, capsys, argv):
    body = write_body(tmp_path, "K.json", planted_polytope(11, POLE))
    rc = main([a.format(body=body) for a in argv] + ["--seed", "-1"])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    error = json.loads(last)
    assert error["error"] == "ConfigInvalidError" and "--seed" in error["detail"]


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


def test_symmetry_cube_shadows_keep_their_point_reflection(tmp_path, capsys):
    pk = write_body(tmp_path, "cube.json", cube())
    assert main(["symmetry", pk, "--sample", "4", "--out", str(tmp_path / "s.json")]) == 0
    assert "asymmetric on 0/4 sampled subspaces" in capsys.readouterr().err.splitlines()


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


def test_rate_reads_budgets_from_the_simplex_start(tmp_path):
    # five points are the simplex start, and each of the next three rounds
    # adds one point
    pk = write_body(tmp_path, "E.json", ellipsoid([1.0, 0.9, 0.8, 1.1]))
    out = tmp_path / "r.csv"
    assert main(["rate", pk, "--v-list", "5,6,7,8", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["5", "6", "7", "8"]


def test_rate_output_independent_of_blas_threads(tmp_path):
    # the rate command in fresh interpreters on one and two BLAS threads: the
    # greedy build's qhull and support batches, the Hausdorff candidates and
    # the ascent give the same bits
    E = ellipsoid([1.0, 0.9, 0.8, 1.1]).apply(
        Orthogonal4(np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]),
        [0.1, -0.2, 0.05, 0.3])
    pk = write_body(tmp_path, "E.json", E)
    outs = [subprocess.run([sys.executable, "-m", "congrulab.cli", "rate", pk,
                            "--v-list", "40,80,160", "--format", "csv"],
                           env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=n),
                           capture_output=True, timeout=120)
            for n in ("1", "2")]
    assert all(out.returncode == 0 for out in outs), [out.stderr for out in outs]
    assert outs[0].stdout.count(b"\n") == 4
    assert outs[0].stdout == outs[1].stdout and outs[0].stderr == outs[1].stderr


@pytest.mark.parametrize("v_list", ["40", "40,40"])
def test_rate_single_v_insufficient(tmp_path, capsys, v_list):
    pk = write_body(tmp_path, "ball.json", ball())
    rc = main(["rate", pk, "--v-list", v_list])
    assert rc == 1
    assert "InsufficientData" in capsys.readouterr().err


def test_rate_exact_polytope_is_insufficient(tmp_path, capsys):
    # every inscribed polytope of the 4-cube at these budgets is the cube
    # itself: delta = 0 leaves no rate, and no nan reaches the JSON output
    pk = write_body(tmp_path, "cube.json", cube())
    out = tmp_path / "rate.json"
    rc = main(["rate", pk, "--v-list", "40,80", "--format", "json",
               "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InsufficientDataError"
    assert "[40, 80]" in err["detail"]
    assert not out.exists()


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
