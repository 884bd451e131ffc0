import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrulab import bodies, verifier
from congrulab.bodies import (Body4, BumpShape, BumpTerm, EllipsoidShape, ball,
                              body_from_spec, cube, diameter_segment, ellipsoid, polytope)
from congrulab.errors import (CongruenceHypothesisFailed, ConfigInvalidError,
                              DegenerateBodyError, DiameterHypothesisFailed,
                              EmptyInputError, StarShapednessLost)
from congrulab.funk import compose_with_matrix, sample_on_sphere
from congrulab.orthogonal import (Orthogonal4, equator_flip, identity, pole_reflection,
                                  pole_rotation)
from congrulab.registration import Classification, register_pole_flip
from congrulab.sphere import (complement_basis, directions_orthogonal_to, gauss_grid,
                              gauss_latitude_nodes, make_frame, random_directions,
                              unit)
from congrulab.verifier import (CERTIFICATE_SLACK, OUTCOME_BOTH, OUTCOME_EQUAL,
                                OUTCOME_INCONCLUSIVE, OUTCOME_REFLECTED,
                                OUTCOME_ZERO_ODD, Verdict, VerifyConfig,
                                aggregate_labels, decide_functional_equation,
                                verify_projection_theorem,
                                verify_section_theorem)

from helpers import (band_limited_field, certified_asymmetric, even_field,
                     even_parts_equal, odd_field, planted_polytope, wrap_err)

RNG = np.random.default_rng(606)
POLE = unit(RNG.standard_normal(4))

FIELD_CFG = VerifyConfig(n_t=16, n_azimuth=128, w_samples=16,
                         circle_nodes=128, out_of_sample=512)
BODY_CFG = VerifyConfig(n_t=24, n_azimuth=128, w_samples=32,
                        circle_nodes=128, out_of_sample=512)


# -- functional equation -------------------------------------------------------


def test_decide_equal():
    f = band_limited_field(90)
    v = decide_functional_equation(f, f, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_EQUAL
    assert v.report["certificate"]["out_of_sample_dev"] <= 5 * v.tol


def test_decide_reflected():
    f = band_limited_field(91)
    refl = pole_reflection(POLE)
    g = compose_with_matrix(f, refl.matrix)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_REFLECTED
    assert v.report["certificate"]["out_of_sample_dev"] <= 5 * v.tol


def test_decide_both_for_even_data():
    f = even_field(92, POLE)
    v = decide_functional_equation(f, f, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_BOTH
    cert = v.report["certificate"]
    assert cert["equal_dev"] <= 5 * v.tol and cert["reflected_dev"] <= 5 * v.tol


def test_decide_even_mismatch_inconclusive():
    # on its one working sphere g is f turned about the pole: the congruence
    # certificate holds there, and the even parts still differ pointwise
    f = band_limited_field(93)
    w = complement_basis(POLE)[0]
    g = compose_with_matrix(f, pole_rotation(make_frame(POLE, w), 0.7).matrix)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG, w_dirs=[w])
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "even parts differ" in v.reason
    assert v.report["congruence_residual"] <= v.tol


def test_decide_unrelated_inconclusive():
    # unrelated odd parts at 1e-6 of a shared even part: the full
    # restrictions register within tol, and the odd parts do not
    E, O, O2 = even_field(92, POLE), odd_field(94, POLE), odd_field(95, POLE)
    f = lambda x: E(x) + 1e-6 * O(x)
    g = lambda x: E(x) + 1e-6 * O2(x)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "no rotation registers" in v.reason
    assert v.report["congruence_residual"] <= v.tol


def test_decide_non_congruent_pair_raises():
    # every decision certifies the congruence hypothesis first: unrelated
    # fields fail it already on the first working sphere, which the error names
    w_dirs = directions_orthogonal_to(POLE, FIELD_CFG.w_samples)
    with pytest.raises(CongruenceHypothesisFailed) as failure:
        decide_functional_equation(odd_field(94, POLE), odd_field(95, POLE), POLE, FIELD_CFG)
    assert np.array_equal(failure.value.w, w_dirs[0])
    assert failure.value.residual == pytest.approx(0.8878, abs=1e-4)


@pytest.mark.parametrize("even, reason, devs", [
    (False, "classified equal but out-of-sample deviation", ["out_of_sample_dev"]),
    (True, "odd parts vanish but a full-function certificate failed",
     ["equal_dev", "reflected_dev"]),
], ids=["equal", "both"])
def test_decide_out_of_sample_certificate_rejects(even, reason, devs):
    # g - f is the product of (x . w)^2 over the working normals: it vanishes
    # on every working-sphere grid and is even under the pole reflection, so
    # only the out-of-sample probes see it
    w_dirs = directions_orthogonal_to(POLE, 6)
    f = even_field(92, POLE) if even else band_limited_field(90)
    g = lambda x: f(x) + np.prod((np.asarray(x) @ w_dirs.T) ** 2, axis=-1)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG, w_dirs=w_dirs)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert v.reason.startswith(reason)
    assert v.report["even_direct_dev"] == 0.0
    assert all(v.report["certificate"][k] > CERTIFICATE_SLACK * v.tol for k in devs)


def _flip_fixture():
    """(f, g, working-sphere normals, config): a global half-turn u0-axis map
    realizes flips on every working sphere orthogonal to u0."""
    f = odd_field(96, POLE)
    basis = complement_basis(POLE)
    u0 = basis[0]
    M = 2.0 * np.outer(u0, u0) - np.eye(4)
    b1, b2 = basis[1], basis[2]
    ts = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    w_ring = tuple(tuple(np.cos(t) * b1 + np.sin(t) * b2) for t in ts)
    cfg = VerifyConfig(n_t=16, n_azimuth=128, w_samples=12, circle_nodes=128,
                       out_of_sample=512)
    return f, compose_with_matrix(f, M), w_ring, cfg


def test_decide_flip_family_surfaced():
    # restricted to the flip spheres the pipeline must report the violated
    # symmetry hypotheses instead of resolving
    f, g, w_ring, cfg = _flip_fixture()
    v = decide_functional_equation(f, g, POLE, cfg, w_dirs=w_ring)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "flip-type registrations" in v.reason
    assert len(v.report["flip_witnesses"]) >= 1


def test_decide_config_invalid():
    for tol in (-1, np.inf, 1.0):
        with pytest.raises(ConfigInvalidError):
            decide_functional_equation(band_limited_field(1), band_limited_field(1),
                                       POLE, VerifyConfig(tol=tol))
    with pytest.raises(ConfigInvalidError):
        VerifyConfig(n_azimuth=13)
    # the even parts are compared on the working-sphere grid itself
    VerifyConfig(n_azimuth=128, circle_nodes=128)
    with pytest.raises(ConfigInvalidError):
        VerifyConfig(n_azimuth=128, circle_nodes=128 + 2)
    # the probes are drawn from seed + 0x0DD5, and at least one is needed
    for bad in ({"seed": -1}, {"out_of_sample": 0}):
        with pytest.raises(ConfigInvalidError):
            VerifyConfig(**bad)


def test_decide_rejects_empty_w_dirs():
    f = band_limited_field(1)
    with pytest.raises(EmptyInputError, match="w_dirs"):
        decide_functional_equation(f, f, POLE, FIELD_CFG, w_dirs=np.zeros((0, 4)))


def _counting(field):
    """The field, recording the batch shape of every evaluation."""
    shapes = []

    def counted(x):
        x = np.asarray(x, dtype=float)
        shapes.append(x.shape[:-1])
        return field(x)

    return counted, shapes


def test_decide_samples_each_field_once_per_sphere():
    base = band_limited_field(97)
    f, f_shapes = _counting(base)
    g, g_shapes = _counting(base)
    cfg = FIELD_CFG
    v = decide_functional_equation(f, g, POLE, cfg)
    assert v.outcome == OUTCOME_EQUAL
    grid_shape = (cfg.n_t, cfg.n_azimuth)
    for shapes in (f_shapes, g_shapes):
        grid_points = sum(int(np.prod(s)) for s in shapes if s == grid_shape)
        assert grid_points == cfg.w_samples * cfg.n_t * cfg.n_azimuth
        # out of sample: the probes and their pole reflections, read by both
        # the odd part and the certificate of the winning relation
        probe_points = sum(int(np.prod(s)) for s in shapes if s != grid_shape)
        assert probe_points == 2 * cfg.out_of_sample


@pytest.mark.parametrize("case", ["projection-equal", "projection-reflected",
                                  "section-reflected", "section-ellipsoid"])
def test_decide_reads_body_methods_as_their_wrapped_fields(case):
    # a body's support or radial, sampled on the upper rings of each grid,
    # gives the verdict the same fields wrapped in lambdas give, which are
    # evaluated at every grid point: byte-equal JSON, on an odd n_t too
    section = case.startswith("section")
    if case == "section-ellipsoid":
        Q = Orthogonal4(np.linalg.qr(np.random.default_rng(141).standard_normal((4, 4)))[0])
        K = ellipsoid([1.0, 0.9, 0.8, 0.7], Q, kind="star").translate([0.1, -0.2, 0.05, 0.3])
    else:
        K = planted_polytope(141, POLE, through_origin=section,
                             kind="star" if section else "convex")
    U = pole_reflection(POLE) if case.endswith("reflected") else identity()
    if section:
        f, g = K.radial, K.apply(U).radial
    else:
        K, L = (_centred(B) for B in (K, K.apply(U, 0.3 * unit(RNG.standard_normal(4)))))
        f, g = K.support, L.support
    for n_t in (16, 15):
        cfg = VerifyConfig(n_t=n_t, n_azimuth=64, w_samples=8, out_of_sample=256)
        methods = decide_functional_equation(f, g, POLE, cfg)
        wrapped = decide_functional_equation(lambda x: f(x), lambda x: g(x), POLE, cfg)
        assert methods.outcome == (OUTCOME_REFLECTED if case.endswith("reflected")
                                   else OUTCOME_EQUAL)
        assert json.dumps(methods.to_json_dict()) == json.dumps(wrapped.to_json_dict())


def _centred(body):
    z, y = diameter_segment(body, POLE)
    return body.translate(-0.5 * (z + y))


def test_decide_flip_witnesses_read_each_sphere_grid():
    base_f, base_g, w_ring, cfg = _flip_fixture()
    f, f_shapes = _counting(base_f)
    g, g_shapes = _counting(base_g)
    v = decide_functional_equation(f, g, POLE, cfg, w_dirs=w_ring)
    assert "flip-type registrations" in v.reason
    # the witnesses take no samples beyond the working-sphere grids and probes
    for shapes in (f_shapes, g_shapes):
        assert sum(int(np.prod(s)) for s in shapes) == (
            len(w_ring) * cfg.n_t * cfg.n_azimuth + 2 * cfg.out_of_sample)
    witnesses = v.report["flip_witnesses"]
    assert len(witnesses) == 3
    grids = {tuple(fr.normal): gauss_grid(fr, cfg.n_t, cfg.n_azimuth)
             for fr in (make_frame(unit(POLE), w) for w in w_ring)}
    for wit in witnesses:
        fg = sample_on_sphere(base_f, grids[tuple(wit["w"])])
        half_turn = np.roll(fg.values, cfg.n_azimuth // 2, axis=1)
        assert wit["pole_half_turn_defect"] == float(np.max(np.abs(half_turn - fg.values)))
        self_flip = register_pole_flip(fg, fg)
        keep = self_flip.residual <= cfg.tol * fg.sup
        assert wit["self_flip_axis"] == (self_flip.parameter if keep else None)


def test_flip_witness_reports_self_flip_axis():
    # f is an equatorial half-turn symmetric field up to 1e-9 of its scale
    # and g is its image under another half-turn: the flip family registers
    # exactly, the pole rotations only to 1e-9, and the witness finds the
    # symmetry axis of f on the sphere's own grid
    w = complement_basis(POLE)[0]
    frame = make_frame(unit(POLE), w)
    h, q = odd_field(98, POLE), odd_field(99, POLE)
    s = lambda x: h(x) + compose_with_matrix(h, equator_flip(frame, 0.4).matrix)(x)
    f = lambda x: s(x) + 1e-9 * q(x)
    g = compose_with_matrix(f, equator_flip(frame, 1.3).matrix)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG, w_dirs=[w])
    assert "flip-type registrations" in v.reason
    (wit,) = v.report["flip_witnesses"]
    assert wrap_err(wit["flip_axis"], 1.3, np.pi) < 1e-6
    assert wrap_err(wit["self_flip_axis"], 0.4, np.pi) < 1e-6
    fg = sample_on_sphere(f, gauss_grid(frame, FIELD_CFG.n_t, FIELD_CFG.n_azimuth))
    assert wit["self_flip_axis"] == register_pole_flip(fg, fg).parameter


def test_even_devs_match_reference_check():
    # L is K turned about the pole by five azimuth steps of the one working
    # sphere: the certificate holds there, and the even parts differ
    K = planted_polytope(117, POLE)
    w = complement_basis(POLE)[0]
    L = K.apply(pole_rotation(make_frame(POLE, w), 2 * np.pi * 5 / 64))
    cfg = VerifyConfig(n_t=16, n_azimuth=64, out_of_sample=256)
    v = decide_functional_equation(K.support, L.support, POLE, cfg, w_dirs=[w])
    t_nodes = gauss_latitude_nodes(cfg.n_t)
    ref = even_parts_equal(K.support, L.support, POLE, t_nodes, [w],
                           circle_nodes=cfg.n_azimuth)
    assert ref.direct_dev > 0
    assert v.report["even_direct_dev"] == ref.direct_dev
    assert v.report["scale"] == max(ref.f_sup, ref.g_sup)


def _cl(alpha=None, label="fix_pole", f_sup=1.0, residual=1e-12):
    from congrulab.registration import RotationWitness
    from congrulab.sphere import make_frame
    frame = make_frame(POLE, complement_basis(POLE)[0])
    wit = RotationWitness(kind="fix_pole",
                          parameter=0.0 if alpha in (None, 0.0) else np.pi,
                          residual=residual, coarse_parameter=0.0)
    return Classification(w=frame.normal, label=label, witness=wit, tol=1e-6,
                          alpha=alpha, f_sup=f_sup, g_sup=f_sup)


def test_aggregate_labels_branches():
    eq = [_cl(0.0), _cl(0.0)]
    assert aggregate_labels(eq, odd_sup=1.0, tol_abs=1e-6)[0] == OUTCOME_EQUAL
    re = [_cl(1.0), _cl(1.0)]
    assert aggregate_labels(re, odd_sup=1.0, tol_abs=1e-6)[0] == OUTCOME_REFLECTED
    mixed = [_cl(0.0), _cl(1.0)]
    # mixed labels with vanishing odd data: the degenerate outcome
    assert aggregate_labels(mixed, odd_sup=5e-7, tol_abs=1e-6)[0] == OUTCOME_ZERO_ODD
    out, reason = aggregate_labels(mixed, odd_sup=1.0, tol_abs=1e-6)
    assert out == OUTCOME_INCONCLUSIVE and "mixed" in reason
    flip = [_cl(0.0), _cl(None, label="flip_pole")]
    assert aggregate_labels(flip, 1.0, 1e-6)[0] == OUTCOME_INCONCLUSIVE
    none = [_cl(0.0), _cl(None, label="none")]
    out, reason = aggregate_labels(none, 1.0, 1e-6)
    assert out == OUTCOME_INCONCLUSIVE and "no rotation registers" in reason
    # off-{0,1} angle on a sphere with data is contradictory
    off = [_cl(0.37)]
    assert aggregate_labels(off, 1.0, 1e-6)[0] == OUTCOME_INCONCLUSIVE
    # but consistent when the data vanishes there
    off_zero = [_cl(0.37, f_sup=1e-9), _cl(0.0)]
    assert aggregate_labels(off_zero, 1.0, 1e-6)[0] == OUTCOME_EQUAL


# -- projection theorem -----------------------------------------------------------


def test_projection_planted_translation():
    K = planted_polytope(110, POLE)
    b = 0.4 * unit(RNG.standard_normal(4))
    v = verify_projection_theorem(K, K.translate(b), POLE, BODY_CFG)
    assert v.outcome == OUTCOME_EQUAL
    assert np.linalg.norm(v.translation - b) <= 1e-6 * 2.0
    assert v.report["width_match_dev"] <= v.tol * 10
    assert v.report["w_sample_fallback"] is False


def test_w_sample_fallback_reported(monkeypatch):
    # a second diameter orthogonal to the pole: a margin of 1 rejects every
    # working sphere, and the pipeline must say it used the unfiltered pool
    rng = np.random.default_rng(9)
    u = complement_basis(POLE)[0]
    bulk = 0.6 * random_directions(24, rng) * rng.uniform(0.5, 1.0, (24, 1))
    K = polytope(np.vstack([POLE, -POLE, u, -u, bulk]))
    L = K.translate(0.1 * unit(RNG.standard_normal(4)))
    cfg = replace(BODY_CFG, w_samples=8)
    assert verify_projection_theorem(K, L, POLE, cfg).report["w_sample_fallback"] is False
    monkeypatch.setattr(verifier, "DIAMETER_MARGIN", 1.0)
    v = verify_projection_theorem(K, L, POLE, cfg)
    assert v.report["w_sample_fallback"] is True
    assert v.report["w_sample_size"] == cfg.w_samples


def test_projection_near_round_ellipsoid_finds_one_diameter():
    # semiaxes 2 and 1.98: an ascent that stops short of the diameter leaves
    # near-pole directions within tol of its length, which count as extra
    # diameters and rule out every working sphere
    K = ellipsoid([2.0, 1.98, 0.9, 0.8])
    L = K.translate([0.1, 0.2, -0.3, 0.05])
    cfg = VerifyConfig(n_t=16, n_azimuth=64, w_samples=8)
    v = verify_projection_theorem(K, L, np.eye(4)[0], cfg)
    assert v.outcome == OUTCOME_BOTH
    assert v.report["diameter_count_K"] == v.report["diameter_count_L"] == 1
    assert v.report["w_sample_fallback"] is False
    assert abs(v.report["diameter_length"] - 4.0) <= 1e-12


def test_projection_planted_reflection():
    K = planted_polytope(111, POLE)
    b = 0.3 * unit(RNG.standard_normal(4))
    L = K.apply(pole_reflection(POLE), b)
    v = verify_projection_theorem(K, L, POLE, BODY_CFG)
    assert v.outcome == OUTCOME_REFLECTED
    assert np.linalg.norm(v.translation - b) <= 1e-6 * 2.0


@pytest.mark.parametrize("seed", [300, 301])
def test_projection_reflection_at_small_scale(seed):
    # scaled by 1e-7, the flip objective's largest value is far below 1; a
    # flatness floor that is absolute there reads it as flat, and the flip
    # family tie-breaks to shift 0
    s, pole = 1e-7, np.eye(4)[0]
    K = polytope(s * planted_polytope(seed, pole).shape.vertices)
    b = 0.3 * unit(np.random.default_rng(seed).standard_normal(4))
    v = verify_projection_theorem(K, K.apply(pole_reflection(pole), s * b), pole,
                                  VerifyConfig(w_samples=16))
    assert v.outcome == OUTCOME_REFLECTED
    assert np.linalg.norm(v.translation / s - b) <= 1e-9


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), log_s=st.floats(-12.0, 10.0),
       case=st.sampled_from(["projection-equal", "projection-reflected",
                             "section-reflected", "projection-ellipsoid",
                             "section-ellipsoid"]))
def test_verdict_is_scale_and_rotation_equivariant(seed, log_s, case):
    # a planted pair scaled by s and rotated by Q, with the pole rotated too,
    # gives the planted outcome and the translation s Q b: no floor of the
    # verify is a length, and the verdict does not depend on the frame.  An
    # ellipsoid whose longest semiaxis lies along the pole is symmetric under
    # the pole reflection, so it and its translate give both
    rng = np.random.default_rng(seed)
    s, Q, pole = 10.0 ** log_s, np.linalg.qr(rng.standard_normal((4, 4)))[0], np.eye(4)[0]
    section = case.startswith("section")
    kind = "star" if section else "convex"
    b = 0.05 * pole if section else 0.3 * unit(rng.standard_normal(4))
    if case.endswith("ellipsoid"):
        a = np.concatenate([[1.0], rng.uniform(0.5, 0.9, 3)])
        K = ellipsoid(s * a, Orthogonal4(Q), kind=kind)
        L, want = K.translate(s * (Q @ b)), OUTCOME_BOTH
    else:
        K = planted_polytope(seed % 997, pole, through_origin=section, kind=kind)
        reflected = case.endswith("reflected")
        L = K.apply(pole_reflection(pole) if reflected else identity(), b)
        K, L = (polytope(s * B.effective_vertices() @ Q.T, kind=kind) for B in (K, L))
        want = OUTCOME_REFLECTED if reflected else OUTCOME_EQUAL
    verify = verify_section_theorem if section else verify_projection_theorem
    v = verify(K, L, Q @ pole, VerifyConfig(w_samples=16))
    assert v.outcome == want
    assert np.linalg.norm(v.translation - s * (Q @ b)) <= 1e-9 * s


BUMP_AXES = ((0.3, 0.5, -0.2, 0.8), (-0.6, 0.1, 0.7, 0.3), (0.2, -0.7, 0.4, -0.5))


@pytest.mark.parametrize("reflect", [False, True], ids=["equal", "reflected"])
def test_projection_bump_body(reflect):
    # odd terms cancel in the width, so the diameter stays the base
    # ellipsoid's, along e1, and they break the pole-reflection symmetry
    pole = np.eye(4)[0]
    K = Body4(kind="convex", shape=BumpShape(
        EllipsoidShape(np.array([1.0, 0.8, 0.7, 0.6])), 0.02,
        tuple(BumpTerm(np.array(a), m, c)
              for a, m, c in zip(BUMP_AXES, (3, 5, 3), (0.8, -0.6, 0.7)))))
    assert certified_asymmetric(K.support, pole)
    b = np.array([0.3, -0.2, 0.25, 0.1])
    L = K.apply(pole_reflection(pole), b) if reflect else K.translate(b)
    v = verify_projection_theorem(K, L, pole, VerifyConfig(n_t=16, n_azimuth=64, w_samples=8))
    assert v.outcome == (OUTCOME_REFLECTED if reflect else OUTCOME_EQUAL)
    assert np.allclose(v.translation, b, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("reflect", [False, True], ids=["equal", "reflected"])
def test_projection_takes_two_rffts_per_working_sphere(monkeypatch, reflect):
    # the certified verify transforms f and g once per sphere; the parity
    # parts' spectra are masks of theirs, read by the odd registration
    pole = np.eye(4)[0]
    K = planted_polytope(110, pole)
    b = [0.1, 0.2, -0.3, 0.05]
    L = K.apply(pole_reflection(pole), b) if reflect else K.translate(b)
    rfft, calls = np.fft.rfft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    v = verify_projection_theorem(K, L, pole, VerifyConfig(n_t=16, n_azimuth=64, w_samples=8))
    assert v.outcome == (OUTCOME_REFLECTED if reflect else OUTCOME_EQUAL)
    assert v.report["congruence_residual"] is not None
    assert len(calls) == 2 * v.report["w_sample_size"] == 16


def test_projection_diameter_hypothesis_failure():
    with pytest.raises((DiameterHypothesisFailed, DegenerateBodyError)):
        verify_projection_theorem(ball(), ellipsoid([2, 1, 1, 1]),
                                  np.array([1.0, 0, 0, 0]), BODY_CFG)
    # widths differ along the pole
    with pytest.raises(DiameterHypothesisFailed):
        verify_projection_theorem(ellipsoid([2, 1, 1, 1]),
                                  ellipsoid([3, 1, 1, 1]),
                                  np.array([1.0, 0, 0, 0]), BODY_CFG)
    # shadows are compared as support functions, so both bodies are convex
    K = planted_polytope(112, POLE, through_origin=True, kind="star")
    with pytest.raises(DiameterHypothesisFailed, match="requires convex bodies"):
        verify_projection_theorem(K, K, POLE, BODY_CFG)


def test_projection_pole_not_a_diameter():
    K = planted_polytope(112, POLE)
    off = unit(RNG.standard_normal(4))
    while abs(off @ POLE) > 0.5:
        off = unit(RNG.standard_normal(4))
    with pytest.raises(DiameterHypothesisFailed):
        verify_projection_theorem(K, K, off, BODY_CFG)


def test_projection_unrelated_bodies_rejected():
    K = planted_polytope(113, POLE)
    L = planted_polytope(114, POLE)   # same diameter setup, different bulk
    with pytest.raises(CongruenceHypothesisFailed):
        verify_projection_theorem(K, L, POLE, BODY_CFG)


def test_projection_verdict_stable_under_refinement():
    K = planted_polytope(115, POLE)
    b = 0.2 * unit(RNG.standard_normal(4))
    L = K.apply(pole_reflection(POLE), b)
    coarse = VerifyConfig(n_t=16, n_azimuth=64, w_samples=16,
                          circle_nodes=64, out_of_sample=256)
    fine = VerifyConfig(n_t=32, n_azimuth=128, w_samples=16,
                        circle_nodes=128, out_of_sample=256)
    v1 = verify_projection_theorem(K, L, POLE, coarse)
    v2 = verify_projection_theorem(K, L, POLE, fine)
    assert v1.outcome == v2.outcome == OUTCOME_REFLECTED


def test_projection_both_for_reflection_symmetric_body():
    # a body built symmetric under the pole reflection: both relations hold
    rng = np.random.default_rng(7)
    refl = pole_reflection(POLE)
    pts = [2.0 * 0.5 * POLE, -2.0 * 0.5 * POLE]
    extra = 0.3 * 2.0 * random_directions(20, rng)
    pts = np.vstack([pts, extra, extra @ refl.matrix.T])
    K = polytope(pts)
    v = verify_projection_theorem(K, K.translate([0.1, 0, 0, 0.2]), POLE, BODY_CFG)
    assert v.outcome == OUTCOME_BOTH


def test_verdict_json_dict():
    K = planted_polytope(116, POLE)
    v = verify_projection_theorem(K, K, POLE, BODY_CFG)
    d = v.to_json_dict()
    assert d["outcome"] == OUTCOME_EQUAL
    assert isinstance(d["classifications"], list)
    assert set(d["hypothesis_report"]) == {
        "scale", "even_direct_dev", "congruence_residual",
        "odd_sup", "certificate", "diameter_length", "diameter_count_K",
        "diameter_count_L", "width_at_pole_K", "width_at_pole_L", "width_match_dev",
        "w_sample_size", "w_sample_fallback"}
    assert len(d["translation"]) == 4


def test_jsonable_converts_arrays_of_any_rank():
    report = {"scalar": np.array(1.5), "vector": np.arange(3.0),
              "nested": [{"grid": np.eye(2)}, (np.float64(2.0), np.int64(3))]}
    assert verifier._jsonable(report) == {
        "scalar": 1.5, "vector": [0.0, 1.0, 2.0],
        "nested": [{"grid": [[1.0, 0.0], [0.0, 1.0]]}, [2.0, 3]]}


# -- section theorem ----------------------------------------------------------------


def test_section_planted_axis_translation():
    K = planted_polytope(120, POLE, through_origin=True, kind="star")
    a = -0.06 * 2.0
    L = K.translate(a * POLE)
    v = verify_section_theorem(K, L, POLE, BODY_CFG)
    assert v.outcome == OUTCOME_EQUAL
    assert np.linalg.norm(v.translation - a * POLE) <= 1e-6 * 2.0
    # recovered translation is parallel to the pole
    residual = v.translation - (v.translation @ POLE) * POLE
    assert np.linalg.norm(residual) <= 1e-9
    assert v.report["w_sample_fallback"] is False
    # the axis chords are one two-direction batch per body
    axis = np.stack([unit(POLE), -unit(POLE)])
    assert np.array_equal(v.report["axis_chord_K"], K.radial(axis))
    assert np.array_equal(v.report["axis_chord_L"], L.radial(axis))


def test_section_verdict_json_keeps_signed_zeros():
    # the star ellipsoids of the command-line section checks: L is K shifted by 0.3 e1;
    # the alignment is minus that shift, down to the signs of its zeros
    shape = {"type": "ellipsoid", "semiaxes": [2.0, 1.0, 0.9, 0.8]}
    K = body_from_spec({"kind": "star", "shape": shape, "transforms": []})
    L = body_from_spec({"kind": "star", "shape": shape,
                        "transforms": [{"shift": [0.3, 0.0, 0.0, 0.0]}]})
    cfg = VerifyConfig(n_t=16, n_azimuth=64, w_samples=8)
    d = verify_section_theorem(K, L, [1.0, 0.0, 0.0, 0.0], cfg).to_json_dict()
    report = d["hypothesis_report"]
    assert d["outcome"] == OUTCOME_BOTH
    assert set(report) == {
        "scale", "even_direct_dev", "congruence_residual",
        "odd_sup", "certificate", "diameter_length", "alignment",
        "axis_deviation_K", "axis_deviation_L", "axis_chord_K", "axis_chord_L",
        "w_sample_size", "w_sample_fallback"}
    assert np.allclose(d["translation"], [0.3, 0, 0, 0], rtol=0.0, atol=1e-12)
    assert np.allclose(report["alignment"], [-0.3, 0, 0, 0], rtol=0.0, atol=1e-12)
    assert np.signbit(d["translation"]).tolist() == [False] * 4
    assert np.signbit(report["alignment"]).tolist() == [True] * 4


def test_section_planted_reflection():
    K = planted_polytope(121, POLE, through_origin=True, kind="star")
    L = K.apply(pole_reflection(POLE))
    v = verify_section_theorem(K, L, POLE, BODY_CFG)
    assert v.outcome == OUTCOME_REFLECTED
    assert np.linalg.norm(v.translation) <= 1e-6 * 2.0


SMALL_CFG = VerifyConfig(n_t=8, n_azimuth=32, w_samples=4, out_of_sample=256)
COARSE_CFG = VerifyConfig(n_t=16, n_azimuth=64, w_samples=4)
FINE_CFG = VerifyConfig(n_t=32, n_azimuth=128, w_samples=8)
_vector = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


@settings(max_examples=30)
@given(pole=_vector.filter(lambda v: np.linalg.norm(v) > 0.1),
       seed=st.integers(0, 2**16), b=_vector, reflect=st.booleans(),
       section=st.booleans())
def test_planted_recovery_property(pole, seed, b, reflect, section):
    # verify(K, U K + b) recovers b, U the identity or the pole reflection,
    # with the same outcome on a small, a coarse and a fine grid; sections
    # shift along the pole by at most 0.12, keeping the origin interior
    pole = unit(pole)
    U = pole_reflection(pole) if reflect else identity()
    if section:
        K = planted_polytope(seed, pole, through_origin=True, kind="star")
        b = 0.12 * b[0] * pole
        verify = verify_section_theorem
    else:
        K = planted_polytope(seed, pole)
        b = 0.6 * np.asarray(b)
        verify = verify_projection_theorem
    verdicts = [verify(K, K.apply(U, b), pole, cfg)
                for cfg in (SMALL_CFG, COARSE_CFG, FINE_CFG)]
    for v in verdicts:
        assert v.outcome == (OUTCOME_REFLECTED if reflect else OUTCOME_EQUAL)
        assert np.linalg.norm(v.translation - b) <= 1e-6 * 2.0
    coarse, fine = verdicts[1:]
    assert np.linalg.norm(coarse.translation - fine.translation) <= 1e-6 * 2.0


def test_section_off_axis_shift_breaks_congruence():
    K = planted_polytope(122, POLE, through_origin=True, kind="star")
    basis = complement_basis(POLE)
    with pytest.raises(CongruenceHypothesisFailed):
        verify_section_theorem(K, K.translate(0.08 * 2.0 * basis[0]), POLE, BODY_CFG)
    # a shift as large as the origin's cross-polytope moves the origin out
    with pytest.raises(StarShapednessLost):
        verify_section_theorem(K, K.translate(0.3 * 2.0 * basis[0]), POLE, BODY_CFG)


def test_section_no_alignment_keeps_origin():
    # a star bipyramid with apexes 1.2 e0 and -0.8 e0 over an equatorial
    # cube: L = K + 0.5 e1 holds the origin, but its axis chord (0.109,
    # 0.073) is so short that either alignment moves the origin out of L
    e0, e1 = np.eye(4)[:2]
    cube3 = [(0.0, *c) for c in itertools.product((-0.55, 0.55), repeat=3)]
    K = polytope([1.2 * e0, -0.8 * e0, *cube3], kind="star")
    L = K.translate(0.5 * e1)
    assert L.contains_origin_interior()
    assert np.allclose(L.radial(np.stack([e0, -e0])), [0.6 / 5.5, 0.4 / 5.5])
    with pytest.raises(StarShapednessLost, match="no diameter alignment"):
        verify_section_theorem(K, L, e0, BODY_CFG)


def test_section_requires_origin_diameter():
    K = planted_polytope(123, POLE)    # diameter not through the origin
    with pytest.raises(DiameterHypothesisFailed):
        verify_section_theorem(K, K, POLE, BODY_CFG)
    # congruent sections force equal diameter lengths
    K = planted_polytope(123, POLE, through_origin=True, kind="star")
    for length in (1.5, 2.5):
        L = planted_polytope(123, POLE, length=length, through_origin=True, kind="star")
        with pytest.raises(DiameterHypothesisFailed, match="diameter lengths differ"):
            verify_section_theorem(K, L, POLE, BODY_CFG)


def test_section_samples_and_registers_each_sphere_once(monkeypatch):
    # the direct alignment certifies, so the decision runs once: each body
    # is sampled on each working sphere once, from one kernel call on the
    # grid's upper rings, and each sphere registers its full restrictions
    # and its odd parts
    counts = {"classify_direction": 0, "sample_on_sphere": 0}

    def counting(name):
        inner = getattr(verifier, name)

        def counted(*args):
            counts[name] += 1
            return inner(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(verifier, name, counting(name))
    sampled = []             # (body, sphere, its facet rows, rows kept, rows crossing)
    read = []
    antipodal_values, kernel = Body4.antipodal_values, bodies._facet_major_max

    def sampling(body, radial, w, theta):
        # the simplices with vertices clearly on both sides of w-perp; the
        # diameter's ends lie in it, every other vertex is far from it
        s = body.effective_vertices() @ w
        side = s[body.shape.incidence]
        clear = 1e-9 * np.max(np.abs(s))
        crossing = np.sum((side > clear).any(axis=1) & (side < -clear).any(axis=1))
        assert radial and len(theta) == (cfg.n_t + 1) // 2
        values = antipodal_values(body, radial, w, theta)
        sampled.append((body, tuple(w), len(body._polar_rows), read.pop(), crossing))
        return values

    def reading(rows, theta, antipodal=False):
        if antipodal:
            read.append(len(rows))
        return kernel(rows, theta, antipodal)

    monkeypatch.setattr(Body4, "antipodal_values", sampling)
    monkeypatch.setattr(bodies, "_facet_major_max", reading)
    K = planted_polytope(125, POLE, through_origin=True, kind="star")
    L = K.apply(pole_reflection(POLE), 0.05 * POLE)
    w = 12
    cfg = VerifyConfig(n_t=16, n_azimuth=64, w_samples=w, out_of_sample=256)
    v = verify_section_theorem(K, L, POLE, cfg)
    assert v.outcome == OUTCOME_REFLECTED
    assert counts == {"classify_direction": 2 * w, "sample_on_sphere": 2 * w}
    assert len(sampled) == 2 * w and not read
    assert len({(id(body), sphere) for body, sphere, *_ in sampled}) == 2 * w
    # the pruning is on: every sphere reads only the crossing facet rows, and
    # facets that touch w-perp only at the diameter's ends are left out
    assert all(kept == crossing < full for *_, full, kept, crossing in sampled)


def test_section_falls_back_to_reversed_alignment(monkeypatch):
    # the direct translate fails its congruence certificate: the reversed
    # one is decided, and the verdict and its alignment come from it
    K = planted_polytope(126, POLE, through_origin=True, kind="star")
    L = K.translate(0.05 * POLE)
    decided = []

    def direct_fails(f, g, *args, **kwargs):
        decided.append(g.__self__)
        if len(decided) == 1:
            raise CongruenceHypothesisFailed(POLE, 0.5)
        return Verdict(OUTCOME_EQUAL, report={"congruence_residual": 0.0})

    monkeypatch.setattr(verifier, "decide_functional_equation", direct_fails)
    v = verify_section_theorem(K, L, POLE, BODY_CFG)
    chord_k, chord_l = v.report["axis_chord_K"], v.report["axis_chord_L"]
    a_direct, a_reverse = (chord_k[0] - chord_l[0]) * POLE, (chord_k[1] - chord_l[0]) * POLE
    assert not np.allclose(a_direct, a_reverse)
    assert len(decided) == 2
    probe = random_directions(64, np.random.default_rng(3))
    for body, a in zip(decided, (a_direct, a_reverse)):
        assert np.array_equal(body.radial(probe), L.translate(a).radial(probe))
    assert v.outcome == OUTCOME_EQUAL
    assert np.array_equal(v.report["alignment"], a_reverse)
    assert np.array_equal(v.translation, -a_reverse)


@pytest.mark.parametrize("residuals", [(0.3, 0.2), (0.2, 0.3)])
def test_section_raises_smaller_residual_failure(monkeypatch, residuals):
    K = planted_polytope(126, POLE, through_origin=True, kind="star")
    L = K.translate(0.05 * POLE)
    pending = list(residuals)

    def both_fail(*args, **kwargs):
        raise CongruenceHypothesisFailed(POLE, pending.pop(0))

    monkeypatch.setattr(verifier, "decide_functional_equation", both_fail)
    with pytest.raises(CongruenceHypothesisFailed) as failure:
        verify_section_theorem(K, L, POLE, BODY_CFG)
    assert not pending
    assert failure.value.residual == 0.2


def test_section_symmetric_axis_chord_decided_once(monkeypatch):
    # a star ellipsoid's axis chord is symmetric, so the direct and reversed
    # alignments are one translate: its failed certificate is raised after a
    # single decision
    K = ellipsoid([2.0, 1.0, 0.9, 0.8], kind="star")
    L = ellipsoid([2.0, 1.0, 0.85, 0.8], kind="star")
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    decided = []

    def counted(*args, **kwargs):
        decided.append(args)
        return decide_functional_equation(*args, **kwargs)

    monkeypatch.setattr(verifier, "decide_functional_equation", counted)
    with pytest.raises(CongruenceHypothesisFailed) as failure:
        verify_section_theorem(K, L, pole, VerifyConfig(n_t=16, n_azimuth=64, w_samples=8))
    assert len(decided) == 1
    assert failure.value.residual == pytest.approx(5.431e-2, abs=1e-5)


def test_section_verdict_stable_under_refinement():
    K = planted_polytope(124, POLE, through_origin=True, kind="star")
    L = K.translate(0.04 * 2.0 * POLE)
    coarse = VerifyConfig(n_t=16, n_azimuth=64, w_samples=12,
                          circle_nodes=64, out_of_sample=256)
    fine = VerifyConfig(n_t=32, n_azimuth=128, w_samples=12,
                        circle_nodes=128, out_of_sample=256)
    assert (verify_section_theorem(K, L, POLE, coarse).outcome
            == verify_section_theorem(K, L, POLE, fine).outcome
            == OUTCOME_EQUAL)
