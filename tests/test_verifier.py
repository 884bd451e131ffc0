from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrulab import verifier
from congrulab.bodies import ball, cube, ellipsoid, polytope
from congrulab.errors import (CongruenceHypothesisFailed, ConfigInvalidError,
                              DegenerateBodyError, DiameterHypothesisFailed)
from congrulab.funk import compose_with_matrix
from congrulab.orthogonal import identity, pole_reflection
from congrulab.registration import Classification
from congrulab.sphere import (complement_basis, directions_orthogonal_to,
                              gauss_latitude_nodes, random_directions, unit)
from congrulab.verifier import (OUTCOME_BOTH, OUTCOME_EQUAL,
                                OUTCOME_INCONCLUSIVE, OUTCOME_REFLECTED,
                                OUTCOME_ZERO_ODD, Verdict, VerifyConfig,
                                aggregate_labels, decide_functional_equation,
                                verify_projection_theorem,
                                verify_section_theorem)

from helpers import (band_limited_field, even_field, even_parts_equal, odd_field,
                     planted_polytope)

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
    f = band_limited_field(93)
    g = lambda x: f(x) + 0.05 * (np.asarray(x) @ POLE) ** 2
    v = decide_functional_equation(f, g, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "even parts differ" in v.reason


def test_decide_unrelated_inconclusive():
    f = odd_field(94, POLE)
    g = odd_field(95, POLE)
    v = decide_functional_equation(f, g, POLE, FIELD_CFG)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "no rotation registers" in v.reason


def test_decide_flip_family_surfaced():
    # a global half-turn u0-axis map realizes flips on every working sphere
    # orthogonal to u0; restricted to those spheres the pipeline must report
    # the violated symmetry hypotheses instead of resolving
    f = odd_field(96, POLE)
    basis = complement_basis(POLE)
    u0 = basis[0]
    M = 2.0 * np.outer(u0, u0) - np.eye(4)
    g = compose_with_matrix(f, M)
    b1, b2 = basis[1], basis[2]
    ts = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    w_ring = tuple(tuple(np.cos(t) * b1 + np.sin(t) * b2) for t in ts)
    cfg = VerifyConfig(n_t=16, n_azimuth=128, w_samples=12, circle_nodes=128,
                       out_of_sample=512)
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
        VerifyConfig(n_azimuth=13).validate()
    # the even parts are compared on the working-sphere grid itself
    VerifyConfig(n_azimuth=128, circle_nodes=128).validate()
    with pytest.raises(ConfigInvalidError):
        VerifyConfig(n_azimuth=128, circle_nodes=128 + 2).validate()


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


def test_even_devs_match_reference_check():
    K = planted_polytope(117, POLE)
    L = planted_polytope(118, POLE)
    w_dirs = directions_orthogonal_to(POLE, 8)
    cfg = VerifyConfig(n_t=16, n_azimuth=64, out_of_sample=256)
    v = decide_functional_equation(K.support, L.support, POLE, cfg, w_dirs=w_dirs)
    t_nodes, _ = gauss_latitude_nodes(cfg.n_t)
    ref = even_parts_equal(K.support, L.support, POLE, t_nodes, w_dirs,
                           circle_nodes=cfg.n_azimuth)
    assert ref.direct_dev > 0 and ref.transform_dev > 0
    assert v.report["even_direct_dev"] == ref.direct_dev
    assert v.report["even_transform_dev"] == ref.transform_dev
    assert v.report["scale"] == max(ref.f_sup, ref.g_sup)


def _cl(alpha=None, label="fix_pole", f_sup=1.0, residual=1e-12):
    from congrulab.registration import RotationWitness
    from congrulab.sphere import make_frame
    frame = make_frame(POLE, complement_basis(POLE)[0])
    wit = RotationWitness(frame=frame, kind="fix_pole",
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


def test_projection_planted_reflection():
    K = planted_polytope(111, POLE)
    b = 0.3 * unit(RNG.standard_normal(4))
    L = K.apply(pole_reflection(POLE), b)
    v = verify_projection_theorem(K, L, POLE, BODY_CFG)
    assert v.outcome == OUTCOME_REFLECTED
    assert np.linalg.norm(v.translation - b) <= 1e-6 * 2.0


def test_projection_diameter_hypothesis_failure():
    with pytest.raises((DiameterHypothesisFailed, DegenerateBodyError)):
        verify_projection_theorem(ball(), ellipsoid([2, 1, 1, 1]),
                                  np.array([1.0, 0, 0, 0]), BODY_CFG)
    # widths differ along the pole
    with pytest.raises(DiameterHypothesisFailed):
        verify_projection_theorem(ellipsoid([2, 1, 1, 1]),
                                  ellipsoid([3, 1, 1, 1]),
                                  np.array([1.0, 0, 0, 0]), BODY_CFG)


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
    assert isinstance(d["hypothesis_report"], dict)
    assert len(d["translation"]) == 4


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


def test_section_planted_reflection():
    K = planted_polytope(121, POLE, through_origin=True, kind="star")
    L = K.apply(pole_reflection(POLE))
    v = verify_section_theorem(K, L, POLE, BODY_CFG)
    assert v.outcome == OUTCOME_REFLECTED
    assert np.linalg.norm(v.translation) <= 1e-6 * 2.0


SMALL_CFG = VerifyConfig(n_t=8, n_azimuth=32, w_samples=4, out_of_sample=256)
_vector = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(pole=_vector.filter(lambda v: np.linalg.norm(v) > 0.1),
       seed=st.integers(0, 2**16), b=_vector, reflect=st.booleans(),
       section=st.booleans())
def test_planted_recovery_property(pole, seed, b, reflect, section):
    # verify(K, U K + b) recovers b, U the identity or the pole reflection;
    # sections shift along the pole by at most 0.12, keeping the origin interior
    pole = unit(pole)
    U = pole_reflection(pole) if reflect else identity()
    if section:
        K = planted_polytope(seed, pole, through_origin=True, kind="star")
        b = 0.12 * b[0] * pole
        v = verify_section_theorem(K, K.apply(U, b), pole, SMALL_CFG)
    else:
        K = planted_polytope(seed, pole)
        b = 0.6 * np.asarray(b)
        v = verify_projection_theorem(K, K.apply(U, b), pole, SMALL_CFG)
    assert v.outcome == (OUTCOME_REFLECTED if reflect else OUTCOME_EQUAL)
    assert np.linalg.norm(v.translation - b) <= 1e-6 * 2.0


def test_section_off_axis_shift_breaks_congruence():
    K = planted_polytope(122, POLE, through_origin=True, kind="star")
    basis = complement_basis(POLE)
    shift = 0.08 * 2.0 * basis[0]
    L = K.translate(shift)
    with pytest.raises(CongruenceHypothesisFailed):
        verify_section_theorem(K, L, POLE, BODY_CFG)


def test_section_requires_origin_diameter():
    K = planted_polytope(123, POLE)    # diameter not through the origin
    with pytest.raises(DiameterHypothesisFailed):
        verify_section_theorem(K, K, POLE, BODY_CFG)


def test_section_alignment_classifications_reused(monkeypatch):
    # the alignment search registers both alignments on the 6 probe spheres;
    # the decision certifies from the chosen one's 6 and registers the other
    # w - 6 full restrictions and all w odd parts
    calls = [0]
    classify = verifier.classify_direction

    def counted(*args):
        calls[0] += 1
        return classify(*args)

    monkeypatch.setattr(verifier, "classify_direction", counted)
    K = planted_polytope(125, POLE, through_origin=True, kind="star")
    L = K.apply(pole_reflection(POLE), 0.05 * POLE)
    w = 12
    cfg = VerifyConfig(n_t=16, n_azimuth=64, w_samples=w, out_of_sample=256)
    v = verify_section_theorem(K, L, POLE, cfg)
    assert v.outcome == OUTCOME_REFLECTED
    assert calls[0] == 2 * w + 6


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
