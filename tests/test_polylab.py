from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congrulab import polylab
from congrulab.bodies import (Body4, BumpShape, BumpTerm, EllipsoidShape, ball,
                              cube, ellipsoid, polytope)
from congrulab.errors import (BudgetExhaustedError, ConfigInvalidError,
                              DegenerateProjectionError, InsufficientDataError,
                              TooFewVerticesError)
from congrulab.orthogonal import Orthogonal4
from congrulab.polylab import (GAP_ITERS, GAP_MIN_STEP, GAP_STEP, MIN_VERTICES,
                               Polytope3, _ranked_points, _symmetry_scan,
                               approximation_rate,
                               detect_rigid_symmetries,
                               hausdorff_distance, inscribe_polytope,
                               match_congruent, perturb_to_asymmetric,
                               project_polytope, random_subspace_bases)
from congrulab.sphere import random_directions, unit

from helpers import brute_force_symmetries, lloyd_polytope, walked_inscribed_polytope

RNG = np.random.default_rng(707)

TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
BOX = np.array([[sx * 1.0, sy * 2.0, sz * 3.0]
                for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
CUBE3 = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                  for sz in (-1, 1)], dtype=float)
ID_BASIS = np.eye(4)[:3]


def skew_tetra():
    # distinct radial stretches of the vertices kill every symmetry
    factors = np.array([1.03, 1.05, 0.97, 1.01])
    return TETRA * factors[:, None]


# -- hausdorff ---------------------------------------------------------------


def test_hausdorff_balls():
    assert hausdorff_distance(ball(1.0), ball(2.0)) == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_translated_ball():
    K = ball(1.0)
    assert hausdorff_distance(K, K.translate([0.25, 0, 0, 0])) \
        == pytest.approx(0.25, abs=1e-8)


def test_hausdorff_cube_vs_cross_polytope_dense_oracle():
    C = cube()
    cross = polytope(np.vstack([np.eye(4), -np.eye(4)]) * 1.0)
    got = hausdorff_distance(C, cross, n_sample=8192)
    dense = random_directions(200_000, np.random.default_rng(1))
    oracle = float(np.max(np.abs(C.support(dense) - cross.support(dense))))
    assert got >= oracle - 1e-4
    # analytic max of |theta|_1 - |theta|_inf on the sphere: 3/2 at the
    # diagonal, a facet normal of the cross-polytope
    assert got == pytest.approx(1.5, abs=1e-12)


def test_hausdorff_reaches_the_facet_normal_peak():
    # the gap to an inscribed polytope peaks at one of its facet normals;
    # a single ascent from the best of 8192 samples stopped 17% below it,
    # and a 400,000-direction sample reads 0.048274
    E = ellipsoid([1.0, 0.9, 0.8, 1.1])
    P = lloyd_polytope(E, 640, seed=4)
    assert hausdorff_distance(E, P, seed=1004) >= 0.048274


def test_hausdorff_climbs_the_arc_where_vertices_tie():
    # a coarse polytope in a flat ellipsoid: the gap peaks on an arc between
    # facet normals, where three vertices tie.  An ascent that steps across
    # the ties instead of along them stops 3% below the sup, and below this
    # dense sample
    E = ellipsoid([1.9, 1.1, 2.0, 0.3])
    P = lloyd_polytope(E, 24, seed=4)
    dense = random_directions(400_000, np.random.default_rng(1))
    assert hausdorff_distance(E, P) >= np.max(np.abs(E.support(dense) - P.support(dense)))


@settings(max_examples=20)
@given(v=st.integers(20, 200), seed=st.integers(0, 2**32 - 1),
       semiaxes=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4))
def test_hausdorff_inscribed_at_least_a_dense_sample(v, seed, semiaxes):
    # the result is a lower bound on the sup, but it must not fall below an
    # independent 100,000-direction sample, whichever body comes first
    rng = np.random.default_rng(seed)
    rot = Orthogonal4(np.linalg.qr(rng.standard_normal((4, 4)))[0])
    E = ellipsoid(semiaxes).apply(rot, rng.uniform(-1.0, 1.0, 4))
    P = lloyd_polytope(E, v, seed=seed)
    got = hausdorff_distance(E, P, seed=seed)
    dense = random_directions(100_000, rng)
    assert got >= np.max(np.abs(E.support(dense) - P.support(dense)))
    assert hausdorff_distance(P, E, seed=seed) == got


def halving_ascent_direction(K, L, theta, reach):
    # the oracle's step direction: the near-tie set is read afresh at every
    # angle, and only (up, slope) come back
    yk, hk = _ranked_points(K, theta)
    yl, hl = _ranked_points(L, theta)
    k_above = hk[:, :1] >= hl[:, :1]
    x = np.where(k_above, yk[:, 0], yl[:, 0])
    y = np.where(k_above[..., None], yl, yk)
    h = np.where(k_above, hl, hk)
    ties = y[:, 1:] - y[:, :1]
    near = h[:, :1] - h[:, 1:] <= reach * np.linalg.norm(ties, axis=2)
    M = np.concatenate([theta[:, None], ties * near[..., None]], axis=1)
    grad = x - y[:, 0]
    up = grad - (np.linalg.pinv(M) @ (M @ grad[..., None]))[..., 0]
    slope = np.linalg.norm(up, axis=1)
    slope[slope <= 1e-12 * np.linalg.norm(grad, axis=1)] = 0.0
    return np.divide(up, slope[:, None], out=np.zeros_like(up),
                     where=slope[:, None] > 0), slope


def halving_gap_ascent(K, L, theta, gap):
    # the oracle: every live start reads a trial at every step, and a start
    # whose every direction is tied off halves its angle in place, one step
    # per halving
    angle = np.full(len(theta), GAP_STEP)
    for _ in range(GAP_ITERS):
        live = np.flatnonzero(angle >= GAP_MIN_STEP)
        if not live.size:
            break
        a = angle[live, None]
        up, slope = halving_ascent_direction(K, L, theta[live], a)
        trial = np.cos(a) * theta[live] + np.sin(a) * up
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        g = np.abs(K.support(trial) - L.support(trial))
        rise = (slope > 0) & (g > gap[live] + 0.5 * np.sin(a[:, 0]) * slope)
        theta[live[rise]], gap[live[rise]] = trial[rise], g[rise]
        angle[live[~rise]] /= 2
    return float(np.max(gap))


def halving_hausdorff_distance(K, L, **kw):
    with mock.patch.object(polylab, "_gap_ascent", halving_gap_ascent):
        return hausdorff_distance(K, L, **kw)


def _facet_normal_peak():
    E = ellipsoid([1.0, 0.9, 0.8, 1.1])
    return E, lloyd_polytope(E, 640, seed=4)


def _tie_arc():
    E = ellipsoid([1.9, 1.1, 2.0, 0.3])
    return E, lloyd_polytope(E, 24, seed=4)


@pytest.mark.parametrize("case, kw", [
    (_facet_normal_peak, {"seed": 1004}),
    (_tie_arc, {}),
    (lambda: (cube(), polytope(np.vstack([np.eye(4), -np.eye(4)]))), {}),
], ids=["facet-normal-peak", "tie-arc", "cube-cross"])
def test_hausdorff_matches_the_halving_oracle(case, kw):
    K, L = case()
    got = hausdorff_distance(K, L, **kw)
    assert got == halving_hausdorff_distance(K, L, **kw)
    assert hausdorff_distance(L, K, **kw) == halving_hausdorff_distance(L, K, **kw)


@settings(max_examples=20)
@given(v=st.integers(20, 200), seed=st.integers(0, 2**32 - 1),
       semiaxes=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4))
def test_hausdorff_inscribed_matches_the_halving_oracle(v, seed, semiaxes):
    rng = np.random.default_rng(seed)
    rot = Orthogonal4(np.linalg.qr(rng.standard_normal((4, 4)))[0])
    E = ellipsoid(semiaxes).apply(rot, rng.uniform(-1.0, 1.0, 4))
    P = lloyd_polytope(E, v, seed=seed)
    assert hausdorff_distance(E, P, seed=seed) == halving_hausdorff_distance(E, P, seed=seed)


def _support_calls(monkeypatch, K, L, distance, **kw):
    # the batch size of each Body4.support call one distance makes
    calls, support = [], Body4.support

    def counted(body, theta):
        calls.append(len(theta))
        return support(body, theta)

    with monkeypatch.context() as m:
        m.setattr(Body4, "support", counted)
        distance(K, L, **kw)
    return calls


def test_tied_starts_read_no_trial(monkeypatch):
    # on the facet-normal peak every start sits on a corner of the normal fan
    # and stays tied off down to GAP_MIN_STEP: it leaves without a trial, so
    # the two candidate batches are the only support calls.  The oracle read
    # a trial pair at each of its 30 halvings.
    E, P = _facet_normal_peak()
    assert GAP_STEP / 2 ** 30 < GAP_MIN_STEP <= GAP_STEP / 2 ** 29
    assert _support_calls(monkeypatch, E, P, hausdorff_distance, seed=1004) == [8192 + len(
        P.shape.facets[0])] * 2
    assert len(_support_calls(monkeypatch, E, P, halving_hausdorff_distance, seed=1004)) == 62


@pytest.mark.parametrize("n_sample", [0, -1])
def test_sample_count_below_one_is_a_config_error(n_sample):
    with pytest.raises(ConfigInvalidError, match="n_sample"):
        hausdorff_distance(ball(), ball(2.0), n_sample=n_sample)
    with pytest.raises(ConfigInvalidError, match="n_sample"):
        approximation_rate(ball(), [40, 80], n_sample=n_sample)


# -- inscribed approximation -----------------------------------------------------


def test_inscribe_vertices_on_boundary():
    E = ellipsoid([1.5, 1.2, 1.0, 0.8])
    P = inscribe_polytope(E, 40)
    V = P.shape.vertices
    dirs = V / np.linalg.norm(V, axis=1, keepdims=True)
    # radial check: each vertex radius matches the body's radial value
    assert np.max(np.abs(E.radial(dirs) - np.linalg.norm(V, axis=1))) < 1e-10


def test_inscribe_hull_contains_centroid():
    P = inscribe_polytope(ball(), 40)
    c = P.shape.vertices.mean(axis=0)
    assert P.radial(unit(RNG.standard_normal(4))) > 0   # origin interior
    assert np.linalg.norm(c) < 0.2


def test_inscribe_delta_decreases_on_ball():
    B = ball()
    deltas = [hausdorff_distance(B, inscribe_polytope(B, v), n_sample=4096)
              for v in (40, 80, 160, 320)]
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))


@settings(max_examples=20)
@given(v=st.integers(MIN_VERTICES, 120), extra=st.integers(1, 80),
       seed=st.integers(0, 2**32 - 1),
       semiaxes=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4))
def test_inscribe_is_a_nested_build_of_support_points(v, extra, seed, semiaxes):
    # on E = Q (standard ellipsoid of semiaxes a) + b, a boundary point
    # x = Q y + b has outward normal Q (y / a^2), and E's support point at a
    # unit u is M u / sqrt(u . M u) + b with M = Q diag(a^2) Q^T
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    b = rng.uniform(-1.0, 1.0, 4)
    a = np.asarray(semiaxes)
    E = ellipsoid(a).apply(Orthogonal4(Q), b)
    V = inscribe_polytope(E, v).shape.vertices
    assert V.shape == (v, 4)
    u = unit(((V - b) @ Q) / a ** 2 @ Q.T)
    Mu = u @ ((Q * a ** 2) @ Q.T)
    support_points = Mu / np.sqrt(np.sum(Mu * u, axis=1))[:, None] + b
    assert np.max(np.linalg.norm(support_points - V, axis=1)) <= 1e-10 * 2 * a.max()
    assert inscribe_polytope(E, v + extra).shape.vertices[:v].tobytes() == V.tobytes()
    assert inscribe_polytope(E, v).shape.vertices.tobytes() == V.tobytes()


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), points=st.one_of(st.just(0), st.integers(5, 60)),
       v=st.integers(MIN_VERTICES, 160))
@example(seed=1, points=6, v=5)
@example(seed=2, points=6, v=40)
def test_inscribe_picks_the_facets_the_per_facet_walk_picks(seed, points, v):
    # a rotated, translated ellipsoid (points = 0) or the hull of Gaussian
    # points, whose simplex start can repeat or lie flat (seeds 1 and 2 at 6
    # points): one mask update per picked facet gives bitwise the vertices of
    # the walk that tests each visited facet against every pick before it
    rng = np.random.default_rng(seed)
    if points:
        K = polytope(rng.standard_normal((points, 4)))
    else:
        rot = Orthogonal4(np.linalg.qr(rng.standard_normal((4, 4)))[0])
        K = ellipsoid(rng.uniform(0.2, 2.0, 4)).apply(rot, rng.uniform(-1.0, 1.0, 4))
    V = inscribe_polytope(K, v).shape.vertices
    assert V.tobytes() == walked_inscribed_polytope(K, v).shape.vertices.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_inscribe_reaches_across_a_flat_simplex_start(seed):
    # these 6-vertex polytopes give 4 (seed 1) and 3 (seed 2) distinct support
    # points at the simplex directions, which qhull cannot start from
    P = polytope(np.random.default_rng(seed).standard_normal((6, 4)))
    V = inscribe_polytope(P, 5).shape.vertices
    assert np.linalg.matrix_rank(V - V[0]) == 4
    assert set(map(tuple, V)) <= set(map(tuple, P.shape.vertices))
    with pytest.raises(InsufficientDataError, match=r"\[40, 80\]"):
        approximation_rate(P, [40, 80])


@pytest.mark.parametrize("v_list", [[4, 40], [40.7, 80]], ids=["below-minimum", "not-integral"])
def test_bad_vertex_budget_is_a_config_error(v_list):
    with pytest.raises(ConfigInvalidError, match="vertex budgets"):
        inscribe_polytope(ball(), v_list[0])
    with pytest.raises(ConfigInvalidError, match="vertex budgets"):
        approximation_rate(ball(), v_list)


def test_rate_requires_enough_data():
    with pytest.raises(InsufficientDataError):
        approximation_rate(ball(), [40])


def test_rate_rejects_exact_reproduction():
    # the 4-cube's 16 vertices are all support points at these budgets, so
    # each inscribed polytope is the cube and log(delta) is undefined
    with pytest.raises(InsufficientDataError, match=r"\[40, 80\]"):
        approximation_rate(cube(), [40, 80])


def test_rate_scale_invariance():
    fit1 = approximation_rate(ellipsoid([1.0, 0.9, 0.8, 1.1]), [40, 80, 160],
                              seed=2, n_sample=4096)
    fit2 = approximation_rate(ellipsoid([2.0, 1.8, 1.6, 2.2]), [40, 80, 160],
                              seed=2, n_sample=4096)
    assert abs(fit1.exponent - fit2.exponent) < 0.05


# -- shadows ----------------------------------------------------------------------


def test_project_cube_to_coordinate_subspace():
    Q = project_polytope(cube(), ID_BASIS)
    assert len(Q.vertices) == 8
    expect = {tuple(v) for v in CUBE3}
    got = {tuple(np.round(v, 12)) for v in Q.vertices}
    assert got == expect


def test_projection_support_restriction():
    K = polytope(RNG.standard_normal((20, 4)))
    q, _ = np.linalg.qr(RNG.standard_normal((4, 3)))
    basis = q.T
    Q = project_polytope(K, basis)
    th3 = unit(RNG.standard_normal((100, 3)))
    assert np.max(np.abs(Q.support(th3) - K.support(th3 @ basis))) < 1e-12


def test_projection_cannot_add_vertices():
    simplex = polytope(np.vstack([np.zeros(4), np.eye(4)]) + 0.01)
    for basis in random_subspace_bases(5, seed=2):
        Q = project_polytope(simplex, basis)
        assert len(Q.vertices) <= 5


def _thin_polytope(n: int, seed: int):
    """A full-dimensional polytope 1e-9 thick in two of its four directions:
    every 3D shadow of it is flat at the projection's rank tolerance."""
    rng = np.random.default_rng(seed)
    return polytope(np.hstack([100.0 * rng.standard_normal((n, 2)),
                               1e-9 * rng.standard_normal((n, 2))]))


def test_degenerate_projection_raises():
    K = _thin_polytope(8, seed=0)
    with pytest.raises(DegenerateProjectionError):
        project_polytope(K, np.eye(4)[[0, 2, 3]])


# -- symmetry detection -------------------------------------------------------------


def test_tetrahedron_symmetries_match_brute_force():
    Q = Polytope3(vertices=TETRA, basis=ID_BASIS)
    syms = detect_rigid_symmetries(Q, 1e-8)
    oracle = brute_force_symmetries(TETRA, 1e-8)
    assert len(syms) == len(oracle) == 23
    for rec in syms:
        assert rec.verify(TETRA, 1e-8)


def test_box_symmetries_match_brute_force():
    Q = Polytope3(vertices=BOX, basis=ID_BASIS)
    syms = detect_rigid_symmetries(Q, 1e-8)
    oracle = brute_force_symmetries(BOX, 1e-8)
    assert len(syms) == len(oracle) == 7


def test_cube_symmetry_count():
    Q = Polytope3(vertices=CUBE3, basis=ID_BASIS)
    assert len(detect_rigid_symmetries(Q, 1e-8)) == 47


def test_skew_tetrahedron_asymmetric():
    V = skew_tetra()
    Q = Polytope3(vertices=V, basis=ID_BASIS)
    assert detect_rigid_symmetries(Q, 1e-8) == []
    assert len(brute_force_symmetries(V, 1e-8)) == 0
    assert _symmetry_scan(Q, 1e-8, 1e-6)[1] > 1e-3


def test_single_vertex_radial_stretch_keeps_axis_symmetry():
    # moving one vertex along its own axis preserves the 3-fold symmetry
    # about that axis, so it must NOT produce an asymmetric polytope
    V = TETRA.copy()
    V[0] *= 1.05
    Q = Polytope3(vertices=V, basis=ID_BASIS)
    syms = detect_rigid_symmetries(Q, 1e-8)
    oracle = brute_force_symmetries(V, 1e-8)
    assert len(syms) == len(oracle) == 5


def test_symmetries_reverified_independently():
    Q = Polytope3(vertices=BOX, basis=ID_BASIS)
    for rec in detect_rigid_symmetries(Q, 1e-8):
        image = BOX[list(rec.permutation)] @ rec.phi.T + rec.shift
        assert np.max(np.linalg.norm(image - BOX, axis=1)) <= 1e-8
        assert np.max(np.abs(rec.phi.T @ rec.phi - np.eye(3))) < 1e-8


def test_symmetry_conjugation_equivariance():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    Q = Polytope3(vertices=TETRA, basis=ID_BASIS)
    QR = Polytope3(vertices=TETRA @ q.T, basis=ID_BASIS)
    syms = detect_rigid_symmetries(Q, 1e-8)
    syms_r = detect_rigid_symmetries(QR, 1e-8)
    assert len(syms) == len(syms_r) == 23
    rotated = [q @ s.phi @ q.T for s in syms]
    for phi in rotated:
        assert min(np.max(np.abs(phi - s.phi)) for s in syms_r) < 1e-8


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(4, 7),
       kind=st.sampled_from(["none", "point_reflection", "half_turn"]))
def test_symmetries_match_brute_force_on_random_sets(seed, size, kind):
    # a generic set, or one symmetrised by an involution: pairs (p, R p) plus,
    # for an odd size, one point fixed by R (the centre, or a point on the axis)
    rng = np.random.default_rng(seed)
    if kind == "none":
        V = rng.standard_normal((size, 3))
    elif kind == "point_reflection":
        # three pairs are needed to span R^3
        pairs = rng.standard_normal((3, 3))
        V = np.vstack([pairs, -pairs] + [np.zeros((1, 3))] * (size % 2))
    else:
        axis = unit(rng.standard_normal(3))
        pairs = rng.standard_normal((size // 2, 3))
        R = 2 * np.outer(axis, axis) - np.eye(3)
        V = np.vstack([pairs, pairs @ R.T] + [rng.standard_normal() * axis[None, :]] * (size % 2))
    V = V + rng.standard_normal(3)
    got = {rec.permutation for rec in
           detect_rigid_symmetries(Polytope3(vertices=V, basis=ID_BASIS), 1e-8)}
    assert got == {perm for perm, _ in brute_force_symmetries(V, 1e-8)}
    assert bool(got) == (kind != "none")


def test_too_few_vertices():
    with pytest.raises(TooFewVerticesError):
        detect_rigid_symmetries(Polytope3(vertices=TETRA[:3], basis=ID_BASIS), 1e-8)


@pytest.mark.parametrize("V", [np.zeros((4, 3)), TETRA * np.array([1.0, 1.0, 0.0])],
                         ids=["coincident", "planar"])
def test_flat_vertex_set_raises(V):
    Q = Polytope3(vertices=V, basis=ID_BASIS)
    for search in (detect_rigid_symmetries, lambda Q: _symmetry_scan(Q, 1e-8, 1e-6),
                   lambda Q: match_congruent(Q, Q)):
        with pytest.raises(DegenerateProjectionError):
            search(Q)


def test_match_congruent_recovers_motion():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    shift = np.array([0.4, -0.2, 0.9])
    V = skew_tetra()
    Q1 = Polytope3(vertices=V, basis=ID_BASIS)
    Q2 = Polytope3(vertices=V @ q.T + shift, basis=ID_BASIS)
    got = match_congruent(Q1, Q2, 1e-8)
    assert got is not None
    phi, a, perm = got
    assert np.max(np.abs(phi - q)) < 1e-8
    assert np.max(np.abs(a - shift)) < 1e-8
    assert match_congruent(Q1, Polytope3(vertices=V * 1.3, basis=ID_BASIS),
                           1e-8) is None


def test_match_congruent_mirror_image_needs_improper_map():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    V = skew_tetra()
    W = (V * np.array([-1.0, 1.0, 1.0])) @ q.T + np.array([0.3, 0.7, -0.5])
    Q1, Q2 = Polytope3(vertices=V, basis=ID_BASIS), Polytope3(vertices=W, basis=ID_BASIS)
    assert match_congruent(Q1, Q2, 1e-8) is None
    phi, a, perm = match_congruent(Q1, Q2, 1e-8, proper_only=False)
    assert np.linalg.det(phi) < 0
    assert np.max(np.linalg.norm(V[list(perm)] @ phi.T + a - W, axis=1)) <= 1e-8


@pytest.mark.parametrize("scale", [1e-12, 1e-5, 1e-2, 1.0, 1e3])
def test_symmetry_search_is_scale_free(scale):
    # the degeneracy rules are relative to the vertex scale, so a scaled copy
    # keeps its symmetries and congruences at a tolerance scaled with it
    tol = 1e-8 * scale
    V = CUBE3 * scale
    assert len(detect_rigid_symmetries(Polytope3(vertices=V, basis=ID_BASIS), tol)) == 47
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    W = V @ q.T + scale * np.array([0.4, -0.2, 0.9])
    phi, a, perm = match_congruent(Polytope3(vertices=V, basis=ID_BASIS),
                                   Polytope3(vertices=W, basis=ID_BASIS), tol)
    assert np.max(np.linalg.norm(V[list(perm)] @ phi.T + a - W, axis=1)) <= tol
    shadow = project_polytope(cube(scale), random_subspace_bases(1, seed=2)[0])
    assert len(detect_rigid_symmetries(shadow, tol)) == 1


# -- perturbation ---------------------------------------------------------------------


def test_perturb_cube_to_asymmetric():
    bases = random_subspace_bases(12, seed=3)
    P2, cert = perturb_to_asymmetric(cube(), bases, tol=1e-8, seed=1)
    diam = 4.0
    assert cert.delta <= 1e-2 * diam
    assert all(s["symmetries"] == 0 for s in cert.subspaces)
    # certificate re-checked by the exhaustive oracle on a few subspaces
    for basis in bases[:3]:
        Q = project_polytope(P2, basis)
        if len(Q.vertices) <= 8:
            assert len(brute_force_symmetries(Q.vertices, 1e-8)) == 0
        assert detect_rigid_symmetries(Q, 1e-8) == []
    # the certificate's single scan agrees with the public search and the
    # smallest residual of the scan at the default tolerance
    for s in cert.subspaces:
        Q = project_polytope(P2, s["basis"])
        assert s["symmetries"] == len(detect_rigid_symmetries(Q, 1e-8))
        assert s["min_symmetry_residual"] == _symmetry_scan(Q, 1e-8, 1e-6)[1]
    d = hausdorff_distance(cube(), P2, n_sample=4096)
    assert d <= 1e-2 * diam + 1e-12


def test_perturb_already_asymmetric_returns_unchanged():
    P = polytope(np.random.default_rng(9).standard_normal((14, 4)))
    bases = random_subspace_bases(8, seed=5)
    P2, cert = perturb_to_asymmetric(P, bases, tol=1e-8, seed=2)
    assert cert.rounds == 0 and cert.delta == 0.0
    assert P2 is P


def test_perturb_degenerate_input():
    P = _thin_polytope(10, seed=1)
    with pytest.raises((DegenerateProjectionError, BudgetExhaustedError)):
        perturb_to_asymmetric(P, random_subspace_bases(4, seed=1), seed=0)


def test_certificate_json():
    bases = random_subspace_bases(4, seed=7)
    _, cert = perturb_to_asymmetric(cube(), bases, tol=1e-8, seed=4)
    d = cert.to_json_dict()
    assert set(d) == {"delta", "epsilon_final", "rounds", "subspaces"}
    assert len(d["subspaces"]) == 4
    assert all("min_symmetry_residual" in s for s in d["subspaces"])
