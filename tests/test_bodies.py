import functools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from congrulab import bodies
from congrulab.bodies import (_N_SCAN, _PRODUCT_BLOCK, _SCAN_DIRS,
                              _SCAN_SEED, MAX_BUMP_DEGREE, Body4, BumpShape,
                              BumpTerm, EllipsoidShape, PolytopeShape,
                              _min_hessian_eigenvalue, _points_per_block, _smooth_jet,
                              _tangent_basis, _width_hessian, ball,
                              body_from_spec, body_to_spec, cube, diameter_segment,
                              ellipsoid, farthest_vertex_pairs, find_diameters, polytope,
                              shape_from_spec, shape_to_spec)
from congrulab.errors import (DegenerateBodyError, DiameterHypothesisFailed,
                              NonOrthogonalError, OriginOutsideError, UnsupportedKindError)
from congrulab.funk import sample_on_sphere
from congrulab.orthogonal import Orthogonal4, pole_reflection
from congrulab.sphere import (complement_basis, directions_orthogonal_to, evaluate_field,
                              gauss_grid, make_frame, random_directions, unit)
from congrulab.verifier import VerifyConfig, verify_projection_theorem

from helpers import (brute_force_diameters, bump_support_by_powers, narrow_cone_polytope,
                     planted_polytope, stencil_min_hessian_eigenvalue)

RNG = np.random.default_rng(303)


def random_orthogonal(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return Orthogonal4(q)


# -- support ---------------------------------------------------------------


def test_support_ball_and_cube():
    assert ball().support(unit(RNG.standard_normal(4))) == pytest.approx(1.0)
    C = cube()
    assert C.support([1, 0, 0, 0]) == pytest.approx(1.0)


def test_support_cube_diagonal_matches_vertex_enumeration():
    C = cube()
    th = np.array([0.5, 0.5, 0.5, 0.5])
    brute = max(float(th @ v) for v in C.shape.vertices)
    assert brute == pytest.approx(2.0)
    assert C.support(th) == pytest.approx(brute)


def test_support_translation_identity():
    K = planted_polytope(1, unit(RNG.standard_normal(4)))
    a = RNG.standard_normal(4)
    thetas = random_directions(200, RNG)
    shifted = K.translate(a)
    assert np.max(np.abs(shifted.support(thetas) - K.support(thetas)
                         - thetas @ a)) < 1e-12


def test_support_transform_chain_vs_explicit_vertices():
    K = polytope(RNG.standard_normal((15, 4)))
    U = random_orthogonal(RNG)
    a = RNG.standard_normal(4)
    KA = K.apply(U, a)
    KV = polytope(K.shape.vertices @ U.matrix.T + a)
    thetas = random_directions(300, RNG)
    assert np.max(np.abs(KA.support(thetas) - KV.support(thetas))) < 1e-10


def test_support_sublinearity_sampled():
    bodies = [cube(), ellipsoid([1.5, 1.2, 1.0, 0.8]),
              planted_polytope(5, unit(RNG.standard_normal(4)))]
    for K in bodies:
        u = random_directions(200, RNG)
        v = random_directions(200, RNG)
        s = u + v
        ns = np.linalg.norm(s, axis=1)
        lhs = ns * K.support(s / ns[:, None])
        assert np.all(lhs <= K.support(u) + K.support(v) + 1e-10)


def _ulps(got, want):
    return np.max(np.abs(got - want) / np.spacing(np.abs(want)), initial=0.0)


def _exact_dot(t, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(t, v))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (6,), (2, 5)]))
def test_polytope_fields_match_brute_force(seed, shape):
    # a planted star polytope, rotated and shifted by at most 0.1; before the
    # shift the origin is 0.16 inside the cross-polytope around the centre
    rng = np.random.default_rng(seed)
    K = planted_polytope(seed, unit(rng.standard_normal(4)), through_origin=True,
                         kind="star")
    K = K.apply(random_orthogonal(rng), 0.1 * rng.uniform() * unit(rng.standard_normal(4)))
    assert K.contains_origin_interior()
    R, b = K.folded
    A, off = K.shape.facets
    V = K.shape.vertices @ R.T + b
    M = R @ A.T                              # column f: world facet normal
    rhs = A @ (R.T @ b) - off
    theta = random_directions(int(np.prod(shape)), rng).reshape(shape + (4,))
    flat = theta.reshape(-1, 4)
    # exact rationals, rounded once: the brute-force maxima of the float data
    sup = [float(max(_exact_dot(t, v) for v in V)) for t in flat]
    rad = [float(1 / max(_exact_dot(t, m) / Fraction(r) for m, r in zip(M.T, rhs)))
           for t in flat]

    h, rho, w = K.support(theta), K.radial(theta), K.width(theta)
    assert np.shape(h) == np.shape(rho) == np.shape(w) == shape
    assert _ulps(np.reshape(h, -1), np.array(sup)) <= 4
    assert _ulps(np.reshape(rho, -1), np.array(rad)) <= 4
    if shape == ():
        assert type(h) is np.float64 and type(w) is np.float64
        assert type(rho) is float


def _rows_read(field):
    """Polar rows (radial) or vertices (support) a polytope field reads."""
    body = field.__self__
    return len(body._polar_rows if field.__name__ == "radial"
               else body._world_vertices)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_polytope_field_rows_independent_of_batch_size(seed):
    # a direction's value is the same in every batch, a lone (4,) direction
    # and a batch of one included
    rng = np.random.default_rng(seed)
    K = planted_polytope(seed, unit(rng.standard_normal(4)), through_origin=True,
                         kind="star")
    K = K.apply(random_orthogonal(rng), 0.1 * rng.uniform() * unit(rng.standard_normal(4)))
    blocks = [_points_per_block(_rows_read(field)) for field in (K.support, K.radial)]
    theta = random_directions(2 * max(blocks) + 64, rng)
    for field, B in zip((K.support, K.radial), blocks):
        full = field(theta)
        for size in (1, 2, 7, B - 1, B, B + 1, 2 * B + 3):
            for start in (0, int(rng.integers(0, len(theta) - size))):
                rows = slice(start, start + size)
                assert np.array_equal(field(theta[rows]), full[rows])
        for k in rng.integers(0, len(theta), 16):
            assert field(theta[k]) == full[k]


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), bump=st.booleans())
def test_smooth_field_rows_independent_of_batch_size(seed, bump):
    # a rotated and translated ellipsoid or a bench-like bump: a direction's
    # support value and support point, and a star ellipsoid's radial, are the
    # same in every batch, a lone (4,) direction and a batch of one included
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, 4)
    K = _bench_like_bump(seed) if bump else ellipsoid(a)
    K = K.apply(random_orthogonal(rng), rng.uniform(-1.0, 1.0, 4))
    star = ellipsoid(a, kind="star").apply(random_orthogonal(rng),
                                           0.5 * a.min() * unit(rng.standard_normal(4)))
    theta = random_directions(64, rng)
    for field in (K.support, K.support_point, star.radial):
        full = field(theta)
        for size in (1, 2, 7, 16):
            for start in (0, int(rng.integers(0, len(theta) - size))):
                rows = slice(start, start + size)
                assert np.array_equal(field(theta[rows]), full[rows])
        for k in rng.integers(0, len(theta), 16):
            lone = field(theta[k])
            assert np.shape(lone) == np.shape(full[k]) and np.array_equal(lone, full[k])


def test_polytope_field_of_one_direction_is_one_matrix_vector_product():
    # a single (4,) direction is the first column of one product with a block
    # of 8 directions padded with zeros, so it rounds as it does in a batch,
    # and it gives a scalar
    K = planted_polytope(7, np.eye(4)[0], through_origin=True, kind="star")
    for t in random_directions(64, np.random.default_rng(7)):
        block = np.zeros((4, 8))
        block[:, 0] = t
        support, radial = K.support(t), K.radial(t)
        assert np.ndim(support) == 0 and np.ndim(radial) == 0
        assert support == np.max(K.effective_vertices() @ block, axis=0)[0]
        assert radial == 1.0 / np.max(K._polar_rows @ block, axis=0)[0]


def test_polytope_kernel_holds_one_block_of_at_most_2_mb():
    # every (rows x block) product fits one 2 MB buffer, whatever the batch:
    # a working-sphere grid over a whole star polytope's polar rows, the
    # rate experiment's support sample over 640 vertices, and the farthest
    # vertex screen over those 640 vertices, in find_diameters and on its own
    cap = 8 * _PRODUCT_BLOCK
    assert cap <= 2 << 20
    K = planted_polytope(1, np.eye(4)[0], through_origin=True, kind="star")
    assert len(K._polar_rows) >= 86
    theta = gauss_grid(make_frame(np.eye(4)[0], np.eye(4)[1]), n_t=64, n_azimuth=256).points
    P = polytope(random_directions(640, np.random.default_rng(1)))
    dirs = random_directions(8192, np.random.default_rng(2))
    for name, run in (("radial", lambda: K.radial(theta).nbytes),
                      ("support", lambda: P.support(dirs).nbytes),
                      ("find_diameters", lambda: find_diameters(P).directions.nbytes),
                      ("farthest_vertex_pairs", lambda: sum(
                          a.nbytes for a in farthest_vertex_pairs(P.effective_vertices())))):
        run()                                # the bodies' cached rows are built
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (cap + out), (name, peak)
    # up to 2^15 rows a block is a multiple of 8 within the cap; above that
    # the floor of 8 points exceeds it
    for m in range(1, 2**15 + 1):
        B = _points_per_block(m)
        assert B % 8 == 0 and m * B <= _PRODUCT_BLOCK, m
    assert (2**15 + 1) * _points_per_block(2**15 + 1) > _PRODUCT_BLOCK


def test_polar_rows_are_the_facet_rows_over_their_offsets():
    # world facet rows a_f over offsets rhs_f, bit for bit: the body is
    # {x : rows . x <= 1}, with equality at every vertex of each row's simplex
    rng = np.random.default_rng(11)
    K = planted_polytope(11, np.eye(4)[0], through_origin=True, kind="star")
    K = K.apply(random_orthogonal(rng), 0.05 * unit(rng.standard_normal(4)))
    R, b = K.folded
    A, off = K.shape.facets
    rows = K._polar_rows
    assert np.array_equal(rows, (A @ R.T) / (A @ (R.T @ b) - off)[:, None])
    touch = np.einsum("fk,fjk->fj", rows, K.effective_vertices()[K.shape.incidence])
    assert np.max(K.effective_vertices() @ rows.T) <= 1 + 1e-12
    assert np.max(np.abs(touch - 1)) <= 1e-12


def _cell24():
    e = np.eye(4)
    return np.array([s * e[i] + t * e[j] for i in range(4) for j in range(i + 1, 4)
                     for s in (-1.0, 1.0) for t in (-1.0, 1.0)])


def _sampled_rows(field, grid):
    """(values, rows): the field sampled on the grid, and the number of rows
    (radial) or vertices (support) of each polytope-kernel call it made."""
    read = []
    kernel = bodies._facet_major_max

    def reading(rows, theta, antipodal=False):
        read.append(len(rows))
        return kernel(rows, theta, antipodal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bodies, "_facet_major_max", reading)
        values = sample_on_sphere(field, grid).values
    return values, read


def _assert_restriction_exact(field, pole, w_dirs):
    """On each working sphere, sampling the field gives every grid value of
    the whole-S^3 field bit for bit, from one kernel call on the grid's
    upper rings; returns the rows it read per sphere.  A polytope's radial
    reads only the rows that can attain its max on that sphere, and its
    support reads every vertex."""
    kept = []
    for w in w_dirs:
        grid = gauss_grid(make_frame(pole, w), n_t=24, n_azimuth=128)
        values, read = _sampled_rows(field, grid)
        assert np.array_equal(values, field(grid.points))
        assert len(read) == 1
        kept.append(read[0])
    assert max(kept) <= _rows_read(field)
    if field.__name__ == "support":
        assert min(kept) == _rows_read(field)
    return kept


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), star=st.booleans(), on_boundary=st.booleans())
def test_polytope_field_restricted_to_working_spheres_is_exact(seed, star, on_boundary):
    # a planted polytope (star: radial; convex: support), rotated and shifted,
    # on the working spheres through a random pole; with ``on_boundary`` it
    # gains a facet simplex's barycentre and an edge midpoint, points on its
    # boundary that qhull makes no vertex of, so they are in no facet row
    rng = np.random.default_rng(seed)
    pole = unit(rng.standard_normal(4))
    K = planted_polytope(seed, pole, through_origin=star, kind="star" if star else "convex")
    V = K.shape.vertices
    if on_boundary:
        s = K.shape.incidence[rng.integers(len(K.shape.incidence))]
        V = np.vstack([V, V[s].mean(axis=0), 0.5 * (V[s[0]] + V[s[1]])])
    U = random_orthogonal(rng)
    shift = (0.05 if star else 1.0) * unit(rng.standard_normal(4))
    K = polytope(V, kind=K.kind).apply(U, shift)
    if on_boundary:
        assert not np.isin([len(V) - 2, len(V) - 1], K.shape.incidence).any()
    pole = U.apply(pole)
    field = K.radial if star else K.support
    kept = _assert_restriction_exact(field, pole, directions_orthogonal_to(pole, 8))
    if star:
        assert max(kept) < _rows_read(field)


@pytest.mark.parametrize("vertices", [cube().shape.vertices, _cell24()],
                         ids=["4-cube", "24-cell"])
@pytest.mark.parametrize("axis", range(4))
def test_polytope_field_restriction_exact_at_degenerate_contacts(vertices, axis):
    # a pole on a coordinate axis puts facet normals of the 4-cube and
    # vertices of the 24-cell in every working sphere; spheres normal to the
    # other axes, or to their sum, put whole facets and ridges in w-perp too
    pole = np.eye(4)[axis]
    others = np.delete(np.eye(4), axis, axis=0)
    w_dirs = np.vstack([directions_orthogonal_to(pole, 8), others, unit(others.sum(0))])
    K = polytope(vertices)
    for field in (K.support, K.radial):
        _assert_restriction_exact(field, pole, w_dirs)


def test_restricted_field_rejects_directions_off_its_sphere():
    K = planted_polytope(3, np.eye(4)[0], through_origin=True, kind="star")
    w = np.eye(4)[1]
    on = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    off = unit(np.array([[1.0, 1e-6, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
    K.antipodal_values(True, w, on)
    with pytest.raises(NonOrthogonalError):
        K.antipodal_values(True, w, off)
    # a polytope's support has no working sphere to check, nor has an
    # ellipsoid's radial: its pair is the radial at theta and at -theta, bit
    # for bit; a bump's radial raises on both paths
    K.antipodal_values(False, w, off)
    E = ellipsoid([1.0, 0.9, 0.8, 0.7], random_orthogonal(RNG), kind="star")
    E = E.translate([0.1, -0.2, 0.05, 0.3])
    theta = random_directions(50, RNG)
    top, bottom = E.antipodal_values(True, w, theta)
    assert np.array_equal(top, E.radial(theta)) and np.array_equal(bottom, E.radial(-theta))
    bump = _bench_like_bump(5)
    with pytest.raises(UnsupportedKindError):
        bump.radial(on)
    with pytest.raises(UnsupportedKindError):
        bump.antipodal_values(True, w, on)


def test_sampler_restricts_a_wrapped_radial(monkeypatch):
    # a wrapper installed on Body4.radial, as a span tracer installs one, is
    # still the radial: the sampler reads the working sphere's rows, or an
    # ellipsoid's pair, on the grid's upper rings, without calling it.  (This
    # star polytope's axis-aligned cross-polytope vertices split hull facets
    # into several rows, which round apart, so the restriction may differ
    # from the whole radial in the last bit.)
    radial = Body4.radial
    calls = []

    def wrapped(self, theta):
        calls.append(np.shape(theta))
        return radial(self, theta)

    monkeypatch.setattr(Body4, "radial", functools.wraps(radial)(wrapped))
    K = planted_polytope(3, np.eye(4)[0], through_origin=True, kind="star")
    w = np.eye(4)[1]
    grid = gauss_grid(make_frame(np.eye(4)[0], w), n_t=24, n_azimuth=128)
    values, read = _sampled_rows(K.radial, grid)
    assert not calls
    rows = K._sphere_rows(w)
    assert read == [len(rows)] and len(rows) < len(K._polar_rows)
    assert np.array_equal(values, 1.0 / bodies._facet_major_max(rows, grid.points))
    E = ellipsoid([1.0, 0.9, 0.8, 0.7], kind="star").translate([0.1, -0.2, 0.05, 0.3])
    top, bottom = E.antipodal_values(True, w, grid.upper_points)
    assert np.array_equal(sample_on_sphere(E.radial, grid).values,
                          np.concatenate([top, grid.lower_rings(bottom)]))
    assert not calls


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([(3, 10), (17, 22), (24, 128),
                                                            (64, 256)]),
       shape=st.sampled_from(["polytope", "star", "ellipsoid", "bump"]))
def test_upper_ring_sampling_equals_every_point(seed, size, shape):
    # a body's support, and a star polytope's or star ellipsoid's radial,
    # sampled on the upper rings give the values of the field at every grid
    # point bit for bit, on grids with an odd n_t and with n_azimuth not a
    # multiple of 8; a polytope's radial also equals its restriction to the
    # working sphere
    rng = np.random.default_rng(seed)
    pole = unit(rng.standard_normal(4))
    if shape in ("polytope", "star"):
        star = shape == "star"
        K = planted_polytope(seed % 997, pole, through_origin=star,
                             kind="star" if star else "convex")
        K = K.apply(random_orthogonal(rng),
                    (0.05 if star else 1.0) * unit(rng.standard_normal(4)))
    elif shape == "ellipsoid":
        K = ellipsoid(rng.uniform(0.5, 2.0, 4), random_orthogonal(rng), kind="star")
        K = K.translate(rng.uniform(-1.0, 1.0, 4))
    else:
        K = _bench_like_bump(seed, degrees=((3, 5, 3), (2, 4, 3))[seed % 2])
        K = K.apply(random_orthogonal(rng), rng.uniform(-1.0, 1.0, 4))
    w = rng.standard_normal(4)
    grid = gauss_grid(make_frame(pole, w - (w @ pole) * pole), *size)
    assert np.array_equal(sample_on_sphere(K.support, grid).values,
                          evaluate_field(K.support, grid.points))
    if shape == "ellipsoid":
        # moved to hold the origin: |b| <= 2, so 0.2 b is inside every semiaxis
        K = K.translate(-0.8 * K.folded[1])
    if shape in ("star", "ellipsoid"):
        values = sample_on_sphere(K.radial, grid).values
        assert np.array_equal(values, evaluate_field(K.radial, grid.points))
    if shape == "star":
        rows = K._sphere_rows(grid.frame.normal)
        assert np.array_equal(values, 1.0 / bodies._facet_major_max(rows, grid.points))


def test_radial_values():
    assert ball().radial(unit(RNG.standard_normal(4))) == pytest.approx(1.0)
    assert ellipsoid([2, 1, 1, 1]).radial([1, 0, 0, 0]) == pytest.approx(2.0)
    # cube diagonal: facet x_i = 1 is hit at c = 2
    assert cube().radial([0.5, 0.5, 0.5, 0.5]) == pytest.approx(2.0)


def test_radial_transform_equivariance():
    E = ellipsoid([1.5, 1.2, 1.0, 0.8]).translate([0.1, -0.2, 0.05, 0.0])
    U = random_orthogonal(RNG)
    EU = E.apply(U)
    thetas = random_directions(100, RNG)
    # rho_{UK}(U theta) = rho_K(theta)
    assert np.max(np.abs(EU.radial(thetas @ U.matrix.T) - E.radial(thetas))) < 1e-12


def test_radial_origin_outside():
    E = ellipsoid([1, 1, 1, 1]).translate([2.0, 0, 0, 0])
    with pytest.raises(OriginOutsideError):
        E.radial([1.0, 0, 0, 0])
    C = cube().translate([3.0, 0, 0, 0])
    with pytest.raises(OriginOutsideError):
        C.radial([1.0, 0, 0, 0])


def test_radial_unsupported_for_bump():
    K = Body4(kind="convex",
              shape=BumpShape(base=EllipsoidShape(np.ones(4)), epsilon=0.02,
                              terms=(BumpTerm(unit(RNG.standard_normal(4)), 3, 1.0),)))
    with pytest.raises(UnsupportedKindError):
        K.radial([1.0, 0, 0, 0])


def test_width():
    assert ball().width(unit(RNG.standard_normal(4))) == pytest.approx(2.0)
    assert cube().width([0.5, 0.5, 0.5, 0.5]) == pytest.approx(4.0)
    assert ellipsoid([2, 1, 1, 1]).width([1, 0, 0, 0]) == pytest.approx(4.0)
    K = planted_polytope(9, unit(RNG.standard_normal(4)))
    thetas = random_directions(50, RNG)
    assert np.max(np.abs(K.width(thetas) - K.width(-thetas))) == 0.0


# -- bump shapes ------------------------------------------------------------


def test_bump_keeps_convexity_or_raises():
    axis = unit(np.array([0.3, -0.5, 0.2, 0.8]))
    ok = BumpShape(base=EllipsoidShape(np.ones(4)), epsilon=0.03,
                   terms=(BumpTerm(axis, 3, 1.0),))
    K = Body4(kind="convex", shape=ok)
    sp = K.support_point(random_directions(50, RNG))
    hv = K.support(random_directions(50, RNG))
    assert np.all(np.isfinite(sp)) and np.all(hv > 0)
    with pytest.raises(ValueError):
        BumpShape(base=EllipsoidShape(np.ones(4)), epsilon=2.0,
                  terms=(BumpTerm(axis, 4, 3.0),))


def test_bump_support_point_on_boundary():
    axis = unit(np.array([0.1, 0.7, -0.2, 0.5]))
    K = Body4(kind="convex",
              shape=BumpShape(base=EllipsoidShape(np.ones(4)), epsilon=0.05,
                              terms=(BumpTerm(axis, 3, 1.0),)))
    thetas = random_directions(100, RNG)
    sp = K.support_point(thetas)
    # the support point realizes the support value: theta . sp = h(theta)
    assert np.max(np.abs(np.sum(sp * thetas, axis=1) - K.support(thetas))) < 1e-12


# The convexity certificate of a bump: the closed-form tangent Hessian against
# the central-difference stencil of the per-term power formula.  A plain
# namespace stands in for a BumpShape, so the eigenvalue of a shape that fails
# the certificate can be compared too.
CONVEXITY_THR = -1e-7          # times the largest base semiaxis, which is 1 below
BOUNDARY_BASE = EllipsoidShape(np.array([1.0, 0.8, 0.7, 0.6]))
BOUNDARY_TERMS = (BumpTerm(np.array([0.3, -0.5, 0.2, 0.8]), 4, 1.0),
                  BumpTerm(np.array([-0.6, 0.1, 0.7, 0.2]), 3, -0.7))


def _bump_like(base, epsilon, terms):
    return SimpleNamespace(base=base, epsilon=epsilon, terms=tuple(terms))


def _stencil_lambda(shape):
    return stencil_min_hessian_eigenvalue(lambda t: bump_support_by_powers(shape, t),
                                          [t.direction for t in shape.terms])


def _random_bump(seed, degrees, epsilon):
    rng = np.random.default_rng(seed)
    base = EllipsoidShape(rng.uniform(0.5, 1.5, 4), random_orthogonal(rng))
    terms = [BumpTerm(rng.standard_normal(4), m, float(rng.uniform(-1.0, 1.0)))
             for m in degrees]
    return _bump_like(base, epsilon, terms)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       degrees=st.lists(st.integers(1, 5), max_size=4),
       epsilon=st.floats(0.0, 0.3))
def test_bump_hessian_closed_form_matches_stencil(seed, degrees, epsilon):
    shape = _random_bump(seed, degrees, epsilon)
    assert abs(_min_hessian_eigenvalue(shape) - _stencil_lambda(shape)) <= 1e-6


def test_bump_certificate_decides_as_stencil_on_epsilon_sweep():
    decided = set()
    for eps in np.linspace(0.0, 0.6, 49):
        lam = _stencil_lambda(_bump_like(BOUNDARY_BASE, eps, BOUNDARY_TERMS))
        if abs(lam - CONVEXITY_THR) <= 1e-6:
            continue
        try:
            BumpShape(base=BOUNDARY_BASE, epsilon=eps, terms=BOUNDARY_TERMS)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (lam >= CONVEXITY_THR), eps
        decided.add(accepted)
    assert decided == {True, False}


@pytest.mark.parametrize("eps, accepted", [(0.21813, True), (0.21814, False)])
def test_bump_certificate_at_the_threshold(eps, accepted):
    # the smallest eigenvalue sits at a term axis; the boundary is at
    # epsilon = 0.2181357..., where it falls by about 3.1 per unit of
    # epsilon: 0.21813 clears -1e-7 by 1.8e-5, 0.21814 misses it by 1.3e-5
    lam = _min_hessian_eigenvalue(_bump_like(BOUNDARY_BASE, eps, BOUNDARY_TERMS))
    assert (lam >= CONVEXITY_THR) == accepted
    assert abs(lam - CONVEXITY_THR) > 1e-6
    assert (_stencil_lambda(_bump_like(BOUNDARY_BASE, eps, BOUNDARY_TERMS))
            >= CONVEXITY_THR) == accepted
    if accepted:
        BumpShape(base=BOUNDARY_BASE, epsilon=eps, terms=BOUNDARY_TERMS)
    else:
        with pytest.raises(ValueError, match="breaks convexity"):
            BumpShape(base=BOUNDARY_BASE, epsilon=eps, terms=BOUNDARY_TERMS)


@pytest.mark.parametrize("batch", [(), (1,), (7,), (64, 256)])
def test_bump_support_matches_power_formula(batch):
    # the world linear-forms kernel against the shape's support at R^T theta
    # plus theta . b, each power by pow(): the bump in place, then an
    # ellipsoid and a bump under a random rotation and translation; the
    # ulps are those of |h| + |theta . b|, since the sum can cancel
    rng = np.random.default_rng(len(batch) + sum(batch))
    shape = BumpShape(base=EllipsoidShape(np.array([1.0, 0.8, 0.7, 0.6]),
                                          random_orthogonal(rng)),
                      epsilon=0.01,
                      terms=[BumpTerm(rng.standard_normal(4), m, c) for m, c
                             in zip(range(1, 6), (0.9, -0.6, 0.8, 0.5, -0.7))])
    bodies = [Body4(kind="convex", shape=s).apply(random_orthogonal(rng),
                                                   rng.uniform(-1.0, 1.0, 4))
              for s in (shape.base, shape)]
    for K in [Body4(kind="convex", shape=shape)] + bodies:
        R, b = K.folded
        thetas = unit(rng.standard_normal(batch + (4,)))
        got = K.support(thetas)
        h, shift = bump_support_by_powers(K.shape, thetas @ R), thetas @ b
        assert np.shape(got) == batch
        assert np.max(np.abs(got - (h + shift))) <= 4 * np.spacing(
            np.max(np.abs(h) + np.abs(shift)))


@pytest.mark.parametrize("terms", [(), ((0.2, -0.4, 0.8, 0.1), 1, 0.7)],
                         ids=["term-free", "degree-1"])
def test_bump_support_point_realizes_support(terms):
    terms = (BumpTerm(np.array(terms[0]), terms[1], terms[2]),) if terms else ()
    K = Body4(kind="convex",
              shape=BumpShape(base=EllipsoidShape(np.array([1.2, 1.0, 0.9, 0.7])),
                              epsilon=0.05, terms=terms))
    thetas = random_directions(100, RNG)
    sp = K.support_point(thetas)
    assert np.max(np.abs(np.sum(sp * thetas, axis=1) - K.support(thetas))) < 1e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), degrees=st.lists(st.integers(1, 5), max_size=4))
def test_support_point_is_the_gradient_of_the_homogeneous_support(seed, degrees):
    # theta . sp = h says nothing of the component of sp along the sphere: the
    # whole support point against a central-difference gradient of
    # H(x) = |x| h(x/|x|) on a rotated and translated bump, or an ellipsoid
    # when it has no terms
    rng = np.random.default_rng(seed)
    shape = EllipsoidShape(rng.uniform(0.8, 1.2, 4), random_orthogonal(rng))
    if degrees:
        shape = BumpShape(base=shape, epsilon=0.005,
                          terms=tuple(BumpTerm(rng.standard_normal(4), m,
                                               float(rng.uniform(-1.0, 1.0)))
                                      for m in degrees))
    K = Body4(kind="convex", shape=shape).apply(random_orthogonal(rng),
                                                 rng.uniform(-1.0, 1.0, 4))
    thetas, step = random_directions(20, rng), 1e-5
    x = thetas[:, None, None, :] + step * np.array([1.0, -1.0])[:, None, None] * np.eye(4)
    n = np.linalg.norm(x, axis=-1)
    H = n * K.support(x / n[..., None])
    assert np.max(np.abs(K.support_point(thetas) - (H[:, 0] - H[:, 1]) / (2 * step))) <= 1e-8


def test_bump_without_terms_is_its_base_ellipsoid():
    base = EllipsoidShape(np.array([1.2, 1.0, 0.9, 0.7]))
    K = Body4(kind="convex", shape=BumpShape(base=base, epsilon=0.05, terms=()))
    thetas = random_directions(50, RNG)
    assert np.array_equal(K.support(thetas),
                          Body4(kind="convex", shape=base).support(thetas))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shape_parameters_must_be_finite(bad):
    axis = np.array([0.3, -0.5, 0.2, 0.8])
    with pytest.raises(ValueError, match="semiaxes"):
        EllipsoidShape(np.array([1.0, 1.0, 1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        Orthogonal4(np.diag([1.0, 1.0, 1.0, bad]))
    with pytest.raises(ValueError, match="epsilon"):
        BumpShape(base=EllipsoidShape(np.ones(4)), epsilon=bad,
                  terms=(BumpTerm(axis, 3, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        BumpTerm(axis, 3, bad)
    with pytest.raises(ValueError, match="finite"):
        BumpTerm(np.array([0.3, -0.5, 0.2, bad]), 3, 1.0)
    with pytest.raises(ValueError, match="degree"):
        BumpTerm(axis, bad, 1.0)


# and at most MAX_BUMP_DEGREE: each evaluation multiplies degree - 1 times per term
@pytest.mark.parametrize("degree", [0, -2, 3.7, 0.5, MAX_BUMP_DEGREE + 1, 1e9])
def test_bump_degree_must_be_integer_at_least_one(degree):
    with pytest.raises(ValueError, match="degree"):
        BumpTerm(np.ones(4), degree, 1.0)
    spec = {"type": "zonal_bump", "base": {"type": "ellipsoid", "semiaxes": [1.0] * 4},
            "epsilon": 0.01, "terms": [{"axis": [1.0, 0, 0, 0], "degree": degree,
                                        "coeff": 1.0}]}
    with pytest.raises(ValueError, match="degree"):
        shape_from_spec(spec)


@pytest.mark.parametrize("degree, epsilon", [(MAX_BUMP_DEGREE, 0.02), (200, 0.01)])
def test_bump_certificate_samples_term_axes(degree, epsilon):
    # on the unit ball a high-degree term is flat away from its axis d, and
    # none of the fixed random directions comes near enough to d to see its
    # curvature; at d the tangent eigenvalue is 1 + epsilon (1 - degree) < 0
    d = np.array([1.0, 0.0, 0.0, 0.0])
    term = SimpleNamespace(direction=d, degree=degree, coeff=1.0)
    shape = _bump_like(EllipsoidShape(np.ones(4)), epsilon, (term,))

    def H(x):
        n = np.linalg.norm(x)
        return n * float(bump_support_by_powers(shape, x / n))

    h, t = 0.01, np.array([0.0, 1.0, 0.0, 0.0])
    assert H(d + h * t) + H(d - h * t) - 2 * H(d) < 0      # not convex
    assert stencil_min_hessian_eigenvalue(lambda x: bump_support_by_powers(shape, x)) > 0
    assert _min_hessian_eigenvalue(shape) == pytest.approx(1 + epsilon * (1 - degree),
                                                           abs=1e-12)
    if degree <= MAX_BUMP_DEGREE:
        with pytest.raises(ValueError, match="breaks convexity"):
            BumpShape(base=shape.base, epsilon=epsilon, terms=(BumpTerm(d, degree, 1.0),))


def test_bump_integral_float_degree_reads_as_int():
    term = BumpTerm(np.ones(4), 3.0, 1.0)
    assert term.degree == 3 and isinstance(term.degree, int)


# -- diameters ----------------------------------------------------------------


def test_find_diameters_ellipsoid():
    ds = find_diameters(ellipsoid([2, 1, 1, 1]))
    assert ds.length == pytest.approx(4.0)
    assert len(ds.directions) == 1
    d = ds.directions[0]
    assert abs(abs(d[0]) - 1) < 1e-12 and np.max(np.abs(d[1:])) < 1e-12


def test_find_diameters_cube_against_brute_force():
    # the 4-cube and the 24-cell: every vertex is an endpoint, so the
    # farthest-vertex screen keeps all of them and the pairs decide
    for vertices, count in ((cube().shape.vertices, 8), (_cell24(), 12)):
        ds = find_diameters(polytope(vertices))
        dmax, dirs = brute_force_diameters(vertices)
        assert ds.length == pytest.approx(dmax, rel=1e-15)
        assert len(ds.directions) == len(dirs) == count
        for d in ds.directions:
            assert any(min(np.linalg.norm(d - u), np.linalg.norm(d + u)) < 1e-6
                       for u in dirs)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["planted", "cloud", "narrow"]))
def test_find_diameters_planted_against_brute_force(seed, kind):
    # planted polytopes have one diameter by construction, and so does a
    # narrow-cone cluster, whose diameter's normal cone (about 0.03 rad) is
    # narrower than a width scan's spacing; a random vertex cloud has
    # whatever the vertex-pair oracle finds
    rng = np.random.default_rng(seed)
    if kind == "planted":
        K = planted_polytope(seed % 1000, unit(rng.standard_normal(4)))
    elif kind == "narrow":
        K = narrow_cone_polytope(rng)[0]
    else:
        K = polytope(rng.standard_normal((30, 4)))
    ds = find_diameters(K)
    dmax, dirs = brute_force_diameters(K.shape.vertices)
    assert ds.length == pytest.approx(dmax, rel=1e-12)
    assert len(ds.directions) == len(dirs)
    if kind != "cloud":
        assert len(dirs) == 1
    for d in ds.directions:
        assert any(min(np.linalg.norm(d - u), np.linalg.norm(d + u)) < 1e-6
                   for u in dirs)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), ratio=st.floats(1.01, 4.0))
def test_find_diameters_rotated_ellipsoid(seed, ratio):
    # the diameter is the largest semiaxis, doubled, when it is unique; a
    # near-round body (ratio near 1) is where the plain chord step, a power
    # iteration with ratio 1/ratio^2, stops unconverged
    rng = np.random.default_rng(seed)
    semiaxes = rng.uniform(0.5, 1.0, 4) * 10.0 ** rng.uniform(-1.0, 1.0)
    top = int(rng.integers(4))
    semiaxes[top] = ratio * np.max(np.delete(semiaxes, top))
    U = random_orthogonal(rng)
    E = ellipsoid(semiaxes, U).translate(rng.uniform(-1.0, 1.0, 4))
    ds = find_diameters(E)
    assert abs(ds.length - 2 * semiaxes[top]) <= 1e-12 * 2 * semiaxes[top]
    assert len(ds.directions) == 1
    axis = U.matrix[:, top]
    d = ds.directions[0]
    assert min(np.linalg.norm(d - axis), np.linalg.norm(d + axis)) < 1e-7


def _bench_like_bump(seed, degrees=(3, 5, 3)):
    # an ellipsoid with semiaxes (1, 0.8, 0.7, 0.6) plus three terms, by
    # default odd of degrees 3, 5, 3, at epsilon 0.02, all rotated, as the
    # smooth benchmark
    rng = np.random.default_rng(seed)
    U = random_orthogonal(rng)
    terms = tuple(BumpTerm(U.matrix @ unit(rng.standard_normal(4)), m,
                           float(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])))
                  for m in degrees)
    return Body4(kind="convex", shape=BumpShape(
        base=EllipsoidShape(np.array([1.0, 0.8, 0.7, 0.6]), U), epsilon=0.02, terms=terms))


@pytest.mark.parametrize("body", [
    ellipsoid([2, 1, 1, 1]),
    ellipsoid([1, 0.8, 0.7, 0.6]),
    _bench_like_bump(17),
], ids=["ellipsoid", "slow-chord-ellipsoid", "bump"])
def test_find_diameters_ascends_in_one_batch(monkeypatch, body):
    # every start ascends in the same step, and a step reads its chords and
    # Hessians from one jet batch at [theta; -theta], whatever the number of
    # starts; the Newton-corrected step converges within 8 steps, where the
    # plain chord step takes about 75 on (1, 0.8, 0.7, 0.6)
    calls = []

    def counted(forms, powers, theta, T=None):
        calls.append(len(theta))
        return _smooth_jet(forms, powers, theta, T)

    monkeypatch.setattr("congrulab.bodies._smooth_jet", counted)
    find_diameters(body)
    assert 0 < len(calls) <= 8
    assert calls[0] == 2 * (_N_SCAN // 32)


def test_narrow_cone_diameter_fails_the_pole_hypothesis():
    # the vertex 1.001 e2 has a normal cone of half-angle about 0.03 rad, far
    # narrower than a 4096-direction scan's spacing; a width search that
    # settles on the 2.0005 chords nearby certifies the 2.0008 pole as a
    # diameter, where the vertex pairs give 2.001
    rng = np.random.default_rng(1)
    for _ in range(8):
        K, pole = narrow_cone_polytope(rng)
        assert find_diameters(K).length == pytest.approx(2.001, rel=1e-15)
        with pytest.raises(DiameterHypothesisFailed, match="below the maximal width"):
            verify_projection_theorem(K, K.translate([0.1, 0.2, 0.0, -0.1]), pole,
                                      VerifyConfig(w_samples=16))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_width_hessian_matches_central_differences(seed):
    # the chord and tangent Hessian the ascent reads, on a rotated and translated bump
    # with odd terms (which cancel in the width only when H is read at both
    # x and -x), against a central-difference Hessian of the homogeneous
    # width |x| w(x / |x|) in the tangent basis, at theta and at -theta
    rng = np.random.default_rng(seed)
    shape = BumpShape(base=EllipsoidShape(rng.uniform(0.8, 1.2, 4), random_orthogonal(rng)),
                      epsilon=0.02,
                      terms=tuple(BumpTerm(rng.standard_normal(4), m,
                                           float(rng.uniform(-1.0, 1.0)))
                                  for m in (2, 3, 4, 5)))
    K = Body4(kind="convex", shape=shape).apply(random_orthogonal(rng),
                                                 rng.uniform(-1.0, 1.0, 4))
    step, eye = 1e-4, np.eye(3)
    t = unit(rng.standard_normal(4))
    for theta in (t, -t):
        T = _tangent_basis(theta[None])
        chord, hess = _width_hessian(K, theta[None], T)
        assert np.allclose(chord[0], K.support_point(theta) - K.support_point(-theta),
                           rtol=0, atol=1e-14)
        got = hess[0]
        x = theta + step * np.array([[s * eye[i] + r * eye[j] for s, r in
                                      ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                                     for i in range(3) for j in range(3)]) @ T[0]
        n = np.linalg.norm(x, axis=-1)
        W = (n * K.width(x / n[..., None])).reshape(3, 3, 4)
        want = (W[..., 0] - W[..., 1] - W[..., 2] + W[..., 3]) / (4 * step * step)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_find_diameters_ball_degenerate():
    with pytest.raises(DegenerateBodyError):
        find_diameters(ball())


def test_find_diameters_rejects_more_than_the_cluster_cap():
    # 150 antipodal vertex pairs are 150 diameter directions of one length,
    # more than the 64 isolated clusters allowed
    u = random_directions(150, np.random.default_rng(3))
    with pytest.raises(DegenerateBodyError, match="not isolated"):
        find_diameters(polytope(np.vstack([u, -u])))


def test_diameter_scan_is_built_once_and_read_only():
    want = random_directions(_N_SCAN, np.random.default_rng(_SCAN_SEED))
    assert _SCAN_DIRS.tobytes() == want.tobytes() and _SCAN_DIRS.shape == want.shape
    assert not _SCAN_DIRS.flags.writeable


def test_at_most_one_diameter_per_direction():
    # vertex-pair enumeration: no two maximal segments share a direction
    bodies = [cube()] + [planted_polytope(s, unit(np.random.default_rng(s).standard_normal(4)))
                         for s in range(3)]
    for K in bodies:
        V = K.shape.vertices
        d = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
        dmax = np.max(d)
        segs = [(i, j) for i in range(len(V)) for j in range(i + 1, len(V))
                if d[i, j] >= dmax - 1e-9 * dmax]
        dirs = [unit(V[i] - V[j]) for i, j in segs]
        for a in range(len(dirs)):
            for b in range(a + 1, len(dirs)):
                assert min(np.linalg.norm(dirs[a] - dirs[b]),
                           np.linalg.norm(dirs[a] + dirs[b])) > 1e-6


def test_diameter_segment_ellipsoid():
    z, y = diameter_segment(ellipsoid([2, 1, 1, 1]), [1, 0, 0, 0])
    assert np.allclose(y, [2, 0, 0, 0], atol=1e-12)
    assert np.allclose(z, [-2, 0, 0, 0], atol=1e-12)


def test_diameter_segment_planted_midpoint():
    pole = unit(RNG.standard_normal(4))
    K = planted_polytope(77, pole)
    b = np.array([0.3, -0.1, 0.2, 0.4])
    z, y = diameter_segment(K.translate(b), pole)
    z0, y0 = diameter_segment(K, pole)
    assert np.max(np.abs((z - z0) - b)) < 1e-12
    assert np.max(np.abs((y - y0) - b)) < 1e-12


@pytest.mark.parametrize("shape", ["bump", "ellipsoid", "polytope"])
def test_diameter_segment_reads_one_batch(shape):
    # the endpoints are the rows of one two-direction support-point batch,
    # bit for bit, whatever path a single direction would take; a polytope's
    # are its diameter's vertices
    rng = np.random.default_rng(41)
    K = {"bump": _bench_like_bump(23), "ellipsoid": ellipsoid([1.0, 0.8, 0.7, 0.6]),
         "polytope": planted_polytope(41, np.eye(4)[0])}[shape]
    axis = K.shape.base.axes_matrix[:, 0] if shape == "bump" else np.eye(4)[0]
    K = K.apply(random_orthogonal(rng), rng.uniform(-1.0, 1.0, 4))
    d = unit(K.folded[0] @ axis)
    z, y = diameter_segment(K, d)
    pair = K.support_point(np.stack([-d, d]))
    assert z.tobytes() == pair[0].tobytes() and y.tobytes() == pair[1].tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_diameter_segment_chord_check_is_scale_free(scale):
    # a pole 1e-4 rad off the major axis is within the width tolerance of the
    # diameter, but its support chord is 7.5e-5 lengths off the pole
    E = ellipsoid(np.array([2.0, 1.0, 1.0, 1.0]) * scale)
    z, y = diameter_segment(E, [1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs((y - z) - [4.0 * scale, 0, 0, 0])) <= 1e-12 * scale
    with pytest.raises(DegenerateBodyError):
        diameter_segment(E, [np.cos(1e-4), np.sin(1e-4), 0.0, 0.0])


# -- projections and sections ---------------------------------------------------


def test_project_support_is_restriction():
    # the shadow's support function is the body's restricted to w-perp; the
    # 4-cube's is the l1 norm there
    w = unit(RNG.standard_normal(4))
    thetas = unit(RNG.standard_normal((100, 3))) @ complement_basis(w)
    assert np.max(np.abs(cube().support(thetas) - np.abs(thetas).sum(axis=1))) < 1e-14


def test_project_support_matches_projected_vertex_oracle():
    # project vertices into the 3D subspace and recompute the max there
    for seed in range(3):
        K = planted_polytope(seed + 10, unit(np.random.default_rng(seed).standard_normal(4)))
        w = unit(np.random.default_rng(seed + 5).standard_normal(4))
        basis = complement_basis(w)
        v3 = K.effective_vertices() @ basis.T
        th3 = unit(np.random.default_rng(seed + 9).standard_normal((200, 3)))
        oracle = np.max(th3 @ v3.T, axis=1)
        got = K.support(th3 @ basis)
        assert np.max(np.abs(got - oracle)) < 1e-12


def test_section_radial_ball_and_ellipsoid():
    w = unit(RNG.standard_normal(4))
    assert ball().radial(unit_orth(w)) == pytest.approx(1.0)
    E = ellipsoid([2, 1, 1, 1])
    assert E.radial(np.array([0.0, 1, 0, 0])) == pytest.approx(1.0)


def unit_orth(w):
    x = RNG.standard_normal(4)
    return unit(x - (x @ w) * w)


def test_section_radial_translated_cube_vs_halfspace_oracle():
    # independent oracle: intersect the 4D halfspaces with the subspace,
    # rebuild the 3D section polytope, and ray-cast its own facets
    C = cube().translate([0.2, -0.1, 0.15, 0.05])
    w = unit(np.array([0.3, 0.7, -0.2, 0.62]))
    basis = complement_basis(w)
    hull4 = ConvexHull(C.effective_vertices())
    A4, off4 = hull4.equations[:, :4], hull4.equations[:, 4]
    halfspaces = np.column_stack([A4 @ basis.T, off4])
    hs = HalfspaceIntersection(halfspaces, np.zeros(3))
    sec_hull = ConvexHull(hs.intersections)
    A3, off3 = sec_hull.equations[:, :3], sec_hull.equations[:, 3]

    th3 = unit(np.random.default_rng(8).standard_normal((200, 3)))
    coef = th3 @ A3.T
    with np.errstate(divide="ignore"):
        bound = np.where(coef > 1e-14, -off3[None, :] / np.maximum(coef, 1e-300), np.inf)
    oracle = np.min(bound, axis=1)
    got = C.radial(th3 @ basis)
    assert np.max(np.abs(got - oracle)) < 1e-10


# -- apply / serialization -------------------------------------------------------


def test_apply_identity_noop():
    K = planted_polytope(3, unit(RNG.standard_normal(4)))
    K2 = K.apply(Orthogonal4(np.eye(4)), np.zeros(4))
    thetas = random_directions(50, RNG)
    assert np.max(np.abs(K2.support(thetas) - K.support(thetas))) == 0.0


def test_apply_rotation_radial_identity():
    E = ellipsoid([1.5, 1.2, 1.0, 0.8])
    U = random_orthogonal(RNG)
    EU = E.apply(U)
    thetas = random_directions(100, RNG)
    assert np.max(np.abs(EU.radial(thetas @ U.matrix.T) - E.radial(thetas))) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_translation_must_be_finite(bad):
    E = ellipsoid([1.5, 1.2, 1.0, 0.8])
    a = np.array([0.1, 0.0, bad, 0.0])
    with pytest.raises(ValueError, match="finite"):
        E.translate(a)
    with pytest.raises(ValueError, match="finite"):
        E.apply(Orthogonal4(np.eye(4)), a)
    with pytest.raises(ValueError, match="finite"):
        body_from_spec({"kind": "convex", "shape": shape_to_spec(E.shape),
                        "transforms": [{"shift": a.tolist()}]})


def test_polytope_shape_validation():
    with pytest.raises(ValueError):
        PolytopeShape(np.zeros((4, 4)))            # too few vertices
    flat = np.hstack([RNG.standard_normal((6, 3)), np.zeros((6, 1))])
    with pytest.raises(ValueError):
        PolytopeShape(flat)                        # not full-dimensional


@settings(max_examples=30)
@given(kind=st.sampled_from(["polytope", "ellipsoid"]),
       seed=st.integers(0, 2**32 - 1),
       chain=st.lists(st.sampled_from(["rot", "shift"]), max_size=5))
def test_body_spec_roundtrip(kind, seed, chain):
    # a rot/shift chain read from a spec, the same chain applied in code, and
    # the folded spec written back all evaluate bitwise alike
    rng = np.random.default_rng(seed)
    if kind == "polytope":
        body = planted_polytope(seed % 1000, unit(rng.standard_normal(4)))
    else:
        body = ellipsoid(rng.uniform(0.8, 1.5, 4), random_orthogonal(rng))
    entries = []
    for op in chain:
        if op == "rot":
            U = random_orthogonal(rng)
            body = body.apply(U)
            entries.append({"rot": U.to_flat()})
        else:
            a = rng.uniform(-1.0, 1.0, 4)
            body = body.translate(a)
            entries.append({"shift": a.tolist()})
    read = body_from_spec({"kind": "convex", "shape": shape_to_spec(body.shape),
                           "transforms": entries})
    spec = body_to_spec(body)
    assert len(spec["transforms"]) <= 2
    again = body_from_spec(spec)
    thetas = random_directions(100, rng)
    for other in (read, again):
        assert np.array_equal(other.support(thetas), body.support(thetas))
        assert np.array_equal(other.support_point(thetas), body.support_point(thetas))


def test_reflection_body_identity():
    pole = unit(RNG.standard_normal(4))
    refl = pole_reflection(pole)
    K = planted_polytope(31, pole)
    KR = K.apply(refl)
    thetas = random_directions(100, RNG)
    # h_{RK}(theta) = h_K(R^T theta), R symmetric
    assert np.max(np.abs(KR.support(thetas)
                         - K.support(thetas @ refl.matrix))) < 1e-12
