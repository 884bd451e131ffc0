import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from congrulab.bodies import ellipsoid
from congrulab.errors import NonOrthogonalError
from congrulab.funk import (GridFunction, compose_with_matrix, funk_transform,
                            parity_decompose, sample_on_sphere)
from congrulab.orthogonal import (Orthogonal4, equator_flip, pole_reflection,
                                  pole_rotation)
from congrulab.sphere import (complement_basis, directions_orthogonal_to,
                              gauss_grid, gauss_latitude_nodes, make_frame,
                              random_directions, unit)

from helpers import (band_limited_field, even_parts_equal, legendre_p, legendre_p0,
                     planted_polytope)

RNG = np.random.default_rng(404)
POLE = unit(RNG.standard_normal(4))
BASIS = complement_basis(POLE)


def random_frame(rng, pole=POLE):
    nrm = rng.standard_normal(4)
    nrm = nrm - (nrm @ pole) * pole
    return make_frame(pole, nrm)


def on_pole_sphere(v3):
    return np.asarray(v3, dtype=float) @ BASIS


# -- parity ---------------------------------------------------------------------


def test_parity_zonal_is_even():
    f = lambda x: np.asarray(x) @ POLE
    pair = parity_decompose(f, POLE)
    pts = random_directions(200, RNG)
    assert np.max(np.abs(pair.even(pts) - f(pts))) < 1e-14
    assert np.max(np.abs(pair.odd(pts))) < 1e-14


def test_parity_orthogonal_linear_is_odd():
    x0 = on_pole_sphere(unit(RNG.standard_normal(3)))
    f = lambda x: np.asarray(x) @ x0
    pair = parity_decompose(f, POLE)
    pts = random_directions(200, RNG)
    assert np.max(np.abs(pair.even(pts))) < 1e-14
    assert np.max(np.abs(pair.odd(pts) - f(pts))) < 1e-14


def test_parity_sum_reconstructs():
    f = band_limited_field(7)
    pair = parity_decompose(f, POLE)
    pts = random_directions(10_000, RNG)
    assert np.max(np.abs(pair.even(pts) + pair.odd(pts) - f(pts))) < 1e-14


def test_parity_signs_under_reflection():
    f = band_limited_field(8)
    pair = parity_decompose(f, POLE)
    pts = random_directions(500, RNG)
    refl = pole_reflection(POLE).apply(pts)
    assert np.max(np.abs(pair.even(refl) - pair.even(pts))) < 1e-13
    assert np.max(np.abs(pair.odd(refl) + pair.odd(pts))) < 1e-13


@settings(max_examples=30)
@given(pole=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       seed=st.integers(0, 2**16), shape=st.sampled_from(["polytope", "ellipsoid"]))
def test_parity_and_funk_identities_on_random_bodies(pole, seed, shape):
    # on a random working sphere through the pole: the grid's azimuth
    # half-turn is the pole reflection, and the Funk transform annihilates
    # the odd part
    pole = unit(pole)
    rng = np.random.default_rng(seed)
    if shape == "polytope":
        body = planted_polytope(seed, pole)
    else:
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        body = ellipsoid(rng.uniform(0.5, 1.5, 4), Orthogonal4(rot))
    f = body.support
    w = rng.standard_normal(4)
    grid = gauss_grid(make_frame(pole, w - (w @ pole) * pole), n_t=8, n_azimuth=32)
    fg = sample_on_sphere(f, grid)
    sup = fg.sup
    pair = parity_decompose(f, pole)
    even, odd = fg.parity()
    assert np.max(np.abs(even.values - pair.even(grid.points))) <= 1e-12 * sup
    assert np.max(np.abs(odd.values - pair.odd(grid.points))) <= 1e-12 * sup
    assert abs(funk_transform(pair.odd, pole, grid.frame.normal)) <= 1e-10 * sup


# -- grid functions ----------------------------------------------------------------


def test_sample_on_sphere_constant_and_zonal():
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 8, 16)
    cf = sample_on_sphere(lambda x: np.full(np.asarray(x).shape[:-1], 2.5), grid)
    assert np.max(np.abs(cf.values - 2.5)) == 0.0
    zf = sample_on_sphere(lambda x: np.asarray(x) @ fr.pole, grid)
    # zonal: constant along each ring
    assert np.max(np.abs(zf.values - zf.values[:, :1])) < 1e-14


def test_sample_resample_consistency():
    fr = random_frame(RNG)
    f = band_limited_field(3)
    lo = sample_on_sphere(f, gauss_grid(fr, 8, 16))
    hi_grid = gauss_grid(fr, 8, 32)
    hi = sample_on_sphere(f, hi_grid)
    # pointwise evaluation: shared azimuths agree exactly
    assert np.max(np.abs(hi.values[:, ::2] - lo.values)) < 1e-12


def test_grid_function_immutable_and_validated():
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 4, 8)
    gf = sample_on_sphere(band_limited_field(1), grid)
    with pytest.raises(ValueError):
        gf.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        GridFunction(grid, np.ones((3, 8)))
    with pytest.raises(ValueError):
        GridFunction(grid, np.full((4, 8), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_parity_parts_equal_checked_construction(bad):
    # parity() skips the copy and the finiteness check, since its parts are
    # finite whenever their parent is; a caller's GridFunction is still checked
    grid = gauss_grid(random_frame(RNG), 6, 16)
    gf = sample_on_sphere(band_limited_field(2), grid)
    refl = np.roll(gf.values, 8, axis=1)
    for part, want in zip(gf.parity(), (0.5 * (gf.values + refl), 0.5 * (gf.values - refl))):
        checked = GridFunction(grid, want)
        assert type(part) is GridFunction and part.grid is grid
        assert np.array_equal(part.values, checked.values)
        assert np.array_equal(part.spectrum, checked.spectrum)
        with pytest.raises(ValueError):
            part.values[0, 0] = 1.0
    values = np.array(gf.values)
    values[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid, values)


@pytest.mark.parametrize("n", [8, 64, 256, 200])
def test_parity_spectra_are_masks_of_the_parent(n):
    # the half-turn multiplies bin k by (-1)^k, so each part's spectrum is its
    # parent's with the other bins zeroed; at a power of two it equals the
    # part's own rfft exactly (zeros may differ in sign), else to a few ulps
    grid = gauss_grid(random_frame(RNG), 6, n)
    for seed in range(5):
        gf = sample_on_sphere(band_limited_field(seed, degree=12), grid)
        noisy = GridFunction(grid, RNG.uniform(-1.0, 1.0, (6, n)))
        for parent in (gf, noisy):
            parts = parent.parity()
            for part in parts:
                want = np.fft.rfft(part.values, axis=-1)
                if n & (n - 1) == 0:
                    assert np.array_equal(part.spectrum, want)
                else:
                    bound = 4 * np.spacing(np.max(np.abs(want)))
                    assert np.max(np.abs(part.spectrum - want)) <= bound
                assert not part.spectrum.flags.writeable
                assert not np.shares_memory(part.spectrum, parent.spectrum)
            assert not np.shares_memory(parts[0].spectrum, parts[1].spectrum)


def test_scalar_only_callable_fallback():
    # there is no per-point fallback: fields must accept batches
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 4, 8)
    f = lambda p: float(np.dot(p, p))   # rejects batched input shape
    with pytest.raises(ValueError):
        sample_on_sphere(f, grid)
    # a batch answered with the wrong shape is rejected, not broadcast
    with pytest.raises(ValueError, match="fields must accept batches"):
        sample_on_sphere(lambda p: 1.0, grid)


def test_library_error_from_batched_call_is_not_retried():
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 4, 8)

    def f(p):
        p = np.asarray(p)
        if p.ndim > 1:
            raise NonOrthogonalError("batched input rejected")
        return float(np.dot(p, p))

    # per point the field succeeds; the batched failure must still surface
    assert f(grid.points[0, 0]) == pytest.approx(1.0)
    with pytest.raises(NonOrthogonalError):
        sample_on_sphere(f, grid)


# -- funk transform -----------------------------------------------------------------


def test_funk_transform_constant():
    w = on_pole_sphere(unit(RNG.standard_normal(3)))
    one = lambda x: np.ones(np.asarray(x).shape[:-1])
    assert funk_transform(one, POLE, w, 64) == pytest.approx(2 * np.pi, abs=1e-12)


def test_funk_transform_annihilates_odd():
    w = on_pole_sphere(unit(RNG.standard_normal(3)))
    x0 = on_pole_sphere(unit(RNG.standard_normal(3)))
    f = lambda x: (np.asarray(x) @ x0) ** 3
    assert abs(funk_transform(f, POLE, w, 128)) < 1e-10


def test_funk_transform_requires_orthogonality():
    with pytest.raises(NonOrthogonalError):
        funk_transform(lambda x: 1.0, POLE, unit(POLE + 0.2 * BASIS[0]), 32)


def test_funk_transform_against_adaptive_quadrature():
    # independent oracle: adaptive 1D integration over the circle
    f = band_limited_field(11)
    w = on_pole_sphere(unit(np.array([0.3, -0.5, 0.81])))
    frame = make_frame(POLE, w)

    def integrand(phi):
        return float(f(np.cos(phi) * frame.e1 + np.sin(phi) * frame.e2))

    oracle, err = quad(integrand, 0.0, 2 * np.pi, limit=200)
    got = funk_transform(f, POLE, w, 256)
    assert abs(got - oracle) < 1e-9 + 10 * err


def test_funk_hecke_eigenrelation():
    # zonal harmonic of degree n integrates to 2*pi*P_n(0) times its value
    # at the circle direction; P_n(0) from the double-factorial oracle
    p = on_pole_sphere(unit(np.array([0.2, 0.6, -0.77])))
    rng = np.random.default_rng(5)
    for n in range(17):
        F = lambda x: legendre_p(n, np.asarray(x) @ p)
        for _ in range(4):
            w = on_pole_sphere(unit(rng.standard_normal(3)))
            got = funk_transform(F, POLE, w, 256)
            expect = 2 * np.pi * legendre_p0(n) * float(legendre_p(n, np.array(w @ p)))
            assert abs(got - expect) < 1e-8


def test_funk_degree2_zonal_ratio():
    # degree-2 zonal harmonic: transform/value ratio is 2*pi*P_2(0) = -pi
    p = on_pole_sphere(unit(np.array([0.5, 0.5, np.sqrt(0.5)])))
    F = lambda x: legendre_p(2, np.asarray(x) @ p)
    w = on_pole_sphere(unit(np.array([0.9, -0.1, 0.3])))
    got = funk_transform(F, POLE, w, 256)
    ratio = got / float(legendre_p(2, np.array(w @ p)))
    assert ratio == pytest.approx(-np.pi, abs=1e-8)


def test_funk_linearity():
    f = band_limited_field(21)
    g = band_limited_field(22)
    a, b = 1.3, -0.6
    comb = lambda x: a * f(x) + b * g(x)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = on_pole_sphere(unit(rng.standard_normal(3)))
        lhs = funk_transform(comb, POLE, w, 128)
        rhs = a * funk_transform(f, POLE, w, 128) + b * funk_transform(g, POLE, w, 128)
        assert abs(lhs - rhs) < 1e-12


# -- even-part comparison --------------------------------------------------------------


def test_even_parts_equal_identical():
    f = band_limited_field(31)
    t_nodes = gauss_latitude_nodes(12)
    res = even_parts_equal(f, f, POLE, t_nodes, tol=1e-10)
    assert res.passed
    assert res.transform_dev == 0.0 and res.direct_dev == 0.0


def test_even_parts_equal_reflected():
    f = band_limited_field(32)
    refl = pole_reflection(POLE)
    g = compose_with_matrix(f, refl.matrix)
    t_nodes = gauss_latitude_nodes(12)
    res = even_parts_equal(f, g, POLE, t_nodes, tol=1e-10)
    assert res.passed
    assert res.direct_dev < 1e-12 * max(res.f_sup, 1.0)


def test_even_parts_bump_passes_at_equator_fails_off_it():
    # reflection-even bump (x.pole)*(x.x0)^2 vanishes on the equator band:
    # the transform route is blind at t = 0 but catches t != 0, and the
    # direct route flags the change everywhere it is nonzero
    f = band_limited_field(33)
    x0 = on_pole_sphere(unit(np.array([0.4, -0.8, 0.45])))
    bump = lambda x: (np.asarray(x) @ POLE) * (np.asarray(x) @ x0) ** 2
    g = lambda x: f(x) + 0.1 * bump(x)
    ws = directions_orthogonal_to(POLE, 16)
    at_eq = even_parts_equal(f, g, POLE, np.array([0.0]), ws, tol=1e-8)
    assert at_eq.transform_dev <= 2 * np.pi * 1e-8
    assert at_eq.direct_dev < 1e-12          # bump vanishes at t = 0 entirely
    off_eq = even_parts_equal(f, g, POLE, np.array([-0.5, 0.5]), ws, tol=1e-8)
    assert not off_eq.passed
    assert off_eq.transform_dev > 1e-3
    assert off_eq.direct_dev > 1e-3


def test_even_parts_invariance_per_preserved_circle():
    # per-circle rotation invariance: for a rotation of one working sphere,
    # the transform route agrees on that sphere's own circle family
    f = band_limited_field(34)
    rng = np.random.default_rng(17)
    t_nodes = gauss_latitude_nodes(8)
    for _ in range(5):
        fr = random_frame(rng)
        rot = pole_rotation(fr, rng.uniform(0, 2 * np.pi))
        g = compose_with_matrix(f, rot.matrix)
        res = even_parts_equal(f, g, POLE, t_nodes, np.array([fr.normal]), tol=1e-8)
        assert res.transform_dev < 2 * np.pi * 1e-8
        flip = equator_flip(fr, rng.uniform(0, np.pi))
        gf = compose_with_matrix(f, flip.matrix)
        # flips reverse latitude, so invariance of the integrals holds at t=0
        res0 = even_parts_equal(f, gf, POLE, np.array([0.0]),
                                np.array([fr.normal]), tol=1e-8)
        assert res0.transform_dev < 2 * np.pi * 1e-8


def test_even_parts_equal_detects_even_difference():
    f = band_limited_field(35)
    g = lambda x: f(x) + 0.05 * (np.asarray(x) @ POLE) ** 2
    t_nodes = gauss_latitude_nodes(8)
    res = even_parts_equal(f, g, POLE, t_nodes, tol=1e-8)
    assert not res.passed
    assert res.direct_dev > 1e-3 and res.transform_dev > 1e-3
