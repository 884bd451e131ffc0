import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrulab import registration
from congrulab.errors import GridMismatchError
from congrulab.funk import GridFunction, compose_with_matrix, sample_on_sphere
from congrulab.orthogonal import (FIX_POLE, FLIP_POLE, equator_flip, pole_reflection,
                                  pole_rotation)
from congrulab.registration import (DETECTOR_GRID, LABEL_NONE, _mirrored_spectrum,
                                    _ShiftObjective, classify_direction,
                                    find_equator_flip_symmetry,
                                    pole_rotation_symmetry_defect,
                                    register_pole_flip, register_pole_rotation,
                                    snap_alpha)
from congrulab.sphere import directions_orthogonal_to, gauss_grid, make_frame, unit

from helpers import (band_limited_field, odd_field, planted_polytope,
                     rotated_point_defect, wrap_err)

RNG = np.random.default_rng(505)


def random_frame(rng):
    pole = unit(rng.standard_normal(4))
    nrm = rng.standard_normal(4)
    nrm = nrm - (nrm @ pole) * pole
    return make_frame(pole, nrm)


FR = random_frame(RNG)
GRID = gauss_grid(FR, 16, 256)
CLASSIFY_GRID = gauss_grid(FR, 32, 256)


def sample_pair(f, g, grid=GRID):
    return sample_on_sphere(f, grid), sample_on_sphere(g, grid)


def classify(f, g, tol=1e-6):
    return classify_direction(*sample_pair(f, g, CLASSIFY_GRID), tol)


# -- pole rotations ---------------------------------------------------------------


def test_rotation_exact_grid_shift():
    f = band_limited_field(60)
    angle = 2 * np.pi * 17 / 256
    g = compose_with_matrix(f, pole_rotation(FR, angle).matrix)
    F, G = sample_pair(f, g)
    wit = register_pole_rotation(F, G)
    assert wrap_err(wit.parameter, angle, 2 * np.pi) < 1e-3
    assert wit.residual < 1e-8
    assert wrap_err(wit.coarse_parameter, angle, 2 * np.pi) < 1e-12


def test_rotation_fractional_angles():
    f = band_limited_field(61)
    F = sample_on_sphere(f, GRID)
    for angle in (0.1, 1.23456789, 2.9, 4.4, 6.1):
        g = compose_with_matrix(f, pole_rotation(FR, angle).matrix)
        G = sample_on_sphere(g, GRID)
        wit = register_pole_rotation(F, G)
        assert wrap_err(wit.coarse_parameter, angle, 2 * np.pi) <= 2 * np.pi / 256
        assert wrap_err(wit.parameter, angle, 2 * np.pi) < 1e-3
        assert wit.residual < 1e-8


def test_rotation_zonal_tie_breaks_to_zero():
    f = lambda x: (np.asarray(x) @ FR.pole) ** 2 + 0.3 * (np.asarray(x) @ FR.pole)
    F, G = sample_pair(f, f)
    wit = register_pole_rotation(F, G)
    assert wit.parameter == 0.0
    assert wit.residual < 1e-12


def test_rotation_independent_fields_large_residual():
    f = band_limited_field(62)
    g = band_limited_field(63)
    F, G = sample_pair(f, g)
    wit = register_pole_rotation(F, G)
    scale = max(F.sup, G.sup)
    assert wit.residual > 10 * 1e-6 * scale


def test_grid_mismatch_raises():
    f = band_limited_field(64)
    F = sample_on_sphere(f, GRID)
    other = sample_on_sphere(f, gauss_grid(FR, 16, 128))
    with pytest.raises(GridMismatchError):
        register_pole_rotation(F, other)


# -- equator flips ------------------------------------------------------------------


def test_flip_recovery():
    f = band_limited_field(65)
    F = sample_on_sphere(f, GRID)
    for beta in (0.0, 0.3, 0.87654321, 1.6, 2.9):
        g = compose_with_matrix(f, equator_flip(FR, beta).matrix)
        G = sample_on_sphere(g, GRID)
        wit = register_pole_flip(F, G)
        assert wrap_err(wit.parameter, beta, np.pi) < 1e-3
        assert wrap_err(wit.coarse_parameter, beta, np.pi) <= np.pi / 256
        assert wit.residual < 1e-8


def test_flip_no_symmetry_large_residual():
    f = band_limited_field(66)
    g = band_limited_field(67)
    F, G = sample_pair(f, g)
    wit = register_pole_flip(F, G)
    assert wit.residual > 10 * 1e-6 * max(F.sup, G.sup)


def test_flip_ball_tie_breaks_to_zero():
    one = lambda x: np.ones(np.asarray(x).shape[:-1])
    F, G = sample_pair(one, one)
    wit = register_pole_flip(F, G)
    assert wit.parameter == 0.0
    assert wit.residual < 1e-14


# -- property: recovery over random instances -----------------------------------------


def test_registration_recovery_random_family():
    rng = np.random.default_rng(9)
    grid = gauss_grid(FR, 8, 256)
    for trial in range(50):
        f = band_limited_field(1000 + trial, degree=5, terms=6)
        F = sample_on_sphere(f, grid)
        if rng.random() < 0.5:
            angle = rng.uniform(0, 2 * np.pi)
            g = compose_with_matrix(f, pole_rotation(FR, angle).matrix)
            wit = register_pole_rotation(F, sample_on_sphere(g, grid))
            assert wrap_err(wit.coarse_parameter, angle, 2 * np.pi) <= 2 * np.pi / 256
            assert wrap_err(wit.parameter, angle, 2 * np.pi) < 1e-3
        else:
            beta = rng.uniform(0, np.pi)
            g = compose_with_matrix(f, equator_flip(FR, beta).matrix)
            wit = register_pole_flip(F, sample_on_sphere(g, grid))
            assert wrap_err(wit.coarse_parameter, beta, np.pi) <= np.pi / 256
            assert wrap_err(wit.parameter, beta, np.pi) < 1e-3
        assert wit.residual <= 1e-8


@settings(max_examples=20)
@given(frame_seed=st.integers(0, 2**32 - 1), field_seed=st.integers(0, 2**32 - 1),
       angle=st.floats(0.0, 2 * np.pi, exclude_max=True),
       beta=st.floats(0.0, np.pi, exclude_max=True), n_t=st.integers(2, 9))
def test_registration_recovers_planted_parameter(frame_seed, field_seed, angle, beta, n_t):
    # an odd n_t puts a ring on the equator, which a flip maps onto itself
    frame = random_frame(np.random.default_rng(frame_seed))
    grid = gauss_grid(frame, n_t, 128)
    f = band_limited_field(field_seed)
    F = sample_on_sphere(f, grid)
    g = compose_with_matrix(f, pole_rotation(frame, angle).matrix)
    wit = register_pole_rotation(F, sample_on_sphere(g, grid))
    assert wrap_err(wit.parameter, angle, 2 * np.pi) < 1e-12
    g = compose_with_matrix(f, equator_flip(frame, beta).matrix)
    wit = register_pole_flip(F, sample_on_sphere(g, grid))
    assert wrap_err(wit.parameter, beta, np.pi) < 1e-12


def _mirror_rings(values):
    """Explicit (ring -t, azimuth -phi) reindexing on symmetric latitudes."""
    mirrored = values[::-1]
    return np.concatenate([mirrored[:, :1], mirrored[:, :0:-1]], axis=1)


@pytest.mark.parametrize("family", ["rotation", "flip"])
def test_closed_form_objective_identity(family):
    # white-noise rings: not band-limited, with content in the Nyquist bin
    rng = np.random.default_rng(17)
    grid = gauss_grid(FR, 6, 32)
    f = GridFunction(grid, rng.standard_normal((6, 32)))
    g = GridFunction(grid, rng.standard_normal((6, 32)))
    F = f.values
    if family == "flip":
        F = _mirror_rings(f.values)
        spec = _mirrored_spectrum(f)
        assert np.max(np.abs(spec - np.fft.rfft(F, axis=-1))) < 1e-12 * np.max(np.abs(spec))
    else:
        spec = f.spectrum
    assert np.max(np.abs(spec[:, -1])) > 0.1
    obj = _ShiftObjective(f, spec, g)

    def direct(a):
        return float(np.sum((obj.resample(a) - g.values) ** 2))

    h = 1e-5
    for a in rng.uniform(0.0, 2 * np.pi, 8):
        value, d1, d2 = obj.taylor(a)
        assert value == pytest.approx(direct(a), rel=1e-12, abs=0)
        assert d1 == pytest.approx((direct(a + h) - direct(a - h)) / (2 * h), rel=1e-5)
        assert d2 == pytest.approx((direct(a + h) - 2 * direct(a) + direct(a - h)) / h ** 2,
                                   rel=1e-4)
    cross = np.fft.rfft(F, axis=-1) * np.conj(np.fft.rfft(g.values, axis=-1))
    per_ring = np.fft.irfft(cross, n=32, axis=-1).sum(axis=0)
    reference = np.sum(F * F) + np.sum(g.values ** 2) - 2.0 * per_ring
    np.testing.assert_allclose(obj.curve, reference, rtol=1e-12, atol=0)
    for s in range(32):
        assert direct(2 * np.pi * s / 32) == pytest.approx(obj.curve[s], rel=1e-12, abs=0)


def test_residual_invariant_under_simultaneous_rotation():
    # the objective depends only on the relative shift
    psi = pole_rotation(FR, 2 * np.pi * 37 / 256).matrix
    f = band_limited_field(70)
    angle = 1.7
    g = compose_with_matrix(f, pole_rotation(FR, angle).matrix)
    F, G = sample_pair(f, g)
    Fp, Gp = sample_pair(compose_with_matrix(f, psi), compose_with_matrix(g, psi))
    wa = register_pole_rotation(F, G)
    wb = register_pole_rotation(Fp, Gp)
    assert abs(wa.residual - wb.residual) < 1e-10
    assert wrap_err(wa.parameter, wb.parameter, 2 * np.pi) < 1e-8


def test_snap_rule_soundness():
    # exact alpha in {0, 1} labels must never come out as a nearby fraction
    f = band_limited_field(71)
    refl = pole_reflection(FR.pole)
    for g, expect in ((f, 0.0), (compose_with_matrix(f, refl.matrix), 1.0)):
        c = classify(f, g)
        assert c.label == FIX_POLE
        assert c.alpha == expect
    assert snap_alpha(0.005) == 0.0
    assert snap_alpha(np.pi - 0.005) == 1.0
    assert snap_alpha(0.5 * np.pi) == pytest.approx(0.5)


# -- classification --------------------------------------------------------------------


def test_classify_equal_and_reflected():
    f = band_limited_field(72)
    c = classify(f, f)
    assert c.label == FIX_POLE and c.alpha == 0.0
    refl = pole_reflection(FR.pole)
    c1 = classify(f, compose_with_matrix(f, refl.matrix))
    assert c1.label == FIX_POLE and c1.alpha == 1.0
    assert c1.witness.residual < 1e-8


def test_classify_flip():
    f = odd_field(73, FR.pole)
    g = compose_with_matrix(f, equator_flip(FR, 1.1).matrix)
    c = classify(f, g)
    assert c.label == FLIP_POLE
    assert wrap_err(c.axis_azimuth, 1.1, np.pi) < 1e-3
    assert c.note == ""


def test_classify_registers_each_family_once(monkeypatch):
    # both families' objectives are built once each; the flip family's is the
    # smaller, so it is resampled first, and the rotation family's RMS alone
    # exceeds the flip residual, so the rotation family is not resampled
    built, resampled = [], []

    class Counted(registration._ShiftObjective):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        def resample(self, angle):
            resampled.append(self)
            return super().resample(angle)

    monkeypatch.setattr(registration, "_ShiftObjective", Counted)
    f = odd_field(73, FR.pole)
    g = compose_with_matrix(f, equator_flip(FR, 1.1).matrix)
    assert classify(f, g).label == FLIP_POLE
    assert len(built) == 2 and resampled == [built[1]]


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), relation=st.sampled_from(["rotation", "flip", "none"]),
       noise=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_classify_picks_the_witness_of_both_registrations(seed, relation, noise):
    # whether or not the losing family is resampled, the classification is
    # the one read from both families' full registrations
    rng = np.random.default_rng(seed)
    index = seed % 1000
    f = odd_field(index, FR.pole) if relation == "flip" else band_limited_field(index)
    if relation == "rotation":
        g = compose_with_matrix(f, pole_rotation(FR, rng.uniform(0, 2 * np.pi)).matrix)
    elif relation == "flip":
        g = compose_with_matrix(f, equator_flip(FR, rng.uniform(0, np.pi)).matrix)
    else:
        g = band_limited_field(index + 1000)
    F, G = sample_pair(f, g, CLASSIFY_GRID)
    G = GridFunction(grid=G.grid,
                     values=G.values + noise * rng.standard_normal(G.values.shape))
    rot, flip = register_pole_rotation(F, G), register_pole_flip(F, G)
    c = classify_direction(F, G, 1e-6)
    assert c.witness == (rot if rot.residual <= flip.residual else flip)


def test_classify_none_for_unrelated():
    c = classify(band_limited_field(74), band_limited_field(75))
    assert c.label == LABEL_NONE
    assert c.witness is not None


# -- symmetry detectors ------------------------------------------------------------------


def test_pole_rotation_symmetry_zonal():
    f = lambda x: (np.asarray(x) @ FR.pole) ** 3
    for angle in (0.7, np.pi, 2.2):
        assert pole_rotation_symmetry_defect(f, FR.normal, FR.pole, angle) <= 1e-10


def test_pole_rotation_symmetry_defect_matches_rotated_points():
    # the spectral shift against f evaluated again at the rotated points, on
    # the side spheres of an asymmetry certificate of planted polytopes
    pole = unit(RNG.standard_normal(4))
    for seed, star in ((130, False), (131, True)):
        K = planted_polytope(seed, pole, through_origin=star,
                             kind="star" if star else "convex")
        field = K.radial if star else K.support
        for w in directions_orthogonal_to(pole, 50):
            sup = np.max(np.abs(sample_on_sphere(
                field, gauss_grid(make_frame(pole, w), *DETECTOR_GRID)).values))
            got = pole_rotation_symmetry_defect(field, w, pole, np.pi)
            want = rotated_point_defect(field, w, pole, np.pi, *DETECTOR_GRID)
            assert abs(got - want) <= 1e-13 * sup
    # band-limited data shifts exactly between grid azimuths too
    f = band_limited_field(79)
    for angle in (0.7, 2.2):
        got = pole_rotation_symmetry_defect(f, FR.normal, FR.pole, angle)
        assert got > 1e-3
        assert abs(got - rotated_point_defect(f, FR.normal, FR.pole, angle)) <= 1e-12 * got


def test_pole_rotation_symmetry_identity_always():
    f = band_limited_field(77)
    assert pole_rotation_symmetry_defect(f, FR.normal, FR.pole, 0.0) <= 1e-12


def test_pole_rotation_symmetry_bump_rejected():
    # a single off-axis bump breaks the half-turn symmetry measurably
    x0 = FR.circle_point(0.4)
    f = lambda x: np.exp(3.0 * (np.asarray(x) @ x0))
    tol = 1e-6
    defect = pole_rotation_symmetry_defect(f, FR.normal, FR.pole, np.pi)
    assert defect > 10 * tol


def test_equator_flip_symmetry_detector():
    f = band_limited_field(78)
    assert find_equator_flip_symmetry(f, FR, tol=1e-6) is None
    M = equator_flip(FR, 0.6).matrix
    fs = lambda x: f(x) + f(np.asarray(x) @ M.T)
    axis = find_equator_flip_symmetry(fs, FR, tol=1e-6)
    assert axis is not None
    assert wrap_err(axis, 0.6, np.pi) < 1e-6


def test_equator_flip_symmetry_ball_degenerate():
    one = lambda x: np.ones(np.asarray(x).shape[:-1])
    assert find_equator_flip_symmetry(one, FR, tol=1e-6) == 0.0
    F = sample_on_sphere(one, gauss_grid(FR, 24, 128))
    wit = register_pole_flip(F, F)
    assert wit.parameter == 0.0
    assert wit.residual < 1e-14
