import numpy as np
import pytest

from congrulab.orthogonal import (Orthogonal4, compose, equator_flip, identity,
                                  pole_reflection, pole_rotation)
from congrulab.sphere import make_frame, unit

from helpers import embed_rotation, rodrigues

RNG = np.random.default_rng(202)


def random_frame(rng):
    pole = unit(rng.standard_normal(4))
    nrm = rng.standard_normal(4)
    nrm = nrm - (nrm @ pole) * pole
    return make_frame(pole, nrm)


def test_orthogonal4_validation():
    with pytest.raises(ValueError):
        Orthogonal4(np.eye(4) * 1.1)
    with pytest.raises(ValueError):
        Orthogonal4(np.eye(3))
    m = Orthogonal4(np.eye(4))
    assert m.det == pytest.approx(1.0)


def test_orthogonal4_flat_roundtrip():
    q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
    m = Orthogonal4(q)
    again = Orthogonal4.from_flat(m.to_flat())
    assert np.max(np.abs(again.matrix - m.matrix)) == 0.0


def test_pole_rotation_actions():
    fr = random_frame(RNG)
    assert np.max(np.abs(pole_rotation(fr, 0.0).matrix @ fr.e1 - fr.e1)) < 1e-14
    assert np.allclose(pole_rotation(fr, np.pi).apply(fr.e1), -fr.e1, atol=1e-12)
    # orientation convention: positive angle turns e1 toward e2
    assert np.allclose(pole_rotation(fr, np.pi / 2).apply(fr.e1), fr.e2, atol=1e-12)
    assert np.allclose(pole_rotation(fr, 1.234).apply(fr.pole), fr.pole, atol=1e-12)


def test_equator_flip_actions():
    fr = random_frame(RNG)
    beta = 0.81
    flip = equator_flip(fr, beta)
    u = fr.circle_point(beta)
    assert np.allclose(flip.apply(u), u, atol=1e-12)
    assert np.allclose(flip.apply(fr.pole), -fr.pole, atol=1e-12)
    sq = compose(flip, flip)
    assert np.max(np.abs(sq.matrix - np.eye(4))) < 1e-12


def test_pole_reflection_actions():
    pole = unit(RNG.standard_normal(4))
    refl = pole_reflection(pole)
    assert np.allclose(refl.apply(pole), pole, atol=1e-14)
    x = RNG.standard_normal(4)
    x = unit(x - (x @ pole) * pole)
    assert np.allclose(refl.apply(x), -x, atol=1e-13)
    assert np.max(np.abs(refl.matrix @ refl.matrix - np.eye(4))) < 1e-14
    assert refl.det == pytest.approx(-1.0, abs=1e-12)


def test_reflection_commutes_with_both_families():
    fr = random_frame(RNG)
    refl = pole_reflection(fr.pole)
    for rot in (pole_rotation(fr, 1.1), equator_flip(fr, 0.4)):
        m = rot.matrix
        comm = refl.matrix @ m - m @ refl.matrix
        assert np.max(np.abs(comm)) < 1e-12


def test_compose_identities():
    q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
    R = Orthogonal4(q)
    assert np.max(np.abs(compose(R, identity()).matrix - R.matrix)) == 0.0
    assert np.max(np.abs(compose(R, Orthogonal4(R.matrix.T)).matrix - np.eye(4))) < 1e-14


def test_two_flips_compose_to_double_angle_rotation():
    # half-turns about axes separated by beta compose to a rotation by
    # 2*beta about the axis orthogonal to both; oracle built from the
    # axis-angle formula in the 3-space spanned by (e1, e2, pole)
    rng = np.random.default_rng(11)
    for _ in range(100):
        fr = random_frame(rng)
        b1, b2 = rng.uniform(0, np.pi, 2)
        got = compose(equator_flip(fr, b1), equator_flip(fr, b2))
        expected = embed_rotation(fr, rodrigues([0.0, 0.0, 1.0], 2 * (b1 - b2)))
        assert np.max(np.abs(got.matrix - expected)) < 1e-10


def test_fix_pole_rotations_form_group():
    fr = random_frame(RNG)
    for _ in range(20):
        a, b = RNG.uniform(0, 2 * np.pi, 2)
        lhs = compose(pole_rotation(fr, a), pole_rotation(fr, b))
        rhs = pole_rotation(fr, (a + b) % (2 * np.pi))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-10


def test_axis_rotation_matrices_orthogonal():
    for _ in range(20):
        fr = random_frame(RNG)
        for rot in (pole_rotation(fr, RNG.uniform(0, 2 * np.pi)),
                    equator_flip(fr, RNG.uniform(0, np.pi))):
            m = rot.matrix
            assert np.max(np.abs(m.T @ m - np.eye(4))) < 1e-10
            assert np.allclose(m @ fr.normal, fr.normal, atol=1e-12)
