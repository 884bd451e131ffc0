import numpy as np
import pytest

from congrulab.errors import EmptyInputError, NonOrthogonalError
from congrulab.sphere import (SphereGrid, circle_quadrature, complement_basis,
                              directions_orthogonal_to, embed_parallel,
                              gauss_grid, gauss_latitude_nodes,
                              great_circle_nodes, make_frame, random_directions,
                              unit)

RNG = np.random.default_rng(101)


def random_frame(rng):
    pole = unit(rng.standard_normal(4))
    nrm = rng.standard_normal(4)
    nrm = nrm - (nrm @ pole) * pole
    return make_frame(pole, nrm)


def test_frame_gram_identity():
    for _ in range(50):
        fr = random_frame(RNG)
        B = fr.basis
        assert np.max(np.abs(B.T @ B - np.eye(4))) < 1e-12
        assert np.linalg.det(B) > 0


def test_frame_rejects_non_orthogonal_pair():
    with pytest.raises(NonOrthogonalError):
        make_frame([1, 0, 0, 0], [1, 1, 0, 0])


def test_embed_parallel_identity_and_pole():
    fr = random_frame(RNG)
    x = fr.circle_point(0.3)
    assert np.allclose(embed_parallel(x, 0.0, fr.pole), x, atol=1e-14)
    assert np.allclose(embed_parallel(x, 1.0, fr.pole), fr.pole, atol=1e-14)


def test_embed_parallel_explicit_value():
    e1 = np.array([1.0, 0, 0, 0])
    e4 = np.array([0.0, 0, 0, 1])
    th = embed_parallel(e1, 0.6, e4)
    assert np.allclose(th, [0.8, 0, 0, 0.6], atol=1e-15)


def test_embed_parallel_rejects_non_orthogonal():
    with pytest.raises(NonOrthogonalError):
        embed_parallel(np.array([1.0, 0, 0, 1e-3]), 0.5, np.array([0.0, 0, 0, 1]))


def test_embed_parallel_lands_on_working_sphere():
    for _ in range(20):
        fr = random_frame(RNG)
        az = RNG.uniform(0, 2 * np.pi)
        x = fr.circle_point(az)
        t = RNG.uniform(-1, 1)
        th = embed_parallel(x, t, fr.pole)
        assert abs(np.linalg.norm(th) - 1) < 1e-12
        assert abs(th @ fr.normal) < 1e-12


def test_grid_point_values():
    fr = random_frame(RNG)
    t_nodes = np.array([-0.5, 0.0, 0.5])
    weights = np.ones(3)
    grid = SphereGrid(frame=fr, t_nodes=t_nodes, t_weights=weights, n_azimuth=16)
    assert np.allclose(grid.point(1, 0), fr.e1, atol=1e-14)
    assert np.allclose(grid.point(1, 4), fr.e2, atol=1e-14)
    norms = np.linalg.norm(grid.points, axis=-1)
    assert np.max(np.abs(norms - 1)) < 1e-12
    with pytest.raises(IndexError):
        grid.point(3, 0)
    with pytest.raises(IndexError):
        grid.point(0, 16)


def test_grid_invariants_enforced():
    fr = random_frame(RNG)
    with pytest.raises(ValueError):
        SphereGrid(frame=fr, t_nodes=np.array([0.5, -0.5]),
                   t_weights=np.ones(2), n_azimuth=16)
    with pytest.raises(ValueError):
        SphereGrid(frame=fr, t_nodes=np.array([-0.5, 0.5]),
                   t_weights=np.array([1.0, -1.0]), n_azimuth=16)
    with pytest.raises(ValueError):
        SphereGrid(frame=fr, t_nodes=np.array([-0.5, 0.5]),
                   t_weights=np.ones(2), n_azimuth=15)


def test_great_circle_nodes_small_case():
    fr = random_frame(RNG)
    nodes = great_circle_nodes(fr, 4)
    expect = np.array([fr.e1, fr.e2, -fr.e1, -fr.e2])
    assert np.max(np.abs(nodes - expect)) < 1e-14


def test_great_circle_nodes_orthogonality_and_balance():
    fr = random_frame(RNG)
    nodes = great_circle_nodes(fr, 24)
    assert np.max(np.abs(nodes @ fr.pole)) < 1e-12
    assert np.max(np.abs(nodes @ fr.normal)) < 1e-12
    assert np.max(np.abs(nodes.sum(axis=0))) < 1e-12


def test_circle_quadrature_basic():
    assert abs(circle_quadrature(np.ones(16)) - 2 * np.pi) < 1e-14
    az = 2 * np.pi * np.arange(16) / 16
    assert abs(circle_quadrature(np.cos(az))) < 1e-12
    # analytic: integral of cos^2 over the circle is pi
    assert abs(circle_quadrature(np.cos(az) ** 2) - np.pi) < 1e-12


def test_circle_quadrature_trig_polynomials_exact():
    # exact for trigonometric polynomials of degree < n/2
    n = 32
    az = 2 * np.pi * np.arange(n) / n
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = rng.integers(0, n // 2)
        a, b = rng.standard_normal(2)
        vals = a * np.cos(deg * az) + b * np.sin(deg * az)
        expect = 2 * np.pi * a if deg == 0 else 0.0
        assert abs(circle_quadrature(vals) - expect) < 1e-10


def test_circle_quadrature_empty_input():
    with pytest.raises(EmptyInputError):
        circle_quadrature(np.array([]))


def test_gauss_nodes_integrate_polynomials():
    t, w = gauss_latitude_nodes(16)
    # exact for polynomials of degree < 32
    for deg in range(0, 31):
        val = float(np.sum(w * t ** deg))
        expect = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - expect) < 1e-13


def test_gauss_nodes_cached_read_only():
    t1, w1 = gauss_latitude_nodes(16)
    t2, w2 = gauss_latitude_nodes(16)
    assert t1 is t2 and w1 is w2
    assert not t1.flags.writeable and not w1.flags.writeable
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_gauss_grid_defaults_symmetric():
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 64, 256)
    assert grid.n_t == 64 and grid.n_azimuth == 256
    for i in range(64):
        assert grid.mirror_index(i) == 63 - i


def test_directions_orthogonal_to():
    pole = unit(RNG.standard_normal(4))
    ws = directions_orthogonal_to(pole, 128)
    assert ws.shape == (128, 4)
    assert np.max(np.abs(ws @ pole)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(ws, axis=1) - 1)) < 1e-12
    # quasi-uniform: no two directions extremely close
    dots = ws @ ws.T - 2 * np.eye(128)
    assert np.max(dots) < 0.999


def test_complement_basis_orthonormal():
    for _ in range(20):
        pole = unit(RNG.standard_normal(4))
        B = complement_basis(pole)
        assert np.max(np.abs(B @ B.T - np.eye(3))) < 1e-12
        assert np.max(np.abs(B @ pole)) < 1e-12


def test_random_directions_unit():
    dirs = random_directions(100, np.random.default_rng(0))
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1)) < 1e-12
