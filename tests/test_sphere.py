import numpy as np
import pytest

from congrulab.errors import EmptyInputError, NonOrthogonalError
from congrulab.sphere import (SphereGrid, circle_quadrature, complement_basis,
                              directions_orthogonal_to, gauss_grid,
                              gauss_latitude_nodes, great_circle_nodes,
                              make_frame, random_directions, unit)

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


def test_grid_point_values():
    fr = random_frame(RNG)
    grid = gauss_grid(fr, 3, 16)
    # the middle of three Gauss nodes is the equator
    assert grid.t_nodes[1] == 0.0
    assert grid.points.shape == (3, 16, 4)
    assert np.allclose(grid.points[1, 0], fr.e1, atol=1e-14)
    assert np.allclose(grid.points[1, 4], fr.e2, atol=1e-14)
    norms = np.linalg.norm(grid.points, axis=-1)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert np.max(np.abs(grid.points @ fr.normal)) < 1e-14


def test_grid_invariants_enforced():
    fr = random_frame(RNG)
    assert SphereGrid(frame=fr, n_t=1, n_azimuth=8).points.shape == (1, 8, 4)
    for n_t, n_azimuth in [(0, 16), (-1, 16), (4, 15), (4, 6), (4, 0)]:
        with pytest.raises(ValueError):
            SphereGrid(frame=fr, n_t=n_t, n_azimuth=n_azimuth)


@pytest.mark.parametrize("n_t, n_azimuth", [(1, 8), (3, 10), (4, 16), (17, 22), (24, 128),
                                             (64, 256)])
def test_grid_is_exactly_antipodal(n_t, n_azimuth):
    # ring n_t-1-i at azimuth j + n/2 is the negation of ring i at azimuth j,
    # bit for bit, and the upper rings are built without the others
    grid = gauss_grid(random_frame(RNG), n_t, n_azimuth)
    upper = grid.upper_points
    assert "points" not in grid.__dict__
    pts = grid.points
    i, j = np.arange(n_t)[:, None], np.arange(n_azimuth)[None, :]
    antipodes = pts[n_t - 1 - i, (j + n_azimuth // 2) % n_azimuth]
    assert np.array_equal(antipodes.view(np.int64), (-pts).view(np.int64))
    assert np.array_equal(upper.view(np.int64), pts[:(n_t + 1) // 2].view(np.int64))
    assert not upper.flags.writeable and not pts.flags.writeable


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


def test_gauss_nodes_symmetric_bitwise():
    # a flip reads ring n_t - 1 - i for ring i, which needs t[::-1] == -t exactly
    for n_t in range(1, 513):
        t = gauss_latitude_nodes(n_t)
        assert t.shape == (n_t,)
        assert np.array_equal(t[::-1], -t), n_t
        assert np.all(np.diff(t) > 0) and np.all(np.abs(t) < 1.0), n_t


def test_gauss_nodes_cached_read_only():
    t1 = gauss_latitude_nodes(16)
    t2 = gauss_latitude_nodes(16)
    assert t1 is t2
    assert not t1.flags.writeable
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_gauss_grid_defaults_symmetric():
    fr = random_frame(RNG)
    grid = gauss_grid(fr)
    assert grid.n_t == 64 and grid.n_azimuth == 256
    assert grid.t_nodes is gauss_latitude_nodes(64)
    assert np.array_equal(grid.t_nodes[::-1], -grid.t_nodes)
    # ring 63 - i is ring i reflected through the equator
    mirrored = grid.points[::-1] - 2 * (grid.points[::-1] @ fr.pole)[..., None] * fr.pole
    assert np.max(np.abs(mirrored - grid.points)) < 1e-14


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
