"""Parity split, Funk transform, and even-part comparison of fields on S^3.

The pole reflection (fixing ``pole``, negating its complement) splits any
field into even and odd parts.  Transform-side comparison integrates the
restriction of a field to each latitude ring over great circles of the
sphere orthogonal to the pole; the direct comparison uses the explicit
reflection.  Both are reported.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonOrthogonalError
from .sphere import (ORTHO_TOL, SphereGrid, circle_quadrature,
                     directions_orthogonal_to, evaluate_field, great_circle_nodes,
                     make_frame, unit)


def reflect_through_pole(points, pole):
    """Image of (..., 4) points under the pole reflection 2 p p^T - I."""
    points = np.asarray(points, dtype=float)
    pole = unit(pole)
    return 2.0 * (points @ pole)[..., None] * pole - points


@dataclass(frozen=True)
class ParityPair:
    """Even and odd components of a field with respect to a pole reflection."""

    even: object
    odd: object


def parity_decompose(f, pole) -> ParityPair:
    """Split f into its even/odd parts under the pole reflection.

    even(x) = (f(x) + f(Rx)) / 2 and odd(x) = (f(x) - f(Rx)) / 2 where R is
    the reflection fixing ``pole``.  Both are returned as fields.
    """
    pole = unit(pole)

    def even(points):
        pts = np.asarray(points, dtype=float)
        return 0.5 * (evaluate_field(f, pts)
                      + evaluate_field(f, reflect_through_pole(pts, pole)))

    def odd(points):
        pts = np.asarray(points, dtype=float)
        return 0.5 * (evaluate_field(f, pts)
                      - evaluate_field(f, reflect_through_pole(pts, pole)))

    return ParityPair(even=even, odd=odd)


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples on a (latitude ring x azimuth) grid; immutable."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_t, self.grid.n_azimuth):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_t}, {self.grid.n_azimuth})")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Azimuthal rfft of every ring, shape (n_t, n_azimuth // 2 + 1).

        Computed on first use and kept, so every registration of this grid
        function shares one transform; read-only like ``values``.
        """
        spec = np.fft.rfft(self.values, axis=-1)
        spec.setflags(write=False)
        return spec

    def parity(self):
        """Even/odd grid functions under the pole reflection (no re-evaluation)."""
        refl = np.roll(self.values, self.grid.n_azimuth // 2, axis=1)
        even = GridFunction(self.grid, 0.5 * (self.values + refl))
        odd = GridFunction(self.grid, 0.5 * (self.values - refl))
        return even, odd

    def to_csv(self) -> str:
        """CSV rows (t, azimuth, value) at full precision."""
        buf = io.StringIO()
        buf.write("t,azimuth,value\n")
        az = self.grid.azimuths
        for i, t in enumerate(self.grid.t_nodes):
            for j in range(self.grid.n_azimuth):
                buf.write(f"{t:.17g},{az[j]:.17g},{self.values[i, j]:.17g}\n")
        return buf.getvalue()


def sample_on_sphere(f, grid: SphereGrid) -> GridFunction:
    """Evaluate a field at every grid point."""
    return GridFunction(grid=grid, values=evaluate_field(f, grid.points))


def funk_transform(f, pole, w, n: int = 128) -> float:
    """Great-circle integral of f over the circle orthogonal to both pole and w.

    Arclength normalization: a unit field integrates to 2*pi.  Requires
    w . pole = 0 (within ORTHO_TOL).
    """
    frame = make_frame(pole, w)
    nodes = great_circle_nodes(frame, n)
    return float(circle_quadrature(evaluate_field(f, nodes), n))


@dataclass(frozen=True)
class EvenComparison:
    """Result of comparing the even parts of two fields.

    ``transform_dev`` is the worst great-circle integral mismatch over the
    sampled (latitude, circle) family, ``direct_dev`` the worst pointwise
    even-part mismatch on the same sample.  ``passed`` is the conjunction of
    both checks at their tolerances.
    """

    passed: bool
    transform_dev: float
    direct_dev: float
    tol: float
    f_sup: float
    g_sup: float


def even_parts_equal(f, g, pole, t_nodes, w_dirs=None, tol: float = 1e-8,
                     circle_nodes: int = 128) -> EvenComparison:
    """Two-route equality test for the even parts of f and g.

    Route (i): for every latitude t and sampled circle direction w, compare
    the integrals of the two restrictions over the great circle orthogonal
    to (pole, w), lifted to latitude t.  Route (ii): compare the even parts
    pointwise on the same sample (the reflection is explicit, so this is
    available and is the stronger check at grid resolution).

    The transform check passes when the integral mismatch is at most
    2*pi*tol (a pointwise gap of tol integrates to at most that); the direct
    check passes at tol.
    """
    pole = unit(pole)
    if circle_nodes % 2:
        raise ValueError("circle_nodes must be even")
    if w_dirs is None:
        w_dirs = directions_orthogonal_to(pole, 128)
    else:
        w_dirs = np.asarray(w_dirs, dtype=float)
        if np.max(np.abs(w_dirs @ pole)) > ORTHO_TOL:
            raise NonOrthogonalError("circle directions must be orthogonal to the pole")
    t = np.asarray(t_nodes, dtype=float)

    transform_dev = 0.0
    direct_dev = 0.0
    f_sup = 0.0
    g_sup = 0.0
    r = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    half = circle_nodes // 2
    for w in w_dirs:
        frame = make_frame(pole, w)
        circle = great_circle_nodes(frame, circle_nodes)         # (n, 4)
        pts = (r[:, None, None] * circle[None, :, :]
               + t[:, None, None] * pole[None, None, :])          # (n_t, n, 4)
        fv = evaluate_field(f, pts)
        gv = evaluate_field(g, pts)
        f_sup = max(f_sup, float(np.max(np.abs(fv))))
        g_sup = max(g_sup, float(np.max(np.abs(gv))))
        ring_f = circle_quadrature(fv)
        ring_g = circle_quadrature(gv)
        transform_dev = max(transform_dev, float(np.max(np.abs(ring_f - ring_g))))
        # reflection on these circles is the half-turn of the node index
        fe = 0.5 * (fv + np.roll(fv, half, axis=1))
        ge = 0.5 * (gv + np.roll(gv, half, axis=1))
        direct_dev = max(direct_dev, float(np.max(np.abs(fe - ge))))

    passed = (direct_dev <= tol) and (transform_dev <= 2.0 * np.pi * tol)
    return EvenComparison(passed=passed, transform_dev=transform_dev,
                          direct_dev=direct_dev, tol=tol, f_sup=f_sup, g_sup=g_sup)


def compose_with_matrix(f, matrix):
    """The field x -> f(Mx)."""
    m = np.asarray(matrix, dtype=float)

    def composed(points):
        return evaluate_field(f, np.asarray(points, dtype=float) @ m.T)

    return composed
