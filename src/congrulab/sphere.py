"""Coordinates, frames, grids and quadrature on the unit sphere of R^4.

All computations happen on S^3 and its great 2-spheres.  For a unit vector
``normal``, the *working sphere* is the great 2-sphere of directions
orthogonal to ``normal``; a second unit vector ``pole`` orthogonal to
``normal`` provides latitude/azimuth coordinates on it.  Scalar fields are
callables that accept arrays of shape ``(..., 4)`` and return shape ``(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyInputError, NonOrthogonalError

ORTHO_TOL = 1e-10  # "orthogonal within": frames, matrices and field arguments


def unit(v):
    """Normalize a vector (or an array of row vectors) to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def evaluate_field(f, points):
    """Evaluate a scalar field at an (..., 4) array of points in one call.

    Fields must accept batches: a result whose shape is not the batch shape
    ``points.shape[:-1]`` raises ValueError, and whatever the field raises
    propagates.
    """
    points = np.asarray(points, dtype=float)
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != points.shape[:-1]:
        raise ValueError(f"field returned shape {vals.shape} for a batch of "
                         f"shape {points.shape[:-1]}; fields must accept batches")
    return vals


def _standard_completion(fixed, count: int, floor: float) -> list:
    """Gram-Schmidt on e_0..e_3 in order: e_k loses its projections on the unit
    rows ``fixed`` (dots read from e_k), then on the rows kept so far in turn,
    and a remainder of norm above ``floor`` is kept, normalized, up to ``count``."""
    rows = []
    for k in range(4):
        cand = np.zeros(4)
        cand[k] = 1.0
        for v in fixed:
            cand = cand - v[k] * v
        for r in rows:
            cand = cand - (cand @ r) * r
        n = np.linalg.norm(cand)
        if n > floor:
            rows.append(cand / n)
        if len(rows) == count:
            break
    return rows


def complement_basis(pole):
    """Deterministic orthonormal basis (3 rows) of the hyperplane orthogonal to pole."""
    return np.array(_standard_completion([unit(pole)], 3, 0.5))


@dataclass(frozen=True)
class SphereFrame:
    """Orthonormal frame (e1, e2, normal, pole) attached to a working 2-sphere.

    The working sphere is {x in S^3 : x . normal = 0}; ``pole`` is its
    latitude axis and (e1, e2) span the equatorial circle orthogonal to both.
    The basis is positively oriented: det[e1, e2, normal, pole] = +1.
    """

    pole: np.ndarray
    normal: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        for name in ("pole", "normal", "e1", "e2"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        B = self.basis
        gram = B.T @ B
        if np.max(np.abs(gram - np.eye(4))) > ORTHO_TOL:
            raise NonOrthogonalError("frame vectors are not orthonormal")

    @property
    def basis(self):
        """4x4 matrix with columns (e1, e2, normal, pole)."""
        return np.column_stack([self.e1, self.e2, self.normal, self.pole])

    def circle_point(self, azimuth):
        """Point(s) on the equatorial circle at the given azimuth(s)."""
        azimuth = np.asarray(azimuth, dtype=float)
        return (np.cos(azimuth)[..., None] * self.e1
                + np.sin(azimuth)[..., None] * self.e2)


def make_frame(pole, normal) -> SphereFrame:
    """Build the deterministic frame for a (pole, normal) pair.

    ``normal`` is re-orthogonalized against ``pole`` (inputs must already be
    orthogonal within ORTHO_TOL); the azimuthal pair (e1, e2) comes from
    Gram-Schmidt on the standard basis in fixed order, with e2 flipped if
    needed so the frame is positively oriented.
    """
    pole = unit(pole)
    normal = np.asarray(normal, dtype=float)
    if abs(unit(normal) @ pole) > ORTHO_TOL:
        raise NonOrthogonalError("normal is not orthogonal to pole")
    normal = unit(normal - (normal @ pole) * pole)
    e1, e2 = _standard_completion([pole, normal], 2, 0.25)
    if np.linalg.det(np.column_stack([e1, e2, normal, pole])) < 0:
        e2 = -e2
    return SphereFrame(pole=pole, normal=normal, e1=e1, e2=e2)


@lru_cache(maxsize=32)
def gauss_latitude_nodes(n_t: int):
    """Increasing Gauss-Legendre nodes on (-1, 1), exactly symmetric about 0,
    computed once per n_t and shared by every caller, so read-only."""
    if n_t < 1:
        raise ValueError("need at least one latitude node")
    t = np.polynomial.legendre.leggauss(n_t)[0]
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class SphereGrid:
    """Working-sphere grid: its frame, n_t Gauss-Legendre latitude rings
    ``t_nodes``, symmetric about the equator so that a flip reads them in
    reverse, and n_azimuth uniform azimuths.  The grid is exactly antipodal:
    ring n_t - 1 - i at azimuth j + n_azimuth / 2 is the negation of ring i
    at azimuth j (``points``)."""

    frame: SphereFrame
    n_t: int
    n_azimuth: int

    def __post_init__(self):
        if self.n_azimuth < 8 or self.n_azimuth % 2:
            raise ValueError("n_azimuth must be even and >= 8")
        object.__setattr__(self, "t_nodes", gauss_latitude_nodes(self.n_t))

    @cached_property
    def upper_points(self):
        """The first ceil(n_t / 2) rings of ``points``, built without the
        others: ring i is r_i times the equatorial circle
        (``great_circle_nodes``, whose second half negates its first) plus
        t_i times the pole, r_i = sqrt(1 - t_i^2).

        The ring products are one (rings, n_azimuth * 4) outer product, so
        numpy runs them in long rows rather than in rows of 4.
        """
        rings = (self.n_t + 1) // 2
        t = self.t_nodes[:rings, None]
        r = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        circle = great_circle_nodes(self.frame, self.n_azimuth).reshape(1, -1)
        pts = (r * circle).reshape(rings, self.n_azimuth, 4)
        pts += (t * self.frame.pole)[:, None, :]
        pts.setflags(write=False)
        return pts

    @cached_property
    def points(self):
        """All grid points, shape (n_t, n_azimuth, 4): ``upper_points``, then
        the negated upper rings read through ``lower_rings``, so that
        points[n_t-1-i, (j + n_azimuth/2) % n_azimuth] == -points[i, j]
        exactly (an odd n_t's equator ring up to the sign of a zero).  As
        t_{n_t-1-i} = -t_i, every ring is r_i times the circle plus t_i pole.
        """
        up = self.upper_points
        pts = np.concatenate([up, self.lower_rings(-up)])
        pts.setflags(write=False)
        return pts

    def lower_rings(self, antipodes):
        """The last n_t // 2 rings of a grid array given, on the first
        ceil(n_t / 2) rings, at the antipodes of their points: ring
        n_t - 1 - i at azimuth j + n_azimuth / 2 reads antipodes[i, j]."""
        return np.roll(antipodes[:self.n_t // 2], self.n_azimuth // 2, axis=1)[::-1]


def gauss_grid(frame: SphereFrame, n_t: int = 64, n_azimuth: int = 256) -> SphereGrid:
    """Default grid: Gauss-Legendre latitudes x uniform azimuths."""
    return SphereGrid(frame=frame, n_t=n_t, n_azimuth=n_azimuth)


def great_circle_nodes(frame: SphereFrame, n: int):
    """n equispaced points on the equatorial circle of the frame, the first
    at e1.  For even n, node j + n/2 is exactly the negation of node j."""
    if n < 2:
        raise ValueError("need at least 2 circle nodes")
    if n % 2:
        return frame.circle_point(2.0 * np.pi * np.arange(n) / n)
    half = frame.circle_point(2.0 * np.pi * np.arange(n // 2) / n)
    return np.concatenate([half, -half])


def circle_quadrature(f_values) -> float:
    """Trapezoidal circle integral: (2 pi / n) * sum of n equispaced samples.

    Spectrally accurate for smooth periodic integrands.  Accepts a batch with
    samples along the last axis.
    """
    vals = np.asarray(f_values, dtype=float)
    if vals.size == 0:
        raise EmptyInputError("circle_quadrature received no samples")
    out = (2.0 * np.pi / vals.shape[-1]) * vals.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def directions_orthogonal_to(pole, count: int):
    """Quasi-uniform spread of ``count`` directions on the 2-sphere orthogonal to pole.

    Golden-angle (Fibonacci) spiral mapped through a deterministic basis of
    the complement, so the output is reproducible.
    """
    if count < 1:
        raise ValueError("count must be positive")
    basis = complement_basis(pole)
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = np.pi * (3.0 - np.sqrt(5.0)) * k
    xyz = np.stack([r * np.cos(az), r * np.sin(az), z], axis=-1)
    return xyz @ basis


def random_directions(count: int, rng) -> np.ndarray:
    """count uniformly random unit vectors in R^4."""
    v = rng.standard_normal((count, 4))
    return unit(v)
