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


def complement_basis(pole):
    """Deterministic orthonormal basis (3 rows) of the hyperplane orthogonal to pole."""
    pole = unit(pole)
    rows = []
    for k in range(4):
        cand = np.zeros(4)
        cand[k] = 1.0
        cand = cand - (cand @ pole) * pole
        for r in rows:
            cand = cand - (cand @ r) * r
        n = np.linalg.norm(cand)
        if n > 0.5:
            rows.append(cand / n)
        if len(rows) == 3:
            break
    return np.array(rows)


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

    def sphere_point(self, t, azimuth):
        """Point(s) of the working sphere at latitude t and azimuth."""
        t = np.asarray(t, dtype=float)
        r = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        return r[..., None] * self.circle_point(azimuth) + t[..., None] * self.pole


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
    rows = []
    for k in range(4):
        cand = np.zeros(4)
        cand[k] = 1.0
        cand = cand - (cand @ pole) * pole - (cand @ normal) * normal
        for r in rows:
            cand = cand - (cand @ r) * r
        n = np.linalg.norm(cand)
        if n > 0.25:
            rows.append(cand / n)
        if len(rows) == 2:
            break
    e1, e2 = rows
    if np.linalg.det(np.column_stack([e1, e2, normal, pole])) < 0:
        e2 = -e2
    return SphereFrame(pole=pole, normal=normal, e1=e1, e2=e2)


@lru_cache(maxsize=32)
def gauss_latitude_nodes(n_t: int):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per n_t.

    The cached arrays are shared by every caller, so they are read-only.
    """
    if n_t < 1:
        raise ValueError("need at least one latitude node")
    t, w = np.polynomial.legendre.leggauss(n_t)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class SphereGrid:
    """Product grid (latitude rings x uniform azimuths) on a working sphere."""

    frame: SphereFrame
    t_nodes: np.ndarray
    t_weights: np.ndarray
    n_azimuth: int

    def __post_init__(self):
        t = np.array(self.t_nodes, dtype=float)
        w = np.array(self.t_weights, dtype=float)
        if t.ndim != 1 or t.shape != w.shape:
            raise ValueError("t_nodes and t_weights must be 1-d arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("t_nodes must be strictly increasing")
        if np.any(np.abs(t) >= 1.0):
            raise ValueError("t_nodes must lie in (-1, 1)")
        if np.any(w <= 0):
            raise ValueError("t_weights must be positive")
        if self.n_azimuth < 8 or self.n_azimuth % 2:
            raise ValueError("n_azimuth must be even and >= 8")
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "t_weights", w)

    @property
    def n_t(self) -> int:
        return len(self.t_nodes)

    @cached_property
    def azimuths(self):
        az = 2.0 * np.pi * np.arange(self.n_azimuth) / self.n_azimuth
        az.setflags(write=False)
        return az

    @cached_property
    def points(self):
        """All grid points, shape (n_t, n_azimuth, 4)."""
        pts = self.frame.sphere_point(self.t_nodes[:, None],
                                      self.azimuths[None, :])
        pts.setflags(write=False)
        return pts

    def point(self, i_t: int, j_az: int):
        """Single grid point; raises IndexError on out-of-range indices."""
        if not (0 <= i_t < self.n_t and 0 <= j_az < self.n_azimuth):
            raise IndexError(f"grid index ({i_t}, {j_az}) out of range")
        return self.points[i_t, j_az]

    def mirror_index(self, i_t: int) -> int:
        """Ring index at latitude -t_nodes[i_t] (requires symmetric nodes)."""
        j = self.n_t - 1 - i_t
        if abs(self.t_nodes[i_t] + self.t_nodes[j]) > 1e-9:
            from .errors import AsymmetricRingsError
            raise AsymmetricRingsError("t_nodes are not symmetric about 0")
        return j


def gauss_grid(frame: SphereFrame, n_t: int = 64, n_azimuth: int = 256) -> SphereGrid:
    """Default grid: Gauss-Legendre latitudes x uniform azimuths."""
    t, w = gauss_latitude_nodes(n_t)
    return SphereGrid(frame=frame, t_nodes=t, t_weights=w, n_azimuth=n_azimuth)


def great_circle_nodes(frame: SphereFrame, n: int):
    """n equispaced points on the equatorial circle of the frame."""
    if n < 2:
        raise ValueError("need at least 2 circle nodes")
    az = 2.0 * np.pi * np.arange(n) / n
    return frame.circle_point(az)


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
