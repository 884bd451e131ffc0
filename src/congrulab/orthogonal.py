"""Orthogonal transformations of R^4 used by the congruence machinery.

Two one-parameter families attached to a frame: rotations of the working
sphere about its pole, and half-turn rotations about an equatorial axis
(these reverse the pole).  Plus the pole reflection, which fixes the pole
and negates its orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sphere import ORTHO_TOL, SphereFrame, unit

FIX_POLE = "fix_pole"
FLIP_POLE = "flip_pole"


@dataclass(frozen=True)
class Orthogonal4:
    """A validated orthogonal 4x4 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4) or not np.all(np.isfinite(m)):
            raise ValueError("expected a 4x4 matrix of finite numbers")
        if np.max(np.abs(m.T @ m - np.eye(4))) > ORTHO_TOL:
            raise ValueError("matrix is not orthogonal")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def apply(self, points):
        """Apply to a 4-vector or an (..., 4) array of row vectors."""
        return np.asarray(points, dtype=float) @ self.matrix.T

    def transpose(self) -> "Orthogonal4":
        return Orthogonal4(self.matrix.T)

    def to_flat(self) -> list:
        """Row-major 16-number list (JSON wire format)."""
        return [float(x) for x in self.matrix.reshape(-1)]

    @classmethod
    def from_flat(cls, flat) -> "Orthogonal4":
        arr = np.asarray(flat, dtype=float)
        if arr.size != 16:
            raise ValueError("expected 16 numbers")
        return cls(arr.reshape(4, 4))


def identity() -> Orthogonal4:
    return Orthogonal4(np.eye(4))


def compose(a: Orthogonal4, b: Orthogonal4) -> Orthogonal4:
    """Composition a after b: (compose(a, b))(x) = a(b(x))."""
    return Orthogonal4(a.matrix @ b.matrix)


def pole_reflection(pole) -> Orthogonal4:
    """The involution fixing ``pole`` and negating its orthogonal complement.

    M = 2 p p^T - I; determinant -1; restricted to any working sphere with
    this pole it acts as the antipode of the equator (azimuth shift by pi).
    """
    p = unit(pole)
    return Orthogonal4(2.0 * np.outer(p, p) - np.eye(4))


@dataclass(frozen=True)
class AxisRotation:
    """A rotation of the working sphere of ``frame``, materialized on demand.

    kind FIX_POLE: rotation about the pole by ``parameter`` radians (positive
    angle turns e1 toward e2).  kind FLIP_POLE: half-turn about the equatorial
    axis at azimuth ``parameter``; it reverses the pole and is an involution.
    Both fix the frame normal, so they restrict to rotations of the sphere.
    """

    frame: SphereFrame
    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in (FIX_POLE, FLIP_POLE):
            raise ValueError(f"unknown rotation kind {self.kind!r}")
        object.__setattr__(self, "parameter", float(self.parameter) % (2.0 * np.pi))

    @cached_property
    def matrix(self) -> Orthogonal4:
        f = self.frame
        if self.kind == FIX_POLE:
            a = self.parameter
            m = (np.cos(a) * (np.outer(f.e1, f.e1) + np.outer(f.e2, f.e2))
                 + np.sin(a) * (np.outer(f.e2, f.e1) - np.outer(f.e1, f.e2))
                 + np.outer(f.normal, f.normal) + np.outer(f.pole, f.pole))
        else:
            u = f.circle_point(self.parameter)
            m = (2.0 * np.outer(u, u) + 2.0 * np.outer(f.normal, f.normal)
                 - np.eye(4))
        return Orthogonal4(m)

    def apply(self, points):
        return self.matrix.apply(points)

    def axis(self):
        """The fixed equatorial axis (FLIP_POLE) or the pole (FIX_POLE)."""
        if self.kind == FIX_POLE:
            return self.frame.pole
        return self.frame.circle_point(self.parameter)


def pole_rotation(frame: SphereFrame, angle: float) -> AxisRotation:
    """Rotation of the working sphere about its pole by ``angle`` radians."""
    return AxisRotation(frame=frame, kind=FIX_POLE, parameter=angle)


def equator_flip(frame: SphereFrame, axis_azimuth: float) -> AxisRotation:
    """Half-turn about the equatorial axis at ``axis_azimuth``; reverses the pole."""
    return AxisRotation(frame=frame, kind=FLIP_POLE, parameter=axis_azimuth)
