"""Orthogonal transformations of R^4 used by the congruence machinery.

Two one-parameter families attached to a frame: rotations of the working
sphere about its pole, and half-turn rotations about an equatorial axis
(these reverse the pole).  Plus the pole reflection, which fixes the pole
and negates its orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def pole_rotation(frame: SphereFrame, angle: float) -> Orthogonal4:
    """Rotation of the working sphere of ``frame`` about its pole by ``angle``
    radians; a positive angle turns e1 toward e2.  Fixes the frame normal."""
    a = float(angle) % (2.0 * np.pi)
    e1, e2, n, p = frame.e1, frame.e2, frame.normal, frame.pole
    return Orthogonal4(np.cos(a) * (np.outer(e1, e1) + np.outer(e2, e2))
                       + np.sin(a) * (np.outer(e2, e1) - np.outer(e1, e2))
                       + np.outer(n, n) + np.outer(p, p))


def equator_flip(frame: SphereFrame, axis_azimuth: float) -> Orthogonal4:
    """Half-turn of the working sphere of ``frame`` about the equatorial axis
    at ``axis_azimuth``; it reverses the pole, fixes the frame normal and is
    an involution."""
    u = frame.circle_point(float(axis_azimuth) % (2.0 * np.pi))
    return Orthogonal4(2.0 * np.outer(u, u) + 2.0 * np.outer(frame.normal, frame.normal)
                       - np.eye(4))
