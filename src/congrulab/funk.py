"""Parity split, Funk transform and sampled grid functions on S^3.

The pole reflection (fixing ``pole``, negating its complement) splits any
field into even and odd parts: as fields, and on a sampled grid as the
azimuth half-turn of each latitude ring.  The Funk transform integrates a
field over a great circle orthogonal to the pole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bodies import Body4
from .orthogonal import pole_reflection
from .sphere import (SphereGrid, circle_quadrature, evaluate_field,
                     great_circle_nodes, make_frame)


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
    reflected = compose_with_matrix(f, pole_reflection(pole).matrix)

    def even(points):
        return 0.5 * (evaluate_field(f, points) + reflected(points))

    def odd(points):
        return 0.5 * (evaluate_field(f, points) - reflected(points))

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

    @cached_property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def sumsq(self) -> float:
        """Sum of the squared values, taken on first use and kept: every
        registration of this grid function reads it."""
        return float(np.sum(self.values * self.values))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Azimuthal rfft of every ring, shape (n_t, n_azimuth // 2 + 1).

        Computed on first use and kept, so every registration of this grid
        function shares one transform; read-only like ``values``.  A parity
        part masks its parent's spectrum instead (see ``parity``).
        """
        parity_of = self.__dict__.get("_parity_of")
        if parity_of is None:
            spec = np.fft.rfft(self.values, axis=-1)
        else:
            parent, dropped = parity_of
            spec = np.where(dropped, 0.0, parent.spectrum)
        spec.setflags(write=False)
        return spec

    def parity(self):
        """Even/odd grid functions under the pole reflection (no re-evaluation).

        The parts are finite whenever this function is, so they are built
        without the copy and the check of ``__post_init__``.  The half-turn
        multiplies azimuth bin k by (-1)^k, so the even part's spectrum is
        this function's even bins and the odd part's its odd bins: each is a
        mask of ``spectrum``, taken when the part's spectrum is first read,
        so the split costs no transform of its own.  A verify reads only the
        odd parts' spectra, and only when it registers them, so a mask taken
        up front would mostly go unread.
        """
        refl = np.roll(self.values, self.grid.n_azimuth // 2, axis=1)
        odd_bins = np.arange(self.grid.n_azimuth // 2 + 1) % 2 == 1
        parts = []
        for values, dropped in ((0.5 * (self.values + refl), odd_bins),
                                (0.5 * (self.values - refl), ~odd_bins)):
            values.setflags(write=False)
            part = object.__new__(GridFunction)
            part.__dict__.update(grid=self.grid, values=values, _parity_of=(self, dropped))
            parts.append(part)
        return tuple(parts)


def sample_on_sphere(f, grid: SphereGrid) -> GridFunction:
    """Evaluate a field at every grid point.

    A body's ``support`` or ``radial`` bound to the body (a wrapper installed
    on ``Body4`` passes this test too) is evaluated on the grid's upper rings
    only: ``Body4.antipodal_values`` gives f(theta) and f(-theta) from one
    product, and the grid is antipodal, so the lower rings read the values
    at -theta (``SphereGrid.lower_rings``).  A polytope's radial reads only
    the polar rows that can attain its max on the sphere orthogonal to the
    frame normal.  Any other callable is evaluated at every point
    (``evaluate_field``).
    """
    body, method = getattr(f, "__self__", None), getattr(f, "__func__", None)
    if isinstance(body, Body4) and method in (Body4.support, Body4.radial):
        top, bottom = body.antipodal_values(method is Body4.radial, grid.frame.normal,
                                            grid.upper_points)
        values = np.concatenate([top, grid.lower_rings(bottom)])
    else:
        values = evaluate_field(f, grid.points)
    return GridFunction(grid=grid, values=values)


def funk_transform(f, pole, w, n: int = 128) -> float:
    """Great-circle integral of f over the circle orthogonal to both pole and w.

    Arclength normalization: a unit field integrates to 2*pi.  Requires
    w . pole = 0 (within ORTHO_TOL).
    """
    frame = make_frame(pole, w)
    nodes = great_circle_nodes(frame, n)
    return float(circle_quadrature(evaluate_field(f, nodes)))


def compose_with_matrix(f, matrix):
    """The field x -> f(Mx)."""
    m = np.asarray(matrix, dtype=float)

    def composed(points):
        return evaluate_field(f, np.asarray(points, dtype=float) @ m.T)

    return composed
