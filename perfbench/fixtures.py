"""Seeded body specs for the benchmark workloads.

Everything here is plain numpy on the benchmark's side: the program only
ever sees the JSON-style body specs built below, loaded through
``congrulab.bodies.body_from_spec``.  The constructions follow the paper's
planted-transform setting: a polytope with a unique diameter of known
length along the pole, then a planted translation (and, for the reflected
relation, the pole reflection) applied through the spec's transform chain.
"""

from __future__ import annotations

import numpy as np

DIAM = 2.0          # planted diameter length of every verify fixture


def random_units(rng, count: int) -> np.ndarray:
    v = rng.standard_normal((count, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng) -> np.ndarray:
    """Uniformly random rotation matrix (det +1)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def reflection_matrix(pole) -> np.ndarray:
    """The pole reflection 2 p p^T - I: fixes the pole, negates its complement."""
    return 2.0 * np.outer(pole, pole) - np.eye(4)


# Fixture shapes are built around the pole e1 from fixed generator seeds and
# then rotated by the workload seed's rotation Q, which also carries the pole
# to Q e1.  The seed thus sets every input's orientation, pole and planted
# translation, while vertex and facet counts, which set the cost of a field
# evaluation, stay the same under every seed.
E1 = np.eye(4)[0]
_SHAPE_SEED = 0xC0A6


def planted_vertices(index: int, through_origin: bool = False) -> np.ndarray:
    """Vertices of the index-th polytope whose only diameter is a segment of
    length DIAM along e1.

    The diameter endpoints sit at c +- (DIAM/2) e1 and every other vertex
    lies within 0.33*DIAM of c, so no other pair comes near the diameter
    length.  ``through_origin`` puts c on the e1 axis and adds a small
    cross-polytope so the origin is interior (star-body fixtures).
    """
    rng = np.random.default_rng([_SHAPE_SEED, index, int(through_origin)])
    n_extra = 28
    if through_origin:
        c = 0.07 * DIAM * E1
    else:
        c = 0.15 * DIAM * random_units(rng, 1)[0]
    ends = np.array([c + 0.5 * DIAM * E1, c - 0.5 * DIAM * E1])
    radii = rng.uniform(0.5, 1.0, (n_extra, 1))
    cloud = c + 0.33 * DIAM * random_units(rng, n_extra) * radii
    pts = np.vstack([ends, cloud])
    if through_origin:
        pts = np.vstack([pts, c + 0.3 * DIAM * np.vstack([np.eye(4), -np.eye(4)])])
    return pts


def polytope_spec(vertices, kind: str = "convex") -> dict:
    return {"kind": kind,
            "shape": {"type": "polytope", "vertices": np.asarray(vertices).tolist()},
            "transforms": []}


def with_transforms(spec: dict, rot=None, shift=None) -> dict:
    """Copy of ``spec`` with a rotation and/or shift appended to its chain."""
    ops = list(spec.get("transforms", []))
    if rot is not None:
        ops.append({"rot": np.asarray(rot, dtype=float).reshape(-1).tolist()})
    if shift is not None:
        ops.append({"shift": np.asarray(shift, dtype=float).tolist()})
    return {**spec, "transforms": ops}


# semiaxes of the smooth fixtures: the largest one lies along the pole, so
# the pole is the unique diameter direction (width 2 * 1.0 = DIAM)
SMOOTH_SEMIAXES = (1.0, 0.8, 0.7, 0.6)


def ellipsoid_shape(rot) -> dict:
    """Centered ellipsoid with principal axes the columns of ``rot``; the
    longest lies along rot e1, the pole."""
    return {"type": "ellipsoid", "semiaxes": list(SMOOTH_SEMIAXES),
            "orientation": np.asarray(rot).reshape(-1).tolist()}


def bump_spec(index: int, rot) -> dict:
    """The index-th ellipsoid support plus odd-degree polynomial bumps,
    rotated by ``rot``.

    Odd terms cancel in the width h(x) + h(-x), so the diameter stays the
    ellipsoid's, along the pole; they break the pole-reflection symmetry, so
    the projection verdict is ``equal`` rather than ``both``.
    """
    rng = np.random.default_rng([_SHAPE_SEED, index, 2])
    axes = random_units(rng, 3) @ np.asarray(rot).T
    coeffs = rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    terms = [{"axis": a.tolist(), "degree": d, "coeff": float(c)}
             for a, d, c in zip(axes, (3, 5, 3), coeffs)]
    return {"kind": "convex",
            "shape": {"type": "zonal_bump", "base": ellipsoid_shape(rot),
                      "epsilon": 0.02, "terms": terms},
            "transforms": []}


def cube_vertices() -> np.ndarray:
    return np.array([[a, b, c, d] for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1) for d in (-1, 1)], dtype=float)


def cell24_vertices() -> np.ndarray:
    """The 24-cell: all permutations of (+-1, +-1, 0, 0)."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    v = np.zeros(4)
                    v[i], v[j] = si, sj
                    out.append(v)
    return np.array(out)


def subspace_bases(rng, count: int) -> list:
    """Random 3D subspaces of R^4 as orthonormal (3, 4) row bases."""
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        out.append(q.T.copy())
    return out
