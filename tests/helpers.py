"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately independent of the library's computation
paths: Legendre values come from the classical recurrences, 3D rotations
from the axis-angle formula, symmetry defects from re-evaluating the field
at rotated points, symmetry counts from exhaustive permutation
search with an orthogonal Procrustes fit, diameters from brute-force
vertex-pair enumeration or the plain chord ascent, the even-part
comparison from great circles sampled apart from the verifier's grid,
bump convexity from a central-difference Hessian of the per-term power
formula, the Hausdorff regressions' polytopes from a frozen Lloyd
spread of directions (``lloyd_polytope``), and the greedy inscribed build
from a per-facet walk (``walked_inscribed_polytope``).  The one exception is
``certified_asymmetric``, which picks fixtures that meet the theorem's
hypotheses through the library's own symmetry detectors, as the acceptance
suite and the benchmark do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from congrulab import bodies
from congrulab.bodies import polytope
from congrulab.errors import NonOrthogonalError
from congrulab.registration import find_equator_flip_symmetry, pole_rotation_symmetry_defect
from congrulab.sphere import (ORTHO_TOL, circle_quadrature, directions_orthogonal_to,
                              evaluate_field, gauss_grid, great_circle_nodes,
                              make_frame, random_directions, unit)

SRC = Path(__file__).resolve().parents[1] / "src"  # for a child interpreter's PYTHONPATH


def certified_asymmetric(field, pole, n_sides: int = 50, tol: float = 1e-6) -> bool:
    """No half-turn symmetry about the pole and no equatorial half-turn
    symmetry, on n_sides side spheres (the theorem hypotheses)."""
    for w in directions_orthogonal_to(pole, n_sides):
        if pole_rotation_symmetry_defect(field, w, pole, np.pi) <= 10 * tol:
            return False
        if find_equator_flip_symmetry(field, make_frame(pole, w), tol) is not None:
            return False
    return True


def wrap_err(a: float, b: float, period: float) -> float:
    """Circular distance between two parameters."""
    return abs((a - b + period / 2) % period - period / 2)


# -- Legendre oracles ----------------------------------------------------------


def legendre_p(n: int, x):
    """P_n by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev, p = np.ones_like(x), x.copy()
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def legendre_p0(n: int) -> float:
    """P_n(0): zero for odd n, (-1)^(n/2) (n-1)!!/n!! for even n."""
    if n % 2:
        return 0.0
    val = 1.0
    for k in range(2, n + 1, 2):
        val *= (k - 1) / k
    return val * (-1) ** (n // 2)


# -- rotation oracles -----------------------------------------------------------


def rodrigues(axis, angle: float) -> np.ndarray:
    """3x3 rotation about ``axis`` by ``angle`` (axis-angle formula)."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def embed_rotation(frame, rot3: np.ndarray) -> np.ndarray:
    """Embed a 3x3 map of span{e1, e2, pole} into R^4, fixing the frame normal."""
    B = np.column_stack([frame.e1, frame.e2, frame.pole])
    return B @ rot3 @ B.T + np.outer(frame.normal, frame.normal)


def rotated_point_defect(f, sphere_normal, pole, angle: float, n_t: int = 24,
                         n_azimuth: int = 128) -> float:
    """sup |f(rot x) - f(x)| over the Gauss grid of the sphere orthogonal to
    sphere_normal, with f evaluated again at the rotated grid points; rot
    turns the sphere about ``pole`` by ``angle`` (axis-angle formula)."""
    frame = make_frame(pole, sphere_normal)
    pts = gauss_grid(frame, n_t, n_azimuth).points
    rot = embed_rotation(frame, rodrigues([0.0, 0.0, 1.0], angle))
    return float(np.max(np.abs(evaluate_field(f, pts @ rot.T) - evaluate_field(f, pts))))


# -- symmetry oracle ------------------------------------------------------------


def brute_force_symmetries(vertices, tol: float = 1e-8):
    """All nonidentity rigid motions of a 3D vertex set, by exhaustive search.

    For every permutation, fit the best orthogonal map (Procrustes, allowing
    reflections) between the centered sets and keep exact matches.  The fits
    of all permutations are one batch: R = U Vt from the SVD of A^T X, as
    ``scipy.linalg.orthogonal_procrustes(A, X)`` computes it.
    """
    V = np.asarray(vertices, dtype=float)
    c = V.mean(axis=0)
    X = V - c
    perms = list(permutations(range(len(V))))
    A = X[np.array(perms)]
    u, _, vt = np.linalg.svd(np.swapaxes(A, 1, 2) @ X)
    R = u @ vt                                      # A @ R ~= X
    residuals = np.max(np.linalg.norm(A @ R - X, axis=2), axis=1)
    found = []
    for perm, phi, residual in zip(perms, np.swapaxes(R, 1, 2), residuals):
        if residual > tol:
            continue
        if np.max(np.abs(phi - np.eye(3))) <= 1e-10 and perm == tuple(range(len(V))):
            continue
        found.append((perm, phi))
    return found


def brute_force_diameters(vertices):
    """(max pair distance, list of unit directions of maximal vertex pairs)."""
    V = np.asarray(vertices, dtype=float)
    d = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    dmax = float(np.max(d))
    dirs = []
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            if d[i, j] >= dmax - 1e-9 * dmax:
                u = (V[i] - V[j]) / d[i, j]
                for k, x in enumerate(u):
                    if abs(x) > 1e-8:
                        u = u if x > 0 else -u
                        break
                if not any(np.linalg.norm(u - w) < 1e-6 for w in dirs):
                    dirs.append(u)
    return dmax, dirs


# -- random fields ---------------------------------------------------------------


def band_limited_field(seed: int, degree: int = 6, terms: int = 8, scale: float = 1.0):
    """Random polynomial field on S^3: sum of c_k (d_k . x)^{m_k}, m_k <= degree."""
    rng = np.random.default_rng(seed)
    axes = unit(rng.standard_normal((terms, 4)))
    degs = rng.integers(1, degree + 1, terms)
    coeffs = scale * rng.standard_normal(terms)

    def field(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for a, d, c in zip(axes, degs, coeffs):
            out = out + c * (x @ a) ** int(d)
        return out

    return field


def odd_field(seed: int, pole, **kw):
    """Band-limited field that is odd under the pole reflection."""
    f = band_limited_field(seed, **kw)
    pole = unit(pole)

    def odd(x):
        x = np.asarray(x, dtype=float)
        refl = 2.0 * (x @ pole)[..., None] * pole - x
        return 0.5 * (f(x) - f(refl))

    return odd


def even_field(seed: int, pole, **kw):
    f = band_limited_field(seed, **kw)
    pole = unit(pole)

    def even(x):
        x = np.asarray(x, dtype=float)
        refl = 2.0 * (x @ pole)[..., None] * pole - x
        return 0.5 * (f(x) + f(refl))

    return even


# -- even-part reference check ----------------------------------------------------


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


# -- body fixtures ----------------------------------------------------------------


def planted_polytope(seed: int, pole, length: float = 2.0, n_extra: int = 28,
                     through_origin: bool = False, kind: str = "convex"):
    """Random polytope with a unique diameter of the given length parallel to pole.

    The diameter endpoints sit at c +- (length/2) pole; every other vertex
    lies in a ball of radius 0.33*length around c, so no other vertex pair
    comes close to the diameter length.  With ``through_origin`` the center
    moves onto the pole axis near the origin and a small cross-polytope of
    vertices keeps the origin interior (star-body fixtures).
    """
    rng = np.random.default_rng(seed)
    pole = unit(pole)
    if through_origin:
        c = 0.07 * length * pole
    else:
        c = 0.15 * length * unit(rng.standard_normal(4))
    pts = [c + 0.5 * length * pole, c - 0.5 * length * pole]
    radii = rng.uniform(0.5, 1.0, (n_extra, 1))
    pts = np.vstack([pts, c + 0.33 * length * random_directions(n_extra, rng) * radii])
    if through_origin:
        cross = c + 0.3 * length * np.vstack([np.eye(4), -np.eye(4)])
        pts = np.vstack([pts, cross])
    return polytope(pts, kind=kind)


def dense_spread_directions(count: int, seed: int) -> np.ndarray:
    """Well-separated directions on S^3: farthest-point greedy seeding from a
    seeded pool of max(4000, 30 count) random directions, then 15 Lloyd steps,
    each forming the whole (pool, count) product and adding each cell's rows
    with np.add.at; an empty or cancelling cell keeps its centre."""
    rng = np.random.default_rng(seed)
    pool = random_directions(max(4000, 30 * count), rng)
    chosen = np.empty((count, 4))
    chosen[0] = pool[0]
    best_dot = pool @ chosen[0]
    for k in range(1, count):
        chosen[k] = pool[int(np.argmin(best_dot))]
        best_dot = np.maximum(best_dot, pool @ chosen[k])
    for _ in range(15):
        sums = np.zeros_like(chosen)
        np.add.at(sums, np.argmax(pool @ chosen.T, axis=1), pool)
        n = np.linalg.norm(sums, axis=1)
        moved = n > 1e-12
        chosen[moved] = sums[moved] / n[moved, None]
    return chosen


def lloyd_polytope(K, v: int, seed: int):
    """Hull of K's support points at ``dense_spread_directions(v, seed)``.

    The Hausdorff regressions in test_polylab were found on these polytopes,
    so they keep reading them whatever ``polylab.inscribe_polytope`` builds.
    """
    return polytope(K.support_point(dense_spread_directions(v, seed)), kind=K.kind)


def walked_inscribed_polytope(K, v: int):
    """The greedy inscribed build, each round's picks taken by walking the
    facets in decreasing gap order and testing each against every normal
    picked before it (one product per visited facet).

    ``polylab.inscribe_polytope`` picks by one mask update per picked facet
    instead, and must return bitwise these vertices.
    """
    simplex = np.vstack([np.eye(4), np.full(4, (1 - np.sqrt(5)) / 4)])
    start = K.support_point(unit(simplex - simplex.mean(axis=0)))
    points = start[:1]
    for x in start[1:]:
        if np.linalg.matrix_rank(np.vstack([points[1:], x]) - points[0]) == len(points):
            points = np.vstack([points, x])
    while len(points) < 5:
        n = np.linalg.svd(points - points[0])[2][len(points) - 1]
        ends = K.support_point(np.array([n, -n]))
        points = np.vstack([points, ends[np.argmax(np.abs((ends - points[0]) @ n))]])
    r = float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1)))
    hull = ConvexHull(points, incremental=True)
    try:
        while hull.npoints < v:
            normals, off = hull.equations[:, :4], hull.equations[:, 4]
            gap = K.support(normals) + off
            order = np.argsort(-gap, kind="stable")
            g_max = gap[order[0]]
            if g_max <= 1e-12 * r:
                break
            near = np.cos(min(np.sqrt(2 * g_max / r), np.pi))
            room = min(max(1, hull.npoints // 4), v - hull.npoints)
            picked = []
            for f in order:
                if gap[f] < g_max / 2 or len(picked) == room:
                    break
                if not picked or np.max(normals[picked] @ normals[f]) < near:
                    picked.append(f)
            hull.add_points(K.support_point(normals[picked]))
        return polytope(hull.points, kind=K.kind)
    finally:
        hull.close()


def narrow_cone_polytope(rng):
    """(K, pole): a polytope whose diameter has a narrow normal cone, and a
    pole that is not a diameter but is wider than the body's other local
    width maxima.

    The diameter runs from -e2 to 1.001 e2, of length 2.001.  Twelve vertices
    0.998 e2 + 0.1 u_i, u_i unit in span(e1, e3, e4), leave 1.001 e2 a normal
    cone of half-angle about 0.03 rad, and their chords to -e2 (2.0005 long)
    are local maxima of the width.  The pole chord +-1.0004 e1 is 2.0008
    long, and ten small points fill the interior.  Everything is rotated by
    a random Q; the pole is Q e1.
    """
    e = np.eye(4)
    ring = 0.998 * e[1] + 0.1 * unit(rng.standard_normal((12, 3))) @ e[[0, 2, 3]]
    fill = 0.3 * rng.standard_normal((10, 4)) * [0.1, 0.1, 1.0, 1.0]
    V = np.vstack([1.0004 * e[0], -1.0004 * e[0], 1.001 * e[1], -e[1], ring, fill])
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return polytope(V @ Q.T), Q[:, 0]


def radial_by_bisection(contains, thetas, hi: float, iters: int = 64):
    """Radial values by bisection on a membership oracle (fully independent).

    ``contains(points)`` must return a boolean array; ``hi`` must be outside
    the body along every ray.
    """
    thetas = np.asarray(thetas, dtype=float)
    lo = np.zeros(len(thetas))
    hi = np.full(len(thetas), float(hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = contains(mid[:, None] * thetas)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


# -- bump oracles -------------------------------------------------------------------


def bump_support_by_powers(shape, theta):
    """Bump support value, each term as c * (d . theta) ** m with a pow() call;
    an ellipsoid shape is a bump with no terms."""
    theta = np.asarray(theta, dtype=float)
    base, terms, epsilon = ((shape, (), 0.0) if isinstance(shape, bodies.EllipsoidShape)
                            else (shape.base, shape.terms, shape.epsilon))
    U = np.eye(4) if base.orientation is None else base.orientation.matrix
    out = 0.0
    for term in terms:
        out = out + term.coeff * (theta @ term.direction) ** term.degree
    h_base = np.sqrt(np.sum((theta @ U * base.semiaxes) ** 2, axis=-1))
    return h_base + epsilon * out


def stencil_min_hessian_eigenvalue(support, axes=(), samples: int = 160,
                                   seed: int = 0xBE11, step: float = 1e-4) -> float:
    """Smallest tangent Hessian eigenvalue of x -> |x| support(x/|x|).

    Central differences with the given step at the same unit directions as
    the library's check (the fixed random ones, then +-each unit axis in
    ``axes``), every stencil point in one batch; the Hessian is restricted
    to each direction's tangent space through an SVD basis.
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 4)
    dirs = np.concatenate([random_directions(samples, np.random.default_rng(seed)),
                           axes, -axes])
    eye = np.eye(4)
    iu, ju = np.triu_indices(4)
    plus = step * (eye[iu] + eye[ju])
    minus = step * (eye[iu] - eye[ju])
    x = dirs[:, None, None, :] + np.stack([plus, minus, -minus, -plus], axis=1)
    n = np.linalg.norm(x, axis=-1)
    H = n * support(x / n[..., None])                     # (samples, 10, 4)
    upper = (H[..., 0] - H[..., 1] - H[..., 2] + H[..., 3]) / (4 * step * step)
    hess = np.empty((len(dirs), 4, 4))
    hess[:, iu, ju] = upper
    hess[:, ju, iu] = upper
    basis = np.linalg.svd(eye - dirs[:, :, None] * dirs[:, None, :])[0][..., :3]
    vals = np.linalg.eigvalsh(np.swapaxes(basis, 1, 2) @ hess @ basis)
    return float(np.min(vals[:, 0]))
