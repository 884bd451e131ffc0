"""Convex and star bodies in R^4 with exact support and radial evaluation.

Bodies are closures over exact shape data (polytope vertices, ellipsoid
axes, or a smooth support perturbation) placed by one map x -> R x + b.
Evaluation reads world data cached per placement (a polytope's vertices and
polar rows, a smooth body's linear forms), so any great sphere can be
sampled on demand without a global discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (DegenerateBodyError, NonOrthogonalError, OriginOutsideError,
                     UnsupportedKindError)
from .orthogonal import Orthogonal4
from .sphere import ORTHO_TOL, random_directions, unit

CONVEX = "convex"
STAR = "star"

_N_SCAN = 4096  # width samples of a smooth body's diameter scan
_SCAN_SEED = 0x51CA7
_MAX_CLUSTERS = 64  # more diameter directions than this are not isolated
_ASCENT_ITERS = 80
_HESSIAN_SAMPLES = 160
MAX_BUMP_DEGREE = 64  # an evaluation multiplies degree - 1 times per term
ORIGIN_MARGIN = 1e-12  # "origin interior" slack, relative to max |facet offset| or gauge 1
CONTACT_TOL = 1e-12  # |s| <= this * max |s|: a vertex or facet normal lies in w-perp
_PRODUCT_BLOCK = 1 << 18  # rows x points of one facet-kernel product (2 MB); a grid of
                          # 16,384 points over 32-62 rows is 2-4 products

_SCAN_DIRS = random_directions(_N_SCAN, np.random.default_rng(_SCAN_SEED))
_SCAN_DIRS.setflags(write=False)
_IDENTITY = (np.eye(4), np.zeros(4))
_IDENTITY[0].setflags(write=False)
_IDENTITY[1].setflags(write=False)


@dataclass(frozen=True)
class PolytopeShape:
    """Convex hull of a finite vertex set in R^4.

    One qhull run gives the outward facet rows ``facets`` and their
    facet-vertex ``incidence``.  Its facets are triangulated: row f is a
    simplex whose four vertices are ``vertices[incidence[f]]``, and a facet
    of the hull with more vertices is several rows with one hyperplane.
    Input points that are not hull vertices, inside the hull or on its
    boundary, are in no row.  The vertices must span R^4 affinely: the
    centred vertices' smallest singular value exceeds 1e-12 of their largest.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 4 or len(v) < 5:
            raise ValueError("polytope needs at least 5 vertices in R^4")
        svals = np.linalg.svd(v - v.mean(axis=0), compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise ValueError("polytope vertices do not span R^4 affinely")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @cached_property
    def _hull(self):
        # imported here so that a body that never reads its facets loads no
        # qhull, and a missing SciPy is an ImportError, not a degenerate body
        from scipy.spatial import ConvexHull
        try:
            return ConvexHull(self.vertices)
        except Exception as exc:
            raise DegenerateBodyError(f"hull computation failed: {exc}") from exc

    @property
    def facets(self):
        """Outward facet data (A, off) with A x + off <= 0 inside the hull."""
        eq = self._hull.equations
        return eq[:, :4], eq[:, 4]

    @property
    def incidence(self):
        """(m, 4) indices into ``vertices`` of each facet row's simplex."""
        return self._hull.simplices


@dataclass(frozen=True)
class EllipsoidShape:
    """Centered ellipsoid with the given semiaxes; optionally rotated."""

    semiaxes: np.ndarray
    orientation: Orthogonal4 | None = None

    def __post_init__(self):
        a = np.array(self.semiaxes, dtype=float)
        if a.shape != (4,) or not np.all((a > 0) & np.isfinite(a)):
            raise ValueError("semiaxes must be 4 positive finite numbers")
        a.setflags(write=False)
        object.__setattr__(self, "semiaxes", a)

    @property
    def axes_matrix(self):
        """Columns are the principal axis directions."""
        return np.eye(4) if self.orientation is None else self.orientation.matrix


@dataclass(frozen=True)
class BumpTerm:
    """One perturbation term c * (d . theta)^degree with d = axis / |axis|,
    1 <= degree <= MAX_BUMP_DEGREE.

    ``axis`` is kept as given, so a spec reads back byte for byte (normalizing
    an already normalized vector can change its last digit); evaluation reads
    ``direction``, normalized once here.
    """

    axis: np.ndarray
    degree: int
    coeff: float
    direction: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.axis, dtype=float)
        if not (np.all(np.isfinite(a)) and np.isfinite(self.coeff)):
            raise ValueError("bump axis and coeff must be finite")
        if not (float(self.degree).is_integer() and 1 <= self.degree <= MAX_BUMP_DEGREE):
            raise ValueError(f"degree must be an integer in [1, {MAX_BUMP_DEGREE}], "
                             f"got {self.degree!r}")
        d = unit(a)
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "degree", int(self.degree))


@dataclass(frozen=True)
class BumpShape:
    """Smooth body defined by perturbing an ellipsoid's support function.

    h(theta) = h_base(theta) + epsilon * sum_k c_k (d_k . theta)^{m_k}.
    epsilon must be finite and small enough to keep the body convex:
    construction rejects the shape when the closed-form tangent Hessian of
    the 1-homogeneous extension, at 160 fixed directions and at +-d_k of
    every term, has an eigenvalue below -1e-7 times the largest base semiaxis.
    """

    base: EllipsoidShape
    epsilon: float
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        lam = _min_hessian_eigenvalue(self)
        if not lam >= -1e-7 * float(np.max(self.base.semiaxes)):
            raise ValueError(
                f"perturbation breaks convexity (min Hessian eigenvalue {lam:.3e})")


def _min_hessian_eigenvalue(shape: BumpShape) -> float:
    """Smallest tangent Hessian eigenvalue of the homogeneous support
    extension H(x) = |x| h(x/|x|), over 160 fixed unit directions x and the
    axes +-d_k of the terms, near which a term's curvature is most negative.

    H is linear along rays, so convexity needs its Hessian nonnegative on the
    tangent space at x (``_smooth_jet`` at the identity placement).
    """
    forms, powers = _linear_forms(shape, *_IDENTITY)
    d = forms[4:-1]
    x = np.concatenate([random_directions(_HESSIAN_SAMPLES, np.random.default_rng(0xBE11)),
                        d, -d])
    hess = _smooth_jet(forms, powers, x, _tangent_basis(x))[1]
    return float(np.min(np.linalg.eigvalsh(hess)[:, 0]))


def _tangent_basis(x):
    """(n, 3, 4) orthonormal bases of the tangent spaces at the unit rows of x:
    rows 1..3 of the Householder reflection swapping e_0 and -+x."""
    v = x + np.where(x[:, :1] < 0, -1.0, 1.0) * np.eye(4)[0]
    return (np.eye(4) - 2 * v[:, :, None] * v[:, None, :]
            / np.sum(v * v, axis=1)[:, None, None])[:, 1:]


def _as_batch(theta):
    """The rows of theta, shape (..., 4), as an (n, 4) array of at least two
    rows: BLAS takes a lone row down its vector path, which rounds unlike the
    same row in any batch, so a lone row is repeated."""
    rows = theta.reshape(-1, 4)
    return np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows


def _linear_forms(shape, R, b):
    """(forms, powers) of an ellipsoid or bump shape placed by x -> R x + b:
    the C-contiguous (5 + k, 4) world linear forms, rows the scaled axes
    (R U diag(a))^T, R d_j for each of the k bump terms, and b; and each
    term's (degree, epsilon * coeff)."""
    if isinstance(shape, EllipsoidShape):
        base, terms = shape, ()
    elif hasattr(shape, "terms"):
        base, terms = shape.base, shape.terms
    else:
        raise UnsupportedKindError(f"unknown shape {type(shape).__name__}")
    forms = np.vstack([(R @ base.axes_matrix * base.semiaxes).T,
                       np.reshape([t.direction for t in terms], (-1, 4)) @ R.T, b])
    return forms, tuple((t.degree, shape.epsilon * t.coeff) for t in terms)


def _smooth_jet(forms, powers, theta, T=None):
    """(sp, hess) at the unit rows theta of a smooth body, from its world
    linear forms: the support points, the gradient of H(x) = |x| h(x/|x|),
    and given (n, 3, 4) tangent bases T, the (n, 3, 3) Hessians T D^2H T^T
    (else None).  With A the four scaled-axis forms, q = A theta,
    g = A^T q / |q| and u = d_j . theta for each term (m, s) of ``powers``:
        sp = g + b + sum_j s [m u^(m-1) d_j + (1-m) u^m theta],
        hess = ((T A^T)(T A^T)^T - (T g)(T g)^T) / |q|
               + sum_j s [m(m-1) u^(m-2) (T d_j)(T d_j)^T + (1-m) u^m I],
    each power by repeated multiplication (u^(m-2) reads 0 at m = 1).
    A lone direction is read as a repeated pair (``_as_batch``).
    """
    shape, n = theta.shape, theta.size // 4
    theta = _as_batch(theta)     # a lone row's T broadcasts over the pair
    A, b = forms[:4], forms[-1]
    q = theta @ A.T
    h = np.sqrt(np.sum(q * q, axis=-1))[..., None]
    g = q @ A / h
    sp = g + b
    hess = None
    if T is not None:
        TA, Tg = T @ A.T, T @ g[..., None]
        hess = (TA @ np.swapaxes(TA, 1, 2) - Tg * np.swapaxes(Tg, 1, 2)) / h[..., None]
    for d, (m, s) in zip(forms[4:-1], powers):
        u = theta @ d
        low, mid = np.zeros_like(u), np.ones_like(u)
        for _ in range(m - 1):
            low, mid = mid, mid * u
        top = mid * u
        sp += s * (m * mid[..., None] * d + (1 - m) * top[..., None] * theta)
        if T is not None:
            Td = T @ d
            hess += s * (m * (m - 1) * low[:, None, None] * Td[:, :, None] * Td[:, None, :]
                         + (1 - m) * top[:, None, None] * np.eye(3))
    return sp[:n].reshape(shape), None if hess is None else hess[:n]


def _points_per_block(m: int) -> int:
    """Points per facet-kernel product over m rows: a multiple of 8 that
    keeps the product within _PRODUCT_BLOCK entries.  Above 2^15 rows the
    floor of 8 points exceeds that cap."""
    return max(8, _PRODUCT_BLOCK // m // 8 * 8)


def _facet_major_max(rows, theta, antipodal=False):
    """Max over the m rows of rows_j . theta; with ``antipodal``, the pair of
    that max and the max at -theta, -min_j rows_j . theta.

    The points are taken in blocks of ``_points_per_block(m)``, so that no
    (m, block) product exceeds 2 MB: peak memory stays a few MB above the
    import, and a block of thousands of points is still one product that
    BLAS splits across its threads.  Every block's product is written into
    one buffer (a fresh product per block measured up to 2.6x slower), and
    the max, and the min when asked, run down its leading axis.  BLAS rounds
    the points past a product's last full panel of 8 by another path, so
    every block is padded with zero directions to a multiple of 8: a
    direction then has one value in every batch, a batch of one included,
    and its negation the negated products, so the max at -theta is the
    value the kernel gives -theta.  theta of shape (..., 4) gives shape
    (...), and a single direction gives a scalar.
    """
    flat = theta.reshape(-1, theta.shape[-1])
    out = np.empty(len(flat))
    low = np.empty(len(flat)) if antipodal else None
    step = _points_per_block(len(rows))
    prod = np.empty((len(rows), min(step, len(flat) + 7)))
    for lo in range(0, len(flat), step):
        block = flat[lo:lo + step]
        n = len(block)
        if n % 8:
            block = np.concatenate([block, np.zeros((-n % 8, block.shape[1]))])
        part = np.matmul(rows, block.T, out=prod[:, :len(block)])
        np.max(part[:, :n], axis=0, out=out[lo:lo + n])
        if antipodal:
            np.min(part[:, :n], axis=0, out=low[lo:lo + n])
    if antipodal:
        np.negative(low, out=low)
        return out.reshape(theta.shape[:-1]), low.reshape(theta.shape[:-1])
    return out.reshape(theta.shape[:-1])[()]


def _forms_support(forms, powers, theta, antipodal=False):
    """Support of a smooth body from the products P = forms . theta of its
    world linear forms: sqrt(((P_0^2 + P_1^2) + P_2^2) + P_3^2), plus
    s_j P_{4+j}^{m_j} for each (m_j, s_j) in ``powers``, the power by
    repeated multiplication, plus P_last.

    One product gives every row at once, each row contiguous, and the sums
    run in place.  theta of shape (..., 4) gives shape (...), and a single
    direction, read as a repeated pair (``_as_batch``), gives a scalar.

    With ``antipodal``, the pair of the support at theta and at -theta.  The
    products at -theta are -P, so the square root is shared, an odd power
    changes sign and P_last does: the same sums in the same order give the
    value at -theta bit for bit.
    """
    P = forms @ _as_batch(theta).T
    sq = P[:4] * P[:4]
    h = sq[0] + sq[1]
    h += sq[2]
    h += sq[3]
    h = np.sqrt(h)
    h_neg = h.copy() if antipodal else None
    for u, (m, scale) in zip(P[4:], powers):
        top = u.copy()
        for _ in range(m - 1):
            top *= u
        top *= scale
        h += top
        if antipodal:
            (np.subtract if m % 2 else np.add)(h_neg, top, out=h_neg)
    h += P[-1]
    shape, n = theta.shape[:-1], theta.size // 4
    if antipodal:
        h_neg -= P[-1]
        return h[:n].reshape(shape), h_neg[:n].reshape(shape)
    return h[:n].reshape(shape)[()]


def _straddling(s):
    """Which rows of the (m, 4) offsets s hold one strictly on each side of
    the hyperplane s = 0, or three in it.

    An offset of at most CONTACT_TOL times the largest |s| counts as in the
    hyperplane.
    """
    tol = CONTACT_TOL * np.max(np.abs(s))
    above = np.any(s > tol, axis=1)
    below = np.any(s < -tol, axis=1)
    inside = np.count_nonzero(np.abs(s) <= tol, axis=1)
    return (above & below) | (inside >= 3)


@dataclass(frozen=True)
class Body4:
    """A convex or star body: exact shape data K0 placed as R K0 + b.

    ``folded = (R, b)`` holds the orthogonal matrix R and the translation b;
    the default is the identity placement.  A polytope's support and support
    points read its cached world vertices.  A smooth body's support, support
    points and tangent Hessians read only its cached world linear forms
    (``_support_forms``); only an ellipsoid's radial reads 1/a locally.
    """

    kind: str
    shape: object
    folded: tuple = _IDENTITY

    def __post_init__(self):
        if self.kind not in (CONVEX, STAR):
            raise ValueError(f"kind must be '{CONVEX}' or '{STAR}'")

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _world_vertices(self):
        R, b = self.folded
        return self.shape.vertices @ R.T + b

    @cached_property
    def _polar_rows(self):
        # world-space polar vertices a_f / rhs_f: the body is {x : rows . x <= 1},
        # so radial(theta) = 1 / max(rows . theta)
        if not self.contains_origin_interior():
            raise OriginOutsideError("origin is not interior to the polytope")
        A, off = self.shape.facets
        R, b = self.folded
        return (A @ R.T) / (A @ (R.T @ b) - off)[:, None]

    def _sphere_rows(self, w):
        """The polar rows that can attain the radial's max on the working
        sphere orthogonal to the unit normal w: a row attains it there only
        when its simplex crosses w-perp (vertices strictly on both sides) or
        has a triangle in it (``_straddling``)."""
        return self._polar_rows[_straddling((self._world_vertices @ w)[self.shape.incidence])]

    @cached_property
    def _support_forms(self):
        return _linear_forms(self.shape, *self.folded)

    def support(self, theta):
        """Support value(s) h(theta) = max {theta . y : y in body}.  A bump's
        formula gives it only at unit theta: its terms are not 1-homogeneous."""
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.shape, PolytopeShape):
            return _facet_major_max(self._world_vertices, theta)
        return _forms_support(*self._support_forms, theta)

    def support_point(self, theta):
        """Boundary point(s) where the support value is attained; a bump's
        formula holds only at unit theta: its terms are not 1-homogeneous."""
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.shape, PolytopeShape):
            return self._world_vertices[np.argmax(theta @ self._world_vertices.T, axis=-1)]
        return _smooth_jet(*self._support_forms, theta)[0]

    def width(self, theta):
        """h(theta) + h(-theta)."""
        theta = np.asarray(theta, dtype=float)
        return self.support(theta) + self.support(-theta)

    def radial(self, theta):
        """Radial value(s): largest c with c*theta in the body.

        Exact per shape: ray/facet intersection for polytopes, quadratic
        solve for ellipsoids.  Requires the origin in the interior.
        """
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.shape, PolytopeShape):
            rho = 1.0 / _facet_major_max(self._polar_rows, theta)
        else:
            rho = self._ellipsoid_radii(theta)[0]
        return rho if rho.ndim else float(rho)

    def _ellipsoid_radii(self, theta):
        """(rho(theta), rho(-theta)) of an ellipsoid: the roots c of
        |c D - E|^2 = 1, D and E being theta and R^T b in its axes over a;
        -theta negates D and ab.  A row's roots do not depend on its batch
        (``_as_batch``; ab is a row sum).  Other shapes raise UnsupportedKindError."""
        if not isinstance(self.shape, EllipsoidShape):
            raise UnsupportedKindError(
                "radial evaluation is only exact for polytopes and ellipsoids")
        if not self.contains_origin_interior():
            raise OriginOutsideError("origin is not interior to the ellipsoid")
        R, b = self.folded
        U, inv = self.shape.axes_matrix, 1.0 / self.shape.semiaxes
        D = (_as_batch(theta) @ R @ U)[:theta.size // 4].reshape(theta.shape) * inv
        E = (R.T @ b @ U) * inv
        a2, ab = np.sum(D * D, axis=-1), np.sum(D * E, axis=-1)
        root = np.sqrt(ab * ab - a2 * (E @ E - 1.0))
        return (ab + root) / a2, (root - ab) / a2

    def antipodal_values(self, radial: bool, w, theta):
        """(f(theta), f(-theta)) at the rows theta of the working sphere
        orthogonal to w, for f this body's ``support``, or with ``radial``
        its ``radial``, from one product per block: a polytope's kernel takes
        the max and the min of each (``_facet_major_max``), a smooth support
        reuses its forms products (``_forms_support``), and an ellipsoid's
        radial is both roots of one quadratic (``_ellipsoid_radii``, where a
        bump's radial raises).  Each value is bitwise the one ``support``
        or ``radial`` gives.  A polytope's radial reads only the polar rows
        that can attain its max on that sphere (``_sphere_rows``), and rows
        of theta off it raise NonOrthogonalError.
        """
        theta = np.asarray(theta, dtype=float)
        if not radial:
            if isinstance(self.shape, PolytopeShape):
                return _facet_major_max(self._world_vertices, theta, antipodal=True)
            return _forms_support(*self._support_forms, theta, antipodal=True)
        if not isinstance(self.shape, PolytopeShape):
            return self._ellipsoid_radii(theta)
        w = unit(w)
        if np.size(theta) and np.max(np.abs(theta @ w)) > ORTHO_TOL:
            raise NonOrthogonalError("direction is not on the working sphere")
        top, bottom = _facet_major_max(self._sphere_rows(w), theta, antipodal=True)
        return 1.0 / top, 1.0 / bottom

    # -- transforms --------------------------------------------------------

    def apply(self, U: Orthogonal4, a=None) -> "Body4":
        """Return U * body + a."""
        R, b = self.folded
        body = replace(self, folded=(U.matrix @ R, U.matrix @ b))
        if a is not None and np.any(np.asarray(a, dtype=float) != 0):
            body = body.translate(a)
        return body

    def translate(self, a) -> "Body4":
        """Return body + a; a must be finite."""
        a = np.asarray(a, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"translation must be finite, got {a}")
        R, b = self.folded
        return replace(self, folded=(R, b + a))

    def contains_origin_interior(self) -> bool:
        """The one origin test: inside every facet by ORIGIN_MARGIN times a
        polytope's max |off|, or at an ellipsoid gauge below 1 - ORIGIN_MARGIN."""
        R, b = self.folded
        e = R.T @ b
        if isinstance(self.shape, PolytopeShape):
            A, off = self.shape.facets
            return bool(np.min(A @ e - off) > ORIGIN_MARGIN * np.max(np.abs(off)))
        if isinstance(self.shape, EllipsoidShape):
            inv = 1.0 / self.shape.semiaxes
            E = (e @ self.shape.axes_matrix) * inv
            return bool(E @ E < 1.0 - ORIGIN_MARGIN)
        raise UnsupportedKindError("interior test needs a polytope or ellipsoid")

    def effective_vertices(self):
        """World-coordinate vertices (polytope shapes only)."""
        if not isinstance(self.shape, PolytopeShape):
            raise UnsupportedKindError("only polytopes have vertices")
        return self._world_vertices


def ball(radius: float = 1.0) -> Body4:
    return Body4(kind=CONVEX, shape=EllipsoidShape(np.full(4, float(radius))))


def ellipsoid(semiaxes, orientation: Orthogonal4 | None = None,
              kind: str = CONVEX) -> Body4:
    return Body4(kind=kind, shape=EllipsoidShape(np.asarray(semiaxes, float), orientation))


def polytope(vertices, kind: str = CONVEX) -> Body4:
    return Body4(kind=kind, shape=PolytopeShape(np.asarray(vertices, float)))


def cube(half_width: float = 1.0) -> Body4:
    corners = np.array([[sx, sy, sz, sw]
                        for sx in (-1, 1) for sy in (-1, 1)
                        for sz in (-1, 1) for sw in (-1, 1)], dtype=float)
    return polytope(half_width * corners)


# -- diameters ---------------------------------------------------------------


@dataclass(frozen=True)
class DiameterSet:
    """Width-maximal directions (antipodal pairs collapsed); exact for polytopes."""

    directions: np.ndarray          # (k, 4)
    length: float
    tol: float


def default_diameter_tol(body: Body4, length: float) -> float:
    rel = 1e-9 if isinstance(body.shape, PolytopeShape) else 1e-6
    return rel * length


def _width_hessian(body: Body4, theta, T):
    """(chord, hess) of a smooth body's width W(theta) = H(theta) + H(-theta) at
    the unit rows theta: sp(theta) - sp(-theta) and the tangent Hessians
    T (D^2 W)(theta) T^T in the world bases T, from one jet at [theta; -theta]."""
    sp, hess = _smooth_jet(*body._support_forms, np.concatenate([theta, -theta]),
                           np.concatenate([T, T]))
    n = len(theta)
    return sp[:n] - sp[n:], hess[:n] + hess[n:]


def _ascent_step(body: Body4, theta):
    """Unnormalized next iterates of the width ascent from the unit rows theta.

    The chord c = sp(theta) - sp(-theta) is the gradient of the homogeneous
    width W, and W(theta) = theta . c.  On the sphere the width's Hessian in
    the tangent basis T is A - W I, A from ``_width_hessian``, so the Newton
    step theta + T^T (W I - A)^-1 T c, rescaled by W, is
    c + T^T (W I - A)^-1 A T c.
    """
    T = _tangent_basis(theta)
    c, A = _width_hessian(body, theta, T)
    G = np.sum(theta * c, axis=1)[:, None, None] * np.eye(3) - A
    newton = np.linalg.eigvalsh(G)[:, 0] > 0
    Tc = T[newton] @ c[newton, :, None]
    fix = np.linalg.solve(G[newton], A[newton] @ Tc)
    c[newton] += (np.swapaxes(T[newton], 1, 2) @ fix)[..., 0]
    return c


def _clustered(keep, length: float, tol: float) -> DiameterSet:
    """The diameter set of the unit rows ``keep``, each folded so that its
    first component above 1e-8 in size is positive: one cluster per 1e-3 rad,
    centred on the first row not in an earlier cluster, at most _MAX_CLUSTERS."""
    lead = keep[np.arange(len(keep)), np.argmax(np.abs(keep) > 1e-8, axis=1)]
    keep = np.where((lead < 0)[:, None], -keep, keep)
    clusters: list[np.ndarray] = []
    while len(keep):
        clusters.append(keep[0])
        if len(clusters) > _MAX_CLUSTERS:
            raise DegenerateBodyError("diameter directions are not isolated")
        keep = keep[np.arccos(np.clip(np.abs(keep @ keep[0]), -1, 1)) >= 1e-3]
    return DiameterSet(directions=np.array(clusters), length=length, tol=tol)


def farthest_vertex_pairs(V):
    """(chords, lengths) of the vertex pairs of V that may be farthest apart.

    One pass of the blocked kernel, rows (-2c, |c|^2) and points (c, 1) for
    the centred vertices c, gives each vertex's farthest squared distance.
    Only vertices within a relative 1e-6 of the largest (far above rounding)
    can be endpoints; their pairs are measured exactly, one survivor at a
    time, and the largest length is V's diameter.  No (n, n) array is built.
    """
    c = V - V.mean(axis=0)
    sq = np.sum(c * c, axis=1)
    far = sq + _facet_major_max(np.column_stack([-2 * c, sq]),
                                np.column_stack([c, np.ones(len(c))]))
    cut = (1 - 1e-6) * np.max(far)
    ends = V[far >= cut]
    chords = np.concatenate([d[np.sum(d * d, axis=1) >= cut] for d in
                             (p - ends[k + 1:] for k, p in enumerate(ends))])
    return chords, np.linalg.norm(chords, axis=1)


def find_diameters(body: Body4) -> DiameterSet:
    """All directions of maximal width, and that width.

    A polytope's are exact: its farthest vertex pairs (``farthest_vertex_pairs``).

    A smooth body's are searched for: a width scan of S^3, then the widest
    scan directions ascend together, one (k, 4) array per step
    (``_ascent_step``): the chord c = sp(theta) - sp(-theta), the width's
    gradient, plus a Newton correction from the closed-form tangent Hessian
    A of the support at theta and -theta (the plain chord is a power
    iteration, ratio (a_2/a_1)^2 on an ellipsoid).  A row where W I - A is
    not positive definite is near a saddle and takes the plain chord.  A row
    keeps its widest iterate and leaves once its step vanishes or moves it
    by less than 1e-15.

    Raises DegenerateBodyError when a smooth body's width is constant within
    tol (the maximizers are then not countable) or when the maximizers do
    not form isolated clusters.
    """
    if isinstance(body.shape, PolytopeShape):
        chords, lengths = farthest_vertex_pairs(body._world_vertices)
        length = float(np.max(lengths))
        tol = default_diameter_tol(body, length)
        keep = lengths >= length - tol
        return _clustered(chords[keep] / lengths[keep, None], length, tol)

    widths = body.width(_SCAN_DIRS)
    w_max, w_min = float(np.max(widths)), float(np.min(widths))
    tol = default_diameter_tol(body, w_max)
    if w_max - w_min <= tol:
        raise DegenerateBodyError(
            f"width is constant within {tol:.2e}; diameter set is not countable")

    starts = np.argsort(widths)[::-1][:_N_SCAN // 32]
    th = _SCAN_DIRS[starts]
    best, best_w = th.copy(), widths[starts]
    live = np.arange(len(th))
    for _ in range(_ASCENT_ITERS):
        if not live.size:
            break
        step = _ascent_step(body, th[live])
        n = np.linalg.norm(step, axis=1)
        live, new = live[n > 0], step[n > 0] / n[n > 0, None]
        w = body.width(new)
        up = w > best_w[live]
        best[live[up]], best_w[live[up]] = new[up], w[up]
        moved = np.linalg.norm(new - th[live], axis=1) >= 1e-15
        th[live] = new
        live = live[moved]

    global_max = float(np.max(best_w))
    return _clustered(best[best_w >= global_max - tol], global_max, tol)


def diameter_segment(body: Body4, direction):
    """Endpoints (p_minus, p_plus) of the unique diameter parallel to
    ``direction``: the support points at (-d, d), read as one batch for every
    shape, whose chord must be the width at d times d, within tol."""
    d = unit(direction)
    h = body.support(np.stack([d, -d]))
    length = float(h[0] + h[1])
    tol = default_diameter_tol(body, length)
    z, y = body.support_point(np.stack([-d, d]))
    if np.linalg.norm((y - z) - length * d) > tol:
        raise DegenerateBodyError(
            "support chord is not parallel to the requested direction")
    return z, y


# -- JSON wire format ----------------------------------------------------------


def shape_to_spec(shape) -> dict:
    if isinstance(shape, PolytopeShape):
        return {"type": "polytope",
                "vertices": [[float(x) for x in v] for v in shape.vertices]}
    if isinstance(shape, EllipsoidShape):
        out = {"type": "ellipsoid", "semiaxes": [float(a) for a in shape.semiaxes]}
        if shape.orientation is not None:
            out["orientation"] = shape.orientation.to_flat()
        return out
    if isinstance(shape, BumpShape):
        return {"type": "zonal_bump",
                "base": shape_to_spec(shape.base),
                "epsilon": float(shape.epsilon),
                "terms": [{"axis": [float(x) for x in t.axis],
                           "degree": int(t.degree),
                           "coeff": float(t.coeff)} for t in shape.terms]}
    raise UnsupportedKindError(f"cannot serialize {type(shape).__name__}")


def shape_from_spec(spec: dict):
    kind = spec.get("type")
    if kind == "polytope":
        return PolytopeShape(np.asarray(spec["vertices"], dtype=float))
    if kind == "ellipsoid":
        orient = spec.get("orientation")
        return EllipsoidShape(np.asarray(spec["semiaxes"], dtype=float),
                              Orthogonal4.from_flat(orient) if orient else None)
    if kind == "zonal_bump":
        base = shape_from_spec(spec["base"])
        terms = tuple(BumpTerm(np.asarray(t["axis"], float), t["degree"],
                               float(t["coeff"])) for t in spec["terms"])
        return BumpShape(base=base, epsilon=float(spec["epsilon"]), terms=terms)
    raise ValueError(f"unknown shape type {kind!r}")


def body_to_spec(body: Body4) -> dict:
    """Spec of the body with its folded map: at most one rot, then one shift."""
    R, b = body.folded
    transforms = []
    if np.max(np.abs(R - np.eye(4))) > 0:
        transforms.append({"rot": Orthogonal4(R).to_flat()})
    if np.max(np.abs(b)) > 0:
        transforms.append({"shift": [float(x) for x in b]})
    return {"kind": body.kind, "shape": shape_to_spec(body.shape),
            "transforms": transforms}


def body_from_spec(spec: dict) -> Body4:
    """Body of a spec, folding its transform entries in order."""
    body = Body4(kind=spec.get("kind", CONVEX), shape=shape_from_spec(spec["shape"]))
    for entry in spec.get("transforms", []):
        if "rot" in entry:
            body = body.apply(Orthogonal4.from_flat(entry["rot"]))
        elif "shift" in entry:
            body = body.translate(entry["shift"])
        else:
            raise ValueError(f"unknown transform entry {entry}")
    return body
