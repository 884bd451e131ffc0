"""Polytope experiments: Hausdorff distance, inscribed approximation of
smooth bodies, 3D shadows of 4D polytopes, rigid-motion symmetry detection,
and perturbation to symmetry-free polytopes.

The Hausdorff distance is a lower bound on sup |h_K - h_L|: the best of
seeded sample directions and each polytope's facet normals, raised by one
batched ascent that steps along the ties of a polytope's vertices.  Every
value it reads is the gap at a real direction, so it is never below its
largest candidate.  The ascent that halves a tied start's angle in place,
one trial per halving, stays in the tests as the oracle it must match bit
for bit.

One generator, ``_rigid_maps``, answers every symmetry and congruence
question.  It prunes candidate vertex triples by centroid distance and
pairwise-distance signatures, solves for the unique map from each triple
onto a fixed well-conditioned base triple, keeps the near-orthogonal ones,
and yields each map's nearest-image vertex permutation with its residual.
Symmetry detection, the perturbation's symmetry scan and congruence
matching are filters over those maps.  An exhaustive permutation search
stays available in the tests as the oracle for small vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bodies import Body4, PolytopeShape, _as_batch, farthest_vertex_pairs, polytope
from .errors import (BudgetExhaustedError, ConfigInvalidError,
                     DegenerateProjectionError, InsufficientDataError,
                     TooFewVerticesError)
from .sphere import ORTHO_TOL, random_directions, unit

GAP_STARTS = 16             # best Hausdorff candidates the gap ascent starts from
GAP_STEP = 0.1              # first step angle of each start, radians
GAP_MIN_STEP = 1e-10        # a start leaves once its step angle is below this
GAP_ITERS = 200             # steps of the gap ascent at most
TIE_RANK = 4                # highest polytope vertices a gap ascent step can tie
MIN_VERTICES = 5            # fewest vertices of an inscribed 4D polytope
PERTURB_ROUNDS = 8


# -- Hausdorff distance -------------------------------------------------------


def _ranked_points(body: Body4, theta):
    """(points, values) at the unit rows theta: a polytope's TIE_RANK highest
    vertices with their values theta . v, highest first, or a smooth body's
    support point with its support value, as shapes (n, r, 4) and (n, r).
    A row's output does not depend on the batch it comes in."""
    if not isinstance(body.shape, PolytopeShape):
        sp = body.support_point(theta)
        return sp[:, None], np.sum(sp * theta, axis=1)[:, None]
    V = body._world_vertices
    values = (_as_batch(theta) @ V.T)[:len(theta)]
    top = np.argsort(values, axis=1)[:, :-TIE_RANK - 1:-1]
    return V[top], np.take_along_axis(values, top, axis=1)


def _ascent_direction(K: Body4, L: Body4, theta, reach):
    """(up, slope, drop, span) at the unit rows theta for turns of angle
    ``reach``: the unit tangent direction in which |h_K - h_L| rises and its
    rate of rise (a zero row and 0 where none is found), and the (n, r - 1)
    arrays that decide which ties it steps along.

    With A the body of larger support at a row and S the other, the gap
    h_A - h_S has gradient x - y_0, x and y_0 their support points.  A
    polytope S's support has a kink wherever its vertices tie, and a vertex
    y_j can overtake y_0 within the turn only if its drop theta . (y_0 - y_j)
    is at most reach times its span |y_j - y_0|.  The gradient is projected
    onto theta-perp and off y_j - y_0 for each such y_j among S's TIE_RANK
    highest vertices, so the step runs along those ties instead of across
    them.  The result depends on reach only through that near-tie set.
    """
    yk, hk = _ranked_points(K, theta)
    yl, hl = _ranked_points(L, theta)
    k_above = hk[:, :1] >= hl[:, :1]
    x = np.where(k_above, yk[:, 0], yl[:, 0])
    y = np.where(k_above[..., None], yl, yk)
    h = np.where(k_above, hl, hk)
    ties = y[:, 1:] - y[:, :1]
    drop, span = h[:, :1] - h[:, 1:], np.linalg.norm(ties, axis=2)
    M = np.concatenate([theta[:, None], ties * (drop <= reach * span)[..., None]], axis=1)
    grad = x - y[:, 0]
    up = grad - (np.linalg.pinv(M) @ (M @ grad[..., None]))[..., 0]
    slope = np.linalg.norm(up, axis=1)
    # a residual at rounding level (every direction tied off) is no direction
    slope[slope <= 1e-12 * np.linalg.norm(grad, axis=1)] = 0.0
    return (np.divide(up, slope[:, None], out=np.zeros_like(up), where=slope[:, None] > 0),
            slope, drop, span)


def _gap_ascent(K: Body4, L: Body4, theta, gap) -> float:
    """Largest gap |h_K - h_L| reached by one batched ascent from the unit
    rows theta, whose gaps are ``gap``.

    Every live start with a slope steps together, one (k, 4) batch per step:
    it turns by its angle along ``_ascent_direction``.  The step is kept
    only if it raises that start's gap by at least half of sin(angle) times
    the slope; otherwise the angle halves, so that no start zigzags across a
    ridge of the gap at a fixed angle, rising a little each time.  A start
    on a corner of a polytope's normal fan, where every direction is tied
    off, reads no trial: its direction depends on its angle only through
    the near-tie set, so its angle halves at once to the first value where
    that set changes, each halving counted as a step.  A start leaves once
    its angle is below GAP_MIN_STEP or it has taken GAP_ITERS steps.  The
    result is never below the largest of ``gap``.
    """
    angle = np.full(len(theta), GAP_STEP)
    steps = np.zeros(len(theta), dtype=int)
    while True:
        live = np.flatnonzero((angle >= GAP_MIN_STEP) & (steps < GAP_ITERS))
        if not live.size:
            break
        a = angle[live, None]
        up, slope, drop, span = _ascent_direction(K, L, theta[live], a)
        flat = slope == 0
        if flat.any():
            b, drop, span = a[flat], drop[flat], span[flat]
            near = drop <= b * span
            halving = np.ones(len(b), dtype=bool)
            while halving.any():
                b[halving] /= 2
                steps[live[flat]] += halving
                halving &= (b[:, 0] >= GAP_MIN_STEP) & np.all((drop <= b * span) == near, axis=1)
            angle[live[flat]] = b[:, 0]
        moving, a, up, slope = live[~flat], a[~flat], up[~flat], slope[~flat]
        if not moving.size:
            continue
        trial = np.cos(a) * theta[moving] + np.sin(a) * up
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        g = np.abs(K.support(trial) - L.support(trial))
        rise = g > gap[moving] + 0.5 * np.sin(a[:, 0]) * slope
        theta[moving[rise]], gap[moving[rise]] = trial[rise], g[rise]
        angle[moving[~rise]] /= 2
        steps[moving] += 1
    return float(np.max(gap))


def hausdorff_distance(K: Body4, L: Body4, n_sample: int = 8192,
                       seed: int = 0) -> float:
    """sup |h_K - h_L| over the direction sphere, from below.

    The candidates are ``n_sample`` seeded random directions plus the world
    facet normals of each polytope argument: between a polytope and a smooth
    body the gap often peaks at a facet normal, the sharpest kink of the
    polytope's support, where an ascent from samples stalls.  The best
    GAP_STARTS candidates then climb together (``_gap_ascent``).  Every
    value read is the gap at a real direction, so the result is a lower
    bound on the sup, and never below the largest candidate gap.
    """
    if n_sample < 1:
        raise ConfigInvalidError(f"n_sample must be at least 1, got {n_sample!r}")
    rng = np.random.default_rng(seed)
    normals = [b.shape.facets[0] @ b.folded[0].T for b in (K, L)
               if isinstance(b.shape, PolytopeShape)]
    dirs = np.concatenate([random_directions(n_sample, rng), *normals])
    gaps = np.abs(K.support(dirs) - L.support(dirs))
    best = np.argsort(gaps)[-GAP_STARTS:]
    return _gap_ascent(K, L, dirs[best], gaps[best])


# -- inscribed polytope approximation ------------------------------------------


def _budget(v) -> int:
    if not (float(v).is_integer() and v >= MIN_VERTICES):
        raise ConfigInvalidError(f"vertex budgets must be integers >= {MIN_VERTICES}, got {v!r}")
    return int(v)


def inscribe_polytope(K: Body4, v: int) -> Body4:
    """Hull of v support points of K, added greedily where the hull's gap is largest.

    Kamenev's scheme in one incremental qhull, from K's support points at a
    regular simplex's vertex directions (r their largest distance from their
    centroid).  Each round picks facets in decreasing gap h_K(n) + off whose
    normals lie more than sqrt(2 g_max / r) rad from those picked before, up
    to the first gap below g_max / 2, n // 4 picks of n points, or v points.
    A cut round keeps the head of its pick list, so the build to v is the
    first v points of any longer one.  It stops early once g_max <= 1e-12 r,
    where the hull is K (the 4-cube at 16 points).
    """
    from scipy.spatial import ConvexHull

    v = _budget(v)
    simplex = np.vstack([np.eye(4), np.full(4, (1 - np.sqrt(5)) / 4)])
    start = K.support_point(unit(simplex - simplex.mean(axis=0)))
    points = start[:1]
    for x in start[1:]:         # a polytope's support points can repeat or lie flat
        if np.linalg.matrix_rank(np.vstack([points[1:], x]) - points[0]) == len(points):
            points = np.vstack([points, x])
    while len(points) < MIN_VERTICES:   # then K's width across the flat leaves it
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
            cand = normals[order[:np.count_nonzero(gap >= g_max / 2)]]
            free, picked = np.ones(len(cand), dtype=bool), []
            while len(picked) < room and free.any():
                picked.append(i := int(np.argmax(free)))
                free[i] = False
                free[i + 1:] &= cand[i + 1:] @ cand[i] < near
            hull.add_points(K.support_point(cand[picked]))
        return polytope(hull.points, kind=K.kind)
    finally:
        hull.close()


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(delta) against log(v)."""

    exponent: float
    stderr: float
    v_list: tuple
    deltas: tuple


def approximation_rate(K: Body4, v_list, seed: int = 0,
                       n_sample: int = 8192) -> RateFit:
    """Fit delta(K, P_v) ~ c * v^exponent over the given vertex budgets, P_v
    the first v points of one build to the largest (``inscribe_polytope``).
    ``seed`` seeds the Hausdorff sample directions only."""
    v_list = [_budget(v) for v in v_list]
    if len(set(v_list)) < 2:
        raise InsufficientDataError("need at least 2 distinct vertex budgets to fit a rate")
    V = inscribe_polytope(K, max(v_list)).shape.vertices
    deltas = [hausdorff_distance(K, polytope(V[:v], kind=K.kind), n_sample=n_sample,
                                 seed=seed + 1000 + i)
              for i, v in enumerate(v_list)]
    exact = [v for v, d in zip(v_list, deltas) if d == 0.0]
    if exact:
        # log(0) would make the fitted exponent nan
        raise InsufficientDataError(
            f"the inscribed polytope reproduces the body exactly (delta = 0) "
            f"at vertex budgets {exact}; no rate to fit")
    x = np.log(np.asarray(v_list, dtype=float))
    y = np.log(np.asarray(deltas))
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    sigma2 = (float(res[0]) if len(res) else float(np.sum((A @ coef - y) ** 2))) / dof
    stderr = float(np.sqrt(sigma2 / np.sum((x - x.mean()) ** 2)))
    return RateFit(exponent=float(coef[0]), stderr=stderr,
                   v_list=tuple(v_list), deltas=tuple(float(d) for d in deltas))


# -- 3D shadows ---------------------------------------------------------------


@dataclass(frozen=True)
class Polytope3:
    """Extreme points of a 3D shadow, in coordinates of the subspace basis."""

    vertices: np.ndarray        # (m, 3)
    basis: np.ndarray           # (3, 4) orthonormal rows spanning the subspace

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        b = np.array(self.basis, dtype=float)
        v.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "basis", b)

    def support(self, dirs3):
        return np.max(np.asarray(dirs3, dtype=float) @ self.vertices.T, axis=-1)


def project_polytope(P: Body4, basis) -> Polytope3:
    """Shadow of a 4D polytope on the 3D subspace spanned by the basis rows;
    flat (DegenerateProjectionError) when the centred shadow's third singular
    value is at most 1e-10 of its first."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (3, 4):
        raise ValueError("basis must be 3 orthonormal rows of length 4")
    if np.max(np.abs(basis @ basis.T - np.eye(3))) > ORTHO_TOL:
        raise ValueError("basis rows are not orthonormal")
    from scipy.spatial import ConvexHull

    coords = P.effective_vertices() @ basis.T
    centered = coords - coords.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] <= 1e-10 * svals[0]:
        raise DegenerateProjectionError("shadow is flat (rank < 3)")
    hull = ConvexHull(coords)
    return Polytope3(vertices=coords[hull.vertices], basis=basis)


def random_subspace_bases(count: int, seed: int = 0):
    """Deterministic random 3D subspaces of R^4 (orthonormal 3x4 bases)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        out.append(q.T.copy())
    return out


# -- rigid-motion symmetry detection -------------------------------------------


@dataclass(frozen=True)
class SymmetryRecord:
    """A nonidentity orthogonal map + shift sending the vertex set to itself.

    phi q[perm[i]] + shift = q[i] for every vertex index i.
    """

    phi: np.ndarray             # (3, 3) orthogonal
    shift: np.ndarray           # (3,)
    permutation: tuple

    def verify(self, vertices, tol: float) -> bool:
        v = np.asarray(vertices, dtype=float)
        image = v[list(self.permutation)] @ self.phi.T + self.shift
        return bool(np.max(np.linalg.norm(image - v, axis=1)) <= tol)


def _distance_signatures(X: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    return np.sort(d, axis=1)


def _rigid_maps(X: np.ndarray, Y: np.ndarray, prune_tol: float):
    """Yield (phi, perm, residual) for linear maps phi sending X onto Y.

    X and Y are centred vertex arrays of equal length.  Each phi maps a
    vertex triple of X exactly onto a fixed well-conditioned base triple of
    Y; preimage candidates are pruned by centroid distance (4 prune_tol),
    distance signature and pairwise distances (8 prune_tol), and phi must be
    orthogonal to 1e-6.  perm is the nearest-image assignment,
    phi X[perm[i]] ~= Y[i], yielded only when it is a bijection; residual is
    its largest distance.  A triple is ill-conditioned when its determinant
    is below 1e-12 scale^3, scale the largest vertex norm of Y.
    """
    m = len(X)
    normsX, normsY = np.linalg.norm(X, axis=1), np.linalg.norm(Y, axis=1)
    sigX, sigY = _distance_signatures(X), _distance_signatures(Y)
    floor = 1e-12 * float(normsY.max()) ** 3
    i1 = int(np.argmax(normsY))
    i2 = int(np.argmax(np.linalg.norm(np.cross(Y[i1][None, :], Y), axis=1)))
    vols = np.abs(Y @ np.cross(Y[i1], Y[i2]))
    i3 = int(np.argmax(vols))
    if vols[i3] <= floor:
        raise DegenerateProjectionError("vertex set is flat")
    base = np.column_stack([Y[i1], Y[i2], Y[i3]])

    def compatible(i):
        return [j for j in range(m)
                if abs(normsX[j] - normsY[i]) <= 4 * prune_tol
                and np.max(np.abs(sigX[j] - sigY[i])) <= 8 * prune_tol]

    d12, d13, d23 = (np.linalg.norm(Y[i1] - Y[i2]), np.linalg.norm(Y[i1] - Y[i3]),
                     np.linalg.norm(Y[i2] - Y[i3]))
    for p1, p2, p3 in product(compatible(i1), compatible(i2), compatible(i3)):
        if len({p1, p2, p3}) < 3:
            continue
        if (abs(np.linalg.norm(X[p1] - X[p2]) - d12) > 8 * prune_tol
                or abs(np.linalg.norm(X[p1] - X[p3]) - d13) > 8 * prune_tol
                or abs(np.linalg.norm(X[p2] - X[p3]) - d23) > 8 * prune_tol):
            continue
        T = np.column_stack([X[p1], X[p2], X[p3]])
        if abs(np.linalg.det(T)) < floor:
            continue
        phi = base @ np.linalg.inv(T)
        if np.max(np.abs(phi.T @ phi - np.eye(3))) > 1e-6:
            continue
        d = np.linalg.norm(Y[:, None, :] - (X @ phi.T)[None, :, :], axis=-1)
        perm = np.argmin(d, axis=1)
        if len(set(perm.tolist())) != m:
            continue
        yield phi, tuple(int(p) for p in perm), float(np.max(d[np.arange(m), perm]))


def _require_tol(tol: float):
    # a nonpositive or nan tol admits no map and certifies false asymmetry;
    # an infinite one admits every map
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigInvalidError(f"tol must be finite and positive, got {tol!r}")


def _symmetry_scan(Q: Polytope3, tol: float, prune_tol: float):
    """(symmetries within tol, smallest nonidentity residual) from one scan.

    Centers at the vertex centroid (any symmetry preserves it).  Maps within
    1e-8 of the identity are skipped, symmetries are deduplicated by
    permutation, and each record is re-verified on the raw vertices.
    """
    _require_tol(tol)
    V = np.asarray(Q.vertices, dtype=float)
    if len(V) < 4:
        raise TooFewVerticesError("need at least 4 vertices")
    c = V.mean(axis=0)
    X = V - c
    found, margin = {}, np.inf
    for phi, perm, residual in _rigid_maps(X, X, prune_tol):
        if np.max(np.abs(phi - np.eye(3))) <= 1e-8:
            continue
        margin = min(margin, residual)
        if residual <= tol and perm not in found:
            rec = SymmetryRecord(phi=phi, shift=c - phi @ c, permutation=perm)
            if rec.verify(V, tol):
                found[perm] = rec
    return list(found.values()), margin


def detect_rigid_symmetries(Q: Polytope3, tol: float = 1e-8):
    """All nonidentity rigid motions mapping the shadow onto itself.

    Candidate maps come from vertex triples pruned at tol, a length, and are
    kept when they realize a full vertex permutation within tol.  Every
    returned record is re-verified on the raw vertices.
    """
    return _symmetry_scan(Q, tol, tol)[0]


def match_congruent(Q1: Polytope3, Q2: Polytope3, tol: float = 1e-8,
                    proper_only: bool = True):
    """Rigid motion (phi, shift, perm) with phi Q1 + shift = Q2 within tol, a
    length, or None."""
    _require_tol(tol)
    A = np.asarray(Q1.vertices, dtype=float)
    B = np.asarray(Q2.vertices, dtype=float)
    if len(A) != len(B) or len(A) < 4:
        return None
    ca, cb = A.mean(axis=0), B.mean(axis=0)
    for phi, perm, residual in _rigid_maps(A - ca, B - cb, tol):
        if residual <= tol and not (proper_only and np.linalg.det(phi) < 0):
            return phi, cb - phi @ ca, perm
    return None


# -- perturbation to symmetry-free polytopes ------------------------------------


@dataclass(frozen=True)
class AsymmetryCertificate:
    """Per-subspace evidence that the perturbed shadows have no symmetries."""

    delta: float
    epsilon_final: float
    rounds: int
    subspaces: tuple   # of dicts {basis, min_symmetry_residual}

    def to_json_dict(self) -> dict:
        return {"delta": float(self.delta),
                "epsilon_final": float(self.epsilon_final),
                "rounds": int(self.rounds),
                "subspaces": [{"basis": [[float(x) for x in row] for row in s["basis"]],
                               "min_symmetry_residual": float(s["min_symmetry_residual"])}
                              for s in self.subspaces]}


def _sampled_symmetry_state(P: Body4, bases, tol: float):
    records = []
    for basis in bases:
        # the margin's wider prune admits every candidate that pruning at tol
        # admits, so no symmetry within tol is missed
        syms, margin = _symmetry_scan(project_polytope(P, basis), tol, max(tol, 1e-6))
        records.append({"basis": basis, "symmetries": len(syms),
                        "min_symmetry_residual": margin})
    return records


def perturb_to_asymmetric(P: Body4, h_bases=None, tol: float = 1e-8,
                          seed: int = 0):
    """Nearby polytope whose sampled 3D shadows all lack rigid symmetries.

    Random radial vertex jitters of magnitude eps (halved each round from
    1e-2 times the diameter) until every sampled shadow is symmetry-free;
    the Hausdorff move is bounded by the largest vertex displacement, and
    symmetries are read within tol, a length.
    Returns (body, certificate); the input is returned unchanged when it is
    already asymmetric on all sampled subspaces.
    """
    if not isinstance(P.shape, PolytopeShape):
        raise ValueError("perturbation needs a polytope body")
    if h_bases is None:
        h_bases = random_subspace_bases(50, seed=seed + 17)
    V = P.effective_vertices()
    eps0 = 1e-2 * float(np.max(farthest_vertex_pairs(V)[1]))

    state = _sampled_symmetry_state(P, h_bases, tol)
    if all(s["symmetries"] == 0 for s in state):
        cert = AsymmetryCertificate(delta=0.0, epsilon_final=0.0, rounds=0,
                                    subspaces=tuple(state))
        return P, cert

    rng = np.random.default_rng(seed)
    c = V.mean(axis=0)
    radial = V - c
    norms = np.linalg.norm(radial, axis=1, keepdims=True)
    radial_unit = radial / np.maximum(norms, 1e-12 * norms.max())
    for round_idx in range(PERTURB_ROUNDS):
        eps = eps0 / 2 ** round_idx
        jitter = eps * rng.uniform(-1.0, 1.0, size=(len(V), 1)) * radial_unit
        try:
            cand = polytope(V + jitter, kind=P.kind)
        except ValueError:
            continue
        state = _sampled_symmetry_state(cand, h_bases, tol)
        if all(s["symmetries"] == 0 for s in state):
            delta = float(np.max(np.linalg.norm(jitter, axis=1)))
            cert = AsymmetryCertificate(delta=delta, epsilon_final=eps,
                                        rounds=round_idx + 1,
                                        subspaces=tuple(state))
            return cand, cert
    raise BudgetExhaustedError(
        f"no symmetry-free perturbation found in {PERTURB_ROUNDS} rounds")
