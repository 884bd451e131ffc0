"""Polytope experiments: Hausdorff distance, inscribed approximation of
smooth bodies, 3D shadows of 4D polytopes, rigid-motion symmetry detection,
and perturbation to symmetry-free polytopes.

One generator, ``_rigid_maps``, answers every symmetry and congruence
question.  It prunes candidate vertex triples by centroid distance and
pairwise-distance signatures, solves for the unique map from each triple
onto a fixed well-conditioned base triple, keeps the near-orthogonal ones,
and yields each map's nearest-image vertex permutation with its residual.
Symmetry detection, the asymmetry margin and congruence matching are
filters over those maps.  An exhaustive permutation search stays available
in the tests as the oracle for small vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull

from .bodies import Body4, PolytopeShape, polytope
from .errors import (BudgetExhaustedError, DegenerateProjectionError,
                     InsufficientDataError, TooFewVerticesError)
from .sphere import ORTHO_TOL, random_directions

LLOYD_ITERS = 15
MIN_VERTICES = 5            # fewest vertices of an inscribed 4D polytope
PERTURB_ROUNDS = 8


# -- Hausdorff distance -------------------------------------------------------


def hausdorff_distance(K: Body4, L: Body4, n_sample: int = 8192,
                       seed: int = 0) -> float:
    """sup |h_K - h_L| over the direction sphere.

    Quasi-uniform sampling followed by a local ascent (Nelder-Mead on the
    normalized direction) from the best sample point.
    """
    rng = np.random.default_rng(seed)
    dirs = random_directions(n_sample, rng)
    gaps = np.abs(K.support(dirs) - L.support(dirs))
    best = float(np.max(gaps))
    start = dirs[int(np.argmax(gaps))]

    def neg_gap(x):
        n = np.linalg.norm(x)
        if n < 1e-12:
            return 0.0
        u = x / n
        return -abs(float(K.support(u)) - float(L.support(u)))

    res = minimize(neg_gap, start, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 600})
    return max(best, -float(res.fun))


# -- inscribed polytope approximation ------------------------------------------


def _spread_directions(count: int, seed: int) -> np.ndarray:
    """Well-separated directions on S^3: farthest-point greedy seeding from a
    random pool, then Lloyd-style spreading (cells by nearest center)."""
    rng = np.random.default_rng(seed)
    pool = random_directions(max(4000, 30 * count), rng)
    chosen = np.empty((count, 4))
    chosen[0] = pool[0]
    best_dot = pool @ chosen[0]
    for k in range(1, count):
        idx = int(np.argmin(best_dot))
        chosen[k] = pool[idx]
        best_dot = np.maximum(best_dot, pool @ chosen[k])
    for _ in range(LLOYD_ITERS):
        owner = np.argmax(pool @ chosen.T, axis=1)
        for k in range(count):
            members = pool[owner == k]
            if len(members):
                m = members.sum(axis=0)
                n = np.linalg.norm(m)
                if n > 1e-12:
                    chosen[k] = m / n
    return chosen


def inscribe_polytope(K: Body4, v: int, seed: int = 0) -> Body4:
    """Hull of v boundary points of a smooth convex body, spread quasi-uniformly.

    A heuristic stand-in for the best inscribed v-vertex polytope: the rate
    experiment measures what this construction achieves.  Vertices are the
    support points of well-separated directions, hence exactly on the
    boundary.
    """
    if v < MIN_VERTICES:
        raise ValueError(f"need at least {MIN_VERTICES} vertices")
    dirs = _spread_directions(v, seed)
    return polytope(K.support_point(dirs), kind=K.kind)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(delta) against log(v)."""

    exponent: float
    stderr: float
    v_list: tuple
    deltas: tuple


def approximation_rate(K: Body4, v_list, seed: int = 0,
                       n_sample: int = 8192) -> RateFit:
    """Fit delta(K, P_v) ~ c * v^exponent over the given vertex budgets."""
    v_list = [int(v) for v in v_list]
    if len(set(v_list)) < 2:
        raise InsufficientDataError("need at least 2 distinct vertex budgets to fit a rate")
    deltas = []
    for i, v in enumerate(v_list):
        P = inscribe_polytope(K, v, seed=seed + i)
        deltas.append(hausdorff_distance(K, P, n_sample=n_sample, seed=seed + 1000 + i))
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
    """Shadow of a 4D polytope on the 3D subspace spanned by the basis rows."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (3, 4):
        raise ValueError("basis must be 3 orthonormal rows of length 4")
    if np.max(np.abs(basis @ basis.T - np.eye(3))) > ORTHO_TOL:
        raise ValueError("basis rows are not orthonormal")
    coords = P.effective_vertices() @ basis.T
    centered = coords - coords.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] < 1e-10 * max(1.0, svals[0]):
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


def _symmetry_scan(Q: Polytope3, tol: float, prune_tol: float):
    """(symmetries within tol, smallest nonidentity residual) from one scan.

    Centers at the vertex centroid (any symmetry preserves it).  Maps within
    1e-8 of the identity are skipped, symmetries are deduplicated by
    permutation, and each record is re-verified on the raw vertices.
    """
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

    Candidate maps come from vertex triples pruned at tol and are kept when
    they realize a full vertex permutation within tol.  Every returned record
    is re-verified on the raw vertices.
    """
    return _symmetry_scan(Q, tol, tol)[0]


def asymmetry_margin(Q: Polytope3, tol: float = 1e-8) -> float:
    """Smallest full-match residual over nonidentity orthogonal candidates.

    A large margin certifies that no rigid motion symmetry is anywhere near;
    returns inf when no candidate map at all survives the orthogonality
    screen.  Candidates are pruned at max(tol, 1e-6).
    """
    return _symmetry_scan(Q, tol, max(tol, 1e-6))[1]


def match_congruent(Q1: Polytope3, Q2: Polytope3, tol: float = 1e-8,
                    proper_only: bool = True):
    """Rigid motion (phi, shift, perm) with phi Q1 + shift = Q2, or None."""
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


def _vertex_diameter(V: np.ndarray) -> float:
    d = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    return float(np.max(d))


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
    the Hausdorff move is bounded by the largest vertex displacement.
    Returns (body, certificate); the input is returned unchanged when it is
    already asymmetric on all sampled subspaces.
    """
    if not isinstance(P.shape, PolytopeShape):
        raise ValueError("perturbation needs a polytope body")
    if h_bases is None:
        h_bases = random_subspace_bases(50, seed=seed + 17)
    V = P.effective_vertices()
    diam = _vertex_diameter(V)
    eps0 = 1e-2 * diam

    state = _sampled_symmetry_state(P, h_bases, tol)
    if all(s["symmetries"] == 0 for s in state):
        cert = AsymmetryCertificate(delta=0.0, epsilon_final=0.0, rounds=0,
                                    subspaces=tuple(state))
        return P, cert

    rng = np.random.default_rng(seed)
    c = V.mean(axis=0)
    radial = V - c
    radial_unit = radial / np.maximum(np.linalg.norm(radial, axis=1, keepdims=True), 1e-12)
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
