"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 1 and 2 run at the default grid sizes and
enforce the per-instance runtime budget.
"""

import time
from itertools import count

import numpy as np
import pytest

from congrulab.bodies import ball, ellipsoid, polytope
from congrulab.funk import compose_with_matrix, funk_transform, parity_decompose
from congrulab.orthogonal import (Orthogonal4, compose, equator_flip,
                                  pole_reflection, pole_rotation)
from congrulab.polylab import (Polytope3, approximation_rate,
                               detect_rigid_symmetries)
from congrulab.registration import register_pole_flip, register_pole_rotation
from congrulab.sphere import (complement_basis, gauss_grid, make_frame,
                              random_directions, unit)
from congrulab.verifier import (VerifyConfig, decide_functional_equation,
                                verify_projection_theorem,
                                verify_section_theorem)
from congrulab.funk import sample_on_sphere

from helpers import (band_limited_field, brute_force_symmetries,
                     certified_asymmetric, embed_rotation, even_field, legendre_p,
                     legendre_p0, planted_polytope, radial_by_bisection, rodrigues,
                     wrap_err)

POLE = unit(np.array([0.31, -0.47, 0.62, 0.55]))
DIAM = 2.0          # planted diameter length of every fixture
SIDE_CHECKS = 50
CERT_TOL = 1e-6


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())


def _certified_fixtures(n: int, through_origin: bool, start_seed: int):
    bodies = []
    for seed in count(start_seed):
        K = planted_polytope(seed, POLE, length=DIAM, through_origin=through_origin,
                             kind="star" if through_origin else "convex")
        field = K.radial if through_origin else K.support
        if certified_asymmetric(field, POLE, SIDE_CHECKS, CERT_TOL):
            bodies.append(K)
        if len(bodies) == n:
            return bodies


# -- criterion 1: planted translation recovery -------------------------------------


def test_criterion_1_planted_translation_recovery():
    rng = np.random.default_rng(0xC1)
    bodies = _certified_fixtures(10, through_origin=False, start_seed=1000)
    config = VerifyConfig()      # default grids
    worst_err, worst_time = 0.0, 0.0
    for K in bodies:
        b = 0.35 * DIAM * unit(rng.standard_normal(4))
        t0 = time.perf_counter()
        v = verify_projection_theorem(K, K.translate(b), POLE, config)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        assert v.outcome == "equal"
        err = float(np.linalg.norm(v.translation - b))
        worst_err = max(worst_err, err)
    ok = worst_err <= 1e-6 * DIAM and worst_time <= 60.0
    _report("criterion 1: planted translation recovery", ok,
            f"(worst error {worst_err:.2e}, worst time {worst_time:.1f}s)")
    assert worst_err <= 1e-6 * DIAM
    assert worst_time <= 60.0


# -- criterion 2: planted reflection recovery (projections and sections) ------------


def test_criterion_2_planted_reflection_recovery():
    rng = np.random.default_rng(0xC2)
    refl = pole_reflection(POLE)
    config = VerifyConfig()
    worst_err, worst_time = 0.0, 0.0

    bodies = _certified_fixtures(10, through_origin=False, start_seed=2000)
    for K in bodies:
        b = 0.3 * DIAM * unit(rng.standard_normal(4))
        t0 = time.perf_counter()
        v = verify_projection_theorem(K, K.apply(refl, b), POLE, config)
        worst_time = max(worst_time, time.perf_counter() - t0)
        assert v.outcome == "reflected"
        worst_err = max(worst_err, float(np.linalg.norm(v.translation - b)))

    stars = _certified_fixtures(10, through_origin=True, start_seed=3000)
    for K in stars:
        c = float(rng.uniform(-0.05, 0.03)) * DIAM
        b = c * POLE
        t0 = time.perf_counter()
        v = verify_section_theorem(K, K.apply(refl, b), POLE, config)
        worst_time = max(worst_time, time.perf_counter() - t0)
        assert v.outcome == "reflected"
        worst_err = max(worst_err, float(np.linalg.norm(v.translation - b)))
        off_axis = v.translation - (v.translation @ POLE) * POLE
        assert np.linalg.norm(off_axis) <= 1e-9

    ok = worst_err <= 1e-6 * DIAM
    _report("criterion 2: planted reflection recovery", ok,
            f"(worst error {worst_err:.2e}, worst time {worst_time:.1f}s)")
    assert worst_err <= 1e-6 * DIAM


# -- criterion 3: functional-equation trichotomy ------------------------------------


def test_criterion_3_trichotomy_suite():
    config = VerifyConfig(n_t=8, n_azimuth=64, w_samples=12, circle_nodes=64,
                          out_of_sample=256)
    refl = pole_reflection(POLE)
    probes = random_directions(512, np.random.default_rng(3))
    mislabels = 0
    n_each = 100
    made = 0
    seed = 30_000
    while made < n_each:
        f = band_limited_field(seed, degree=5, terms=6)
        seed += 1
        odd_sup = float(np.max(np.abs(parity_decompose(f, POLE).odd(probes))))
        if odd_sup < 1e-2:          # the reflected batch needs a real odd part
            continue
        made += 1
        if decide_functional_equation(f, f, POLE, config).outcome != "equal":
            mislabels += 1
        g = compose_with_matrix(f, refl.matrix)
        if decide_functional_equation(f, g, POLE, config).outcome != "reflected":
            mislabels += 1
        fe = even_field(seed + 100_000, POLE, degree=5, terms=6)
        if decide_functional_equation(fe, fe, POLE, config).outcome != "both":
            mislabels += 1
    ok = mislabels == 0
    _report("criterion 3: trichotomy suite (3 x 100 instances)", ok,
            f"({mislabels} mislabels)")
    assert mislabels == 0


# -- criterion 4: Funk-transform identities -------------------------------------------


def test_criterion_4_funk_identities():
    basis = complement_basis(POLE)
    on_sphere = lambda v3: np.asarray(v3, float) @ basis
    rng = np.random.default_rng(4)

    f = band_limited_field(41)
    g = band_limited_field(42)
    a, b = 0.7, -1.3
    comb = lambda x: a * f(x) + b * g(x)
    lin_dev = 0.0
    for _ in range(20):
        w = on_sphere(unit(rng.standard_normal(3)))
        lhs = funk_transform(comb, POLE, w, 128)
        rhs = (a * funk_transform(f, POLE, w, 128)
               + b * funk_transform(g, POLE, w, 128))
        lin_dev = max(lin_dev, abs(lhs - rhs))

    x0 = on_sphere(unit(rng.standard_normal(3)))
    odd3 = lambda x: (np.asarray(x) @ x0) ** 3 + 0.5 * (np.asarray(x) @ x0)
    odd_dev = max(abs(funk_transform(odd3, POLE, on_sphere(unit(rng.standard_normal(3))), 128))
                  for _ in range(20))

    # zonal harmonics: transform = 2*pi*P_n(0) * P_n(pole-axis dot), the
    # eigenfactor from the double-factorial recurrence oracle
    p = on_sphere(unit(np.array([0.2, 0.6, -0.77])))
    eig_dev = 0.0
    for n in range(17):
        F = lambda x: legendre_p(n, np.asarray(x) @ p)
        for _ in range(4):
            w = on_sphere(unit(rng.standard_normal(3)))
            got = funk_transform(F, POLE, w, 256)
            expect = 2 * np.pi * legendre_p0(n) * float(legendre_p(n, np.array(w @ p)))
            eig_dev = max(eig_dev, abs(got - expect))

    ok = lin_dev <= 1e-12 and odd_dev <= 1e-10 and eig_dev <= 1e-8
    _report("criterion 4: Funk-transform identities", ok,
            f"(linearity {lin_dev:.1e}, odd {odd_dev:.1e}, eigen {eig_dev:.1e})")
    assert lin_dev <= 1e-12
    assert odd_dev <= 1e-10
    assert eig_dev <= 1e-8


# -- criterion 5: registration recovery -----------------------------------------------


def test_criterion_5_registration_recovery():
    rng = np.random.default_rng(5)
    nrm = rng.standard_normal(4)
    frame = make_frame(POLE, nrm - (nrm @ POLE) * POLE)
    grid = gauss_grid(frame, 8, 256)
    spacing = 2 * np.pi / 256
    worst_coarse = worst_fine = worst_res = 0.0
    for trial in range(1000):
        f = band_limited_field(50_000 + trial, degree=5, terms=6)
        F = sample_on_sphere(f, grid)
        if trial % 2 == 0:
            angle = float(rng.uniform(0, 2 * np.pi))
            g = compose_with_matrix(f, pole_rotation(frame, angle).matrix)
            wit = register_pole_rotation(F, sample_on_sphere(g, grid))
            coarse = wrap_err(wit.coarse_parameter, angle, 2 * np.pi)
            fine = wrap_err(wit.parameter, angle, 2 * np.pi)
        else:
            beta = float(rng.uniform(0, np.pi))
            g = compose_with_matrix(f, equator_flip(frame, beta).matrix)
            wit = register_pole_flip(F, sample_on_sphere(g, grid))
            coarse = wrap_err(wit.coarse_parameter, beta, np.pi)
            fine = wrap_err(wit.parameter, beta, np.pi)
        worst_coarse = max(worst_coarse, coarse)
        worst_fine = max(worst_fine, fine)
        worst_res = max(worst_res, wit.residual)
    ok = (worst_coarse <= spacing and worst_fine <= 1e-3 and worst_res <= 1e-8)
    _report("criterion 5: registration recovery (1000 instances)", ok,
            f"(coarse {worst_coarse:.2e} <= {spacing:.2e}, fine {worst_fine:.2e}, "
            f"residual {worst_res:.2e})")
    assert worst_coarse <= spacing
    assert worst_fine <= 1e-3
    assert worst_res <= 1e-8


# -- criterion 6: rotation algebra ------------------------------------------------------


def test_criterion_6_half_turn_composition():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        pole = unit(rng.standard_normal(4))
        nrm = rng.standard_normal(4)
        frame = make_frame(pole, nrm - (nrm @ pole) * pole)
        b1, b2 = rng.uniform(0, np.pi, 2)
        got = compose(equator_flip(frame, b1), equator_flip(frame, b2))
        # axis-angle oracle: rotation by 2*(b1-b2) about the common normal
        # of the two axes (the pole), built independently
        expect = embed_rotation(frame, rodrigues([0.0, 0.0, 1.0], 2 * (b1 - b2)))
        worst = max(worst, float(np.max(np.abs(got.matrix - expect))))
    ok = worst <= 1e-10
    _report("criterion 6: half-turn composition algebra", ok, f"(dev {worst:.1e})")
    assert worst <= 1e-10


# -- criterion 7: symmetry detection vs exhaustive oracle ---------------------------------


def test_criterion_7_symmetry_oracle_agreement():
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    box = np.array([[sx * 1.0, sy * 2.0, sz * 3.0]
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    cube3 = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], float)
    skew = tetra * np.array([1.03, 1.05, 0.97, 1.01])[:, None]
    cases = [("tetrahedron", tetra, 23), ("box", box, 7),
             ("cube", cube3, 47), ("perturbed tetrahedron", skew, 0)]
    basis = np.eye(4)[:3]
    ok = True
    details = []
    for name, verts, expected in cases:
        got = detect_rigid_symmetries(Polytope3(vertices=verts, basis=basis), 1e-8)
        oracle = brute_force_symmetries(verts, 1e-8)
        agree = len(got) == len(oracle) == expected
        # permutation sets must agree exactly, not just the counts
        agree = agree and ({g.permutation for g in got}
                           == {perm for perm, _ in oracle})
        ok = ok and agree
        details.append(f"{name}: {len(got)}")
    _report("criterion 7: symmetry detection vs exhaustive oracle", ok,
            "(" + ", ".join(details) + ")")
    assert ok


# -- criterion 8: inscribed-approximation rate --------------------------------------------


def test_criterion_8_approximation_rate():
    t0 = time.perf_counter()
    fit = approximation_rate(ball(), [40, 80, 160, 320, 640], seed=1,
                             n_sample=16384)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.exponent + 2.0 / 3.0) <= 0.15 and elapsed <= 300.0
    _report("criterion 8: inscribed-approximation rate", ok,
            f"(exponent {fit.exponent:.4f} vs -2/3, {elapsed:.0f}s)")
    assert abs(fit.exponent + 2.0 / 3.0) <= 0.15
    assert elapsed <= 300.0


# -- criterion 9: restriction identities ----------------------------------------------------


def _support_shadow_oracle(body, basis, th3):
    """3D recomputation of the shadow's support function."""
    if hasattr(body.shape, "vertices"):
        v3 = body.effective_vertices() @ basis.T
        return np.max(th3 @ v3.T, axis=1)
    R, b = body.folded
    U = R @ body.shape.axes_matrix
    Q = U @ np.diag(np.asarray(body.shape.semiaxes) ** 2) @ U.T
    M3 = basis @ Q @ basis.T
    vals, vecs = np.linalg.eigh(M3)
    comp = th3 @ vecs
    return np.sqrt(np.sum(comp * comp * vals, axis=1)) + th3 @ (basis @ b)


def _membership(body):
    if hasattr(body.shape, "vertices"):
        from scipy.spatial import ConvexHull
        hull = ConvexHull(body.effective_vertices())
        A, off = hull.equations[:, :4], hull.equations[:, 4]
        return lambda pts: np.max(pts @ A.T + off, axis=-1) <= 1e-13
    R, b = body.folded
    U = R @ body.shape.axes_matrix
    inv = 1.0 / np.asarray(body.shape.semiaxes)

    def inside(pts):
        q = ((pts - b) @ U) * inv
        return np.sum(q * q, axis=-1) <= 1.0
    return inside


def test_criterion_9_restriction_identities():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    bodies = []
    for s in range(5):
        K = planted_polytope(900 + s, POLE, through_origin=True, kind="star")
        bodies.append(K.translate(0.02 * rng.standard_normal(4)))
    for s in range(5):
        E = ellipsoid(rng.uniform(0.7, 1.6, 4), Orthogonal4(q))
        bodies.append(E.translate(0.1 * rng.standard_normal(4)))

    sup_dev = 0.0
    rad_dev = 0.0
    triples = 0
    for body in bodies:
        inside = _membership(body)
        for _ in range(10):
            w = unit(rng.standard_normal(4))
            basis = complement_basis(w)
            th3 = unit(rng.standard_normal((50, 3)))
            thetas = th3 @ basis
            # projection: support of the shadow equals restricted support
            got_h = body.support(thetas)
            oracle_h = _support_shadow_oracle(body, basis, th3)
            sup_dev = max(sup_dev, float(np.max(np.abs(got_h - oracle_h))))
            # section: radial of the slice equals restricted radial, checked
            # against bisection on a membership oracle
            got_r = body.radial(thetas)
            hi = float(np.max(got_h)) + 1.0
            oracle_r = radial_by_bisection(inside, thetas, hi)
            rad_dev = max(rad_dev, float(np.max(np.abs(got_r - oracle_r))))
            triples += 2 * 50
    ok = sup_dev <= 1e-10 and rad_dev <= 1e-10 and triples == 10_000
    _report("criterion 9: restriction identities (10^4 triples)", ok,
            f"(support dev {sup_dev:.1e}, radial dev {rad_dev:.1e})")
    assert triples == 10_000
    assert sup_dev <= 1e-10
    assert rad_dev <= 1e-10
