"""The four benchmark workloads: seeded inputs, operations and checks.

A workload's ``setup(seed, scale)`` generates its fixtures (and certifies
the planted bodies as asymmetric, as the acceptance suite does) and returns
its operation list.  Each operation loads fresh bodies from specs, makes one
public-API call, and checks the output against the planted truth.  The
program objects are looked up on their modules at call time, so the tracer's
patches see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from congrulab import bodies, polylab, registration, sphere, verifier

import fixtures as fx

CERT_SIDES = 50          # side spheres per asymmetry certificate
CERT_TOL = 1e-6
TRANSLATION_TOL = 1e-6 * fx.DIAM
OFF_POLE_TOL = 1e-9
RATE_V_LIST = (40, 80, 160, 320, 640)
RATE_TARGET, RATE_TOL = -2.0 / 3.0, 0.15
# nonidentity symmetries of a generic 3D shadow, frozen from the seed
# commit: a generic planted polytope has none; the 4-cube and the 24-cell
# are centrally symmetric, so each shadow keeps exactly the point reflection
FROZEN_SYMMETRIES = {"planted": 0, "cube": 1, "24cell": 1}


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``full`` is what the benchmark reports."""

    config: verifier.VerifyConfig
    n_subspaces: int
    projection_fixtures: int
    section_fixtures: int


SCALES = {
    # default tolerance and grids; 16 working spheres instead of 200 keeps a
    # verify to about a second, so a run yields enough calls for medians
    "full": Scale(verifier.VerifyConfig(w_samples=16), n_subspaces=50,
                  projection_fixtures=3, section_fixtures=2),
    "smoke": Scale(verifier.VerifyConfig(n_t=16, n_azimuth=64, w_samples=4,
                                         circle_nodes=64, out_of_sample=256),
                   n_subspaces=8, projection_fixtures=1, section_fixtures=1),
}


@dataclass
class Op:
    """One timed call.  ``load`` builds its inputs, ``call`` is timed, and
    ``check`` returns None for a correct output or the reason it is wrong."""

    name: str
    kind: str
    load: Callable[[], tuple]
    call: Callable
    check: Callable[[object], str | None]
    expected: dict = field(default_factory=dict)


def _load(*specs):
    return lambda: tuple(bodies.body_from_spec(s) for s in specs)


def certified_asymmetric(field, pole) -> bool:
    """No half-turn symmetry about the pole and no equatorial half-turn
    symmetry on any of CERT_SIDES side spheres (the theorem's hypotheses)."""
    for w in sphere.directions_orthogonal_to(pole, CERT_SIDES):
        if registration.pole_rotation_symmetry_defect(field, w, pole, np.pi) <= 10 * CERT_TOL:
            return False
        if registration.find_equator_flip_symmetry(field, sphere.make_frame(pole, w),
                                                   CERT_TOL) is not None:
            return False
    return True


def _certified_specs(pole, count, make_spec, field_of):
    """The first ``count`` fixture shapes, in generator order, that load and
    pass the asymmetry certificate."""
    specs = []
    index = 0
    while len(specs) < count:
        spec = make_spec(index)
        index += 1
        try:
            body = bodies.body_from_spec(spec)
        except ValueError:          # e.g. a bump that breaks convexity
            continue
        if certified_asymmetric(field_of(body), pole):
            specs.append(spec)
    return specs


def check_verdict(expected: dict):
    def check(verdict):
        if verdict.outcome != expected["outcome"]:
            return f"outcome {verdict.outcome} ({verdict.reason}), expected {expected['outcome']}"
        if verdict.translation is None:
            return "no translation recovered"
        b_hat = np.asarray(verdict.translation, dtype=float)
        err = float(np.linalg.norm(b_hat - expected["translation"]))
        if err > TRANSLATION_TOL:
            return f"translation error {err:.3e} > {TRANSLATION_TOL:.1e}"
        if expected.get("pole") is not None:
            pole = expected["pole"]
            off = float(np.linalg.norm(b_hat - (b_hat @ pole) * pole))
            if off > OFF_POLE_TOL:
                return f"off-pole translation {off:.3e} > {OFF_POLE_TOL:.0e}"
        return None
    return check


def _verify_op(name, pipeline, spec_k, spec_l, pole, config, expected):
    expected = {**expected, "translation": np.asarray(expected["translation"], float)}

    def call(K, L):
        return getattr(verifier, pipeline)(K, L, pole, config)

    return Op(name=name, kind="verify", load=_load(spec_k, spec_l), call=call,
              check=check_verdict(expected), expected=expected)


def setup_projection(seed: int, scale: Scale) -> list:
    rng = np.random.default_rng([seed, 1])
    rot = fx.random_rotation(rng)
    pole = rot[:, 0]
    refl = fx.reflection_matrix(pole)
    specs = _certified_specs(pole, scale.projection_fixtures,
                             lambda i: fx.polytope_spec(fx.planted_vertices(i) @ rot.T),
                             lambda K: K.support)
    ops = []
    for i, spec in enumerate(specs):
        b_eq = 0.35 * fx.DIAM * fx.random_units(rng, 1)[0]
        b_re = 0.3 * fx.DIAM * fx.random_units(rng, 1)[0]
        ops.append(_verify_op(f"equal.{i}", "verify_projection_theorem", spec,
                              fx.with_transforms(spec, shift=b_eq), pole, scale.config,
                              {"outcome": "equal", "translation": b_eq}))
        ops.append(_verify_op(f"reflected.{i}", "verify_projection_theorem", spec,
                              fx.with_transforms(spec, rot=refl, shift=b_re), pole,
                              scale.config, {"outcome": "reflected", "translation": b_re}))
    return ops


def setup_section(seed: int, scale: Scale) -> list:
    rng = np.random.default_rng([seed, 2])
    rot = fx.random_rotation(rng)
    pole = rot[:, 0]
    refl = fx.reflection_matrix(pole)
    specs = _certified_specs(
        pole, scale.section_fixtures,
        lambda i: fx.polytope_spec(fx.planted_vertices(i, through_origin=True) @ rot.T,
                                   kind="star"),
        lambda K: K.radial)
    ops = []
    for i, spec in enumerate(specs):
        b = float(rng.uniform(-0.05, 0.03)) * fx.DIAM * pole
        ops.append(_verify_op(f"reflected.{i}", "verify_section_theorem", spec,
                              fx.with_transforms(spec, rot=refl, shift=b), pole,
                              scale.config,
                              {"outcome": "reflected", "translation": b, "pole": pole}))
    return ops


def setup_smooth(seed: int, scale: Scale) -> list:
    rng = np.random.default_rng([seed, 3])
    rot = fx.random_rotation(rng)
    pole = rot[:, 0]
    bump = _certified_specs(pole, 1, lambda i: fx.bump_spec(i, rot),
                            lambda K: K.support)[0]
    ell = {"kind": "convex", "shape": fx.ellipsoid_shape(rot), "transforms": []}
    b_bump = 0.35 * fx.DIAM * fx.random_units(rng, 1)[0]
    b_ell = 0.35 * fx.DIAM * fx.random_units(rng, 1)[0]
    return [
        _verify_op("bump.equal", "verify_projection_theorem", bump,
                   fx.with_transforms(bump, shift=b_bump), pole, scale.config,
                   {"outcome": "equal", "translation": b_bump}),
        _verify_op("ellipsoid.both", "verify_projection_theorem", ell,
                   fx.with_transforms(ell, shift=b_ell), pole, scale.config,
                   {"outcome": "both", "translation": b_ell}),
    ]


def _symmetry_counts(P, bases):
    return [len(polylab.detect_rigid_symmetries(polylab.project_polytope(P, basis)))
            for basis in bases]


def setup_polylab(seed: int, scale: Scale) -> list:
    rng = np.random.default_rng([seed, 4])
    rate_seed = int(rng.integers(0, 2**31))
    rot = fx.random_rotation(rng)
    ell = {"kind": "convex",
           "shape": {"type": "ellipsoid", "semiaxes": rng.uniform(0.9, 1.1, 4).tolist(),
                     "orientation": rot.reshape(-1).tolist()},
           "transforms": []}
    polys = {"planted": fx.polytope_spec(fx.planted_vertices(0) @ rot.T),
             "cube": fx.polytope_spec(fx.cube_vertices()),
             "24cell": fx.polytope_spec(fx.cell24_vertices())}
    bases = fx.subspace_bases(rng, scale.n_subspaces)
    perturb_seed = int(rng.integers(0, 2**31))

    def check_rate(fit):
        if abs(fit.exponent - RATE_TARGET) > RATE_TOL:
            return f"rate exponent {fit.exponent:.4f} not within {RATE_TOL} of -2/3"
        return None

    ops = [Op("rate", "rate", _load(ell),
              lambda E: polylab.approximation_rate(E, RATE_V_LIST, seed=rate_seed),
              check_rate)]

    def check_counts(want):
        def check(counts):
            bad = [i for i, c in enumerate(counts) if c != want]
            return None if not bad else (
                f"{len(bad)} subspaces with symmetry counts != {want} "
                f"(first: subspace {bad[0]} has {counts[bad[0]]})")
        return check

    for name, spec in polys.items():
        ops.append(Op(f"symmetry.{name}", "symmetry", _load(spec),
                      lambda P: _symmetry_counts(P, bases),
                      check_counts(FROZEN_SYMMETRIES[name])))

    def check_perturbed(result):
        return check_counts(0)(_symmetry_counts(result[0], bases))

    for name in ("cube", "24cell"):
        ops.append(Op(f"perturb.{name}", "perturb", _load(polys[name]),
                      lambda P: polylab.perturb_to_asymmetric(P, h_bases=bases,
                                                              seed=perturb_seed),
                      check_perturbed))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Scale], list]
    headline: tuple         # names of the operations op_s_p50 averages, by prefix


WORKLOADS = {
    "projection": Workload(setup_projection, ("equal.", "reflected.")),
    "section": Workload(setup_section, ("reflected.",)),
    "smooth": Workload(setup_smooth, ("bump.",)),
    "polylab": Workload(setup_polylab, ("rate",)),
}
