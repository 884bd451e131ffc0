"""End-to-end congruence pipelines.

``decide_functional_equation`` settles whether two fields on S^3 that agree
up to an admissible rotation on every working sphere through a fixed pole
are globally equal, equal up to the pole reflection, or degenerate.  The
body-level pipelines reduce projection/section congruence to that decision
applied to support or radial functions after centering the distinguished
diameter, and translate the answer back into a recovered translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bodies import Body4, DiameterSet, diameter_segment, find_diameters
from .errors import (CongruenceHypothesisFailed, ConfigInvalidError,
                     DiameterHypothesisFailed, StarShapednessLost)
from .funk import sample_on_sphere
from .orthogonal import FLIP_POLE, pole_reflection
from .registration import (LABEL_NONE, Classification,
                           classify_direction, find_equator_flip_symmetry,
                           pole_rotation_symmetry_defect)
from .sphere import (circle_quadrature, directions_orthogonal_to, evaluate_field,
                     gauss_grid, make_frame, random_directions, unit)

OUTCOME_EQUAL = "equal"
OUTCOME_REFLECTED = "reflected"
OUTCOME_BOTH = "both"
OUTCOME_ZERO_ODD = "zero_odd"
OUTCOME_INCONCLUSIVE = "inconclusive"

_SUCCESS_OUTCOMES = (OUTCOME_EQUAL, OUTCOME_REFLECTED, OUTCOME_BOTH, OUTCOME_ZERO_ODD)


DIAMETER_MARGIN = 0.05  # least |w . d| to a diameter d off the pole, for a working w


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances, grid sizes and sampling for the pipelines.

    ``tol`` is relative to the sup of the data being compared.  The grid is
    n_t Gauss latitudes by n_azimuth uniform azimuths; ``w_samples`` working
    spheres are classified per decision.  Every check reads that grid, so the
    even-part circles have n_azimuth nodes: ``circle_nodes`` is None or
    n_azimuth, and any other value is rejected.
    """

    tol: float = 1e-6
    n_t: int = 64
    n_azimuth: int = 256
    w_samples: int = 200
    circle_nodes: int | None = None
    seed: int = 0
    out_of_sample: int = 2048

    def validate(self):
        if not (0.0 < self.tol < 1.0):
            raise ConfigInvalidError("tol is relative to the data sup: it must lie in (0, 1)")
        if self.n_t < 2 or self.n_azimuth < 8 or self.n_azimuth % 2:
            raise ConfigInvalidError("grid must have n_t >= 2 and even n_azimuth >= 8")
        if self.w_samples < 1:
            raise ConfigInvalidError("w_samples must be positive")
        if self.circle_nodes is not None and self.circle_nodes != self.n_azimuth:
            raise ConfigInvalidError(
                "circle_nodes must equal n_azimuth: the even parts are compared "
                "on the working-sphere grid")
        return self


@dataclass
class Verdict:
    """Outcome of a congruence decision, with diagnostics.

    ``translation`` is the vector b with L = K + b (outcome equal) or
    L = reflect(K) + b (outcome reflected), when a body-level pipeline
    produced the verdict.  ``report`` carries the hypothesis checks,
    certificates and residuals that back the outcome.
    """

    outcome: str
    reason: str | None = None
    translation: np.ndarray | None = None
    classifications: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    tol: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.outcome in _SUCCESS_OUTCOMES

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "translation": None if self.translation is None
            else [float(x) for x in self.translation],
            "tol": float(self.tol),
            "classifications": [c.to_row() for c in self.classifications],
            "hypothesis_report": _jsonable(self.report),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def aggregate_labels(classifications, odd_sup: float, tol_abs: float):
    """Reduce per-sphere classifications to an outcome (pure decision logic).

    Returns (outcome, reason).  All fix-pole angle-0 labels mean the odd
    parts agree as they stand; all angle-pi labels mean they agree after the
    pole reflection.  Mixed angle labels are only consistent when the odd
    data vanishes; flip labels contradict the no-symmetry hypotheses and are
    surfaced, never resolved silently.
    """
    none_count = sum(1 for c in classifications if c.label == LABEL_NONE)
    if none_count:
        worst = max((c.witness.residual for c in classifications
                     if c.label == LABEL_NONE), default=float("nan"))
        return (OUTCOME_INCONCLUSIVE,
                f"no rotation registers at {none_count} sampled directions "
                f"(worst residual {worst:.3e})")
    if any(c.label == FLIP_POLE for c in classifications):
        return (OUTCOME_INCONCLUSIVE, "flip-type registrations present")
    has0 = has1 = False
    for c in classifications:
        if c.alpha == 0.0:
            has0 = True
        elif c.alpha == 1.0:
            has1 = True
        else:
            # a persistent off-{0, pi} angle is only consistent with
            # vanishing data on that sphere
            if max(c.f_sup, c.g_sup) > tol_abs:
                return (OUTCOME_INCONCLUSIVE,
                        f"rotation angle {c.alpha:.4f}*pi registers on a sphere "
                        "with non-vanishing data")
    if has0 and has1:
        if odd_sup <= tol_abs:
            return (OUTCOME_ZERO_ODD, None)
        return (OUTCOME_INCONCLUSIVE,
                "mixed rotation labels with non-vanishing odd part")
    if has1:
        return (OUTCOME_REFLECTED, None)
    return (OUTCOME_EQUAL, None)


def _probe_sups(f, g, pole, config: VerifyConfig):
    """(odd_sup, sup |f - g|, sup |f - g o R|) on the out-of-sample probes P,
    from one evaluation of each field at P and at R P, R the pole reflection."""
    rng = np.random.default_rng(config.seed + 0x0DD5)
    probes = random_directions(config.out_of_sample, rng)
    reflected = pole_reflection(pole).apply(probes)
    f_p, f_r = evaluate_field(f, probes), evaluate_field(f, reflected)
    g_p, g_r = evaluate_field(g, probes), evaluate_field(g, reflected)
    odd_sup = max(float(np.max(np.abs(0.5 * (f_p - f_r)))),
                  float(np.max(np.abs(0.5 * (g_p - g_r)))))
    return odd_sup, float(np.max(np.abs(f_p - g_p))), float(np.max(np.abs(f_p - g_r)))


@dataclass(frozen=True)
class _SphereChecks:
    """What one working sphere contributes to a decision; holds no grid."""

    sup: float
    even_direct_dev: float
    even_transform_dev: float
    congruence: Classification | None
    odd: Classification | None


def _sample_sphere(f, g, pole, w, config: VerifyConfig):
    grid = gauss_grid(make_frame(pole, w), n_t=config.n_t, n_azimuth=config.n_azimuth)
    return sample_on_sphere(f, grid), sample_on_sphere(g, grid), None


def _check_sphere(w, fg, gg, congruence, config: VerifyConfig, certify: bool,
                  odd_sup: float) -> _SphereChecks:
    """Every per-sphere check, read from one grid of f and one of g.

    With ``certify``, the full restrictions are registered first (unless
    ``congruence`` holds that classification) and the congruence hypothesis
    fails here when neither family registers.  The even parts are compared
    by ring sums (the Funk route) and pointwise; the pole reflection is the
    azimuth half-turn of the grid, so the parity split needs no new samples.
    The odd parts are registered unless ``odd_sup`` already vanishes at this
    sphere's data scale, which forces the ``both`` branch (the decision scale
    is at least this sphere's).
    """
    sup = max(fg.sup, gg.sup)
    if certify:
        if congruence is None:
            congruence = classify_direction(fg, gg, config.tol)
        if congruence.label == LABEL_NONE:
            raise CongruenceHypothesisFailed(w, congruence.witness.residual)
    fe, fo = fg.parity()
    ge, go = gg.parity()
    transform_dev = np.max(np.abs(circle_quadrature(fg.values)
                                  - circle_quadrature(gg.values)))
    odd = None
    if odd_sup > 0.1 * (config.tol * sup):
        odd = classify_direction(fo, go, config.tol)
    return _SphereChecks(sup=sup,
                         even_direct_dev=float(np.max(np.abs(fe.values - ge.values))),
                         even_transform_dev=float(transform_dev),
                         congruence=congruence, odd=odd)


def decide_functional_equation(f, g, pole, config: VerifyConfig | None = None, *,
                               w_dirs=None, certify_congruence: bool = False,
                               sampled: dict | None = None) -> Verdict:
    """Decide between f = g and f = g o reflect on S^3 from per-sphere rotations.

    Steps: (1) compare even parts (transform route and direct route); (2)
    pass to odd parts; when both odd parts vanish the two relations coincide
    and the outcome is ``both``; (3) classify every sampled working sphere
    through the pole by two-family registration; (4) aggregate labels; (5)
    certify the winning relation on an out-of-sample point set.

    The working spheres are those orthogonal to the rows of ``w_dirs``, by
    default ``config.w_samples`` quasi-uniform normals orthogonal to the
    pole.  f and g are sampled once per working sphere and once at the
    out-of-sample probes and their pole reflections; every check reads those
    samples.  ``certify_congruence`` also registers the full restrictions on
    each sphere, raising CongruenceHypothesisFailed for the first sphere in
    order where neither family registers; the worst residual is reported as
    ``congruence_residual``.  ``sampled`` maps sphere indices to triples
    (f grid, g grid, ``classify_direction`` of the two or None) computed on
    those spheres; a given classification is that sphere's congruence
    certificate.  Entries are consumed.
    """
    config = (config or VerifyConfig()).validate()
    pole = unit(pole)
    if w_dirs is None:
        w_dirs = directions_orthogonal_to(pole, config.w_samples)

    odd_sup, dev_eq, dev_re = _probe_sups(f, g, pole, config)
    sampled = {} if sampled is None else sampled

    def one(i, w):
        fg, gg, congruence = sampled.pop(i, None) or _sample_sphere(f, g, pole, w, config)
        return _check_sphere(w, fg, gg, congruence, config, certify_congruence, odd_sup)

    checks = [one(i, w) for i, w in enumerate(w_dirs)]

    scale = max(1e-300, *(c.sup for c in checks))
    tol_abs = config.tol * scale
    direct_dev = max(c.even_direct_dev for c in checks)
    transform_dev = max(c.even_transform_dev for c in checks)
    even_ok = direct_dev <= tol_abs and transform_dev <= 2.0 * np.pi * tol_abs

    report: dict = {
        "scale": scale,
        "even_transform_dev": transform_dev,
        "even_direct_dev": direct_dev,
    }
    if certify_congruence:
        report["congruence_residual"] = max(c.congruence.witness.residual
                                            for c in checks)
    if not even_ok:
        return Verdict(OUTCOME_INCONCLUSIVE,
                       reason=f"even parts differ (direct dev {direct_dev:.3e}, "
                              f"transform dev {transform_dev:.3e})",
                       report=report, tol=tol_abs)
    report["odd_sup"] = odd_sup

    if odd_sup <= 0.1 * tol_abs:
        report["certificate"] = {"equal_dev": dev_eq, "reflected_dev": dev_re}
        if dev_eq <= 5 * tol_abs and dev_re <= 5 * tol_abs:
            return Verdict(OUTCOME_BOTH, report=report, tol=tol_abs)
        return Verdict(OUTCOME_INCONCLUSIVE,
                       reason="odd parts vanish but a full-function certificate failed",
                       report=report, tol=tol_abs)

    classifications = [c.odd for c in checks]
    outcome, reason = aggregate_labels(classifications, odd_sup, tol_abs)

    if outcome == OUTCOME_INCONCLUSIVE and reason == "flip-type registrations present":
        # flips contradict the no-half-turn-symmetry hypotheses; report the
        # violated hypothesis with concrete witnesses instead of resolving
        flips = [c for c in classifications if c.label == FLIP_POLE][:3]
        witnesses = []
        for c in flips:
            frame = make_frame(pole, c.w)
            defect = pole_rotation_symmetry_defect(f, c.w, pole, np.pi)
            axis = find_equator_flip_symmetry(f, frame, config.tol)
            witnesses.append({"w": [float(x) for x in c.w],
                              "flip_axis": float(c.axis_azimuth),
                              "pole_half_turn_defect": defect,
                              "self_flip_axis": axis,
                              "residual": c.witness.residual})
        report["flip_witnesses"] = witnesses
        reason = ("flip-type registrations present; excluded in exact arithmetic "
                  "by the no-symmetry hypotheses, which the data violates")
        return Verdict(OUTCOME_INCONCLUSIVE, reason=reason,
                       classifications=classifications, report=report, tol=tol_abs)

    if outcome in (OUTCOME_EQUAL, OUTCOME_REFLECTED):
        dev = dev_eq if outcome == OUTCOME_EQUAL else dev_re
        report["certificate"] = {"relation": outcome, "out_of_sample_dev": dev}
        if dev > 5 * tol_abs:
            return Verdict(OUTCOME_INCONCLUSIVE,
                           reason=f"classified {outcome} but out-of-sample deviation "
                                  f"{dev:.3e} exceeds 5*tol",
                           classifications=classifications, report=report, tol=tol_abs)
    return Verdict(outcome, reason=reason, classifications=classifications,
                   report=report, tol=tol_abs)


# -- body-level pipelines -----------------------------------------------------


def _assert_pole_diameter(body: Body4, pole, tol: float, who: str):
    """Check the body has a diameter parallel to the pole.

    Returns (all diameters, width at the pole).
    """
    diams = find_diameters(body)
    width_at_pole = float(body.width(pole))
    if width_at_pole < diams.length - max(tol * diams.length, diams.tol * 10):
        raise DiameterHypothesisFailed(
            f"{who}: width at the pole ({width_at_pole:.12g}) is below the "
            f"maximal width ({diams.length:.12g})")
    return diams, width_at_pole


def _admissible_w_sample(pole, diams_k: DiameterSet, diams_l: DiameterSet,
                         config: VerifyConfig):
    """Working-sphere normals avoiding spheres that contain extra diameters.

    Returns (normals, fallback).  When ``DIAMETER_MARGIN`` rejects every
    sphere of the pool, the unfiltered pool is used and ``fallback`` is True.
    """
    pool = directions_orthogonal_to(pole, int(config.w_samples * 1.5) + 16)
    extra = [d for d in np.vstack([diams_k.directions, diams_l.directions])
             if abs(float(d @ pole)) < 1.0 - 1e-9]
    keep = []
    for w in pool:
        if all(abs(float(w @ d)) > DIAMETER_MARGIN for d in extra):
            keep.append(w)
        if len(keep) == config.w_samples:
            break
    if not keep:
        return np.asarray(pool[:config.w_samples]), True
    return np.asarray(keep), False


def verify_projection_theorem(K: Body4, L: Body4, pole,
                              config: VerifyConfig | None = None) -> Verdict:
    """Decide K = L + b or K = reflect(L) + b from 3D shadow congruence.

    Requires the pole to be a diameter direction of both bodies with equal
    lengths.  Both bodies are translated so those diameters are centered at
    the origin; the support restrictions are then registered on every
    admissible working sphere (certifying the congruence hypothesis) and the
    functional-equation decision runs on the centered support functions.
    """
    config = (config or VerifyConfig()).validate()
    pole = unit(pole)
    if K.kind != "convex" or L.kind != "convex":
        raise DiameterHypothesisFailed("projection congruence requires convex bodies")

    diams_k, width_k = _assert_pole_diameter(K, pole, config.tol, "K")
    diams_l, width_l = _assert_pole_diameter(L, pole, config.tol, "L")
    if abs(diams_k.length - diams_l.length) > config.tol * diams_k.length:
        raise DiameterHypothesisFailed(
            f"diameter lengths differ: {diams_k.length:.12g} vs {diams_l.length:.12g}")

    zk_lo, zk_hi = diameter_segment(K, pole)
    zl_lo, zl_hi = diameter_segment(L, pole)
    mid_k = 0.5 * (zk_lo + zk_hi)
    mid_l = 0.5 * (zl_lo + zl_hi)
    Kc = K.translate(-mid_k)
    Lc = L.translate(-mid_l)

    w_dirs, w_fallback = _admissible_w_sample(pole, diams_k, diams_l, config)
    verdict = decide_functional_equation(Kc.support, Lc.support, pole, config,
                                         w_dirs=w_dirs, certify_congruence=True)

    report = dict(verdict.report)
    report.update({
        "diameter_length": diams_k.length,
        "diameter_count_K": len(diams_k.directions),
        "diameter_count_L": len(diams_l.directions),
        "width_at_pole_K": width_k,
        "width_at_pole_L": width_l,
        "width_match_dev": abs(width_k - width_l),
        "w_sample_size": len(w_dirs),
        "w_sample_fallback": w_fallback,
    })

    translation = None
    if verdict.outcome in (OUTCOME_EQUAL, OUTCOME_BOTH):
        translation = mid_l - mid_k
    elif verdict.outcome == OUTCOME_REFLECTED:
        translation = mid_l - pole_reflection(pole).apply(mid_k)
    return replace(verdict, translation=translation, report=report)


def _choose_alignment(K: Body4, L: Body4, alignments, pole, probe_ws,
                      config: VerifyConfig):
    """The translate L + a that registers best against K on the probe spheres.

    Returns (residual, a, L + a, sampled), where ``sampled`` maps each probe
    index to its (K grid, L + a grid, classification) triple.  The probe
    spheres are the first working spheres, so the decision reuses them
    instead of sampling and registering again.  Ties keep the first alignment.
    """
    grids = [gauss_grid(make_frame(pole, w), n_t=config.n_t, n_azimuth=config.n_azimuth)
             for w in probe_ws]
    k_probes = [sample_on_sphere(K.radial, grid) for grid in grids]
    best = None
    for a in alignments:
        La = L.translate(a)
        if not La.contains_origin_interior():
            continue
        l_probes = [sample_on_sphere(La.radial, grid) for grid in grids]
        checks = [classify_direction(kg, lg, config.tol)
                  for kg, lg in zip(k_probes, l_probes)]
        worst = max(c.witness.residual for c in checks)
        if best is None or worst < best[0]:
            best = (worst, a, La, dict(enumerate(zip(k_probes, l_probes, checks))))
    if best is None:
        raise StarShapednessLost(
            "no diameter alignment keeps the origin interior; the mixed "
            "alignment case contradicts the congruence hypotheses")
    return best


def verify_section_theorem(K: Body4, L: Body4, pole,
                           config: VerifyConfig | None = None) -> Verdict:
    """Decide K = L + b or K = reflect(L) + b (b parallel to the pole) from
    3D slice congruence of star bodies.

    Requires K to have a diameter through the origin parallel to the pole;
    the matching property of L is verified rather than assumed.  The
    candidate translation aligning the diameters is chosen between the
    direct and the reversed alignment by which one actually registers, and
    star-shapedness of the translated body is checked before deciding.
    """
    config = (config or VerifyConfig()).validate()
    pole = unit(pole)

    diams_k, _ = _assert_pole_diameter(K, pole, config.tol, "K")
    diams_l, _ = _assert_pole_diameter(L, pole, config.tol, "L")

    for body, who in ((K, "K"), (L, "L")):
        if not body.contains_origin_interior():
            raise StarShapednessLost(f"{who} does not contain the origin interiorly")

    scale = diams_k.length

    # radial values at (+pole, -pole): the axis chord
    chord_k = [float(K.radial(pole)), float(K.radial(-pole))]
    chord_l = [float(L.radial(pole)), float(L.radial(-pole))]

    def axis_deviation(body, chord):
        # distance of the pole-parallel diameter from the pole axis: support
        # and radial values in the +-pole directions agree iff the support
        # chord passes through the origin
        return max(abs(float(body.support(pole)) - chord[0]),
                   abs(float(body.support(-pole)) - chord[1]))

    # hypothesis: the distinguished diameter of K contains the origin; the
    # matching property of L is a consequence of section congruence and is
    # verified (and reported) rather than assumed
    dev_k = axis_deviation(K, chord_k)
    if dev_k > config.tol * scale * 10:
        raise DiameterHypothesisFailed(
            "K: the diameter parallel to the pole does not pass through the "
            f"origin (axis deviation {dev_k:.3e})")
    dev_l = axis_deviation(L, chord_l)

    # candidate alignments: keep the diameter as-is, or reverse it
    a_direct = (chord_k[0] - chord_l[0]) * pole
    a_reverse = (chord_k[1] - chord_l[0]) * pole

    w_dirs, w_fallback = _admissible_w_sample(pole, diams_k, diams_l, config)
    align_res, a, La, sampled = _choose_alignment(K, L, (a_direct, a_reverse),
                                                  pole, w_dirs[:6], config)
    verdict = decide_functional_equation(K.radial, La.radial, pole, config,
                                         w_dirs=w_dirs, certify_congruence=True,
                                         sampled=sampled)

    report = dict(verdict.report)
    report.update({
        "diameter_length": diams_k.length,
        "alignment": [float(x) for x in a],
        "alignment_residual": align_res,
        "axis_deviation_K": dev_k,
        "axis_deviation_L": dev_l,
        "axis_chord_K": chord_k,
        "axis_chord_L": chord_l,
        "w_sample_size": len(w_dirs),
        "w_sample_fallback": w_fallback,
    })

    # K = La  =>  L = K - a;  K = reflect(La)  =>  L = reflect(K) - a
    # (a is parallel to the pole, so the reflection fixes it)
    translation = None
    if verdict.outcome in (OUTCOME_EQUAL, OUTCOME_BOTH, OUTCOME_REFLECTED):
        translation = -a
    return replace(verdict, translation=translation, report=report)
