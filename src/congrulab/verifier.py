"""End-to-end congruence pipelines.

``decide_functional_equation`` settles whether two fields on S^3 that agree
up to an admissible rotation on every working sphere through a fixed pole
are globally equal, equal up to the pole reflection, or degenerate.  Both
body theorems run one pipeline: place K and L by translations (m_K, m_L),
decide the support (projections) or radial (sections) functions of the
placed bodies, and read the translation back as b = m_L - U m_K, U the
pole reflection or the identity.  Projections centre both pole diameters;
sections keep K and move L along the pole onto K's axis chord.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .bodies import Body4, diameter_segment, find_diameters
from .errors import (CongruenceHypothesisFailed, ConfigInvalidError,
                     DiameterHypothesisFailed, EmptyInputError, StarShapednessLost)
from .funk import sample_on_sphere
from .orthogonal import FLIP_POLE, pole_reflection
from .registration import (LABEL_NONE, Classification, _self_flip_axis,
                           classify_direction)
from .sphere import (directions_orthogonal_to, evaluate_field, gauss_grid, make_frame,
                     random_directions, unit)

OUTCOME_EQUAL = "equal"
OUTCOME_REFLECTED = "reflected"
OUTCOME_BOTH = "both"
OUTCOME_ZERO_ODD = "zero_odd"
OUTCOME_INCONCLUSIVE = "inconclusive"

_SUCCESS_OUTCOMES = (OUTCOME_EQUAL, OUTCOME_REFLECTED, OUTCOME_BOTH, OUTCOME_ZERO_ODD)


DIAMETER_MARGIN = 0.05  # least |w . d| to a diameter d off the pole, for a working w
ODD_VANISH = 0.1        # odd parts vanish: their sup is within this many tol_abs
CERTIFICATE_SLACK = 5   # the out-of-sample certificate holds within this many tol_abs
DIAMETER_SLACK = 10     # a pole-diameter check holds within this many diams.tol or tol*length
FLIP_REASON = "flip-type registrations present"


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances, grid sizes and sampling for the pipelines.

    ``tol`` is relative to the sup of the data being compared.  The grid is
    n_t Gauss latitudes by n_azimuth uniform azimuths; ``w_samples`` working
    spheres are classified per decision.  Every check reads that grid, so the
    even-part circles have n_azimuth nodes: ``circle_nodes`` is None or
    n_azimuth, and any other value is rejected.  ``out_of_sample`` probes,
    at least one, are drawn from ``seed`` + 0x0DD5, and the seed must be
    non-negative.  A config that fails these checks cannot be built:
    construction raises ConfigInvalidError.
    """

    tol: float = 1e-6
    n_t: int = 64
    n_azimuth: int = 256
    w_samples: int = 200
    circle_nodes: int | None = None
    seed: int = 0
    out_of_sample: int = 2048

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ConfigInvalidError("tol is relative to the data sup: it must lie in (0, 1)")
        if self.n_t < 2 or self.n_azimuth < 8 or self.n_azimuth % 2:
            raise ConfigInvalidError("grid must have n_t >= 2 and even n_azimuth >= 8")
        if self.w_samples < 1 or self.out_of_sample < 1:
            raise ConfigInvalidError("w_samples and out_of_sample must be positive")
        if self.seed < 0:
            raise ConfigInvalidError("seed must be a non-negative integer")
        if self.circle_nodes is not None and self.circle_nodes != self.n_azimuth:
            raise ConfigInvalidError(
                "circle_nodes must equal n_azimuth: the even parts are compared "
                "on the working-sphere grid")


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
        return _jsonable(obj.tolist())     # a 0-d array gives a scalar
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
        return (OUTCOME_INCONCLUSIVE, FLIP_REASON)
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
    congruence: Classification
    odd: Classification | None
    flip_witness: dict | None


def _check_sphere(f, g, pole, w, config: VerifyConfig, odd_sup: float) -> _SphereChecks:
    """Every per-sphere check, read from one grid of f and one of g.

    The sphere orthogonal to ``w`` gets its Gauss grid, and f and g are
    sampled on it once (``sample_on_sphere``).  The full restrictions are
    registered first: the congruence hypothesis fails here, with
    CongruenceHypothesisFailed naming ``w`` and the residual, when neither
    family registers.  The even parts are compared pointwise; the pole
    reflection is the azimuth half-turn of the grid, so the parity split
    needs no new samples.  The odd parts are registered unless ``odd_sup``
    already vanishes at this sphere's data scale, which forces the ``both``
    branch (the decision scale is at least this sphere's).  An odd flip
    label gets a witness from f's grid: the pole half-turn moves f by twice
    its odd part, and f self-flips.
    """
    grid = gauss_grid(make_frame(pole, w), n_t=config.n_t, n_azimuth=config.n_azimuth)
    fg = sample_on_sphere(f, grid)
    gg = sample_on_sphere(g, grid)
    sup = max(fg.sup, gg.sup)
    congruence = classify_direction(fg, gg, config.tol)
    if congruence.label == LABEL_NONE:
        raise CongruenceHypothesisFailed(w, congruence.witness.residual)
    fe, fo = fg.parity()
    ge, go = gg.parity()
    odd = witness = None
    if odd_sup > ODD_VANISH * (config.tol * sup):
        odd = classify_direction(fo, go, config.tol)
    if odd is not None and odd.label == FLIP_POLE:
        witness = {"w": [float(x) for x in odd.w], "flip_axis": float(odd.axis_azimuth),
                   "pole_half_turn_defect": 2.0 * fo.sup,
                   "self_flip_axis": _self_flip_axis(fg, config.tol),
                   "residual": odd.witness.residual}
    return _SphereChecks(sup=sup,
                         even_direct_dev=float(np.max(np.abs(fe.values - ge.values))),
                         congruence=congruence, odd=odd, flip_witness=witness)


def decide_functional_equation(f, g, pole, config: VerifyConfig | None = None, *,
                               w_dirs=None) -> Verdict:
    """Decide between f = g and f = g o reflect on S^3 from per-sphere rotations.

    Steps: (1) on every sampled working sphere through the pole, in order,
    certify the congruence hypothesis by two-family registration of the
    full restrictions, raising CongruenceHypothesisFailed at the first
    sphere where neither family registers (the body pipeline reads that to
    move on to its next placement), and report the worst residual as
    ``congruence_residual``; (2) compare even parts pointwise; (3) pass to
    odd parts; when both vanish the two relations coincide and the outcome
    is ``both``; else classify the odd parts on every sphere; (4) aggregate
    labels; (5) certify the winning relation on an out-of-sample point set.

    The working spheres are those orthogonal to the rows of ``w_dirs``, by
    default ``config.w_samples`` quasi-uniform normals orthogonal to the
    pole.  f and g are sampled once per working sphere and once at the
    out-of-sample probes and their pole reflections; every check reads those
    samples, the ``flip_witnesses`` of the first three flip spheres too.
    An empty ``w_dirs`` raises EmptyInputError.
    """
    config = config or VerifyConfig()
    pole = unit(pole)
    if w_dirs is None:
        w_dirs = directions_orthogonal_to(pole, config.w_samples)
    if not len(w_dirs):
        raise EmptyInputError("w_dirs holds no working-sphere normal")

    odd_sup, dev_eq, dev_re = _probe_sups(f, g, pole, config)
    checks = [_check_sphere(f, g, pole, w, config, odd_sup) for w in w_dirs]

    scale = max(1e-300, *(c.sup for c in checks))
    tol_abs = config.tol * scale
    direct_dev = max(c.even_direct_dev for c in checks)

    report: dict = {
        "scale": scale,
        "even_direct_dev": direct_dev,
        "congruence_residual": max(c.congruence.witness.residual for c in checks),
    }
    if direct_dev > tol_abs:
        return Verdict(OUTCOME_INCONCLUSIVE,
                       reason=f"even parts differ (direct dev {direct_dev:.3e})",
                       report=report, tol=tol_abs)
    report["odd_sup"] = odd_sup

    if odd_sup <= ODD_VANISH * tol_abs:
        report["certificate"] = {"equal_dev": dev_eq, "reflected_dev": dev_re}
        if dev_eq <= CERTIFICATE_SLACK * tol_abs and dev_re <= CERTIFICATE_SLACK * tol_abs:
            return Verdict(OUTCOME_BOTH, report=report, tol=tol_abs)
        return Verdict(OUTCOME_INCONCLUSIVE,
                       reason="odd parts vanish but a full-function certificate failed",
                       report=report, tol=tol_abs)

    classifications = [c.odd for c in checks]
    outcome, reason = aggregate_labels(classifications, odd_sup, tol_abs)

    if outcome == OUTCOME_INCONCLUSIVE and reason == FLIP_REASON:
        # flips contradict the no-half-turn-symmetry hypotheses; report the
        # violated hypothesis with concrete witnesses instead of resolving
        report["flip_witnesses"] = [c.flip_witness for c in checks if c.flip_witness][:3]
        reason = (f"{FLIP_REASON}; excluded in exact arithmetic by the "
                  "no-symmetry hypotheses, which the data violates")
        return Verdict(OUTCOME_INCONCLUSIVE, reason=reason,
                       classifications=classifications, report=report, tol=tol_abs)

    if outcome in (OUTCOME_EQUAL, OUTCOME_REFLECTED):
        dev = dev_eq if outcome == OUTCOME_EQUAL else dev_re
        report["certificate"] = {"relation": outcome, "out_of_sample_dev": dev}
        if dev > CERTIFICATE_SLACK * tol_abs:
            return Verdict(OUTCOME_INCONCLUSIVE,
                           reason=f"classified {outcome} but out-of-sample deviation "
                                  f"{dev:.3e} exceeds {CERTIFICATE_SLACK}*tol",
                           classifications=classifications, report=report, tol=tol_abs)
    return Verdict(outcome, reason=reason, classifications=classifications,
                   report=report, tol=tol_abs)


# -- body-level pipelines -----------------------------------------------------


def _assert_pole_diameters(K: Body4, L: Body4, pole, tol: float):
    """Check both bodies have a diameter parallel to the pole, of one length.

    Each body's support is read once at (pole, -pole), and the width at the
    pole is the sum of that pair.  Returns ((diameters of K, of L), (support
    pair of K, of L)).
    """
    axis = np.stack([pole, -pole])
    found = []
    for body, who in ((K, "K"), (L, "L")):
        diams = find_diameters(body)
        h = body.support(axis)
        width = float(h[0] + h[1])
        if width < diams.length - max(tol * diams.length, diams.tol * DIAMETER_SLACK):
            raise DiameterHypothesisFailed(
                f"{who}: width at the pole ({width:.12g}) is below the "
                f"maximal width ({diams.length:.12g})")
        found.append((diams, h))
    (diams_k, h_k), (diams_l, h_l) = found
    if abs(diams_k.length - diams_l.length) > tol * diams_k.length:
        raise DiameterHypothesisFailed(
            f"diameter lengths differ: {diams_k.length:.12g} vs {diams_l.length:.12g}")
    return (diams_k, diams_l), (h_k, h_l)


def _decide_placed(K: Body4, L: Body4, pole, field_of, diams, placements,
                   config: VerifyConfig) -> Verdict:
    """Decide field_of(K - m_K) against field_of(L - m_L) for each placement
    in turn.

    ``placements`` is an ordered list of (m_K, m_L, report) with m_K None
    when K stays where it is.  The first placement whose congruence
    certificate holds gives the verdict; when every one fails, the failure
    with the smallest residual is raised.  The verdict's report gains the
    placement's report and the diameter and working-sphere keys, and its
    translation is b = m_L - U m_K (U the pole reflection for ``reflected``,
    else the identity; b = m_L when m_K is None).

    The working spheres avoid those that contain a diameter off the pole;
    when ``DIAMETER_MARGIN`` rejects every sphere of the pool, the
    unfiltered pool is used and ``w_sample_fallback`` is reported True.
    """
    diams_k, diams_l = diams
    pool = directions_orthogonal_to(pole, int(config.w_samples * 1.5) + 16)
    extra = np.vstack([diams_k.directions, diams_l.directions])
    extra = extra[np.abs(extra @ pole) < 1.0 - 1e-9]
    clear = np.all(np.abs(pool @ extra.T) > DIAMETER_MARGIN, axis=1)
    w_fallback = not clear.any()
    w_dirs = (pool if w_fallback else pool[clear])[:config.w_samples]
    failures = []
    for m_k, m_l, placed in placements:
        Kp = K if m_k is None else K.translate(-m_k)
        try:
            verdict = decide_functional_equation(field_of(Kp), field_of(L.translate(-m_l)),
                                                 pole, config, w_dirs=w_dirs)
            break
        except CongruenceHypothesisFailed as exc:
            failures.append(exc)
    else:
        raise min(failures, key=lambda exc: exc.residual)

    report = {**verdict.report, "diameter_length": diams_k.length, **placed,
              "w_sample_size": len(w_dirs), "w_sample_fallback": w_fallback}
    translation = None
    if verdict.outcome in (OUTCOME_EQUAL, OUTCOME_BOTH, OUTCOME_REFLECTED):
        translation = m_l
        if m_k is not None:
            reflected = verdict.outcome == OUTCOME_REFLECTED
            translation = m_l - (pole_reflection(pole).apply(m_k) if reflected else m_k)
    return replace(verdict, translation=translation, report=report)


def verify_projection_theorem(K: Body4, L: Body4, pole,
                              config: VerifyConfig | None = None) -> Verdict:
    """Decide L = K + b or L = reflect(K) + b from 3D shadow congruence.

    Requires the pole to be a diameter direction of both bodies with equal
    lengths.  The one placement centres both diameters at the origin, and
    the support functions are decided there.
    """
    config = config or VerifyConfig()
    pole = unit(pole)
    if K.kind != "convex" or L.kind != "convex":
        raise DiameterHypothesisFailed("projection congruence requires convex bodies")

    diams, (h_k, h_l) = _assert_pole_diameters(K, L, pole, config.tol)
    mid_k, mid_l = (0.5 * np.add(*diameter_segment(body, pole)) for body in (K, L))
    width_k, width_l = float(h_k[0] + h_k[1]), float(h_l[0] + h_l[1])
    placed = {
        "diameter_count_K": len(diams[0].directions),
        "diameter_count_L": len(diams[1].directions),
        "width_at_pole_K": width_k,
        "width_at_pole_L": width_l,
        "width_match_dev": abs(width_k - width_l),
    }
    return _decide_placed(K, L, pole, attrgetter("support"), diams,
                          [(mid_k, mid_l, placed)], config)


def verify_section_theorem(K: Body4, L: Body4, pole,
                           config: VerifyConfig | None = None) -> Verdict:
    """Decide L = K + b or L = reflect(K) + b (b parallel to the pole) from
    3D slice congruence of star bodies.

    Requires both bodies to have diameters parallel to the pole, of equal
    lengths (congruent sections force that), and K's to pass through the
    origin; the matching property of L is verified rather than assumed.  K
    stays where it is, and each placement translates L by an alignment a
    along the pole that lays its axis chord on K's, either as it stands
    (direct) or reversed; a symmetric axis chord of K makes these one
    translate.  Only translates that keep the origin interior are placed,
    and StarShapednessLost is raised when none does.
    """
    config = config or VerifyConfig()
    pole = unit(pole)

    diams, (h_k, h_l) = _assert_pole_diameters(K, L, pole, config.tol)

    for body, who in ((K, "K"), (L, "L")):
        if not body.contains_origin_interior():
            raise StarShapednessLost(f"{who} does not contain the origin interiorly")

    # radial values at (+pole, -pole) are the axis chord; the support values
    # there agree with them iff the pole-parallel diameter passes through the
    # origin, so their gap is its distance from the pole axis
    axis = np.stack([pole, -pole])
    chord_k, chord_l = K.radial(axis), L.radial(axis)

    # hypothesis: the distinguished diameter of K contains the origin; the
    # matching property of L is a consequence of section congruence and is
    # verified (and reported) rather than assumed
    dev_k = float(np.max(np.abs(h_k - chord_k)))
    if dev_k > config.tol * diams[0].length * DIAMETER_SLACK:
        raise DiameterHypothesisFailed(
            "K: the diameter parallel to the pole does not pass through the "
            f"origin (axis deviation {dev_k:.3e})")
    axis_report = {"axis_deviation_K": dev_k,
                   "axis_deviation_L": float(np.max(np.abs(h_l - chord_l))),
                   "axis_chord_K": chord_k, "axis_chord_L": chord_l}

    # candidate alignments: keep the diameter as-is, or reverse it; a
    # symmetric axis chord makes them one translate, which is decided once
    a_direct = (chord_k[0] - chord_l[0]) * pole
    a_reverse = (chord_k[1] - chord_l[0]) * pole
    alignments = [a_direct] if np.array_equal(a_direct, a_reverse) else [a_direct, a_reverse]
    placements = [(None, -a, {"alignment": [float(x) for x in a], **axis_report})
                  for a in alignments if L.translate(a).contains_origin_interior()]
    if not placements:
        raise StarShapednessLost(
            "no diameter alignment keeps the origin interior; the mixed "
            "alignment case contradicts the congruence hypotheses")
    return _decide_placed(K, L, pole, attrgetter("radial"), diams, placements, config)
