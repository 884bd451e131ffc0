"""Rotation registration of scalar functions on a working 2-sphere.

Searches the two admissible families: rotations about the pole and
half-turns about equatorial axes (which reverse the pole).  Both are circular
shifts of the azimuth rings, the flips after mirroring the source in latitude
and azimuth, which on the ring spectra is a conjugation and a reversal of the
ring order.  By Parseval the squared-L2 objective over shifts is a
trigonometric polynomial in the angle whose coefficients are the ring-summed
cross-spectrum: one inverse FFT of it scores every integer shift, and the
winner is refined off-grid by a safeguarded Newton search on the closed-form
derivatives.  Residuals are reported in sup norm from one exact resampling
of the rings, matching the pointwise equality being certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .funk import GridFunction, sample_on_sphere
from .orthogonal import FIX_POLE, FLIP_POLE
from .sphere import SphereFrame, gauss_grid, make_frame

LABEL_NONE = "none"  # no family registers; the others are FIX_POLE and FLIP_POLE

SNAP_TOL = 1e-2  # radians: snap recovered pole angles to 0 or pi
DETECTOR_GRID = (24, 128)  # latitudes x azimuths of the symmetry detectors
NEWTON_XTOL = 1e-12  # radians: stop once a refinement step is this small
NEWTON_MAXITER = 64  # bisection alone shrinks the bracket below NEWTON_XTOL
RMS_SLACK = 1e-12  # rounding allowance of a closed-form objective, times |F|^2 + |G|^2


@dataclass(frozen=True)
class RotationWitness:
    """A candidate registering rotation with its sup-norm residual.

    ``parameter`` is the rotation angle about the pole (FIX_POLE), in
    [0, 2*pi), or the flip axis azimuth (FLIP_POLE), in [0, pi).
    ``coarse_parameter`` is the best integer-grid estimate before off-grid
    refinement.
    """

    kind: str
    parameter: float
    residual: float
    coarse_parameter: float


def _require_same_grid(f: GridFunction, g: GridFunction):
    gf, gg = f.grid, g.grid
    if gf is gg:
        return
    same = ((gf.n_t, gf.n_azimuth) == (gg.n_t, gg.n_azimuth)
            and np.allclose(gf.frame.basis, gg.frame.basis, atol=1e-14))
    if not same:
        raise GridMismatchError("grid functions do not share a grid")


def _shifted(spec: np.ndarray, angle: float, n: int) -> np.ndarray:
    """Length-n rings with rfft ``spec`` read at azimuth phi + ``angle``: exact
    at grid azimuths, the trigonometric interpolant between them."""
    k = np.arange(spec.shape[-1])
    return np.fft.irfft(spec * np.exp(1j * k * angle), n=n, axis=-1)


class _ShiftObjective:
    """Squared-L2 objective sum_t sum_j (F_a[t, j] - G[t, j])^2 in closed form.

    ``spec`` is the ring spectrum of the source F, which is f or its mirror
    image (both have f's sum of squares, ``GridFunction.sumsq``).  F_a is F
    shifted by the angle a through a phase shift of its spectrum, exact for
    data band-limited below the azimuth Nyquist frequency; like irfft, the
    shift keeps only the real part of the Nyquist bin.  By Parseval, with N = n/2,
    c = sum_t spec * conj(G spectrum) and P = sum_t spec[t, N]^2,

        obj(a) = |F|^2 + |G|^2 - (P/n) sin^2(N a)
                 - (2/n) [c_0 + c_N cos(N a) + 2 Re sum_{0<k<N} c_k e^{ika}],

    so every integer shift costs one length-n irfft of c and any angle, with
    two derivatives, O(n/2).  The sin^2 term vanishes at integer shifts.
    """

    def __init__(self, f: GridFunction, spec: np.ndarray, g: GridFunction):
        self.n = n = g.grid.n_azimuth
        self.half = half = n // 2
        self.spec = spec
        self.G = g.values
        c = np.sum(spec * np.conj(g.spectrum), axis=0)
        total = f.sumsq + g.sumsq
        self.curve = total - 2.0 * np.fft.irfft(c, n=n)
        self.k = np.arange(1, half, dtype=float)
        self.k2 = self.k * self.k
        self.c_mid = (4.0 / n) * c[1:half]
        self.const = total - (2.0 / n) * c[0].real
        self.c_nyq = (2.0 / n) * c[half].real
        self.p_nyq = float(np.sum(spec[:, half].real ** 2)) / n

    def taylor(self, angle: float):
        """(obj, obj', obj'') at ``angle``."""
        z = self.c_mid * np.exp(1j * self.k * angle)
        sh, ch = np.sin(self.half * angle), np.cos(self.half * angle)
        p, c, h = self.p_nyq, self.c_nyq, self.half
        value = self.const - p * sh * sh - c * ch - float(np.sum(z.real))
        d1 = h * (c * sh - 2.0 * p * sh * ch) + float(self.k @ z.imag)
        d2 = h * h * (c * ch - 2.0 * p * (ch * ch - sh * sh)) + float(self.k2 @ z.real)
        return value, d1, d2

    def __call__(self, angle: float) -> float:
        return self.taylor(angle)[0]

    def resample(self, angle: float) -> np.ndarray:
        return _shifted(self.spec, angle, self.n)

    def sup(self, angle: float) -> float:
        return float(np.max(np.abs(self.resample(angle) - self.G)))


def _mirrored_spectrum(f: GridFunction) -> np.ndarray:
    """Ring spectrum of f reindexed to (ring -t, azimuth -phi).

    Gauss rings are symmetric about the equator, so ring -t_i is ring
    n_t - 1 - i and the rings read in reverse; reversing a real ring's
    azimuths conjugates its rfft, so this needs no transform beyond f's own.
    """
    return np.conj(f.spectrum[::-1])


def _parabolic_step(curve: np.ndarray, s: int) -> float:
    n = len(curve)
    om, oo, op = curve[(s - 1) % n], curve[s], curve[(s + 1) % n]
    denom = om - 2.0 * oo + op
    if denom <= 1e-300:
        return 0.0
    return float(np.clip(0.5 * (om - op) / denom, -0.5, 0.5))


def _is_flat(curve: np.ndarray) -> bool:
    return float(curve.max() - curve.min()) <= 1e-12 * float(curve.max())


def _newton(objective: _ShiftObjective, a0: float) -> float:
    """Minimize the objective on a0 +- 2*pi/n by safeguarded Newton.

    The sign of obj' shrinks the bracket; a step that leaves it, or a
    non-positive curvature, is replaced by bisection.  The search stops at
    the first step, of either kind, no longer than NEWTON_XTOL.
    """
    span = 2.0 * np.pi / objective.n
    lo, hi = a0 - span, a0 + span
    a = a0
    for _ in range(NEWTON_MAXITER):
        _, d1, d2 = objective.taylor(a)
        if d1 > 0.0:
            hi = a
        else:
            lo = a
        nxt = a - d1 / d2 if d2 > 0.0 else np.inf
        # a converged step may round onto the bracket end it started from
        if not (lo < nxt < hi or abs(nxt - a) <= NEWTON_XTOL):
            nxt = 0.5 * (lo + hi)
        step, a = abs(nxt - a), nxt
        if step <= NEWTON_XTOL:
            break
    return a


def _refine(objective: _ShiftObjective, s0: int) -> float:
    """Parabolic sub-grid estimate followed by the Newton search."""
    n = objective.n
    a0 = 2.0 * np.pi * (s0 + _parabolic_step(objective.curve, s0)) / n
    a = _newton(objective, a0)
    return a if objective(a) <= objective(a0) else a0


def _to_beta(angle: float) -> float:
    """Flip axis azimuth in [0, pi) for a shift angle of the mirrored source."""
    return (-0.5 * angle) % np.pi


def _register(f: GridFunction, spectrum: np.ndarray, g: GridFunction):
    """Best circular shift of the source ring spectrum onto g.

    Returns (objective, s0, angle): the integer shift s0 scoring best and
    its refined angle, not reduced mod 2*pi.  Flat objectives (zonal data)
    tie-break to shift 0 and angle 0.
    """
    _require_same_grid(f, g)
    objective = _ShiftObjective(f, spectrum, g)
    if _is_flat(objective.curve):
        return objective, 0, 0.0
    s0 = int(np.argmin(objective.curve))
    return objective, s0, _refine(objective, s0)


def _family(kind: str, f: GridFunction, g: GridFunction):
    """(objective, angle, parameter, coarse) of the family ``kind``: its
    objective, the refined shift angle at which its residual is read, and
    its witness's parameter and coarse parameter."""
    if kind == FIX_POLE:
        objective, s0, angle = _register(f, f.spectrum, g)
        angle %= 2.0 * np.pi
        return objective, angle, angle, 2.0 * np.pi * s0 / objective.n
    objective, s0, angle = _register(f, _mirrored_spectrum(f), g)
    beta = _to_beta(angle)
    if beta > np.pi - 1e-12:
        beta = 0.0
    return objective, angle, beta, _to_beta(2.0 * np.pi * s0 / objective.n)


def _witness(kind: str, objective: _ShiftObjective, angle: float, parameter: float,
             coarse: float) -> RotationWitness:
    """The family's witness, its sup-norm residual from one resampling."""
    return RotationWitness(kind=kind, parameter=parameter, residual=objective.sup(angle),
                           coarse_parameter=coarse)


def register_pole_rotation(f: GridFunction, g: GridFunction) -> RotationWitness:
    """Best rotation about the pole with f(rot x) ~= g(x) on the grid.

    All integer azimuth shifts are scored from the ring-summed
    cross-spectrum; the best is refined by Newton on the closed-form
    objective.  Flat objectives (zonal data) tie-break to angle 0.
    """
    return _witness(FIX_POLE, *_family(FIX_POLE, f, g))


def register_pole_flip(f: GridFunction, g: GridFunction) -> RotationWitness:
    """Best equatorial half-turn with f(flip x) ~= g(x) on the grid.

    A half-turn about the axis at azimuth beta sends (ring t, azimuth phi) to
    (ring -t, azimuth 2*beta - phi), so after mirroring f in latitude and
    azimuth the search is again over circular shifts, with the shift angle
    equal to -2*beta.  Ring -t is the ring read in reverse order, since
    Gauss rings are symmetric about the equator.  The axis is reported in
    [0, pi) (an axis and its antipode are the same rotation).
    """
    return _witness(FLIP_POLE, *_family(FLIP_POLE, f, g))


@dataclass(frozen=True)
class Classification:
    """Per-direction outcome of the two-family registration.

    ``alpha`` (pole-rotation angle divided by pi, snapped to {0, 1} within
    SNAP_TOL radians) is set for fix-pole labels; ``axis_azimuth`` for flip
    labels.  ``f_sup``/``g_sup`` record the data scale on this sphere, used
    by callers to test whether an off-{0,1} angle comes with vanishing data.
    """

    w: np.ndarray
    label: str
    witness: RotationWitness | None
    tol: float
    alpha: float | None = None
    axis_azimuth: float | None = None
    note: str = ""
    f_sup: float = 0.0
    g_sup: float = 0.0

    def to_row(self) -> dict:
        return {
            "w": [float(x) for x in self.w],
            "label": self.label,
            "parameter": None if self.witness is None else float(self.witness.parameter),
            "alpha": None if self.alpha is None else float(self.alpha),
            "axis_azimuth": None if self.axis_azimuth is None else float(self.axis_azimuth),
            "residual": None if self.witness is None else float(self.witness.residual),
            "tol": float(self.tol),
            "note": self.note,
        }


def snap_alpha(angle: float) -> float:
    """Angle about the pole, in units of pi, snapped to 0 or 1 within SNAP_TOL rad."""
    a = angle % (2.0 * np.pi)
    if min(a, 2.0 * np.pi - a) <= SNAP_TOL:
        return 0.0
    if abs(a - np.pi) <= SNAP_TOL:
        return 1.0
    return a / np.pi


def classify_direction(fg: GridFunction, gg: GridFunction, tol: float) -> Classification:
    """Classify one sphere: does some admissible rotation carry f onto g?

    ``fg`` and ``gg`` are f and g sampled on one grid of the working sphere,
    whose normal is the classified direction.  ``tol`` is relative to the
    data sup on the sphere.  The family with the smaller residual wins (the
    pole rotation on a tie), and labels the sphere when that residual is
    within tolerance.  An accepted pole rotation whose angle does not snap
    to {0, 1} is noted, since consistent data then has to vanish on the
    sphere.

    Both objectives are refined, and the family with the smaller objective
    is resampled for its residual.  The other one's RMS, sqrt(obj / size)
    less a rounding allowance of RMS_SLACK (|F|^2 + |G|^2), is a lower bound
    on its residual: it is resampled only when that bound does not exceed
    the first residual, since otherwise it cannot win.
    """
    tol_abs = tol * max(fg.sup, gg.sup, 1e-300)
    families = []
    for kind in (FIX_POLE, FLIP_POLE):
        family = _family(kind, fg, gg)
        families.append((family[0](family[1]), kind, family))
    (_, kind, family), (obj, other_kind, other) = sorted(families, key=lambda x: x[0])
    best = _witness(kind, *family)
    floor = np.sqrt(max(obj - RMS_SLACK * (fg.sumsq + gg.sumsq), 0.0) / fg.values.size)
    if floor <= best.residual:
        rival = _witness(other_kind, *other)
        wit_rot, wit_flip = (best, rival) if kind == FIX_POLE else (rival, best)
        best = wit_rot if wit_rot.residual <= wit_flip.residual else wit_flip
    label = best.kind if best.residual <= tol_abs else LABEL_NONE
    alpha = snap_alpha(best.parameter) if label == FIX_POLE else None
    return Classification(
        w=fg.grid.frame.normal, label=label, witness=best, tol=tol_abs, alpha=alpha,
        axis_azimuth=best.parameter if label == FLIP_POLE else None,
        note="off-grid angle: expect vanishing data" if alpha not in (None, 0.0, 1.0) else "",
        f_sup=fg.sup, g_sup=gg.sup)


def pole_rotation_symmetry_defect(f, sphere_normal, pole, angle: float) -> float:
    """sup |f(rot x) - f(x)| on the DETECTOR_GRID of the sphere orthogonal to
    sphere_normal, rot turning it about ``pole`` by ``angle``: f is sampled once
    and rotated by shifting its ring spectra, exact at grid azimuths such as pi."""
    fg = sample_on_sphere(f, gauss_grid(make_frame(pole, sphere_normal), *DETECTOR_GRID))
    return float(np.max(np.abs(_shifted(fg.spectrum, angle, DETECTOR_GRID[1]) - fg.values)))


def find_equator_flip_symmetry(f, frame: SphereFrame, tol: float):
    """Axis azimuth of an equatorial half-turn symmetry of f, or None.

    Registers f against itself over the flip family (there is no trivial
    identity in this family).  Degenerate (zonal) data registers everywhere
    and tie-breaks to azimuth 0.
    """
    return _self_flip_axis(sample_on_sphere(f, gauss_grid(frame, *DETECTOR_GRID)), tol)


def _self_flip_axis(fg: GridFunction, tol: float):
    """Axis azimuth of the flip registering ``fg`` onto itself within
    ``tol`` relative to its sup, or None."""
    wit = register_pole_flip(fg, fg)
    return wit.parameter if wit.residual <= tol * max(fg.sup, 1e-300) else None
