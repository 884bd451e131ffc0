"""Span tracing of congrulab from outside the program.

The tracer wraps public functions at module boundaries, patching each name
where a module imports it (``verifier.classify_direction``,
``registration.minimize_scalar``, ...), and methods on the class that owns
them (``Body4.support``).  Every wrapped call records one span: name, start,
end, parent span and one integer amount (points evaluated, solver function
evaluations, perturbation rounds, or 1 for an accepted classification).
Spans live in compact arrays and are written out once, at the end of the
run.  ``restore`` puts every original function back.

Self times come from the spans: a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

import numpy as np

from congrulab import bodies, funk, polylab, registration, sphere, verifier

_SHAPE_TAGS = {"PolytopeShape": "polytope", "EllipsoidShape": "ellipsoid",
               "BumpShape": "bump"}


def _shape_tag(body) -> str:
    name = type(body.shape).__name__
    return _SHAPE_TAGS.get(name, name.lower())


def _n_points(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _field_points(args, kwargs, result):
    return _n_points(args[1] if len(args) > 1 else kwargs["points"])


def _theta_points(args, kwargs, result):
    return _n_points(args[1] if len(args) > 1 else kwargs["theta"])


def _grid_points(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return int(grid.n_t * grid.n_azimuth)


def _accepted(args, kwargs, result):
    return int(result.label != registration.LABEL_NONE)


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _rounds(args, kwargs, result):
    return int(result[1].rounds)


def _support_name(args, kwargs):
    return "bodies.support." + _shape_tag(args[0])


def _radial_name(args, kwargs):
    return "bodies.radial." + _shape_tag(args[0])


# (owner, attribute, span name or name function, amount function)
TARGETS = [
    (funk, "evaluate_field", "sphere.evaluate_field", _field_points),
    (registration, "evaluate_field", "sphere.evaluate_field", _field_points),
    (verifier, "evaluate_field", "sphere.evaluate_field", _field_points),
    (registration, "gauss_grid", "sphere.gauss_grid", None),
    (verifier, "gauss_grid", "sphere.gauss_grid", None),
    (sphere, "gauss_latitude_nodes", "sphere.gauss_latitude_nodes", None),
    (verifier, "gauss_latitude_nodes", "sphere.gauss_latitude_nodes", None),
    (bodies.Body4, "support", _support_name, _theta_points),
    (bodies.Body4, "radial", _radial_name, _theta_points),
    (bodies.Body4, "support_point", "bodies.support_point", _theta_points),
    (verifier, "find_diameters", "bodies.find_diameters", None),
    (verifier, "even_parts_equal", "funk.even_parts_equal", None),
    (registration, "sample_on_sphere", "funk.sample_on_sphere", _grid_points),
    (verifier, "sample_on_sphere", "funk.sample_on_sphere", _grid_points),
    (verifier, "classify_direction", "registration.classify_direction", _accepted),
    (registration, "register_pole_rotation", "registration.register_pole_rotation", None),
    (registration, "register_pole_flip", "registration.register_pole_flip", None),
    (registration, "minimize_scalar", "registration.minimize_scalar", _nfev),
    (verifier, "verify_projection_theorem", "verifier.verify", None),
    (verifier, "verify_section_theorem", "verifier.verify", None),
    (verifier, "decide_functional_equation", "verifier.decide_functional_equation", None),
    (polylab, "approximation_rate", "polylab.approximation_rate", None),
    (polylab, "inscribe_polytope", "polylab.inscribe_polytope", None),
    (polylab, "hausdorff_distance", "polylab.hausdorff_distance", None),
    (polylab, "project_polytope", "polylab.project_polytope", None),
    (polylab, "detect_rigid_symmetries", "polylab.detect_rigid_symmetries", None),
    (polylab, "asymmetry_margin", "polylab.asymmetry_margin", None),
    (polylab, "perturb_to_asymmetric", "polylab.perturb_to_asymmetric", _rounds),
]


class Tracer:
    """Span recorder plus the patches that feed it.

    Wrappers record only while ``enabled`` is set, so inputs can be loaded
    and outputs checked between traced calls without adding spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack: list[int] = []
        self._patches: list = []
        self.enabled = False

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, name: str, fn, *args, amount=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.amount.append(0)
        self._stack.append(i)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1
        if amount is not None:
            self.amount[i] = amount(args, kwargs, result)
        return result

    def _wrap(self, fn, name, amount):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, fn, *args, amount=amount, **kwargs)

        return wrapper

    def install(self, targets=TARGETS):
        """Patch every target that exists; a target a later version of the
        program no longer has is skipped, and its counts then read 0."""
        for owner, attr, name, amount in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, amount))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), amount=np.asarray(self.amount))


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer counts and times over the spans with index in [lo, hi).

    Returns {name: (value, unit)}.  Counts are exact; ``*.s`` is total span
    time (children included), ``*.self_s`` the span time its direct children
    do not cover.
    """
    names = tracer.names
    nid = np.asarray(tracer.name_id)[lo:hi]
    parent = np.asarray(tracer.parent)[lo:hi]
    dur = np.asarray(tracer.end)[lo:hi] - np.asarray(tracer.start)[lo:hi]
    amount = np.asarray(tracer.amount)[lo:hi]
    local_parent = np.where(parent >= lo, parent - lo, -1)
    has_parent = local_parent >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, local_parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    def ids(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def parent_is(mask, name):
        out = np.zeros(len(nid), bool)
        out[has_parent] = ids(name)[local_parent[has_parent]]
        return mask & out

    out: dict = {}

    def put(name, value, unit):
        out[name] = (float(value) if unit != "count" else int(value), unit)

    def calls(span):
        put(f"{span}.calls", ids(span).sum(), "count")

    def total(span):
        put(f"{span}.s", dur[ids(span)].sum(), "s")

    def own(span):
        put(f"{span}.self_s", self_time[ids(span)].sum(), "s")

    def points(span, mask=None):
        put(f"{span}.points", amount[ids(span) if mask is None else mask].sum(), "count")

    # sphere: points requested by the pipelines (outermost evaluations only;
    # parity closures evaluate the underlying field again, one level down)
    ev = ids("sphere.evaluate_field")
    nested = np.zeros(len(nid), bool)
    for i in np.nonzero(has_parent)[0]:
        p = local_parent[i]
        nested[i] = ev[p] or nested[p]
    points("sphere.evaluate_field", mask=ev & ~nested)
    own("sphere.evaluate_field")
    calls("sphere.gauss_grid")
    calls("sphere.gauss_latitude_nodes")
    total("sphere.gauss_latitude_nodes")

    for span in ("bodies.support.polytope", "bodies.support.bump",
                 "bodies.support.ellipsoid", "bodies.radial.polytope"):
        points(span)
        total(span)
        n, s = out[f"{span}.points"][0], out[f"{span}.s"][0]
        put(f"{span}.mpts_per_s", n / s / 1e6 if s > 0 else 0.0, "Mpts/s")
    support_any = np.isin(nid, [names.index(n) for n in names
                                if n.startswith("bodies.support.")])
    put("bodies.support.s", dur[support_any].sum(), "s")
    for span in ("bodies.support_point", "bodies.find_diameters"):
        calls(span)
        total(span)

    calls("funk.even_parts_equal")
    points("funk.even_parts_equal", mask=parent_is(ev, "funk.even_parts_equal"))
    total("funk.even_parts_equal")
    calls("funk.sample_on_sphere")
    points("funk.sample_on_sphere")
    total("funk.sample_on_sphere")

    cd = ids("registration.classify_direction")
    calls("registration.classify_direction")
    total("registration.classify_direction")
    n_cd = int(cd.sum())
    put("registration.classify_direction.accept_ratio",
        amount[cd].sum() / n_cd if n_cd else 0.0, "ratio")
    put("registration.classify_direction.certify.s",
        dur[parent_is(cd, "verifier.verify")].sum(), "s")
    put("registration.classify_direction.decide.s",
        dur[parent_is(cd, "verifier.decide_functional_equation")].sum(), "s")
    for span in ("registration.register_pole_rotation", "registration.register_pole_flip",
                 "registration.minimize_scalar"):
        calls(span)
        total(span)
    put("registration.minimize_scalar.nfev",
        amount[ids("registration.minimize_scalar")].sum(), "count")

    own("verifier.verify")
    total("verifier.decide_functional_equation")
    own("verifier.decide_functional_equation")

    total("polylab.inscribe_polytope")
    for span in ("polylab.hausdorff_distance", "polylab.project_polytope",
                 "polylab.detect_rigid_symmetries", "polylab.asymmetry_margin"):
        calls(span)
        total(span)
    put("polylab.perturb_to_asymmetric.rounds",
        amount[ids("polylab.perturb_to_asymmetric")].sum(), "count")

    # self time of every traced layer, including those not named above
    for i, name in enumerate(names):
        put(f"{name}.self_s", self_time[nid == i].sum(), "s")
    return out


def merge_passes(per_pass: list) -> dict:
    """Counts from the first traced pass, times as the median over passes."""
    first = per_pass[0]
    merged = {}
    for key, (value, unit) in first.items():
        if unit in ("count", "ratio"):
            merged[key] = (value, unit)
        else:
            merged[key] = (statistics.median(p[key][0] for p in per_pass if key in p), unit)
    return merged


def counts_match(per_pass: list) -> bool:
    """True when every traced pass produced the same counts."""
    first = per_pass[0]
    return all(p.get(k) == v for p in per_pass[1:]
               for k, v in first.items() if v[1] == "count")
