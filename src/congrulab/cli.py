"""Command-line front end.

Subcommands: ``gen-body`` canonicalizes a body spec, ``verify`` runs the
projection/section congruence pipelines, ``symmetry`` reports rigid-motion
symmetries of 3D shadows, ``rate`` measures the inscribed-polytope
approximation rate.  Exit codes: 0 for a successful determination, 2 for an
inconclusive verdict (or a usage error), 3 for a hypothesis failure, 1 for
anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bodies import PolytopeShape, body_from_spec, body_to_spec
from .errors import (CongrulabError, CongruenceHypothesisFailed, ConfigInvalidError,
                     DegenerateBodyError, DiameterHypothesisFailed,
                     SpecParseError, StarShapednessLost)
from .polylab import (MIN_VERTICES, approximation_rate, detect_rigid_symmetries,
                      project_polytope, random_subspace_bases)
from .sphere import unit
from .verifier import VerifyConfig, verify_projection_theorem, verify_section_theorem

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INCONCLUSIVE = 2
EXIT_HYPOTHESIS = 3

_HYPOTHESIS_ERRORS = (DiameterHypothesisFailed, CongruenceHypothesisFailed,
                      StarShapednessLost, DegenerateBodyError)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_body(path: str, build=body_from_spec):
    """build(spec) of the JSON spec at path; a spec it cannot build is a SpecParseError."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    try:
        return build(spec)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SpecParseError(f"{path}: invalid body spec: {exc}") from exc


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _parse_numbers(text: str, kind=float):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise SpecParseError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_vector(text: str, length: int):
    vec = np.array(_parse_numbers(text))
    if len(vec) != length or not np.all(np.isfinite(vec)):
        raise SpecParseError(f"expected {length} comma-separated finite numbers, "
                             f"got {text!r}")
    return vec


def canonicalize_spec(spec: dict):
    """Fold the transform chain and normalize the spec dict.

    Duplicate polytope vertices, equal within 1e-12 times the largest
    |coordinate|, are dropped (with a warning count returned); folding a
    canonical spec reproduces it byte-identically.
    """
    body = body_from_spec(spec)
    warnings = []
    shape = body.shape
    if isinstance(shape, PolytopeShape):
        verts = shape.vertices
        keep, tol = [], 1e-12 * np.max(np.abs(verts))
        for v in verts:
            if not any(np.max(np.abs(v - np.asarray(k))) <= tol for k in keep):
                keep.append(v)
        if len(keep) != len(verts):
            warnings.append(f"dropped {len(verts) - len(keep)} duplicate vertices")
            shape = PolytopeShape(np.asarray(keep))
    return body_to_spec(replace(body, shape=shape)), warnings


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def classifications_to_csv(rows) -> str:
    """One CSV line per classified working sphere: its normal, label and the
    winning witness's parameter and residual (empty without a witness)."""
    out = ["w1,w2,w3,w4,label,parameter,residual"]
    for c in rows:
        par = "" if c.witness is None else _fmt(c.witness.parameter)
        res = "" if c.witness is None else _fmt(c.witness.residual)
        out.append(",".join(_fmt(x) for x in c.w) + f",{c.label},{par},{res}")
    return "\n".join(out) + "\n"


def cmd_gen_body(args) -> int:
    canonical, warnings = _load_body(args.spec, canonicalize_spec)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(_canonical_json(canonical), args.out)
    return EXIT_OK


def _config_from_args(args) -> VerifyConfig:
    return VerifyConfig(tol=args.tol, n_t=args.grid_t, n_azimuth=args.grid_az,
                        w_samples=args.w_samples, seed=args.seed)


def cmd_verify(args) -> int:
    K = _load_body(args.body_k)
    L = _load_body(args.body_l)
    zeta = _parse_vector(args.zeta, 4)
    if not np.any(zeta):
        raise SpecParseError("--zeta must be a nonzero vector")
    pole = unit(zeta)
    config = _config_from_args(args)
    run = (verify_projection_theorem if args.mode == "projections"
           else verify_section_theorem)
    verdict = run(K, L, pole, config)
    payload = verdict.to_json_dict()
    payload["grid"] = {"n_t": config.n_t, "n_azimuth": config.n_azimuth,
                       "w_samples": config.w_samples,
                       "circle_nodes": config.n_azimuth}
    if args.format == "csv":
        _emit(classifications_to_csv(verdict.classifications), args.out)
    else:
        _emit(_canonical_json(payload), args.out)
    return EXIT_OK if verdict.succeeded else EXIT_INCONCLUSIVE


def cmd_symmetry(args) -> int:
    body = _load_body(args.body)
    if not isinstance(body.shape, PolytopeShape):
        raise SpecParseError("symmetry reports need a polytope body")
    if args.subspace:
        basis = _parse_vector(args.subspace, 12).reshape(3, 4)
        svals = np.linalg.svd(basis, compute_uv=False)
        if svals[-1] <= 1e-10 * svals[0]:
            raise SpecParseError(f"--subspace rows are not independent: {args.subspace!r}")
        q, _ = np.linalg.qr(basis.T)
        bases = [q.T]
    else:
        if args.sample < 1:
            raise SpecParseError("--sample must be a positive integer")
        bases = random_subspace_bases(args.sample, seed=args.seed)
    rows = []
    clean = 0
    for basis in bases:
        Q = project_polytope(body, basis)
        syms = detect_rigid_symmetries(Q, args.tol)
        clean += not syms
        rows.append({"basis": [[float(x) for x in r] for r in basis],
                     "symmetries": [{"phi": [[float(x) for x in r] for r in s.phi],
                                     "shift": [float(x) for x in s.shift],
                                     "permutation": list(s.permutation)}
                                    for s in syms]})
    report = {"subspaces": rows,
              "summary": f"asymmetric on {clean}/{len(bases)} sampled subspaces"}
    _emit(_canonical_json(report), args.out)
    print(report["summary"], file=sys.stderr)
    return EXIT_OK


def cmd_rate(args) -> int:
    body = _load_body(args.body)
    v_list = _parse_numbers(args.v_list, int)
    if any(v < MIN_VERTICES for v in v_list):
        raise SpecParseError(f"vertex budgets must be at least {MIN_VERTICES}, "
                             f"got {args.v_list!r}")
    fit = approximation_rate(body, v_list, seed=args.seed)
    if args.format == "csv":
        lines = ["v,delta"]
        lines += [f"{v},{_fmt(d)}" for v, d in zip(fit.v_list, fit.deltas)]
        payload = "\n".join(lines) + "\n"
    else:
        payload = _canonical_json({"exponent": fit.exponent, "stderr": fit.stderr,
                                   "v": list(fit.v_list),
                                   "delta": [float(d) for d in fit.deltas]})
    _emit(payload, args.out)
    print(_canonical_json({"exponent": fit.exponent, "stderr": fit.stderr}),
          file=sys.stderr, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="congrulab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-body", help="canonicalize a body spec JSON")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_body)

    p = sub.add_parser("verify", help="run a congruence verification")
    p.add_argument("mode", choices=["projections", "sections"])
    p.add_argument("body_k")
    p.add_argument("body_l")
    p.add_argument("--zeta", required=True, help="pole direction, 4 numbers; write "
                   "--zeta=-0.26,... when the first is negative")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--grid-t", type=int, default=64)
    p.add_argument("--grid-az", type=int, default=256)
    p.add_argument("--w-samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("symmetry", help="rigid-motion symmetries of 3D shadows")
    p.add_argument("body")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subspace", help="12 numbers: three basis rows")
    group.add_argument("--sample", type=int, help="number of random subspaces")
    p.add_argument("--tol", type=float, default=1e-8, help="a length: the largest "
                   "vertex residual of a kept symmetry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("rate", help="inscribed-approximation rate experiment")
    p.add_argument("body")
    p.add_argument("--v-list", required=True, help="comma-separated vertex budgets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigInvalidError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except CongrulabError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return EXIT_HYPOTHESIS if isinstance(exc, _HYPOTHESIS_ERRORS) else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
