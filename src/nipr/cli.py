"""Command-line frontend for classification, sweeps, transforms, and lemmas.

Every JSON it writes goes through ``docio.json_text``, bytewise ``json.dumps(..., indent=2, default=jsonable)``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import analysis_ct, analysis_dt
from .analysis import CLASSES, analysis_of
from .boundary import herm
from .config import DEFAULT
from .docio import document_of, json_text, jsonable, load_document, parse_document, save_document
from .errors import NiprError
from .interconnect import PartitionedSystem, internal_stability, ni_stability_test, redheffer_star
from .nilemma import FEASIBLE, dni_lemma_check, dpr_lemma_check, dual_dni_lemma_check
from .ratmat import rm_cayley
from .realization import StateSpace, minimal_realization, tf_of
from .transforms import (
    csspr_to_cssni,
    cssni_to_csspr,
    ct_ni_to_pr,
    ct_pr_to_ni,
    dt_ni_to_pr,
    dt_pr_to_ni,
)

# class id -> (domain, the classify_* function of analysis_ct or analysis_dt)
CLASSIFIERS = {c: (d, getattr(mod, f"classify_{c}")) for d, mod in (("ct", analysis_ct), ("dt", analysis_dt))
               for c in CLASSES if c[0] == d[0]}


def _config_from_args(args):
    """DEFAULT with the overrides of the flags the subcommand takes (``_add_verdict_flags``, sweep's --grid)."""
    overrides = {}
    if getattr(args, "tol", None) is not None:
        overrides["psd_rel"] = args.tol
    if getattr(args, "grid", None) is not None:
        overrides["grid_points_ct"] = overrides["grid_points_dt"] = args.grid
    if getattr(args, "allow_asymmetric", False):
        overrides["require_symmetry"] = False
    return DEFAULT.with_overrides(**overrides) if overrides else DEFAULT


def _classifier(name, domain):
    """The classify_* function of the class name, which must be a class of the domain."""
    need, fn = CLASSIFIERS[name]
    if need != domain:
        raise NiprError(f"classifier {name} needs a {need} system, document is {domain}")
    return fn


def _rational(obj):
    return tf_of(obj) if isinstance(obj, StateSpace) else obj


def _state_space(obj, cfg):
    return obj if isinstance(obj, StateSpace) else minimal_realization(obj, cfg)


def _load_rational(path):
    return _rational(parse_document(load_document(path)))


def _emit(payload, out=None):
    """Write payload as indented JSON to out (standard output by default), by ``docio.json_text``."""
    (out or sys.stdout).write(json_text(payload) + "\n")


def _report_dict(rep):
    return {
        "class": rep.class_id,
        "verdict": rep.verdict,
        "conditions": [
            {"id": c.cid, "passed": c.passed, "witness": c.witness} for c in rep.conditions
        ],
        "config": rep.config,
    }


def _print_report(rep, out):
    mark = "PASS" if rep.verdict else "FAIL"
    print(f"{rep.class_id}: {mark}", file=out)
    for c in rep.conditions:
        flag = "ok  " if c.passed else "FAIL"
        wit = ""
        if not c.passed and c.witness:
            wit = "  " + json.dumps(jsonable(c.witness), default=str)
        print(f"  [{flag}] {c.cid}{wit}", file=out)


def cmd_classify(args):
    cfg = _config_from_args(args)
    R = _load_rational(args.file)
    names = ([c for c, (d, _) in CLASSIFIERS.items() if d == R.domain] if args.class_name == "all"
             else [args.class_name])
    reports = [_classifier(name, R.domain)(R, cfg) for name in names]
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.json:
            _emit([_report_dict(r) for r in reports], out)
        else:
            for r in reports:
                _print_report(r, out)
    finally:
        if args.out:
            out.close()
    return 0 if all(r.verdict for r in reports) else 1


def cmd_sweep(args):
    cfg = _config_from_args(args)
    R = _load_rational(args.file)
    mode = args.mode
    a = analysis_of(R, cfg)
    dom = a.domain
    params = dom.grid[mode](cfg)  # the sweep grid, w = 0 included in CT PR mode
    vals, ok = a.form_at(mode, params)  # as the sign samples read the form
    params = params[ok]
    lam = np.linalg.eigvalsh(herm(vals[ok]))
    cols = [params, lam[:, 0], lam[:, -1]]
    if mode == "ni":  # slope normalization; the NI grids exclude w = 0 and theta = 0, pi
        cols.append(lam[:, 0] / (params if R.domain == "ct" else np.sin(params)))
    rows = np.column_stack(cols)
    header = [dom.param, "min_eig", "max_eig"] + (["min_eig_scaled"] if mode == "ni" else [])
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_transform(args):
    cfg = _config_from_args(args)
    doc = load_document(args.file)
    R = _rational(parse_document(doc))
    m = R.size
    name = args.map_name
    eps = None
    if name in ("prni", "ct_ni_to_pr"):
        out_sys = ct_ni_to_pr(R, cfg)
    elif name in ("prni-inverse", "ct_pr_to_ni"):
        out_sys = ct_pr_to_ni(R, np.zeros((m, m)))
    elif name == "csspr_to_cssni":
        out_sys, eps = csspr_to_cssni(R, np.zeros((m, m)), cfg)
    elif name == "cssni_to_csspr":
        out_sys, eps = cssni_to_csspr(R, cfg)
    elif name in ("lem3", "dt_ni_to_pr"):
        out_sys = dt_ni_to_pr(R, cfg)
    elif name in ("lem3-inverse", "dt_pr_to_ni"):
        out_sys = dt_pr_to_ni(R, np.zeros((m, m)))
    elif name == "cayley":
        out_sys = rm_cayley(R)
    else:
        raise NiprError(f"unknown transform {name!r}")
    meta = {"transform": name, "source": doc.get("name", "system")}
    if eps is not None:
        meta["epsilon"] = eps
    out_doc = document_of(out_sys, name=f"{doc.get('name', 'system')}.{name}", meta=meta)
    if args.out:
        save_document(out_doc, args.out)
    else:
        _emit(out_doc)
    return 0


def cmd_lemma(args):
    cfg = _config_from_args(args)
    obj = _state_space(parse_document(load_document(args.file)), cfg)
    if args.form == "pr":
        cert = dpr_lemma_check(obj, cfg)
    elif args.form == "dual":
        cert = dual_dni_lemma_check(obj, cfg)
    else:
        cert = dni_lemma_check(obj, cfg)
    _emit({
        "status": cert.status,
        "X": cert.X,
        "residual_affine": cert.residual_affine,
        "lambda_min_X": cert.lambda_min_X,
        "lambda_min_lyap": cert.lambda_min_lyap,
        "iterations": cert.iterations,
        "extras": cert.extras,
        "config": cfg.as_dict(),
    })
    return 0 if cert.status == FEASIBLE else 1


def cmd_interconnect(args):
    cfg = _config_from_args(args)
    P = parse_document(load_document(args.fileP))
    Q = parse_document(load_document(args.fileQ))
    if args.mode == "ni-test":
        rep = ni_stability_test(_rational(P), _rational(Q), cfg)
        _emit(rep)
        return 0 if rep["verdict"] else 1
    res = internal_stability(_state_space(P, cfg), _state_space(Q, cfg), cfg)
    _emit({
        "internally_stable": res.internally_stable,
        "closed_loop_spectrum": res.closed_loop_spectrum,
    })
    return 0 if res.internally_stable else 1


def cmd_star(args):
    cfg = _config_from_args(args)
    S1 = _state_space(parse_document(load_document(args.file1)), cfg)
    S2 = _state_space(parse_document(load_document(args.file2)), cfg)
    classify = _classifier(args.class_name, S1.domain) if args.class_name else None
    res = redheffer_star(PartitionedSystem(S1, args.a, args.b), PartitionedSystem(S2, args.a, args.b), cfg)
    star_doc = document_of(res.system, name="star", meta={"a": args.a, "b": args.b})
    verdicts = {args.class_name: classify(tf_of(res.system), cfg).verdict} if classify else {}
    if args.out:
        save_document(star_doc, args.out)
    _emit({
        "internally_stable": res.internally_stable,
        "closed_loop_spectrum": res.closed_loop_spectrum,
        "verdicts": verdicts,
    })
    return 0


def _add_verdict_flags(p):
    """The flags of the subcommands that classify: the Config fields psd_rel and require_symmetry."""
    p.add_argument("--tol", type=float, default=None, help="semidefinite tolerance override")
    p.add_argument("--allow-asymmetric", action="store_true", help="skip the symmetry requirement")


@functools.cache  # argparse parses without changing the parser, so one serves every call of main
def build_parser():
    ap = argparse.ArgumentParser(prog="nipr", description="positive-real / negative-imaginary analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run classifiers on a system document")
    p.add_argument("file")
    p.add_argument("--class", dest="class_name", default="all",
                   choices=sorted(CLASSIFIERS) + ["all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    _add_verdict_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="export boundary eigenvalue data as CSV")
    p.add_argument("file")
    p.add_argument("--mode", choices=["pr", "ni"], default="ni")
    p.add_argument("--out", default=None)
    p.add_argument("--grid", type=int, default=None, help="grid point count override")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("transform", help="apply a structural map")
    p.add_argument("file")
    p.add_argument("--map", dest="map_name", required=True)
    p.add_argument("--out", default=None)
    _add_verdict_flags(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("lemma", help="state-space feasibility certificates")
    p.add_argument("file")
    p.add_argument("--form", choices=["primal", "dual", "pr"], default="primal")
    p.set_defaults(fn=cmd_lemma)

    p = sub.add_parser("interconnect", help="positive feedback analysis")
    p.add_argument("fileP")
    p.add_argument("fileQ")
    p.add_argument("--mode", choices=["feedback", "ni-test"], default="feedback")
    _add_verdict_flags(p)
    p.set_defaults(fn=cmd_interconnect)

    p = sub.add_parser("star", help="Redheffer star product")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--class", dest="class_name", default=None, choices=sorted(CLASSIFIERS))
    p.add_argument("--out", default=None)
    _add_verdict_flags(p)
    p.set_defaults(fn=cmd_star)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NiprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
