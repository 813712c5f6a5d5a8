"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public functions of each nipr layer from outside the
program: every reference to a wrapped function held by a nipr module (and by
``nipr.cli.CLASSIFIERS``) is replaced for the duration of the traced pass and
restored afterwards.  Each wrapper records a span; a layer's self time is the
duration of its spans minus the part covered by child spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

CT_CLASSES = ("cpr", "csspr", "cwspr", "cni", "cssni", "cwsni")
DT_CLASSES = ("dpr", "dsspr", "dni", "dssni", "dwsni")


class Tracer:
    def __init__(self):
        self.stack = []                    # per active span: seconds covered by its children
        self.depth = Counter()             # active spans per layer
        self.active = Counter()            # active spans per span name
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.layer_s = defaultdict(float)  # layer -> seconds of its outermost spans
        self.calls = Counter()             # span name -> calls
        self.incl_s = defaultdict(float)   # span name -> seconds of its outermost spans
        self.counts = Counter()            # work counters recorded by hooks
        self.log = []                      # per-call records of classifiers and lemma checks
        self._restore = []

    def wrap(self, fn, layer, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            outer_layer = tracer.depth[layer] == 0
            outer_name = tracer.active[name] == 0
            tracer.depth[layer] += 1
            tracer.active[name] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            result, error = None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                dur = perf_counter() - t0
                tracer.stack.pop()
                tracer.depth[layer] -= 1
                tracer.active[name] -= 1
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[name] += 1
                if outer_layer:
                    tracer.layer_s[layer] += dur
                if outer_name:
                    tracer.incl_s[name] += dur
                if hook is not None:
                    hook(tracer, args, result, error, dur, outer_layer)

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap every layer function listed in ``_specs`` and redirect all references."""
        from nipr import cli

        replace = {}
        for owner, attr, layer, name, hook in _specs():
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, layer, name, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._restore.append((setattr, owner, attr, orig))
            else:
                replace[id(orig)] = (orig, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nipr" and not mod_name.startswith("nipr."):
                continue
            for key, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
                    self._restore.append((setattr, mod, key, val))
        table = cli.CLASSIFIERS
        for key, (domain, fn) in list(table.items()):
            hit = replace.get(id(fn))
            if hit is not None and hit[0] is fn:
                table[key] = (domain, hit[1])
                self._restore.append((table.__setitem__, key, (domain, fn)))

    def uninstall(self):
        for undo in reversed(self._restore):
            if undo[0] is setattr:
                setattr(undo[1], undo[2], undo[3])
            else:
                undo[0](undo[1], undo[2])
        self._restore.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, traced_wall, untraced_wall):
        """Every per-layer metric, by name, as {name: (value, unit)}."""
        out = {
            "cli.self_s": (self.self_s["cli"], "s"),
            "docio.self_s": (self.self_s["docio"], "s"),
        }
        for layer, classes in (("analysis_ct", CT_CLASSES), ("analysis_dt", DT_CLASSES)):
            for cls in classes:
                out[f"{layer}.{cls}.s"] = (self.incl_s[f"{layer}.{cls}"], "s")
                out[f"{layer}.{cls}.calls"] = (self.calls[f"{layer}.{cls}"], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        defect_builds = sum(self.calls[f"boundary.{fn}"]
                            for fn in ("defect_ct", "ppart_ct", "defect_dt", "ppart_dt"))
        out.update({
            "boundary.grid_psd_scan.calls": (self.calls["boundary.grid_psd_scan"], "count"),
            "boundary.grid_psd_scan.s": (self.incl_s["boundary.grid_psd_scan"], "s"),
            "boundary.grid_psd_scan.points": (self.counts["grid_points"], "count"),
            "boundary.boundary_det_zeros.calls": (self.calls["boundary.boundary_det_zeros"], "count"),
            "boundary.boundary_det_zeros.s": (self.incl_s["boundary.boundary_det_zeros"], "s"),
            "boundary.defect_builds": (defect_builds, "count"),
            "boundary.self_s": (self.self_s["boundary"], "s"),
            "ratmat.rm_eval_many.s": (self.incl_s["ratmat.rm_eval_many"], "s"),
            "ratmat.rm_eval_many.points": (self.counts["eval_points"], "count"),
            "ratmat.rm_poles.calls": (self.calls["ratmat.rm_poles"], "count"),
            "ratmat.rm_poles.s": (self.incl_s["ratmat.rm_poles"], "s"),
            "ratmat.rm_residues_at.calls": (self.calls["ratmat.rm_residues_at"], "count"),
            "ratmat.rm_infinity_expansion.calls": (self.calls["ratmat.rm_infinity_expansion"], "count"),
            "ratmat.self_s": (self.self_s["ratmat"], "s"),
            "poly.rational_ops": (self.calls["poly.rational_ops"], "count"),
            "poly.rational_ops.s": (self.incl_s["poly.rational_ops"], "s"),
            "poly.roots.calls": (self.calls["poly.roots"], "count"),
            "poly.roots.s": (self.incl_s["poly.roots"], "s"),
            "poly.self_s": (self.self_s["poly"], "s"),
            "series.s": (self.layer_s["series"], "s"),
            "realization.minimal_realization.calls": (self.calls["realization.minimal_realization"], "count"),
            "realization.minimal_realization.s": (self.incl_s["realization.minimal_realization"], "s"),
            "nilemma.feasible.s": (self.counts["lemma_feasible_s"], "s"),
            "nilemma.infeasible.s": (self.counts["lemma_infeasible_s"], "s"),
            "nilemma.iterations": (self.counts["lemma_iterations"], "count"),
            "nilemma.iterations.infeasible": (self.counts["lemma_iterations_infeasible"], "count"),
            "nilemma.dual_fallbacks": (self.calls["nilemma.dual_dni_lemma_check"], "count"),
            "nilemma.farkas_certified": (
                self.counts["farkas_certified"] / self.counts["infeasible_answers"]
                if self.counts["infeasible_answers"] else 0.0, "ratio"),
            "nilemma.self_s": (self.self_s["nilemma"], "s"),
            "trace.overhead": (traced_wall / untraced_wall, "ratio"),
            "trace.coverage": (
                sum(v for layer, v in self.self_s.items() if layer != "cli") / traced_wall, "ratio"),
        })
        return {name: (int(v) if unit == "count" else float(v), unit) for name, (v, unit) in out.items()}


# ---------------------------------------------------------------------------
# hooks: work counts recorded at the layer boundary


def _grid_points(tracer, args, result, error, dur, outer):
    if result is not None:
        tracer.counts["grid_points"] += int(result[2])


def _eval_points(tracer, args, result, error, dur, outer):
    tracer.counts["eval_points"] += int(np.size(args[1]))


def _classifier(cls):
    def hook(tracer, args, result, error, dur, outer):
        tracer.log.append({"kind": "classify", "class": cls, "s": dur, "error": error,
                           "verdict": None if result is None else bool(result.verdict)})
    return hook


def _farkas(tracer, args, result, error, dur, outer):
    if result:
        tracer.counts["farkas_pending"] = 1


def _lemma(form):
    def hook(tracer, args, result, error, dur, outer):
        if not outer:
            return
        pending = tracer.counts.pop("farkas_pending", 0)
        status = getattr(result, "status", None)
        iters = int(getattr(result, "iterations", 0) or 0)
        tracer.counts["lemma_iterations"] += iters
        if status == "Feasible":
            tracer.counts["lemma_feasible_s"] += dur
        elif status == "Infeasible":
            tracer.counts["lemma_infeasible_s"] += dur
            tracer.counts["lemma_iterations_infeasible"] += iters
            tracer.counts["infeasible_answers"] += 1
            tracer.counts["farkas_certified"] += pending
        tracer.log.append({"kind": "lemma", "form": form, "n": int(args[0].order), "s": dur,
                           "iterations": iters, "status": status, "error": error})
    return hook


def _specs():
    """(owner, attribute, layer, span name, hook) for every wrapped function."""
    from nipr import (analysis_ct, analysis_dt, boundary, cli, docio, nilemma, poly, ratmat,
                      realization, series)

    specs = [(cli, "main", "cli", "cli.main", None)]
    for fn in ("load_document", "parse_document", "document_of", "save_document", "jsonable"):
        specs.append((docio, fn, "docio", f"docio.{fn}", None))
    for mod, layer, classes, extra in (
        (analysis_ct, "analysis_ct", CT_CLASSES, ("scalar_ni_structure_checks",)),
        (analysis_dt, "analysis_dt", DT_CLASSES, ("circle_limits", "gain_order_check")),
    ):
        for cls in classes:
            specs.append((mod, f"classify_{cls}", layer, f"{layer}.{cls}", _classifier(cls)))
        for fn in extra:
            specs.append((mod, fn, layer, f"{layer}.{fn}", None))
    specs.append((boundary, "grid_psd_scan", "boundary", "boundary.grid_psd_scan", _grid_points))
    for fn in ("boundary_det_zeros", "defect_ct", "ppart_ct", "defect_dt", "ppart_dt",
               "ct_grid", "dt_grid_half", "dt_grid_full"):
        specs.append((boundary, fn, "boundary", f"boundary.{fn}", None))
    specs.append((ratmat, "rm_eval_many", "ratmat", "ratmat.rm_eval_many", _eval_points))
    for fn in ("rm_eval", "rm_poles", "rm_residues_at", "rm_infinity_expansion", "rm_mobius",
               "rm_cayley", "rm_is_symmetric", "rm_full_normal_rank"):
        specs.append((ratmat, fn, "ratmat", f"ratmat.{fn}", None))
    for meth in ("__add__", "__sub__", "__neg__", "__matmul__", "scalar_mul", "transpose"):
        specs.append((ratmat.RationalMatrix, meth, "ratmat", f"ratmat.RationalMatrix.{meth}", None))
    # __sub__, __radd__, __rmul__ and __rtruediv__ delegate to these three,
    # so each rational + - x / is counted exactly once
    for meth in ("__add__", "__mul__", "__truediv__"):
        specs.append((poly.RationalScalar, meth, "poly", "poly.rational_ops", None))
    for meth in ("substitute_mobius", "derivative", "taylor", "laurent_at_inf"):
        specs.append((poly.RationalScalar, meth, "poly", f"poly.RationalScalar.{meth}", None))
    for fn in ("roots", "cluster_roots"):
        specs.append((poly, fn, "poly", f"poly.{fn}", None))
    for fn in ("matrix_taylor", "matrix_laurent_inf", "decay_condition", "branch_orders"):
        specs.append((series, fn, "series", f"series.{fn}", None))
    for fn in ("minimal_realization", "tf_of", "is_minimal", "cayley_ss", "spectrum",
               "reachable_reduction", "observable_reduction"):
        specs.append((realization, fn, "realization", f"realization.{fn}", None))
    specs.append((nilemma, "dni_lemma_check", "nilemma", "nilemma.dni_lemma_check", _lemma("primal")))
    specs.append((nilemma, "dual_dni_lemma_check", "nilemma", "nilemma.dual_dni_lemma_check",
                  _lemma("dual")))
    specs.append((nilemma, "dpr_lemma_check", "nilemma", "nilemma.dpr_lemma_check", _lemma("pr")))
    # private, but it is where an Infeasible answer's separating functional is validated
    specs.append((nilemma, "_farkas_infeasible", "nilemma", "nilemma._farkas_infeasible", _farkas))
    return specs
