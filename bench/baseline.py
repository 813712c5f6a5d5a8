"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/baseline.py

Run from the repository root.  For every workload it makes two sets of RUNS
untraced runs of BENCHMARK.json's run_seconds, one per seed (1..RUNS, then
RUNS+1..2*RUNS).  The first set is the baseline: each end-to-end metric's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them) with the raw measured
figures of every run.  The second set records its spreads, the change of each
median against the first set and, like the first, its summed ``attempted`` and
``failed``.  Then two traced runs with seed 1 give the per-layer metrics,
whose counts must repeat exactly.  Each run is a child process that is waited
for.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("classify_plain", "classify_all", "lemma")
RUNS = 10

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_TO_END_TO_END = [
    {"layer": "cli, docio", "metrics": "cli.self_s, docio.self_s",
     "moves": "op_p50_ms", "on": "classify_plain (shortest ops)"},
    {"layer": "analysis_ct, analysis_dt", "metrics": "<layer>.<class>.s, .calls; <layer>.self_s",
     "moves": "wall_s", "on": "classify_plain (4 plain classes), classify_all (all 11)"},
    {"layer": "boundary", "metrics": "boundary.grid_psd_scan.{calls,s,points}",
     "moves": "wall_s, op_p50_ms", "on": "classify_plain"},
    {"layer": "boundary", "metrics": "boundary.boundary_det_zeros.{calls,s}",
     "moves": "wall_s (op_tail_ms is the 16th percentile of 12 ops here)", "on": "classify_all"},
    {"layer": "boundary", "metrics": "boundary.defect_builds; boundary.self_s",
     "moves": "wall_s", "on": "classify_all"},
    {"layer": "ratmat", "metrics": "ratmat.rm_eval_many.{s,points}", "moves": "wall_s", "on": "classify_plain"},
    {"layer": "ratmat", "metrics": "ratmat.rm_poles.{calls,s}; rm_residues_at.calls; rm_infinity_expansion.calls",
     "moves": "wall_s", "on": "classify_all"},
    {"layer": "poly", "metrics": "poly.rational_ops, poly.rational_ops.s, poly.roots.{calls,s}, poly.self_s",
     "moves": "wall_s; setup_s", "on": "classify_all; setup_s on all three"},
    {"layer": "series", "metrics": "series.s", "moves": "wall_s", "on": "classify_all"},
    {"layer": "realization", "metrics": "realization.minimal_realization.{calls,s}",
     "moves": "op_p50_ms", "on": "lemma"},
    {"layer": "nilemma", "metrics": "nilemma.{feasible,infeasible}.s, .iterations, .iterations.infeasible, "
                                    ".dual_fallbacks, .farkas_certified, .self_s",
     "moves": "wall_s, op_tail_ms", "on": "lemma"},
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[7:]) for ln in lines if ln.startswith("report "))
    return json.loads(lines[-1]), report


def run_set(out, wl, seeds, seconds):
    """RUNS untraced runs; per metric its median, quartiles, spread and values; summed counts."""
    values, totals = {}, {"attempted": 0, "failed": 0}
    for seed in seeds:
        result, report = run(wl, seed, seconds, 0)
        out["digests"].setdefault(wl, {})[seed] = report["verdict_digest"]
        out["measured"].setdefault(wl, []).append({**report["measured"], "reference_ms": report["reference_ms"]})
        out.setdefault("env", report["env"])
        for key in totals:
            totals[key] += result[key]
        for name, m in result["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(wl, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()}, flush=True)
    rows = {}
    for name, v in values.items():
        q1, _q2, q3 = statistics.quantiles(v["values"], n=4)
        rows[name] = {"unit": v["unit"], "median": statistics.median(v["values"]), "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / statistics.median(v["values"]), "values": v["values"]}
    return rows, totals


def main():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    sets = [list(range(1, RUNS + 1)), list(range(RUNS + 1, 2 * RUNS + 1))]
    out = {"runs": RUNS, "seconds": seconds, "seeds": sets,
           "end_to_end": {}, "second_set": {}, "attempted_failed": {}, "measured": {}, "per_layer": {},
           "count_mismatches": {}, "digests": {}, "layer_to_end_to_end": LAYER_TO_END_TO_END}
    for wl in WORKLOADS:
        first, first_totals = run_set(out, wl, sets[0], seconds)
        second, second_totals = run_set(out, wl, sets[1], seconds)
        out["end_to_end"][wl] = first
        out["second_set"][wl] = {name: {"median": row["median"], "spread": row["spread"],
                                        "median_change": row["median"] / first[name]["median"] - 1.0}
                                 for name, row in second.items()}
        out["attempted_failed"][wl] = [first_totals, second_totals]
        result, report = run(wl, 1, seconds, 1)
        again, _ = run(wl, 1, seconds, 1)
        out["per_layer"][wl] = {k: m["value"] for k, m in result["metrics"].items()}
        out["count_mismatches"][wl] = {k: [m["value"], again["metrics"][k]["value"]]
                                       for k, m in result["metrics"].items()
                                       if k in counts and m["value"] != again["metrics"][k]["value"]}
        out["per_layer"][wl + ".report"] = {k: report[k] for k in ("tables", "failures", "verdict_digest")
                                            if k in report}
        if "probe_m5" in report:
            out["per_layer"][wl + ".report"]["probe_m5"] = report["probe_m5"]
    out["env"].pop("seed", None)
    out["env"].pop("workload", None)
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
