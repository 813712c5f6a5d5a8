"""nipr benchmark: verdict-checked classify and lemma workloads.

    python3 bench/run.py --workload classify_plain --seed 1 --seconds 32 --trace 0

Run from the repository root.  Each op is one in-process call of
``nipr.cli.main``, so the import is paid once, in ``setup_s``.  With
``--trace 0`` ops cycle over the workload's inputs for ``--seconds`` seconds
(the first pass always completes) and the end-to-end metrics are printed;
their times are corrected for the machine's momentary speed (``reference_s``)
and the measured figures are printed in the report line.
With ``--trace 1`` every op runs three times back to back (warm-up, traced,
untraced) and the per-layer metrics are printed; the classify_plain traced
run also probes every classifier at m = 5.  The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
HD_GRID = 10_000        # integration steps of the Harrell-Davis weights
PROBE_CAP_S = 20.0
# The m = 5 probe stops this many seconds after the run started, so that a
# slow machine still ends the run well within the benchmark's 180 s limit.
PROBE_DEADLINE_S = 140.0
# Seconds the reference computation takes at the nominal machine speed; every
# end-to-end time is reported at that speed (see reference_s).
REFERENCE_S = 1.5e-3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# ROADMAP baseline (seed commit, one run or best of 3): seconds per classifier
# call on the rng-0, three-mode reference documents, m = 1..4.
ROADMAP_BASELINE = {
    "dni": (0.14, 0.18, 0.19, 0.22),
    "dssni": (0.16, 0.19, 0.25, 2.7),
    "cssni": (0.08, 0.11, 0.18, 1.5),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("classify_plain", "classify_all", "lemma"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# Run in a fresh interpreter: the seconds the import takes there.
IMPORT_TIMER = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - t0)")


def import_program():
    """Import nipr and the corpus generators from the checkout; time the import.

    The import is timed in IMPORT_REPEATS fresh interpreters, one after the
    other, each waited for; the median is returned, measured and corrected.
    """
    for need in (ROOT / "src" / "nipr" / "__init__.py", ROOT / "tests" / "corpus.py"):
        if not need.is_file():
            raise SystemExit(f"bench: {need.relative_to(ROOT)} not found; run from a full checkout")
    paths = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    sys.path[:0] = paths
    import workloads  # noqa: F401  (imports numpy, nipr and tests/corpus.py)
    import nipr
    if Path(nipr.__file__).resolve().parent != ROOT / "src" / "nipr":
        raise SystemExit(f"bench: imported nipr from {nipr.__file__}, not from this checkout")

    def child():
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, *paths], capture_output=True,
                              text=True, check=True, timeout=120)
        return float(proc.stdout.split()[-1])

    return median_timed(child, IMPORT_REPEATS)


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def reference_s():
    """Seconds for a fixed Python + numpy computation that runs no nipr code.

    A shared virtual machine can drift in speed by tens of percent over
    minutes, with CPU time drifting alike.  Each end-to-end time is the
    measured time scaled by REFERENCE_S over the reference computation's time
    measured next to it, so it reads as seconds at one fixed machine speed
    while any change in nipr's own cost shows in full.  The measured figures
    are printed in the report line.
    """
    import numpy as np

    a = np.arange(16.0).reshape(4, 4)
    a = a + a.T
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(50):
        np.linalg.eigvalsh(a)
    return perf_counter() - t0


def reference_sample():
    """Median of three reference computations, so that one spike cannot skew a correction."""
    return statistics.median(reference_s() for _ in range(3))


def median_timed(measure, repeats):
    """Median seconds of `repeats` calls of measure(), measured and at the reference speed.

    measure() returns the seconds it measured; the reference computation runs
    before and after each call.
    """
    times, corrected = [], []
    ref = reference_sample()
    for _ in range(repeats):
        times.append(measure())
        ref, prev = reference_sample(), ref
        corrected.append(times[-1] * REFERENCE_S / (0.5 * (prev + ref)))
    return statistics.median(times), statistics.median(corrected)


def environment(args):
    import numpy as np
    import nipr
    from workloads import LEMMA_CORPUS_SEED, REFERENCE_SEED

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nipr": nipr.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "lemma_corpus_seed": LEMMA_CORPUS_SEED,
        "reference_seed": REFERENCE_SEED,
    }


# ---------------------------------------------------------------------------
# ops


def execute(op, checker):
    """Run one op; return (seconds, problems, summary of its output)."""
    from nipr import cli
    from workloads import Problem

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises past the CLI counts as failed, the run goes on
        return perf_counter() - t0, [Problem("op", f"raised {type(exc).__name__}: {exc}")], "raised"
    dt = perf_counter() - t0
    if rc == 2:
        return dt, [Problem("op", f"error: {err.getvalue().strip()}")], "error"
    try:
        problems = checker.check(op, rc, out.getvalue())
        if op.form is None:
            summary = {r["class"]: bool(r["verdict"]) for r in json.loads(out.getvalue())}
        else:
            summary = json.loads(out.getvalue())["status"]
    except (ValueError, KeyError, TypeError) as exc:
        return dt, [Problem("op", f"unreadable output: {type(exc).__name__}: {exc}")], "unreadable"
    return dt, problems, summary


class Ledger:
    """Op latencies, failures and verdicts of one run.

    ``attempted`` and ``failed`` count ops, not executions: an op is run
    repeatedly for its latency and fails if any execution fails, so both
    counts are the same whatever the machine's speed.
    """

    def __init__(self, ops):
        self.ops = ops
        self.samples = {op.key: [] for op in ops}     # measured seconds
        self.corrected = {op.key: [] for op in ops}   # seconds at the reference speed
        self.problems = {}
        self.summary = {}
        self.executions = 0

    def record(self, op, dt, problems, summary, speed=1.0):
        self.samples[op.key].append(dt)
        self.corrected[op.key].append(dt * speed)
        self.summary.setdefault(op.key, summary)
        self.executions += 1
        if problems:
            self.problems.setdefault(op.key, problems)

    @property
    def attempted(self):
        return sum(1 for times in self.samples.values() if times)

    @property
    def failed(self):
        return len(self.problems)

    def latencies(self, corrected=True):
        """Per op, the median of its repetitions."""
        table = self.corrected if corrected else self.samples
        return [statistics.median(table[op.key]) for op in self.ops]

    def digest(self):
        blob = json.dumps(sorted(self.summary.items()), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def failures(self):
        return [{"op": key, "known": all(p.known for p in probs),
                 "problems": [f"{p.field}: {p.reason}" for p in probs]}
                for key, probs in self.problems.items()]

    def correct(self):
        return all(f["known"] for f in self.failures())


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.

    A single order statistic jumps when two ops near its rank trade places
    (lemma's tail rank sits on a 15% gap); this weighs the ranks around it.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, HD_GRID + 1)
    mid = 0.5 * (t[1:] + t[:-1])
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def tail(values):
    """(percentile, value): the highest whole percentile with >= TAIL_BEYOND values beyond it."""
    n = len(values)
    pct = (100 * (n - TAIL_BEYOND)) // n
    return pct, hd_quantile(values, pct / 100)


# ---------------------------------------------------------------------------
# runs


def setup(args, workdir, import_s):
    """Build the inputs SETUP_REPEATS times; setup_s = import + median build, measured and corrected.

    One untimed warm-up op follows.
    """
    from workloads import BUILDERS, Checker

    built = []

    def build():
        target = workdir / f"inputs{len(built)}"
        target.mkdir()
        t0 = perf_counter()
        built.append(BUILDERS[args.workload](args.seed, target))
        return perf_counter() - t0

    build_s = median_timed(build, SETUP_REPEATS)
    ops, checker = built[-1], Checker()
    warm = min(ops, key=lambda op: (op.m, op.key))
    execute(warm, checker)
    return ops, checker, (import_s[0] + build_s[0], import_s[1] + build_s[1])


def timed_run(args, ops, checker, setup_s):
    ledger = Ledger(ops)
    deadline = perf_counter() + args.seconds
    refs = [reference_sample()]
    i = 0
    while True:
        op = ops[i % len(ops)]
        # after the first pass, start an op only if its best time so far still fits
        if i >= len(ops) and perf_counter() + min(ledger.samples[op.key]) > deadline:
            break
        result = execute(op, checker)
        refs.append(reference_sample())
        ledger.record(op, *result, speed=REFERENCE_S / (0.5 * (refs[-2] + refs[-1])))
        i += 1
    lat = ledger.latencies()
    raw = ledger.latencies(corrected=False)
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": (setup_s[1], "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_rate": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "ops": len(ops), "passes": round(i / len(ops), 2), "executions": ledger.executions,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_rate": ledger.failed / ledger.attempted,
        "op_tail_percentile": pct, "verdict_digest": ledger.digest(),
        "failures": ledger.failures(),
        "op_latency_ms": {op.key: round(1e3 * t, 3) for op, t in zip(ops, lat)},
        "measured": {"setup_s": setup_s[0], "wall_s": sum(raw), "op_p50_ms": 1e3 * hd_quantile(raw, 0.5),
                     "op_tail_ms": 1e3 * tail(raw)[1]},
        "reference_ms": {"min": 1e3 * min(refs), "median": 1e3 * statistics.median(refs),
                         "max": 1e3 * max(refs), "nominal": 1e3 * REFERENCE_S},
    }
    return ledger, metrics, report


class ProbeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ProbeTimeout


def probe_m5(workdir, deadline):
    """Each classifier of --class all on one CT and one DT m = 5 document: verdict or error, and time.

    A classifier gets PROBE_CAP_S seconds, or what is left before `deadline`.
    """
    import numpy as np

    import corpus
    from nipr import cli, docio
    from workloads import NTERMS, REFERENCE_SEED

    rows = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for gen in ("dt_ni", "ct_ni"):
            G = getattr(corpus, gen)(np.random.default_rng(REFERENCE_SEED), m=5, nterms=NTERMS)
            path = workdir / f"probe-{gen}-m5.json"
            docio.save_document(docio.document_of(G, name=f"{gen}-ref-m5"), path)
            for cls, (domain, fn) in list(cli.CLASSIFIERS.items()):
                if domain != G.domain:
                    continue
                seen = {}

                def spy(*a, _fn=fn, _seen=seen, **kw):
                    try:
                        rep = _fn(*a, **kw)
                    except BaseException as exc:
                        _seen["error"] = type(exc).__name__
                        raise
                    _seen["verdict"] = bool(rep.verdict)
                    return rep

                cap = min(PROBE_CAP_S, deadline - perf_counter())
                if cap < 1.0:
                    rows.append({"doc": f"{gen}-ref-m5", "class": cls, "error": "skipped: run time spent"})
                    continue
                cli.CLASSIFIERS[cls] = (domain, spy)
                t0 = perf_counter()
                try:
                    signal.setitimer(signal.ITIMER_REAL, cap)
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        cli.main(["classify", str(path), "--class", cls, "--json"])
                except ProbeTimeout:
                    seen["error"] = f"not finished after {cap:.3g} s"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                    cli.CLASSIFIERS[cls] = (domain, fn)
                rows.append({"doc": f"{gen}-ref-m5", "class": cls, "s": round(perf_counter() - t0, 3),
                             **seen})
    finally:
        signal.signal(signal.SIGALRM, previous)
    return rows


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def scaling_tables(events):
    """Per-classifier seconds by m, and lemma seconds and iterations by state dimension n."""
    by_cls, by_n, baseline = {}, {}, {}
    for op, evs in events:
        for ev in evs:
            if ev["kind"] == "classify":
                by_cls.setdefault(ev["class"], {}).setdefault(op.m, []).append(ev["s"])
                if op.info.get("ref") and ev["class"] in ROADMAP_BASELINE:
                    baseline.setdefault(ev["class"], {}).setdefault(op.m, []).append(ev["s"])
            elif ev["kind"] == "lemma" and ev["form"] == op.form:
                row = by_n.setdefault(f"{op.form} n={ev['n']}", {"count": 0, "s": [], "iterations": []})
                row["count"] += 1
                row["s"].append(ev["s"])
                row["iterations"].append(ev["iterations"])
    classifier = {cls: {m: round(_mean(v), 4) for m, v in sorted(ms.items())} for cls, ms in sorted(by_cls.items())}
    lemma = {k: {"count": r["count"], "mean_s": round(_mean(r["s"]), 4),
                 "mean_iterations": round(_mean(r["iterations"]), 1)} for k, r in sorted(by_n.items())}
    compare = []
    for cls, ms in sorted(baseline.items()):
        for m, v in sorted(ms.items()):
            ref = ROADMAP_BASELINE[cls][m - 1]
            ratio = _mean(v) / ref
            compare.append({"class": cls, "m": m, "traced_s": round(_mean(v), 4), "roadmap_s": ref,
                            "ratio": round(ratio, 2), "differs_2x": not 0.5 <= ratio <= 2.0})
    return {"classifier_s_by_m": classifier, "lemma_by_n": lemma, "roadmap_baseline": compare}


def traced_run(args, ops, checker, workdir, started):
    """Each op three times: a warm-up, a traced and an untraced execution, back to back."""
    from tracing import Tracer

    ledger = Ledger(ops)
    tracer = Tracer()
    events = []
    walls = {"warmup": 0.0, "traced": 0.0, "untraced": 0.0}
    for op in ops:
        for phase in walls:
            if phase == "traced":
                mark = len(tracer.log)
                tracer.install()
            try:
                dt, problems, summary = execute(op, checker)
            finally:
                if phase == "traced":
                    tracer.uninstall()
            ledger.record(op, dt, problems, summary)
            walls[phase] += dt
        events.append((op, tracer.log[mark:]))
    metrics = tracer.metrics(walls["traced"], walls["untraced"])
    report = {
        "ops": len(ops), "executions": ledger.executions,
        "attempted": ledger.attempted, "failed": ledger.failed,
        **{f"{phase}_wall_s": wall for phase, wall in walls.items()},
        "verdict_digest": ledger.digest(), "failures": ledger.failures(),
        "tables": scaling_tables(events),
    }
    if args.workload == "classify_plain":
        # the shortest traced run carries the m = 5 probe
        report["probe_m5"] = probe_m5(workdir, started + PROBE_DEADLINE_S)
    return ledger, metrics, report


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    started = perf_counter()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    import_s = import_program()
    workdir = BENCH_DIR / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, checker, setup_s = setup(args, workdir, import_s)
        if args.trace:
            ledger, metrics, report = traced_run(args, ops, checker, workdir, started)
        else:
            ledger, metrics, report = timed_run(args, ops, checker, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.setdefault("measured", {})["import_s"] = import_s[0]
    report["env"] = environment(args)
    shown = dict(metrics)
    if "fail_rate" in report:
        shown["fail_rate (failed / attempted)"] = (report["fail_rate"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    for f in report["failures"]:
        print(f"{'known' if f['known'] else 'NEW'} failure {f['op']}: {'; '.join(f['problems'])}")
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": ledger.correct(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
