"""Benchmark inputs and the checks applied to every op's output.

An op is one in-process call of ``nipr.cli.main``.  Documents come from the
seeded generators in ``tests/corpus.py``; each labelled generator carries the
verdicts its construction proves, and every op's output is checked against
them, against the sign of the boundary form for the verdicts no label covers,
against the nesting SS => WS => plain, and, for the lemma, by re-verifying
each certificate independently of the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp

import corpus
from nipr import docio, minimal_realization
from tracing import CT_CLASSES, DT_CLASSES

# Verdicts each labelled generator's construction proves.
LABELS = {
    # sum_k R_k/(s + a_k), a_k > 0, R_k > 0 almost surely, D = 0: every mode is
    # strictly PR and strictly NI with positive limits of w^2 Re and w Im at
    # infinity, so the sum lies in all six continuous-time classes.
    "ct_ni": CT_CLASSES,
    # sum_k R_k/(s + a_k) + D with R_k, D > 0 almost surely: the ct_ni modes
    # (D does not enter the NI defect) plus a Hermitian part
    # sum_k 2 a_k R_k/(a_k^2 + w^2) + 2D >= 2D > 0 up to w = inf, so all six.
    "ct_pr": CT_CLASSES,
    # sum_k R_k/(z - a_k) + D, |a_k| < 1, R_k > 0: the defect
    # 2 sin(t) sum_k R_k/|e^{it} - a_k|^2 is positive definite on (0, pi) with
    # positive definite slopes at t = 0 and pi, so D-NI, D-WSNI and D-SSNI.
    "dt_ni": ("dni", "dwsni", "dssni"),
    # sum_k R_k z/(z - a_k) + D with R_k, D > 0 almost surely and |a_k| < 1:
    # Re e^{it}/(e^{it} - a) = (1 - a cos t)/|e^{it} - a|^2 > 0, so the
    # Hermitian part is positive definite on the closed circle: D-PR and D-SSPR.
    "dt_pr": ("dpr", "dsspr"),
}

# Wrong verdicts the seed commit gives.  They stay in the corpus and count in
# fail_rate; `correct` stays true while every wrong verdict is one of these.
# Spurious determinant zero at w = 0.365 (ROADMAP open item 2(b)):
KNOWN_WRONG = {("ct_ni-ref-m4", "cwspr"), ("ct_ni-ref-m4", "csspr")}
# The open-arc strict test (dwsni, dssni) fails only through determinant
# "zeros" this close to z = 1 or z = -1, endpoints the open arc excludes, where
# the defect's determinant has an m-fold zero that root finding splits:
# z = -1 + 4.5e-6i on dt_ni-ref-m2, 1 + 2.2e-4i on dt_ni-ref-m4, and up to
# 1.8e-3 from z = 1 on about one seeded dt_pr m = 2 document in twenty, such
# as the one of PR_DOC_SEED.
ENDPOINT_DIST = 1e-2

# SS => WS => plain; a verdict pair breaking it is wrong whatever the input.
NESTING = (("csspr", "cwspr"), ("cwspr", "cpr"), ("cssni", "cwsni"), ("cwsni", "cni"),
           ("dsspr", "dpr"), ("dssni", "dwsni"), ("dwsni", "dni"))

# Classes an unlabelled verdict is checked on independently of nipr, by the
# sign of the boundary form they need positive (boundary_sign).  All corpus
# systems have strictly stable poles, which leaves these classes with only
# that sign to decide; a statistic within SIGN_MARGIN of 0 decides nothing.
SIGN_FORMS = {"cpr": "pr", "cni": "ni", "dpr": "pr", "dsspr": "pr", "dni": "ni", "dwsni": "ni",
              "dssni": "ni+slopes"}
SIGN_MARGIN = 1e-4

GENERATORS = ("ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed")
NTERMS = 3
REFERENCE_SEED = 0      # the ROADMAP baseline documents and both known defects use rng 0
# classify_all's ct_pr/dt_pr documents; with it, dt_pr at m = 2 shows the
# endpoint defect (a determinant "zero" 1.8e-3 from z = 1).
PR_DOC_SEED = 10
LEMMA_CORPUS_SEED = 7   # the ROADMAP lemma corpus, dt_lemma_corpus(7, 100)
LEMMA_CORPUS_SIZE = 100
PR_SLICE_LABELLED = 8
PR_SLICE_CORPUS = 4


class Problem(NamedTuple):
    field: str           # class, certificate field or "op"
    reason: str
    known: bool = False  # one of the seed commit's known wrong verdicts


@dataclass
class Op:
    key: str
    argv: list
    doc_id: str
    doc: dict
    m: int
    classes: tuple = ()            # classes the op decides (classify ops)
    labels: tuple = ()             # classes whose verdict must be True
    form: str | None = None        # lemma form (lemma ops)
    expect: str | None = None      # lemma status the construction proves
    info: dict = field(default_factory=dict)


def _rng(*entropy):
    return np.random.default_rng(list(entropy))


def _write(doc_id, G, workdir: Path):
    doc = docio.document_of(G, name=doc_id)
    path = workdir / f"{doc_id}.json"
    docio.save_document(doc, path)
    return doc, str(path)


def _classify_ops(doc_id, gen, G, workdir, class_names, **info):
    doc, path = _write(doc_id, G, workdir)
    domain_classes = CT_CLASSES if G.domain == "ct" else DT_CLASSES
    labels = LABELS.get(gen, ())
    ops = []
    for name in class_names:
        classes = domain_classes if name == "all" else (name,)
        ops.append(Op(
            key=f"{doc_id}:{name}", argv=["classify", path, "--class", name, "--json"],
            doc_id=doc_id, doc=doc, m=G.size, classes=classes,
            labels=tuple(c for c in classes if c in labels), info=dict(info, gen=gen),
        ))
    return ops


def build_classify_plain(seed, workdir: Path):
    """Six generators x m = 1..6, one plain class per document.

    A generator labelled on one plain class always gets that class; the others
    alternate PR and NI with m, so every label is checked at every m.
    """
    ops = []
    for m in range(1, 7):
        for gi, gen in enumerate(GENERATORS):
            G = getattr(corpus, gen)(_rng(seed, gi, m), m=m, nterms=NTERMS)
            plain = ("cpr", "cni") if G.domain == "ct" else ("dpr", "dni")
            choices = [c for c in plain if c in LABELS.get(gen, ())] or plain
            ops += _classify_ops(f"{gen}-s{seed}-m{m}", gen, G, workdir, (choices[m % len(choices)],), ref=False)
    return ops


def build_classify_all(_seed, workdir: Path):
    """Fixed documents whatever the seed: reference ct_ni/dt_ni (rng 0, m = 1..4) and ct_pr/dt_pr of PR_DOC_SEED, m = 1..2.

    Fixed inputs keep the failing ops, and so ``failed``, the same on every run.
    """
    ops = []
    for m in range(1, 5):
        for gen in ("ct_ni", "dt_ni"):
            G = getattr(corpus, gen)(np.random.default_rng(REFERENCE_SEED), m=m, nterms=NTERMS)
            ops += _classify_ops(f"{gen}-ref-m{m}", gen, G, workdir, ("all",), ref=True)
        if m > 2:
            continue
        for gen in ("ct_pr", "dt_pr"):
            G = getattr(corpus, gen)(_rng(PR_DOC_SEED, GENERATORS.index(gen), m), m=m, nterms=NTERMS)
            ops += _classify_ops(f"{gen}-s{PR_DOC_SEED}-m{m}", gen, G, workdir, ("all",), ref=False)
    return ops


def labelled_lemma_corpus(corpus_seed, count):
    """dt_lemma_corpus with a label per member: True where it was built by dt_ni.

    Replays the generator's draws to recover the labels and checks the
    systems against ``corpus.dt_lemma_corpus`` itself.
    """
    rng = np.random.default_rng(corpus_seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(1, 3))
        nterms = int(rng.integers(1, 3 if m == 2 else 5))
        if rng.uniform() < 0.5:
            out.append((corpus.dt_ni(rng, m=m, nterms=nterms, with_d=bool(rng.uniform() < 0.5)), True))
        else:
            out.append((corpus.dt_mixed(rng, m=m, nterms=nterms), False))
    for (G, _ni), H in zip(out, corpus.dt_lemma_corpus(corpus_seed, count)):
        if docio.document_of(G) != docio.document_of(H):
            raise RuntimeError("dt_lemma_corpus draws changed; update labelled_lemma_corpus")
    return out


def build_lemma(seed, workdir: Path):
    """NI lemma on dt_lemma_corpus(7, 100), plus a PR-lemma slice of seeded dt_pr and corpus systems."""
    ops = []
    members = labelled_lemma_corpus(LEMMA_CORPUS_SEED, LEMMA_CORPUS_SIZE)
    for k, (G, ni) in enumerate(members):
        doc_id = f"lemma{LEMMA_CORPUS_SEED}-{k}"
        doc, path = _write(doc_id, G, workdir)
        ops.append(Op(key=f"{doc_id}:primal", argv=["lemma", path, "--form", "primal"],
                      doc_id=doc_id, doc=doc, m=G.size, form="primal",
                      expect="Feasible" if ni else None, info={"gen": "dt_ni" if ni else "dt_mixed"}))
    for k in range(PR_SLICE_LABELLED):
        m, nterms = 1 + k % 2, 1 + k % 3
        G = corpus.dt_pr(_rng(seed, GENERATORS.index("dt_pr"), 100 + k), m=m, nterms=nterms)
        doc_id = f"dt_pr-s{seed}-{k}"
        doc, path = _write(doc_id, G, workdir)
        ops.append(Op(key=f"{doc_id}:pr", argv=["lemma", path, "--form", "pr"], doc_id=doc_id,
                      doc=doc, m=m, form="pr", expect="Feasible", info={"gen": "dt_pr"}))
    for op in ops[:PR_SLICE_CORPUS]:
        ops.append(Op(key=f"{op.doc_id}:pr", argv=["lemma", op.argv[1], "--form", "pr"],
                      doc_id=op.doc_id, doc=op.doc, m=op.m, form="pr", info=dict(op.info)))
    return ops


BUILDERS = {
    "classify_plain": build_classify_plain,
    "classify_all": build_classify_all,
    "lemma": build_lemma,
}


# ---------------------------------------------------------------------------
# checks


def eval_doc(doc, z):
    """G(z) for every point of z, from the document's coefficients."""
    entries = doc["entries"]
    m = len(entries)
    out = np.zeros((z.size, m, m), dtype=complex)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            out[:, i, j] = npp.polyval(z, cell["num"]) / npp.polyval(z, cell["den"])
    return out


def _herm(M):
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def frequency_witness(doc, form):
    """Worst relative eigenvalue of the boundary form the lemma's feasibility implies PSD.

    NI: i(G - G*) on the open upper arc; PR: G + G* on the whole circle.  A
    negative value is a separating witness: its eigenvector is a functional
    that every feasible certificate would keep nonnegative.
    """
    if form == "pr":
        t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        G = eval_doc(doc, np.exp(1j * t))
        H = _herm(G + np.conj(np.swapaxes(G, 1, 2)))
    else:
        t = np.linspace(0.0, np.pi, 4098)[1:-1]
        G = eval_doc(doc, np.exp(1j * t))
        H = _herm(1j * (G - np.conj(np.swapaxes(G, 1, 2))))
    lam = np.linalg.eigvalsh(H)
    return float(lam[:, 0].min() / (1.0 + np.abs(lam).max()))


def _strictly_stable(doc):
    """Every entry's poles in the open left half plane (CT) or the open unit disc (DT)."""
    for row in doc["entries"]:
        for cell in row:
            if len(cell["den"]) < 2:
                continue
            r = npp.polyroots(cell["den"])
            if not (np.all(r.real < -1e-9) if doc["domain"] == "ct" else np.all(np.abs(r) < 1.0 - 1e-9)):
                return False
    return True


def _worst_ratio(H):
    """min over points of lambda_min(H) / ||H||: each point normalized on its own."""
    lam = np.linalg.eigvalsh(H)
    norm = np.abs(lam).max(axis=1)
    return float((lam[:, 0] / (norm + 1e-12 * norm.max() + 1e-300)).min())


def boundary_sign(doc, kind):
    """Signed margin of the boundary form a class needs positive, from the coefficients.

    "pr": G + G* on the axis w >= 0 or the closed upper half circle; "ni":
    i(G - G*) on w > 0 or the open upper arc; "ni+slopes" adds the endpoint
    slopes -(G'(z0) + G'(z0)^T) at z0 = 1, -1.  Real coefficients make the
    lower half of the boundary a conjugate mirror.  Each point is normalized
    on its own, so a form that vanishes at an end keeps its sign there.
    """
    ct = doc["domain"] == "ct"
    if kind == "pr":
        t = np.concatenate([[0.0], np.logspace(-4, 4, 4001)]) if ct else np.linspace(0.0, np.pi, 4097)
    else:
        t = np.logspace(-4, 4, 4001) if ct else np.linspace(0.0, np.pi, 4099)[1:-1]
    G = eval_doc(doc, 1j * t if ct else np.exp(1j * t))
    Gh = np.conj(np.swapaxes(G, 1, 2))
    worst = _worst_ratio(_herm(G + Gh) if kind == "pr" else _herm(1j * (G - Gh)))
    if kind == "ni+slopes":
        for z0 in (1.0, -1.0):
            dG = np.array([[(npp.polyval(z0, npp.polyder(c["num"])) * npp.polyval(z0, c["den"])
                             - npp.polyval(z0, c["num"]) * npp.polyval(z0, npp.polyder(c["den"])))
                            / npp.polyval(z0, c["den"]) ** 2 for c in row] for row in doc["entries"]])
            worst = min(worst, _worst_ratio(-(dG + dG.T)[None]))
    return worst


def endpoint_zero(report):
    """True if a classify report fails only through the known endpoint determinant zero."""
    failed = [c for c in report["conditions"] if not c["passed"]]
    if not failed or any(c["id"] != "strict-boundary-sign" for c in failed):
        return False
    for c in failed:
        w = c["witness"]
        zeros = [complex(z["re"], z["im"]) for z in w.get("det_zeros") or ()]
        if w.get("identically_zero") or not w.get("worst_margin", -1.0) >= 0.0 or not zeros:
            return False
        if any(min(abs(z - 1.0), abs(z + 1.0)) > ENDPOINT_DIST for z in zeros):
            return False
    return True


class Checker:
    """Checks op outputs; caches per-document work that does not depend on the output."""

    def __init__(self):
        self._ss = {}
        self._witness = {}
        self._sign = {}

    def check(self, op: Op, rc, out: str):
        """Problems with one op's output, as (class or field, reason) pairs."""
        if rc not in (0, 1):
            return [Problem("op", f"exit code {rc}")]
        if op.form is None:
            return self._check_classify(op, rc, out)
        return self._check_lemma(op, rc, out)

    def _check_classify(self, op, rc, out):
        reports = {r["class"]: r for r in json.loads(out)}
        verdicts = {cls: bool(r["verdict"]) for cls, r in reports.items()}
        problems = []
        if tuple(verdicts) != op.classes:
            return [Problem("op", f"classes {sorted(verdicts)} returned, {list(op.classes)} asked")]
        if (rc == 0) != all(verdicts.values()):
            problems.append(Problem("op", f"exit code {rc} disagrees with the verdicts"))

        def wrong(cls, reason):
            known = (op.doc_id, cls) in KNOWN_WRONG or endpoint_zero(reports[cls])
            problems.append(Problem(cls, reason, known))

        for cls in op.labels:
            if not verdicts[cls]:
                wrong(cls, "contradicts the generator's label")
        for cls in op.classes:
            if cls in op.labels or cls not in SIGN_FORMS:
                continue
            key = (op.doc_id, SIGN_FORMS[cls])
            if key not in self._sign:
                self._sign[key] = boundary_sign(op.doc, key[1]) if _strictly_stable(op.doc) else 0.0
            sign = self._sign[key]
            if abs(sign) > SIGN_MARGIN and verdicts[cls] != (sign > 0):
                wrong(cls, f"contradicts the boundary sign {sign:.3g}")
        for strong, weak in NESTING:
            if verdicts.get(strong) and verdicts.get(weak) is False:
                problems.append(Problem(weak, f"{strong} holds but {weak} does not"))
        return problems

    def _realization(self, op):
        """The realization the CLI certifies (same call), or None if it does not reproduce G."""
        if op.doc_id not in self._ss:
            ss = minimal_realization(docio.parse_document(op.doc))
            z = np.array([1.7, -2.3, 0.4 + 1.9j])
            for zk, Gk in zip(z, eval_doc(op.doc, z)):
                Hk = ss.C @ np.linalg.solve(zk * np.eye(ss.order) - ss.A, ss.B) + ss.D
                if np.linalg.norm(Hk - Gk) > 1e-7 * (1.0 + np.linalg.norm(Gk)):
                    ss = None
                    break
            self._ss[op.doc_id] = ss
        return self._ss[op.doc_id]

    def _check_lemma(self, op, rc, out):
        cert = json.loads(out)
        status = cert["status"]
        if (rc == 0) != (status == "Feasible"):
            return [Problem("op", f"exit code {rc} disagrees with status {status}")]
        if status == "Inconclusive":
            return [Problem("status", "Inconclusive")]
        problems = []
        if op.expect is not None and status != op.expect:
            problems.append(Problem("status", f"{status} contradicts the generator's label"))
        if status == "Feasible":
            bad = self._reverify(op, np.asarray(cert["X"], dtype=float))
            if bad:
                problems.append(Problem("X", bad))
        else:
            key = (op.doc_id, op.form)
            if key not in self._witness:
                self._witness[key] = frequency_witness(op.doc, op.form)
            if not self._witness[key] < -1e-9:
                problems.append(Problem("status", "Infeasible without a separating witness"))
        return problems

    def _reverify(self, op, X):
        ss = self._realization(op)
        if ss is None:
            return "minimal_realization does not reproduce G"
        A, B, C, D = ss.A, ss.B, ss.C, ss.D
        n = ss.order
        if n == 0:
            return None
        X = X.reshape(n, n)
        scale = 1.0 + np.linalg.norm(X, 2)
        if np.linalg.norm(X - X.T) > 1e-9 * scale:
            return "X is not symmetric"
        X = 0.5 * (X + X.T)
        if np.linalg.eigvalsh(X)[0] <= 0.0:
            return "X is not positive definite"
        if op.form == "pr":
            M = np.block([[X - A.T @ X @ A, C.T - A.T @ X @ B],
                          [C - B.T @ X @ A, D.T + D - B.T @ X @ B]])
            if np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -1e-7 * scale:
                return "PR lemma matrix is not PSD"
            return None
        I = np.eye(n)
        if np.linalg.eigvalsh(_herm(X - A.T @ X @ A))[0] < -1e-7 * scale:
            return "X - A'XA is not PSD"
        R = C @ np.linalg.inv(A + I)
        S = -B.T @ np.linalg.inv(A.T - I)
        if np.linalg.norm(S @ X - R) > 1e-6 * scale * (1.0 + np.linalg.norm(R) + np.linalg.norm(S)):
            return "X violates C(A+I)^-1 = -B'(A'-I)^-1 X"
        return None
