"""Redheffer star products, positive feedback, and the NI stability test."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import pole_at
from .analysis_dt import classify_dni, classify_dssni, classify_dwsni
from .config import DEFAULT, Config
from .errors import IllPosed, PreconditionViolated
from .ratmat import DT, RationalMatrix, rm_eval
from .realization import StateSpace, block_diag, minimal_realization, spectrum, tf_of


@dataclass
class PartitionedSystem:
    """A system with its last-a outputs / last-b inputs (or first, for the
    right factor) designated as the interconnection channel."""

    sys: StateSpace
    a: int
    b: int

    def __post_init__(self):
        m = self.sys.size
        if not (0 < self.a <= m and 0 < self.b <= m):
            raise ValueError("channel sizes must lie in (0, m]")


@dataclass
class InterconnectResult:
    system: StateSpace
    closed_loop_spectrum: list = field(default_factory=list)
    internally_stable: bool = False


def _stable(lams, domain, tol=1e-9):
    return all(abs(l) < 1.0 - tol if domain == DT else l.real < -tol for l in lams)


def _coupling_inverse(K, p, cfg: Config, what):
    """K^-1 for a well-posed loop, where P drives the fed signals p and Q the rest: the smallest singular
    value of K exceeds rank_rel times its largest once P's signals are scaled by the power of two that
    balances the norms of K's off-diagonal blocks (or sets the nonzero one to 1).  That similarity
    leaves the loop as it is, and the test stays put when P is scaled by k and Q by 1/k."""
    nP, nQ = np.linalg.norm(K[np.ix_(p, ~p)]), np.linalg.norm(K[np.ix_(~p, p)])
    s = np.where(p, np.exp2(np.round(np.log2(np.sqrt(nQ / nP) if nP and nQ else (nQ or 1.0) / (nP or 1.0)))), 1.0)
    sv = np.linalg.svd(s[:, None] * K / s, compute_uv=False)
    if not sv[-1] > cfg.rank_rel * sv[0]:
        raise IllPosed(what)
    return np.linalg.inv(s[:, None] * K / s) / s[:, None] * s


def _close(P: StateSpace, Q: StateSpace, ins, outs, fed_in, fed_out, cfg: Config, what) -> InterconnectResult:
    """The loop around diag(P, Q) from the inputs ``ins`` to the outputs ``outs``.

    Inputs and outputs are numbered P's first, then Q's.  Input fed_in[k] is
    driven by output fed_out[k], plus the external input if it is also in
    ``ins``.  The fed signals v = y[fed_out] solve (I - D_ff) v = C_f x + D_fw w.
    """
    A, B, C, D = (block_diag(getattr(P, k), getattr(Q, k)) for k in "ABCD")
    Kinv = _coupling_inverse(np.eye(len(fed_in)) - D[np.ix_(fed_out, fed_in)], np.asarray(fed_out) < P.size, cfg, what)
    Vx, Vw = Kinv @ C[fed_out], Kinv @ D[np.ix_(fed_out, ins)]
    Bf, Df = B[:, fed_in], D[np.ix_(outs, fed_in)]
    closed = StateSpace(A + Bf @ Vx, B[:, ins] + Bf @ Vw, C[outs] + Df @ Vx,
                        D[np.ix_(outs, ins)] + Df @ Vw, P.domain)
    lams = spectrum(closed)
    return InterconnectResult(closed, lams, _stable(lams, P.domain))


def redheffer_star(S1: PartitionedSystem, S2: PartitionedSystem, cfg: Config = DEFAULT) -> InterconnectResult:
    """Star product closing the (a, b) channel between two systems.

    The last a outputs of S1 feed the first a inputs of S2, and the first b
    outputs of S2 feed the last b inputs of S1.  The composite keeps the
    remaining channels, so it is square when a = b.
    """
    if (S1.a, S1.b) != (S2.a, S2.b):
        raise ValueError("partition mismatch between the two factors")
    a, b = S1.a, S1.b
    if a != b:
        raise ValueError("only square interconnections (a = b) are supported")
    P, Q = S1.sys, S2.sys
    if P.domain != Q.domain:
        raise ValueError("domain mismatch")
    m1, m2 = P.size, Q.size
    ins = [*range(m1 - b), *range(m1 + a, m1 + m2)]
    outs = [*range(m1 - a), *range(m1 + b, m1 + m2)]
    fed_in = [*range(m1, m1 + a), *range(m1 - b, m1)]
    fed_out = [*range(m1 - a, m1), *range(m1, m1 + b)]
    return _close(P, Q, ins, outs, fed_in, fed_out, cfg, "the interconnection coupling matrix is singular")


def internal_stability(P: StateSpace, Q: StateSpace, cfg: Config = DEFAULT) -> InterconnectResult:
    """Positive feedback loop u_P = w1 + y_Q, u_Q = w2 + y_P; its system is w1 -> y_P, (I - P Q)^-1 P."""
    if P.domain != Q.domain:
        raise ValueError("domain mismatch")
    if P.size != Q.size:
        raise ValueError("dimension mismatch")
    m = P.size
    p, q = [*range(m)], [*range(m, 2 * m)]
    return _close(P, Q, p, p, p + q, q + p, cfg, "I - D_Q D_P is singular")


def ni_stability_test(P: RationalMatrix, Q: RationalMatrix, cfg: Config = DEFAULT) -> dict:
    """Eigenvalue test for internal stability of a positive feedback loop.

    Preconditions: P is D-NI with no poles at z = 1 or z = -1, Q is D-WSNI,
    P(-1)Q(-1) = 0, and Q(-1) >= 0.  The verdict is max eig(P(1)Q(1)) < 1,
    cross-checked against the state-space closed loop.
    """
    if P.domain != DT or Q.domain != DT:
        raise ValueError("the eigenvalue test is for discrete-time systems")
    p = pole_at(P, (1.0, -1.0), cfg)
    if p is not None:
        raise PreconditionViolated("P has a pole at z = 1 or z = -1", witness=p)
    rep_p = classify_dni(P, cfg)
    if not rep_p.verdict:
        raise PreconditionViolated("P is not D-NI", witness=[c.cid for c in rep_p.failed()])
    rep_q = classify_dwsni(Q, cfg)
    if not rep_q.verdict:
        raise PreconditionViolated("Q is not D-WSNI", witness=[c.cid for c in rep_q.failed()])
    Pm1, Qm1 = np.real(rm_eval(P, -1.0)), np.real(rm_eval(Q, -1.0))
    prod = Pm1 @ Qm1
    tol = 1e-7 * (1.0 + np.linalg.norm(Pm1, 2) * np.linalg.norm(Qm1, 2))
    if np.linalg.norm(prod, 2) > tol:
        raise PreconditionViolated("P(-1) Q(-1) != 0", witness=prod)
    lamq = np.linalg.eigvalsh(0.5 * (Qm1 + Qm1.T))
    if lamq[0] < -1e-8 * (1.0 + abs(lamq[-1])):
        raise PreconditionViolated("Q(-1) is not PSD", witness=Qm1)

    M = np.real(rm_eval(P, 1.0)) @ np.real(rm_eval(Q, 1.0))
    eigs = np.linalg.eigvals(M)
    scale = 1.0 + np.linalg.norm(M, 2)
    if np.max(np.abs(eigs.imag)) > 1e-8 * scale:
        raise PreconditionViolated("P(1)Q(1) has non-real eigenvalues", witness=eigs)
    lam_bar = float(np.max(eigs.real))
    verdict = lam_bar < 1.0
    loop = internal_stability(minimal_realization(P, cfg), minimal_realization(Q, cfg), cfg)
    return {
        "lambda_bar": lam_bar,
        "verdict": verdict,
        "internal_stability_verdict": loop.internally_stable,
        "agree": verdict == loop.internally_stable,
        "closed_loop_spectrum": loop.closed_loop_spectrum,
    }


_DT_CLASSIFIERS = {"dni": classify_dni, "dwsni": classify_dwsni, "dssni": classify_dssni}


def star_class_preservation(S1: PartitionedSystem, S2: PartitionedSystem, class_name: str,
                            cfg: Config = DEFAULT) -> dict:
    """Check that the star product of two class members stays in the class."""
    if class_name not in _DT_CLASSIFIERS:
        raise ValueError(f"unknown class {class_name!r}")
    clf = _DT_CLASSIFIERS[class_name]
    in1, in2 = clf(tf_of(S1.sys), cfg).verdict, clf(tf_of(S2.sys), cfg).verdict
    res = redheffer_star(S1, S2, cfg)
    star_tf = tf_of(res.system)
    membership = {name: c(star_tf, cfg).verdict for name, c in _DT_CLASSIFIERS.items()}
    preserved = (not (in1 and in2 and res.internally_stable)) or membership[class_name]
    return {
        "inputs_in_class": (in1, in2),
        "internally_stable": res.internally_stable,
        "star_membership": membership,
        "preserved": preserved,
        "star": res,
    }
