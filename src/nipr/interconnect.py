"""Redheffer star products, positive feedback, and the NI stability test."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import pole_at
from .analysis_dt import classify_dni, classify_dssni, classify_dwsni
from .config import DEFAULT, Config
from .errors import IllPosed, PreconditionViolated
from .ratmat import DT, RationalMatrix, rm_eval
from .realization import StateSpace, minimal_realization, spectrum, tf_of


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
    if domain == DT:
        return all(abs(l) < 1.0 - tol for l in lams)
    return all(l.real < -tol for l in lams)


def _coupling_inverse(K, cfg: Config, what):
    """K^-1 for a well-posed loop: the smallest singular value of K exceeds rank_rel times its largest."""
    sv = np.linalg.svd(K, compute_uv=False)
    if not sv[-1] > cfg.rank_rel * sv[0]:
        raise IllPosed(what)
    return np.linalg.inv(K)


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
    n1, n2 = P.order, Q.order
    # S1 blocks: outputs (kept m1-a | fed a), inputs (kept m1-b | fed b)
    C1t, C1b = P.C[: m1 - a, :], P.C[m1 - a:, :]
    B1l, B1r = P.B[:, : m1 - b], P.B[:, m1 - b:]
    D111, D112 = P.D[: m1 - a, : m1 - b], P.D[: m1 - a, m1 - b:]
    D121, D122 = P.D[m1 - a:, : m1 - b], P.D[m1 - a:, m1 - b:]
    # S2 blocks: outputs (fed b | kept m2-b), inputs (fed a | kept m2-a)
    C2t, C2b = Q.C[:b, :], Q.C[b:, :]
    B2l, B2r = Q.B[:, :a], Q.B[:, a:]
    E11, E12 = Q.D[:b, :a], Q.D[:b, a:]
    E21, E22 = Q.D[b:, :a], Q.D[b:, a:]

    K = np.block([[np.eye(a), -D122], [-E11, np.eye(b)]])
    Kinv = _coupling_inverse(K, cfg, "the interconnection coupling matrix is singular")
    # internal signals [u_hat; u_tilde] = Kinv (Gx x + Gu u)
    Gx = np.block([
        [C1b, np.zeros((a, n2))],
        [np.zeros((b, n1)), C2t],
    ])
    Gu = np.block([
        [D121, np.zeros((a, m2 - a))],
        [np.zeros((b, m1 - b)), E12],
    ])
    W = Kinv @ Gx
    V = Kinv @ Gu
    Wu, Wt = W[:a, :], W[a:, :]       # u_hat, u_tilde parts over states
    Vu, Vt = V[:a, :], V[a:, :]
    A = np.block([
        [P.A, np.zeros((n1, n2))],
        [np.zeros((n2, n1)), Q.A],
    ]) + np.vstack([B1r @ Wt, B2l @ Wu])
    B = np.block([
        [B1l, np.zeros((n1, m2 - a))],
        [np.zeros((n2, m1 - b)), B2r],
    ]) + np.vstack([B1r @ Vt, B2l @ Vu])
    C = np.block([
        [C1t, np.zeros((m1 - a, n2))],
        [np.zeros((m2 - b, n1)), C2b],
    ]) + np.vstack([D112 @ Wt, E21 @ Wu])
    D = np.block([
        [D111, np.zeros((m1 - a, m2 - a))],
        [np.zeros((m2 - b, m1 - b)), E22],
    ]) + np.vstack([D112 @ Vt, E21 @ Vu])
    star = StateSpace(A, B, C, D, P.domain)
    lams = spectrum(star)
    return InterconnectResult(star, lams, _stable(lams, P.domain))


def internal_stability(P: StateSpace, Q: StateSpace, cfg: Config = DEFAULT) -> InterconnectResult:
    """Positive feedback loop u_P = w1 + y_Q, u_Q = w2 + y_P."""
    if P.domain != Q.domain:
        raise ValueError("domain mismatch")
    if P.size != Q.size:
        raise ValueError("dimension mismatch")
    m = P.size
    Kinv = _coupling_inverse(np.eye(m) - Q.D @ P.D, cfg, "I - D_Q D_P is singular")
    n1, n2 = P.order, Q.order
    # u_P = Kinv (D_Q C_P x_P + C_Q x_Q) + inputs
    UP = np.hstack([Kinv @ Q.D @ P.C, Kinv @ Q.C])
    A = np.block([
        [P.A, np.zeros((n1, n2))],
        [np.zeros((n2, n1)), Q.A],
    ]) + np.vstack([P.B @ UP, Q.B @ (np.hstack([P.C, np.zeros((m, n2))]) + P.D @ UP)])
    # only the closed-loop A matters for the stability verdict; expose the
    # w1 -> y_P channel so the result is a square system
    BP = np.vstack([P.B, np.zeros((n2, m))])
    closed = StateSpace(A, BP, np.hstack([P.C, np.zeros((m, n2))]), P.D, P.domain)
    lams = spectrum(closed)
    return InterconnectResult(closed, lams, _stable(lams, P.domain))


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
    Pm1 = np.real(rm_eval(P, -1.0, cfg))
    Qm1 = np.real(rm_eval(Q, -1.0, cfg))
    prod = Pm1 @ Qm1
    tol = 1e-7 * (1.0 + np.linalg.norm(Pm1, 2) * np.linalg.norm(Qm1, 2))
    if np.linalg.norm(prod, 2) > tol:
        raise PreconditionViolated("P(-1) Q(-1) != 0", witness=prod)
    lamq = np.linalg.eigvalsh(0.5 * (Qm1 + Qm1.T))
    if lamq[0] < -1e-8 * (1.0 + abs(lamq[-1])):
        raise PreconditionViolated("Q(-1) is not PSD", witness=Qm1)

    M = np.real(rm_eval(P, 1.0, cfg)) @ np.real(rm_eval(Q, 1.0, cfg))
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
    in1 = clf(tf_of(S1.sys), cfg).verdict
    in2 = clf(tf_of(S2.sys), cfg).verdict
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
