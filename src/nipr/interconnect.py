"""Redheffer star products, positive feedback, and the NI stability test, in either domain.

A closed loop is internally stable when its spectrum is ``Domain.inside`` at root_cluster, neither
outside nor on the boundary, the rule ``Analysis.strictly_stable`` applies to poles: Re lam <
-root_cluster (1 + |lam|) in continuous time, a margin that grows with |lam|, and |lam| < 1 -
2 root_cluster in discrete time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import CLASSES, DOMAINS, classify, pole_at
from .boundary import is_psd
from .config import DEFAULT, Config
from .errors import IllPosed, PreconditionViolated
from .ratmat import RationalMatrix, rm_eval
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
    inside = DOMAINS[P.domain].inside
    return InterconnectResult(closed, lams, all(inside(l, cfg.root_cluster) for l in lams))


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


def _value(G: RationalMatrix, x):
    """G at the real point x, x = inf included (G proper), as a real matrix."""
    return np.real(G.value_at_inf() if x == np.inf else rm_eval(G, x))


def ni_stability_test(P: RationalMatrix, Q: RationalMatrix, cfg: Config = DEFAULT) -> dict:
    """Eigenvalue test for internal stability of a positive feedback loop.

    With (x0, x_inf) the domain's ``loop_points``, s = 0 and s = inf in
    continuous time (Lanzon & Petersen, IEEE TAC 53(4), 2008) or z = 1 and
    z = -1 in discrete time: the preconditions are that P is NI with no pole
    at x0 or x_inf, Q is weakly strictly NI, P(x_inf) Q(x_inf) = 0 and
    Q(x_inf) >= 0.  The verdict is max eig(P(x0) Q(x0)) < 1, cross-checked
    against the state-space closed loop.
    """
    if P.domain != Q.domain:
        raise ValueError("domain mismatch")
    d = DOMAINS[P.domain]
    x0, xinf = d.loop_points
    # every pole is ``close`` to inf, so a pole at inf is an improper P
    p = pole_at(P, [x for x in (x0, xinf) if x != np.inf], cfg)
    if p is None and xinf == np.inf and not P.is_proper():
        p = np.inf
    if p is not None:
        raise PreconditionViolated(f"P has a pole at {d.var} = {x0:g} or {d.var} = {xinf:g}", witness=p)
    for G, name, class_id in ((P, "P", f"{P.domain[0]}ni"), (Q, "Q", f"{P.domain[0]}wsni")):
        rep = classify(G, class_id, cfg)
        if not rep.verdict:
            raise PreconditionViolated(f"{name} is not {class_id[0].upper()}-{class_id[1:].upper()}",
                                       witness=[c.cid for c in rep.failed()])
    Pinf, Qinf = _value(P, xinf), _value(Q, xinf)
    prod = Pinf @ Qinf
    # P(x_inf) Q(x_inf) = 0 within root_cluster, the relative bound within which two roots count as one
    if np.linalg.norm(prod, 2) > cfg.root_cluster * (1.0 + np.linalg.norm(Pinf, 2) * np.linalg.norm(Qinf, 2)):
        raise PreconditionViolated(f"P({xinf:g}) Q({xinf:g}) != 0", witness=prod)
    if not is_psd(Qinf, cfg.psd_rel):
        raise PreconditionViolated(f"Q({xinf:g}) is not PSD", witness=Qinf)

    M = _value(P, x0) @ _value(Q, x0)
    eigs = np.linalg.eigvals(M)
    # an imaginary part is held to psd_rel, the bound the cone checks put on eigenvalues against the norm
    if np.max(np.abs(eigs.imag)) > cfg.psd_rel * (1.0 + np.linalg.norm(M, 2)):
        raise PreconditionViolated(f"P({x0:g})Q({x0:g}) has non-real eigenvalues", witness=eigs)
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


def star_class_preservation(S1: PartitionedSystem, S2: PartitionedSystem, class_name: str,
                            cfg: Config = DEFAULT) -> dict:
    """Check that the star product of two class members stays in the class: one of the NI classes
    of the systems' domain, whose membership of the star is reported too."""
    classes = [c for c in CLASSES if c[0] == S1.sys.domain[0] and c.endswith("ni")]
    if class_name not in classes:
        raise ValueError(f"unknown class {class_name!r}")
    in1, in2 = classify(tf_of(S1.sys), class_name, cfg).verdict, classify(tf_of(S2.sys), class_name, cfg).verdict
    res = redheffer_star(S1, S2, cfg)
    star_tf = tf_of(res.system)
    membership = {c: classify(star_tf, c, cfg).verdict for c in classes}
    preserved = (not (in1 and in2 and res.internally_stable)) or membership[class_name]
    return {
        "inputs_in_class": (in1, in2),
        "internally_stable": res.internally_stable,
        "star_membership": membership,
        "preserved": preserved,
        "star": res,
    }
