"""Structural maps between the positive-real and negative-imaginary classes."""

from __future__ import annotations

import numpy as np

from .analysis import CT_DOMAIN, pole_at
from .analysis_ct import classify_csspr, classify_cssni
from .config import DEFAULT, Config
from .errors import (
    AsymmetricD,
    AsymmetricOffset,
    CancellationFailure,
    EpsilonSearchFailed,
    ImproperInput,
    PoleAtMinusOne,
)
from .poly import RationalScalar
from .ratmat import CT, DT, RationalMatrix, rm_eval, rm_poles
from .realization import StateSpace, is_minimal, require_no_eigenvalue_at


def _require_symmetric_constant(M, what):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if np.linalg.norm(M - M.T, 2) > 1e-10 * (1.0 + np.linalg.norm(M, 2)):
        if what == "offset":
            raise AsymmetricOffset("offset matrix must be symmetric")
        raise AsymmetricD("constant matrix D must be symmetric")
    return M


def _times_factors(G: RationalMatrix, cfg: Config, **factors) -> RationalMatrix:
    """G times (x - zero)/(x - pole) entry by entry, finding no roots (``times_factors``), nor does G - a constant."""
    return RationalMatrix([[e.times_factors(cfg=cfg, **factors) for e in row] for row in G.entries], G.domain)


def ct_ni_to_pr(G: RationalMatrix, cfg: Config = DEFAULT) -> RationalMatrix:
    """F(s) = s * (G(s) - G(inf)); maps NI transfer matrices to PR ones."""
    if not G.is_proper():
        raise ImproperInput("the NI-to-PR map needs a proper matrix")
    return _times_factors(G - G.value_at_inf(), cfg, zero=0.0)


def ct_pr_to_ni(F: RationalMatrix, D) -> RationalMatrix:
    """G(s) = (1/s) F(s) + D; maps PR transfer matrices to NI ones."""
    D = _require_symmetric_constant(D, "D")
    inv_s = RationalScalar([1.0], [0.0, 1.0])
    return F.scalar_mul(inv_s) + RationalMatrix.constant(D, CT)


def _certified_epsilon(R: RationalMatrix, make, classify, what, cfg: Config):
    """(make(eps), eps) for the first eps that classify certifies.

    eps starts at half the pole-abscissa margin of R and halves, at most 30 times.  A pole on the
    imaginary axis (within root_cluster) leaves no margin, and no eps is tried.
    """
    poles = [p for p, _ in rm_poles(R, cfg)]
    if any(CT_DOMAIN.on_boundary(p, cfg.root_cluster) for p in poles):
        raise EpsilonSearchFailed(f"a pole on the imaginary axis leaves no eps for the {what} verdict")
    eps = 0.5 * min(abs(p.real) for p in poles) if poles else 1.0
    history = []
    for _ in range(30):
        out = make(eps)
        ok = classify(out, cfg).verdict
        history.append((eps, ok))
        if ok:
            return out, eps
        eps *= 0.5
    raise EpsilonSearchFailed(f"no eps in (0, eps_max] certified the {what} verdict", history=history)


def csspr_to_cssni(F: RationalMatrix, D, cfg: Config = DEFAULT):
    """G = F(s)/(s + eps) + D for a certified eps with G strongly strict NI (classify_cssni)."""
    D = _require_symmetric_constant(D, "D")
    return _certified_epsilon(
        F, lambda eps: F.scalar_mul(RationalScalar([1.0], [eps, 1.0])) + RationalMatrix.constant(D, CT),
        classify_cssni, "NI", cfg)


def cssni_to_csspr(G: RationalMatrix, cfg: Config = DEFAULT):
    """F = (s + eps) * (G(s) - G(inf)) for a certified eps with F strongly strict PR (classify_csspr)."""
    if not G.is_proper():
        raise ImproperInput("the NI-to-PR map needs a proper matrix")
    core = G - G.value_at_inf()
    return _certified_epsilon(G, lambda eps: _times_factors(core, cfg, zero=-eps), classify_csspr, "PR", cfg)


# ---------------------------------------------------------------------------
# discrete time


def dt_ni_to_pr(G: RationalMatrix, cfg: Config = DEFAULT) -> RationalMatrix:
    """F(z) = (z-1)/(z+1) * [G(z) - G(-1)]; maps discrete NI to discrete PR.

    The apparent pole at z = -1 cancels against the zero of G(z) - G(-1);
    the cancellation is verified explicitly.
    """
    if not G.is_proper():
        raise ImproperInput("the NI-to-PR map needs a proper matrix")
    if pole_at(G, (-1.0,), cfg) is not None:
        raise PoleAtMinusOne("G has a pole at z = -1")
    Gm1 = np.real(rm_eval(G, -1.0))
    try:
        return _times_factors(G - Gm1, cfg, zero=1.0, pole=-1.0)
    except CancellationFailure as exc:
        raise CancellationFailure("residual pole at z = -1 after the map") from exc


def dt_pr_to_ni(F: RationalMatrix, offset) -> RationalMatrix:
    """G0(z) = (z+1)/(z-1) F(z) + offset; inverse of the discrete NI-to-PR map."""
    offset = _require_symmetric_constant(offset, "offset")
    inv_blaschke = RationalScalar([1.0, 1.0], [-1.0, 1.0])
    return F.scalar_mul(inv_blaschke) + RationalMatrix.constant(offset, DT)


def dt_ni_to_pr_ss(ss: StateSpace, cfg: Config = DEFAULT):
    """State-space form of the discrete NI-to-PR map.

    Returns (StateSpace, minimal_flag); the realization keeps (A, B) and maps
    C -> C(A-I)(A+I)^-1, D -> C(A+I)^-1 B.  It is minimal exactly when A has
    no eigenvalue at 1 (given a minimal input).
    """
    if ss.domain != DT:
        raise ValueError("input must be discrete time")
    n = ss.order
    if n == 0:
        out = StateSpace(ss.A, ss.B, ss.C, np.zeros_like(ss.D), DT)
        return out, True
    I = np.eye(n)
    require_no_eigenvalue_at(ss.A, -1.0)
    Minv = np.linalg.inv(ss.A + I)
    Cn = ss.C @ (ss.A - I) @ Minv
    Dn = ss.C @ Minv @ ss.B
    out = StateSpace(ss.A, ss.B, Cn, Dn, DT)
    return out, is_minimal(out, cfg)
