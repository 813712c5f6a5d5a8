"""Discrete-time classifiers: D-PR / D-SSPR and D-NI / D-SSNI / D-WSNI.

Each classifier is ``analysis.classify`` for its class: the conditions are
written once for both domains over the shared analysis of the matrix, the
poles and slopes at the endpoints z = 1 and z = -1 of the upper arc included.
"""

from __future__ import annotations

import numpy as np

from .analysis import analysis_of, classify, pole_at
from .boundary import is_pd, is_psd
from .config import DEFAULT, Config
from .errors import PoleAtPlusMinusOne
from .ratmat import RationalMatrix, rm_eval
from .report import CircleLimits


def classify_dpr(F: RationalMatrix, cfg: Config = DEFAULT):
    """D-PR: analytic outside the closed unit disc, PSD Hermitian part on the circle, and poles there simple
    with a Hermitian PSD normalized residue K0 = (1/z0) lim (z - z0) F(z)."""
    return classify(F, "dpr", cfg)


def classify_dsspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """D-SSPR: Schur poles, a strictly positive Hermitian part on the whole (closed) circle, which makes
    it coercive, and full normal rank of F(z) + F(1/z)^T."""
    return classify(F, "dsspr", cfg)


def classify_dni(G: RationalMatrix, cfg: Config = DEFAULT):
    """D-NI: no poles outside the closed unit disc, PSD defect on the open upper arc, poles inside the arc
    simple with Hermitian PSD K0, a pole at z = 1 at most double with A2 >= 0 and A1 >= A2, and one at
    z = -1 at most double with A2 <= 0 and A1 >= -A2."""
    return classify(G, "dni", cfg)


def classify_dwsni(G: RationalMatrix, cfg: Config = DEFAULT):
    """D-WSNI: Schur poles and a strict defect on (0, pi)."""
    return classify(G, "dwsni", cfg)


def classify_dssni(G: RationalMatrix, cfg: Config = DEFAULT):
    """D-SSNI: D-WSNI, positive definite slopes Q0 and Qpi of the defect at z = 1 and z = -1, where it
    must vanish, and full normal rank of G(z) - G(1/z)^T."""
    return classify(G, "dssni", cfg)


def circle_limits(G: RationalMatrix, cfg: Config = DEFAULT) -> CircleLimits:
    """Q0 and Qpi, the sin-normalized defect limits at z = 1 and z = -1 (``Analysis.slope``).

    A pole at z = 1 or -1 raises PoleAtPlusMinusOne.
    """
    p = pole_at(G, (1.0, -1.0), cfg)
    if p is not None:
        raise PoleAtPlusMinusOne(f"pole at {p} blocks the defect limits")
    a = analysis_of(G, cfg)
    return CircleLimits(Q0=a.slope(1.0)[0], Qpi=a.slope(-1.0)[0])


# ---------------------------------------------------------------------------
# gain ordering


def gain_order_check(G: RationalMatrix, cfg: Config = DEFAULT):
    """G(1) - G(-1) with PSD and PD verdicts.

    The low-frequency gain of a discrete NI system dominates its
    high-frequency gain; the difference is PSD for D-NI systems and PD for
    D-WSNI systems.
    """
    p = pole_at(G, (1.0, -1.0), cfg)
    if p is not None:
        raise PoleAtPlusMinusOne(f"pole at {p} blocks the gain comparison")
    M = np.real(rm_eval(G, 1.0) - rm_eval(G, -1.0))
    return M, is_psd(M, cfg.psd_rel), is_pd(M, cfg.strict_rel)
