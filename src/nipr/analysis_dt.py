"""Discrete-time classifiers: D-PR / D-SSPR and D-NI / D-SSNI / D-WSNI.

Each classifier lists its conditions over the shared analysis of the matrix
(``analysis.analysis_of``), which writes them once for both domains, the
poles and slopes at the endpoints z = 1 and z = -1 of the upper arc included.
"""

from __future__ import annotations

import numpy as np

from .analysis import analysis_of, pole_at
from .boundary import is_pd, is_psd
from .config import DEFAULT, Config
from .errors import PoleAtPlusMinusOne
from .ratmat import RationalMatrix, rm_eval
from .report import CircleLimits, finish_report


# ---------------------------------------------------------------------------
# positive real


def classify_dpr(F: RationalMatrix, cfg: Config = DEFAULT):
    """Discrete positive realness.

    Analytic outside the closed unit disc, PSD Hermitian part on the circle,
    unit-circle poles simple with Hermitian PSD normalized residue
    K0 = (1/z0) lim (z - z0) F(z).
    """
    a = analysis_of(F, cfg)
    a.require_proper("dpr")
    pole_data = []
    return finish_report("dpr", a.pr_conditions(pole_data), cfg, pole_data=pole_data)


def classify_dsspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """Strong strict discrete positive realness.

    Schur poles, strictly positive Hermitian part on the whole (closed) unit
    circle, and full normal rank of F(z) + F(1/z)^T.  The closed curve makes
    strict positivity equivalent to coercivity; the worst sample margin is reported.
    """
    a = analysis_of(F, cfg)
    return finish_report("dsspr", a.strict_conditions("pr", "dsspr") + [a.full_normal_rank("pr")], cfg)


# ---------------------------------------------------------------------------
# negative imaginary


def classify_dni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Discrete negative imaginary classification.

    Conditions: no poles outside the closed unit disc; PSD defect on the open
    upper arc; interior-arc circle poles simple with Hermitian PSD K0; a pole
    at z = 1 at most double with A2 >= 0 and A1 >= A2; a pole at z = -1 at
    most double with A2 <= 0 and A1 >= -A2.
    """
    a = analysis_of(G, cfg)
    a.require_proper("dni")
    pole_data = []
    return finish_report("dni", a.ni_conditions(pole_data), cfg, pole_data=pole_data)


def classify_dwsni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Weak strict discrete NI: Schur poles, strict defect on (0, pi)."""
    return finish_report("dwsni", analysis_of(G, cfg).strict_conditions("ni", "dwsni"), cfg)


def circle_limits(G: RationalMatrix, cfg: Config = DEFAULT) -> CircleLimits:
    """Q0 and Qpi, the sin-normalized defect limits at z = 1 and z = -1 (``Analysis.slope``).

    A pole at z = 1 or -1 raises PoleAtPlusMinusOne.
    """
    p = pole_at(G, (1.0, -1.0), cfg)
    if p is not None:
        raise PoleAtPlusMinusOne(f"pole at {p} blocks the defect limits")
    a = analysis_of(G, cfg)
    return CircleLimits(Q0=a.slope(1.0)[0], Qpi=a.slope(-1.0)[0])


def classify_dssni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Strong strict discrete NI.

    Adds Q0 > 0 and Qpi > 0 (endpoint slopes of the defect, which must
    vanish there) and full normal rank of G(z) - G(1/z)^T.
    """
    a = analysis_of(G, cfg)
    conds = a.strict_conditions("ni", "dssni")
    slopes, limits = a.slopes()
    conds += [*slopes, a.full_normal_rank("ni")]
    return finish_report("dssni", conds, cfg, limits=CircleLimits(**limits) if limits else None)


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
