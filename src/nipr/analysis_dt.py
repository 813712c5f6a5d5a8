"""Discrete-time classifiers: D-PR / D-SSPR and D-NI / D-SSNI / D-WSNI.

Each classifier lists its conditions over the shared analysis of the matrix
(``analysis.analysis_of``).  What only discrete time has is the pair of
endpoints z = 1 and z = -1 of the upper arc: the poles there and the slopes
of the defect there (``circle_limits``).
"""

from __future__ import annotations

import numpy as np

from .analysis import analysis_of, hermitian_enough, near, pole_at
from .boundary import herm, is_pd, is_psd
from .config import DEFAULT, Config
from .errors import PoleAtPlusMinusOne
from .ratmat import RationalMatrix, rm_eval
from .report import CircleLimits, Condition, finish_report
from .series import matrix_taylor


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
    conds = [
        a.no_unstable_poles("pr"),
        a.boundary_sign("pr"),
        a.pr_boundary_poles("circle-poles", lambda pd, p: pd.residue_A1 / p, "K0", pole_data),
    ]
    return finish_report("dpr", conds, cfg, pole_data=pole_data)


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


def _endpoint_pole_witness(a, z0, mult, pole_data):
    """None when the pole at z0 = 1 or -1 is at most double with z0 A2 >= 0 and A1 >= z0 A2, else a witness."""
    if mult > 2:
        return {"multiplicity": mult}
    pd = a.residue(z0)
    pole_data.append(pd)
    A1 = np.real(pd.residue_A1)
    A2 = np.real(pd.quad_residue_A2)
    rel = a.cfg.psd_rel
    if (hermitian_enough(pd.residue_A1) and hermitian_enough(pd.quad_residue_A2)
            and is_psd(z0 * A2, rel) and is_psd(A1 - z0 * A2, rel)):
        return None
    return {"A1": A1, "A2": A2}


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
    conds = a.symmetry() + [a.no_unstable_poles("ni"), a.boundary_sign("ni")]
    arc_wit, end_wit = None, {1.0: None, -1.0: None}
    for p, mult in a.pole_split()[1]:
        z0 = near(p, (1.0, -1.0), cfg)
        if z0 is None:
            arc_wit = a.simple_pole_witness(p, mult, pole_data) or arc_wit
        else:
            end_wit[z0] = _endpoint_pole_witness(a, z0, mult, pole_data) or end_wit[z0]
    conds.append(Condition("arc-poles", arc_wit is None, arc_wit or {}))
    conds.append(Condition("pole-at-plus-one", end_wit[1.0] is None, end_wit[1.0] or {}))
    conds.append(Condition("pole-at-minus-one", end_wit[-1.0] is None, end_wit[-1.0] or {}))
    return finish_report("dni", conds, cfg, pole_data=pole_data)


def classify_dwsni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Weak strict discrete NI: Schur poles, strict defect on (0, pi)."""
    return finish_report("dwsni", analysis_of(G, cfg).strict_conditions("ni", "dwsni"), cfg)


def circle_limits(G: RationalMatrix, cfg: Config = DEFAULT) -> CircleLimits:
    """Q0 and Qpi, the sin-normalized defect limits at z = 1 and z = -1.

    The defect V(z) = G(z) - G(1/z)^T has V'(z0) = G'(z0) + G'(z0)^T at
    z0 = 1, -1, so both limits are -(G'(z0) + G'(z0)^T), from the Taylor
    expansion of G, never by dividing by sin(theta).  A pole at z = 1 or -1
    raises PoleAtPlusMinusOne.
    """
    p = pole_at(G, (1.0, -1.0), cfg)
    if p is not None:
        raise PoleAtPlusMinusOne(f"pole at {p} blocks the defect limits")

    def limit(z0):
        d = matrix_taylor(G, z0, 2)[1]  # G'(z0)
        return -np.real(herm(d + d.T))
    return CircleLimits(Q0=limit(1.0), Qpi=limit(-1.0))


def classify_dssni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Strong strict discrete NI.

    Adds Q0 > 0 and Qpi > 0 (endpoint slopes of the defect) and full normal
    rank of G(z) - G(1/z)^T.
    """
    a = analysis_of(G, cfg)
    conds = a.strict_conditions("ni", "dssni")
    lim = None
    if a.strictly_stable(cfg.root_cluster):
        lim = circle_limits(G, cfg)
        conds.append(Condition("slope-at-one", is_pd(lim.Q0, cfg.strict_rel), {"Q0": lim.Q0}))
        conds.append(Condition("slope-at-minus-one", is_pd(lim.Qpi, cfg.strict_rel), {"Qpi": lim.Qpi}))
    else:
        conds.append(Condition("slope-at-one", False, {"note": "boundary pole prevents the limit"}))
        conds.append(Condition("slope-at-minus-one", False, {"note": "boundary pole prevents the limit"}))
    conds.append(a.full_normal_rank("ni"))
    return finish_report("dssni", conds, cfg, limits=lim)


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
