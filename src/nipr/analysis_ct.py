"""Continuous-time classifiers: C-PR / C-SSPR / C-WSPR and C-NI / C-SSNI / C-WSNI.

Each classifier lists its conditions over the shared analysis of the matrix
(``analysis.analysis_of``), which writes them once for both domains.  Only
continuous time has the pole at infinity and the decay at infinity.
"""

from __future__ import annotations

import numpy as np

from .analysis import PREMUL, analysis_of, hermitian_enough
from .boundary import herm, is_nsd, is_psd
from .config import DEFAULT, Config
from .poly import RationalScalar, cluster_roots, degree, roots
from .ratmat import RationalMatrix
from .report import Condition, StrictnessLimits, finish_report
from .series import decay_condition


def _decay_at_infinity(a, form, order):
    """The form's boundary value herm(PREMUL * R(i w)) vanishes no faster than w**-order, in every
    eigenvalue direction positively.

    G(s) = sum_k c_k s**-k at infinity (G proper, ``Analysis.laurent``), so
    G(-s)^T has the coefficients (-1)**k c_k^T and R the coefficients
    c_k +- (-1)**k c_k^T.  Returns the condition and its sigma0 margin.
    """
    sign = 1.0 if form == "pr" else -1.0
    laurent = [c + sign * (-1.0) ** k * c.T for k, c in enumerate(a.laurent())]
    coeffs = [np.real(herm(PREMUL[form] * (1j) ** -k * c.astype(complex))) for k, c in enumerate(laurent)]
    scale = 1.0 + max(np.linalg.norm(c, 2) for c in coeffs)
    ok, margin, worst_order = decay_condition(coeffs, order, 1e-11 * scale)
    wit = {"sigma0_margin": margin, "worst_order": worst_order}
    if order == 2 and not ok and worst_order > 2:
        wit["omega2_limit"] = 0.0
    return Condition("decay-at-infinity", ok, wit), margin


# ---------------------------------------------------------------------------
# positive real


def classify_cpr(F: RationalMatrix, cfg: Config = DEFAULT):
    """Positive realness via the boundary characterization.

    Checks: no open-RHP poles; PSD Hermitian part on the imaginary axis;
    imaginary-axis poles simple with Hermitian PSD residue; pole at infinity
    at most simple with PSD coefficient.
    """
    a = analysis_of(F, cfg)
    pole_data = []
    conds = a.pr_conditions(pole_data)
    ix = a.infinity()
    K_inf = None
    if ix.polynomial_degree == 0:
        conds.append(Condition("pole-at-infinity", True, {}))
    elif ix.polynomial_degree == 1:
        K_inf = ix.poly_coeffs[0]
        conds.append(Condition("pole-at-infinity", hermitian_enough(K_inf) and is_psd(K_inf, cfg.psd_rel),
                               {"K_inf": K_inf}))
    else:
        conds.append(Condition("pole-at-infinity", False, {"degree": ix.polynomial_degree}))
    return finish_report("cpr", conds, cfg, limits=StrictnessLimits(K_inf=K_inf), pole_data=pole_data)


def classify_cwspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """Weak strict positive realness: Hurwitz poles and strict boundary sign."""
    return finish_report("cwspr", analysis_of(F, cfg).strict_conditions("pr", "cwspr"), cfg)


def classify_csspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """Strong strict positive realness.

    Adds the decay condition at infinity (the Hermitian part may vanish no
    faster than w**-2, all eigenvalue directions positive) and full normal
    rank of F(s) + F(-s)^T.
    """
    a = analysis_of(F, cfg)
    conds = a.strict_conditions("pr", "csspr")
    decay, margin = _decay_at_infinity(a, "pr", 2)
    conds += [decay, a.full_normal_rank("pr")]
    return finish_report("csspr", conds, cfg, limits=StrictnessLimits(sigma0_margin=margin))


# ---------------------------------------------------------------------------
# negative imaginary


def classify_cni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Negative imaginary classification via the five boundary conditions."""
    a = analysis_of(G, cfg)
    pole_data = []
    conds = a.ni_conditions(pole_data)
    ix = a.infinity()
    if ix.polynomial_degree == 0:
        conds.append(Condition("pole-at-infinity", True, {}))
    elif ix.polynomial_degree <= 2:
        ok = all(hermitian_enough(A) and is_nsd(A, cfg.psd_rel) for A in ix.poly_coeffs)
        conds.append(Condition("pole-at-infinity", ok, {"coeffs": ix.poly_coeffs}))
    else:
        conds.append(Condition("pole-at-infinity", False, {"degree": ix.polynomial_degree}))
    return finish_report("cni", conds, cfg, pole_data=pole_data)


def classify_cwsni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Weak strict negative imaginary: Hurwitz poles, strict defect on (0, inf)."""
    return finish_report("cwsni", analysis_of(G, cfg).strict_conditions("ni", "cwsni"), cfg)


def classify_cssni(G: RationalMatrix, cfg: Config = DEFAULT):
    """Strong strict negative imaginary.

    Adds: defect decays no faster than w**-3 at infinity (sigma0 margin from
    the exact asymptotic expansion); Q = lim (1/w) i[G - G*] positive definite
    at the origin; full normal rank of the defect.
    """
    a = analysis_of(G, cfg)
    conds = a.strict_conditions("ni", "cssni")
    decay, margin = _decay_at_infinity(a, "ni", 3)
    slopes, limits = a.slopes()
    conds += [decay, *slopes, a.full_normal_rank("ni")]
    return finish_report("cssni", conds, cfg, limits=StrictnessLimits(Q=limits.get("Q"), sigma0_margin=margin))


# ---------------------------------------------------------------------------
# scalar structure validators


def scalar_ni_structure_checks(g: RationalScalar, cfg: Config = DEFAULT):
    """Structural facts a scalar NI candidate must satisfy.

    Reports the relative degree, the zeros, and the multiplicity of any zero
    at the origin; flags violations of the necessary conditions for strictly
    proper NI (relative degree <= 2, closed-LHP zeros) and for strict-NI
    candidacy with g(0) = 0 (simple origin zero).
    """
    rel_deg = g.relative_degree()
    zs = list(roots(g.num))
    origin_mult = 0
    for z0, m in cluster_roots(np.asarray(zs), tol=cfg.root_cluster):
        if abs(z0) <= cfg.root_cluster:
            origin_mult = m
    rhp_zeros = [z for z in zs if z.real > cfg.root_cluster * (1.0 + abs(z))]
    return {
        "relative_degree": rel_deg,
        "zeros": zs,
        "origin_zero_multiplicity": origin_mult,
        "ni_candidate": (degree(g.num) < 0) or (rel_deg <= 2 and not rhp_zeros) or not g.is_strictly_proper(),
        "ssni_candidate_origin": origin_mult <= 1,
    }
