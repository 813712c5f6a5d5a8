"""Continuous-time classifiers: C-PR / C-SSPR / C-WSPR and C-NI / C-SSNI / C-WSNI.

Each classifier is ``analysis.classify`` for its class: the conditions are
written once for both domains over the shared analysis of the matrix, and
the continuous-time ``Domain`` adds the pole and the decay at infinity.
"""

from __future__ import annotations

import numpy as np

from .analysis import classify
from .config import DEFAULT, Config
from .poly import RationalScalar, close, cluster_roots, degree, roots
from .ratmat import RationalMatrix


def classify_cpr(F: RationalMatrix, cfg: Config = DEFAULT):
    """C-PR: no open-RHP poles, PSD Hermitian part on the imaginary axis, poles there simple with a Hermitian
    PSD residue, and a pole at infinity at most simple with a PSD coefficient."""
    return classify(F, "cpr", cfg)


def classify_cwspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """C-WSPR: Hurwitz poles and a strict boundary sign."""
    return classify(F, "cwspr", cfg)


def classify_csspr(F: RationalMatrix, cfg: Config = DEFAULT):
    """C-SSPR: C-WSPR, a Hermitian part vanishing no faster than w**-2 at infinity, in every eigenvalue
    direction positively, and full normal rank of F(s) + F(-s)^T."""
    return classify(F, "csspr", cfg)


def classify_cni(G: RationalMatrix, cfg: Config = DEFAULT):
    """C-NI: the five boundary conditions, and a pole at infinity at most double with NSD coefficients."""
    return classify(G, "cni", cfg)


def classify_cwsni(G: RationalMatrix, cfg: Config = DEFAULT):
    """C-WSNI: Hurwitz poles and a strict defect on (0, inf)."""
    return classify(G, "cwsni", cfg)


def classify_cssni(G: RationalMatrix, cfg: Config = DEFAULT):
    """C-SSNI: C-WSNI, a defect vanishing no faster than w**-3 at infinity, Q = lim (1/w) i[G - G*] positive
    definite at the origin, and full normal rank of the defect."""
    return classify(G, "cssni", cfg)


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
        if close(z0, 0.0, cfg.root_cluster):
            origin_mult = m
    rhp_zeros = [z for z in zs if z.real > cfg.root_cluster * (1.0 + abs(z))]
    return {
        "relative_degree": rel_deg,
        "zeros": zs,
        "origin_zero_multiplicity": origin_mult,
        "ni_candidate": (degree(g.num) < 0) or (rel_deg <= 2 and not rhp_zeros) or not g.is_strictly_proper(),
        "ssni_candidate_origin": origin_mult <= 1,
    }
