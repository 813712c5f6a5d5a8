"""Where the boundary scans read the sign forms: from G itself, or from the rational form.

On the boundary the mirror of a point x is conj(x), so for a real-rational G
the forms are 2 herm(G(x)) ("pr") and 2 herm(i G(x)) ("ni") there, and the
scans evaluate G (``Analysis.sign_source``).  Inputs with a pole on the
boundary, and improper continuous-time inputs, keep the rational form: its
reduction cancels the principal parts at those poles exactly, while the
rounded G(x) + G(x)^H keeps a term of order eps ||G||^2 near them, far above
``psd_rel``.  The guards are lossless sums and improper matrices whose verdict
is right only with the rational form.  The parity test checks that, on inputs
without boundary poles, both sources give the same scan.
"""

import numpy as np
import pytest

import corpus
from nipr import boundary
from nipr.analysis import DOMAINS, PREMUL, analysis_of
from nipr.analysis_ct import classify_cni, classify_cpr
from nipr.analysis_dt import classify_dni, classify_dpr
from nipr.boundary import grid_psd_scan
from nipr.config import DEFAULT
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_cayley

CLASSIFY = {("ct", "pr"): classify_cpr, ("ct", "ni"): classify_cni,
            ("dt", "pr"): classify_dpr, ("dt", "ni"): classify_dni}


def failed(report):
    return [(cond.cid, cond.witness) for cond in report.conditions if not cond.passed]


def dt_lossless(rng, m, form, angles):
    """sum_k R_k f_k(z) with PSD R_k: f_k = (z^2 - 1)/(z^2 - 2 cos t_k z + 1) (D-PR) or
    sin t_k z/(z^2 - 2 cos t_k z + 1) (D-NI).  Both are lossless: poles at e^{+-i t_k}
    with PSD residues, and a boundary form that is zero everywhere else."""
    scalars = []
    for t in angles:
        den = [1.0, -2.0 * np.cos(t), 1.0]
        scalars.append(RationalScalar([-1.0, 0.0, 1.0], den) if form == "pr"
                       else RationalScalar([0.0, np.sin(t)], den))
    return corpus.weighted_modes([corpus.psd(rng, m) for _ in scalars], scalars, np.zeros((m, m)), "dt")


def mode_parameters(rng, grid, lo, hi, n=3):
    """n mode parameters; every other one is a point of the classifier's own grid."""
    return [grid[rng.integers(grid.size)] if k % 2 == 0 else rng.uniform(lo, hi) for k in range(n)]


def dt_case(seed, m, form):
    rng = np.random.default_rng([seed, m])
    grid = boundary.dt_grid_full(DEFAULT) if form == "pr" else boundary.dt_grid_half(DEFAULT)
    angles = mode_parameters(rng, grid[(grid > 0.05) & (grid < np.pi - 0.05)], 0.1, 3.0)
    return dt_lossless(rng, m, form, angles)


def ct_case(seed, m, form):
    """The Cayley image s = (z - 1)/(z + 1) of a discrete-time lossless sum, with t_k = 2 atan(w_k).

    "pr": sum_k R_k s/(s^2 + w_k^2) up to scale, plus R_0/s; "ni": a constant plus
    sum_k R_k/(s^2 + w_k^2).  Every other w_k is a frequency of the CT grid.  The map
    leaves the coefficients rounded, so the poles sit about 1e-16 off the axis.
    """
    rng = np.random.default_rng([seed, m])
    grid = boundary.ct_grid(DEFAULT)
    omegas = mode_parameters(rng, grid[(grid > 0.05) & (grid < 20.0)], 0.1, 20.0)
    G = rm_cayley(dt_lossless(rng, m, form, 2.0 * np.arctan(omegas)))
    if form == "ni":
        return G
    R0 = corpus.psd(rng, m)
    return G + RationalMatrix([[RationalScalar([r], [0.0, 1.0]) for r in row] for row in R0], "ct")


CASES = {"ct": ct_case, "dt": dt_case}


def improper_ni(c):
    """2/(s^2 + 3s + 2) + 1 - c s^2: C-NI (a stable NI part and an NSD s^2 coefficient)."""
    return RationalMatrix([[RationalScalar([2.0], [2.0, 3.0, 1.0]) + RationalScalar([1.0, 0.0, -c])]], "ct")


# (domain, form, m, seed): cases the rational form decides right and a scan of G gets wrong
GUARDS = [("ct", "pr", 1, 0), ("ct", "pr", 2, 0), ("ct", "pr", 3, 0),
          ("ct", "ni", 1, 1), ("ct", "ni", 2, 0), ("ct", "ni", 3, 0),
          ("dt", "pr", 1, 1), ("dt", "pr", 2, 1), ("dt", "pr", 3, 0),
          ("dt", "ni", 1, 6), ("dt", "ni", 2, 2), ("dt", "ni", 3, 4)]


@pytest.mark.parametrize("domain,form,m,seed", GUARDS)
def test_lossless_sum_with_poles_on_grid_points_is_accepted(domain, form, m, seed):
    report = CLASSIFY[domain, form](CASES[domain](seed, m, form))
    assert report.verdict, failed(report)


@pytest.mark.parametrize("c", [40.0, 400.0, 4000.0])
def test_improper_ni_with_a_large_s2_term_is_accepted(c):
    report = classify_cni(improper_ni(c))
    assert report.verdict, failed(report)


@pytest.mark.xfail(strict=True, reason="the rational form itself leaves a rounding spike at a pole "
                                       "angle of some three-mode lossless sums (ROADMAP item 2)")
def test_three_mode_lossless_dpr_is_accepted():
    report = classify_dpr(dt_case(8, 3, "pr"))
    assert report.verdict, failed(report)


def test_sign_source_reads_g_unless_a_pole_lies_on_the_boundary():
    for gen in ("ct_ni", "ct_pr", "dt_ni", "dt_pr"):
        G = getattr(corpus, gen)(np.random.default_rng(0), m=2)
        for form in ("pr", "ni"):
            assert analysis_of(G).sign_source(form) == (G, 2.0 * PREMUL[form])
    for G in (dt_case(1, 2, "pr"), ct_case(0, 2, "ni"), improper_ni(40.0)):
        a = analysis_of(G)
        for form in ("pr", "ni"):
            R, premul = a.sign_source(form)
            assert R is a.matrix(form) and premul == PREMUL[form]


GENERATORS = ("ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed")


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_scan_from_g_agrees_with_the_rational_form(gen, m):
    """The rational builders are the reference: same verdict, worst margin within 1e-9 (1 + |margin|)."""
    for seed in range(3):
        G = getattr(corpus, gen)(np.random.default_rng([seed, m]), m=m)
        dom = DOMAINS[G.domain]
        for form in ("pr", "ni"):
            params = dom.grid[form](DEFAULT)
            worst, _, _ = grid_psd_scan(G, params, dom.point, 2.0 * PREMUL[form], DEFAULT)
            ref, _, _ = grid_psd_scan(dom.matrix[form](G), params, dom.point, PREMUL[form], DEFAULT)
            assert (worst >= 0.0) == (ref >= 0.0)
            assert abs(worst - ref) <= 1e-9 * (1.0 + abs(ref)), (seed, form, worst, ref)
