"""Shared boundary-curve machinery for the PR/NI classifiers.

Sign conditions are decided in two exact-leaning steps: a dense grid gives the
semidefinite verdict with a relative tolerance, and strictness is decided by
root-finding on the numerator of the determinant of the symbolic defect (an
eigenvalue of a continuous Hermitian family can only change sign through a
zero of the determinant or across a pole).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Config
from .poly import roots, trim
from .ratmat import (
    RationalMatrix,
    _det_rational,
    rm_eval_many,
    rm_mobius,
    rm_poles,
)


def herm(M):
    return 0.5 * (M + M.conj().T)


def psd_margin(M, rel):
    """lambda_min plus the relative slack; >= 0 means PSD within tolerance."""
    H = herm(M)
    lam = np.linalg.eigvalsh(H)
    return float(lam[0] + rel * (1.0 + np.linalg.norm(H, 2)))


def is_psd(M, rel=DEFAULT.psd_rel):
    return psd_margin(M, rel) >= 0.0


def is_nsd(M, rel=DEFAULT.psd_rel):
    return psd_margin(-np.asarray(M), rel) >= 0.0


def is_pd(M, rel=DEFAULT.strict_rel):
    """Strict: lambda_min >= rel * ||M|| with nonzero norm."""
    H = herm(np.asarray(M, dtype=complex))
    nrm = np.linalg.norm(H, 2)
    if nrm <= 0.0:
        return False
    return float(np.linalg.eigvalsh(H)[0]) >= rel * nrm


# ---------------------------------------------------------------------------
# defect / Hermitian-part builders


def defect_ct(G: RationalMatrix) -> RationalMatrix:
    """W(s) = G(s) - G(-s)^T; i W(i w) is the boundary defect."""
    return G - rm_mobius(G, -1.0, 0.0, 0.0, 1.0).transpose()


def ppart_ct(F: RationalMatrix) -> RationalMatrix:
    """H(s) = F(s) + F(-s)^T; H(i w) is the boundary Hermitian part."""
    return F + rm_mobius(F, -1.0, 0.0, 0.0, 1.0).transpose()


def defect_dt(G: RationalMatrix) -> RationalMatrix:
    """V(z) = G(z) - G(1/z)^T; i V(e^{i t}) is the boundary defect."""
    return G - rm_mobius(G, 0.0, 1.0, 1.0, 0.0).transpose()


def ppart_dt(F: RationalMatrix) -> RationalMatrix:
    """H(z) = F(z) + F(1/z)^T."""
    return F + rm_mobius(F, 0.0, 1.0, 1.0, 0.0).transpose()


# ---------------------------------------------------------------------------
# grid scans


def ct_grid(cfg: Config):
    return np.logspace(np.log10(cfg.omega_min), np.log10(cfg.omega_max), cfg.grid_points_ct)


def dt_grid_half(cfg: Config):
    """Uniform interior grid on (0, pi)."""
    return np.linspace(0.0, np.pi, cfg.grid_points_dt + 2)[1:-1]


def dt_grid_full(cfg: Config):
    return np.linspace(0.0, 2.0 * np.pi, cfg.grid_points_dt, endpoint=False)


def grid_psd_scan(R: RationalMatrix, params, to_points, premul, cfg: Config):
    """Minimum relative PSD margin of premul * R(point) over a parameter grid.

    Parameters
    ----------
    params : real array of grid parameters (w or theta)
    to_points : callable mapping the parameter array to boundary points
    premul : complex scalar applied to the evaluated matrices (1 or i)

    Returns
    -------
    worst_margin : float (>= 0 passes), worst_param : float, evaluated : int
    """
    params = np.asarray(params, dtype=float)

    def margins(ts):
        vals, ok = rm_eval_many(R, to_points(ts), cfg)
        out = np.full(ts.size, np.inf)
        for k in range(ts.size):
            if ok[k]:
                out[k] = psd_margin(premul * vals[k], cfg.psd_rel)
        return out

    marg = margins(params)
    if not np.any(np.isfinite(marg)):
        return np.inf, float(params[0]), params.size
    kworst = int(np.nanargmin(np.where(np.isfinite(marg), marg, np.inf)))
    worst, tworst = float(marg[kworst]), float(params[kworst])
    evaluated = params.size
    lo = params[max(kworst - 1, 0)]
    hi = params[min(kworst + 1, params.size - 1)]
    for _ in range(cfg.refine_rounds):
        ts = np.linspace(lo, hi, 5)[1:-1]
        sub = margins(ts)
        evaluated += ts.size
        cand = np.concatenate([[worst], sub[np.isfinite(sub)]])
        kk = int(np.argmin(cand))
        if kk > 0:
            worst = float(cand[kk])
            tworst = float(ts[np.isfinite(sub)][kk - 1])
        width = hi - lo
        lo = max(lo, tworst - width / 4)
        hi = min(hi, tworst + width / 4)
    return worst, tworst, evaluated


# ---------------------------------------------------------------------------
# exact strictness via determinant boundary zeros


def boundary_det_zeros(R: RationalMatrix, region, cfg: Config = DEFAULT):
    """Zeros of det R lying on the boundary region, excluding poles of R.

    region(z, tol) says whether the zero z lies on the region, within tol
    (the regions of each domain are in ``analysis.Domain.det_region``).
    Returns (zeros, identically_zero_flag).
    """
    det = _det_rational(R)
    if det.is_zero(rel=1e-9):
        return [], True
    num = trim(det.num, rel=1e-12)
    zeros = roots(num)
    pole_list = [p for p, _m in rm_poles(R, cfg)]
    tol = 1e-6
    out = []
    for z0 in zeros:
        if any(abs(z0 - p) <= 1e-6 * (1.0 + abs(p)) for p in pole_list):
            continue
        if region(z0, tol):
            out.append(complex(z0))
    return out, False
