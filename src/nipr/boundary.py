"""Shared boundary-curve machinery for the PR/NI classifiers.

A sign form is F(x) + F(mirror(x))^T ("pr") or G(x) - G(mirror(x))^T ("ni"),
with mirror s -> -s (continuous time) or z -> 1/z (discrete time).  On the
boundary the mirror of x is conj(x), so for a real-rational G the boundary
values of the forms are 2 herm(G(x)) and, times i, 2 herm(i G(x)).  The
classifiers read them from G on the boundary, with the principal parts at
boundary poles split off and their share added in closed form
(``analysis.Analysis.sign_terms``).  The rational builders (``ppart_ct``,
``defect_ct``, ``ppart_dt``, ``defect_dt``) are not on that path: they are the
reference that tests compare the scans against.

Sign conditions are decided in two steps: a dense grid gives the
semidefinite verdict with a relative tolerance, and strictness asks whether
the boundary form becomes singular anywhere on the boundary (an eigenvalue of
a continuous Hermitian family can only change sign where the form is
singular).  That crossing test runs on a state-space realization: the
boundary frequencies where det R vanishes are finite zeros of a realization
of R built from (A, B, C, D), with no rational arithmetic.

The grid step is batched: ``rm_eval_many`` evaluates the whole grid at once and
``psd_margin`` takes the margins of the (npts, m, m) stack with one ``eigvalsh``, with
max |lambda| as ||H||_2 (no SVD); ``is_psd``, ``is_nsd`` and ``is_pd`` are its one-matrix case.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Config
from .errors import RootFindingFailure
from .ratmat import CT, RationalMatrix, full_rank_somewhere, generic_points, rm_eval_many, rm_mobius


def herm(M):
    """Hermitian part of a matrix, or of each matrix of an (npts, m, m) stack."""
    M = np.asarray(M)
    return 0.5 * (M + np.swapaxes(M, -1, -2).conj())


def _spectrum_ends(M):
    """(lambda_min, ||H||_2) of H = herm(M) per matrix of a stack, from one stacked eigvalsh:
    H is Hermitian, so ||H||_2 = max |lambda| and no SVD is needed."""
    lam = np.linalg.eigvalsh(herm(M))
    return lam[..., 0], np.abs(lam).max(axis=-1)


def psd_margin(M, rel):
    """lambda_min plus the relative slack, per matrix of a stack; >= 0 means PSD within tolerance."""
    lo, nrm = _spectrum_ends(M)
    return lo + rel * (1.0 + nrm)


def is_psd(M, rel=DEFAULT.psd_rel):
    return bool(psd_margin(M, rel) >= 0.0)


def is_nsd(M, rel=DEFAULT.psd_rel):
    return bool(psd_margin(-np.asarray(M), rel) >= 0.0)


def is_pd(M, rel=DEFAULT.strict_rel):
    """Strict: lambda_min >= rel * ||M|| with nonzero norm."""
    lo, nrm = _spectrum_ends(np.asarray(M, dtype=complex))
    return bool(nrm > 0.0 and lo >= rel * nrm)


# ---------------------------------------------------------------------------
# defect / Hermitian-part builders (the rational forms; a reference for tests)


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


def form_values(R: RationalMatrix, params, to_points, premul, cfg: Config, extra=None):
    """(premul * R(to_points(params)) + extra(params), ok): a stack whose Hermitian part is the form.

    ok is False where a point is near a pole of R or extra's share is not
    finite; extra(params) gives (a Hermitian stack, finite mask), or extra is None.
    """
    vals, ok = rm_eval_many(R, to_points(params), cfg)
    vals *= premul
    if extra is not None:
        add, finite = extra(params)
        vals += np.where(finite[:, None, None], add, 0.0)
        ok &= finite
    return vals, ok


def grid_psd_scan(R: RationalMatrix, params, to_points, premul, cfg: Config, extra=None):
    """Minimum relative PSD margin of premul * R(point) (+ extra) over a parameter grid.

    Parameters
    ----------
    params : real array of grid parameters (w or theta)
    to_points : callable mapping the parameter array to boundary points
    premul : complex scalar applied to the evaluated matrices (1 or i)
    extra : None, or the share of the form that R leaves out (see ``form_values``)

    Returns
    -------
    worst_margin : float (>= 0 passes), worst_param : float, evaluated : int
    """
    params = np.asarray(params, dtype=float)

    def margins(ts):  # inf where a point is near a pole or its margin is not finite
        vals, ok = form_values(R, ts, to_points, premul, cfg, extra)
        marg = psd_margin(vals, cfg.psd_rel)
        return np.where(ok & np.isfinite(marg), marg, np.inf)

    marg = margins(params)
    kworst = int(np.argmin(marg))
    worst, tworst = float(marg[kworst]), float(params[kworst])
    evaluated = params.size
    if worst == np.inf:
        return worst, tworst, evaluated
    lo = params[max(kworst - 1, 0)]
    hi = params[min(kworst + 1, params.size - 1)]
    for _ in range(cfg.refine_rounds):
        ts = np.linspace(lo, hi, 5)[1:-1]
        sub = margins(ts)
        evaluated += ts.size
        k = int(np.argmin(sub))
        if sub[k] < worst:
            worst, tworst = float(sub[k]), float(ts[k])
        width = hi - lo
        lo = max(lo, tworst - width / 4)
        hi = min(hi, tworst + width / 4)
    return worst, tworst, evaluated


# ---------------------------------------------------------------------------
# exact strictness: where the boundary form is singular


def _finite_zeros(A, B, C, D, tol):
    """Finite zeros of the square system (A, B, C, D); singular values up to tol count as zero.

    The infinite eigenvalues of [[A - sI, B], [C, D]] are deflated exactly
    (Emami-Naeini & Van Dooren, Automatica 18 (1982)): while D is singular,
    rotate its null output directions into rows [C0, 0] and the states so
    that C0 = [0, C02], C02 invertible; dropping the states C02 pins to zero
    leaves a smaller square system with the same finite zeros.  With D
    invertible they are the eigenvalues of A - B D^-1 C.
    """
    while True:
        n, m = A.shape[0], D.shape[0]
        U, sv, _ = np.linalg.svd(D)
        r = int(np.sum(sv > tol))
        if r == m:
            return np.linalg.eigvals(A - B @ np.linalg.solve(D, C))
        C, D = U.T @ C, U.T @ D          # rows r.. of D are zero
        _, s0, Vt = np.linalg.svd(C[r:])
        rho = int(np.sum(s0 > tol))
        if rho < m - r:
            raise RootFindingFailure("the boundary pencil is singular")
        V = np.hstack([Vt[rho:].T, Vt[:rho].T])  # C[r:] @ V = [0, C02]
        A, B, Cr = V.T @ A @ V, V.T @ B, C[:r] @ V
        k = n - rho
        A, B, C, D = A[:k, :k], B[:k], np.vstack([A[k:, :k], Cr[:, :k]]), np.vstack([B[k:], D[:r]])


def boundary_det_zeros(G: RationalMatrix, ss, form, cfg: Config = DEFAULT):
    """(Boundary points where the form R of G is singular, det R identically zero).

    R(x) = G(x) +- G(mirror(x))^T ("+" for "pr"); on the boundary R ("pr") or
    i R ("ni") is Hermitian.  det R counts as identically zero unless
    ``full_rank_somewhere`` holds for R at the ``generic_points()``, from one
    evaluation of G at those points and at their mirrors.  ss realizes G in
    continuous time (a discrete-time G through ``cayley_ss``: z = e^{it} is
    s = i tan(t/2) and z = -1 is s = inf), or is None when G is not strictly
    stable, and then only the identically-zero test runs.  The form of ss,
    G(s) +- G(-s)^T, is realized by (diag(A, -A^T), [B; -C^T], [C, +-B^T],
    D +- D^T); det R vanishes at its finite zeros and, when D +- D^T is
    singular, at s = inf.  A zero counts
    when |Re s| <= 1e-6 (1 + |s|) and, for "ni", whose defect vanishes at
    w = 0 by symmetry, Im s exceeds that bound; s = inf counts for a
    discrete-time "pr" form.  Points are in G's domain variable.
    """
    sign = 1.0 if form == "pr" else -1.0
    x = generic_points()
    k = x.size
    vals, ok = rm_eval_many(G, np.concatenate([x, -x if G.domain == CT else 1.0 / x]), cfg)
    R = vals[:k] + sign * np.swapaxes(vals[k:], -1, -2)
    if not full_rank_somewhere(R[ok[:k] & ok[k:]], cfg):
        return [], True
    if ss is None:
        return [], False
    n = ss.order
    Z = np.zeros((n, n))
    A = np.block([[ss.A, Z], [Z, -ss.A.T]])
    B = np.vstack([ss.B, -ss.C.T])
    C = np.hstack([ss.C, sign * ss.B.T])
    D = ss.D + sign * ss.D.T
    rank_tol = cfg.rank_rel * np.linalg.norm(np.block([[A, B], [C, D]]), 2)
    tol = 1e-6
    points = [s for s in _finite_zeros(A, B, C, D, rank_tol) if abs(s.real) <= tol * (1.0 + abs(s))
              and (form == "pr" or s.imag > tol * (1.0 + abs(s)))]
    if G.domain == CT:
        return [1j * s.imag for s in points], False
    points = [(1.0 + 1j * s.imag) / (1.0 - 1j * s.imag) for s in points]
    if form == "pr" and np.linalg.svd(D, compute_uv=False)[-1] <= rank_tol:
        points.append(-1.0 + 0j)
    return points, False
