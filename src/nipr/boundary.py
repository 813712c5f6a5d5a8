"""Shared boundary-curve machinery for the PR/NI classifiers.

A sign form is F(x) + F(mirror(x))^T ("pr") or G(x) - G(mirror(x))^T ("ni"),
with mirror s -> -s (continuous time) or z -> 1/z (discrete time).  On the
boundary the mirror of x is conj(x), so for a real-rational G the boundary
values of the forms are 2 herm(G(x)) and, times i, 2 herm(i G(x)).  The
classifiers read them from G on the boundary, with the principal parts at
boundary poles split off and their share added in closed form
(``analysis.Analysis.sign_terms``).  The rational builders (``ppart_ct``,
``defect_ct``, ``ppart_dt``, ``defect_dt``) are not on that path: they are the
reference that tests compare against.

Every sign condition is decided from the crossings.  An eigenvalue of a
continuous Hermitian family can only change sign where the form is singular,
or across a pole, so ``boundary_det_zeros`` finds the boundary frequencies
where the form is singular, as finite zeros of a state-space realization of
the form (no rational arithmetic), and whether it is singular everywhere;
``analysis.Analysis.sign_scan`` reads the form at one ``interval_samples``
sample between them.  The dense grids (``ct_grid``, ``dt_grid_half``,
``dt_grid_full``) decide no verdict; ``nipr sweep`` and the tests read them.

Both evaluate through one batched kernel: ``rm_eval_many`` evaluates every
point at once and ``psd_margin`` takes the margins of the (npts, m, m) stack
with one ``eigvalsh``, with max |lambda| as ||H||_2 (no SVD); ``is_psd``,
``is_nsd`` and ``is_pd`` are its one-matrix case.  A decision that needs
several 2-norms takes them from one SVD of their stack (``norm2``), and a
discrete-time realization's Cayley image is made once, for both forms, and
kept on the realization (``realization.cayley_image``).
"""

from __future__ import annotations

import math

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT, Config
from .errors import RootFindingFailure
from .ratmat import CT, RationalMatrix, rm_eval_many, rm_mobius
from .realization import block_diag, cayley_image

# a zero s of the boundary form's realization is a crossing when |Re s| <= CROSSING_BAND (1 + |s|);
# an "ni" crossing also needs Im s above that bound
CROSSING_BAND = 1e-6


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
# grid scans (``nipr sweep`` and the tests)


def ct_grid(cfg: Config):
    return np.logspace(np.log10(cfg.omega_min), np.log10(cfg.omega_max), cfg.grid_points_ct)


def dt_grid_half(cfg: Config):
    """Uniform interior grid on (0, pi)."""
    return np.linspace(0.0, np.pi, cfg.grid_points_dt + 2)[1:-1]


def dt_grid_full(cfg: Config):
    return np.linspace(0.0, 2.0 * np.pi, cfg.grid_points_dt, endpoint=False)


def form_values(R: RationalMatrix, params, to_points, premul, extra=None):
    """(premul * R(to_points(params)) + extra(params), ok): a stack whose Hermitian part is the form.

    ok is False where a point is at a pole of R or extra's share is not
    finite; extra(params) gives (a Hermitian stack, finite mask), or extra is None.
    """
    vals, ok = rm_eval_many(R, to_points(params))
    vals *= premul
    if extra is not None:
        add, finite = extra(params)
        vals += np.where(finite[:, None, None], add, 0.0)
        ok &= finite
    return vals, ok


def worst_margin(vals, ok, params, cfg: Config):
    """(worst_margin, worst_param, params.size): the minimum relative PSD margin of the Hermitian parts of
    the stack vals of ``form_values`` at the parameters params; a value not ok, or of a margin not finite, reads inf."""
    marg = psd_margin(vals, cfg.psd_rel)
    marg = np.where(ok & np.isfinite(marg), marg, np.inf)
    k = int(np.argmin(marg))
    return float(marg[k]), float(params[k]), params.size


def grid_psd_scan(R: RationalMatrix, params, to_points, premul, cfg: Config, extra=None):
    """(worst_margin (>= 0 passes), worst_param, evaluated) of premul * R(point) (+ extra) over the grid
    parameters params (w or theta); to_points, premul and extra as for ``form_values``."""
    params = np.asarray(params, dtype=float)
    return worst_margin(*form_values(R, params, to_points, premul, extra), params, cfg)


# ---------------------------------------------------------------------------
# the sign from the crossings


def _finite_zeros(A, B, C, D, tol):
    """Finite zeros of the square system (A, B, C, D), real or complex; singular values up to tol count as zero.

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
        Uh = U.conj().T
        C, D = Uh @ C, Uh @ D          # rows r.. of D are zero
        _, s0, Vt = np.linalg.svd(C[r:])
        rho = int(np.sum(s0 > tol))
        if rho < m - r:
            raise RootFindingFailure("the boundary pencil is singular")
        V = np.hstack([Vt[rho:].conj().T, Vt[:rho].conj().T])  # C[r:] @ V = [0, C02]
        Vh = V.conj().T
        A, B, Cr = Vh @ A @ V, Vh @ B, C[:r] @ V
        k = n - rho
        A, B, C, D = A[:k, :k], B[:k], np.vstack([A[k:, :k], Cr[:, :k]]), np.vstack([B[k:], D[:r]])


def _scalar_ss(num, den):
    """Controllable canonical (a, b, c, d) of the proper scalar num/den (ascending, complex allowed)."""
    num, den = np.asarray(num, dtype=complex), np.asarray(den, dtype=complex)
    num, den = num / den[-1], den / den[-1]
    n = den.size - 1
    d = num[n] if num.size > n else 0.0
    c = np.zeros(n, dtype=complex)
    c[:min(num.size, n)] = num[:n]
    c -= d * den[:n]
    a = np.eye(n, k=1, dtype=complex)
    if n:
        a[-1] = -den[:n]
    return a, np.eye(n, dtype=complex)[:, -1:], c[None, :], d


def _times_matrix(a, b, c, d, M, unit):
    """A realization of unit g(s) M for the scalar g = (a, b, c, d) and the Hermitian M, through M = L N^H."""
    lam, V = np.linalg.eigh(M)
    keep = np.abs(lam) > np.finfo(float).eps * M.shape[0] * np.abs(lam).max()  # the rank, up to rounding
    L, N = unit * V[:, keep] * lam[keep], V[:, keep]
    r = N.shape[1]
    return np.kron(a, np.eye(r)), np.kron(b, N.conj().T), np.kron(c, L), unit * d * M


def _parallel(systems, m):
    """The sum of the (A, B, C, D) systems of size m."""
    A = block_diag(*(Ak for Ak, _, _, _ in systems))
    B = np.vstack([Bk.reshape(-1, m) for _, Bk, _, _ in systems])
    C = np.hstack([Ck.reshape(m, -1) for _, _, Ck, _ in systems])
    return A, B, C, sum(Dk for _, _, _, Dk in systems)


def _form_system(ss, form, pieces, shift):
    """(A, B, C, D) whose zeros s = i w are the crossings of the boundary form, and its value at s = inf.

    The form of the realization ss, W(s) = R(s) +- R(-s)^T, is realized by
    (diag(A, -A^T), [B; -C^T], [C, +-B^T], D +- D^T), with B and C first
    scaled to one norm (beta B and C / beta realize the same R), since the
    zeros' rank decisions are relative to the norm of the whole pencil and
    would take a small B or C for zero; on the boundary the
    form is PREMUL W(i w).  ``pieces`` maps (w0, k) to the Hermitian share
    M of the split-off terms, M (w - w0)^-k, M w^k for w0 = inf and M for
    k = 0; with w = -i s they join W divided by PREMUL, and ``shift`` times
    the identity joins them the same way.  A share that grows like w^k is
    made proper by weighting everything with 1/(1 + w^2)^J = 1/(1 - s^2)^J,
    which is positive on the boundary and moves no crossing.
    """
    sign = 1.0 if form == "pr" else -1.0
    n, m = ss.order, ss.size
    Z = np.zeros((n, n))
    nb, nc = np.linalg.norm(ss.B), np.linalg.norm(ss.C)
    beta = np.sqrt(nc / nb) if nb and nc else 1.0
    A = np.block([[ss.A, Z], [Z, -ss.A.T]])
    B = np.vstack([beta * ss.B, -ss.C.T / beta])
    C = np.hstack([ss.C / beta, sign * beta * ss.B.T])
    D = ss.D + sign * ss.D.T
    if not pieces and not shift:
        return A, B, C, D, D
    unit = 1.0 if form == "pr" else -1j  # 1 / PREMUL
    pieces = dict(pieces)
    if shift:
        pieces[0.0, 0] = pieces.get((0.0, 0), 0.0) + shift * np.eye(m)
    J = max([(k + 1) // 2 for (w0, k) in pieces if w0 == np.inf] + [0])
    weight = npp.polypow([1.0, 0.0, -1.0], J)  # (1 - s^2)^J
    systems, at_inf = [], D + 0j
    for (w0, k), M in pieces.items():
        if w0 == np.inf:   # w^k = (-i)^k s^k
            num, den = npp.polypow([0.0, -1j], k), weight
        else:              # (w - w0)^-k = i^k (s - i w0)^-k
            num, den = [1j ** k], npp.polymul(npp.polypow([-1j * w0, 1.0], k), weight)
            at_inf = at_inf + (unit * M if k == 0 else 0.0)
        systems.append(_times_matrix(*_scalar_ss(num, den), M, unit))
    if J:  # W / (1 - s^2)^J: W in series with the weight
        a, b, c, _ = _scalar_ss([1.0], weight)
        Aq, Bq, Cq = np.kron(a, np.eye(m)), np.kron(b, np.eye(m)), np.kron(c, np.eye(m))
        nq = Aq.shape[0]
        A = np.block([[A, np.zeros((2 * n, nq))], [Bq @ C, Aq]])
        B, C, D = np.vstack([B, Bq @ D]), np.hstack([np.zeros((m, 2 * n)), Cq]), np.zeros((m, m))
    return (*_parallel([(A, B, C, D)] + systems, m), None if J else at_inf)


def _turned(pieces):
    """The ``pieces`` in w' = -1/w, the frequency of the boundary turned by pi (z -> -z).

    w^k = (-1)^k w'^-k, w^-k = (-1)^k w'^k, and with a = -1/w0,
    (w - w0)^-k = (-w0)^-k sum_i C(k, i) a^i (w' - a)^-i.
    """
    out = {}
    for (w0, k), M in pieces.items():
        if k == 0:
            terms = [((0.0, 0), 1.0)]
        elif w0 == np.inf:
            terms = [((0.0, k), (-1.0) ** k)]
        elif w0 == 0.0:
            terms = [((np.inf, k), (-1.0) ** k)]
        else:
            a = -1.0 / w0
            terms = [((a, i) if i else (0.0, 0), math.comb(k, i) * a ** i / (-w0) ** k) for i in range(k + 1)]
        for key, c in terms:
            out[key] = out.get(key, 0.0) + c * M
    return out


def norm2(M):
    """||M||_2 of a matrix, or of each matrix of a stack, from one SVD: bitwise ``np.linalg.norm(M, 2)``,
    as numpy runs the same LAPACK call on each matrix of a stack."""
    return np.linalg.svd(M, compute_uv=False).max(axis=-1)


def boundary_det_zeros(ss, form, cfg: Config = DEFAULT, pieces=()):
    """(The boundary points that cut the sign intervals of the form, det of the form singular everywhere).

    The form of a matrix G is R(x) = G(x) +- G(mirror(x))^T ("+" for "pr");
    on the boundary R ("pr") or i R ("ni") is Hermitian.  ss realizes, in
    its domain, the part of G whose form is read from coefficients, and
    ``pieces`` the rest of the form, as (w0, k, M) terms that add up to the
    map of ``_form_system``.  A discrete-time ss is moved to continuous time
    by ``realization.cayley_image``, once per realization for both forms:
    z = e^{it} is s = i tan(t/2) and z = -1 is s = inf, where the values of
    G near z = -1 end up in the realization's D.  When A has its spectrum
    nearer -1 than 1, G(-z) is mapped instead, and the boundary turns by pi.  The
    points are the zeros of det R on the boundary: finite zeros s of the
    form's realization with |Re s| <= CROSSING_BAND (1 + |s|), for "ni"
    (whose form vanishes at z = 1 and -1 by symmetry) with Im s above that
    bound, and for a discrete-time "pr" form the point sent to s = inf when
    the form is singular there.  Ranks are decided at rank_rel times the
    largest norm of the pencil and of the terms it sums (D and the pieces),
    so the form of a lossless G, rounding next to them, is singular
    everywhere; the points are then those of det(R + psd_rel I), where an
    eigenvalue crosses -psd_rel, and a singular shifted pencil raises
    RootFindingFailure.  Points are in the domain variable.
    """
    ct_pieces = {}
    for w0, k, M in pieces:
        ct_pieces[w0, k] = ct_pieces.get((w0, k), 0.0) + M
    turn, ct = (1.0, ss) if ss.domain == CT else cayley_image(ss)
    if turn < 0.0:
        ct_pieces = _turned(ct_pieces)
    scale = max([norm2(ct.D), *(norm2(np.array([M for _, _, M in pieces])) if pieces else ())])
    for singular, shift in ((False, 0.0), (True, cfg.psd_rel)):
        A, B, C, D, at_inf = _form_system(ct, form, ct_pieces, shift)
        rank_tol = cfg.rank_rel * max(norm2(np.block([[A, B], [C, D]])), scale)
        if shift:  # the shift must lift the form's null space, however small it is next to the rank tolerance
            rank_tol = min(rank_tol, shift / 2.0)
        try:
            zeros = _finite_zeros(A, B, C, D, rank_tol)
            break
        except RootFindingFailure:
            if singular:
                raise
    points = [s for s in zeros if abs(s.real) <= CROSSING_BAND * (1.0 + abs(s))
              and (form == "pr" or s.imag > CROSSING_BAND * (1.0 + abs(s)))]
    if ss.domain == CT:
        return [1j * s.imag for s in points], singular
    points = [turn * (1.0 + 1j * s.imag) / (1.0 - 1j * s.imag) for s in points]
    if form == "pr" and at_inf is not None and np.linalg.svd(at_inf, compute_uv=False)[-1] <= rank_tol:
        points.append(-turn + 0j)
    return points, singular


def interval_samples(cuts):
    """One frequency inside each interval that the positive finite frequencies of cuts make of (0, inf).

    No eigenvalue of the form changes sign between two consecutive cuts, so the sample decides the sign
    there.  It is the geometric mean of two finite ends; an interval with an end at 0 or inf gets 1 when it
    holds 1, else half its upper or twice its lower end.  A close pair of cuts, a narrow dip or a near
    touch, stays two cuts: the rounding of the zeros moves their midpoint far less than either cut.
    """
    edges = [0.0, *sorted({w for w in cuts if 0.0 < w < np.inf}), np.inf]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == 0.0 or hi == np.inf:
            out.append(1.0 if lo < 1.0 < hi else hi / 2.0 if lo == 0.0 else 2.0 * lo)
        else:
            out.append(np.sqrt(lo * hi))
    return np.array(out)
