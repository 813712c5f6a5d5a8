"""State-space realizations: conversion, minimality, spectra, bilinear maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT, Config
from .errors import CancellationFailure, EigenvalueAtMinusOne, EigenvalueAtPlusOne, ImproperInput
from .poly import RationalScalar, poly_from_roots_real, polydivmod
from .ratmat import CT, DT, RationalMatrix, rm_poles, rm_residues_at


@dataclass
class StateSpace:
    """Real quadruple (A, B, C, D) with a CT/DT domain tag; n = 0 is a gain."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: str
    minimal_at: float | None = field(default=None, init=False, repr=False, compare=False)  # see is_minimal
    cayley: tuple | None = field(default=None, init=False, repr=False, compare=False)  # see cayley_image

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        m = self.D.shape[0]
        n = self.A.shape[0] if self.A.size else 0
        if self.A.size == 0:
            self.A = np.zeros((0, 0))
        self.B = np.asarray(self.B, dtype=float).reshape(n, m) if n else np.zeros((0, m))
        self.C = np.asarray(self.C, dtype=float).reshape(m, n) if n else np.zeros((m, 0))
        if self.A.shape != (n, n) or self.D.shape != (m, m):
            raise ValueError("inconsistent state-space dimensions")

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def size(self) -> int:
        return self.D.shape[0]


def spectrum(ss: StateSpace):
    """Eigenvalues of the state matrix."""
    if ss.order == 0:
        return []
    return sorted(np.linalg.eigvals(ss.A), key=lambda v: (v.real, v.imag))


def tf_of(ss: StateSpace) -> RationalMatrix:
    """Transfer matrix C (xI - A)^-1 B + D via the Leverrier-Faddeev recursion."""
    n, m = ss.order, ss.size
    if n == 0:
        return RationalMatrix.constant(ss.D, ss.domain)
    F = np.eye(n)
    char = [1.0]  # descending coefficients of det(xI - A)
    markov = [ss.C @ F @ ss.B]  # descending numerator coefficients of C adj B
    for k in range(1, n + 1):
        M = ss.A @ F
        ck = -np.trace(M) / k
        char.append(ck)
        F = M + ck * np.eye(n)
        if k < n:
            markov.append(ss.C @ F @ ss.B)
    den = np.array(char[::-1])  # ascending
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            num = np.array([Nk[i, j] for Nk in markov][::-1])
            num = npp.polyadd(num, ss.D[i, j] * den)
            row.append(RationalScalar(num, den))
        entries.append(row)
    return RationalMatrix(entries, ss.domain)


# ---------------------------------------------------------------------------
# staircase reductions


def _orth(M, tol):
    """Orthonormal basis of the column space, rank decided at tol * smax."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0))
    r = int(np.sum(s > tol * s[0]))
    return U[:, :r]


def _reachable_basis(A, B, rel):
    n = A.shape[0]
    V = _orth(B, rel)
    for _ in range(n):
        if V.shape[1] >= n:
            break
        W = _orth(np.hstack([V, A @ V]), rel)
        if W.shape[1] == V.shape[1]:
            break
        V = W
    return V


def reachable_reduction(A, B, C, rel):
    V = _reachable_basis(A, B, rel)
    return V.T @ A @ V, V.T @ B, C @ V


def observable_reduction(A, B, C, rel):
    Ar, Cr_t, Br_t = reachable_reduction(A.T, C.T, B.T, rel)
    return Ar.T, Br_t.T, Cr_t.T


def is_minimal(ss: StateSpace, cfg: Config = DEFAULT) -> bool:
    """True iff the realization is both reachable and observable: read from a ``minimal_realization``
    built at cfg.rank_rel, which is minimal as built, and otherwise tested by the Krylov ranks."""
    n = ss.order
    if n == 0 or ss.minimal_at == cfg.rank_rel:
        return True
    reach = _reachable_basis(ss.A, ss.B, cfg.rank_rel).shape[1]
    obsv = _reachable_basis(ss.A.T, ss.C.T, cfg.rank_rel).shape[1]
    return reach == n and obsv == n


# ---------------------------------------------------------------------------
# realization from a rational matrix


def block_diag(*Ms):
    """The block-diagonal matrix of the blocks Ms, which may be rectangular or empty."""
    dtype = complex if any(np.iscomplexobj(M) for M in Ms) else float
    out = np.zeros((sum(M.shape[0] for M in Ms), sum(M.shape[1] for M in Ms)), dtype=dtype)
    r = c = 0
    for M in Ms:
        out[r:r + M.shape[0], c:c + M.shape[1]] = M
        r, c = r + M.shape[0], c + M.shape[1]
    return out


def _gilbert_blocks(R: RationalMatrix, pole_list, cfg: Config):
    """Gilbert's realization (A, B, C) of R - D from R's own residues at its simple poles.

    Each residue is split as C_p B_p by one SVD, its rank decided at rank_rel;
    a complex pair then takes the real form.  With distinct simple poles the
    result is minimal by construction (Gilbert, SIAM J. Control 1(2), 1963).
    """
    m = R.size
    Ab, Bb, Cb = [], [np.zeros((0, m))], [np.zeros((m, 0))]
    for p, _ in pole_list:
        if p.imag < 0.0:
            continue  # conjugate handled with its partner, which ``rm_poles`` pairs exactly
        res = rm_residues_at(R, p, cfg).residue_A1
        real = p.imag == 0.0
        U, s, Vh = np.linalg.svd(np.real(res) if real else res)
        r = int(np.sum(s > cfg.rank_rel * max(s[0], 1e-300)))
        sq = np.sqrt(s[:r])
        B1, C1 = sq[:, None] * Vh[:r, :], U[:, :r] * sq[None, :]
        if real:
            Ab.append(p.real * np.eye(r))
            Bb.append(B1)
            Cb.append(C1)
        else:
            Ab.append(np.kron([[p.real, -p.imag], [p.imag, p.real]], np.eye(r)))
            Bb.append(np.sqrt(2.0) * np.vstack([np.real(B1), np.imag(B1)]))
            Cb.append(np.sqrt(2.0) * np.hstack([np.real(C1), -np.imag(C1)]))
    return block_diag(*Ab), np.vstack(Bb), np.hstack(Cb)


def _balance(A, B, C):
    """(D^-1 A D, D^-1 B, C D) with D diagonal, powers of 2, equalizing A's off-diagonal row and column sums.

    The scaling of LAPACK's gebal (Parlett & Reinsch, Numer. Math. 13
    (1969)), without its permutations.  A companion matrix carries the
    denominator's coefficients, which span w^n for poles of size w; the
    reductions decide ranks relative to the largest singular value, and on
    the unbalanced form they drop states that are only small next to those
    coefficients.
    """
    A = A.copy()
    d = np.ones(A.shape[0])
    changed = True
    while changed:
        changed = False
        for i in range(A.shape[0]):
            c = np.abs(A[:, i]).sum() - abs(A[i, i])
            r = np.abs(A[i, :]).sum() - abs(A[i, i])
            if c == 0.0 or r == 0.0:
                continue
            f = 2.0 ** np.round(0.5 * np.log2(r / c))
            if c * f + r / f < 0.95 * (c + r):
                A[:, i] *= f
                A[i, :] /= f
                d[i] *= f
                changed = True
    return A, B / d[:, None], C * d[None, :]


def _block_companion(R: RationalMatrix, pole_list, D, cfg: Config):
    """Controllable canonical form of R - D from a common scalar denominator, balanced."""
    m = R.size
    rts = []
    for p, mult in pole_list:
        rts.extend([p] * mult)
    den = poly_from_roots_real(rts, cfg.root_cluster)  # monic, ascending, degree n
    n = den.size - 1
    # entry numerators against the common denominator; polynomial division,
    # because root matching cannot pair the scattered roots of a triple pole
    Ncoef = [np.zeros((m, m)) for _ in range(n)]
    for i in range(m):
        for j in range(m):
            e = R.entries[i][j]
            q, r = polydivmod(den, e.den)
            if np.max(np.abs(r)) > cfg.root_cluster * np.max(np.abs(den)):
                raise CancellationFailure(f"the common denominator does not clear entry ({i},{j})")
            c = npp.polysub(npp.polymul(e.num, q), D[i, j] * den)  # num_ij q_ij - D_ij den: R - D over den
            for k in range(min(c.size, n)):
                Ncoef[k][i, j] = c[k]
    A = np.zeros((n * m, n * m))
    for blk in range(n - 1):
        A[blk * m:(blk + 1) * m, (blk + 1) * m:(blk + 2) * m] = np.eye(m)
    for blk in range(n):
        A[(n - 1) * m:, blk * m:(blk + 1) * m] = -den[blk] * np.eye(m)
    B = np.zeros((n * m, m))
    B[(n - 1) * m:, :] = np.eye(m)
    return _balance(A, B, np.hstack(Ncoef))


def minimal_realization(R: RationalMatrix, cfg: Config = DEFAULT) -> StateSpace:
    """Minimal state-space realization of a proper rational matrix, from R's own pole data.

    The poles are R's clusters (``rm_poles``).  When all are simple, Gilbert's
    blocks from R's residues; otherwise a block controllable canonical form of
    R - D over the common denominator, followed by staircase reduction.  Both
    are minimal as built, and the result records the rank_rel its ranks were
    decided at, for ``is_minimal`` to read.
    """
    if not R.is_proper():
        raise ImproperInput("minimal_realization requires a proper rational matrix")
    D = R.value_at_inf()
    pole_list = rm_poles(R, cfg)
    if all(mult == 1 for _, mult in pole_list):
        ss = StateSpace(*_gilbert_blocks(R, pole_list, cfg), D, R.domain)
    else:
        A, B, C = reachable_reduction(*_block_companion(R, pole_list, D, cfg), cfg.rank_rel)
        ss = StateSpace(*observable_reduction(A, B, C, cfg.rank_rel), D, R.domain)
    ss.minimal_at = cfg.rank_rel
    return ss


# ---------------------------------------------------------------------------
# bilinear state-space maps


def require_no_eigenvalue_at(A, *points):
    """Raise when A has an eigenvalue at a point z0 = 1 or -1, tested in the order given: A is within 1e-12 max(1, ||A - z0 I||) of a matrix that has.

    That distance is the smallest singular value of A - z0 I, taken for every
    point by one stacked SVD.  Eigenvalues near z0 but off it do not count,
    however many there are (they make the determinant tiny); a Jordan block
    near z0 does, as its distance is the square of its offset.
    """
    _no_eigenvalue_at(points, np.linalg.svd(A - np.multiply.outer(points, np.eye(A.shape[0])), compute_uv=False))


def _no_eigenvalue_at(points, svs):
    """``require_no_eigenvalue_at`` from the singular values svs of A - z0 I, one row per point z0."""
    for z0, sv in zip(points, svs):
        if sv.size and sv[-1] <= 1e-12 * max(1.0, sv[0]):
            exc = EigenvalueAtPlusOne if z0 == 1.0 else EigenvalueAtMinusOne
            raise exc(f"state matrix has an eigenvalue at {z0:+g}")


def cayley_ss(ss: StateSpace) -> StateSpace:
    """Bilinear domain swap at the state-space level.

    DT -> CT realizes G((1+s)/(1-s)); CT -> DT realizes G((z-1)/(z+1)).  The
    sqrt(2) input/output scaling makes the two maps exact inverses.
    """
    if ss.order:
        require_no_eigenvalue_at(ss.A, -1.0 if ss.domain == DT else 1.0)
    return _swap(ss)


def cayley_image(ss: StateSpace):
    """(turn, image): ``cayley_ss`` of the discrete-time ss (turn 1), or of ss turned by z -> -z, (-A, B, -C, D),
    when A's spectrum is nearer -1 than 1 (turn -1).  One stacked SVD of A + I and A - I decides that and the
    image's eigenvalue test, as -A + I = -(A - I).  Kept in ``ss.cayley``, so ss must not change after."""
    if ss.cayley is None:
        I, k = np.eye(ss.order), 0
        if ss.order:
            sv = np.linalg.svd(np.stack([ss.A + I, ss.A - I]), compute_uv=False)
            k = int(sv[0, -1] < sv[1, -1])
            _no_eigenvalue_at((-1.0,), sv[k:])
        ss.cayley = 1.0 - 2.0 * k, _swap(StateSpace(-ss.A, ss.B, -ss.C, ss.D, ss.domain) if k else ss)
    return ss.cayley


def _swap(ss: StateSpace) -> StateSpace:
    """``cayley_ss`` of ss, whose A has no eigenvalue at -1 (DT) or 1 (CT)."""
    n = ss.order
    if n == 0:
        return StateSpace(ss.A, ss.B, ss.C, ss.D, CT if ss.domain == DT else DT)
    I = np.eye(n)
    if ss.domain == DT:
        Minv = np.linalg.inv(ss.A + I)
        Ac = Minv @ (ss.A - I)
        Bc = np.sqrt(2.0) * (Minv @ ss.B)
        Cc = np.sqrt(2.0) * (ss.C @ Minv)
        Dc = ss.D - ss.C @ Minv @ ss.B
        return StateSpace(Ac, Bc, Cc, Dc, CT)
    Minv = np.linalg.inv(I - ss.A)
    Ad = (I + ss.A) @ Minv
    Bd = np.sqrt(2.0) * (Minv @ ss.B)
    Cd = np.sqrt(2.0) * (ss.C @ Minv)
    Dd = ss.D + ss.C @ Minv @ ss.B
    return StateSpace(Ad, Bd, Cd, Dd, DT)
