"""State-space certificates for discrete PR and NI transfer matrices.

Both lemmas ask whether an affine family of symmetric matrices
X = X0 + sum_k theta_k N_k meets a product of semidefinite cones: X itself
and a Lyapunov-type block, each shifted by a small floor.  That product is
the PSD cone of block-diagonal matrices, so one slack matrix holds every
block.  One interior-point search answers it for the PR lemma and for both
forms of the NI lemma (the primal X form and the dual Y = X^-1 form,
``form="primal"`` / ``"dual"`` of the same routine).  It follows the log-det
barrier path of max t  s.t.  slack - floors >= t I  (Vandenberghe & Boyd,
"Semidefinite programming", SIAM Review 38(1), 1996).  The answers:

- Feasible: X passed ``_certify``, the independent re-verification of the
  lemma's conditions.  The search offers it only iterates that meet every
  floored cone, or the one X the equation allows.
- Infeasible: the lemma equation has no symmetric solution; or it has exactly
  one and that X fails the check; or the barrier path's dual multiplier was
  validated as a separating functional (``extras["farkas"]``).
- Inconclusive: none of these happened before the duality gap closed or the
  Newton budget ran out.

Every answer is checked independently of the search, so solver quality affects
completeness only, never soundness.  Minimality, a lemma precondition, is read
from a ``minimal_realization`` at the Config's rank_rel and tested otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .config import DEFAULT, Config
from .errors import AsymmetricD, NonMinimalRealization
from .realization import StateSpace, is_minimal, require_no_eigenvalue_at

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
INCONCLUSIVE = "Inconclusive"


@dataclass
class FeasibilityCertificate:
    X: np.ndarray | None
    residual_affine: float
    lambda_min_X: float
    lambda_min_lyap: float
    iterations: int
    status: str
    extras: dict = field(default_factory=dict)


@cache
def _sym_basis(n):
    """An orthonormal basis of the symmetric n x n matrices, stacked (n(n+1)/2, n, n), built once per n and read-only."""
    i, j = np.nonzero(np.arange(n)[:, None] <= np.arange(n))  # the upper triangle, row by row
    k = np.arange(len(i))
    basis = np.zeros((len(i), n, n))
    basis[k, i, j] = basis[k, j, i] = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    basis.flags.writeable = False
    return basis


# ---------------------------------------------------------------------------
# generic affine/cone feasibility

_MAX_NEWTON = 400  # Newton steps before the search gives up


def _search_affine_cones(X0, Ns, cone_maps, verify):
    """Search X = X0 + sum theta_k Ns[k] with every f_j(X) >= floor_j I.

    cone_maps: list of (affine map from X to a symmetric matrix that also
    maps a stack of X to the stack of images, floor); the first map is X
    itself.  A product of PSD cones is the PSD cone of block-diagonal
    matrices, so the blocks S_j = f_j(X) - floor_j I - t I form one slack
    S = F + sum_a x_a D[a] of size N = sum_j size_j, with x = (theta, t).
    Damped Newton steps in x minimize the log-det barrier -w t - log det S,
    and w grows tenfold at each centered point, so the path climbs to max t
    while the duality gap bound N / w shrinks.  Each step takes one Cholesky
    factor L of S, its inverse, the product L^-1 D L^-T read on the entries
    of the blocks (``cols``) and one SVD.  It also gives a dual point,
    Z = S^-1 (S - dS) S^-1 / w, orthogonal to the affine directions and PSD
    once the squared Newton decrement is below 1; while t < 0 its blocks go
    to ``_farkas_infeasible``.

    ``verify`` is the caller's independent check of X.  It sees an iterate
    once t >= 0, that is once X meets every floored cone: the callers'
    tolerances are relative to ||X||, and along a direction that keeps the
    cones (nearly) PSD the path can run so far out that they would accept an
    X missing a cone by a wide margin.  Returns (the verified X or None,
    Newton steps, the gap bound, whether a separating functional was
    validated).
    """
    if not len(Ns):
        # the affine set is a single point: verification is decisive
        return X0, 0, 0.0, False
    k = len(Ns)
    vals = [f(X0) for f, _fl in cone_maps]
    sizes = np.array([len(v) for v in vals])
    size = int(sizes.sum())
    F, D = np.zeros((size, size)), np.zeros((k + 1, size, size))
    for v, (f, fl), end, s in zip(vals, cone_maps, np.cumsum(sizes), sizes):
        blk = slice(end - s, end)
        F[blk, blk] = v - fl * np.eye(s)
        D[:k, blk, blk] = f(X0 + Ns) - v  # theta moves block j along f_j(N_k)
    eye = np.eye(size)
    D[k] = -eye  # t moves every block along -I
    owner = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.flatnonzero(owner[:, None] == owner)  # the entries of the blocks, block by block
    Dflat = D.reshape(k + 1, -1)
    vec_eye, J, f_cols = eye.ravel()[cols], Dflat[:k, cols].T, F.ravel()[cols]  # J, f_cols: for _farkas_infeasible

    def factor(x):
        """The Cholesky factor of S at x, or None if S is not PD."""
        try:
            return np.linalg.cholesky(F + (x @ Dflat).reshape(size, size))
        except np.linalg.LinAlgError:
            return None

    def barrier(x, L):
        return -w * x[-1] - 2.0 * np.log(np.diag(L)).sum()

    eig = np.linalg.eigvalsh(F)
    spread, margin = max(-eig[0], eig[-1]) or 1.0, eig[0]  # ||F||_2 and lambda_min(F)
    x = np.append(np.zeros(k), margin - spread)
    L = factor(x)
    Li = np.linalg.inv(L)
    # the weight that centers the start in t, so the gap bound starts near spread
    w = float(np.sum(Li ** 2))
    X, steps, f0 = X0, 0, None  # f0: the barrier at x for the current w, once known
    ok = margin >= 0.0 and verify(X)
    while not ok and steps < _MAX_NEWTON:
        W = (Li @ D @ Li.T).reshape(k + 1, -1)  # L^-1 D L^-T
        # The Hessian is M M' with M = W[:, cols] and the negated gradient is
        # M vec(I) + w e_t.  Far along a direction that keeps the cones
        # (nearly) PSD, M M' is too ill-conditioned to factor, but the SVD of
        # M still resolves the step.
        U, sv, Vt = np.linalg.svd(W[:, cols], full_matrices=False)
        if sv[-1] <= 1e-15 * sv[0]:
            break
        y = sv * (Vt @ vec_eye) + w * U[-1]
        dx = U @ (y / sv ** 2)
        dec = np.sum((y / sv) ** 2)  # squared Newton decrement
        if dec < 1.0 and x[-1] < 0.0:
            Z = Li.T @ (eye - (dx @ W).reshape(size, size)) @ Li / w
            if _farkas_infeasible(Z.ravel()[cols], J, f_cols, sizes):
                return None, steps, size / w, True
        if dec < 1e-8:
            if size / w <= 1e-12 * spread:
                break
            w, f0 = w * 10.0, None
            continue
        f0, alpha = barrier(x, L) if f0 is None else f0, 1.0
        while True:
            xc = x + alpha * dx
            Lc = factor(xc)
            if Lc is not None and (fc := barrier(xc, Lc)) <= f0 - 0.25 * alpha * dec:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                return None, steps, size / w, False
        x, L, f0, steps = xc, Lc, fc, steps + 1
        Li = np.linalg.inv(L)
        if x[-1] >= 0.0:  # X is formed only for verify, which sees no iterate with t < 0
            X = X0 + (x[:-1] @ Ns.reshape(k, -1)).reshape(X0.shape)
            ok = verify(X)
    return (X if ok else None), steps, size / w, False


def _farkas_infeasible(z, J, f, sizes):
    """Validate a separating functional proving the affine set misses the cones.

    Each vector holds the entries of the cone blocks, block by block, each
    block row-major: z those of the candidate, J[:, k] those of the change
    along the k-th affine direction and f those of the blocks at the base
    point, floors subtracted; ``sizes`` are the block sizes.  z is projected
    exactly onto the orthogonal complement of the directions.  If every
    projected block is PSD and <z, f> < 0, then sum_j <Z_j, F_j> < 0 at every
    point of the affine family, which no point with every F_j PSD can give.
    """
    z = z - J @ np.linalg.lstsq(J, z, rcond=None)[0]
    blocks = zip(np.split(z, np.cumsum(sizes ** 2)[:-1]), sizes)
    return bool(z @ f < 0.0 and all(np.linalg.eigvalsh(b.reshape(s, s))[0] >= 0.0 for b, s in blocks))


def _certify(X, lyap_fn, eq_residual_fn, iterations, infeasible, extras=None):
    """Re-verify X; ``infeasible`` says the search proved that no X exists."""
    ev = np.linalg.eigvalsh(X) if X is not None and X.size else None
    scale = 1.0 + (max(-ev[0], ev[-1]) if ev is not None else 0.0)  # ||X||_2, as X is symmetric
    lam_x = float(ev[0]) if ev is not None else np.inf
    L = lyap_fn(X) if X is not None else None
    lam_l = float(np.linalg.eigvalsh(L)[0]) if L is not None and L.size else np.inf
    res = eq_residual_fn(X) if X is not None else np.inf
    ok = lam_x > 0.0 and lam_l >= -1e-8 * scale and res <= 1e-7 * scale
    status = FEASIBLE if ok else INFEASIBLE if infeasible else INCONCLUSIVE
    return FeasibilityCertificate(
        X=X, residual_affine=float(res), lambda_min_X=lam_x, lambda_min_lyap=lam_l,
        iterations=iterations, status=status, extras=extras or {},
    )


def _certified_search(X0, Ns, cone_maps, lyap_fn, eq_residual_fn, extras):
    """``_certify`` of the searched X, with gap and farkas in extras; a found X keeps the certificate verify made."""
    made = []

    def verify(X):
        made[:] = [_certify(X, lyap_fn, eq_residual_fn, 0, False)]
        return made[0].status == FEASIBLE

    X, iters, gap, farkas = _search_affine_cones(X0, Ns, cone_maps, verify)
    extras = {**extras, "gap": gap, "farkas": farkas}
    if made and made[0].X is X:
        return replace(made[0], iterations=iters, extras=extras)
    return _certify(X, lyap_fn, eq_residual_fn, iters, farkas or not len(Ns), extras)


# ---------------------------------------------------------------------------
# the discrete PR lemma


def dpr_lemma_check(ss: StateSpace, cfg: Config = DEFAULT) -> FeasibilityCertificate:
    """Feasibility of the discrete positive-real lemma.

    Searches symmetric X > 0 with
    [[X - A'XA, C' - A'XB], [C - B'XA, D' + D - B'XB]] >= 0 and recovers the
    factor matrices L, W of the classical formulation on success.
    """
    if not is_minimal(ss, cfg):
        raise NonMinimalRealization("the PR lemma requires a minimal realization")
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    n = ss.order
    if n == 0:
        S = D + D.T
        lam = float(np.linalg.eigvalsh(S)[0])
        status = FEASIBLE if lam >= -1e-12 * (1.0 + np.linalg.norm(S, 2)) else INFEASIBLE
        return FeasibilityCertificate(np.zeros((0, 0)), 0.0, np.inf, lam, 0, status)

    def block(X):
        return np.concatenate([
            np.concatenate([X - A.T @ X @ A, C.T - A.T @ X @ B], axis=-1),
            np.concatenate([C - B.T @ X @ A, D.T + D - B.T @ X @ B], axis=-1),
        ], axis=-2)

    mu = 1e-7
    X0 = np.eye(n)
    eta = 5e-9 * (1.0 + np.linalg.norm(block(X0), 2))
    cone_maps = [(lambda X: X, mu), (block, -eta)]
    cert = _certified_search(X0, _sym_basis(n), cone_maps, block, lambda _x: 0.0, {})
    if cert.status == FEASIBLE:
        lam, V = np.linalg.eigh(block(cert.X))
        R = np.diag(np.sqrt(np.maximum(lam, 0.0))) @ V.T
        cert.extras["L"] = R[:, :n]
        cert.extras["W"] = R[:, n:]
    return cert


# ---------------------------------------------------------------------------
# the discrete NI lemma


def _check_the2_preconditions(ss: StateSpace, cfg: Config):
    D = ss.D
    sv = np.linalg.svd(np.stack([D - D.T, D]), compute_uv=False)  # ||D - D'||_2 and ||D||_2
    if sv[0, 0] > 1e-9 * (1.0 + sv[1, 0]):
        raise AsymmetricD("the NI lemma requires D = D^T")
    if not is_minimal(ss, cfg):
        raise NonMinimalRealization("the NI lemma requires a minimal realization")
    require_no_eigenvalue_at(ss.A, -1.0, 1.0)


def _affine_solution_set(S, R):
    """Solve S X = R over symmetric X; return (X0, stacked null basis, residual)."""
    n = S.shape[1]
    basis = _sym_basis(n)
    flat = basis.reshape(len(basis), -1)
    Amat = (S @ basis).reshape(len(basis), -1).T
    x, *_rest = np.linalg.lstsq(Amat, R.ravel(), rcond=None)
    residual = float(np.linalg.norm(Amat @ x - R.ravel()))
    _U, s, Vt = np.linalg.svd(Amat)
    rank = np.count_nonzero(s > 1e-10 * max(s[0], 1.0))
    return (x @ flat).reshape(n, n), (Vt[rank:] @ flat).reshape(-1, n, n), residual


def _dni_lemma(ss: StateSpace, cfg: Config, form: str) -> FeasibilityCertificate:
    """The discrete NI lemma in its primal (X) or dual (Y = X^-1) form.

    With P = C(A+I)^-1 and Q = -B'(A'-I)^-1, the primal form asks for
    symmetric X > 0 with Q X = P and X - A'XA >= 0, the dual form for Y > 0
    with P Y = Q (that is, B = -(A-I) Y (A'+I)^-1 C') and Y - AYA' >= 0.
    The equation is affine, so its solution set is parametrized exactly and
    only the cone search is iterative.  When no search runs (n = 0, or the
    equation has no symmetric solution) the extras say so: no free
    parameters, gap 0 and no Farkas functional.
    """
    _check_the2_preconditions(ss, cfg)
    A, B, C = ss.A, ss.B, ss.C
    n = ss.order
    unsearched = {"free_parameters": 0, "form": form, "gap": 0.0, "farkas": False}
    if n == 0:
        return FeasibilityCertificate(np.zeros((0, 0)), 0.0, np.inf, np.inf, 0, FEASIBLE, unsearched)
    I = np.eye(n)
    P = C @ np.linalg.inv(A + I)           # m x n
    Q = -B.T @ np.linalg.inv(A.T - I)      # m x n
    S, R, Ad = (Q, P, A) if form == "primal" else (P, Q, A.T)

    scale_eq = 1.0 + np.linalg.norm(R) + np.linalg.norm(S)
    X0, null, residual = _affine_solution_set(S, R)
    if residual > 1e-7 * scale_eq:
        return FeasibilityCertificate(None, residual, -np.inf, -np.inf, 0, INFEASIBLE, unsearched)

    def lyap(X):
        return X - Ad.T @ X @ Ad

    scale = 1.0 + np.linalg.norm(X0, 2)
    mu, eta = 1e-9 * scale, 5e-9 * scale
    cone_maps = [(lambda X: X, mu), (lyap, -eta)]
    return _certified_search(X0, null, cone_maps, lyap, lambda X: np.linalg.norm(S @ X - R),
                             {"free_parameters": len(null), "form": form})


def dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT) -> FeasibilityCertificate:
    """Feasibility of the discrete NI lemma.

    Searches symmetric X > 0 with C(A+I)^-1 = -B'(A'-I)^-1 X and
    X - A'XA >= 0.
    """
    return _dni_lemma(ss, cfg, "primal")


def dual_dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT) -> FeasibilityCertificate:
    """The dual (Y) form: B = -(A - I) Y (A' + I)^-1 C', Y > 0, Y - AYA' >= 0."""
    return _dni_lemma(ss, cfg, "dual")
