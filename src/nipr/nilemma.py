"""State-space certificates for discrete PR and NI transfer matrices.

Both lemmas ask whether an affine family of symmetric matrices
X = X0 + sum_k theta_k N_k meets a product of semidefinite cones: X itself
and a Lyapunov-type block, each shifted by a small floor.  One interior-point
search answers it for the PR lemma and for both forms of the NI lemma (the
primal X form and the dual Y = X^-1 form, ``form="primal"`` / ``"dual"`` of
the same routine).  It follows the log-det barrier path of
max t  s.t.  every block minus its floor >= t I  (Vandenberghe & Boyd,
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
completeness only, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _sym_basis(n):
    """An orthonormal basis of the symmetric n x n matrices."""
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    return basis


# ---------------------------------------------------------------------------
# generic affine/cone feasibility

_MAX_NEWTON = 400  # Newton steps before the search gives up


def _search_affine_cones(X0, Ns, cone_maps, verify):
    """Search X = X0 + sum theta_k N_k with every f_j(X) >= floor_j I.

    cone_maps: list of (affine function of X returning a symmetric matrix,
    floor); the first map is X itself.  With S_j = f_j(X) - floor_j I - t I,
    damped Newton steps in x = (theta, t) minimize the log-det barrier
    -w t - sum_j log det S_j, and w grows tenfold at each centered point, so
    the path climbs to max t while the duality gap bound sum_j size_j / w
    shrinks.  Each Newton step also gives a dual point,
    Z_j = S_j^-1 (S_j - dS_j) S_j^-1 / w, orthogonal to the affine directions
    and PSD once the squared Newton decrement is below 1; while t < 0 it goes
    to ``_farkas_infeasible``.

    ``verify`` is the caller's independent check of X.  It sees an iterate
    once t >= 0, that is once X meets every floored cone: the callers'
    tolerances are relative to ||X||, and along a direction that keeps the
    cones (nearly) PSD the path can run so far out that they would accept an
    X missing a cone by a wide margin.  Returns (the verified X or None,
    Newton steps, the gap bound, whether a separating functional was
    validated).
    """
    vals = [f(X0) for f, _fl in cone_maps]
    F0 = [v - fl * np.eye(len(v)) for v, (_f, fl) in zip(vals, cone_maps)]
    if not Ns:
        # the affine set is a single point: verification is decisive
        return X0, 0, 0.0, False
    G = [np.array([f(X0 + N) - v for N in Ns]) for v, (f, _fl) in zip(vals, cone_maps)]
    # S_j moves by sum_a x_a D_j[a]: theta along G_j, t along -I
    D = [np.concatenate([Gj, -np.eye(len(F))[None]]) for Gj, F in zip(G, F0)]
    vec_eye = np.concatenate([np.eye(len(F)).ravel() for F in F0])

    def point(x):
        return X0 + sum(th * N for th, N in zip(x, Ns))

    def factor(x):
        """Cholesky factors of every S_j at x, or None if one is not PD."""
        try:
            return [np.linalg.cholesky(F + np.tensordot(x, Dj, 1)) for F, Dj in zip(F0, D)]
        except np.linalg.LinAlgError:
            return None

    def barrier(x, Ls):
        return -w * x[-1] - 2.0 * sum(np.log(np.diag(L)).sum() for L in Ls)

    spread = max(np.linalg.norm(F, 2) for F in F0) or 1.0
    size = sum(len(F) for F in F0)
    margin = min(np.linalg.eigvalsh(F)[0] for F in F0)
    x = np.zeros(len(Ns) + 1)
    x[-1] = margin - spread
    Ls = factor(x)
    # the weight that centers the start in t, so the gap bound starts near spread
    w = float(sum(np.sum(np.linalg.inv(L) ** 2) for L in Ls))
    X, steps = X0, 0
    ok = margin >= 0.0 and verify(X)
    while not ok and steps < _MAX_NEWTON:
        Li = [np.linalg.inv(L) for L in Ls]
        W = [(Lj @ Dj @ Lj.T).reshape(len(Dj), -1) for Lj, Dj in zip(Li, D)]  # L^-1 D L^-T
        # The Hessian is M M' with M = [W_1 ... W_J] and the negated gradient
        # is M vec(I) + w e_t.  Far along a direction that keeps the cones
        # (nearly) PSD, M M' is too ill-conditioned to factor, but the SVD of
        # M still resolves the step.
        U, sv, Vt = np.linalg.svd(np.concatenate(W, axis=1), full_matrices=False)
        if sv[-1] <= 1e-15 * sv[0]:
            break
        y = sv * (Vt @ vec_eye) + w * U[-1]
        dx = U @ (y / sv ** 2)
        dec = np.sum((y / sv) ** 2)  # squared Newton decrement
        if dec < 1.0 and x[-1] < 0.0:
            Z = [Lj.T @ (np.eye(len(Lj)) - (Wj.T @ dx).reshape(Lj.shape)) @ Lj / w
                 for Lj, Wj in zip(Li, W)]
            if _farkas_infeasible(Z, G, F0):
                return None, steps, size / w, True
        if dec < 1e-8:
            if size / w <= 1e-12 * spread:
                break
            w *= 10.0
            continue
        f0, alpha = barrier(x, Ls), 1.0
        while True:
            Lc = factor(x + alpha * dx)
            if Lc is not None and barrier(x + alpha * dx, Lc) <= f0 - 0.25 * alpha * dec:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                return None, steps, size / w, False
        x, Ls = x + alpha * dx, Lc
        X, steps = point(x), steps + 1
        ok = x[-1] >= 0.0 and verify(X)
    return (X if ok else None), steps, size / w, False


def _farkas_infeasible(Z, G, F0):
    """Validate a separating functional proving the affine set misses the cones.

    Z holds one candidate matrix per cone block, G[j][k] the change of block j
    along the k-th affine direction and F0[j] block j at the base point, floor
    subtracted.  Z is projected exactly onto the orthogonal complement of the
    directions.  If every projected block is PSD and sum_j <Z_j, F0_j> < 0,
    then sum_j <Z_j, F_j> < 0 at every point of the affine family, which no
    point with every F_j PSD can give.
    """
    J = np.concatenate([Gj.reshape(len(Gj), -1) for Gj in G], axis=1).T
    c = np.linalg.lstsq(J, np.concatenate([Zj.ravel() for Zj in Z]), rcond=None)[0]
    Z = [Zj - np.tensordot(c, Gj, 1) for Zj, Gj in zip(Z, G)]
    return bool(all(np.linalg.eigvalsh(Zj)[0] >= 0.0 for Zj in Z)
                and sum(np.sum(Zj * Fj) for Zj, Fj in zip(Z, F0)) < 0.0)


def _certify(X, lyap_fn, eq_residual_fn, iterations, infeasible, extras=None):
    """Re-verify X; ``infeasible`` says the search proved that no X exists."""
    scale = 1.0 + (np.linalg.norm(X, 2) if X is not None and X.size else 0.0)
    lam_x = float(np.linalg.eigvalsh(X)[0]) if X is not None and X.size else np.inf
    L = lyap_fn(X) if X is not None else None
    lam_l = float(np.linalg.eigvalsh(L)[0]) if L is not None and L.size else np.inf
    res = eq_residual_fn(X) if X is not None else np.inf
    ok = lam_x > 0.0 and lam_l >= -1e-8 * scale and res <= 1e-7 * scale
    if ok:
        status = FEASIBLE
    elif infeasible:
        status = INFEASIBLE
    else:
        status = INCONCLUSIVE
    return FeasibilityCertificate(
        X=X, residual_affine=float(res), lambda_min_X=lam_x, lambda_min_lyap=lam_l,
        iterations=iterations, status=status, extras=extras or {},
    )


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
        return np.block([
            [X - A.T @ X @ A, C.T - A.T @ X @ B],
            [C - B.T @ X @ A, D.T + D - B.T @ X @ B],
        ])

    mu = 1e-7
    X0 = np.eye(n)
    Ns = _sym_basis(n)
    eta = 5e-9 * (1.0 + np.linalg.norm(block(X0), 2))
    cone_maps = [(lambda X: X, mu), (block, -eta)]

    def verify(X):
        return _certify(X, block, lambda _x: 0.0, 0, False).status == FEASIBLE

    X, iters, gap, farkas = _search_affine_cones(X0, Ns, cone_maps, verify)
    cert = _certify(X, block, lambda _x: 0.0, iters, farkas,
                    extras={"gap": gap, "farkas": farkas})
    if cert.status == FEASIBLE:
        lam, V = np.linalg.eigh(block(X))
        R = np.diag(np.sqrt(np.maximum(lam, 0.0))) @ V.T
        cert.extras["L"] = R[:, :n]
        cert.extras["W"] = R[:, n:]
    return cert


# ---------------------------------------------------------------------------
# the discrete NI lemma


def _check_the2_preconditions(ss: StateSpace, cfg: Config):
    A, D = ss.A, ss.D
    n = ss.order
    if np.linalg.norm(D - D.T, 2) > 1e-9 * (1.0 + np.linalg.norm(D, 2)):
        raise AsymmetricD("the NI lemma requires D = D^T")
    if n == 0:
        return
    if not is_minimal(ss, cfg):
        raise NonMinimalRealization("the NI lemma requires a minimal realization")
    require_no_eigenvalue_at(A, -1.0)
    require_no_eigenvalue_at(A, 1.0)


def _affine_solution_set(Smap_cols, rhs_vec, n):
    """Solve the linear system over symmetric X; return (X0, nullbasis, residual)."""
    basis = _sym_basis(n)
    Amat = np.stack([Smap_cols(E) for E in basis], axis=1)
    x, *_rest = np.linalg.lstsq(Amat, rhs_vec, rcond=None)
    residual = float(np.linalg.norm(Amat @ x - rhs_vec))
    X0 = sum(xk * E for xk, E in zip(x, basis))
    U, s, Vt = np.linalg.svd(Amat)
    smax = s[0] if s.size else 0.0
    null = [
        sum(vk * E for vk, E in zip(Vt[r], basis))
        for r in range(len(basis))
        if r >= s.size or s[r] <= 1e-10 * max(smax, 1.0)
    ]
    return X0, null, residual


def _dni_lemma(ss: StateSpace, cfg: Config, form: str) -> FeasibilityCertificate:
    """The discrete NI lemma in its primal (X) or dual (Y = X^-1) form.

    With P = C(A+I)^-1 and Q = -B'(A'-I)^-1, the primal form asks for
    symmetric X > 0 with Q X = P and X - A'XA >= 0, the dual form for Y > 0
    with P Y = Q (that is, B = -(A-I) Y (A'+I)^-1 C') and Y - AYA' >= 0.
    The equation is affine, so its solution set is parametrized exactly and
    only the cone search is iterative.
    """
    _check_the2_preconditions(ss, cfg)
    A, B, C = ss.A, ss.B, ss.C
    n = ss.order
    if n == 0:
        return FeasibilityCertificate(np.zeros((0, 0)), 0.0, np.inf, np.inf, 0, FEASIBLE)
    I = np.eye(n)
    P = C @ np.linalg.inv(A + I)           # m x n
    Q = -B.T @ np.linalg.inv(A.T - I)      # m x n
    S, R, Ad = (Q, P, A) if form == "primal" else (P, Q, A.T)

    scale_eq = 1.0 + np.linalg.norm(R) + np.linalg.norm(S)
    X0, null, residual = _affine_solution_set(lambda E: (S @ E).ravel(), R.ravel(), n)
    if residual > 1e-7 * scale_eq:
        return FeasibilityCertificate(None, residual, -np.inf, -np.inf, 0, INFEASIBLE)

    def lyap(X):
        return X - Ad.T @ X @ Ad

    def eq_residual(X):
        return np.linalg.norm(S @ X - R)

    mu = 1e-9 * (1.0 + np.linalg.norm(X0, 2))
    eta = 5e-9 * (1.0 + np.linalg.norm(X0, 2))
    cone_maps = [(lambda X: X, mu), (lyap, -eta)]

    def verify(X):
        return _certify(X, lyap, eq_residual, 0, False).status == FEASIBLE

    X, iters, gap, farkas = _search_affine_cones(X0, null, cone_maps, verify)
    return _certify(
        X, lyap, eq_residual, iters, farkas or not null,
        extras={"free_parameters": len(null), "form": form, "gap": gap, "farkas": farkas},
    )


def dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT) -> FeasibilityCertificate:
    """Feasibility of the discrete NI lemma.

    Searches symmetric X > 0 with C(A+I)^-1 = -B'(A'-I)^-1 X and
    X - A'XA >= 0.
    """
    return _dni_lemma(ss, cfg, "primal")


def dual_dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT) -> FeasibilityCertificate:
    """The dual (Y) form: B = -(A - I) Y (A' + I)^-1 C', Y > 0, Y - AYA' >= 0."""
    return _dni_lemma(ss, cfg, "dual")
