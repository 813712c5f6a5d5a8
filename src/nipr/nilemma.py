"""State-space certificates for discrete PR and NI transfer matrices.

Both lemmas reduce to finding a symmetric X in an affine family that lands
two affine matrix expressions in semidefinite cones.  Feasibility is searched
by Dykstra alternating projections between the affine set and the product of
cones; any returned certificate is re-verified independently, so solver
quality affects completeness only, never soundness.
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


# ---------------------------------------------------------------------------
# symmetric vectorization (isometric)


def _svec(M):
    n = M.shape[0]
    out = []
    for i in range(n):
        out.append(M[i, i])
        for j in range(i + 1, n):
            out.append(np.sqrt(2.0) * M[i, j])
    return np.array(out)


def _sym_basis(n):
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


def _psd_clip(M, floor=0.0):
    H = 0.5 * (M + M.T)
    lam, V = np.linalg.eigh(H)
    lam = np.maximum(lam, floor)
    return V @ np.diag(lam) @ V.T


# ---------------------------------------------------------------------------
# generic affine/cone feasibility


def _lammin_ascent(X0, Ns, cone_maps, max_iter=300):
    """Maximize the worst cone eigenvalue over the affine family by supergradient
    ascent in the free parameters.  Cheap and effective when the feasible region
    has interior; returns the best point found (no feasibility promise)."""
    k = len(Ns)
    if k == 0:
        return X0
    fns = [f for f, _fl in cone_maps]
    vals0 = [f(X0) for f in fns]
    dmats = [[f(X0 + N) - v0 for N in Ns] for f, v0 in zip(fns, vals0)]

    def point(th):
        return X0 + sum(t * N for t, N in zip(th, Ns))

    def eval_at(th):
        X = point(th)
        lams = []
        for f in fns:
            lam, V = np.linalg.eigh(f(X))
            lams.append((lam[0], V[:, 0]))
        j = int(np.argmin([l for l, _v in lams]))
        return lams[j][0], j, lams

    th = np.zeros(k)
    fcur, j, lams = eval_at(th)
    good = 1e-6 * (1.0 + np.linalg.norm(X0, 2))
    grid = 2.0 ** np.arange(-16.0, 4.0)
    for _ in range(max_iter):
        if fcur > good:
            break
        v = lams[j][1]
        g = np.array([v @ D @ v for D in dmats[j]])
        ng = np.linalg.norm(g)
        if ng == 0.0:
            break
        stepped = False
        for g_try in (g / ng,):
            fs = [eval_at(th + t * g_try)[0] for t in grid]
            bi = int(np.argmax(fs))
            if fs[bi] > fcur + 1e-15:
                th = th + grid[bi] * g_try
                fcur, j, lams = eval_at(th)
                stepped = True
        if not stepped:
            # blend supergradients of all near-active pieces
            gs = []
            for jj, (l, vv) in enumerate(lams):
                if l <= fcur + 1e-7 * (1.0 + abs(fcur)):
                    gg = np.array([vv @ D @ vv for D in dmats[jj]])
                    ngg = np.linalg.norm(gg)
                    if ngg > 0.0:
                        gs.append(gg / ngg)
            if not gs:
                break
            g2 = np.mean(gs, axis=0)
            n2 = np.linalg.norm(g2)
            if n2 < 1e-12:
                break
            fs = [eval_at(th + t * g2 / n2)[0] for t in grid]
            bi = int(np.argmax(fs))
            if fs[bi] <= fcur + 1e-15:
                break
            th = th + grid[bi] * g2 / n2
            fcur, j, lams = eval_at(th)
    return point(th)


def _search_affine_cones(X0, Ns, cone_maps, max_iter=2000, verify=None):
    """Search X = X0 + sum t_k N_k with every cone_map(X) + floor admissible.

    cone_maps: list of (affine function of X returning a symmetric matrix,
    floor) where the value must be >= floor * I.  The first map is X itself.
    ``verify`` allows an early exit once a candidate passes the caller's
    independent check.  Returns (X or None, iterations, stalled_gap).
    """
    k = len(Ns)
    vals0 = [f(X0) for f, _fl in cone_maps]
    b = np.concatenate([_svec(v) for v in vals0])
    sizes = [v.shape[0] for v in vals0]
    if k == 0:
        # the affine set is a single point: verification is decisive
        return X0, 0, np.inf, True
    cols = []
    for N in Ns:
        colv = [f(X0 + N) - v0 for (f, _fl), v0 in zip(cone_maps, vals0)]
        cols.append(np.concatenate([_svec(v) for v in colv]))
    J = np.stack(cols, axis=1)
    Jp = np.linalg.pinv(J)

    def unstack(y):
        out, at = [], 0
        for s in sizes:
            q = s * (s + 1) // 2
            out.append(y[at:at + q])
            at += q
        return out

    def smat(v, s):
        M = np.zeros((s, s))
        at = 0
        for i in range(s):
            M[i, i] = v[at]
            at += 1
            for j in range(i + 1, s):
                M[i, j] = M[j, i] = v[at] / np.sqrt(2.0)
                at += 1
        return M

    def cone_proj(y):
        pieces = unstack(y)
        out = []
        for (v, s, (_f, fl)) in zip(pieces, sizes, cone_maps):
            M = smat(v, s)
            P = _psd_clip(M - fl * np.eye(s)) + fl * np.eye(s)
            out.append(_svec(P))
        return np.concatenate(out)

    if verify is not None:
        Xa = _lammin_ascent(X0, Ns, cone_maps)
        if verify(Xa):
            return Xa, 0, 0.0, False

    y = b.copy()
    p = np.zeros_like(y)
    gap = np.inf
    scale = 1.0 + np.linalg.norm(b)

    def candidate(yv):
        t = Jp @ (yv - b)
        return X0 + sum(tk * N for tk, N in zip(t, Ns))

    stalled = np.zeros_like(y)
    it_total = 0
    certified = False
    for _round in range(10):
        for it in range(max_iter):
            w = y + p
            yc = cone_proj(w)
            p = w - yc
            t = Jp @ (yc - b)
            ya = b + J @ t
            gap = float(np.linalg.norm(ya - yc))
            stalled = yc - ya
            y = ya
            it_total += 1
            if gap <= 1e-12 * scale:
                break
            if verify is not None and it % 50 == 49:
                Xc = candidate(y)
                if verify(Xc):
                    return Xc, it_total, gap, False
        if gap <= 1e-10 * scale:
            break
        certified = _farkas_infeasible(stalled, J, Jp, b, sizes, cone_maps, unstack, smat)
        if certified:
            break
    return candidate(y), it_total, gap, certified


def _farkas_infeasible(z0, J, Jp, b, sizes, cone_maps, unstack, smat):
    """Validate a separating functional proving the affine set misses the cones.

    A block-PSD z orthogonal to the affine directions with <z, b - c> < 0
    (c stacking the cone floors) certifies that no point of the affine family
    lands in every cone.  The functional is parametrized on an orthonormal
    basis of null(J^T), so orthogonality holds by construction, and its block
    eigenvalues and negated value are pushed strictly positive together by
    supergradient ascent seeded from the stalled Dykstra displacement.
    """
    c = np.concatenate([_svec(fl * np.eye(s)) for s, (_f, fl) in zip(sizes, cone_maps)])
    d0 = b - c
    if np.linalg.norm(z0) == 0.0:
        return False
    U, sv, _Vt = np.linalg.svd(J, full_matrices=True)
    rank = int(np.sum(sv > 1e-10 * max(sv[0] if sv.size else 0.0, 1.0)))
    Nc = U[:, rank:]
    if Nc.shape[1] == 0:
        return False

    offs = np.cumsum([0] + [s * (s + 1) // 2 for s in sizes])
    dn = 1.0 + np.linalg.norm(d0)
    dproj = Nc.T @ d0 / dn

    def terms(w):
        z = Nc @ w
        out = []
        for blk, (v, s) in enumerate(zip(unstack(z), sizes)):
            lam, V = np.linalg.eigh(smat(v, s))
            g = np.zeros_like(z)
            g[offs[blk]:offs[blk + 1]] = _svec(np.outer(V[:, 0], V[:, 0]))
            out.append((lam[0], Nc.T @ g))
        out.append((float(-w @ dproj), -dproj))
        return out

    # short Douglas-Rachford warm start between the PSD blocks and null(J^T)
    z = z0.copy()

    def cone_side(y):
        return np.concatenate([_svec(_psd_clip(smat(v, s))) for v, s in zip(unstack(y), sizes)])

    for _ in range(200):
        pa = cone_side(z)
        r = 2.0 * pa - z
        z = z + (r - J @ (Jp @ r)) - pa
    w = Nc.T @ cone_side(z)
    if np.linalg.norm(w) < 1e-14:
        w = Nc.T @ z0
    nw = np.linalg.norm(w)
    if nw == 0.0:
        return False
    w = w / nw

    def accepted(ts):
        # strictly interior certificate, or a singular one whose separation
        # margin dominates the residual negativity of the blocks
        vals = [t[0] for t in ts]
        if min(vals) > 1e-8:
            return True
        value = vals[-1]
        return value >= 1e-4 and min(vals[:-1]) >= -1e-5 * value

    grid = 2.0 ** np.arange(-20.0, 2.0)
    ts = terms(w)
    fcur = min(t[0] for t in ts)
    for _ in range(250):
        if accepted(ts):
            return True
        active = [g for (l, g) in ts if l <= fcur + 1e-7 * (1.0 + abs(fcur))]
        g = np.mean(active, axis=0)
        ng = np.linalg.norm(g)
        if ng < 1e-14:
            break
        g = g / ng
        best_f, best_w = fcur, None
        for t in grid:
            wc = w + t * g
            wc = wc / np.linalg.norm(wc)
            fc = min(tt[0] for tt in terms(wc))
            if fc > best_f:
                best_f, best_w = fc, wc
        if best_w is None:
            break
        w, fcur = best_w, best_f
        ts = terms(w)
    return accepted(ts)


def _certify(X, lyap_fn, eq_residual_fn, iterations, gap, extras=None,
             infeasibility_certified=False):
    scale = 1.0 + (np.linalg.norm(X, 2) if X is not None and X.size else 0.0)
    lam_x = float(np.linalg.eigvalsh(X)[0]) if X is not None and X.size else np.inf
    L = lyap_fn(X) if X is not None else None
    lam_l = float(np.linalg.eigvalsh(L)[0]) if L is not None and L.size else np.inf
    res = eq_residual_fn(X) if X is not None else np.inf
    ok = lam_x > 0.0 and lam_l >= -1e-8 * scale and res <= 1e-7 * scale
    if ok:
        status = FEASIBLE
    elif gap > 1e-6 * scale and infeasibility_certified:
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
    n, m = ss.order, ss.size
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

    def ok(X):
        scale = 1.0 + np.linalg.norm(X, 2)
        return (np.linalg.eigvalsh(X)[0] > 0.0
                and np.linalg.eigvalsh(block(X))[0] >= -1e-8 * scale)

    X, iters, gap, farkas = _search_affine_cones(X0, Ns, cone_maps, verify=ok)
    cert = _certify(X, block, lambda _x: 0.0, iters, gap, infeasibility_certified=farkas)
    if cert.status == FEASIBLE:
        M = _psd_clip(block(X))
        lam, V = np.linalg.eigh(M)
        lam = np.maximum(lam, 0.0)
        R = np.diag(np.sqrt(lam)) @ V.T
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


def dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT, _fallback=True) -> FeasibilityCertificate:
    """Feasibility of the discrete NI lemma.

    Searches symmetric X > 0 with C(A+I)^-1 = -B'(A'-I)^-1 X and
    X - A'XA >= 0; the equation is affine in X, so its solution set is
    parametrized exactly and only the cone search is iterative.
    """
    _check_the2_preconditions(ss, cfg)
    A, B, C = ss.A, ss.B, ss.C
    n = ss.order
    if n == 0:
        return FeasibilityCertificate(np.zeros((0, 0)), 0.0, np.inf, np.inf, 0, FEASIBLE)
    I = np.eye(n)
    R = C @ np.linalg.inv(A + I)           # m x n
    S = -B.T @ np.linalg.inv(A.T - I)      # m x n

    rhs = R.ravel()
    scale_eq = 1.0 + np.linalg.norm(R) + np.linalg.norm(S)
    X0, null, residual = _affine_solution_set(lambda E: (S @ E).ravel(), rhs, n)
    if residual > 1e-7 * scale_eq:
        return FeasibilityCertificate(None, residual, -np.inf, -np.inf, 0, INFEASIBLE)

    def lyap(X):
        return X - A.T @ X @ A

    mu = 1e-9 * (1.0 + np.linalg.norm(X0, 2))
    eta = 5e-9 * (1.0 + np.linalg.norm(X0, 2))
    cone_maps = [(lambda X: X, mu), (lyap, -eta)]

    def ok(X):
        scale = 1.0 + np.linalg.norm(X, 2)
        return (np.linalg.eigvalsh(X)[0] > 0.0
                and np.linalg.eigvalsh(lyap(X))[0] >= -1e-8 * scale
                and np.linalg.norm(S @ X - R) <= 1e-7 * scale)

    X, iters, gap, farkas = _search_affine_cones(X0, null, cone_maps, verify=ok)
    cert = _certify(
        X, lyap, lambda x: np.linalg.norm(S @ x - R), iters, gap,
        extras={"free_parameters": len(null)}, infeasibility_certified=farkas,
    )
    if cert.status == INCONCLUSIVE and _fallback:
        # the dual variable solves the mirrored problem with Y = X^-1, and the
        # two parametrizations rarely stall on the same instance
        dual = dual_dni_lemma_check(ss, cfg, _fallback=False)
        if dual.status == FEASIBLE:
            Xd = np.linalg.inv(dual.X)
            Xd = 0.5 * (Xd + Xd.T)
            if ok(Xd):
                alt = _certify(
                    Xd, lyap, lambda x: np.linalg.norm(S @ x - R), iters + dual.iterations,
                    0.0, extras={"free_parameters": len(null), "via": "dual"},
                )
                if alt.status == FEASIBLE:
                    return alt
    return cert


def dual_dni_lemma_check(ss: StateSpace, cfg: Config = DEFAULT, _fallback=True) -> FeasibilityCertificate:
    """The dual (Y) form: B = -(A - I) Y (A' + I)^-1 C', Y > 0, Y - AYA' >= 0."""
    _check_the2_preconditions(ss, cfg)
    A, B, C = ss.A, ss.B, ss.C
    n = ss.order
    if n == 0:
        return FeasibilityCertificate(np.zeros((0, 0)), 0.0, np.inf, np.inf, 0, FEASIBLE)
    I = np.eye(n)
    R = -np.linalg.inv(A - I) @ B          # n x m
    S = np.linalg.inv(A.T + I) @ C.T       # n x m

    rhs = R.ravel()
    scale_eq = 1.0 + np.linalg.norm(R) + np.linalg.norm(S)
    Y0, null, residual = _affine_solution_set(lambda E: (E @ S).ravel(), rhs, n)
    if residual > 1e-7 * scale_eq:
        return FeasibilityCertificate(None, residual, -np.inf, -np.inf, 0, INFEASIBLE)

    def lyap(Y):
        return Y - A @ Y @ A.T

    mu = 1e-9 * (1.0 + np.linalg.norm(Y0, 2))
    eta = 5e-9 * (1.0 + np.linalg.norm(Y0, 2))
    cone_maps = [(lambda Y: Y, mu), (lyap, -eta)]

    def ok(Y):
        scale = 1.0 + np.linalg.norm(Y, 2)
        return (np.linalg.eigvalsh(Y)[0] > 0.0
                and np.linalg.eigvalsh(lyap(Y))[0] >= -1e-8 * scale
                and np.linalg.norm(Y @ S - R) <= 1e-7 * scale)

    Y, iters, gap, farkas = _search_affine_cones(Y0, null, cone_maps, verify=ok)
    return _certify(
        Y, lyap, lambda y: np.linalg.norm(y @ S - R), iters, gap,
        extras={"free_parameters": len(null), "form": "dual"}, infeasibility_certified=farkas,
    )
