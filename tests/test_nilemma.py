import numpy as np
import pytest

from corpus import dt_lemma_corpus, dt_ni, dt_pr
from nipr import nilemma
from nipr.analysis_dt import classify_dni
from nipr.config import DEFAULT
from nipr.errors import AsymmetricD, EigenvalueAtMinusOne, EigenvalueAtPlusOne, NonMinimalRealization
from nipr.nilemma import (
    FEASIBLE,
    INFEASIBLE,
    dni_lemma_check,
    dpr_lemma_check,
    dual_dni_lemma_check,
)
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace, minimal_realization
from nipr.transforms import dt_ni_to_pr


def scalar_dt(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "dt")


def test_known_feasible_scalar():
    # 1/(z - 0.5): the lemma equation pins X = 1/3
    ss = minimal_realization(scalar_dt([1.0], [-0.5, 1.0]))
    cert = dni_lemma_check(ss)
    assert cert.status == FEASIBLE
    assert cert.X[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_known_infeasible_scalar():
    # -1/(z - 0.5) is not D-NI and the lemma must agree
    ss = minimal_realization(scalar_dt([-1.0], [-0.5, 1.0]))
    cert = dni_lemma_check(ss)
    assert cert.status == INFEASIBLE


def test_dual_form_agrees():
    rng = np.random.default_rng(51)
    for _ in range(5):
        G = dt_ni(rng, m=2, nterms=2)
        ss = minimal_realization(G)
        a = dni_lemma_check(ss)
        b = dual_dni_lemma_check(ss)
        assert a.status == b.status == FEASIBLE


def test_certificate_reverification():
    rng = np.random.default_rng(52)
    for _ in range(5):
        G = dt_ni(rng, m=2, nterms=2)
        ss = minimal_realization(G)
        cert = dni_lemma_check(ss)
        assert cert.status == FEASIBLE
        X = cert.X
        A = ss.A
        scale = 1.0 + np.linalg.norm(X, 2)
        assert np.allclose(X, X.T, atol=1e-10 * scale)
        assert np.linalg.eigvalsh(X)[0] > 0
        assert np.linalg.eigvalsh(X - A.T @ X @ A)[0] >= -1e-8 * scale
        n = ss.order
        R = ss.C @ np.linalg.inv(A + np.eye(n))
        S = -ss.B.T @ np.linalg.inv(A.T - np.eye(n))
        assert np.linalg.norm(S @ X - R) <= 1e-7 * scale


def test_pr_lemma_on_transformed_system():
    rng = np.random.default_rng(53)
    G = dt_ni(rng, m=2, nterms=2)
    F = dt_ni_to_pr(G, DEFAULT)
    cert = dpr_lemma_check(minimal_realization(F))
    assert cert.status == FEASIBLE
    # the recovered factor reproduces the LMI block
    X = cert.X
    ss = minimal_realization(F)
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    block = np.block([
        [X - A.T @ X @ A, C.T - A.T @ X @ B],
        [C - B.T @ X @ A, D.T + D - B.T @ X @ B],
    ])
    R = np.vstack([cert.extras["L"].T @ cert.extras["L"], cert.extras["W"].T @ cert.extras["L"]])
    LW = np.hstack([cert.extras["L"], cert.extras["W"]])
    assert np.allclose(LW.T @ LW, block, atol=1e-6 * (1.0 + np.linalg.norm(block, 2)))
    assert R.shape[0] == block.shape[0]


def test_preconditions():
    # asymmetric D
    ss = StateSpace(np.array([[0.5]]), np.eye(1), np.eye(1),
                    np.array([[0.0]]), "dt")
    bad_d = StateSpace(np.array([[0.5, 0.0], [0.0, 0.2]]), np.eye(2), np.eye(2),
                       np.array([[0.0, 1.0], [0.0, 0.0]]), "dt")
    with pytest.raises(AsymmetricD):
        dni_lemma_check(bad_d)
    # eigenvalue at +-1
    at_one = StateSpace(np.array([[1.0]]), np.eye(1), np.eye(1), np.zeros((1, 1)), "dt")
    with pytest.raises(EigenvalueAtPlusOne):
        dni_lemma_check(at_one)
    at_minus = StateSpace(np.array([[-1.0]]), np.eye(1), np.eye(1), np.zeros((1, 1)), "dt")
    with pytest.raises(EigenvalueAtMinusOne):
        dni_lemma_check(at_minus)
    # non-minimal realization
    A = np.diag([0.5, 0.5])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    nonmin = StateSpace(A, B, C, np.zeros((1, 1)), "dt")
    with pytest.raises(NonMinimalRealization):
        dni_lemma_check(nonmin)
    assert ss.order == 1


def test_static_system_feasible():
    ss = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.array([[2.0]]), "dt")
    assert dni_lemma_check(ss).status == FEASIBLE
    assert dpr_lemma_check(ss).status == FEASIBLE


def test_lemma_matches_classifier_on_small_corpus():
    for G in dt_lemma_corpus(seed=54, count=12):
        rep = classify_dni(G, DEFAULT)
        cert = dni_lemma_check(minimal_realization(G), DEFAULT)
        assert cert.status in (FEASIBLE, INFEASIBLE)
        assert (cert.status == FEASIBLE) == rep.verdict


# ---------------------------------------------------------------------------
# the cone search with one list entry per cone: the reference the
# block-diagonal slack of nilemma._search_affine_cones must reproduce


def reference_search_affine_cones(X0, Ns, cone_maps, verify):
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
    while not ok and steps < nilemma._MAX_NEWTON:
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
            if reference_farkas_infeasible(Z, G, F0):
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


def reference_farkas_infeasible(Z, G, F0):
    J = np.concatenate([Gj.reshape(len(Gj), -1) for Gj in G], axis=1).T
    c = np.linalg.lstsq(J, np.concatenate([Zj.ravel() for Zj in Z]), rcond=None)[0]
    Z = [Zj - np.tensordot(c, Gj, 1) for Zj, Gj in zip(Z, G)]
    return bool(all(np.linalg.eigvalsh(Zj)[0] >= 0.0 for Zj in Z)
                and sum(np.sum(Zj * Fj) for Zj, Fj in zip(Z, F0)) < 0.0)


def lemma_cases():
    """(check, state space) pairs: the lemma corpus in both NI forms, then the PR lemma on
    seeded D-PR systems (which all verify at X0 = I) and on corpus members (which enter the
    Newton loop)."""
    corpus = [minimal_realization(G) for G in dt_lemma_corpus(7, 100)]
    rng = np.random.default_rng(56)
    dpr = [minimal_realization(dt_pr(rng, m=1 + k % 2, nterms=1 + k % 3)) for k in range(8)]
    return ([(dni_lemma_check, ss) for ss in corpus] + [(dual_dni_lemma_check, ss) for ss in corpus]
            + [(dpr_lemma_check, ss) for ss in dpr + corpus[:8]])


def test_block_diagonal_search_reproduces_the_per_cone_search(monkeypatch):
    searched = 0
    for check, ss in lemma_cases():
        cert = check(ss)
        with monkeypatch.context() as mp:
            mp.setattr(nilemma, "_search_affine_cones",
                       lambda X0, Ns, maps, verify: reference_search_affine_cones(X0, list(Ns), maps, verify))
            ref = check(ss)
        assert (cert.status, cert.iterations, cert.extras.get("farkas")) == \
            (ref.status, ref.iterations, ref.extras.get("farkas"))
        assert (cert.X is None) == (ref.X is None)
        if ref.X is not None:
            assert np.linalg.norm(cert.X - ref.X) <= 1e-9 * np.linalg.norm(ref.X)
        searched += cert.iterations > 0
    assert searched >= 100


def test_each_newton_step_factors_one_block_diagonal_slack(monkeypatch):
    inside, shapes = [False], []
    search = nilemma._search_affine_cones

    def traced_search(*args):
        inside[0] = True
        try:
            return search(*args)
        finally:
            inside[0] = False

    def recorded(fn):
        def wrapped(a, *args, **kwargs):
            if inside[0]:
                shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(nilemma, "_search_affine_cones", traced_search)
    monkeypatch.setattr(np.linalg, "cholesky", recorded(np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "inv", recorded(np.linalg.inv))
    # the first member is Infeasible by a Farkas functional, the sixth is
    # D-PR but its PR search starts outside the cones
    corpus = dt_lemma_corpus(7, 6)
    ni, pr = minimal_realization(corpus[0]), minimal_realization(corpus[5])
    for check, ss, size in ((dni_lemma_check, ni, 2 * ni.order),
                            (dpr_lemma_check, pr, 2 * pr.order + pr.D.shape[1])):
        shapes.clear()
        cert = check(ss)
        assert cert.iterations > 0
        assert len(shapes) > cert.iterations
        assert set(shapes) == {(size, size)}
