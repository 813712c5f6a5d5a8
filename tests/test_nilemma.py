import numpy as np
import pytest

from corpus import dt_lemma_corpus, dt_ni
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
