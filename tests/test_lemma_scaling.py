"""The NI-lemma cone search on larger systems: state dimension up to 8, m up to 3.

Every answer must be decisive, agree with the frequency-domain classifier, and
carry an X that passes the lemma's conditions when re-checked here.
"""

import numpy as np
import pytest

from corpus import dt_mixed, dt_ni
from nipr.analysis_dt import classify_dni
from nipr.config import DEFAULT
from nipr.nilemma import FEASIBLE, INFEASIBLE, dni_lemma_check, dual_dni_lemma_check
from nipr.realization import minimal_realization


def assert_lemma_holds(ss, X, form):
    A, B, C = ss.A, ss.B, ss.C
    I = np.eye(ss.order)
    scale = 1.0 + np.linalg.norm(X, 2)
    assert np.allclose(X, X.T, atol=1e-10 * scale)
    assert np.linalg.eigvalsh(X)[0] > 0
    if form == "primal":
        # C(A+I)^-1 = -B'(A'-I)^-1 X and X - A'XA >= 0
        lyap = X - A.T @ X @ A
        residual = -B.T @ np.linalg.inv(A.T - I) @ X - C @ np.linalg.inv(A + I)
    else:
        # B = -(A-I) Y (A'+I)^-1 C' and Y - AYA' >= 0
        lyap = X - A @ X @ A.T
        residual = X @ np.linalg.inv(A.T + I) @ C.T + np.linalg.inv(A - I) @ B
    assert np.linalg.eigvalsh(lyap)[0] >= -1e-8 * scale
    assert np.linalg.norm(residual) <= 1e-7 * scale


@pytest.mark.parametrize("m, nterms", [(2, 4), (3, 2)])
@pytest.mark.parametrize("gen", [dt_ni, dt_mixed])
def test_lemma_decides_larger_systems_like_the_classifier(gen, m, nterms):
    rng = np.random.default_rng(55)
    for _ in range(3):
        G = gen(rng, m=m, nterms=nterms)
        ss = minimal_realization(G)
        assert ss.order <= 8
        verdict = classify_dni(G, DEFAULT).verdict
        for form, check in (("primal", dni_lemma_check), ("dual", dual_dni_lemma_check)):
            cert = check(ss, DEFAULT)
            assert cert.status in (FEASIBLE, INFEASIBLE)
            assert (cert.status == FEASIBLE) == verdict
            if cert.status == FEASIBLE:
                assert_lemma_holds(ss, cert.X, form)


@pytest.mark.parametrize("seed", [0, 4])
def test_far_points_of_a_non_ni_family_are_not_certified(seed):
    # The eighth system drawn here is not D-NI, yet its lemma family holds
    # directions along which both cones stay nearly PSD.  Far out along them
    # the re-verification's tolerances, relative to ||X||, accept an X whose
    # Lyapunov block has a clearly negative eigenvalue (-0.14 at ||X|| = 1.6e7
    # for seed 0); only points that meet the floored cones may be offered.
    rng = np.random.default_rng(seed)
    for m, nterms in ((2, 4), (3, 2), (3, 1), (1, 6)):
        dt_ni(rng, m=m, nterms=nterms)
        G = dt_mixed(rng, m=m, nterms=nterms)
    assert not classify_dni(G, DEFAULT).verdict
    ss = minimal_realization(G)
    for check in (dni_lemma_check, dual_dni_lemma_check):
        assert check(ss, DEFAULT).status == INFEASIBLE
