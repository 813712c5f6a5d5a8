import numpy as np
import pytest

from corpus import ct_ni, ct_pr, dt_ni, dt_pr, psd
from nipr.analysis_ct import classify_cni, classify_cpr, classify_cssni, classify_csspr
from nipr.analysis_dt import classify_dni, classify_dpr
from nipr.config import DEFAULT
from nipr.errors import (
    AsymmetricD,
    AsymmetricOffset,
    EigenvalueAtMinusOne,
    EpsilonSearchFailed,
    ImproperInput,
    PoleAtMinusOne,
)
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_eval
from nipr.realization import minimal_realization, tf_of
from nipr.transforms import (
    csspr_to_cssni,
    cssni_to_csspr,
    ct_ni_to_pr,
    ct_pr_to_ni,
    dt_ni_to_pr,
    dt_ni_to_pr_ss,
    dt_pr_to_ni,
)


def test_ct_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(4):
        G = ct_ni(rng, m=2, nterms=2, strictly_proper=False)
        F = ct_ni_to_pr(G, DEFAULT)
        back = ct_pr_to_ni(F, G.value_at_inf())
        assert G.equals(back)


def test_ct_forward_maps_ni_to_pr():
    rng = np.random.default_rng(42)
    for _ in range(3):
        G = ct_ni(rng, m=2, nterms=2)
        assert classify_cni(G, DEFAULT).verdict
        F = ct_ni_to_pr(G, DEFAULT)
        assert classify_cpr(F, DEFAULT).verdict


def test_ct_converse_maps_pr_to_ni():
    rng = np.random.default_rng(43)
    for _ in range(3):
        F = ct_pr(rng, m=2, nterms=2)
        assert classify_cpr(F, DEFAULT).verdict
        G = ct_pr_to_ni(F, psd(rng, 2))
        assert classify_cni(G, DEFAULT).verdict


def test_ct_ni_to_pr_rejects_improper():
    G = RationalMatrix([[RationalScalar([0.0, 1.0], [1.0])]], "ct")
    with pytest.raises(ImproperInput):
        ct_ni_to_pr(G, DEFAULT)


def test_ct_pr_to_ni_rejects_asymmetric_offset():
    rng = np.random.default_rng(44)
    F = ct_pr(rng, m=2, nterms=1)
    with pytest.raises(AsymmetricD):
        ct_pr_to_ni(F, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dt_round_trip():
    rng = np.random.default_rng(45)
    for _ in range(4):
        G = dt_ni(rng, m=2, nterms=2)
        F = dt_ni_to_pr(G, DEFAULT)
        Gm1 = np.real(rm_eval(G, -1.0))
        back = dt_pr_to_ni(F, 0.5 * (Gm1 + Gm1.T))
        assert G.equals(back)


def test_dt_forward_maps_ni_to_pr():
    rng = np.random.default_rng(46)
    for _ in range(3):
        G = dt_ni(rng, m=2, nterms=2)
        assert classify_dni(G, DEFAULT).verdict
        F = dt_ni_to_pr(G, DEFAULT)
        assert classify_dpr(F, DEFAULT).verdict


def test_dt_converse_maps_pr_to_ni():
    rng = np.random.default_rng(47)
    for _ in range(3):
        F = dt_pr(rng, m=2, nterms=2)
        assert classify_dpr(F, DEFAULT).verdict
        G = dt_pr_to_ni(F, psd(rng, 2))
        assert classify_dni(G, DEFAULT).verdict


def test_dt_ni_to_pr_rejects_pole_at_minus_one():
    G = RationalMatrix([[RationalScalar([1.0], [1.0, 1.0])]], "dt")  # 1/(z + 1)
    with pytest.raises(PoleAtMinusOne):
        dt_ni_to_pr(G, DEFAULT)


def test_dt_pr_to_ni_rejects_asymmetric_offset():
    rng = np.random.default_rng(48)
    F = dt_pr(rng, m=2, nterms=1)
    with pytest.raises(AsymmetricOffset):
        dt_pr_to_ni(F, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_epsilon_search_both_directions():
    # (1 - s)/(1 + s) is strongly strict NI; the shifted image must be SSPR
    G = RationalMatrix([[RationalScalar([1.0, -1.0], [1.0, 1.0])]], "ct")
    assert classify_cssni(G, DEFAULT).verdict
    F, eps = cssni_to_csspr(G, DEFAULT)
    assert eps > 0
    assert classify_csspr(F, DEFAULT).verdict
    G2, eps2 = csspr_to_cssni(F, np.zeros((1, 1)), DEFAULT)
    assert eps2 > 0
    assert classify_cssni(G2, DEFAULT).verdict


@pytest.mark.parametrize("fn,num,den", [
    (cssni_to_csspr, [1.0], [0.0, 1.0, 1.0]),   # 1/(s(s + 1)), not SSNI: eps = 0 was "certified"
    (cssni_to_csspr, [1.0], [1.0, 0.0, 1.0]),   # 1/(s^2 + 1)
    (csspr_to_cssni, [1.0, 1.0], [0.0, 1.0]),   # (s + 1)/s
])
def test_epsilon_search_refuses_a_pole_on_the_imaginary_axis(fn, num, den):
    R = RationalMatrix([[RationalScalar(num, den)]], "ct")
    args = (R,) if fn is cssni_to_csspr else (R, np.zeros((1, 1)))
    with pytest.raises(EpsilonSearchFailed) as err:
        fn(*args, DEFAULT)
    assert err.value.history == []  # refused before any classification


def test_dt_ni_to_pr_ss_matches_tf_map():
    rng = np.random.default_rng(49)
    G = dt_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G, DEFAULT)
    out, minimal = dt_ni_to_pr_ss(ss, DEFAULT)
    F = dt_ni_to_pr(G, DEFAULT)
    assert tf_of(out).equals(F)
    assert isinstance(minimal, (bool, np.bool_))


def test_dt_ni_to_pr_ss_rejects_eigenvalue_at_minus_one():
    from nipr.realization import StateSpace
    ss = StateSpace(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]), "dt")
    with pytest.raises(EigenvalueAtMinusOne):
        dt_ni_to_pr_ss(ss, DEFAULT)
