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

COARSE = DEFAULT.with_overrides(grid_points_ct=400, grid_points_dt=512, refine_rounds=8)


def test_ct_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(4):
        G = ct_ni(rng, m=2, nterms=2, strictly_proper=False)
        F = ct_ni_to_pr(G, COARSE)
        back = ct_pr_to_ni(F, G.value_at_inf(), COARSE)
        assert G.equals(back)


def test_ct_forward_maps_ni_to_pr():
    rng = np.random.default_rng(42)
    for _ in range(3):
        G = ct_ni(rng, m=2, nterms=2)
        assert classify_cni(G, COARSE).verdict
        F = ct_ni_to_pr(G, COARSE)
        assert classify_cpr(F, COARSE).verdict


def test_ct_converse_maps_pr_to_ni():
    rng = np.random.default_rng(43)
    for _ in range(3):
        F = ct_pr(rng, m=2, nterms=2)
        assert classify_cpr(F, COARSE).verdict
        G = ct_pr_to_ni(F, psd(rng, 2), COARSE)
        assert classify_cni(G, COARSE).verdict


def test_ct_ni_to_pr_rejects_improper():
    G = RationalMatrix([[RationalScalar([0.0, 1.0], [1.0])]], "ct")
    with pytest.raises(ImproperInput):
        ct_ni_to_pr(G, COARSE)


def test_ct_pr_to_ni_rejects_asymmetric_offset():
    rng = np.random.default_rng(44)
    F = ct_pr(rng, m=2, nterms=1)
    with pytest.raises(AsymmetricD):
        ct_pr_to_ni(F, np.array([[0.0, 1.0], [0.0, 0.0]]), COARSE)


def test_dt_round_trip():
    rng = np.random.default_rng(45)
    for _ in range(4):
        G = dt_ni(rng, m=2, nterms=2)
        F = dt_ni_to_pr(G, COARSE)
        Gm1 = np.real(rm_eval(G, -1.0))
        back = dt_pr_to_ni(F, 0.5 * (Gm1 + Gm1.T), COARSE)
        assert G.equals(back)


def test_dt_forward_maps_ni_to_pr():
    rng = np.random.default_rng(46)
    for _ in range(3):
        G = dt_ni(rng, m=2, nterms=2)
        assert classify_dni(G, COARSE).verdict
        F = dt_ni_to_pr(G, COARSE)
        assert classify_dpr(F, COARSE).verdict


def test_dt_converse_maps_pr_to_ni():
    rng = np.random.default_rng(47)
    for _ in range(3):
        F = dt_pr(rng, m=2, nterms=2)
        assert classify_dpr(F, COARSE).verdict
        G = dt_pr_to_ni(F, psd(rng, 2), COARSE)
        assert classify_dni(G, COARSE).verdict


def test_dt_ni_to_pr_rejects_pole_at_minus_one():
    G = RationalMatrix([[RationalScalar([1.0], [1.0, 1.0])]], "dt")  # 1/(z + 1)
    with pytest.raises(PoleAtMinusOne):
        dt_ni_to_pr(G, COARSE)


def test_dt_pr_to_ni_rejects_asymmetric_offset():
    rng = np.random.default_rng(48)
    F = dt_pr(rng, m=2, nterms=1)
    with pytest.raises(AsymmetricOffset):
        dt_pr_to_ni(F, np.array([[0.0, 1.0], [0.0, 0.0]]), COARSE)


def test_epsilon_search_both_directions():
    # (1 - s)/(1 + s) is strongly strict NI; the shifted image must be SSPR
    G = RationalMatrix([[RationalScalar([1.0, -1.0], [1.0, 1.0])]], "ct")
    assert classify_cssni(G, COARSE).verdict
    F, eps = cssni_to_csspr(G, COARSE)
    assert eps > 0
    assert classify_csspr(F, COARSE).verdict
    G2, eps2 = csspr_to_cssni(F, np.zeros((1, 1)), COARSE)
    assert eps2 > 0
    assert classify_cssni(G2, COARSE).verdict


@pytest.mark.parametrize("fn,num,den", [
    (cssni_to_csspr, [1.0], [0.0, 1.0, 1.0]),   # 1/(s(s + 1)), not SSNI: eps = 0 was "certified"
    (cssni_to_csspr, [1.0], [1.0, 0.0, 1.0]),   # 1/(s^2 + 1)
    (csspr_to_cssni, [1.0, 1.0], [0.0, 1.0]),   # (s + 1)/s
])
def test_epsilon_search_refuses_a_pole_on_the_imaginary_axis(fn, num, den):
    R = RationalMatrix([[RationalScalar(num, den)]], "ct")
    args = (R,) if fn is cssni_to_csspr else (R, np.zeros((1, 1)))
    with pytest.raises(EpsilonSearchFailed) as err:
        fn(*args, COARSE)
    assert err.value.history == []  # refused before any classification


def test_dt_ni_to_pr_ss_matches_tf_map():
    rng = np.random.default_rng(49)
    G = dt_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G, COARSE)
    out, minimal = dt_ni_to_pr_ss(ss, COARSE)
    F = dt_ni_to_pr(G, COARSE)
    assert tf_of(out).equals(F)
    assert isinstance(minimal, (bool, np.bool_))


def test_dt_ni_to_pr_ss_rejects_eigenvalue_at_minus_one():
    from nipr.realization import StateSpace
    ss = StateSpace(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]), "dt")
    with pytest.raises(EigenvalueAtMinusOne):
        dt_ni_to_pr_ss(ss, COARSE)
