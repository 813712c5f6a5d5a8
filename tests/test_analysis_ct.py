import numpy as np
import pytest

from corpus import ct_mixed, ct_ni, ct_pr
from nipr.analysis_ct import (
    classify_cni,
    classify_cpr,
    classify_cssni,
    classify_csspr,
    classify_cwsni,
    classify_cwspr,
    scalar_ni_structure_checks,
)
from nipr.config import DEFAULT
from nipr.errors import ImproperInput
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix


def scalar(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "ct")


def test_first_order_lag_is_pr_and_ni():
    G = scalar([1.0], [1.0, 1.0])  # 1/(s + 1)
    assert classify_cpr(G, DEFAULT).verdict
    assert classify_cni(G, DEFAULT).verdict
    assert classify_cwspr(G, DEFAULT).verdict
    assert classify_cwsni(G, DEFAULT).verdict


def test_differentiator_is_pr_not_ni():
    G = scalar([0.0, 1.0], [1.0])  # s
    rep = classify_cpr(G, DEFAULT)
    assert rep.verdict
    assert rep.limits.K_inf[0, 0] == pytest.approx(1.0)
    rep = classify_cni(G, DEFAULT)
    # s has defect i[2 i w] = -2w < 0 on the upper axis
    assert not rep.verdict


def test_integrator_chain():
    assert classify_cni(scalar([1.0], [0.0, 1.0]), DEFAULT).verdict           # 1/s
    assert classify_cni(scalar([1.0], [0.0, 0.0, 1.0]), DEFAULT).verdict      # 1/s^2
    assert not classify_cni(scalar([-1.0], [0.0, 0.0, 1.0]), DEFAULT).verdict  # -1/s^2
    assert not classify_cni(scalar([1.0], [0.0, 0.0, 0.0, 1.0]), DEFAULT).verdict  # 1/s^3


def test_unstable_pole_fails_everything():
    G = scalar([1.0], [-1.0, 1.0])  # 1/(s - 1)
    assert not classify_cpr(G, DEFAULT).verdict
    assert not classify_cni(G, DEFAULT).verdict
    assert not classify_cpr(G, DEFAULT).condition("no-rhp-poles").passed


@pytest.mark.parametrize("w", [1.2e-7, 1.5e-7, 1.9e-7])
def test_a_resonance_just_off_the_origin_is_an_axis_pair(w):
    # the poles +-i w lie farther from s = 0 than a pole cluster reaches (root_cluster): each is simple
    # with K0 = 1/(2 w) > 0, and the rule of the origin, which would see a non-Hermitian A1, does not apply
    rep = classify_cni(scalar([1.0], [w * w, 0.0, 1.0]), DEFAULT)
    assert rep.verdict and rep.condition("pole-at-origin").passed


def test_lead_lag_is_ssni():
    G = scalar([1.0, -1.0], [1.0, 1.0])  # (1 - s)/(1 + s)
    rep = classify_cssni(G, DEFAULT)
    assert rep.verdict
    assert rep.limits.Q[0, 0] > 0


def test_resonant_mode_is_ni_with_marginal_pole():
    G = scalar([1.0], [4.0, 0.0, 1.0])  # 1/(s^2 + 4)
    rep = classify_cni(G, DEFAULT)
    assert rep.verdict
    assert rep.pole_data and rep.pole_data[0].normalized_K0[0, 0].real == pytest.approx(0.25)


def test_strict_classes_reject_marginal_poles():
    G = scalar([1.0], [0.0, 1.0])  # 1/s
    assert not classify_cwsni(G, DEFAULT).verdict
    assert not classify_cssni(G, DEFAULT).verdict


def test_strict_classes_reject_improper():
    G = scalar([0.0, 1.0], [1.0])
    with pytest.raises(ImproperInput):
        classify_cwspr(G, DEFAULT)


def test_asymmetric_rejected_unless_allowed():
    A = RationalMatrix([
        [RationalScalar([1.0], [1.0, 1.0]), RationalScalar([1.0], [2.0, 1.0])],
        [RationalScalar([2.0], [2.0, 1.0]), RationalScalar([1.0], [3.0, 1.0])],
    ], "ct")
    rep = classify_cni(A, DEFAULT)
    assert not rep.condition("symmetry").passed
    loose = DEFAULT.with_overrides(require_symmetry=False)
    rep2 = classify_cni(A, loose)
    assert rep2.condition("symmetry") is None


def test_containment_chain_on_corpus():
    rng = np.random.default_rng(21)
    for k in range(6):
        G = ct_mixed(rng, m=2, nterms=2) if k % 2 else ct_ni(rng, m=2, nterms=2)
        ssni = classify_cssni(G, DEFAULT).verdict
        wsni = classify_cwsni(G, DEFAULT).verdict
        ni = classify_cni(G, DEFAULT).verdict
        assert (not ssni) or wsni
        assert (not wsni) or ni


def test_pr_corpus():
    rng = np.random.default_rng(22)
    for _ in range(4):
        F = ct_pr(rng, m=2, nterms=2)
        assert classify_cpr(F, DEFAULT).verdict


def test_sspr_example():
    # (s + 3)/((s + 1)(s + 2)) is PR and WSPR but not SSPR
    F = scalar([3.0, 1.0], [2.0, 3.0, 1.0])
    assert classify_cpr(F, DEFAULT).verdict
    assert classify_cwspr(F, DEFAULT).verdict
    rep = classify_csspr(F, DEFAULT)
    assert not rep.verdict
    assert not rep.condition("decay-at-infinity").passed


def test_scalar_structure_checks():
    g = RationalScalar([3.0, 1.0], [1.0, 3.0, 3.0, 1.0])  # (s + 3)/(s + 1)^3
    info = scalar_ni_structure_checks(g)
    assert info["relative_degree"] == 2
    assert info["ni_candidate"]
    g2 = RationalScalar([1.0], [1.0, 4.0, 6.0, 4.0, 1.0])  # 1/(s + 1)^4
    info2 = scalar_ni_structure_checks(g2)
    assert not info2["ni_candidate"]
