import numpy as np
import pytest

from corpus import dt_mixed, dt_ni, dt_pr
from nipr.analysis_dt import (
    circle_limits,
    classify_dni,
    classify_dpr,
    classify_dssni,
    classify_dsspr,
    classify_dwsni,
    gain_order_check,
)
from nipr.config import DEFAULT
from nipr.errors import ImproperInput, PoleAtPlusMinusOne
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix

COARSE = DEFAULT.with_overrides(grid_points_dt=512, refine_rounds=8)


def scalar(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "dt")


def test_basic_dt_ni():
    G = scalar([1.0], [-0.5, 1.0])  # 1/(z - 0.5)
    assert classify_dni(G, COARSE).verdict
    assert classify_dwsni(G, COARSE).verdict
    assert classify_dssni(G, COARSE).verdict


def test_circle_limits_known_values():
    G = scalar([1.0], [-0.5, 1.0])
    lim = circle_limits(G)
    assert lim.Q0[0, 0] == pytest.approx(8.0, rel=1e-9)
    assert lim.Qpi[0, 0] == pytest.approx(8.0 / 9.0, rel=1e-9)


@pytest.mark.parametrize("num,den", [([1.0, 1.0], [-1.0, 1.0]),    # (z + 1)/(z - 1)
                                     ([1.0], [1.0, 1.0]),           # 1/(z + 1)
                                     ([2.0, 1.0], [-1.0, 0.0, 1.0])])  # (z + 2)/(z^2 - 1)
def test_circle_limits_rejects_a_pole_at_plus_or_minus_one(num, den):
    with pytest.raises(PoleAtPlusMinusOne):
        circle_limits(scalar(num, den))


@pytest.mark.parametrize("z0", [1.0, -1.0])
def test_a_triple_pole_at_plus_or_minus_one_fails_dssni_cleanly(z0):
    # the roots of (z - z0)^3 round inside the circle, yet the pole is at z0: no slope is taken
    rep = classify_dssni(scalar([1.0], [-z0 ** 3, 3.0 * z0 ** 2, -3.0 * z0, 1.0]))
    assert not rep.verdict and not rep.condition("schur-poles").passed
    for cid in ("slope-at-one", "slope-at-minus-one"):
        cond = rep.condition(cid)
        assert not cond.passed and cond.witness == {"note": "boundary pole prevents the limit"}


def test_unstable_dt_pole_fails():
    G = scalar([1.0], [-2.0, 1.0])  # 1/(z - 2)
    rep = classify_dni(G, COARSE)
    assert not rep.verdict
    assert not rep.condition("no-outside-poles").passed


def test_negated_mode_fails_boundary_sign():
    G = scalar([-1.0], [-0.5, 1.0])
    rep = classify_dni(G, COARSE)
    assert not rep.verdict
    assert not rep.condition("boundary-sign").passed


def test_pole_at_plus_one_accepted_with_psd_residue():
    G = scalar([1.0], [-1.0, 1.0])  # 1/(z - 1)
    rep = classify_dni(G, COARSE)
    assert rep.verdict
    assert rep.condition("pole-at-plus-one").passed
    assert not classify_dwsni(G, COARSE).verdict


def test_pole_at_minus_one_sign_convention():
    # -1/(z + 1): A1 = -1 at z = -1, needs A1 + A2 >= 0 so it fails
    G = scalar([-1.0], [1.0, 1.0])
    rep = classify_dni(G, COARSE)
    assert not rep.condition("pole-at-minus-one").passed
    # 1/(z + 1) has A1 = 1 >= 0 and passes the pole condition
    G2 = scalar([1.0], [1.0, 1.0])
    rep2 = classify_dni(G2, COARSE)
    assert rep2.condition("pole-at-minus-one").passed


def test_dpr_atoms():
    F = scalar([0.0, 1.0], [-0.5, 1.0])  # z/(z - 0.5)
    assert classify_dpr(F, COARSE).verdict
    assert classify_dsspr(F, COARSE).verdict
    # 1/(z - 0.5) has a negative Hermitian part near theta = pi
    assert not classify_dpr(scalar([1.0], [-0.5, 1.0]), COARSE).verdict


def test_dpr_corpus():
    rng = np.random.default_rng(31)
    for _ in range(4):
        F = dt_pr(rng, m=2, nterms=2)
        assert classify_dpr(F, COARSE).verdict


def test_containment_chain_on_corpus():
    rng = np.random.default_rng(32)
    for k in range(8):
        G = dt_mixed(rng, m=2, nterms=2) if k % 2 else dt_ni(rng, m=2, nterms=2)
        ssni = classify_dssni(G, COARSE).verdict
        wsni = classify_dwsni(G, COARSE).verdict
        ni = classify_dni(G, COARSE).verdict
        assert (not ssni) or wsni
        assert (not wsni) or ni


def test_gain_ordering():
    rng = np.random.default_rng(33)
    for _ in range(5):
        G = dt_ni(rng, m=2, nterms=2)
        if not classify_dni(G, COARSE).verdict:
            continue
        _M, psd_ok, _pd = gain_order_check(G, COARSE)
        assert psd_ok


def test_gain_order_rejects_boundary_pole():
    G = scalar([1.0], [-1.0, 1.0])
    with pytest.raises(PoleAtPlusMinusOne):
        gain_order_check(G, COARSE)


def test_improper_rejected():
    G = scalar([0.0, 1.0], [1.0])  # z
    with pytest.raises(ImproperInput):
        classify_dni(G, COARSE)
