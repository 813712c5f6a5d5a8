import warnings

import numpy as np
import numpy.polynomial.polynomial as npp
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
from nipr.analysis_ct import classify_cni, classify_cssni
from nipr.cli import main
from nipr.config import DEFAULT
from nipr.docio import document_of, save_document
from nipr.errors import ImproperInput, PoleAtPlusMinusOne, PoleProximity
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_cayley


def scalar(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "dt")


def test_basic_dt_ni():
    G = scalar([1.0], [-0.5, 1.0])  # 1/(z - 0.5)
    assert classify_dni(G, DEFAULT).verdict
    assert classify_dwsni(G, DEFAULT).verdict
    assert classify_dssni(G, DEFAULT).verdict


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
    rep = classify_dni(G, DEFAULT)
    assert not rep.verdict
    assert not rep.condition("no-outside-poles").passed


def test_negated_mode_fails_boundary_sign():
    G = scalar([-1.0], [-0.5, 1.0])
    rep = classify_dni(G, DEFAULT)
    assert not rep.verdict
    assert not rep.condition("boundary-sign").passed


def test_pole_at_plus_one_accepted_with_psd_residue():
    G = scalar([1.0], [-1.0, 1.0])  # 1/(z - 1)
    rep = classify_dni(G, DEFAULT)
    assert rep.verdict
    assert rep.condition("pole-at-plus-one").passed
    assert not classify_dwsni(G, DEFAULT).verdict


def test_pole_at_minus_one_sign_convention():
    # -1/(z + 1): A1 = -1 at z = -1, needs A1 + A2 >= 0 so it fails
    G = scalar([-1.0], [1.0, 1.0])
    rep = classify_dni(G, DEFAULT)
    assert not rep.condition("pole-at-minus-one").passed
    # 1/(z + 1) has A1 = 1 >= 0 and passes the pole condition
    G2 = scalar([1.0], [1.0, 1.0])
    rep2 = classify_dni(G2, DEFAULT)
    assert rep2.condition("pole-at-minus-one").passed


def test_dpr_atoms():
    F = scalar([0.0, 1.0], [-0.5, 1.0])  # z/(z - 0.5)
    assert classify_dpr(F, DEFAULT).verdict
    assert classify_dsspr(F, DEFAULT).verdict
    # 1/(z - 0.5) has a negative Hermitian part near theta = pi
    assert not classify_dpr(scalar([1.0], [-0.5, 1.0]), DEFAULT).verdict


def test_dpr_corpus():
    rng = np.random.default_rng(31)
    for _ in range(4):
        F = dt_pr(rng, m=2, nterms=2)
        assert classify_dpr(F, DEFAULT).verdict


def test_containment_chain_on_corpus():
    rng = np.random.default_rng(32)
    for k in range(8):
        G = dt_mixed(rng, m=2, nterms=2) if k % 2 else dt_ni(rng, m=2, nterms=2)
        ssni = classify_dssni(G, DEFAULT).verdict
        wsni = classify_dwsni(G, DEFAULT).verdict
        ni = classify_dni(G, DEFAULT).verdict
        assert (not ssni) or wsni
        assert (not wsni) or ni


def test_gain_ordering():
    rng = np.random.default_rng(33)
    for _ in range(5):
        G = dt_ni(rng, m=2, nterms=2)
        if not classify_dni(G, DEFAULT).verdict:
            continue
        _M, psd_ok, _pd = gain_order_check(G, DEFAULT)
        assert psd_ok


def test_gain_order_rejects_boundary_pole():
    G = scalar([1.0], [-1.0, 1.0])
    with pytest.raises(PoleAtPlusMinusOne):
        gain_order_check(G, DEFAULT)


def test_improper_rejected():
    G = scalar([0.0, 1.0], [1.0])  # z
    with pytest.raises(ImproperInput):
        classify_dni(G, DEFAULT)


@pytest.mark.parametrize("a2", [1.0, -1.0, 0.3, -0.3, 0.0])
@pytest.mark.parametrize("a1", [1.0, 0.5, -0.5, 0.0, 2.0])
@pytest.mark.parametrize("z0,dt_id,ct_id", [(1.0, "pole-at-plus-one", "pole-at-origin"),
                                            (-1.0, "pole-at-minus-one", "pole-at-infinity")])
def test_endpoint_rule_agrees_across_the_cayley_map(z0, dt_id, ct_id, a1, a2):
    # G = (a1 (z - z0) + a2)/(z - z0)^2 + 1/(z - 0.5): A2 = a2 and A1 = a1 at z0.  z = (1 + s)/(1 - s)
    # takes z = 1 to s = 0 and z = -1 to s = inf, where C-NI asks the same of the principal part.
    G = scalar([a2 - a1 * z0, a1], npp.polypow([-z0, 1.0], 2)) + scalar([1.0], [-0.5, 1.0])
    passed = classify_dni(G, DEFAULT).condition(dt_id).passed
    assert passed == (z0 * a2 >= 0.0 and a1 - z0 * a2 >= 0.0)
    assert passed == classify_cni(rm_cayley(G), DEFAULT).condition(ct_id).passed


def test_the_endpoint_slopes_need_a_vanishing_defect_in_both_domains():
    # Q = 2 I/(x0 - p)^2 > 0 at every endpoint x0 (p = 0.5 in DT, -0.5 in CT), but G(x0) - G(x0)^T is
    # [[0, 1], [-1, 0]]: the limit does not exist
    loose = DEFAULT.with_overrides(require_symmetry=False)
    for domain, den, classify in (("dt", [-0.5, 1.0], classify_dssni), ("ct", [0.5, 1.0], classify_cssni)):
        s = RationalScalar
        G = RationalMatrix([[s([1.0], den), s([1.0])], [s.zero(), s([1.0], den)]], domain)
        rep = classify(G, loose)
        slopes = [c for c in rep.conditions if c.cid.startswith("slope-at")]
        assert len(slopes) == (2 if domain == "dt" else 1)
        for c in slopes:
            Q = next(iter(c.witness.values()))
            assert np.linalg.eigvalsh(Q)[0] > 0 and not c.passed


@pytest.mark.xfail(strict=True, reason="np.roots scatters a triple root by about 7e-6, beyond root_cluster, so "
                                       "the exact common factor (z - 1) does not cancel")
def test_an_exact_common_factor_at_a_triple_root_cancels():
    # g = z/(z - 1)^2 + 1/(z - 0.5) is D-NI; entered times (z - 1)/(z - 1) it must stay D-NI
    num = npp.polyadd(npp.polymul([0.0, 1.0], [-0.5, 1.0]), npp.polypow([-1.0, 1.0], 2))
    den = npp.polymul(npp.polypow([-1.0, 1.0], 2), [-0.5, 1.0])
    assert classify_dni(scalar(num, den), DEFAULT).verdict
    G = scalar(npp.polymul(num, [-1.0, 1.0]), npp.polymul(den, [-1.0, 1.0]))
    assert G.entries[0][0].den.size == 4  # the factor cancelled
    assert classify_dni(G, DEFAULT).verdict


def test_a_resonance_just_off_plus_one_is_refused_with_a_typed_error(tmp_path, capsys):
    # z/((z - e^{it})(z - e^{-it})), t = 1.5e-7: both poles of the pair cluster apart but snap onto the
    # same real point near 1, so the deflated denominator vanishes there and no residue is finite
    t = 1.5e-7
    G = scalar([0.0, 1.0], [1.0, -2.0 * np.cos(t), 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PoleProximity, match=r"^entry \(0, 0\): .* pole \(0\.99999"):
            classify_dni(G, DEFAULT)
    path = tmp_path / "g.json"
    save_document(document_of(G), path)
    assert main(["classify", str(path), "--class", "dni"]) == 2
    assert capsys.readouterr().err.startswith("error: entry (0, 0): ")


@pytest.mark.parametrize("a", [1.0 - 1.5e-7, -(1.0 - 1.5e-7)])
def test_a_pole_the_pole_checks_read_on_the_circle_is_not_schur(a):
    # |a| = 1 - 1.5e-7 lies within 2 root_cluster of the circle: D-NI reads 1/(z - a) at its endpoint, so the
    # strict classes must not count the same pole strictly inside the disc
    G = scalar([1.0], [-a, 1.0])
    report = classify_dni(G)
    assert [pd.location for pd in report.pole_data] == [a]
    assert report.condition("pole-at-plus-one" if a > 0 else "pole-at-minus-one").passed
    for classify in (classify_dwsni, classify_dssni):
        assert not classify(G).condition("schur-poles").passed
