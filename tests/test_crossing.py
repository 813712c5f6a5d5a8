"""The state-space crossing test behind the strict classes.

A strict class needs its boundary form positive definite on the whole
boundary, so its verdict turns on whether the form is singular anywhere there.
``boundary.boundary_det_zeros`` finds those points as the finite zeros of a
realization of the form.  The first tests are verdicts the symbolic
determinant got wrong: spurious zeros, zeros split off the ends of the
discrete-time arc, and a crash at m = 5.  The others check that a touching
point is still found where the grid scan cannot see it.
"""

import numpy as np
import pytest

import corpus
from nipr import analysis, boundary
from nipr.analysis_ct import classify_cni, classify_cpr, classify_csspr, classify_cwsni, classify_cwspr
from nipr.analysis_dt import classify_dpr, classify_dssni, classify_dsspr, classify_dwsni
from nipr.config import DEFAULT
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import minimal_realization
from nipr.transforms import ct_ni_to_pr


def reference(gen, m):
    return getattr(corpus, gen)(np.random.default_rng(0), m=m, nterms=3)


def scalar(num, den, domain="ct"):
    return RationalMatrix([[RationalScalar(num, den)]], domain)


def crossings(report):
    return report.condition("strict-boundary-sign").witness["det_zeros"]


def test_strictly_pr_ni_sum_has_no_spurious_crossing():
    G = reference("ct_ni", 4)
    assert classify_cwspr(G).verdict and classify_csspr(G).verdict


@pytest.mark.parametrize("m", [2, 4])
def test_arc_ends_of_the_defect_are_not_crossings(m):
    G = reference("dt_ni", m)
    assert classify_dwsni(G).verdict and classify_dssni(G).verdict


@pytest.mark.parametrize("gen,classify", [("dt_ni", classify_dwsni), ("ct_ni", classify_cwsni)])
def test_weakly_strict_ni_is_decided_at_m5(gen, classify):
    assert classify(reference(gen, 5)).verdict


def test_narrow_dip_fails_the_plain_ni_class():
    w = 10.37
    G = scalar([1.0], [1.0, 1.0]) - scalar([1e-3], [w * w, 2e-6 * w, 1.0])
    rep = classify_cni(G)
    assert not rep.verdict and not rep.condition("boundary-sign").passed
    # F = s (G(s) - G(inf)), the PR image of G, has the dip in its Hermitian part
    rep = classify_cpr(ct_ni_to_pr(G))
    assert not rep.verdict and not rep.condition("boundary-psd").passed


def test_narrow_dip_is_a_pair_of_crossings():
    w = 10.37
    G = scalar([1.0], [1.0, 1.0]) - scalar([1e-3], [w * w, 2e-6 * w, 1.0])
    rep = classify_cwsni(G)
    assert not rep.verdict
    assert len(crossings(rep)) == 2
    assert all(abs(z - 1j * w) < 1e-3 for z in crossings(rep))


def test_a_scalar_that_touches_zero_is_not_strictly_pr():
    # Re (s^2 + 1)/(s + 1)^2 at s = i w is (1 - w^2)^2/(1 + w^2)^2: PSD, zero at w = 1
    rep = classify_cwspr(scalar([1.0, 0.0, 1.0], [1.0, 2.0, 1.0]))
    assert not rep.verdict
    assert crossings(rep) and all(abs(abs(z) - 1.0) < 1e-6 for z in crossings(rep))


@pytest.mark.parametrize("num,z0", [([1.0, 1.0], -1.0), ([-1.0, 1.0], 1.0)])
def test_a_touch_at_an_end_of_the_circle_is_found(num, z0):
    # F = 1 +- 1/z: the Hermitian part 2 +- 2 cos t is PSD and vanishes at z = z0
    F = scalar(num, [0.0, 1.0], "dt")
    rep = classify_dsspr(F)
    assert classify_dpr(F).verdict and not rep.verdict
    assert crossings(rep) and all(abs(z - z0) < 1e-6 for z in crossings(rep))


def test_decay_rates_that_differ_by_direction_give_no_crossing():
    # Q diag(1/(s + 2), 0.5) Q^T: the Hermitian part is positive definite at
    # every finite w, but one eigenvalue decays like w^-2 and the other stays 1
    for t in (0.3, 0.7, 1.3, 1.5):
        Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        entries = [[Q[i, 0] * Q[j, 0] * RationalScalar([1.0], [2.0, 1.0]) + RationalScalar([0.5 * Q[i, 1] * Q[j, 1]])
                    for j in range(2)] for i in range(2)]
        assert classify_cwspr(RationalMatrix(entries, "ct")).verdict, t


def test_an_unstable_matrix_is_not_realized(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the crossing search ran on an unstable matrix")

    monkeypatch.setattr(analysis, "minimal_realization", refuse)
    rep = classify_cwspr(scalar([1.0], [-1.0, 1.0]))  # 1/(s - 1)
    assert not rep.verdict and not rep.condition("hurwitz-poles").passed


@pytest.mark.parametrize("form", ["pr", "ni"])
def test_a_form_singular_everywhere_is_searched_shifted(form):
    # the form of diag(1/(z - 0.5), 0) has a zero block; its pencil is singular, so the search
    # retries with det(form + psd_rel I), whose "pr" zeros are where 2 Re g = -psd_rel
    g, zero = RationalScalar([1.0], [-0.5, 1.0]), RationalScalar([0.0], [1.0])
    ss = minimal_realization(RationalMatrix([[g, zero], [zero, zero]], "dt"))
    points, singular = boundary.boundary_det_zeros(ss, "dt", form, DEFAULT)
    assert singular
    assert points == boundary.boundary_det_zeros(ss, "dt", form, DEFAULT, None, True)[0]
    if form == "pr":
        assert len(points) == 2
        for z in points:
            assert abs(abs(z) - 1.0) <= 1e-12
            assert 2.0 * (1.0 / (z - 0.5)).real == pytest.approx(-DEFAULT.psd_rel, rel=1e-3)
