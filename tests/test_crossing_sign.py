"""The sign of every boundary form read from its crossings, one sample per interval.

The crossings of the form (the zeros of its realization on the boundary) and
the boundary poles cut the boundary into intervals on which no eigenvalue of
the form changes sign, so one sample per interval decides the sign
(``boundary.crossing_scan``).  The tests hold the verdicts of the plain
classes against a dense evaluation of G on a family of narrow dips and near
touches, pin the cases that shaped the method (the m-fold zero of the "ni"
form at w = 0, forms that are singular everywhere), and check the witness.
"""

import json

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr import boundary
from nipr.analysis import analysis_of
from nipr.analysis_ct import classify_cni, classify_cpr, classify_csspr, classify_cwsni
from nipr.analysis_dt import classify_dni, classify_dpr, classify_dsspr
from nipr.boundary import CROSSING_BAND
from nipr.cli import main
from nipr.config import DEFAULT
from nipr.docio import document_of, save_document
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from test_sign_source import CASES

CLASSIFY = {("ct", "pr"): classify_cpr, ("ct", "ni"): classify_cni,
            ("dt", "pr"): classify_dpr, ("dt", "ni"): classify_dni}
SIGN = {"pr": "boundary-psd", "ni": "boundary-sign"}
RESONANCES = (1e-3, 1e-2, 0.1, 1.0, 10.37, 100.0, 1e3)
DAMPINGS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def dip_terms(domain, form, w, zeta):
    """(base, mode): a passive base and a lightly damped mode at the boundary frequency w.

    CT: 1/(s + 1) and 1/(s^2 + 2 zeta w s + w^2) ("ni") or s/(...) ("pr").
    DT, at theta = 2 atan(w) and pole radius r = 1 - zeta sin(theta):
    1/(z - 0.5) and sin(theta) z/(z^2 - 2 r cos(theta) z + r^2) ("ni"), or
    z/(z - 0.5) and (z^2 - r^2)/(...) ("pr").
    """
    if domain == "ct":
        return ([1.0], [1.0, 1.0]), ([1.0] if form == "ni" else [0.0, 1.0], [w * w, 2.0 * zeta * w, 1.0])
    th = 2.0 * np.arctan(w)
    r = 1.0 - zeta * np.sin(th)
    den = [r * r, -2.0 * r * np.cos(th), 1.0]
    if form == "ni":
        return ([1.0], [-0.5, 1.0]), ([0.0, np.sin(th)], den)
    return ([0.0, 1.0], [-0.5, 1.0]), ([-r * r, 0.0, 1.0], den)


def form_at(domain, form, terms, t):
    x = 1j * t if domain == "ct" else np.exp(1j * t)
    g = sum(npp.polyval(x, num) / npp.polyval(x, den) for num, den in terms)
    return 2.0 * (g.real if form == "pr" else (1j * g).real)


def dense_margin(domain, form, G, w, zeta):
    """The smallest psd margin of the scalar G's form on a dense grid, 200 half-widths around the resonance.

    In continuous time the window is cut at w = 0, which a wide resonance (zeta above 1/200) reaches.
    """
    e = G.entries[0][0]
    if domain == "ct":
        t = np.concatenate([np.logspace(-6, 6, 20001), w * (1.0 + zeta * np.linspace(-200.0, 200.0, 8001))])
        t = np.concatenate([[0.0], t[t > 0.0]]) if form == "pr" else t[t > 0.0]
    else:
        th = 2.0 * np.arctan(w)
        t = np.concatenate([np.linspace(0.0, np.pi, 20001), th + zeta * np.linspace(-400.0, 400.0, 8001)])
        t = t[(t >= 0.0) & (t <= np.pi)] if form == "pr" else t[(t > 0.0) & (t < np.pi)]
    f = form_at(domain, form, [(e.num, e.den)], t)
    return float(np.min(f + DEFAULT.psd_rel * (1.0 + np.abs(f))))


def amplitudes(domain, form, base, mode, w):
    """Three fixed amplitudes, and two that leave the dip -+1e-3 of the base's form at the resonance."""
    t = w if domain == "ct" else 2.0 * np.arctan(w)
    touch = form_at(domain, form, [base], t) / form_at(domain, form, [mode], t)
    return (1e-3, 0.1, 1.0, touch * (1.0 - 1e-3), touch * (1.0 + 1e-3))


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_no_verdict_on_a_narrow_dip_contradicts_a_dense_evaluation(domain, form):
    """G = base - a mode; the sign condition must pass iff the dense margin is not clearly negative."""
    wrong = []
    for w in RESONANCES:
        for zeta in DAMPINGS:
            base, mode = dip_terms(domain, form, w, zeta)
            for a in amplitudes(domain, form, base, mode, w):
                G = RationalMatrix([[RationalScalar(*base) + RationalScalar([-a * c for c in mode[0]], mode[1])]],
                                   domain)
                report = CLASSIFY[domain, form](G)
                passed = report.condition(SIGN[form]).passed
                others = all(c.passed for c in report.conditions if c.cid != SIGN[form])
                dense = dense_margin(domain, form, G, w, zeta)
                if (passed and others and dense < -1e-6) or (not passed and dense > 1e-6):
                    wrong.append((w, zeta, a, passed, dense))
    assert not wrong


@pytest.mark.parametrize("form", ["pr", "ni"])
def test_no_verdict_on_a_repeated_mode_contradicts_a_dense_evaluation(form):
    """G = 1/(s + 1) + a w^2 s^2/(s^2 + 2 zeta w s + w^2)^2: a double mode, realized by a companion form."""
    wrong = []
    for w in (10.0, 100.0, 1000.0):
        for zeta in (0.3, 0.1, 0.03, 0.01, 1e-3):
            mode = npp.polypow([w * w, 2.0 * zeta * w, 1.0], 2)
            for a in (1e-3, 1.0, 1e3):
                g = RationalScalar([1.0], [1.0, 1.0]) + RationalScalar([0.0, 0.0, a * w * w], mode)
                G = RationalMatrix([[g]], "ct")
                passed = CLASSIFY["ct", form](G).condition(SIGN[form]).passed
                dense = dense_margin("ct", form, G, w, zeta)
                if (passed and dense < -1e-6) or (not passed and dense > 1e-6):
                    wrong.append((w, zeta, a, passed, dense))
    assert not wrong


def test_stable_poles_near_minus_one_leave_the_dt_classes_answering():
    # diag(g, g), g = z/(z + 0.9999995): det(A + I) of the rest's realization is 2.5e-13, which once
    # counted as an eigenvalue at -1; Re g > 1/2 on the circle, and its defect changes sign
    g = RationalScalar([0.0, 1.0], [0.9999995, 1.0])
    G = RationalMatrix([[g, RationalScalar.zero()], [RationalScalar.zero(), g]], "dt")
    assert classify_dpr(G).verdict
    report = classify_dni(G)
    assert not report.verdict and not report.condition("boundary-sign").passed
    assert classify_dsspr(G).verdict


@pytest.mark.parametrize("k", [2, 3])
def test_a_repeated_pole_near_minus_one_is_read_through_the_turned_map(k):
    # z^k/(z + 1 - eps)^k: Re < 0 on most of the upper arc; the Cayley map sends z = -1 to s = inf, where
    # G(-1) = eps^-k would become the realization's D, so G(-z) is mapped instead
    for eps in np.logspace(-6.5, -3, 8):
        G = RationalMatrix([[RationalScalar(npp.polypow([0.0, 1.0], k), npp.polyfromroots([eps - 1.0] * k))]], "dt")
        report = classify_dpr(G)
        assert not report.condition("boundary-psd").passed, eps
        assert report.condition("boundary-psd").witness["worst_margin"] < -0.1, eps


def test_the_turned_pieces_are_the_same_function_of_the_turned_frequency():
    rng = np.random.default_rng(3)
    pieces = {key: rng.standard_normal((2, 2)) for key in [(0.0, 0), (0.0, 2), (np.inf, 1), (np.inf, 2),
                                                           (0.7, 1), (-1.3, 3)]}

    def value(pieces, w):
        return sum(M * (w ** k if w0 == np.inf else (w - w0) ** -k) for (w0, k), M in pieces.items())
    for w in (0.3, 2.0, -5.0, 40.0):
        assert np.allclose(value(boundary._turned(pieces), -1.0 / w), value(pieces, w), rtol=1e-12, atol=0.0)


def test_the_m_fold_zero_of_the_ni_form_at_omega_zero_is_no_crossing():
    # ct_mixed at m = 5: the defect vanishes like w at w = 0 in all five directions, so the form's
    # realization has a 5-fold zero within 1e-14 of s = 0; taken as a crossing it would put the
    # first sample where the form is rounding, and the negative defect would go unseen
    for seed in range(6, 11):
        G = corpus.ct_mixed(np.random.default_rng([seed, 2, 5]), m=5, nterms=3)
        report = classify_cni(G)
        wit = report.condition("boundary-sign").witness
        assert not report.verdict and wit["worst_margin"] < -0.5, seed
        assert all(t > CROSSING_BAND for t in wit["crossings"]), seed


def diag_with_zero(g, domain):
    return RationalMatrix([[g, RationalScalar.zero()], [RationalScalar.zero(), RationalScalar.zero()]], domain)


@pytest.mark.parametrize("domain,form,g", [
    ("ct", "pr", RationalScalar([1.0], [1.0, 1.0])),
    ("ct", "ni", RationalScalar([1.0], [1.0, 1.0])),
    ("dt", "pr", RationalScalar([0.0, 1.0], [-0.5, 1.0])),
    ("dt", "ni", RationalScalar([1.0], [-0.5, 1.0])),
])
def test_a_form_singular_everywhere_keeps_its_plain_verdict(domain, form, g):
    G = diag_with_zero(g, domain)
    assert analysis_of(G).singular(form)
    report = CLASSIFY[domain, form](G)
    assert report.verdict, [(c.cid, c.witness) for c in report.failed()]
    # minus g, the nonzero direction is negative: the crossings of the shifted form find it
    report = CLASSIFY[domain, form](diag_with_zero(RationalScalar.zero() - g, domain))
    assert not report.condition(SIGN[form]).passed


def test_a_form_singular_everywhere_is_not_strict():
    G = diag_with_zero(RationalScalar([1.0], [1.0, 1.0]), "ct")
    wit = classify_csspr(G).condition("strict-boundary-sign").witness
    assert wit["identically_zero"] and wit["det_zeros"] == []
    F = diag_with_zero(RationalScalar([0.0, 1.0], [-0.5, 1.0]), "dt")
    assert not classify_dsspr(F).condition("strict-boundary-sign").passed


def test_a_strict_class_on_an_unstable_matrix_reports_no_sign_it_did_not_read():
    G = RationalMatrix([[RationalScalar([1.0], [-1.0, 1.0])]], "ct")  # 1/(s - 1)
    for report in (classify_csspr(G), classify_cwsni(G)):
        assert not report.condition("hurwitz-poles").passed
        assert report.condition("strict-boundary-sign") is None


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_lossless_sums_have_singular_forms_and_pass(domain, form):
    for m in (1, 2, 3):
        G = CASES[domain](0, m, form)
        report = CLASSIFY[domain, form](G)
        assert report.verdict, (m, [(c.cid, c.witness) for c in report.failed()])
        assert report.condition(SIGN[form]).witness["crossings"] == [] or analysis_of(G).singular(form)


@pytest.mark.parametrize("cls,cid", [("cni", "boundary-sign"), ("cpr", "boundary-psd"),
                                     ("cwsni", "strict-boundary-sign")])
def test_the_sign_witness_says_how_it_was_decided(tmp_path, capsys, cls, cid):
    path = tmp_path / "g.json"
    save_document(document_of(corpus.ct_ni(np.random.default_rng(0), m=2, nterms=3)), path)
    main(["classify", str(path), "--class", cls, "--json"])
    wit = next(c for c in json.loads(capsys.readouterr().out)[0]["conditions"] if c["id"] == cid)["witness"]
    assert wit["path"] == "crossing" and wit["crossings"] == []
    # one sample, plus w = 0 for the closed "pr" boundary
    assert wit["samples"] == (2 if cls == "cpr" else 1)
    assert wit["worst_margin"] > 0.0 and "omega" in wit
    if cid == "strict-boundary-sign":
        assert wit["det_zeros"] == [] and wit["identically_zero"] is False


def test_a_crossing_and_its_mirror_are_sampled_once():
    # the "pr" form reports the axis zero s = i w and its mirror -i w, the same |w| bit for bit
    G = corpus.ct_mixed(np.random.default_rng([1, 1]), m=1, nterms=3)
    zeros, _ = analysis_of(G).det_zeros("pr")
    assert len(zeros) == 2 and abs(zeros[0]) == abs(zeros[1])
    wit = classify_cpr(G).condition("boundary-psd").witness
    # w = 0, and one sample on each side of the one crossing
    assert len(wit["crossings"]) == 1 and wit["samples"] == 3
