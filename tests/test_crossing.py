"""The state-space crossing test behind the strict classes.

A strict class needs its boundary form positive definite on the whole
boundary, so its verdict turns on whether the form is singular anywhere there.
``boundary.boundary_det_zeros`` finds those points as the finite zeros of a
realization of the form.  The first tests are verdicts the symbolic
determinant got wrong: spurious zeros, zeros split off the ends of the
discrete-time arc, and a crash at m = 5.  The others check that a touching
point is still found where the grid scan cannot see it, and that the same
pencil decides whether the form is singular everywhere: in one call, and as
the generic-point test it replaced did on a seeded set.
"""

import numpy as np
import pytest

import corpus
from nipr import analysis, boundary
from nipr.analysis_ct import (classify_cni, classify_cpr, classify_cssni, classify_csspr, classify_cwsni,
                              classify_cwspr)
from nipr.analysis_dt import classify_dpr, classify_dssni, classify_dsspr, classify_dwsni
from nipr.config import DEFAULT
from nipr.poly import RationalScalar
from nipr.ratmat import CT, RationalMatrix, generic_points, rm_eval_many
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
    points, singular = boundary.boundary_det_zeros(ss, form, DEFAULT)
    assert singular
    if form == "pr":
        assert len(points) == 2
        for z in points:
            assert abs(abs(z) - 1.0) <= 1e-12
            assert 2.0 * (1.0 / (z - 0.5)).real == pytest.approx(-DEFAULT.psd_rel, rel=1e-3)


@pytest.mark.parametrize("classify,form", [(classify_dsspr, "pr"), (classify_dssni, "ni")])
def test_a_singular_form_is_searched_once(monkeypatch, classify, form):
    # the strict sign and full normal rank read one search, and the shifted pass is no second call
    calls = []
    search = boundary.boundary_det_zeros

    def counted(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(boundary, "boundary_det_zeros", counted)
    g, zero = RationalScalar([1.0], [-0.5, 1.0]), RationalScalar([0.0], [1.0])
    report = classify(RationalMatrix([[g, zero], [zero, zero]], "dt"))
    assert report.condition("strict-boundary-sign").witness["identically_zero"]
    assert not report.condition("full-normal-rank").passed
    assert calls == [form]


# ---------------------------------------------------------------------------
# full normal rank from the crossing pencil, against the generic-point test it replaced


def identically_singular(G, form, cfg=DEFAULT):
    """The generic-point test: no point where the form's smallest singular value exceeds rank_rel times
    the larger of its largest and the largest of G there."""
    sign = 1.0 if form == "pr" else -1.0
    x = generic_points()
    k = x.size
    vals, ok = rm_eval_many(G, np.concatenate([x, -x if G.domain == CT else 1.0 / x]))
    ok = ok[:k] & ok[k:]
    R = (vals[:k] + sign * np.swapaxes(vals[k:], -1, -2))[ok]
    scale = np.linalg.norm(vals[np.concatenate([ok, ok])], 2, axis=(1, 2)).max(initial=0.0)
    sv = np.linalg.svd(R, compute_uv=False)
    return not bool(np.any(sv[:, -1] > cfg.rank_rel * np.maximum(sv[:, 0], scale)))


def _parity_modes(rng, domain, kind):
    """Scalar modes: two stable ones, plus one lossless mode on the boundary ("boundary"), or the
    lossless mode alone ("lossless"); CT poles in 1e-3..1e3, DT poles in (-0.99, 0.99)."""
    if domain == "ct":
        stable = [RationalScalar([1.0] if rng.uniform() < 0.6 else [0.0, 1.0], [a, 1.0])
                  for a in 10.0 ** rng.uniform(-3.0, 3.0, 2)]
        w2 = float(10.0 ** rng.uniform(-1.0, 1.0)) ** 2
        lossless = [RationalScalar([0.0, 1.0], [w2, 0.0, 1.0]), RationalScalar([1.0], [w2, 0.0, 1.0])]
    else:
        stable = [RationalScalar([1.0] if rng.uniform() < 0.6 else [0.0, 1.0], [-a, 1.0])
                  for a in rng.uniform(-0.99, 0.99, 2)]
        c = float(np.cos(rng.uniform(0.3, 2.8)))
        den = [1.0, -2.0 * c, 1.0]
        lossless = [RationalScalar([0.0, 1.0], den), RationalScalar([-1.0, 0.0, 1.0], den)]
    mode = lossless[int(rng.integers(2))]
    return {"stable": stable, "boundary": stable + [mode], "lossless": [mode]}[kind]


def parity_matrices(count=120):
    """CT and DT, m = 2..4: sum_k V diag(d_k) V^T g_k (+ V diag(d) V^T), V of rank r <= m, d of either sign."""
    out = []
    for n in range(count):
        rng = np.random.default_rng([2024, n])
        domain, m = ("ct", "dt")[n % 2], 2 + (n // 2) % 3
        modes = _parity_modes(rng, domain, ("stable", "boundary", "stable", "lossless")[(n // 6) % 4])
        V = rng.standard_normal((m, int(rng.integers(1, m + 1))))

        def weight():
            r = V.shape[1]
            return (V * rng.choice([-1.0, 1.0], r) * rng.uniform(0.2, 2.0, r)) @ V.T
        weights = [weight() for _ in modes]
        D = weight() if rng.uniform() < 0.5 else np.zeros((m, m))
        out.append(RationalMatrix([[sum((float(W[i, j]) * g for W, g in zip(weights, modes)),
                                        RationalScalar([float(D[i, j])])) for j in range(m)] for i in range(m)],
                                  domain))
    return out


def test_the_crossing_pencil_finds_the_singular_forms_the_generic_points_found():
    singular = 0
    for n, G in enumerate(parity_matrices()):
        for form in ("pr", "ni"):
            expected = identically_singular(G, form)
            assert analysis.analysis_of(G).singular(form) == expected, (n, form)
            singular += expected
    assert 100 <= singular <= 200  # both answers are well represented


def test_a_mode_far_from_the_generic_points_keeps_the_rank_full():
    # the "ni" form of diag(1/(s + 1), 1/(s + 1e5)) is diag(2w/(w^2 + 1), 2w/(w^2 + 1e10)), positive
    # definite for w > 0; at the generic points its second entry is about 1e-10 of the first, which the
    # generic-point test took for a rank drop
    G = RationalMatrix([[RationalScalar([1.0], [1.0, 1.0]), RationalScalar([0.0])],
                        [RationalScalar([0.0]), RationalScalar([1.0], [1e5, 1.0])]], "ct")
    assert identically_singular(G, "ni")
    assert classify_cwsni(G).verdict
    assert classify_cssni(G).condition("full-normal-rank").passed
