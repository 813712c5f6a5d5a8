"""The batched boundary kernel: stacked evaluation and stacked PSD margins.

``rm_eval_many`` evaluates all m^2 entries at once from zero-padded
coefficient stacks, and ``psd_margin`` takes the margins of a whole stack
with one ``eigvalsh``.  Each is checked against a per-entry or per-point
reference: ``npp.polyval`` of each entry and the one-point ``rm_eval``, an
``eigvalsh`` + ``norm(H, 2)`` margin per matrix, and a grid scan that
evaluates one point at a time.
"""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr.analysis import DOMAINS, PREMUL, analysis_of
from nipr.analysis_dt import classify_dni
from nipr.boundary import grid_psd_scan, herm, is_nsd, is_pd, is_psd, psd_margin
from nipr.config import DEFAULT
from nipr.errors import PoleProximity
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_eval, rm_eval_many

GRID = DEFAULT.with_overrides(grid_points_ct=400, grid_points_dt=400)


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.float64)


def mixed_degree_matrix(m, seed):
    """Entries of numerator degree 0..5 over stable denominators of degree 0..4, with zero entries."""
    rng = np.random.default_rng([seed, m])
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            kind = rng.integers(4)
            if kind == 0 and (i + j) % 2:
                row.append(RationalScalar.zero())
            elif kind == 0:
                row.append(RationalScalar.constant(rng.normal()))
            else:
                den = np.polynomial.polynomial.polyfromroots(-rng.uniform(0.1, 5.0, rng.integers(1, 5)))
                row.append(RationalScalar(rng.normal(size=rng.integers(1, 7)), den))
        rows.append(row)
    return RationalMatrix(rows, "ct")


def reference_margin(M, rel):
    H = herm(M)
    return float(np.linalg.eigvalsh(H)[0] + rel * (1.0 + np.linalg.norm(H, 2)))


def reference_scan(R, params, to_points, premul, cfg):
    """grid_psd_scan evaluated one point at a time with the entrywise rm_eval and a per-matrix margin."""
    params = np.asarray(params, dtype=float)
    marg = np.full(params.size, np.inf)
    for k, p in enumerate(to_points(params)):
        try:
            marg[k] = reference_margin(premul * rm_eval(R, p), cfg.psd_rel)
        except PoleProximity:
            pass
    kworst = int(np.argmin(marg))
    return float(marg[kworst]), float(params[kworst]), params.size


@pytest.mark.parametrize("m", [1, 3, 6])
def test_eval_many_is_bitwise_the_entrywise_eval(m):
    R = mixed_degree_matrix(m, seed=5)
    rng = np.random.default_rng(m)
    points = np.concatenate([
        1j * np.logspace(-6, 6, 40),                              # the CT boundary
        np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40)),         # the DT boundary
        rng.normal(size=20) + 1j * rng.normal(size=20),         # off the boundary
    ])
    vals, ok = rm_eval_many(R, points)
    assert vals.shape == (points.size, m, m) and ok.all()
    for i, row in enumerate(R.entries):
        for j, e in enumerate(row):
            want = npp.polyval(points, e.num) / npp.polyval(points, e.den)
            assert np.array_equal(bits(vals[:, i, j]), bits(want))
    for k, p in enumerate(points):
        assert np.array_equal(bits(vals[k]), bits(rm_eval(R, p)))


def test_a_point_on_an_entry_pole_is_masked_and_has_infinite_margin():
    s = RationalScalar
    # entry (1, 2) has a pole at s = 0.5; on the real line the other entries are finite
    R = RationalMatrix([[s([1.0], [1.0, 1.0]), s.zero(), s([2.0])],
                        [s.zero(), s([3.0]), s([-10.0], [-0.5, 1.0])],
                        [s([2.0]), s([-10.0], [-0.5, 1.0]), s([1.0, 1.0], [2.0, 1.0])]], "ct")
    params = np.array([2.0, 0.5, 3.0])
    _vals, ok = rm_eval_many(R, params)
    assert ok.tolist() == [True, False, True]
    to_points = lambda t: t + 0j
    worst, tworst, n = grid_psd_scan(R, [0.5], to_points, 1.0, DEFAULT)
    assert (worst, tworst, n) == (np.inf, 0.5, 1)
    # unmasked, the pole point would hold the undivided numerators and the most negative margin
    finite = {t: reference_margin(rm_eval(R, t + 0j), DEFAULT.psd_rel) for t in (2.0, 3.0)}
    pole = reference_margin(rm_eval_many(R, [0.5])[0][0], DEFAULT.psd_rel)
    assert pole < min(finite.values())
    t_min = min(finite, key=finite.get)
    assert grid_psd_scan(R, params, to_points, 1.0, DEFAULT) == (finite[t_min], t_min, 3)


def test_points_on_complex_boundary_poles_are_masked_and_points_near_them_are_read():
    # the mask covers Horner's rounding at a complex point and a point rounded by up to 4 ulps
    s = RationalScalar
    with pytest.raises(PoleProximity):
        rm_eval(RationalMatrix([[s([1.0], [1.0, 0.0, 1.0])]], "ct"), 1j)
    rng = np.random.default_rng(5)
    u = np.finfo(float).eps / 2
    for t, w in zip(rng.uniform(0.3, np.pi - 0.3, 40), rng.uniform(0.1, 100.0, 40)):
        for domain, pair, extra in [("dt", [np.exp(1j * t), np.exp(-1j * t)], [0.5, -0.3 + 0.2j, -0.3 - 0.2j, 0.9]),
                                    ("ct", [1j * w, -1j * w], [-1.0, -2.0 + 1j, -2.0 - 1j])]:
            for roots in (pair, pair + extra):
                R = RationalMatrix([[s([1.0], np.real(npp.polyfromroots(roots)))]], domain)
                for x in pair + [pair[0] * (1 + 4 * u * np.exp(2j * np.pi * rng.uniform()))]:
                    with pytest.raises(PoleProximity):
                        rm_eval(R, x)
                # 1e-10 (relative) off the pole den is far above its rounding, so the value is read
                x = pair[0] * (1 + 1e-10)
                assert np.isclose(rm_eval(R, x)[0, 0], 1 / np.prod(x - np.array(roots)), rtol=1e-3)


def test_a_sample_next_to_a_near_boundary_triple_pole_is_read():
    # the poles near -1 cluster to a triple pole at -0.9999933, inside the circle; the sign interval
    # next to it is sampled at pi - t = 7.5e-4, where the defect is about -7e4 and den is far above
    # its rounding
    g = (RationalScalar([10.0], [1.0, 1.0]) + RationalScalar([0.0, 0.0, 1.0], npp.polyfromroots([-1.0 + 1e-5] * 2))
         + RationalScalar([1.0], [-0.5, 1.0]))
    rep = classify_dni(RationalMatrix([[g]], "dt"))
    cond = rep.condition("boundary-sign")
    assert not rep.verdict and not cond.passed
    assert cond.witness["worst_margin"] < -1e4 and np.pi - cond.witness["theta"] < 1e-3


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_stacked_margins_match_per_matrix_eigvalsh_and_norm(m):
    rng = np.random.default_rng(m)
    M = rng.normal(size=(200, m, m)) + 1j * rng.normal(size=(200, m, m))
    M[:50] = herm(M[:50]) @ herm(M[:50])       # PSD, so some margins are positive
    M[50:60] *= 1e-9                          # near zero, where the slack dominates
    for rel in (DEFAULT.psd_rel, 1e-3):
        got = psd_margin(M, rel)
        want = np.array([reference_margin(Mk, rel) for Mk in M])
        assert got.shape == (200,)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    for Mk in M[:60]:
        H = herm(Mk)
        lam = np.linalg.eigvalsh(H)
        nrm = np.linalg.norm(H, 2)
        assert is_psd(Mk) == (reference_margin(Mk, DEFAULT.psd_rel) >= 0.0)
        assert is_nsd(-Mk) == is_psd(Mk)
        assert is_pd(Mk) == (nrm > 0.0 and lam[0] >= DEFAULT.strict_rel * nrm)
    assert not is_pd(np.zeros((m, m)))


CASES = [("ct_ni", "ni"), ("dt_pr", "pr"), ("ct_mixed", "pr"), ("ct_mixed", "ni")]


@pytest.mark.parametrize("gen,form", CASES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_grid_scan_matches_the_per_point_scan(gen, form, m):
    G = getattr(corpus, gen)(np.random.default_rng(0), m=m)
    dom = DOMAINS[G.domain]
    R, extra = analysis_of(G, GRID).sign_terms(form)  # what the samples of the classifiers evaluate
    assert R is G and extra is None  # no boundary pole: G itself, nothing split off
    args = (R, dom.grid[form](GRID), dom.point, 2.0 * PREMUL[form], GRID)
    worst, tworst, n = grid_psd_scan(*args)
    assert (worst >= 0.0) == (analysis_of(G, GRID).sign_scan(form)[0] >= 0.0)  # the classifiers' verdict
    ref_worst, ref_tworst, ref_n = reference_scan(*args)
    assert (tworst, n) == (ref_tworst, ref_n)
    assert abs(worst - ref_worst) <= 1e-12
