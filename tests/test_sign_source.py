"""Where the boundary scans read the sign forms: from G on the boundary, with its boundary poles split off.

On the boundary the mirror of a point x is conj(x), so for a real-rational G
the forms are 2 herm(G(x)) ("pr") and 2 herm(i G(x)) ("ni") there, and the
scans and ``nipr sweep`` read them from G on the boundary itself.  A pole on
the boundary sits about 1e-16 off it once the coefficients are rounded, and
near it the rounded form keeps a spike of order eps ||G||^2 / distance**2, far
above ``psd_rel``.  So its principal part is split off by deflation
(``Analysis.boundary_parts``) and its share of the form is added from one
table of partial fractions in the frequency (``Analysis.shares``), which the
samples (``Analysis.sign_terms``) and the crossing pencil both read; tests pin
that table to its definition.  The guards are lossless sums and improper
matrices, the negative controls the same sums made slightly lossy, and small
violations next to a zero of the form, with and without a boundary pole,
must be rejected.  The parity tests compare the scan with the rational
builders."""

import numpy as np
import pytest

import corpus
from nipr import boundary
from nipr.analysis import DOMAINS, PREMUL, SIGN_ID, analysis_of
from nipr.analysis_ct import classify_cni, classify_cpr
from nipr.analysis_dt import classify_dni, classify_dpr
from nipr.boundary import grid_psd_scan
from nipr.cli import main
from nipr.config import DEFAULT
from nipr.docio import document_of, save_document
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_cayley, rm_eval_many, rm_poles
from nipr.realization import StateSpace

CLASSIFY = {("ct", "pr"): classify_cpr, ("ct", "ni"): classify_cni,
            ("dt", "pr"): classify_dpr, ("dt", "ni"): classify_dni}


def failed(report):
    return [(cond.cid, cond.witness) for cond in report.conditions if not cond.passed]


def dt_lossless(rng, m, form, angles):
    """sum_k R_k f_k(z) with PSD R_k: f_k = (z^2 - 1)/(z^2 - 2 cos t_k z + 1) (D-PR) or
    sin t_k z/(z^2 - 2 cos t_k z + 1) (D-NI).  Both are lossless: poles at e^{+-i t_k}
    with PSD residues, and a boundary form that is zero everywhere else."""
    scalars = []
    for t in angles:
        den = [1.0, -2.0 * np.cos(t), 1.0]
        scalars.append(RationalScalar([-1.0, 0.0, 1.0], den) if form == "pr"
                       else RationalScalar([0.0, np.sin(t)], den))
    return corpus.weighted_modes([corpus.psd(rng, m) for _ in scalars], scalars, np.zeros((m, m)), "dt")


def mode_parameters(rng, grid, lo, hi, n=3):
    """n mode parameters; every other one is a point of the classifier's own grid."""
    return [grid[rng.integers(grid.size)] if k % 2 == 0 else rng.uniform(lo, hi) for k in range(n)]


def dt_case(seed, m, form):
    rng = np.random.default_rng([seed, m])
    grid = boundary.dt_grid_full(DEFAULT) if form == "pr" else boundary.dt_grid_half(DEFAULT)
    angles = mode_parameters(rng, grid[(grid > 0.05) & (grid < np.pi - 0.05)], 0.1, 3.0)
    return dt_lossless(rng, m, form, angles)


def ct_case(seed, m, form):
    """The Cayley image s = (z - 1)/(z + 1) of a discrete-time lossless sum, with t_k = 2 atan(w_k).

    "pr": sum_k R_k s/(s^2 + w_k^2) up to scale, plus R_0/s; "ni": a constant plus
    sum_k R_k/(s^2 + w_k^2).  Every other w_k is a frequency of the CT grid.  The map
    leaves the coefficients rounded, so the poles sit about 1e-16 off the axis.
    """
    rng = np.random.default_rng([seed, m])
    grid = boundary.ct_grid(DEFAULT)
    omegas = mode_parameters(rng, grid[(grid > 0.05) & (grid < 20.0)], 0.1, 20.0)
    G = rm_cayley(dt_lossless(rng, m, form, 2.0 * np.arctan(omegas)))
    if form == "ni":
        return G
    R0 = corpus.psd(rng, m)
    return G + RationalMatrix([[RationalScalar([r], [0.0, 1.0]) for r in row] for row in R0], "ct")


CASES = {"ct": ct_case, "dt": dt_case}


def improper_ni(c):
    """2/(s^2 + 3s + 2) + 1 - c s^2: C-NI (a stable NI part and an NSD s^2 coefficient)."""
    return RationalMatrix([[RationalScalar([2.0], [2.0, 3.0, 1.0]) + RationalScalar([1.0, 0.0, -c])]], "ct")


# every (domain, form, m) on seeds 0..4, plus dt/ni m = 1 seed 6, kept from the earlier hand-picked
# guards: the first seed of that family that a scan of G on the boundary itself got wrong
GUARDS = [(domain, form, m, seed) for domain in ("ct", "dt") for form in ("pr", "ni")
          for m in (1, 2, 3) for seed in range(5)] + [("dt", "ni", 1, 6)]


def lossy(G, form):
    """G minus 1e-3 I ("pr") or minus 1e-3 I times a stable mode ("ni"): 1/(s + 1) or 1/(z - 0.5)."""
    den = [1.0] if form == "pr" else ([1.0, 1.0] if G.domain == "ct" else [-0.5, 1.0])
    m = G.size
    return G + RationalMatrix([[RationalScalar([-1e-3 if i == j else 0.0], den) for j in range(m)]
                               for i in range(m)], G.domain)


@pytest.mark.parametrize("domain,form,m,seed", GUARDS)
def test_lossless_sum_with_poles_on_grid_points_is_accepted(domain, form, m, seed):
    report = CLASSIFY[domain, form](CASES[domain](seed, m, form))
    assert report.verdict, failed(report)


@pytest.mark.parametrize("domain,form,m,seed", GUARDS)
def test_lossy_sum_is_rejected(domain, form, m, seed):
    report = CLASSIFY[domain, form](lossy(CASES[domain](seed, m, form), form))
    assert not report.verdict
    assert not report.condition(SIGN_ID[form]).passed


def lossless_ss(seed, m):
    """Three undamped modes and an integrator, rotated: A = Q blockdiag([[0, w_k], [-w_k, 0]], 0) Q^T
    with Q orthogonal, B standard normal and C = B^T, so that G(s) = B^T (sI - A)^-1 B is C-PR."""
    rng = np.random.default_rng([seed, m])
    omegas = rng.uniform(0.1, 20.0, 3)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    J = np.zeros((7, 7))
    for k, w in enumerate(omegas):
        J[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, w], [-w, 0.0]]
    B = rng.standard_normal((7, m))
    return StateSpace(Q @ J @ Q.T, B, B.T, np.zeros((m, m)), "ct")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lossless_state_space_documents_are_cpr(tmp_path, capsys, m):
    path = tmp_path / "ss.json"
    rejected = []
    for seed in range(20):
        save_document(document_of(lossless_ss(seed, m), name=f"lossless-{seed}"), path)
        if main(["classify", str(path), "--class", "cpr"]) != 0:
            rejected.append(seed)
    capsys.readouterr()
    assert not rejected


def test_boundary_pole_with_a_negative_residue_fails_only_its_residue_condition():
    # -1/s + 1/(s + 1): a Hermitian residue adds nothing to the form on the boundary, whatever its sign
    G = RationalMatrix([[RationalScalar([-1.0], [0.0, 1.0]) + RationalScalar([1.0], [1.0, 1.0])]], "ct")
    report = classify_cpr(G)
    assert not report.verdict
    assert [cid for cid, _ in failed(report)] == ["imaginary-axis-poles"]


def test_a_skew_residue_shows_in_the_form():
    # [[1, 1e-3], [-1e-3, 1]]/s + I/(s + 1): the residue's skew part gives the form eigenvalues -+2e-3/w
    K = [[1.0, 1e-3], [-1e-3, 1.0]]
    G = RationalMatrix([[RationalScalar([K[i][j]], [0.0, 1.0]) + RationalScalar([float(i == j)], [1.0, 1.0])
                         for j in range(2)] for i in range(2)], "ct")
    # so 2/(1 + w^2) - 2e-3/w crosses zero near w = 1e-3 and w = 1e3 and is negative outside
    report = classify_cpr(G)
    assert {cid for cid, _ in failed(report)} == {"boundary-psd", "imaginary-axis-poles"}
    wit = report.condition("boundary-psd").witness
    assert wit["worst_margin"] < -1.0
    near = [min((1e-3, 1e3), key=lambda w: abs(np.log(t / w))) for t in wit["crossings"]]
    assert set(near) == {1e-3, 1e3}
    assert all(t == pytest.approx(w, rel=1e-2) for t, w in zip(wit["crossings"], near))


def ct(*terms):
    return RationalMatrix([[sum(terms[1:], terms[0])]], "ct")


def dt(*terms):
    return RationalMatrix([[sum(terms[1:], terms[0])]], "dt")


# s/(s + 1) and its Cayley image (z - 1)/(2z) touch zero at w = 0 and theta = 0; 1/s and
# (z + 1)/(z - 1) are lossless boundary poles at the same point
TOUCHING = {
    "ct": lambda: ct(RationalScalar([0.0, 1.0], [1.0, 1.0])),
    "ct-pole": lambda: ct(RationalScalar([1.0], [0.0, 1.0]), RationalScalar([0.0, 1.0], [1.0, 1.0])),
    "dt": lambda: dt(RationalScalar([-1.0, 1.0], [0.0, 2.0])),
    "dt-pole": lambda: dt(RationalScalar([1.0, 1.0], [-1.0, 1.0]), RationalScalar([-1.0, 1.0], [0.0, 2.0])),
}
PR_OF = {"ct": classify_cpr, "dt": classify_dpr}


@pytest.mark.parametrize("case", list(TOUCHING))
def test_a_small_violation_where_the_form_touches_zero_is_rejected(case):
    G = TOUCHING[case]()
    report = PR_OF[case[:2]](G)
    assert report.verdict, failed(report)
    # minus 1e-7: the form is -2e-7 at the touching point, about 19 psd_rel below zero
    report = PR_OF[case[:2]](G - RationalMatrix.constant([[1e-7]], case[:2]))
    assert not report.verdict
    worst = report.condition("boundary-psd").witness["worst_margin"]
    assert worst == pytest.approx(-2e-7 + DEFAULT.psd_rel, rel=1e-6)


@pytest.mark.parametrize("case", ["ct", "ct-pole"])
def test_sweep_shows_a_small_violation_at_omega_zero(tmp_path, case):
    path, out = tmp_path / "g.json", tmp_path / "sweep.csv"
    G = TOUCHING[case]() - RationalMatrix.constant([[1e-7]], "ct")
    save_document(document_of(G, name="touch"), path)
    assert main(["sweep", str(path), "--mode", "pr", "--out", str(out)]) == 0
    first = np.loadtxt(out, delimiter=",", skiprows=1)[0]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(-2e-7, rel=1e-6)


@pytest.mark.parametrize("c", [40.0, 400.0, 4000.0])
def test_improper_ni_with_a_large_s2_term_is_accepted(c):
    report = classify_cni(improper_ni(c))
    assert report.verdict, failed(report)


def test_three_mode_lossless_dpr_is_accepted():
    # on the boundary, even the rational form had a rounding spike at theta = 1.32410,
    # next to the pole at 1.32416
    report = classify_dpr(dt_case(8, 3, "pr"))
    assert report.verdict, failed(report)


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_scan_reads_the_rest_of_g_on_the_boundary(monkeypatch, domain, form):
    G = CASES[domain](0, 2, form)  # poles on the boundary
    dom = DOMAINS[domain]
    a = analysis_of(G)
    rest = a.boundary_parts()[0]
    calls = []
    orig = boundary.rm_eval_many

    def recording(R, points):
        calls.append((R, np.asarray(points)))
        return orig(R, points)

    monkeypatch.setattr(boundary, "rm_eval_many", recording)
    worst, tworst, n, _ = a.sign_scan(form)
    # G itself is read only off the boundary (the identically-zero test); the samples read the rest
    samples = [(R, x) for R, x in calls if R is not G]
    assert len(samples) == 1 and samples[0][0] is rest and samples[0][1].size == n
    on_boundary = np.abs(samples[0][1].real) if domain == "ct" else np.abs(np.abs(samples[0][1]) - 1.0)
    assert np.all(on_boundary <= 1e-15) and dom.point(tworst) in samples[0][1]
    assert not any(dom.on_boundary(p, DEFAULT.root_cluster) for p, _ in rm_poles(rest))


def with_lossless_modes(domain, form, seed):
    """A mixed corpus matrix (forms of either sign, of order one) plus a lossless sum with poles on the boundary."""
    G = getattr(corpus, f"{domain}_mixed")(np.random.default_rng(seed), m=2)
    return G + CASES[domain](seed, 2, form)


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_the_split_form_is_the_form_of_g_away_from_the_poles(domain, form):
    G = with_lossless_modes(domain, form, 0)
    dom = DOMAINS[domain]
    params = dom.grid[form](DEFAULT)
    parts = analysis_of(G).boundary_parts()[1]
    far = np.array([min(abs(x - b) for b, _ in parts) > 0.05 for x in dom.point(params)])
    assert params.size / 2 < far.sum() < params.size
    rest, extra = analysis_of(G).sign_terms(form)
    split, ok = boundary.form_values(rest, params, dom.point, 2.0 * PREMUL[form], extra)
    direct, _ = rm_eval_many(G, dom.point(params))
    direct = boundary.herm(2.0 * PREMUL[form] * direct)
    assert ok[far].all()
    err = np.abs(boundary.herm(split) - direct)[far].max(axis=(1, 2))
    assert np.all(err <= 1e-9 * (1.0 + np.abs(direct[far]).max(axis=(1, 2))))


def summed(rows, w):
    """sum f (w - w0)**-k over the rows (w0, k, f), with f w**k at w0 = inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sum(np.multiply.outer(w ** k if w0 == np.inf else (w - w0) ** -k, f) for w0, k, f in rows)


# (domain, b, j): the boundary points where a principal part of order j is split off
EXPANSIONS = [("ct", 2.5j, 1), ("ct", 2.5j, 2), ("ct", np.inf, 1), ("ct", np.inf, 2), ("dt", np.exp(1.1j), 1)] + [
    ("dt", b, j) for b in (1.0, -1.0) for j in (1, 2, 3)]


@pytest.mark.parametrize("domain,b,j", EXPANSIONS)
def test_the_partial_fractions_of_expand_are_the_power_of_the_boundary_point(domain, b, j):
    dom = DOMAINS[domain]
    # a dozen parameters away from b; in discrete time t = pi (w = inf) among them where b is not -1
    ts = np.linspace(-7.0, 7.0, 12) if domain == "ct" else np.pi * np.array(
        [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.15, 1.3, 1.5, 1.7, 1.85, 1.95] + ([1.0] if b != -1.0 else []))
    x = dom.point(ts)
    want = x ** j if b == np.inf else (x - b) ** -j
    rows = [(w0, k, c * a) for c, w0, k, a in dom.expand(b, j)]
    got = summed(rows, dom.to_freq(ts))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    if b == -1.0:  # t = pi is w = inf, the pole itself
        assert not np.isfinite(summed(rows, dom.to_freq(np.array([np.pi])))).any()


# in continuous time a lossless sum's shares of its own form vanish; those of the other form do not
OTHER = {"pr": "ni", "ni": "pr"}


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_the_crossing_pencil_reads_the_shares_table_itself(monkeypatch, domain, form):
    G = CASES[domain](0, 2, OTHER[form])  # the analysis holds G weakly
    a = analysis_of(G)
    received = []
    orig = boundary.boundary_det_zeros

    def recording(ss, frm, cfg, pieces):
        received.append(pieces)
        return orig(ss, frm, cfg, pieces)

    monkeypatch.setattr(boundary, "boundary_det_zeros", recording)
    a.det_zeros(form)
    assert len(received) == 1 and received[0] is a.shares(form) and received[0]


@pytest.mark.parametrize("domain,form", list(CLASSIFY))
def test_the_samples_sum_the_shares_table(domain, form):
    dom = DOMAINS[domain]
    ts = dom.grid[form](DEFAULT)
    for seed in range(3):
        for case in (form, OTHER[form]):
            G = CASES[domain](seed, 2, case)
            a = analysis_of(G)
            shares = a.shares(form)
            if domain == "ct" and case == form:
                assert shares == [] and a.sign_terms(form)[1] is None
                continue
            H, finite = a.sign_terms(form)[1](ts)
            want = summed(shares, dom.to_freq(ts))
            assert shares and finite.any()
            assert np.array_equal(finite, np.isfinite(want).all(axis=(1, 2)))
            np.testing.assert_allclose(H[finite], want[finite], rtol=1e-14, atol=0.0)


def test_sweep_of_a_lossless_dpr_sum_stays_psd(tmp_path):
    path, out = tmp_path / "g.json", tmp_path / "sweep.csv"
    save_document(document_of(dt_case(2, 2, "pr"), name="lossless"), path)
    assert main(["sweep", str(path), "--mode", "pr", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[0] > 4000
    assert np.all(rows[:, 1] >= -DEFAULT.psd_rel * (1.0 + np.abs(rows[:, 2])))


GENERATORS = ("ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed")


BUILDERS = {("ct", "pr"): boundary.ppart_ct, ("ct", "ni"): boundary.defect_ct,
            ("dt", "pr"): boundary.ppart_dt, ("dt", "ni"): boundary.defect_dt}


def reference_scan(G, form):
    """The scan of the rational form built by the builders, on the boundary."""
    dom = DOMAINS[G.domain]
    return grid_psd_scan(BUILDERS[G.domain, form](G), dom.grid[form](DEFAULT), dom.point, PREMUL[form], DEFAULT)


def grid_scan(G, form):
    """The grid scan of the split form: the rest of G read on the sweep grid, plus the split-off shares."""
    dom = DOMAINS[G.domain]
    R, extra = analysis_of(G).sign_terms(form)
    return grid_psd_scan(R, dom.grid[form](DEFAULT), dom.point, 2.0 * PREMUL[form], DEFAULT, extra)


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_scan_from_g_agrees_with_the_rational_form(gen, m):
    """The split form read on the grid agrees with the rational form, and the crossings give the same sign."""
    for seed in range(3):
        G = getattr(corpus, gen)(np.random.default_rng([seed, m]), m=m)
        for form in ("pr", "ni"):
            worst, _, _ = grid_scan(G, form)
            ref, _, _ = reference_scan(G, form)
            assert (worst >= 0.0) == (ref >= 0.0)
            assert abs(worst - ref) <= 1e-9 * (1.0 + abs(ref)), (seed, form, worst, ref)
            assert (analysis_of(G).sign_scan(form)[0] >= 0.0) == (ref >= 0.0), (seed, form)


@pytest.mark.parametrize("gen", GENERATORS)
def test_split_scan_agrees_with_the_rational_form_on_a_boundary_pole(gen):
    """The same with an integrator added, 1/s or 1/(z - 1) times a PSD weight: the same verdicts.
    The margins differ by up to 2e-8 relative, since the rational form's reduction rounds more."""
    for m in (1, 2, 3, 4):
        for seed in range(3):
            G = getattr(corpus, gen)(np.random.default_rng([seed, m]), m=m)
            pole = [0.0, 1.0] if G.domain == "ct" else [-1.0, 1.0]
            G = G + corpus.weighted_modes([corpus.psd(np.random.default_rng([seed, m, 1]), m)],
                                          [RationalScalar([1.0], pole)], np.zeros((m, m)), G.domain)
            for form in ("pr", "ni"):
                worst, _, _ = grid_scan(G, form)
                ref, _, _ = reference_scan(G, form)
                assert (worst >= 0.0) == (ref >= 0.0), (m, seed, form, worst, ref)
                assert (analysis_of(G).sign_scan(form)[0] >= 0.0) == (ref >= 0.0), (m, seed, form)
