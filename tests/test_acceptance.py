"""End-to-end acceptance checks with one printed PASS/FAIL line per criterion."""

import numpy as np
import pytest

from corpus import (
    ct_mixed,
    ct_ni,
    ct_pr,
    dt_lemma_corpus,
    dt_mixed,
    dt_ni,
    dt_pr,
    psd,
)
from nipr.analysis_ct import (
    classify_cni,
    classify_cpr,
    classify_cssni,
    classify_csspr,
    classify_cwsni,
    classify_cwspr,
)
from nipr.analysis_dt import (
    circle_limits,
    classify_dni,
    classify_dssni,
    classify_dwsni,
    gain_order_check,
)
from nipr.config import DEFAULT
from nipr.interconnect import (
    PartitionedSystem,
    internal_stability,
    ni_stability_test,
    redheffer_star,
)
from nipr.nilemma import FEASIBLE, INCONCLUSIVE, dni_lemma_check
from nipr.poly import RationalScalar
from nipr.ratmat import (
    RationalMatrix,
    rm_cayley,
    rm_eval,
    rm_infinity_expansion,
    rm_poles,
    rm_residues_at,
)
from nipr.realization import StateSpace, minimal_realization, tf_of


def check(cid, ok, detail=""):
    import conftest

    line = f"{cid}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(line, flush=True)
    conftest.CRITERION_LINES.append(line)
    assert ok, line


def ct_scalar(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "ct")


def dt_scalar(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "dt")


def herm(M):
    return 0.5 * (M + M.conj().T)


def ss_eval(ss, z):
    if ss.order == 0:
        return ss.D.astype(complex)
    return ss.C @ np.linalg.solve(z * np.eye(ss.order) - ss.A, ss.B) + ss.D


# ---------------------------------------------------------------------------
# 1. worked example reproduction


def test_1a_pr_hierarchy():
    F = ct_scalar([3.0, 1.0], [2.0, 3.0, 1.0])  # (s+3)/((s+1)(s+2))
    pr = classify_cpr(F, DEFAULT).verdict
    ws = classify_cwspr(F, DEFAULT).verdict
    rep = classify_csspr(F, DEFAULT)
    w = 1e4
    Fi = rm_eval(F, 1j * w)
    Fmi = rm_eval(F, -1j * w)
    witness = float(np.real(w * w * (Fi + Fmi.T))[0, 0])
    ok = pr and ws and not rep.verdict and abs(witness) <= 1e-6
    check("1a", ok, f"decay witness {witness:.2e}")


def test_1b_ni_with_zero_Q():
    G = ct_scalar([1.0, 2.0], [1.0, 2.0, 1.0])  # (2s+1)/(s+1)^2
    ni = classify_cni(G, DEFAULT).verdict
    ws = classify_cwsni(G, DEFAULT).verdict
    rep = classify_cssni(G, DEFAULT)
    Q = float(rep.limits.Q[0, 0]) if rep.limits is not None else np.nan
    ok = ni and ws and not rep.verdict and abs(Q) <= 1e-6
    check("1b", ok, f"Q = {Q:.2e}")


def test_1c_wsni_with_Q_16():
    G = ct_scalar([3.0, 1.0], [1.0, 3.0, 3.0, 1.0])  # (s+3)/(s+1)^3
    ws = classify_cwsni(G, DEFAULT).verdict
    rep = classify_cssni(G, DEFAULT)
    Q = float(rep.limits.Q[0, 0]) if rep.limits is not None else np.nan
    coercivity = rep.condition("decay-at-infinity")
    ok = (ws and abs(Q - 16.0) <= 1e-6 and not rep.verdict
          and coercivity is not None and not coercivity.passed)
    check("1c", ok, f"Q = {Q:.9f}")


def test_1d_integrators():
    ok = (classify_cni(ct_scalar([1.0], [0.0, 1.0]), DEFAULT).verdict
          and classify_cni(ct_scalar([1.0], [0.0, 0.0, 1.0]), DEFAULT).verdict
          and not classify_cni(ct_scalar([-1.0], [0.0, 0.0, 1.0]), DEFAULT).verdict)
    check("1d", ok)


def test_1e_lead_lag_ssni():
    ok = classify_cssni(ct_scalar([1.0, -1.0], [1.0, 1.0]), DEFAULT).verdict
    check("1e", ok)


def test_1f_loop_poles():
    P_ct = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                      np.ones((2, 2)), "ct")
    Q_ct = minimal_realization(RationalMatrix(
        [[RationalScalar([1.0], [1.0, 1.0])] * 2] * 2, "ct"))
    res_ct = internal_stability(P_ct, Q_ct)
    pole_ct = min(abs(l - 3.0) for l in res_ct.closed_loop_spectrum)
    P_dt = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                      np.ones((2, 2)), "dt")
    Q_dt = minimal_realization(RationalMatrix(
        [[RationalScalar([1.0], [0.5, 1.0])] * 2] * 2, "dt"))  # 2/(2z+1)
    res_dt = internal_stability(P_dt, Q_dt)
    pole_dt = min(abs(l - 3.5) for l in res_dt.closed_loop_spectrum)
    ok = (not res_ct.internally_stable and pole_ct <= 1e-9
          and not res_dt.internally_stable and pole_dt <= 1e-9)
    check("1f", ok, f"pole errors {pole_ct:.1e}, {pole_dt:.1e}")


def test_1g_star_example():
    D1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    S1 = PartitionedSystem(
        StateSpace(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), D1, "dt"), 1, 1)
    delay = minimal_realization(dt_scalar([1.0], [0.0, 1.0]))
    res = redheffer_star(S1, PartitionedSystem(delay, 1, 1))
    star_tf = tf_of(res.system)
    expect = RationalMatrix([
        [RationalScalar([1.0, 1.0], [0.0, 1.0]), RationalScalar([0.0], [1.0])],
        [RationalScalar([0.0], [1.0]), RationalScalar([1.0], [1.0])],
    ], "dt")
    ok = (star_tf.equals(expect)
          and classify_dni(star_tf, DEFAULT).verdict
          and not classify_dwsni(star_tf, DEFAULT).verdict)
    check("1g", ok)


# ---------------------------------------------------------------------------
# 2. oracle equivalences

FEASIBLE_CACHE = []


def test_2a_lemma_matches_classifier():
    systems = dt_lemma_corpus(seed=7, count=100)
    disagreements = 0
    inconclusive = 0
    for G in systems:
        verdict = classify_dni(G, DEFAULT).verdict
        ss = minimal_realization(G)
        cert = dni_lemma_check(ss, DEFAULT)
        if cert.status == INCONCLUSIVE:
            inconclusive += 1
            continue
        if (cert.status == FEASIBLE) != verdict:
            disagreements += 1
        if cert.status == FEASIBLE:
            FEASIBLE_CACHE.append((ss, cert))
    rate = inconclusive / len(systems)
    ok = disagreements == 0 and rate < 0.05
    check("2a", ok,
          f"{len(systems)} systems, {disagreements} disagreements, "
          f"inconclusive rate {rate:.1%}")


def test_2b_cayley_bridge():
    rng = np.random.default_rng(8)
    disagreements = 0
    count = 200
    for k in range(count):
        kind = k % 4
        if kind == 0:
            G = dt_ni(rng, m=1, nterms=1)
        elif kind == 1:
            G = dt_ni(rng, m=2, nterms=1)
        elif kind == 2:
            G = dt_mixed(rng, m=2, nterms=1)
        else:
            G = dt_pr(rng, m=1, nterms=1)
        dni = classify_dni(G, DEFAULT).verdict
        cni = classify_cni(rm_cayley(G), DEFAULT).verdict
        if dni != cni:
            disagreements += 1
    check("2b", disagreements == 0, f"{count} systems, {disagreements} disagreements")


def test_2c_transform_equivalences():
    from nipr.transforms import ct_ni_to_pr, ct_pr_to_ni, dt_ni_to_pr, dt_pr_to_ni
    rng = np.random.default_rng(9)
    bad = []
    for _ in range(3):
        G = ct_ni(rng, m=2, nterms=2)
        if not classify_cpr(ct_ni_to_pr(G, DEFAULT), DEFAULT).verdict:
            bad.append("ct-forward")
        F = ct_pr(rng, m=2, nterms=2)
        if not classify_cni(ct_pr_to_ni(F, psd(rng, 2)), DEFAULT).verdict:
            bad.append("ct-converse")
        Gd = dt_ni(rng, m=2, nterms=2)
        if not classify_dni(Gd, DEFAULT).verdict:
            continue
        from nipr.analysis_dt import classify_dpr
        if not classify_dpr(dt_ni_to_pr(Gd, DEFAULT), DEFAULT).verdict:
            bad.append("dt-forward")
        Fd = dt_pr(rng, m=2, nterms=2)
        if not classify_dni(dt_pr_to_ni(Fd, psd(rng, 2)), DEFAULT).verdict:
            bad.append("dt-converse")
    check("2c", not bad, f"failures: {bad}" if bad else "12 maps verified")


def _admissible_pair(rng):
    c = float(rng.uniform(0.01, 0.5))
    a = float(rng.uniform(-0.5, 0.8))
    beta = float(rng.uniform(-0.8, 0.8))
    P = dt_scalar([c, c], [beta, 1.0])              # c (z+1)/(z+beta), P(-1) = 0
    q0 = 1.0 / (1.0 + a)
    Q = dt_scalar([q0 * -a + 1.0, q0], [-a, 1.0])   # q0 + 1/(z-a), Q(-1) = 0
    return P, Q


def test_2d_ni_stability_oracle():
    rng = np.random.default_rng(10)
    stable = unstable = disagreements = 0
    pairs = 0
    while pairs < 50:
        P, Q = _admissible_pair(rng)
        out = ni_stability_test(P, Q, DEFAULT)
        pairs += 1
        if not out["agree"]:
            disagreements += 1
        if out["verdict"]:
            stable += 1
        else:
            unstable += 1
    ok = disagreements == 0 and stable > 0 and unstable > 0
    check("2d", ok, f"50 pairs, {stable} stable / {unstable} unstable, "
                    f"{disagreements} disagreements")


# ---------------------------------------------------------------------------
# 3. invariant suites


def test_3_containment_and_gain():
    rng = np.random.default_rng(11)
    chain_ok = True
    gain_ok = True
    for k in range(6):
        G = ct_mixed(rng, m=2, nterms=2) if k % 2 else ct_ni(rng, m=2, nterms=2)
        ssni = classify_cssni(G, DEFAULT).verdict
        wsni = classify_cwsni(G, DEFAULT).verdict
        ni = classify_cni(G, DEFAULT).verdict
        chain_ok &= ((not ssni) or wsni) and ((not wsni) or ni)
    for k in range(6):
        G = dt_mixed(rng, m=2, nterms=2) if k % 2 else dt_ni(rng, m=2, nterms=2)
        ssni = classify_dssni(G, DEFAULT).verdict
        wsni = classify_dwsni(G, DEFAULT).verdict
        ni = classify_dni(G, DEFAULT).verdict
        chain_ok &= ((not ssni) or wsni) and ((not wsni) or ni)
        if ni:
            _M, is_psd, _pd = gain_order_check(G, DEFAULT)
            gain_ok &= bool(is_psd)
    check("3-containment-gain", chain_ok and gain_ok)


def test_3_certificate_reverification():
    certs = FEASIBLE_CACHE
    if not certs:
        rng = np.random.default_rng(12)
        for _ in range(10):
            ss = minimal_realization(dt_ni(rng, m=2, nterms=2))
            cert = dni_lemma_check(ss, DEFAULT)
            if cert.status == FEASIBLE:
                certs.append((ss, cert))
    bad = 0
    for ss, cert in certs:
        X, A = cert.X, ss.A
        n = ss.order
        if n == 0:
            continue
        scale = 1.0 + np.linalg.norm(X, 2)
        R = ss.C @ np.linalg.inv(A + np.eye(n))
        S = -ss.B.T @ np.linalg.inv(A.T - np.eye(n))
        good = (np.allclose(X, X.T, atol=1e-10 * scale)
                and np.linalg.eigvalsh(X)[0] > 0
                and np.linalg.eigvalsh(X - A.T @ X @ A)[0] >= -1e-8 * scale
                and np.linalg.norm(S @ X - R) <= 1e-7 * scale)
        if not good:
            bad += 1
    check("3-certificates", bad == 0, f"{len(certs)} Feasible certificates re-verified")


def test_3_star_additivity():
    from test_interconnect import sum_wrapper
    rng = np.random.default_rng(13)
    P = dt_ni(rng, m=2, nterms=1)
    Q = dt_ni(rng, m=2, nterms=1)
    S1tf = sum_wrapper(P)
    S1 = PartitionedSystem(minimal_realization(S1tf), 2, 2)
    S2 = PartitionedSystem(minimal_realization(Q), 2, 2)
    res = redheffer_star(S1, S2)
    a = b = 2
    m1 = 4

    def qform(M, v):
        return v.conj() @ (1j * (M - M.conj().T)) @ v

    worst = 0.0
    for _ in range(100):
        z = (1.2 + rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        S1v = ss_eval(S1.sys, z)
        S2v = ss_eval(S2.sys, z)
        Sv = ss_eval(res.system, z)
        S1bot = S1v[m1 - a:, :]
        K = np.block([
            [np.eye(a), -S1bot[:, m1 - b:]],
            [-S2v[:b, :a], np.eye(b)],
        ])
        rhs = np.concatenate([S1bot[:, :m1 - b] @ u, np.zeros(b)])
        w = np.linalg.solve(K, rhs)
        uhat, utilde = w[:a], w[a:]
        v1 = np.concatenate([u, utilde])
        direct = qform(Sv, u)
        summed = qform(S1v, v1) + qform(S2v, uhat)
        worst = max(worst, abs(direct - summed) / (1.0 + abs(direct)))
    check("3-star-additivity", worst <= 1e-8, f"worst relative error {worst:.1e}")


def test_3_cayley_round_trips():
    rng = np.random.default_rng(14)
    worst = 0.0
    for k in range(6):
        G = ct_ni(rng, m=2, nterms=2) if k % 2 else dt_ni(rng, m=2, nterms=2)
        back = rm_cayley(rm_cayley(G))
        for _ in range(10):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            try:
                va = rm_eval(G, z)
                vb = rm_eval(back, z)
            except Exception:
                continue
            worst = max(worst, np.linalg.norm(va - vb) / (1.0 + np.linalg.norm(va)))
    check("3-cayley-round-trip", worst <= 1e-8, f"worst relative error {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. numerical hygiene: symbolic limits vs brute-force approach


def _brute_A1_A2(G, p, r=1e-4):
    phis = 2.0 * np.pi * np.arange(8) / 8.0
    samples = [rm_eval(G, p + r * np.exp(1j * phi)) for phi in phis]
    A1 = r * np.mean([S * np.exp(1j * phi) for S, phi in zip(samples, phis)], axis=0)
    A2 = r * r * np.mean([S * np.exp(2j * phi) for S, phi in zip(samples, phis)], axis=0)
    return A1, A2


def _brute_K_inf(G, r=1e-4):
    phis = 2.0 * np.pi * np.arange(8) / 8.0
    vals = [r * np.exp(1j * phi) * rm_eval(G, 1.0 / (r * np.exp(1j * phi)))
            for phi in phis]
    return np.mean(vals, axis=0)


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / (1.0 + np.linalg.norm(np.asarray(b)))


def test_4_residues_and_limits():
    rng = np.random.default_rng(15)
    worst = 0.0
    systems = [
        ct_scalar([1.0], [1.0, 1.0]),                 # 1/(s+1)
        ct_scalar([1.0], [4.0, 0.0, 1.0]),            # 1/(s^2+4)
        ct_scalar([5.0, 3.0], [1.0, 2.0, 1.0]),       # (3s+5)/(s+1)^2
        ct_scalar([3.0, 1.0], [1.0, 3.0, 3.0, 1.0]),  # (s+3)/(s+1)^3
        dt_scalar([1.0], [-0.5, 1.0]),                # 1/(z-0.5)
        dt_scalar([1.0], [-1.0, 1.0]),                # 1/(z-1)
        dt_scalar([0.0, 1.0], [-0.5, 1.0]),           # z/(z-0.5)
        ct_ni(rng, m=2, nterms=2),
        dt_ni(rng, m=2, nterms=2),
    ]
    # residues A1, A2 and normalized K0 at every pole of multiplicity <= 2
    for G in systems:
        for p, mult in rm_poles(G, DEFAULT):
            if mult > 2:
                continue
            pd = rm_residues_at(G, p, DEFAULT)
            A1b, A2b = _brute_A1_A2(G, p)
            worst = max(worst, _rel(A1b, pd.residue_A1), _rel(A2b, pd.quad_residue_A2))
            if G.domain == "ct" and abs(p.real) < 1e-9:
                worst = max(worst, _rel(1j * A1b, pd.normalized_K0))
            if G.domain == "dt" and abs(abs(p) - 1.0) < 1e-9:
                worst = max(worst, _rel((1j / p) * A1b, pd.normalized_K0))
    # K_inf on improper systems
    for G in [ct_scalar([0.0, 1.0], [1.0]),                 # s
              ct_scalar([3.0, 3.0, 1.0], [1.0, 1.0])]:      # s + 2 + 1/(s+1)
        exp = rm_infinity_expansion(G)
        worst = max(worst, _rel(_brute_K_inf(G), exp.poly_coeffs[0]))
    # Q at the origin for CT strictness reports
    for G, _qexp in [(ct_scalar([1.0, 2.0], [1.0, 2.0, 1.0]), 0.0),
                     (ct_scalar([3.0, 1.0], [1.0, 3.0, 3.0, 1.0]), 16.0)]:
        rep = classify_cssni(G, DEFAULT)
        w = 1e-4
        M = rm_eval(G, 1j * w)
        Qb = np.real(herm(1j * (M - M.conj().T))) / w
        worst = max(worst, _rel(Qb, rep.limits.Q))
    # Q0 and Qpi endpoint slopes for DT systems without poles at z = +-1
    for G in [dt_scalar([1.0], [-0.5, 1.0]), dt_ni(rng, m=2, nterms=2)]:
        lim = circle_limits(G, DEFAULT)
        th = 1e-4

        def defect(theta):
            M = rm_eval(G, np.exp(1j * theta))
            return np.real(herm(1j * (M - M.conj().T)))

        worst = max(worst, _rel(defect(th) / th, lim.Q0))
        worst = max(worst, _rel(defect(np.pi - th) / th, lim.Qpi))
    check("4", worst <= 1e-5, f"worst relative error {worst:.1e}")
