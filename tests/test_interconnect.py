import numpy as np
import pytest

from corpus import ct_mode, dt_ni, psd, weighted_modes
from nipr.analysis import analysis_of
from nipr.analysis_dt import classify_dni, classify_dwsni
from nipr.config import DEFAULT
from nipr.errors import IllPosed, PreconditionViolated
from nipr.interconnect import (
    PartitionedSystem,
    internal_stability,
    ni_stability_test,
    redheffer_star,
    star_class_preservation,
)
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_cayley
from nipr.realization import StateSpace, minimal_realization, tf_of


def scalar_dt(num, den):
    return RationalMatrix([[RationalScalar(num, den)]], "dt")


def static_ss(D, domain="dt"):
    m = D.shape[0]
    return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)),
                      np.asarray(D, float), domain)


def sum_wrapper(P):
    """[[P, I], [I, 0]] so that the star with Q closes to P + Q."""
    m = P.size
    one = RationalScalar([1.0], [1.0])
    zero = RationalScalar([0.0], [1.0])
    rows = []
    for i in range(m):
        rows.append([P.entries[i][j] for j in range(m)]
                    + [one if j == i else zero for j in range(m)])
    for i in range(m):
        rows.append([one if j == i else zero for j in range(m)]
                    + [zero] * m)
    return RationalMatrix(rows, P.domain)


def test_star_reduces_to_sum():
    rng = np.random.default_rng(61)
    P = dt_ni(rng, m=2, nterms=1)
    Q = dt_ni(rng, m=2, nterms=1)
    S1 = PartitionedSystem(minimal_realization(sum_wrapper(P)), 2, 2)
    S2 = PartitionedSystem(minimal_realization(Q), 2, 2)
    res = redheffer_star(S1, S2)
    assert tf_of(res.system).equals(P + Q)


def test_star_known_example():
    # [[I2, e1], [e1', 0]] starred with 1/z closes to diag(1 + 1/z, 1)
    D1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    S1 = PartitionedSystem(static_ss(D1), 1, 1)
    delay = minimal_realization(scalar_dt([1.0], [0.0, 1.0]))
    res = redheffer_star(S1, PartitionedSystem(delay, 1, 1))
    star_tf = tf_of(res.system)
    expect = RationalMatrix([
        [RationalScalar([1.0, 1.0], [0.0, 1.0]), RationalScalar([0.0], [1.0])],
        [RationalScalar([0.0], [1.0]), RationalScalar([1.0], [1.0])],
    ], "dt")
    assert star_tf.equals(expect)
    rep = classify_dni(star_tf, DEFAULT)
    assert rep.verdict
    assert not classify_dwsni(star_tf, DEFAULT).verdict


def test_star_zero_feedback_keeps_first_block():
    rng = np.random.default_rng(62)
    P = dt_ni(rng, m=2, nterms=1)
    S1 = PartitionedSystem(minimal_realization(sum_wrapper(P)), 2, 2)
    S2 = PartitionedSystem(static_ss(np.zeros((2, 2))), 2, 2)
    res = redheffer_star(S1, S2)
    assert tf_of(res.system).equals(P)


def test_star_ill_posed():
    S1 = PartitionedSystem(static_ss(np.array([[0.0, 1.0], [1.0, 1.0]])), 1, 1)
    S2 = PartitionedSystem(static_ss(np.array([[1.0]])), 1, 1)
    with pytest.raises(IllPosed):
        redheffer_star(S1, S2)


def test_star_partition_mismatch():
    S1 = PartitionedSystem(static_ss(np.zeros((2, 2))), 1, 1)
    S2 = PartitionedSystem(static_ss(np.zeros((2, 2))), 2, 2)
    with pytest.raises(ValueError):
        redheffer_star(S1, S2)


def test_ct_loop_pole():
    P = static_ss(np.ones((2, 2)), "ct")
    Q = minimal_realization(RationalMatrix(
        [[RationalScalar([1.0], [1.0, 1.0])] * 2] * 2, "ct"))
    res = internal_stability(P, Q)
    assert not res.internally_stable
    assert any(abs(l - 3.0) <= 1e-9 for l in res.closed_loop_spectrum)


def test_dt_loop_pole():
    P = static_ss(np.ones((2, 2)), "dt")
    # 2/(2z + 1) = 1/(z + 0.5)
    Q = minimal_realization(RationalMatrix(
        [[RationalScalar([1.0], [0.5, 1.0])] * 2] * 2, "dt"))
    res = internal_stability(P, Q)
    assert not res.internally_stable
    assert any(abs(l - 3.5) <= 1e-9 for l in res.closed_loop_spectrum)


def test_loop_ill_posed():
    P = static_ss(np.eye(1), "dt")
    Q = static_ss(np.eye(1), "dt")
    with pytest.raises(IllPosed):
        internal_stability(P, Q)


def admissible_pair(c, a=0.2, beta=0.3):
    # P(-1) = 0 and Q(-1) = 0, so the DC product condition holds exactly
    P = scalar_dt([c, c], [beta, 1.0])            # c (z + 1)/(z + beta)
    q0 = 1.0 / (1.0 + a)
    Q = scalar_dt([q0 * -a + 1.0, q0], [-a, 1.0])  # q0 + 1/(z - a)
    return P, Q


def test_ni_stability_agrees_both_verdicts():
    P, Q = admissible_pair(0.05)
    out = ni_stability_test(P, Q, DEFAULT)
    assert out["verdict"] and out["internal_stability_verdict"] and out["agree"]
    P2, Q2 = admissible_pair(2.0)
    out2 = ni_stability_test(P2, Q2, DEFAULT)
    assert not out2["verdict"] and out2["agree"]
    assert out2["lambda_bar"] > 1.0


def test_ni_stability_preconditions():
    # P not D-NI
    bad = scalar_dt([-1.0], [-0.5, 1.0])
    _, Q = admissible_pair(0.05)
    with pytest.raises(PreconditionViolated):
        ni_stability_test(bad, Q, DEFAULT)
    # P with a pole at z = 1
    pole1 = scalar_dt([1.0], [-1.0, 1.0])
    with pytest.raises(PreconditionViolated):
        ni_stability_test(pole1, Q, DEFAULT)
    # P(-1) Q(-1) != 0
    P = scalar_dt([1.0], [-0.5, 1.0])
    Qbig = scalar_dt([2.0, 1.0], [-0.2, 1.0])  # Q(-1) = -1/(-1.2) > 0... checked below
    with pytest.raises(PreconditionViolated):
        ni_stability_test(P, Qbig, DEFAULT)


def test_star_class_preservation_known_example():
    D1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    S1 = PartitionedSystem(static_ss(D1), 1, 1)
    delay = minimal_realization(scalar_dt([1.0], [0.0, 1.0]))
    out = star_class_preservation(S1, PartitionedSystem(delay, 1, 1), "dni", DEFAULT)
    assert out["inputs_in_class"] == (True, True)
    assert out["preserved"]
    assert out["star_membership"]["dni"]
    assert not out["star_membership"]["dwsni"]
    assert not out["star_membership"]["dssni"]


def test_loop_well_posedness_is_relative():
    # the coupling matrix [[I, -D_Q], [-D_P, I]] = [[I, -cI], [-cI, I]] has det (1 - c^2)^5 = 1e-10
    # but condition number (1 + c)/(1 - c), about 400
    D = np.sqrt(0.99) * np.eye(5)
    internal_stability(static_ss(D), static_ss(D))
    with pytest.raises(IllPosed):  # I - D_Q D_P = diag(0, 0.5, 0.5, 0.5, 0.5)
        internal_stability(static_ss(np.diag([1.0, 0.5, 0.5, 0.5, 0.5])), static_ss(np.eye(5)))


def test_star_well_posedness_is_relative():
    # the coupling matrix [[I, -cI], [-cI, I]] has det (1 - c^2)^5 = 1e-10 but condition number about 400
    c = np.sqrt(0.99)
    D1 = np.block([[np.zeros((5, 5)), np.zeros((5, 5))], [np.zeros((5, 5)), c * np.eye(5)]])
    S1 = PartitionedSystem(static_ss(D1), 5, 5)
    S2 = PartitionedSystem(static_ss(D1[::-1, ::-1].copy()), 5, 5)
    redheffer_star(S1, S2)
    with pytest.raises(IllPosed):
        redheffer_star(PartitionedSystem(static_ss(D1 / c), 5, 5), PartitionedSystem(static_ss(D1[::-1, ::-1] / c), 5, 5))


def test_loop_well_posedness_does_not_move_with_the_scale_of_P_and_Q():
    # the coupling matrix is balanced before its singular values are compared, so scaling P by k
    # and Q by 1/k changes neither the decision nor the loop
    Q = StateSpace(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1)), "dt")
    res = internal_stability(static_ss(np.array([[2e4]])), Q)  # Q strictly proper: always well posed
    assert np.allclose(res.system.D, [[2e4]])
    res = internal_stability(static_ss(np.array([[1e4]])), static_ss(np.array([[0.5e-4]])))  # loop gain 0.5
    assert np.isclose(res.system.D[0, 0], 2e4)
    D = np.sqrt(0.99) * np.eye(5)
    for k in (1e-6, 3e-3, 1.0, 7e2, 1e6):
        internal_stability(static_ss(k * D), static_ss(D / k))
        with pytest.raises(IllPosed):
            internal_stability(static_ss(k * np.diag([1.0, 0.5, 0.5, 0.5, 0.5])), static_ss(np.eye(5) / k))


def test_star_well_posedness_does_not_move_with_the_scale_of_the_factors():
    c = np.sqrt(0.99)
    D1 = np.block([[np.zeros((5, 5)), np.zeros((5, 5))], [np.zeros((5, 5)), c * np.eye(5)]])
    for k in (1e-6, 3e-3, 1.0, 7e2, 1e6):
        redheffer_star(PartitionedSystem(static_ss(k * D1), 5, 5), PartitionedSystem(static_ss(D1[::-1, ::-1] / k), 5, 5))
        with pytest.raises(IllPosed):
            redheffer_star(PartitionedSystem(static_ss(k * D1 / c), 5, 5),
                           PartitionedSystem(static_ss(D1[::-1, ::-1] / (c * k)), 5, 5))
    # a strictly proper second factor: the star is well posed whatever the first factor's channel gain
    S2 = StateSpace(0.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), "dt")
    res = redheffer_star(PartitionedSystem(static_ss(2e4 * np.eye(2)), 1, 1), PartitionedSystem(S2, 1, 1))
    assert res.system.size == 2


def random_ss(rng, m, n, domain):
    return StateSpace(rng.standard_normal((n, n)) / max(1.0, np.sqrt(n)), rng.standard_normal((n, m)),
                      rng.standard_normal((m, n)), rng.standard_normal((m, m)), domain)


def frequency_response(ss, x):
    return ss.C @ np.linalg.solve(x * np.eye(ss.order) - ss.A, ss.B) + ss.D


POINTS = (0.3 + 1.1j, -0.7 + 0.4j, 2.0 - 0.5j)


@pytest.mark.parametrize("domain", ["ct", "dt"])
def test_loop_system_is_the_w1_to_yP_map(domain):
    rng = np.random.default_rng(81)
    for m, n1, n2 in [(1, 2, 1), (2, 3, 2), (3, 1, 3)]:
        P, Q = random_ss(rng, m, n1, domain), random_ss(rng, m, n2, domain)
        res = internal_stability(P, Q)
        for x in POINTS:
            Px, Qx = frequency_response(P, x), frequency_response(Q, x)
            want = np.linalg.solve(np.eye(m) - Px @ Qx, Px)  # (I - P Q)^-1 P
            assert np.allclose(frequency_response(res.system, x), want, rtol=1e-10, atol=1e-10)


def test_a_loop_with_D_Q_the_inverse_of_D_P_is_ill_posed():
    # I - D_Q D_P is rounding noise, so only the full coupling matrix can tell it is singular
    rng = np.random.default_rng(82)
    for _ in range(10):
        DP = rng.standard_normal((2, 2))
        with pytest.raises(IllPosed):
            internal_stability(static_ss(DP), static_ss(np.linalg.inv(DP)))


def star_of_responses(S1, S2, x):
    """The star product of the two transfer matrices at x, from their blocks."""
    a, b = S1.a, S1.b
    G, H = frequency_response(S1.sys, x), frequency_response(S2.sys, x)
    m1 = G.shape[0]
    G11, G12, G21, G22 = G[:m1 - a, :m1 - b], G[:m1 - a, m1 - b:], G[m1 - a:, :m1 - b], G[m1 - a:, m1 - b:]
    H11, H12, H21, H22 = H[:b, :a], H[:b, a:], H[b:, :a], H[b:, a:]
    # the fed signals: u = G21 w1 + G22 v, v = H11 u + H12 w2
    K = np.block([[np.eye(a), -G22], [-H11, np.eye(b)]])
    W = np.block([[G21, np.zeros((a, H12.shape[1]))], [np.zeros((b, G21.shape[1])), H12]])
    u, v = np.split(np.linalg.solve(K, W), [a])
    top = np.hstack([G11, np.zeros((m1 - a, H12.shape[1]))]) + G12 @ v
    bottom = np.hstack([np.zeros((H21.shape[0], G21.shape[1])), H22]) + H21 @ u
    return np.vstack([top, bottom])


@pytest.mark.parametrize("domain", ["ct", "dt"])
def test_star_is_the_transfer_level_star_product(domain):
    rng = np.random.default_rng(83)
    for m1, m2, a in [(1, 1, 1), (2, 3, 1), (3, 2, 2), (3, 3, 3), (2, 2, 1)]:
        S1 = PartitionedSystem(random_ss(rng, m1, int(rng.integers(1, 4)), domain), a, a)
        S2 = PartitionedSystem(random_ss(rng, m2, int(rng.integers(1, 4)), domain), a, a)
        res = redheffer_star(S1, S2)
        assert res.system.size == m1 + m2 - 2 * a
        for x in POINTS:
            assert np.allclose(frequency_response(res.system, x), star_of_responses(S1, S2, x),
                               rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# the NI stability test in either domain


def precondition_cases():
    _, Q = admissible_pair(0.05)
    return [(scalar_dt([-1.0], [-0.5, 1.0]), Q),                                    # P not NI
            (scalar_dt([1.0], [-1.0, 1.0]), Q),                                     # P with a pole at z = 1
            (scalar_dt([1.0], [-0.5, 1.0]), scalar_dt([2.0, 1.0], [-0.2, 1.0]))]   # P(-1) Q(-1) != 0


def ct_names(message):
    """A discrete-time precondition message with the continuous-time names of its points and classes."""
    for dt, ct in (("D-", "C-"), ("z = 1", "s = 0"), ("z = -1", "s = inf"), ("(-1)", "(inf)"), ("(1)", "(0)")):
        message = message.replace(dt, ct)
    return message


@pytest.mark.parametrize("c", [0.05, 2.0])
def test_the_cayley_image_of_an_admissible_pair_gets_its_verdict(c):
    P, Q = admissible_pair(c)
    dt = ni_stability_test(P, Q, DEFAULT)
    ct = ni_stability_test(rm_cayley(P), rm_cayley(Q), DEFAULT)
    assert ct["verdict"] == dt["verdict"] and ct["agree"] and dt["agree"]
    assert ct["lambda_bar"] == pytest.approx(dt["lambda_bar"], rel=1e-14)


@pytest.mark.parametrize("case", range(3))
def test_the_cayley_image_of_a_precondition_case_raises_the_same_error(case):
    P, Q = precondition_cases()[case]
    with pytest.raises(PreconditionViolated) as dt:
        ni_stability_test(P, Q, DEFAULT)
    with pytest.raises(PreconditionViolated) as ct:
        ni_stability_test(rm_cayley(P), rm_cayley(Q), DEFAULT)
    assert str(ct.value) == ct_names(str(dt.value))


def test_a_ct_pole_at_infinity_violates_the_preconditions():
    _, Q = admissible_pair(0.05)
    P = RationalMatrix([[RationalScalar([0.0, 0.0, -1.0], [1.0])]], "ct")  # -s^2 is C-NI, but improper
    with pytest.raises(PreconditionViolated, match="s = inf"):
        ni_stability_test(P, rm_cayley(Q), DEFAULT)
    with pytest.raises(ValueError):
        ni_stability_test(P, Q, DEFAULT)


def loop_pair(rng):
    """A C-NI P with no pole at 0 or inf (PSD-weighted modes) and a C-WSNI Q (PD-weighted modes plus a
    PSD Q(inf)): P(inf) = 0, so P(inf) Q(inf) = 0; P is scaled so that max eig P(0) Q(0) is drawn in
    (0.2, 3)."""
    m = int(rng.integers(1, 3))
    betas, alphas = rng.uniform(0.2, 3.0, int(rng.integers(1, 3))), rng.uniform(0.2, 3.0, int(rng.integers(1, 3)))
    Rs = [psd(rng, m) for _ in betas]
    Ss = [psd(rng, m) + 0.1 * np.eye(m) for _ in alphas]
    Qinf = psd(rng, m) if rng.uniform() < 0.5 else np.zeros((m, m))
    P0, Q0 = sum(R / b for R, b in zip(Rs, betas)), Qinf + sum(S / a for S, a in zip(Ss, alphas))
    k = rng.uniform(0.2, 3.0) / np.max(np.linalg.eigvals(P0 @ Q0).real)
    P = weighted_modes([k * R for R in Rs], [ct_mode(b) for b in betas], np.zeros((m, m)), "ct")
    Q = weighted_modes(Ss, [ct_mode(a) for a in alphas], Qinf, "ct")
    return P, Q


def test_seeded_pairs_in_both_domains_agree_with_the_closed_loop():
    rng = np.random.default_rng(84)
    verdicts = {"ct": [], "dt": []}
    for _ in range(100):
        P, Q = loop_pair(rng)
        for PP, QQ in ((P, Q), (rm_cayley(P), rm_cayley(Q))):
            out = ni_stability_test(PP, QQ, DEFAULT)
            assert out["agree"], (PP.domain, out["lambda_bar"])
            verdicts[PP.domain].append(out["verdict"])
    assert verdicts["ct"] == verdicts["dt"]
    assert 0 < sum(verdicts["ct"]) < 100


def test_star_class_preservation_takes_the_classes_of_its_domain():
    # [[1, 1], [1, 0]] starred with 1/(s + 1) closes to 1 + 1/(s + 1): its defect 2w/(1 + w^2) is positive
    # on (0, inf), has slope 2 at the origin and decays as 1/w, so it is C-NI, C-WSNI and C-SSNI
    S1 = PartitionedSystem(static_ss(np.array([[1.0, 1.0], [1.0, 0.0]]), "ct"), 1, 1)
    mode = minimal_realization(RationalMatrix([[ct_mode(1.0)]], "ct"))
    out = star_class_preservation(S1, PartitionedSystem(mode, 1, 1), "cni", DEFAULT)
    assert out["inputs_in_class"] == (True, True) and out["preserved"]
    assert out["star_membership"] == {"cni": True, "cwsni": True, "cssni": True}
    with pytest.raises(ValueError):
        star_class_preservation(S1, PartitionedSystem(mode, 1, 1), "dni", DEFAULT)


# ---------------------------------------------------------------------------
# one stability rule for closed-loop eigenvalues and poles


@pytest.mark.parametrize("domain,gap", [("ct", 1.0), ("dt", 0.5)])
def test_a_closed_loop_eigenvalue_within_root_cluster_of_the_boundary_is_not_stable(domain, gap):
    # P = k static and Q = 1/(x - a): the positive feedback loop has its one pole at a + k, 5e-8 inside
    # the boundary (Re = -5e-8, or |z| = 1 - 5e-8), which lies within root_cluster = 1e-7 of it
    a = -gap
    Q = minimal_realization(RationalMatrix([[RationalScalar([1.0], [-a, 1.0])]], domain))
    k = (0.0 if domain == "ct" else 1.0) - 5e-8 - a
    res = internal_stability(static_ss(np.array([[k]]), domain), Q)
    [lam] = res.closed_loop_spectrum
    assert lam.real == pytest.approx(a + k, abs=1e-15)
    assert not res.internally_stable
    # the closed loop's transfer function has that pole, and the same rule does not count it stable
    assert not analysis_of(tf_of(res.system), DEFAULT).strictly_stable()
    # 1e-6 inside the boundary is stable under both
    res = internal_stability(static_ss(np.array([[k - 1e-6]]), domain), Q)
    assert res.internally_stable and analysis_of(tf_of(res.system), DEFAULT).strictly_stable()


@pytest.mark.parametrize("re,stable", [(-1e-6, False), (-1e-4, True)])
def test_the_continuous_time_margin_grows_with_the_modulus_of_the_eigenvalue(re, stable):
    # P = 0 and Q with the lightly damped pair re +- 100j: the loop's spectrum is that pair, and a real part
    # of -1e-6 lies within root_cluster (1 + |lam|) = 1.01e-5 of the axis, so it is not counted stable
    Q = RationalMatrix([[RationalScalar([1.0], [re * re + 1e4, -2.0 * re, 1.0])]], "ct")
    res = internal_stability(static_ss(np.zeros((1, 1)), "ct"), minimal_realization(Q))
    assert sorted(res.closed_loop_spectrum, key=np.imag) == pytest.approx([re - 100j, re + 100j], abs=1e-9)
    assert res.internally_stable == stable
    # the same rule decides whether Q, whose poles these are, is strictly stable
    assert analysis_of(Q, DEFAULT).strictly_stable() == stable


@pytest.mark.parametrize("domain", ["ct", "dt"])
@pytest.mark.parametrize("eps,admissible", [(5e-8, True), (2e-7, False)])
def test_the_product_at_x_inf_vanishes_within_root_cluster(domain, eps, admissible):
    # P = eps + 0.2/(s + 1) and Q = 1 + 1/(s + 1), or their Cayley images: P(x_inf) Q(x_inf) = eps
    P = RationalMatrix([[RationalScalar([eps + 0.2, eps], [1.0, 1.0])]], "ct")
    Q = RationalMatrix([[RationalScalar([2.0, 1.0], [1.0, 1.0])]], "ct")
    if domain == "dt":
        P, Q = rm_cayley(P), rm_cayley(Q)
    if admissible:
        out = ni_stability_test(P, Q, DEFAULT)
        assert out["verdict"] and out["agree"]
        assert out["lambda_bar"] == pytest.approx(2.0 * (0.2 + eps), rel=1e-12)
    else:
        with pytest.raises(PreconditionViolated, match="!= 0"):
            ni_stability_test(P, Q, DEFAULT)


@pytest.mark.parametrize("a", [1.0 - 1.5e-7, -(1.0 - 1.5e-7)])
def test_a_loop_eigenvalue_on_the_circle_for_the_pole_checks_is_not_stable(a):
    # |a| = 1 - 1.5e-7 lies within 2 root_cluster of the circle, where a pole is a boundary pole
    P = StateSpace(np.array([[a]]), np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]), "dt")
    res = internal_stability(P, static_ss(np.zeros((1, 1))))
    assert res.closed_loop_spectrum == pytest.approx([a], abs=1e-15)
    assert not res.internally_stable
