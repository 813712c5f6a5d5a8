import numpy as np
import pytest

from corpus import dt_ni
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
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace, minimal_realization, tf_of

COARSE = DEFAULT.with_overrides(grid_points_dt=512, refine_rounds=8)


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
    rep = classify_dni(star_tf, COARSE)
    assert rep.verdict
    assert not classify_dwsni(star_tf, COARSE).verdict


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
    out = ni_stability_test(P, Q, COARSE)
    assert out["verdict"] and out["internal_stability_verdict"] and out["agree"]
    P2, Q2 = admissible_pair(2.0)
    out2 = ni_stability_test(P2, Q2, COARSE)
    assert not out2["verdict"] and out2["agree"]
    assert out2["lambda_bar"] > 1.0


def test_ni_stability_preconditions():
    # P not D-NI
    bad = scalar_dt([-1.0], [-0.5, 1.0])
    _, Q = admissible_pair(0.05)
    with pytest.raises(PreconditionViolated):
        ni_stability_test(bad, Q, COARSE)
    # P with a pole at z = 1
    pole1 = scalar_dt([1.0], [-1.0, 1.0])
    with pytest.raises(PreconditionViolated):
        ni_stability_test(pole1, Q, COARSE)
    # P(-1) Q(-1) != 0
    P = scalar_dt([1.0], [-0.5, 1.0])
    Qbig = scalar_dt([2.0, 1.0], [-0.2, 1.0])  # Q(-1) = -1/(-1.2) > 0... checked below
    with pytest.raises(PreconditionViolated):
        ni_stability_test(P, Qbig, COARSE)


def test_star_class_preservation_known_example():
    D1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    S1 = PartitionedSystem(static_ss(D1), 1, 1)
    delay = minimal_realization(scalar_dt([1.0], [0.0, 1.0]))
    out = star_class_preservation(S1, PartitionedSystem(delay, 1, 1), "dni", COARSE)
    assert out["inputs_in_class"] == (True, True)
    assert out["preserved"]
    assert out["star_membership"]["dni"]
    assert not out["star_membership"]["dwsni"]
    assert not out["star_membership"]["dssni"]


def test_loop_well_posedness_is_relative():
    # I - D_Q D_P = 0.01 I has det 1e-10 but condition number 1
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
