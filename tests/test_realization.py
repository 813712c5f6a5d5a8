import numpy as np
import pytest

from corpus import ct_mixed, ct_ni, ct_pr, dt_mixed, dt_ni, dt_pr
from nipr.errors import EigenvalueAtMinusOne, ImproperInput
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_cayley, rm_eval, rm_poles
from nipr.realization import StateSpace, block_diag, cayley_ss, is_minimal, minimal_realization, spectrum, tf_of


def test_tf_of_known_system():
    # x' = -2x + u, y = 3x + u  ->  3/(s + 2) + 1
    ss = StateSpace(np.array([[-2.0]]), np.array([[1.0]]), np.array([[3.0]]), np.array([[1.0]]), "ct")
    G = tf_of(ss)
    s = 0.7 + 0.3j
    assert rm_eval(G, s)[0, 0] == pytest.approx(3.0 / (s + 2.0) + 1.0)


def test_minimal_realization_round_trip():
    # Gilbert's realization is returned as built, so this is where its minimality is checked
    for gen in (ct_ni, ct_pr, ct_mixed, dt_ni, dt_pr, dt_mixed):
        for m in (1, 2, 3, 4):
            for seed in range(6):
                G = gen(np.random.default_rng([seed, m]), m=m)
                ss = minimal_realization(G)
                assert is_minimal(ss)
                assert G.equals(tf_of(ss))


def test_block_diag_takes_rectangular_and_empty_blocks():
    M = block_diag(np.ones((1, 2)), np.zeros((0, 3)), np.zeros((0, 0)), 2j * np.ones((2, 1)))
    assert M.shape == (3, 6) and M.dtype == complex
    assert np.array_equal(M, [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 2j], [0, 0, 0, 0, 0, 2j]])
    assert block_diag().shape == (0, 0) and block_diag(np.eye(2)).dtype == float


def test_minimal_order_matches_pole_count():
    rng = np.random.default_rng(3)
    G = dt_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G)
    # simple distinct scalar poles with full-rank residues: order = sum of
    # residue ranks; PSD rank-2 weights on a 2x2 system give 2 states per pole
    n_expected = sum(np.linalg.matrix_rank(w) for w in _residue_weights(G))
    assert ss.order == n_expected


def _residue_weights(G):
    from nipr.ratmat import rm_residues_at
    out = []
    for p, _m in rm_poles(G):
        out.append(np.real(rm_residues_at(G, p).residue_A1))
    return out


def test_repeated_pole_realization():
    # (3s + 5)/(s + 1)^2 needs two states
    G = RationalMatrix([[RationalScalar([5.0, 3.0], [1.0, 2.0, 1.0])]], "ct")
    ss = minimal_realization(G)
    assert ss.order == 2
    assert G.equals(tf_of(ss))


def test_triple_pole_realization():
    # the rounded roots of (s + 1)^3 scatter by about 6e-6, beyond root_cluster,
    # so the common denominator has to be divided out as a polynomial
    g = RationalScalar([3.0, 1.0], [1.0, 3.0, 3.0, 1.0])  # (s + 3)/(s + 1)^3
    h = RationalScalar([1.0], [1.0, 1.0])
    for G in (RationalMatrix([[g]], "ct"), RationalMatrix([[g, h], [h, 2.0 * g]], "ct")):
        ss = minimal_realization(G)
        assert is_minimal(ss)
        assert G.equals(tf_of(ss))


def test_improper_input_rejected():
    G = RationalMatrix([[RationalScalar([0.0, 0.0, 1.0], [1.0, 1.0])]], "ct")
    with pytest.raises(ImproperInput):
        minimal_realization(G)


def test_complex_pole_realization_is_real():
    # 1/(s^2 + s + 1) has a complex pair; the realization must stay real
    G = RationalMatrix([[RationalScalar([1.0], [1.0, 1.0, 1.0])]], "ct")
    ss = minimal_realization(G)
    assert ss.A.dtype == float and np.isrealobj(ss.A)
    assert ss.order == 2
    assert G.equals(tf_of(ss))


def test_cayley_ss_round_trip():
    rng = np.random.default_rng(5)
    G = dt_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G)
    ct = cayley_ss(ss)
    assert ct.domain == "ct"
    back = cayley_ss(ct)
    assert back.domain == "dt"
    assert tf_of(ss).equals(tf_of(back))


def test_cayley_ss_commutes_with_tf_map():
    rng = np.random.default_rng(6)
    G = dt_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G)
    lhs = tf_of(cayley_ss(ss))
    rhs = rm_cayley(G)
    assert lhs.equals(rhs)


def test_cayley_ss_rejects_eigenvalue_at_minus_one():
    ss = StateSpace(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]), "dt")
    with pytest.raises(EigenvalueAtMinusOne):
        cayley_ss(ss)


def test_spectrum_matches_poles():
    rng = np.random.default_rng(9)
    G = ct_ni(rng, m=2, nterms=2)
    ss = minimal_realization(G)
    lams = sorted(np.real(spectrum(ss)))
    poles = sorted(p.real for p, m in rm_poles(G) for _ in range(2))  # rank-2 weights
    assert np.allclose(lams, poles, atol=1e-7)


def test_stable_eigenvalues_near_minus_one_are_not_at_it():
    # two eigenvalues 5e-7 inside z = -1 make det(A + I) = 2.5e-13, but A is 5e-7 from a matrix with -1
    A = np.diag([-0.9999995, -0.9999995])
    ss = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)), "dt")
    assert cayley_ss(ss).order == 2
    jordan = StateSpace(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2), np.eye(2), np.zeros((2, 2)), "dt")
    with pytest.raises(EigenvalueAtMinusOne):
        cayley_ss(jordan)


@pytest.mark.parametrize("w", [10.0, 100.0, 1000.0])
def test_a_repeated_mode_of_a_large_frequency_keeps_its_states(w):
    # the companion form of (s^2 + 0.02 w s + w^2)^2 carries w^4; unbalanced, the reductions dropped
    # every state at w = 100
    G = RationalMatrix([[RationalScalar([1.0], np.polynomial.polynomial.polypow([w * w, 0.02 * w, 1.0], 2))]], "ct")
    ss = minimal_realization(G)
    assert ss.order == 4 and is_minimal(ss)
    s = np.array([0.5j * w, 1j * w, 2j * w, 1.0 + 0.0j])
    direct = np.array([rm_eval(G, x)[0, 0] for x in s])
    via = np.array([(ss.C @ np.linalg.solve(x * np.eye(4) - ss.A, ss.B))[0, 0] for x in s])
    assert np.allclose(via, direct, rtol=1e-6, atol=0.0)
