import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from nipr.config import DEFAULT
from nipr.errors import MultiplicityTooHigh, PoleProximity
from nipr.poly import RationalScalar
from nipr.ratmat import (
    RationalMatrix,
    rm_cayley,
    rm_eval,
    rm_eval_many,
    rm_full_normal_rank,
    rm_infinity_expansion,
    rm_is_symmetric,
    rm_mobius,
    rm_poles,
    rm_residues_at,
)


def mode(a, domain="ct"):
    return RationalMatrix.from_scalar(RationalScalar([1.0], [a, 1.0]), domain)


def two_by_two():
    # [[1/(s+1), 1/(s+2)], [1/(s+2), s/(s+3)]]
    return RationalMatrix([
        [RationalScalar([1.0], [1.0, 1.0]), RationalScalar([1.0], [2.0, 1.0])],
        [RationalScalar([1.0], [2.0, 1.0]), RationalScalar([0.0, 1.0], [3.0, 1.0])],
    ], "ct")


def test_eval_matches_entries():
    R = two_by_two()
    s = 0.3 + 0.7j
    V = rm_eval(R, s)
    assert V[0, 0] == pytest.approx(1.0 / (s + 1.0))
    assert V[1, 1] == pytest.approx(s / (s + 3.0))


def test_eval_near_pole_raises():
    R = two_by_two()
    with pytest.raises(PoleProximity):
        rm_eval(R, -1.0)


def test_eval_many_masks_poles():
    R = two_by_two()
    pts = np.array([0.5, -1.0, 1.0 + 1.0j])
    vals, ok = rm_eval_many(R, pts)
    assert ok.tolist() == [True, False, True]
    assert vals[0][0, 0] == pytest.approx(1.0 / 1.5)


def test_poles_with_multiplicity():
    g = RationalScalar([1.0], [1.0, 1.0]) * RationalScalar([1.0], [1.0, 1.0])
    R = RationalMatrix([[g]], "ct")
    ps = rm_poles(R)
    assert len(ps) == 1
    p, m = ps[0]
    assert p == pytest.approx(-1.0)
    assert m == 2


def test_residues_simple_pole():
    # 2/(s + 1): residue at -1 is 2
    R = RationalMatrix([[RationalScalar([2.0], [1.0, 1.0])]], "ct")
    pd = rm_residues_at(R, -1.0)
    assert pd.residue_A1[0, 0] == pytest.approx(2.0)
    assert np.allclose(pd.quad_residue_A2, 0.0, atol=1e-10)


def test_residues_double_pole():
    # (3s + 5)/(s + 1)^2 = 3/(s+1) + 2/(s+1)^2
    num = [5.0, 3.0]
    den = [1.0, 2.0, 1.0]
    R = RationalMatrix([[RationalScalar(num, den)]], "ct")
    pd = rm_residues_at(R, -1.0)
    assert pd.residue_A1[0, 0] == pytest.approx(3.0)
    assert pd.quad_residue_A2[0, 0] == pytest.approx(2.0)


def test_residues_multiplicity_cap():
    R = RationalMatrix([[RationalScalar([1.0], [1.0, 3.0, 3.0, 1.0])]], "ct")
    with pytest.raises(MultiplicityTooHigh):
        rm_residues_at(R, -1.0)


def test_normalized_k0_ct():
    # 1/(s^2 + 4): K0 at 2j is 1/(2 * 2) = 0.25
    R = RationalMatrix([[RationalScalar([1.0], [4.0, 0.0, 1.0])]], "ct")
    pd = rm_residues_at(R, 2.0j)
    assert pd.normalized_K0[0, 0] == pytest.approx(0.25)


def test_infinity_expansion():
    # s + 2 + 1/(s + 1)
    e = RationalScalar([0.0, 1.0]) + RationalScalar([2.0]) + RationalScalar([1.0], [1.0, 1.0])
    R = RationalMatrix([[e]], "ct")
    ix = rm_infinity_expansion(R)
    assert ix.polynomial_degree == 1
    assert ix.poly_coeffs[0][0, 0] == pytest.approx(1.0)


def test_mobius_pointwise():
    R = two_by_two()
    M = rm_mobius(R, 1.0, -1.0, 1.0, 1.0)
    z = 2.0 + 0.5j
    assert np.allclose(rm_eval(M, z), rm_eval(R, (z - 1.0) / (z + 1.0)), atol=1e-10)


def test_cayley_round_trip():
    R = two_by_two()
    C = rm_cayley(R)
    assert C.domain == "dt"
    back = rm_cayley(C)
    assert back.domain == "ct"
    assert R.equals(back)


def test_cayley_maps_boundary_to_boundary():
    R = mode(1.0)
    C = rm_cayley(R)
    w = 0.7
    z = (1.0 + 1j * w) / (1.0 - 1j * w)
    assert abs(z) == pytest.approx(1.0)
    assert np.allclose(rm_eval(C, z), rm_eval(R, 1j * w), atol=1e-10)


def test_is_symmetric():
    assert rm_is_symmetric(two_by_two())
    A = RationalMatrix([
        [RationalScalar([1.0], [1.0, 1.0]), RationalScalar([1.0], [2.0, 1.0])],
        [RationalScalar([2.0], [2.0, 1.0]), RationalScalar([1.0], [3.0, 1.0])],
    ], "ct")
    assert not rm_is_symmetric(A)


def test_full_normal_rank():
    assert rm_full_normal_rank(two_by_two())
    g = RationalScalar([1.0], [1.0, 1.0])
    ones = RationalMatrix([[g, g], [g, g]], "ct")
    assert not rm_full_normal_rank(ones)


def test_matrix_arithmetic_pointwise():
    R = two_by_two()
    S = R + R
    P = R @ R
    z = 0.4 + 0.9j
    assert np.allclose(rm_eval(S, z), 2.0 * rm_eval(R, z), atol=1e-10)
    assert np.allclose(rm_eval(P, z), rm_eval(R, z) @ rm_eval(R, z), atol=1e-10)
    T = R.transpose()
    assert np.allclose(rm_eval(T, z), rm_eval(R, z).T, atol=1e-10)


def test_a_sharp_resonance_is_evaluated_up_to_its_pole():
    # 1/(s^2 + 0.2 s + 1e6) peaks at w = 1000 with half-width 0.1; scaled by sum_k |c_k| |x|^k (Horner's
    # rounding bound) |den| = 200 there is far from a pole, where max|c_k| max(1, |x|)^deg masked |w - 1000| <= 0.5
    den = [1e6, 0.2, 1.0]
    R = RationalMatrix([[RationalScalar([1.0], den), RationalScalar([1.0], [1.0, 1.0])],
                        [RationalScalar([2.0]), RationalScalar([1.0], den)]], "ct")
    w = 1000.0 + np.linspace(-0.6, 0.6, 121)
    vals, ok = rm_eval_many(R, 1j * w)
    assert ok.all()
    want = npp.polyval(1j * w, [1.0]) / npp.polyval(1j * w, den)
    np.testing.assert_array_equal(vals[:, 0, 0], want)
    np.testing.assert_array_equal(vals[:, 1, 1], want)
    # and the dip of 1/(s + 1) - 1e-5 s/(s^2 + 0.2 s + 1e6) that it gives the Hermitian part is seen
    g = RationalMatrix([[RationalScalar([1.0], [1.0, 1.0]) - RationalScalar([0.0, 1e-5], den)]], "ct")
    re = np.real(rm_eval_many(g, 1j * w)[0][:, 0, 0])
    assert re.min() == pytest.approx(1.0 / (1.0 + 1e6) - 1e-5 / 0.2, rel=1e-3)


def test_an_exact_pole_is_still_refused():
    R = RationalMatrix([[RationalScalar([1.0], [1e6, 0.2, 1.0])]], "ct")
    pole = np.roots([1.0, 0.2, 1e6])[0]
    with pytest.raises(PoleProximity):
        rm_eval(RationalMatrix([[RationalScalar([1.0], [-2.0, 1.0])]], "ct"), 2.0)
    with pytest.raises(PoleProximity):
        rm_eval(R, pole)
