import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, parse_document
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
    return RationalMatrix([[RationalScalar([1.0], [a, 1.0])]], domain)


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
    assert len(ix.poly_coeffs) == 1
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


def subtracting_is_symmetric(R, rel=DEFAULT.coeff_rel):
    """rm_is_symmetric with every twin pair subtracted, as RationalScalar.equals does without its shortcut."""
    rel *= max(1.0, R.coeff_scale())
    for i in range(R.size):
        for j in range(i + 1, R.size):
            a, b = R.entries[i][j], R.entries[j][i]
            diff = a - b
            scale = max(a.scale(), b.scale(), 1.0)
            if not np.max(np.abs(diff.num)) <= rel * scale * max(1.0, np.max(np.abs(diff.den))):
                return False
    return True


def counted_adds(monkeypatch):
    """A list that gets one item per RationalScalar.__add__ call (subtraction included)."""
    calls = []
    add = RationalScalar.__add__
    monkeypatch.setattr(RationalScalar, "__add__", lambda self, other: calls.append(1) or add(self, other))
    return calls


def nudged(R, i, j, rel):
    """R with the largest numerator coefficient of entry (i, j) alone scaled by 1 + rel."""
    e = R.entries[i][j]
    num = e.num.copy()
    num[np.argmax(np.abs(num))] *= 1.0 + rel
    entries = [list(row) for row in R.entries]
    entries[i][j] = RationalScalar(num, e.den, reduce=False)
    return RationalMatrix(entries, R.domain)


@pytest.mark.parametrize("gen", ["ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed"])
def test_symmetry_by_identical_bytes_agrees_with_subtraction(monkeypatch, gen):
    for m in range(1, 5):
        for seed in range(3):
            G = getattr(corpus, gen)(np.random.default_rng(seed), m=m, nterms=3)
            assert all(G.entries[i][j] is not G.entries[j][i] for i in range(m) for j in range(i))
            for R, want, subtracts in [(G, True, False)] + [
                    (nudged(G, m - 1, 0, rel), rel < DEFAULT.coeff_rel, True) for rel in (1e-12, 1e-3) if m > 1]:
                assert subtracting_is_symmetric(R) == want
                adds = counted_adds(monkeypatch)
                assert rm_is_symmetric(R) == want
                assert bool(adds) == subtracts  # the twins' bytes are equal only before the nudge
                monkeypatch.undo()


def test_a_parsed_symmetric_document_is_symmetric_without_rational_arithmetic(monkeypatch):
    G = parse_document(jsonable(document_of(corpus.ct_ni(np.random.default_rng(0), m=6, nterms=3))))
    adds = counted_adds(monkeypatch)
    assert rm_is_symmetric(G)
    assert adds == []


def test_the_coefficient_scale_is_found_only_for_a_pair_that_is_not_shared(monkeypatch):
    calls = []
    scale = RationalMatrix.coeff_scale
    monkeypatch.setattr(RationalMatrix, "coeff_scale", lambda self: calls.append(self) or scale(self))
    G = corpus.ct_ni(np.random.default_rng(0), m=4, nterms=3)
    parsed = parse_document(jsonable(document_of(G)))
    assert rm_is_symmetric(parsed) and calls == []  # every twin is one shared scalar
    assert rm_is_symmetric(G) and calls == [G]  # once, however many pairs are compared
    assert not rm_is_symmetric(nudged(G, 3, 0, 1e-3)) and len(calls) == 2
