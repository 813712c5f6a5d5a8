"""A tfm document is read and realized in per-document passes, bit for bit as cell by cell and pole by pole.

``poly.reduced_scalars`` roots each distinct denominator once and decides
cancellation with one array ``poly.close`` test per denominator, so only a
cell with a close (numerator root, denominator root) pair runs ``_reduce``'s
pairing loop; ``ratmat.rm_residues_at`` takes several poles and evaluates the
numerators at all of them in one pass; ``realization._gilbert_blocks`` takes
all its residues from one such call and its factors from one stacked SVD per
dtype.  The references below are the per-cell and per-pole code these passes
replace.  Bytes are compared, so signed zeros count.
"""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr import poly, realization
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, parse_document
from nipr.errors import MultiplicityTooHigh, PoleProximity
from nipr.poly import RationalScalar, close, poly_from_roots_real, reduced_scalars, roots_many, trim
from nipr.ratmat import RationalMatrix, rm_poles, rm_residues_at
from nipr.realization import block_diag, minimal_realization
from test_matrix_poles import HAND_BUILT

TOL = DEFAULT.root_cluster


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def documents():
    """The six generators x m = 1..6 x seeds 0..5 and dt_lemma_corpus(7, 100), as documents."""
    out = [corpus.generated(gen, seed, m)[1] for gen in corpus.GENERATORS for m in range(1, 7) for seed in range(6)]
    return out + [jsonable(document_of(G)) for G in corpus.dt_lemma_corpus(7, 100)]


# ---------------------------------------------------------------------------
# close


def test_close_over_arrays_is_the_scalar_rule_elementwise():
    rng = np.random.default_rng(26)
    b = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    b *= 10.0 ** rng.uniform(-3, 3, b.size)
    # a at about the edge, tol (1 + |b|) from b, in a random direction
    a = b + TOL * (1.0 + abs(b)) * (1.0 + rng.uniform(-1e-9, 1e-9, b.size)) * np.exp(2j * np.pi * rng.uniform(size=b.size))
    got = close(a, b, TOL)
    assert got.tolist() == [close(x, y, TOL) for x, y in zip(a.tolist(), b.tolist())]
    assert 0 < got.sum() < b.size
    assert (np.abs(b) != np.hypot(b.real, b.imag)).any()  # np.abs would not be the scalar abs here
    # a scalar against an array, as times_factors asks, and a real array against a complex point
    assert close(b[0], b[:5], TOL).tolist() == [close(complex(b[0]), y, TOL) for y in b[:5].tolist()]
    assert close(np.array([1.0, 1.0 + 1e-7]), 1.0 + 0j, TOL).tolist() == [True, True]


# ---------------------------------------------------------------------------
# reduced_scalars


def reference_reduce(num, den):
    """``poly._reduce``'s pairing loop, run on every cell, with no screen before it."""
    num, den = trim(np.asarray(num, dtype=float)), trim(np.asarray(den, dtype=float))
    if not num.any():
        return np.zeros(1), np.ones(1), None
    num_roots, den_roots = roots_many(poly._to_root(num, den))
    rd, keep_n, cancelled = den_roots.tolist(), [], 0
    for r in num_roots.tolist():
        hit = next((k for k, q in enumerate(rd) if close(r, q, TOL)), None)
        if hit is None:
            keep_n.append(r)
        else:
            rd.pop(hit)
            cancelled += 1
    if cancelled == 0:
        return num, den, den_roots
    return poly_from_roots_real(keep_n, TOL, lead=num[-1]), poly_from_roots_real(rd, TOL, lead=den[-1]), None


def assert_cells_are_the_reference(pairs):
    """reduced_scalars(pairs) is what one RationalScalar per cell and the reference loop give; returns the
    number of cells that cancel."""
    cancelled = 0
    for got, (n, d) in zip(reduced_scalars(pairs), pairs):
        one = RationalScalar(n, d)
        num, den, den_roots = reference_reduce(n, d)
        lead, kept = den[-1], den_roots is not None and den.size > 1
        for s in (got, one):
            assert same(s.num, num / lead) and same(s.den, den / lead)
            assert (s._den_roots is not None) == kept or den.size == 1
            assert not kept or same(s._den_roots, den_roots)
        assert same(got.den_roots, one.den_roots)
        cancelled += den_roots is None and bool(n.any() if isinstance(n, np.ndarray) else any(n))
    return cancelled


def cells_of(doc):
    return [(np.asarray(c["num"], dtype=float), np.asarray(c["den"], dtype=float)) for row in doc["entries"] for c in row]


def test_the_corpus_documents_reduce_as_one_cell_at_a_time():
    checked = 0
    for doc in documents():
        assert_cells_are_the_reference(cells_of(doc))
        checked += 1
    assert checked == 216 + 100


def poly_of(*roots):
    return np.real(npp.polyfromroots(roots))


def cancelling_cells():
    """Cells that do cancel, next to cells that do not, over several denominators in one document."""
    den = poly_of(-1.0, -2.0, -3.0)
    edge = TOL * (1.0 + 2.0)  # a numerator root this far from the denominator root -2 is close to it
    cells = [
        (poly_of(-2.0) * 3.0, den),                          # an exact common factor
        (poly_of(-1.0, -3.0), den),                          # two of them
        ([1.0, 0.5], den), ([2.0], den), ([0.0], den),        # none, a constant, zero
        (poly_of(-1.0), poly_of(-1.0, -1.0)),                # a double root in the denominator, one cancels
        (poly_of(-1.0, -1.0), poly_of(-1.0, -1.0, -4.0)),    # and both
        (poly_of(-1.0, -1.0), poly_of(-1.0, -4.0)),          # a double numerator root, one cancels
        (poly_of(-0.2 + 2j, -0.2 - 2j), poly_of(-0.2 + 2j, -0.2 - 2j, -5.0)),  # a complex pair
        ([1.0, 2.0, 1.0], [4.0]),                           # over a constant
    ]
    # numerator roots about the root_cluster edge of -2, on both sides of it
    for f in (0.5, 0.999, 0.9999999, 1.0, 1.0000001, 1.001, 2.0):
        cells.append((poly_of(-2.0 + f * edge, -7.0), den))
        cells.append((poly_of(-2.0 - f * edge), poly_of(-2.0, -0.5)))
    return [(np.asarray(n, dtype=float), np.asarray(d, dtype=float)) for n, d in cells]


def test_cancelling_cells_reduce_as_one_cell_at_a_time():
    cells = cancelling_cells()
    assert assert_cells_are_the_reference(cells) >= 10
    for cell in cells:  # one cell alone gives what it gives among the others
        assert assert_cells_are_the_reference([cell]) in (0, 1)


def test_the_edge_cells_cancel_on_both_sides_of_the_edge():
    cells = cancelling_cells()[-14:]
    got = [s.den.size < d.size for s, (_, d) in zip(reduced_scalars(cells), cells)]
    assert any(got) and not all(got)


def count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_cell_with_no_root_on_one_side_takes_no_close_test(monkeypatch):
    closes = count_calls(monkeypatch, poly, "close")
    cells = [RationalScalar([2.0], [1.0, 3.0, 1.0]), RationalScalar([1.0, 1.0], [4.0]), RationalScalar([3.0])]
    assert closes == [] and [c.den.size for c in cells] == [3, 1, 1]
    assert same(cells[1].num, np.array([0.25, 0.25]))


@pytest.mark.parametrize("gen", corpus.GENERATORS)
def test_an_m6_document_runs_no_pairing_loop_and_its_realization_two_svds(monkeypatch, gen):
    doc = corpus.generated(gen, 0, 6)[1]
    reduced, closes = count_calls(monkeypatch, poly, "_reduce"), count_calls(monkeypatch, poly, "close")
    G = parse_document(doc)
    dens = {e.den.tobytes() for row in G.entries for e in row}
    assert len(reduced) == 0 and len(closes) == len(dens)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    residues = count_calls(monkeypatch, realization, "rm_residues_at")
    minimal_realization(G)
    upper = [p for p, _ in rm_poles(G) if p.imag >= 0.0]
    assert len(svds) == len({p.imag == 0.0 for p in upper}) <= 2 < len(upper) and len(residues) == 1


# ---------------------------------------------------------------------------
# rm_residues_at with several poles


def assert_several_are_one_by_one(R, points):
    got = rm_residues_at(R, points)
    assert len(got) == len(points)
    for datum, p in zip(got, points):
        one = rm_residues_at(R, p)
        assert same(datum.location, one.location) and datum.multiplicity == one.multiplicity
        for name in ("residue_A1", "quad_residue_A2", "normalized_K0"):
            assert same(getattr(datum, name), getattr(one, name)), name


def test_several_poles_are_one_pole_at_a_time():
    checked = 0
    systems = [R for name, R in HAND_BUILT.items() if name != "all zero"]
    systems += [G for gen in corpus.GENERATORS for G in (corpus.generated(gen, 1, 4)[0],)]
    systems += [corpus.ct_ni(np.random.default_rng([seed, 3]), m=3, nterms=3, resonant=True) for seed in range(3)]
    systems += corpus.dt_lemma_corpus(7, 20)
    for R in systems:
        poles = [p for p, k in rm_poles(R) if k <= 2]
        try:
            assert_several_are_one_by_one(R, poles)
            assert_several_are_one_by_one(R, poles[::-1])
            assert_several_are_one_by_one(R, np.array(poles[:2]))
        except PoleProximity:  # a den with two clusters at a pole: checked below
            continue
        checked += 1
    assert checked >= len(systems) - 2
    assert rm_residues_at(HAND_BUILT["double"], []) == []
    assert any(k == 2 for p, k in rm_poles(HAND_BUILT["double"]))
    assert any(p.imag != 0 for p, _ in rm_poles(HAND_BUILT["complex"]))


def test_several_poles_raise_the_first_proximity_of_one_pole_at_a_time():
    # z/((z - e^{it})(z - e^{-it})), t = 1.5e-7: no residue of the entry is finite at its pole near 1
    t = 1.5e-7
    bad = RationalScalar([0.0, 1.0], [1.0, -2.0 * np.cos(t), 1.0])
    R = RationalMatrix([[bad, RationalScalar.zero()], [RationalScalar.zero(), RationalScalar([1.0], [-0.5, 1.0])]], "dt")
    near_one = next(p for p, _ in rm_poles(R) if abs(p - 1.0) < 1e-3)
    with pytest.raises(PoleProximity) as one:
        rm_residues_at(R, near_one)
    for points in ([0.5, near_one], [near_one, 0.5]):
        with pytest.raises(PoleProximity) as several:
            rm_residues_at(R, points)
        assert str(several.value) == str(one.value)
    with pytest.raises(ValueError, match="is not a pole"):
        rm_residues_at(R, [0.5, 3.0])
    triple = RationalMatrix([[RationalScalar([1.0], np.polymul(np.polymul([1.0, -0.5], [1.0, -0.5]), [1.0, -0.5])[::-1])]],
                            "dt")
    with pytest.raises(MultiplicityTooHigh) as one:
        rm_residues_at(triple, 0.5 + 1e-9)
    with pytest.raises(MultiplicityTooHigh) as several:
        rm_residues_at(triple, [0.5 + 1e-9])
    assert str(several.value) == str(one.value) and "multiplicity 3" in str(one.value)


@pytest.mark.parametrize("gen", corpus.GENERATORS)
def test_a_pole_is_read_as_its_own_nearest_pole_without_a_close_test(monkeypatch, gen):
    G = parse_document(corpus.generated(gen, 2, 3)[1])
    poles = [p for p, k in rm_poles(G) if k <= 2]
    locs = [p for p, _ in rm_poles(G)]
    assert all(poly.nearest(p, locs, TOL) == p for p in poles)
    closes = count_calls(monkeypatch, poly, "close")
    data = rm_residues_at(G, poles)
    assert closes == []
    for datum, p in zip(data, poles):  # a query a little off the pole reads the same datum, through nearest
        off = rm_residues_at(G, p + 0.25 * TOL * (1.0 + abs(p)))
        assert same(off.location, datum.location) and same(off.residue_A1, datum.residue_A1)
    assert len(closes) >= len(poles)


# ---------------------------------------------------------------------------
# _gilbert_blocks


def reference_gilbert_blocks(R, pole_list, cfg):
    """The per-pole loop: one residue call and one SVD per pole on or above the real axis."""
    m = R.size
    Ab, Bb, Cb = [], [np.zeros((0, m))], [np.zeros((m, 0))]
    for p, _ in pole_list:
        if p.imag < 0.0:
            continue
        res = rm_residues_at(R, p, cfg).residue_A1
        real = p.imag == 0.0
        U, s, Vh = np.linalg.svd(np.real(res) if real else res)
        r = int(np.sum(s > cfg.rank_rel * max(s[0], 1e-300)))
        sq = np.sqrt(s[:r])
        B1, C1 = sq[:, None] * Vh[:r, :], U[:, :r] * sq[None, :]
        if real:
            Ab.append(p.real * np.eye(r))
            Bb.append(B1)
            Cb.append(C1)
        else:
            Ab.append(np.kron([[p.real, -p.imag], [p.imag, p.real]], np.eye(r)))
            Bb.append(np.sqrt(2.0) * np.vstack([np.real(B1), np.imag(B1)]))
            Cb.append(np.sqrt(2.0) * np.hstack([np.real(C1), -np.imag(C1)]))
    return block_diag(*Ab), np.vstack(Bb), np.hstack(Cb)


def test_gilbert_blocks_are_the_per_pole_loop():
    systems = [parse_document(doc) for doc in documents()]
    systems += [corpus.generated(gen, seed, m)[0] for gen in corpus.GENERATORS for m in (2, 5) for seed in (0, 1)]
    systems += [corpus.ct_ni(np.random.default_rng([seed, 3]), m=3, nterms=3, resonant=True) for seed in range(3)]
    systems += list(HAND_BUILT.values())
    checked = complex_pairs = 0
    for R in systems:
        pole_list = rm_poles(R)
        if any(k > 1 for _, k in pole_list):
            continue
        got, want = realization._gilbert_blocks(R, pole_list, DEFAULT), reference_gilbert_blocks(R, pole_list, DEFAULT)
        assert all(same(g, w) for g, w in zip(got, want))
        checked += 1
        complex_pairs += any(p.imag != 0 for p, _ in pole_list)
    assert checked >= 316 and complex_pairs >= 3
