"""Each denominator's roots are found once and each matrix's entry poles are clustered once.

A rational scalar keeps the denominator roots its reduction found; a rational
matrix clusters its entry poles once per root_cluster value; and the minimal
realization reads the matrix's own clusters and residues, D included.  These
tests check that the kept roots are exactly the roots that would be found
again, and that parsing, realizing, classifying and the NI-to-PR transforms do
not find them again.  A constant operand cancels nothing, so a sum or product
with one keeps the other operand's roots and leaves every corpus input as the
reducing construction builds it.
"""

import sys

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr import poly, realization, transforms
from nipr.cli import main
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, parse_document, save_document
from nipr.errors import CancellationFailure
from nipr.poly import RationalScalar, roots
from nipr.ratmat import RationalMatrix, rm_eval, rm_poles, rm_residues_at, rm_split_boundary
from nipr.realization import minimal_realization
from nipr.transforms import cssni_to_csspr, ct_ni_to_pr, dt_ni_to_pr

GENERATORS = corpus.GENERATORS


def reference(gen, m):
    return getattr(corpus, gen)(np.random.default_rng(0), m=m, nterms=3)


def parsed(G):
    """G as the CLI sees it: written to a document and parsed back."""
    return parse_document(jsonable(document_of(G)))


def record_calls(monkeypatch, name, owner=poly):
    """The first argument of every call of owner.name, through every nipr module that holds it."""
    orig = getattr(owner, name)
    seen = []

    def recorded(*args, **kwargs):
        seen.append(args[0])
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("nipr") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, recorded)
    return seen


def same_roots(r):
    """r.den_roots is bitwise roots(r.den), dtype included."""
    kept, found = r.den_roots, roots(r.den)
    return kept.dtype == found.dtype and np.array_equal(kept, found)


def entries(G):
    return [e for row in G.entries for e in row]


# ---------------------------------------------------------------------------
# the kept roots are the roots


@pytest.mark.parametrize("gen", GENERATORS)
def test_kept_roots_are_bitwise_the_roots_of_the_denominator(gen):
    for m in (1, 2, 3):
        for e in entries(reference(gen, m)) + entries(parsed(reference(gen, m))):
            assert same_roots(e)


def test_parse_keeps_the_roots_it_found(monkeypatch):
    G = parsed(reference("dt_ni", 2))
    seen = record_calls(monkeypatch, "roots")
    for e in entries(G):
        assert e.num_degree >= 1  # so the parse's reduction found the denominator's roots
        e.den_roots
    assert seen == []


def test_kept_roots_are_read_only():
    e = parsed(reference("ct_pr", 2)).entries[0][0]
    with pytest.raises(ValueError):
        e.den_roots[0] = 0.0


@pytest.mark.parametrize("num,den", [
    ([1.0, 1.0], np.polymul([1.0, 1.0], [1.0, 2.0])[::-1]),                        # (s+1)/((s+1)(s+2))
    (np.polymul([1.0, 1.0], [1.0, 3.0])[::-1],
     np.polymul(np.polymul([1.0, 1.0], [1.0, 2.0]), [2.0, 8.0])[::-1]),            # a zero survives
    ([0.0, 0.5, 1.0], [0.0, 0.0, 2.0, 3.0]),                                       # s(s + 0.5)/(s^2 (2 + 3s))
])
def test_kept_roots_after_a_cancellation(num, den):
    r = RationalScalar(num, den)
    assert r.den_degree < len(den) - 1  # something cancelled
    assert same_roots(r)


def test_kept_roots_of_arithmetic_results():
    G = parsed(reference("ct_mixed", 2))
    a, b = G.entries[0][0], G.entries[1][1]
    results = [a + b, a - b, a * b, a / b, -a, 2.0 + a, 2.0 - a, 2.0 * a, 2.0 / a, 2.5 * a, a + 2.5, -1e-3 - a,
               RationalScalar.constant(2.5), RationalScalar.zero(), a.derivative(), a - a.value_at_inf()]
    for r in results:
        assert same_roots(r)


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_strictly_proper_part_is_g_minus_its_value_at_infinity(gen, m):
    G = reference(gen, m)
    old = G - RationalMatrix.constant(G.value_at_inf(), G.domain)
    for e, o in zip(entries(G), entries(old)):
        part = e - e.value_at_inf()
        assert part.is_strictly_proper()
        assert part.equals(o)
        assert np.array_equal(part.den, e.den) or part.den_degree == 0
        assert same_roots(part)


def test_strictly_proper_part_of_a_constant_is_zero():
    e = RationalScalar([3.0, 6.0], [1.0, 2.0])  # reduces to the constant 3
    part = e - e.value_at_inf()
    assert part.num_degree < 0 and part.den_degree == 0


# ---------------------------------------------------------------------------
# a constant operand cancels nothing


def reducing_add(a, b):
    """a + b through the reducing construction, whatever the operands."""
    b = poly._coerce(b)
    return RationalScalar(npp.polyadd(npp.polymul(a.num, b.den), npp.polymul(b.num, a.den)),
                          npp.polymul(a.den, b.den))


def reducing_mul(a, b):
    b = poly._coerce(b)
    return RationalScalar(npp.polymul(a.num, b.num), npp.polymul(a.den, b.den))


def same_scalar(r, s):
    return r.num.tobytes() == s.num.tobytes() and r.den.tobytes() == s.den.tobytes()


SWEEP_POINTS = np.array([1.5j, 0.9 + 0.4j, -0.1 + 2.0j, 2.5, -0.3 + 1.7j])


@pytest.mark.parametrize("gen", GENERATORS)
def test_a_constant_operand_gives_the_reducing_construction_or_keeps_a_pole(gen):
    """e c, c e, e + c and c + e equal the reducing construction bitwise where it keeps every pole.

    Where it cancels one (a sum with c = 1e6, whose zero lands near a pole), the result keeps the pole
    and equals e(x) + c at the points within 1e-14 relative.
    """
    for seed in range(6):
        for m in (1, 2, 3):
            for e in entries(corpus.generated(gen, seed, m)[0]):
                at = e(SWEEP_POINTS)
                for c in (0.0, -0.0, 2.5, -1e-3, 3.0, e.value_at_inf(), 1e6):
                    # the coefficients of e c and c e are the same products, and those of e + c and c + e
                    # the same sums, so one reducing construction serves both orders
                    product, total = reducing_mul(e, c), reducing_add(e, c)
                    for got, want, value in ((e * c, product, c * at), (c * e, product, c * at),
                                             (e + c, total, at + c), (c + e, total, at + c)):
                        if want.den_degree == got.den_degree:
                            assert same_scalar(got, want)
                        else:
                            assert want.den_degree < got.den_degree == e.den_degree
                            assert np.all(np.abs(got(SWEEP_POINTS) - value) <= 1e-14 * np.abs(value))


@pytest.mark.parametrize("c", [0.0, -0.0])
def test_a_zero_constant_times_a_scalar_is_the_zero_scalar(c):
    a = parsed(reference("ct_mixed", 2)).entries[0][0]
    for r in (c * a, a * c, RationalScalar.constant(c) * a):
        assert same_scalar(r, RationalScalar.zero())


def test_a_quotient_by_a_constant_is_built_over_the_dividends_denominator_without_a_root(monkeypatch):
    a = parsed(reference("ct_mixed", 2)).entries[0][0]
    eigvals = np.linalg.eigvals
    solved = []

    def counted(A):
        solved.append(len(A) if np.ndim(A) == 3 else 1)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for c in (2.0, -1e-3, 3.0):
        q = a / c
        assert q.num.tobytes() == (a.num / c).tobytes() and q.den.tobytes() == a.den.tobytes()
        assert q.den_roots is a.den_roots
    assert solved == []  # the reducing construction eigensolved a numerator and a denominator for each
    with pytest.raises(ZeroDivisionError):
        a / 0.0
    assert same_scalar(RationalScalar.zero() / 2.0, RationalScalar.zero())


def test_building_a_corpus_matrix_eigensolves_only_its_sums_of_modes(monkeypatch):
    # a weight times a mode, and the feedthrough plus that product, are reduced without a root
    eigvals = np.linalg.eigvals
    solved = []

    def counted(A):
        solved.append(len(A) if np.ndim(A) == 3 else 1)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    corpus.ct_ni(np.random.default_rng(0), m=6, nterms=3)
    # one companion matrix per mode, and a numerator and a denominator for each of a cell's two sums of
    # weighted modes: 3 + 36 x 2 x 2 = 147 (291 when every constant product and sum was reduced)
    assert sum(solved) <= 150


@pytest.mark.parametrize("gen,kwargs", [(gen, {}) for gen in GENERATORS]
                         + [("ct_ni", {"resonant": True, "strictly_proper": False}), ("dt_ni", {"pole_at_one": True})])
def test_corpus_inputs_equal_the_reducing_construction(monkeypatch, gen, kwargs):
    """Weighted modes plus a feedthrough have the coefficient bytes of an all-reducing build: inputs stay fixed."""
    built = {(m, seed): getattr(corpus, gen)(np.random.default_rng(seed), m=m, nterms=3, **kwargs)
             for m in (1, 2, 3, 4) for seed in (0, 1, 2)}
    monkeypatch.setattr(RationalScalar, "__add__", reducing_add)
    monkeypatch.setattr(RationalScalar, "__mul__", reducing_mul)
    for (m, seed), G in built.items():
        H = getattr(corpus, gen)(np.random.default_rng(seed), m=m, nterms=3, **kwargs)
        assert all(same_scalar(e, h) for e, h in zip(entries(G), entries(H)))


# ---------------------------------------------------------------------------
# nothing found twice


@pytest.mark.parametrize("gen", GENERATORS)
def test_a_scalar_finds_its_degrees_once(monkeypatch, gen):
    scalars = entries(parsed(reference(gen, 3))) + entries(reference(gen, 3))
    scalars += [e - 1.0 for e in scalars] + [RationalScalar.zero(), RationalScalar([0.0, 0.0, 2.0], [1.0, 3.0])]
    found = [(poly.degree(e.num), poly.degree(e.den)) for e in scalars]
    seen = record_calls(monkeypatch, "degree")
    for _ in range(3):
        assert [(e.num_degree, e.den_degree) for e in scalars] == found
    # at most one degree() per scalar, of its num: den is monic, so its degree is its length - 1
    assert len({id(c) for c in seen}) == len(seen) and {id(c) for c in seen} <= {id(e.num) for e in scalars}


@pytest.mark.parametrize("gen", GENERATORS)
def test_realizing_a_parsed_document_finds_no_roots(monkeypatch, gen):
    G = parsed(reference(gen, 2))
    # D != 0 on all but the strictly proper ct_ni, so a strictly proper copy would be clustered again
    assert G.value_at_inf().any() == (gen != "ct_ni")
    seen = record_calls(monkeypatch, "roots")
    minimal_realization(G)
    assert seen == []
    # after the analysis's rm_poles, the realization reads G's clusters and re-tests no minimality
    H = parsed(reference(gen, 2))
    rm_poles(H)
    clustered = record_calls(monkeypatch, "cluster_roots")
    tested = record_calls(monkeypatch, "is_minimal", owner=realization)
    minimal_realization(H)
    assert clustered == [] and tested == []


def test_poles_and_residues_cluster_each_entry_once(monkeypatch):
    # once per distinct reduced denominator: the nine cells of this document share one
    G = parsed(reference("dt_mixed", 3))
    assert len({e.den.tobytes() for e in entries(G)}) == 1
    found = record_calls(monkeypatch, "roots")
    clustered = record_calls(monkeypatch, "cluster_roots")
    poles = rm_poles(G)
    for p, _ in poles:
        rm_residues_at(G, p)
    rm_split_boundary(G, [(1.0, [])])
    assert rm_poles(G) == poles
    assert found == [] and len(clustered) == 1
    # another root_cluster clusters again, and only then
    other = DEFAULT.with_overrides(root_cluster=1e-9)
    assert [p for p, _ in rm_poles(G, other)] == pytest.approx([p for p, _ in poles], abs=1e-9)
    rm_poles(G, other)
    assert len(clustered) == 2
    # entries over two distinct denominators: one call for each
    a, b = RationalScalar([1.0], [-0.5, 1.0]), RationalScalar([1.0], [0.3, 1.0])
    H = RationalMatrix([[a, b], [b, 2.0 * a]], "dt")
    for p, _ in rm_poles(H):
        rm_residues_at(H, p)
    rm_split_boundary(H, [(1.0, [])])
    assert len(clustered) == 4


def test_the_returned_pole_list_is_the_callers():
    G = parsed(reference("ct_ni", 2))
    poles = rm_poles(G)
    poles.clear()
    assert rm_poles(G)


@pytest.mark.parametrize("gen", ["ct_ni", "dt_ni", "ct_pr", "dt_pr"])
def test_classify_all_finds_each_denominators_roots_at_most_once(tmp_path, capsys, monkeypatch, gen):
    G = reference(gen, 2)
    path = tmp_path / f"{gen}.json"
    save_document(document_of(G, name=gen), path)
    dens = [e.den for e in entries(parsed(G)) if e.den_degree > 0]
    seen = record_calls(monkeypatch, "roots")
    main(["classify", str(path), "--class", "all", "--json"])
    capsys.readouterr()
    for den in dens:
        times = sum(1 for c in seen if np.shape(c) == den.shape and np.array_equal(c, den))
        sharing = sum(1 for d in dens if np.array_equal(d, den))
        assert times <= sharing  # each entry's once, by the parse


# ---------------------------------------------------------------------------
# the NI-to-PR transforms subtract a constant and multiply by a factor without finding roots


def old_ct_ni_to_pr(G):
    """s (G(s) - G(inf)) through rational arithmetic, which reduces every entry again."""
    return (G - RationalMatrix.constant(G.value_at_inf(), "ct")).scalar_mul(RationalScalar([0.0, 1.0]))


def old_dt_ni_to_pr(G):
    """(z - 1)/(z + 1) (G(z) - G(-1)) through rational arithmetic."""
    Gm1 = np.real(rm_eval(G, -1.0))
    return (G - RationalMatrix.constant(Gm1, "dt")).scalar_mul(RationalScalar([-1.0, 1.0], [1.0, 1.0]))


def with_integrator(G):
    """G plus 1/s or 1/(z - 1) times I: a pole that the factor s or z - 1 cancels."""
    pole = [0.0, 1.0] if G.domain == "ct" else [-1.0, 1.0]
    m = G.size
    return G + RationalMatrix([[RationalScalar([float(i == j)], pole) for j in range(m)] for i in range(m)],
                              G.domain)


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("integrator", [False, True])
def test_ni_to_pr_finds_no_roots_and_equals_the_rational_arithmetic(monkeypatch, gen, m, integrator):
    G = parsed(reference(gen, m))
    G = parsed(with_integrator(G)) if integrator else G
    ct = G.domain == "ct"
    want = old_ct_ni_to_pr(G) if ct else old_dt_ni_to_pr(G)
    seen = record_calls(monkeypatch, "roots")
    got = ct_ni_to_pr(G) if ct else dt_ni_to_pr(G)
    assert seen == []
    assert got.equals(want)
    # a denominator that lost the cancelled root finds its roots again on first use; the others kept theirs
    assert all(same_roots(e) for e in entries(got))


def test_cssni_to_csspr_finds_no_roots_before_classifying(monkeypatch):
    G = parsed(reference("ct_ni", 2))
    seen = record_calls(monkeypatch, "roots")
    monkeypatch.setattr(transforms, "_certified_epsilon", lambda R, make, *args: (make(0.25), 0.25))
    F, eps = cssni_to_csspr(G)
    assert seen == []
    core = G - RationalMatrix.constant(G.value_at_inf(), "ct")
    assert F.equals(core.scalar_mul(RationalScalar([eps, 1.0])))


def test_a_missing_cancellation_at_minus_one_is_reported():
    # G(z) - G(-1) vanishes at z = -1 by construction; a numerator without that root is refused
    with pytest.raises(CancellationFailure):
        RationalScalar([1.0], [-0.5, 1.0]).times_factors(pole=-1.0)
    assert RationalScalar([1.0, 1.0], [-0.5, 1.0]).times_factors(pole=-1.0).equals(RationalScalar([1.0], [-0.5, 1.0]))
