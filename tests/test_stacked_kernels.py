"""The strict-class kernels take stacked SVDs and share each realization's Cayley image, bit for bit.

Every norm test on the strict-class path is one ``np.linalg.svd`` of a stack
(``boundary.norm2``), which gives what ``np.linalg.norm(., 2)`` gives matrix by
matrix; the turn test and the Cayley image of a discrete-time realization are
made once (``realization.cayley_image``) and read by both crossing searches;
``series.matrix_taylor`` and ``matrix_laurent_inf`` give each entry's own
expansion.  Bytes are compared, so signed zeros count.  The references below
are the per-matrix code these kernels replace.
"""

import functools
import io

import numpy as np
import pytest

import corpus
from nipr import analysis, cli, realization
from nipr.analysis import PREMUL, analysis_of, hermitian_enough
from nipr.boundary import boundary_det_zeros, herm, norm2
from nipr.config import DEFAULT
from nipr.docio import document_of, parse_document, save_document
from nipr.errors import EigenvalueAtMinusOne
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace, cayley_image, cayley_ss, minimal_realization
from nipr.series import decay_condition, matrix_laurent_inf, matrix_taylor
from test_sign_source import CASES, lossy

GENERATORS = corpus.GENERATORS
S = RationalScalar
# entries of different degrees, constants among them, and zeros of either sign (0 / -1 is -0)
HAND_BUILT = [
    RationalMatrix([[S([1.0], [2.0, 1.0]), S([0.0, 3.0, -1.0], [1.0, 0.5, 2.0, 1.0])],
                    [-S([0.0], [1.0]), S([2.5], [1.0])]], "ct"),
    RationalMatrix([[S([0.0], [1.0, -1.0], reduce=False), S([0.0], [-2.0])],
                    [S([1.0, 0.5], [-1.0, 0.0, -3.0], reduce=False), S([0.0], [3.0, -1.0], reduce=False)]], "dt"),
    RationalMatrix([[S([0.3, 1.0], [0.25, -1.0, 1.0]), S([2.0], [0.5, 1.0]), S([-1.0, 0.0, 2.0], [0.1, 0.2, 0.3, 1.0])],
                    [S([2.0], [0.5, 1.0]), S([4.0]), S([0.0, 1.0], [0.2, 1.0])],
                    [S([1.0], [1.0]), S([0.0, 1.0], [0.2, 1.0]), S([1.0, 1.0], [0.5, 1.5, 1.0])]], "ct"),
]


@functools.cache
def systems():
    """Six generators x m = 1..6 x seeds 0..5, built and parsed, dt_lemma_corpus(7, 100) and HAND_BUILT."""
    out = []
    for gen in GENERATORS:
        for m in range(1, 7):
            for seed in range(6):
                G, doc = corpus.generated(gen, seed, m)
                out += [G, parse_document(doc)]
    return tuple(out + corpus.dt_lemma_corpus(7, 100) + HAND_BUILT)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# references: the per-matrix code


def reference_hermitian_enough(M, rel=1e-7):
    M = np.asarray(M)
    return np.linalg.norm(M - M.conj().T, 2) <= rel * (1.0 + np.linalg.norm(M, 2))


def reference_taylor(R, p, nterms):
    m = R.size
    out = [np.zeros((m, m), dtype=complex) for _ in range(nterms)]
    for i in range(m):
        for j in range(m):
            c = R.entries[i][j].taylor(p, nterms)
            for k in range(nterms):
                out[k][i, j] = c[k]
    return out


def reference_decay_coefficients(G, form):
    """The coefficient transforms of ``Analysis.decay`` and its tolerance, one matrix at a time."""
    sign = 1.0 if form == "pr" else -1.0
    m = G.size
    laurent = [np.zeros((m, m)) for _ in range(8)]
    for i in range(m):
        for j in range(m):
            c = G.entries[i][j].laurent_at_inf(8)
            for k in range(8):
                laurent[k][i, j] = c[k]
    laurent = [c + sign * (-1.0) ** k * c.T for k, c in enumerate(laurent)]
    coeffs = [np.real(herm(PREMUL[form] * (1j) ** -k * c.astype(complex))) for k, c in enumerate(laurent)]
    return coeffs, 1e-11 * (1.0 + max(np.linalg.norm(c, 2) for c in coeffs))


def reference_turn(ss):
    I = np.eye(ss.order)
    smallest = lambda M: np.linalg.svd(M, compute_uv=False)[-1]
    if ss.order and smallest(ss.A + I) < smallest(ss.A - I):
        return -1.0, StateSpace(-ss.A, ss.B, -ss.C, ss.D, ss.domain)
    return 1.0, ss


# ---------------------------------------------------------------------------
# bit parity


def test_stacked_norms_are_those_of_numpy_matrix_by_matrix():
    checked = 0
    for G in systems():
        ss = minimal_realization(G)
        I = np.eye(ss.order)
        stacks = [np.stack([ss.A + I, ss.A - I, ss.A]), np.stack([ss.D, ss.D - ss.D.T])]
        if G.domain == "ct" and G.is_proper():
            stacks.append(np.array(reference_decay_coefficients(G, "pr")[0]))
        for stack in stacks:
            assert same(norm2(stack), np.array([np.linalg.norm(M, 2) for M in stack]))
            assert same(norm2(stack[0]), np.linalg.norm(stack[0], 2))
        checked += 1
    assert checked == 2 * 216 + 100 + len(HAND_BUILT)


def test_the_norms_of_the_boundary_pieces_are_numpys():
    """The split-off boundary terms that ``boundary_det_zeros`` sums, on lossless sums and their controls."""
    checked = 0
    for domain in ("ct", "dt"):
        for form in ("pr", "ni"):
            for m in (1, 2, 3):
                for seed in range(4):
                    G = CASES[domain](seed, m, form)
                    for H in (G, lossy(G, form)):
                        pieces = np.array([M for _, _, M in analysis_of(H).shares(form)])
                        assert not len(pieces) or same(norm2(pieces), np.array([np.linalg.norm(M, 2) for M in pieces]))
                        checked += len(pieces)
    assert checked >= 2 * 2 * 3 * 4 * 3


def test_hermitian_enough_is_its_per_matrix_reference():
    rng = np.random.default_rng(24)
    matrices = []
    for G in systems():
        a = analysis_of(G)
        matrices += [pd.residue_A1 for p, _ in a.pole_split()[1] for pd in [a.residue(p)]]
        matrices += [G.value_at_inf(), 1j * G.value_at_inf()]
    for m in (1, 2, 3, 5):
        H = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        H = H + H.conj().T
        K = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        # skew parts on either side of the tolerance, and real matrices
        matrices += [H + eps * (K - K.conj().T) for eps in (0.0, 1e-9, 4e-8, 1e-7, 3e-7, 1e-3)] + [H.real, K.real]
    verdicts = [hermitian_enough(M) for M in matrices]
    assert verdicts == [reference_hermitian_enough(M) for M in matrices]
    assert len(set(map(bool, verdicts))) == 2 and len(matrices) > 500


def test_decay_reads_the_per_matrix_coefficients_and_tolerance(monkeypatch):
    seen = []

    def recorded(coeffs, order, tol):
        seen.append((np.array(coeffs), tol))
        return decay_condition(coeffs, order, tol)

    monkeypatch.setattr(analysis, "decay_condition", recorded)
    checked = 0
    for G in systems():
        if G.domain != "ct" or not G.is_proper():
            continue
        for form in ("pr", "ni"):
            seen.clear()
            conds, limits = analysis_of(G).decay(form)
            coeffs, tol = reference_decay_coefficients(G, form)
            (got, got_tol), = seen
            assert same(got, np.array(coeffs)) and same(got_tol, tol)
            ok, margin, worst = decay_condition(coeffs, 2 if form == "pr" else 3, tol)
            assert conds[0].passed == ok and same(limits["sigma0_margin"], margin)
            assert conds[0].witness["worst_order"] == worst
            checked += 1
    assert checked >= 2 * 216


def test_the_shared_cayley_image_is_cayley_ss_of_the_turned_realization():
    turns = set()
    for G in systems():
        if G.domain != "dt":
            continue
        ss = minimal_realization(G)
        turn, image = cayley_image(ss)
        want_turn, turned = reference_turn(ss)
        want = cayley_ss(turned)
        assert turn == want_turn and image.domain == want.domain == "ct"
        assert all(same(getattr(image, k), getattr(want, k)) for k in "ABCD")
        assert cayley_image(ss) is ss.cayley and ss.cayley[1] is image  # made once
        turns.add(turn)
    assert turns == {1.0, -1.0}


# improper entries over a constant den, with -0 coefficients: the series division must skip the den terms
# such an entry does not have, as a term 0 * out_{k-j} can turn a -0 into +0
IMPROPER = RationalMatrix([[S([-2.0, -0.0, -1.0]), S([1.0], [1.0, 1.0])],
                           [S([2.0, 0.0, 1.0], [-1.0]), S([-1.0, -0.0, 3.0], [2.0, 1.0])]], "ct")


@pytest.mark.parametrize("p", [0.0, 1.0, -1.0, 1j, 0.3 + 0.7j])
def test_the_stacked_taylor_expansion_is_each_entrys(p):
    checked = 0
    for G in systems() + (IMPROPER,):
        for nterms in (1, 2, 3):
            try:
                want = reference_taylor(G, p, nterms)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    matrix_taylor(G, p, nterms)
                continue
            got = matrix_taylor(G, p, nterms)
            assert len(got) == nterms and all(same(a, b) for a, b in zip(got, want))
            checked += 1
    assert checked >= 3 * 400


# proper entries of several den degrees, -0 coefficients among them, and a constant entry over a den of -1
SIGNED = RationalMatrix([[S([-0.0, -1.0, -0.0], [2.0, 0.5, -0.0, 1.0]), S([-3.0], [-1.0])],
                         [S([1.0, -0.0], [0.5, 1.0]), S([-0.0], [1.0, 1.0], reduce=False)]], "dt")


def test_the_stacked_laurent_expansion_is_each_entrys():
    for G in systems() + (SIGNED,):
        if G.is_proper():
            want = np.array([[e.laurent_at_inf(8) for e in row] for row in G.entries])
            assert same(matrix_laurent_inf(G, 8), np.ascontiguousarray(np.moveaxis(want, -1, 0)))


# ---------------------------------------------------------------------------
# work counts


def test_classify_all_builds_one_cayley_image_per_realization(tmp_path, monkeypatch):
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: inversions.append(M.shape) or inv(M))
    path = tmp_path / "g.json"
    save_document(document_of(corpus.dt_ni(np.random.default_rng(0), m=2, nterms=2)), path)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    assert cli.main(["classify", str(path), "--class", "all", "--json"]) == 1
    assert len(inversions) == 1  # the "pr" and "ni" crossing searches share one image; unshared, two


def test_the_turn_and_the_eigenvalue_test_take_one_svd(monkeypatch):
    ss = minimal_realization(corpus.dt_ni(np.random.default_rng(0), m=2, nterms=2))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: calls.append(np.shape(M)) or svd(M, **kw))
    cayley_image(ss)
    cayley_image(ss)
    assert calls == [(2, ss.order, ss.order)]


def ss_of(diag):
    n = len(diag)
    return StateSpace(np.diag(diag), np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), "dt")


@pytest.mark.parametrize("form", ["pr", "ni"])
def test_an_eigenvalue_at_minus_one_raises_through_the_shared_path(form):
    # eigenvalues at -1 and 1: turned or not, the realization has one at -1
    with pytest.raises(EigenvalueAtMinusOne, match="state matrix has an eigenvalue at -1"):
        boundary_det_zeros(ss_of([1.0, -1.0]), form)
    with pytest.raises(EigenvalueAtMinusOne, match="state matrix has an eigenvalue at -1"):
        cayley_ss(ss_of([1.0, -1.0]))
    # at -1 alone the realization is turned, and -A has no eigenvalue at -1
    ss = ss_of([-1.0, 0.5])
    boundary_det_zeros(ss, form, DEFAULT)
    assert ss.cayley[0] == -1.0
    with pytest.raises(EigenvalueAtMinusOne):
        cayley_ss(ss)


def test_the_image_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        StateSpace(np.eye(1), np.eye(1), np.eye(1), np.eye(1), "dt", None, None)
    assert realization.StateSpace(np.eye(1), np.eye(1), np.eye(1), np.eye(1), "dt").cayley is None
