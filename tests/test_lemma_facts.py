"""The lemma path decides each fact about a realization once.

Minimality is read from a ``minimal_realization`` built at the same rank_rel
and tested by its Krylov ranks otherwise; the precondition SVDs are stacked
without changing a bit; every command writes JSON through one serializer whose
output is that of ``json.dumps(payload, indent=2, default=jsonable)``, which is
``json.dumps(jsonable(payload), indent=2)`` where every dict key is a str.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

import corpus
from nipr import cli, docio, nilemma, realization, transforms
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, save_document
from nipr.errors import NonMinimalRealization
from nipr.nilemma import dni_lemma_check, dpr_lemma_check, dual_dni_lemma_check
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix, rm_poles
from nipr.realization import StateSpace, is_minimal, minimal_realization
from test_nilemma import lemma_cases

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHECKS = (dni_lemma_check, dual_dni_lemma_check, dpr_lemma_check)
GENERATORS = corpus.GENERATORS


def krylov_runs(monkeypatch):
    """(the realizations ``is_minimal`` is asked about, one entry per Krylov basis it builds), from every module."""
    asked, runs, inside = [], [], [False]
    basis, test = realization._reachable_basis, realization.is_minimal

    def counted(*args):
        if inside[0]:
            runs.append(args[0].shape)
        return basis(*args)

    def tested(*args, **kwargs):
        asked.append(args[0])
        inside[0] = True
        try:
            return test(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(realization, "_reachable_basis", counted)
    for mod in (realization, nilemma, transforms):
        monkeypatch.setattr(mod, "is_minimal", tested)
    return asked, runs


def unmarked(ss):
    """The same quadruple, built by hand, so carrying no minimality fact."""
    return StateSpace(ss.A, ss.B, ss.C, ss.D, ss.domain)


def non_minimal():
    # the hand-built realization of test_nilemma.py::test_preconditions: the second state is unreachable
    return StateSpace(np.diag([0.5, 0.5]), np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), np.zeros((1, 1)), "dt")


# ---------------------------------------------------------------------------
# minimality from construction


def realized_systems():
    """dt_lemma_corpus(7, 100), then six generators x m = 1..6 x seeds 0..5: 316 systems."""
    yield from corpus.dt_lemma_corpus(7, 100)
    for gen in GENERATORS:
        for m in range(1, 7):
            for seed in range(6):
                yield corpus.generated(gen, seed, m)[0]


def test_every_minimal_realization_passes_the_krylov_test():
    count = 0
    for G in realized_systems():
        ss = minimal_realization(G)
        assert ss.minimal_at == DEFAULT.rank_rel
        assert is_minimal(unmarked(ss)), document_of(G)
        count += 1
    assert count == 316


@pytest.mark.parametrize("form", ["primal", "dual", "pr"])
def test_the_lemma_reads_minimality_from_the_realization(tmp_path, monkeypatch, form):
    asked, runs = krylov_runs(monkeypatch)
    systems = list(corpus.dt_lemma_corpus(7, 6))
    # a double pole, so a staircase-reduced realization too
    systems.append(RationalMatrix([[RationalScalar([0.3, 1.0], np.polymul([1.0, -0.5], [1.0, -0.5])[::-1])]], "dt"))
    assert rm_poles(systems[-1]) == [(0.5, 2)]
    for k, G in enumerate(systems):
        path = tmp_path / f"g{k}.json"
        save_document(document_of(G), path)
        with monkeypatch.context() as mp:
            mp.setattr("sys.stdout", io.StringIO())
            assert cli.main(["lemma", str(path), "--form", form]) in (0, 1)
    assert len(asked) == len(systems) and runs == []


def test_a_hand_built_realization_is_tested(tmp_path, monkeypatch, capsys):
    _asked, runs = krylov_runs(monkeypatch)
    for check in CHECKS:
        with pytest.raises(NonMinimalRealization):
            check(non_minimal())
    assert len(runs) == 2 * len(CHECKS)  # a reachability and an observability basis each
    path = tmp_path / "nonmin.json"
    save_document(document_of(non_minimal()), path)
    for form in ("primal", "dual", "pr"):
        assert cli.main(["lemma", str(path), "--form", form]) == 2
        assert "minimal realization" in capsys.readouterr().err
    # a realization built by minimal_realization is tested too once built again by hand
    ss = minimal_realization(corpus.dt_lemma_corpus(7, 1)[0])
    runs.clear()
    dni_lemma_check(unmarked(ss))
    assert len(runs) == 2


def test_another_rank_rel_tests_again(monkeypatch):
    _asked, runs = krylov_runs(monkeypatch)
    G = corpus.dt_lemma_corpus(7, 1)[0]
    other = DEFAULT.with_overrides(rank_rel=10.0 * DEFAULT.rank_rel)
    ss = minimal_realization(G)
    assert realization.is_minimal(ss) and runs == []
    assert realization.is_minimal(ss, other) and len(runs) == 2
    runs.clear()
    assert realization.is_minimal(minimal_realization(G, other), other) and runs == []
    assert dni_lemma_check(ss, other).status == dni_lemma_check(ss).status
    assert len(runs) == 2


def test_the_fact_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        StateSpace(np.eye(1), np.eye(1), np.eye(1), np.eye(1), "dt", DEFAULT.rank_rel)
    assert StateSpace(np.eye(1), np.eye(1), np.eye(1), np.eye(1), "dt").minimal_at is None


# ---------------------------------------------------------------------------
# stacked precondition factorizations


def recorded_svds(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        seen.append((np.array(a), out))
        return out

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


def test_stacked_singular_values_are_those_of_one_matrix_calls(monkeypatch):
    checked = 0
    for _check, ss in lemma_cases():
        with monkeypatch.context() as mp:
            seen = recorded_svds(mp)
            nilemma._check_the2_preconditions(ss, DEFAULT)
        (sym, sym_sv), (shifted, shifted_sv) = seen  # minimality is read, so these are all the SVDs
        D, A, eye = ss.D, ss.A, np.eye(ss.order)
        assert np.array_equal(sym, np.stack([D - D.T, D]))
        assert sym_sv[0, 0] == np.linalg.norm(D - D.T, 2) and sym_sv[1, 0] == np.linalg.norm(D, 2)
        assert np.array_equal(shifted, np.stack([A + eye, A - eye]))
        assert np.array_equal(shifted_sv[0], np.linalg.svd(A - -1.0 * eye, compute_uv=False))
        assert np.array_equal(shifted_sv[1], np.linalg.svd(A - 1.0 * eye, compute_uv=False))
        checked += ss.order > 0
    assert checked >= 200


# ---------------------------------------------------------------------------
# one JSON writer


def emitted(monkeypatch):
    """Every payload cli._emit is given, and the writer itself."""
    payloads, emit = [], cli._emit

    def recorded(payload, out=None):
        payloads.append(payload)
        return emit(payload, out)

    monkeypatch.setattr(cli, "_emit", recorded)
    return payloads, emit


def written(emit, payload):
    out = io.StringIO()
    emit(payload, out)
    return out.getvalue()


def test_the_writer_converts_numpy_values_as_jsonable_did():
    payload = {
        "bools": [np.bool_(True), np.bool_(False), True],
        "ints": [np.int64(-3), np.int32(7), np.uint8(200), 5],
        "floats": [np.float64(0.1), np.float32(1.5), 1e-300, -0.0, np.float64(np.nan), np.inf, -np.inf],
        "complex": [np.complex128(1 + 2j), 3 - 0j, np.complex64(-1j), complex(np.nan, 1.0)],
        "arrays": {"real": np.arange(6.0).reshape(2, 3), "int": np.arange(3), "bool": np.array([True, False]),
                   "complex": np.array([[1 + 1j, 2.0], [np.inf, -1j]]), "empty": np.zeros((0, 2))},
        "tuple": (np.float64(2.5), (np.int64(1), None)),
        "nested": [{"x": np.array([np.nan])}, "text", None],
    }
    assert written(cli._emit, payload) == json.dumps(jsonable(payload), indent=2) + "\n"
    # what json itself converts, and json's conversion of keys: the bytes of json.dumps with jsonable as its hook
    payloads = [
        {True: 1, False: [], None: {}, 3: (), -2.5: "x", 1e300: 0, float("nan"): 1, float("inf"): -np.inf, "k": 2},
        {np.float64(0.25): np.int8(-4), 7: np.uint64(2 ** 63), "s": np.str_("numpy text")},
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308, 2 ** 70, -(2 ** 70)],
        [np.float16(0.1), np.float32(-2.5), np.longdouble(0.5), np.int16(3), np.bool_(False), np.complex64(2 + 0j)],
        ((1, (2.0, ())), [], {}, [[]], [{}], {"e": [[], {}]}, ("t",)),
        {"ünïcødé ✓": "naïve – “quoted” \\ \" \n \t \u0000 \U0001f600", "": "", "\x7f": ["ß"]},
        {"arrays": [np.arange(4, dtype=np.int32), np.array([True]), np.zeros((2, 0)), np.array([1.5, np.nan]),
                    np.array([[1 + 1j, -0.0]]), np.array(["a", "b"]), np.float64(np.inf)]},
        [], {}, "top", 1.5, None, np.float64(-np.inf), np.int64(-9), np.array(3.0),
    ]
    for payload in payloads:
        assert written(cli._emit, payload) == json.dumps(payload, indent=2, default=jsonable) + "\n"
    for bad, error in (({(1, 2): 3}, TypeError), ({np.int64(1): 3}, TypeError), ({1, 2}, ValueError)):
        for write in (lambda x: json.dumps(x, indent=2, default=jsonable), lambda x: written(cli._emit, x)):
            with pytest.raises(error):
                write(bad)



def test_jsonable_gives_a_real_arrays_list_without_recursing(monkeypatch):
    calls = []
    convert = docio.jsonable
    monkeypatch.setattr(docio, "jsonable", lambda x: calls.append(1) or convert(x))
    for array in (np.arange(6.0).reshape(2, 3), np.arange(3, dtype=np.uint8), np.array([[True], [False]])):
        calls.clear()
        assert docio.jsonable(array) == array.tolist() and len(calls) == 1
        assert type(docio.jsonable(array.ravel())[0]) is type(array.item(0))
    calls.clear()
    assert docio.jsonable(np.array([1j, 2.0])) == [{"re": 0.0, "im": 1.0}, 2.0] and len(calls) == 4


def test_save_document_writes_what_json_dump_wrote(tmp_path):
    docs = [document_of(G, name=f"g{k}", meta={"eps": np.float64(1e-3), "n": np.int64(k), "tag": "ü"})
            for k, G in enumerate(corpus.dt_lemma_corpus(7, 3) + [corpus.ct_ni(np.random.default_rng(1), m=3)])]
    docs.append(document_of(minimal_realization(corpus.dt_pr(np.random.default_rng(2), m=2)), name="ss"))
    for doc in docs:
        path = tmp_path / "doc.json"
        save_document(doc, path)
        assert path.read_text() == json.dumps(doc, indent=2, default=jsonable) + "\n"


def test_every_op_writes_what_jsonable_wrote(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    argvs = []
    for op in workloads.build_lemma(1, tmp_path):
        argvs += [op.argv[:3] + [form] for form in ("primal", "dual", "pr")]
    argvs += [op.argv for op in workloads.build_classify_all(1, tmp_path)]
    payloads, emit = emitted(monkeypatch)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    for argv in argvs:
        cli.main(argv)
    assert len(payloads) >= 300
    for payload in payloads:
        assert written(emit, payload) == json.dumps(jsonable(payload), indent=2) + "\n"


def test_classify_writes_its_reports_through_the_one_writer(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.json"
    save_document(document_of(corpus.dt_ni(np.random.default_rng(0), m=2, nterms=2)), path)
    payloads, _emit = emitted(monkeypatch)
    assert cli.main(["classify", str(path), "--class", "dni", "--json"]) == 0
    out = tmp_path / "reports.json"
    assert cli.main(["classify", str(path), "--class", "dni", "--json", "--out", str(out)]) == 0
    assert len(payloads) == 2
    assert out.read_text() == capsys.readouterr().out == json.dumps(jsonable(payloads[0]), indent=2) + "\n"
