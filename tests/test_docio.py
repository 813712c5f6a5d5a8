import numpy as np
import pytest

import corpus
from corpus import dt_ni
from nipr import poly
from nipr.cli import CLASSIFIERS, _report_dict
from nipr.docio import _cell, document_of, jsonable, load_document, parse_document, save_document
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace, minimal_realization


def test_tfm_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    G = dt_ni(rng, m=2, nterms=2)
    path = tmp_path / "g.json"
    save_document(document_of(G, name="g"), path)
    doc = load_document(path)
    assert doc["name"] == "g"
    assert doc["form"] == "tfm"
    back = parse_document(doc)
    assert isinstance(back, RationalMatrix)
    assert G.equals(back)


def test_ss_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    ss = minimal_realization(dt_ni(rng, m=2, nterms=2))
    path = tmp_path / "ss.json"
    save_document(document_of(ss, name="ss", meta={"k": "v"}), path)
    doc = load_document(path)
    assert doc["meta"] == {"k": "v"}
    back = parse_document(doc)
    assert isinstance(back, StateSpace)
    for f in "ABCD":
        assert np.allclose(getattr(ss, f), getattr(back, f))
    assert back.domain == ss.domain


def test_jsonable_conversions():
    out = jsonable({
        "b": np.bool_(True),
        "f": np.float64(1.5),
        "i": np.int64(3),
        "c": 1.0 + 2.0j,
        "cr": 4.0 + 0.0j,
        "arr": np.eye(2),
    })
    assert out["b"] is True
    assert out["f"] == 1.5 and isinstance(out["f"], float)
    assert out["i"] == 3 and isinstance(out["i"], int)
    assert out["c"] == {"re": 1.0, "im": 2.0}
    assert out["cr"] == 4.0
    assert out["arr"] == [[1.0, 0.0], [0.0, 1.0]]


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  broken\n}\n')
    with pytest.raises(ValueError, match=r"line 2"):
        load_document(path)


MALFORMED_CELLS = {
    "zero-den": {"num": [1.0], "den": [0.0]},
    "no-den": {"num": [1.0]},
    "nan": {"num": [float("nan")], "den": [1.0, 1.0]},
    "inf": {"num": [1.0], "den": [float("inf"), 1.0]},
    "not-a-cell": None,
    "not-numbers": {"num": ["a"], "den": [1.0]},
    "nested": {"num": [[1.0]], "den": [1.0]},
}


def test_bad_domain_and_form():
    with pytest.raises(ValueError, match="domain"):
        parse_document({"domain": "laplace", "form": "tfm"})
    with pytest.raises(ValueError, match="form"):
        parse_document({"domain": "ct", "form": "nope"})
    for entries in (None, 3, [1.0], [[{"num": [1.0], "den": [1.0]}, 2.0]]):
        with pytest.raises(ValueError, match="entr"):
            parse_document({"domain": "ct", "form": "tfm", "entries": entries})
    ss = {"domain": "dt", "form": "ss", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
    for key, value, match in (("B", None, "needs 'B'"), ("A", [[float("nan")]], "finite"),
                              ("D", [[float("inf")]], "finite"), ("C", [["a"]], "convert")):
        bad = dict(ss, **{key: value}) if value is not None else {k: v for k, v in ss.items() if k != key}
        with pytest.raises(ValueError, match=match):
            parse_document(bad)
    good = {"num": [1.0], "den": [1.0, 1.0]}
    for cell in MALFORMED_CELLS.values():
        with pytest.raises(ValueError, match=r"^entry \(1, 0\): "):
            parse_document({"domain": "dt", "form": "tfm", "entries": [[good, good], [cell, good]]})


def test_serialize_rejects_other_types():
    with pytest.raises(TypeError):
        document_of(object())


def test_static_ss_document():
    ss = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                    np.array([[2.0]]), "dt")
    doc = document_of(ss)
    back = parse_document(doc)
    assert back.order == 0
    assert back.D[0, 0] == 2.0


def test_number_round_trip_is_lossless(tmp_path):
    g = RationalMatrix([[RationalScalar([1.0 / 3.0, np.pi], [1e-17, 1.0])]], "ct")
    path = tmp_path / "num.json"
    save_document(document_of(g), path)
    back = parse_document(load_document(path))
    assert back.entries[0][0].num[1] == np.pi
    assert back.entries[0][0].den[0] == 1e-17


def counted_eigvals(monkeypatch):
    """The shape of every np.linalg.eigvals argument."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("gen", ["ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed"])
def test_a_document_is_rooted_with_one_eigensolve_per_degree(monkeypatch, gen):
    G = getattr(corpus, gen)(np.random.default_rng(6), m=6, nterms=3)
    doc = jsonable(document_of(G))
    cells = [cell for row in doc["entries"] for cell in row]
    degrees = {np.trim_zeros(np.asarray(c[key])).size - 1 for c in cells for key in ("num", "den")} - {0}
    assert len(degrees) == (2 if gen == "ct_ni" else 1)  # 36 entries, 72 polynomials
    calls = counted_eigvals(monkeypatch)
    rooted = []
    real_roots = poly.roots
    monkeypatch.setattr(poly, "roots", lambda c: rooted.append(c) or real_roots(c))
    back = parse_document(doc)
    assert len(calls) == len(degrees) and all(len(shape) == 3 for shape in calls)
    assert rooted == []
    assert back.equals(G)


BAD_CELLS = [{"num": [1.0], "den": [0.0, -0.0]}, {"num": [1.0, float("nan")], "den": [1.0, 1.0]},
             {"den": [1.0, 1.0]}, {"num": [1.0], "den": [1e300, 1e-10]}, {"num": [1e300, 1.0], "den": [1.0, 1e-10]},
             None]
# where the bad cell goes: below the diagonal, above it, or both, twins equal to each other
BAD_PLACES = {"": [(2, 1)], "-above": [(1, 2)], "-twins": [(1, 2), (2, 1)]}


@pytest.mark.parametrize("bad, where", [(bad, where) for bad in BAD_CELLS for where in BAD_PLACES.values()],
                         ids=[f"bad{k}{place}" for k in range(len(BAD_CELLS)) for place in BAD_PLACES])
def test_a_bad_cell_is_named_before_any_root_is_found(monkeypatch, bad, where):
    # the first bad cell in row-major order is named
    good = {"num": [1.0, 2.0], "den": [1.0, 3.0, 1.0]}
    entries = [[good] * 3 for _ in range(3)]
    for i, j in where:
        entries[i][j] = bad
    calls = counted_eigvals(monkeypatch)
    with pytest.raises(ValueError, match=rf"^entry \({where[0][0]}, {where[0][1]}\): "):
        parse_document({"domain": "ct", "form": "tfm", "entries": entries})
    assert calls == []


def parsed_cell_by_cell(doc):
    """A tfm document parsed with every cell rooted and reduced on its own, twins included."""
    entries = doc["entries"]
    cells = [_cell(cell, i, j) for i, row in enumerate(entries) for j, cell in enumerate(row)]
    scalars = iter(poly.reduced_scalars(cells))
    return RationalMatrix([[next(scalars) for _ in row] for row in entries], doc["domain"])


@pytest.mark.parametrize("gen", ["ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed"])
def test_a_symmetric_document_parses_each_twin_pair_once(gen):
    for m in range(1, 7):
        doc = jsonable(document_of(getattr(corpus, gen)(np.random.default_rng(m), m=m, nterms=3)))
        G = parse_document(doc)
        assert all(G.entries[i][j] is G.entries[j][i] for i in range(m) for j in range(i))
        assert len({id(e) for row in G.entries for e in row}) == m * (m + 1) // 2
        assert G.equals(parsed_cell_by_cell(doc))


def test_an_asymmetric_twin_pair_is_not_shared():
    a = {"num": [1.0], "den": [1.0, 1.0]}
    b = {"num": [1.0], "den": [2.0, 1.0]}
    c = {"num": [2.0], "den": [2.0, 1.0]}
    G = parse_document({"domain": "ct", "form": "tfm", "entries": [[a, b], [c, a]]})
    assert G.entries[0][1] is not G.entries[1][0]
    assert list(G.entries[0][1].num) == [1.0] and list(G.entries[1][0].num) == [2.0]
    # == on cells holding numpy arrays has no single truth value: such twins are parsed each on its own
    arr = {"num": np.array([1.0, 2.0]), "den": np.array([2.0, 3.0, 1.0])}
    G = parse_document({"domain": "ct", "form": "tfm", "entries": [[a, arr], [{k: v.copy() for k, v in arr.items()}, a]]})
    assert G.entries[0][1] is not G.entries[1][0] and G.entries[0][1].equals(G.entries[1][0])


@pytest.mark.parametrize("domain, upper, lower", [
    ("ct", {"num": [0.0, 0.5], "den": [2.0, 3.0, 1.0]}, {"num": [-0.0, 0.5], "den": [2.0, 3.0, 1.0]}),
    ("ct", {"num": [1.0], "den": [0.0, 1.0]}, {"num": [1.0], "den": [-0.0, 1.0]}),
    ("dt", {"num": [0.0, 0.5], "den": [-0.0, -0.5, 1.0]}, {"num": [-0.0, 0.5], "den": [0.0, -0.5, 1.0]}),
])
def test_twins_that_differ_in_the_sign_of_a_zero_classify_as_parsed_cell_by_cell(domain, upper, lower):
    diag = {"num": [1.0], "den": [0.5, 1.0]} if domain == "ct" else {"num": [1.0], "den": [-0.5, 1.0]}
    doc = {"domain": domain, "form": "tfm", "entries": [[diag, upper], [lower, diag]]}
    G = parse_document(doc)
    assert G.entries[1][0] is G.entries[0][1]  # 0.0 == -0.0, so the twin is shared
    fresh = parsed_cell_by_cell(doc)
    assert fresh.entries[1][0] is not fresh.entries[0][1]
    for cls, (dom, fn) in CLASSIFIERS.items():
        if dom == domain:
            assert jsonable(_report_dict(fn(G))) == jsonable(_report_dict(fn(fresh))), cls

