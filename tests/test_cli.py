import csv
import json

import numpy as np
import pytest

from corpus import dt_lemma_corpus
from nipr.cli import main
from nipr.docio import document_of, load_document, parse_document, save_document
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace


def write_tfm(tmp_path, name, grid, domain):
    path = tmp_path / f"{name}.json"
    R = RationalMatrix([[RationalScalar(*cell) for cell in row] for row in grid], domain)
    save_document(document_of(R, name=name), path)
    return str(path)


def test_classify_exit_codes(tmp_path):
    # (2s + 1)/(s + 1)^2 is C-NI but not C-SSNI
    f = write_tfm(tmp_path, "g", [[([1.0, 2.0], [1.0, 2.0, 1.0])]], "ct")
    assert main(["classify", f, "--class", "cni"]) == 0
    assert main(["classify", f, "--class", "cssni"]) == 1


def test_classify_json_report(tmp_path, capsys):
    f = write_tfm(tmp_path, "g", [[([1.0, 2.0], [1.0, 2.0, 1.0])]], "ct")
    code = main(["classify", f, "--class", "cni", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["class"] == "cni"
    assert data[0]["verdict"] is True
    assert any(c["id"] == "boundary-sign" for c in data[0]["conditions"])


def test_classify_all_filters_by_domain(tmp_path, capsys):
    f = write_tfm(tmp_path, "g", [[([1.0], [-0.5, 1.0])]], "dt")
    # 1/(z - 0.5) is D-NI but not D-PR, so the aggregate verdict fails
    code = main(["classify", f, "--class", "all", "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert {d["class"] for d in data} == {"dpr", "dsspr", "dni", "dssni", "dwsni"}
    verdicts = {d["class"]: d["verdict"] for d in data}
    assert verdicts["dni"] and not verdicts["dpr"]


def test_classify_wrong_domain_errors(tmp_path):
    f = write_tfm(tmp_path, "g", [[([1.0], [-0.5, 1.0])]], "dt")
    assert main(["classify", f, "--class", "cni"]) == 2


def test_classify_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}\n")
    assert main(["classify", str(bad), "--class", "dni"]) == 2


@pytest.mark.parametrize("command", ["lemma", "classify"])
@pytest.mark.parametrize("entries,message", [
    pytest.param([[{"num": [1.0], "den": [0.0]}]], "entry (0, 0): denominator is identically zero", id="zero-den"),
    pytest.param([[{"num": [1.0]}]], "entry (0, 0): missing 'den'", id="no-den"),
    pytest.param(None, "document entries must be a list of rows", id="null-entries"),
    pytest.param([[{"num": [float("nan")], "den": [1.0, 0.5]}]], "entry (0, 0): coefficients must be finite",
                 id="nan"),
    pytest.param([[{"num": [1.0], "den": [float("inf"), 1.0]}]], "entry (0, 0): coefficients must be finite",
                 id="inf"),
])
def test_malformed_cells_exit_2_with_the_entry_named(tmp_path, capsys, command, entries, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": "dt", "form": "tfm", "entries": entries}))
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("text,message", [
    pytest.param('{"domain": "ct", "form": "tfm", "entries": [[{"num": [%s], "den": [1.0, 1.0]}]]}' % HUGE,
                 "entry (0, 0): ", id="tfm-cell"),
    pytest.param('{"domain": "ct", "form": "ss", "A": [[%s]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}' % HUGE,
                 "'ss' document arrays must hold numbers: ", id="ss-A"),
])
def test_an_integer_beyond_the_float_range_exits_2_with_a_typed_error(tmp_path, capsys, text, message):
    bad = tmp_path / "huge.json"
    bad.write_text(text)
    assert main(["classify", str(bad), "--class", "cpr"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_missing_file(tmp_path):
    assert main(["classify", str(tmp_path / "none.json"), "--class", "dni"]) == 2


def test_sweep_pr_mode(tmp_path):
    # (s + 3)/((s + 1)(s + 2)): Hermitian part 3.0 at the low-frequency end
    f = write_tfm(tmp_path, "f", [[([3.0, 1.0], [2.0, 3.0, 1.0])]], "ct")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", f, "--mode", "pr", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "min_eig", "max_eig"]
    first = [float(v) for v in rows[1]]
    assert first[1] == pytest.approx(3.0, abs=1e-6)


def test_sweep_ni_scaled_column(tmp_path):
    # (s + 3)/(s + 1)^3: the (1/omega)-scaled defect tends to 16 at omega -> 0
    f = write_tfm(tmp_path, "g", [[([3.0, 1.0], [1.0, 3.0, 3.0, 1.0])]], "ct")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", f, "--mode", "ni", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "min_eig", "max_eig", "min_eig_scaled"]
    first = [float(v) for v in rows[1]]
    assert first[3] == pytest.approx(16.0, rel=1e-6)


def test_sweep_ct_pr_starts_at_omega_zero(tmp_path):
    # classify_cpr scans w = 0 besides the log grid, and so does the sweep;
    # (s + 3)/((s + 1)(s + 2)) is finite there, with G + G* = 3 at w = 0
    f = write_tfm(tmp_path, "f", [[([3.0, 1.0], [2.0, 3.0, 1.0])]], "ct")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", f, "--mode", "pr", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        first = [float(v) for v in list(csv.reader(fh))[1]]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(3.0, rel=1e-12)


def test_sweep_constant_is_zero(tmp_path):
    f = write_tfm(tmp_path, "c", [[([2.0], [1.0])]], "dt")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", f, "--mode", "ni", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert float(row[1]) == 0.0 and float(row[2]) == 0.0


def test_transform_writes_document(tmp_path):
    # the PR image of 1/s is the constant 1
    f = write_tfm(tmp_path, "intg", [[([1.0], [0.0, 1.0])]], "ct")
    out = tmp_path / "out.json"
    assert main(["transform", f, "--map", "prni", "--out", str(out)]) == 0
    doc = load_document(out)
    R = parse_document(doc)
    assert R.equals(RationalMatrix([[RationalScalar([1.0], [1.0])]], "ct"))
    assert doc["meta"]["transform"] == "prni"


def test_transform_unknown_map(tmp_path):
    f = write_tfm(tmp_path, "g", [[([1.0], [0.0, 1.0])]], "ct")
    assert main(["transform", f, "--map", "bogus"]) == 2


def test_lemma_exit_codes(tmp_path, capsys):
    good = write_tfm(tmp_path, "good", [[([1.0], [-0.5, 1.0])]], "dt")
    assert main(["lemma", good]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Feasible"
    assert data["X"][0][0] == pytest.approx(1.0 / 3.0, rel=1e-9)
    bad = write_tfm(tmp_path, "bad", [[([-1.0], [-0.5, 1.0])]], "dt")
    assert main(["lemma", bad]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "Infeasible"


def test_lemma_forms(tmp_path, capsys):
    good = write_tfm(tmp_path, "good", [[([1.0], [-0.5, 1.0])]], "dt")
    assert main(["lemma", good, "--form", "dual"]) == 0
    capsys.readouterr()
    # z/(z - 0.5) is D-PR
    pr = write_tfm(tmp_path, "pr", [[([0.0, 1.0], [-0.5, 1.0])]], "dt")
    assert main(["lemma", pr, "--form", "pr"]) == 0
    capsys.readouterr()


def test_lemma_json_records_gap_and_farkas(tmp_path, capsys):
    # dt_lemma_corpus(7, 100)[0] (the first draw, so also dt_lemma_corpus(7, 1)[0])
    # is not D-NI and leaves free parameters: a validated separating
    # functional decides it
    path = tmp_path / "g.json"
    save_document(document_of(dt_lemma_corpus(7, 1)[0]), path)
    assert main(["lemma", str(path), "--form", "primal"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Infeasible"
    assert data["extras"]["free_parameters"] >= 1
    assert data["extras"]["farkas"] is True
    assert data["extras"]["gap"] > 0.0


def test_lemma_json_names_the_form_when_no_search_runs(tmp_path, capsys):
    # a static system (n = 0), and 1/(z - 0.5) in entry (0, 1) alone, whose
    # lemma equation has no symmetric solution
    zero = ([0.0], [1.0])
    static = write_tfm(tmp_path, "static", [[([2.0], [1.0])]], "dt")
    unsolvable = write_tfm(tmp_path, "unsolvable", [[zero, ([1.0], [-0.5, 1.0])], [zero, zero]], "dt")
    for path, code, status in ((static, 0, "Feasible"), (unsolvable, 1, "Infeasible")):
        for form in ("primal", "dual"):
            assert main(["lemma", path, "--form", form]) == code
            data = json.loads(capsys.readouterr().out)
            assert data["status"] == status
            assert data["extras"] == {"form": form, "free_parameters": 0, "gap": 0.0, "farkas": False}


def test_interconnect_feedback(tmp_path, capsys):
    pdoc = tmp_path / "p.json"
    P = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                   np.ones((2, 2)), "dt")
    save_document(document_of(P, name="p"), pdoc)
    cell = ([1.0], [0.5, 1.0])  # 2/(2z + 1)
    q = write_tfm(tmp_path, "q", [[cell, cell], [cell, cell]], "dt")
    code = main(["interconnect", str(pdoc), q, "--mode", "feedback"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["internally_stable"]
    assert any(abs(complex(l["re"] if isinstance(l, dict) else l) - 3.5) <= 1e-9
               for l in data["closed_loop_spectrum"])


def test_interconnect_ni_test(tmp_path, capsys):
    # P = 0.05 (z + 1)/(z + 0.3) and Q = q0 + 1/(z - 0.2), q0 = 1/1.2: P(-1) = Q(-1) = 0
    q0 = 1.0 / 1.2
    p = write_tfm(tmp_path, "p", [[([0.05, 0.05], [0.3, 1.0])]], "dt")
    q = write_tfm(tmp_path, "q", [[([-0.2 * q0 + 1.0, q0], [-0.2, 1.0])]], "dt")
    code = main(["interconnect", p, q, "--mode", "ni-test"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True and data["agree"] is True
    assert data["lambda_bar"] < 1.0


def test_interconnect_ni_test_in_continuous_time(tmp_path, capsys):
    # the Cayley images of the pair above: P = 0.1/(1.3 + 0.7 s) and Q = q0 + (1 - s)/(0.8 + 1.2 s), P(inf) = Q(inf) = 0
    q0 = 1.0 / 1.2
    p = write_tfm(tmp_path, "p", [[([0.1], [1.3, 0.7])]], "ct")
    q = write_tfm(tmp_path, "q", [[([0.8 * q0 + 1.0, 1.2 * q0 - 1.0], [0.8, 1.2])]], "ct")
    code = main(["interconnect", p, q, "--mode", "ni-test"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True and data["agree"] is True
    assert data["lambda_bar"] == pytest.approx(0.05 * 2.0 / 1.3 * (q0 + 1.0 / 0.8))


def test_star_command_in_continuous_time(tmp_path, capsys):
    # [[1, 1], [1, 0]] starred with 1/(s + 1) closes to 1 + 1/(s + 1)
    s1doc = tmp_path / "s1.json"
    S1 = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.array([[1.0, 1.0], [1.0, 0.0]]), "ct")
    save_document(document_of(S1, name="s1"), s1doc)
    mode = write_tfm(tmp_path, "mode", [[([1.0], [1.0, 1.0])]], "ct")
    code = main(["star", str(s1doc), mode, "--a", "1", "--b", "1", "--class", "cni"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["internally_stable"] is True and data["verdicts"] == {"cni": True}


def test_star_command(tmp_path, capsys):
    s1doc = tmp_path / "s1.json"
    D1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    S1 = StateSpace(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), D1, "dt")
    save_document(document_of(S1, name="s1"), s1doc)
    delay = write_tfm(tmp_path, "delay", [[([1.0], [0.0, 1.0])]], "dt")
    out = tmp_path / "star.json"
    code = main(["star", str(s1doc), delay, "--a", "1", "--b", "1",
                 "--class", "dni", "--out", str(out)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["dni"] is True
    star = parse_document(load_document(out))
    assert star.size == 2


def test_json_output_layout_is_two_space_indent_and_a_newline(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_document(document_of(dt_lemma_corpus(7, 1)[0]), path)
    for argv in (["classify", str(path), "--class", "all", "--json"], ["lemma", str(path)]):
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
