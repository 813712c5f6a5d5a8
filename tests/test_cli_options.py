"""What each subcommand takes in and refuses.

Each subcommand takes only the flags of the Config fields its computation
reads: --tol (psd_rel) and --allow-asymmetric (require_symmetry) where a
classifier runs, --grid where ``nipr sweep`` lays its grid, and the lemma
none.  A class or lemma of the other domain is refused with exit code 2.
The transforms are run through the CLI, each against its closed form, and so
is a pole at infinity of too high a degree.
"""

import json

import numpy as np
import pytest

from nipr import analysis
from nipr.cli import _config_from_args, build_parser, main
from nipr.config import DEFAULT
from nipr.docio import document_of, load_document, parse_document, save_document
from nipr.errors import PreconditionViolated
from nipr.nilemma import dni_lemma_check, dpr_lemma_check, dual_dni_lemma_check
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix
from nipr.realization import StateSpace, minimal_realization

FLAGS = {"classify": {"--tol", "--allow-asymmetric"}, "sweep": {"--grid"},
         "transform": {"--tol", "--allow-asymmetric"}, "lemma": set(),
         "interconnect": {"--tol", "--allow-asymmetric"}, "star": {"--tol", "--allow-asymmetric"}}
VALUE = {"--tol": ["1e-5"], "--grid": ["50"], "--allow-asymmetric": []}


def scalar(num, den, domain):
    return RationalMatrix([[RationalScalar(num, den)]], domain)


def write(tmp_path, name, G):
    path = tmp_path / f"{name}.json"
    save_document(document_of(G, name=name), path)
    return str(path)


def argv_of(command, path):
    """A valid call of the subcommand on the document at path."""
    return {"classify": ["classify", path], "sweep": ["sweep", path], "lemma": ["lemma", path],
            "transform": ["transform", path, "--map", "cayley"], "interconnect": ["interconnect", path, path],
            "star": ["star", path, path, "--a", "1", "--b", "1"]}[command]


def subparsers():
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return action.choices


def test_each_subcommand_lists_only_the_flags_it_reads():
    for command, parser in subparsers().items():
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert options & set(VALUE) == FLAGS[command], command
        help_text = parser.format_help()
        for flag in VALUE:
            assert (flag in help_text) == (flag in FLAGS[command]), (command, flag)
    assert sum(len(f) for f in FLAGS.values()) == 9


@pytest.mark.parametrize("command,flag", [(c, f) for c in FLAGS for f in VALUE if f not in FLAGS[c]])
def test_a_flag_the_subcommand_does_not_read_is_refused(tmp_path, capsys, command, flag):
    path = write(tmp_path, "g", scalar([1.0], [-0.5, 1.0], "dt"))
    with pytest.raises(SystemExit) as exc:
        main(argv_of(command, path) + [flag] + VALUE[flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(FLAGS))
def test_the_flags_a_subcommand_takes_reach_its_config(command):
    argv = argv_of(command, "g.json")
    cfg = _config_from_args(build_parser().parse_args(argv))
    assert cfg is DEFAULT
    for flag in FLAGS[command]:
        argv += [flag] + VALUE[flag]
    want = {"--tol": {"psd_rel": 1e-5}, "--allow-asymmetric": {"require_symmetry": False},
            "--grid": {"grid_points_ct": 50, "grid_points_dt": 50}}
    overrides = {k: v for flag in FLAGS[command] for k, v in want[flag].items()}
    assert _config_from_args(build_parser().parse_args(argv)) == DEFAULT.with_overrides(**overrides)


def test_classify_embeds_the_overrides_and_waives_symmetry(tmp_path, capsys):
    # [[1/(s + 1), 1/(s + 2)], [0, 1/(s + 1)]] is not symmetric
    one, zero = RationalScalar([1.0], [1.0, 1.0]), RationalScalar([0.0])
    path = write(tmp_path, "g", RationalMatrix([[one, RationalScalar([1.0], [2.0, 1.0])], [zero, one]], "ct"))
    assert main(["classify", path, "--class", "cni", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)[0]
    assert report["conditions"][0] == {"id": "symmetry", "passed": False,
                                       "witness": {"note": "G != G^T as rational identity"}}
    main(["classify", path, "--class", "cni", "--json", "--tol", "1e-5", "--allow-asymmetric"])
    report = json.loads(capsys.readouterr().out)[0]
    assert report["config"]["psd_rel"] == 1e-5 and report["config"]["require_symmetry"] is False
    assert "symmetry" not in [c["id"] for c in report["conditions"]]


def test_sweep_grid_sets_the_number_of_rows(tmp_path):
    path, out = write(tmp_path, "g", scalar([1.0], [1.0, 1.0], "ct")), tmp_path / "sweep.csv"
    assert main(["sweep", path, "--mode", "ni", "--grid", "50", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 50


@pytest.mark.parametrize("cls,num,degree", [("cpr", [0.0, 0.0, -1.0], 2), ("cni", [0.0, 0.0, 0.0, 1.0], 3)])
def test_a_pole_at_infinity_of_too_high_a_degree_fails_alone(tmp_path, capsys, cls, num, degree):
    # -s^2 and s^3: the boundary forms 2 w^2 and 2 w^3 are PSD, and a CT pole at infinity may be of degree
    # 1 (PR) or 2 (NI) at most
    assert main(["classify", write(tmp_path, "g", scalar(num, [1.0], "ct")), "--class", cls, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)[0]
    assert [(c["id"], c["witness"]) for c in report["conditions"] if not c["passed"]] == [
        ("pole-at-infinity", {"degree": degree})]


# -- a class or lemma of the other domain ------------------------------------


def test_classify_refuses_a_class_of_the_other_domain(tmp_path, capsys):
    path = write(tmp_path, "g", scalar([1.0], [1.0, 1.0], "ct"))
    assert main(["classify", path, "--class", "dni"]) == 2
    assert capsys.readouterr().err == "error: classifier dni needs a dt system, document is ct\n"
    G = parse_document(load_document(path))
    with pytest.raises(ValueError, match="no class 'dni' for a ct matrix"):
        analysis.classify(G, "dni")
    with pytest.raises(ValueError, match="no class 'cxx'"):
        analysis.classify(G, "cxx")


def test_star_refuses_a_class_of_the_other_domain(tmp_path, capsys):
    # [[1, 1], [1, 0]] starred with 1/(s + 1), as in test_cli
    S1 = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.array([[1.0, 1.0], [1.0, 0.0]]), "ct")
    s1, mode = write(tmp_path, "s1", S1), write(tmp_path, "mode", scalar([1.0], [1.0, 1.0], "ct"))
    out = tmp_path / "star.json"
    argv = ["star", s1, mode, "--a", "1", "--b", "1", "--out", str(out)]
    assert main(argv + ["--class", "dni"]) == 2
    assert capsys.readouterr().err == "error: classifier dni needs a dt system, document is ct\n"
    assert not out.exists()
    assert main(argv + ["--class", "cni"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"cni": True}


@pytest.mark.parametrize("form", ["primal", "dual", "pr"])
def test_the_lemmas_refuse_a_continuous_time_realization(tmp_path, capsys, form):
    # 1/(s + 0.5) is C-PR and C-NI; read as 1/(z + 0.5) it would be D-NI and not D-PR
    G = scalar([1.0], [0.5, 1.0], "ct")
    check = {"primal": dni_lemma_check, "dual": dual_dni_lemma_check, "pr": dpr_lemma_check}[form]
    with pytest.raises(PreconditionViolated, match="discrete-time realization, not ct"):
        check(minimal_realization(G))
    assert main(["lemma", write(tmp_path, "g", G), "--form", form]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs a discrete-time realization" in captured.err


# -- the transforms through the CLI ------------------------------------------


MAPS = [  # (map, input, closed form of its image)
    ("ct_pr_to_ni", scalar([2.0], [1.0], "ct"), scalar([2.0], [0.0, 1.0], "ct")),         # 2 -> 2/s
    # 1/(z - 0.5) -> (z - 1)/(z + 1) (1/(z - 0.5) + 2/3) = 2(z - 1)/(3(z - 0.5))
    ("dt_ni_to_pr", scalar([1.0], [-0.5, 1.0], "dt"), scalar([-2.0, 2.0], [-1.5, 3.0], "dt")),
    ("dt_pr_to_ni", scalar([-2.0, 2.0], [-1.5, 3.0], "dt"), scalar([2.0, 2.0], [-1.5, 3.0], "dt")),
    ("cayley", scalar([1.0], [1.0, 1.0], "ct"), scalar([1.0, 1.0], [0.0, 2.0], "dt")),  # s = (z - 1)/(z + 1)
    ("cayley", scalar([1.0], [-0.5, 1.0], "dt"), scalar([2.0, -2.0], [1.0, 3.0], "ct")),  # z = (1 + s)/(1 - s)
]


@pytest.mark.parametrize("name,G,image", MAPS)
def test_each_map_writes_its_image(tmp_path, name, G, image):
    out = tmp_path / "out.json"
    assert main(["transform", write(tmp_path, "g", G), "--map", name, "--out", str(out)]) == 0
    doc = load_document(out)
    assert doc["name"] == f"g.{name}" and doc["meta"] == {"transform": name, "source": "g"}
    assert parse_document(doc).equals(image)


@pytest.mark.parametrize("name,G,cls", [
    ("csspr_to_cssni", scalar([2.0, 1.0], [1.0, 1.0], "ct"), "cssni"),  # (s + 2)/(s + 1)
    ("cssni_to_csspr", scalar([1.0], [1.0, 1.0], "ct"), "csspr"),      # 1/(s + 1)
])
def test_the_certified_maps_print_an_image_of_the_class_and_its_epsilon(tmp_path, capsys, name, G, cls):
    assert main(["transform", write(tmp_path, "g", G), "--map", name]) == 0
    doc = json.loads(capsys.readouterr().out)  # no --out: the document goes to standard output
    eps = doc["meta"]["epsilon"]
    assert 0.0 < eps <= 0.5
    image = parse_document(doc)
    assert analysis.classify(image, cls).verdict
    s_eps = RationalScalar([eps, 1.0])
    want = G.scalar_mul(RationalScalar([1.0], [eps, 1.0])) if cls == "cssni" else G.scalar_mul(s_eps)
    assert image.equals(want)
