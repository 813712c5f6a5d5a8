"""The shared per-matrix analysis behind the classifiers.

Classifiers run on one matrix share one lazily computed analysis per Config.
These tests check that sharing never changes an answer and that it removes
the repeated work: each boundary form gets one crossing search per document,
no grid is scanned, and no boundary form is built as a rational matrix, not
even when G has a boundary pole.
"""

import gc
import json
import sys
import weakref

import numpy as np
import pytest

import corpus
from nipr import analysis_ct, analysis_dt
from nipr.analysis import analysis_of
from nipr.cli import CLASSIFIERS, _report_dict, main
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, save_document
from nipr.poly import RationalScalar

CT_CLASSES = ("cpr", "csspr", "cwspr", "cni", "cssni", "cwsni")
DT_CLASSES = ("dpr", "dsspr", "dni", "dssni", "dwsni")
# the rng-0 reference documents (three modes each) for every labelled generator, m = 1..3;
# their CLI runs override the sweep grid, which only the embedded config shows
DOCS = [(gen, m) for gen in ("ct_ni", "dt_ni", "ct_pr", "dt_pr") for m in (1, 2, 3)]
OTHER = DEFAULT.with_overrides(require_symmetry=False, grid_points_ct=500, grid_points_dt=500)


def reference(gen, m):
    return getattr(corpus, gen)(np.random.default_rng(0), m=m, nterms=3)


def write(tmp_path, gen, m):
    path = tmp_path / f"{gen}-m{m}.json"
    save_document(document_of(reference(gen, m), name=f"{gen}-m{m}"), path)
    return str(path)


def classify_json(capsys, path, cls):
    code = main(["classify", path, "--class", cls, "--json", "--grid", "400"])
    return code, json.loads(capsys.readouterr().out)


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("gen,m", DOCS)
def test_class_all_matches_each_classifier_on_a_fresh_parse(tmp_path, capsys, gen, m):
    path = write(tmp_path, gen, m)
    code_all, together = classify_json(capsys, path, "all")
    classes = CT_CLASSES if gen.startswith("ct") else DT_CLASSES
    assert [r["class"] for r in together] == list(classes)
    codes = []
    for report in together:
        code, alone = classify_json(capsys, path, report["class"])
        codes.append(code)
        assert canonical(alone) == canonical([report])
    assert code_all == max(codes)


@pytest.mark.parametrize("gen", ["ct_ni", "dt_ni"])
def test_one_matrix_under_two_configs_matches_fresh_matrices(gen):
    G = reference(gen, 2)
    classes = CT_CLASSES if gen.startswith("ct") else DT_CLASSES
    for cls in classes:  # interleave the configs on the one matrix
        for cfg in (DEFAULT, OTHER):
            shared = _report_dict(CLASSIFIERS[cls][1](G, cfg))
            fresh = _report_dict(CLASSIFIERS[cls][1](reference(gen, 2), cfg))
            assert canonical(jsonable(shared)) == canonical(jsonable(fresh)), (cls, cfg == DEFAULT)
    assert analysis_of(G, DEFAULT) is not analysis_of(G, OTHER)


def test_analysis_is_per_matrix_object_and_dies_with_it():
    G = reference("ct_ni", 1)
    assert analysis_of(G) is analysis_of(G, DEFAULT)
    assert analysis_of(reference("ct_ni", 1)) is not analysis_of(G)  # equal content, own analysis
    analysis_ct.classify_cni(G)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def count_calls(monkeypatch, names, owner="boundary"):
    """Count calls of functions of the nipr module owner, through every nipr module that holds them."""
    module = sys.modules[f"nipr.{owner}"]

    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("nipr") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


BUILDERS = {"ct_ni": ("ppart_ct", "defect_ct"), "dt_ni": ("ppart_dt", "defect_dt")}


def with_boundary_pole(gen):
    """The rng-0 m = 2 document plus an integrator: 1/s (CT) or 1/(z - 1) (DT), times a PSD weight."""
    G = reference(gen, 2)
    pole = [0.0, 1.0] if gen.startswith("ct") else [-1.0, 1.0]
    integrator = corpus.weighted_modes([corpus.psd(np.random.default_rng(1), 2)], [RationalScalar([1.0], pole)],
                                       np.zeros((2, 2)), G.domain)
    return G + integrator


@pytest.mark.parametrize("gen,builders", list(BUILDERS.items()))
def test_class_all_scans_and_roots_each_boundary_matrix_once(tmp_path, capsys, monkeypatch, gen, builders):
    path = write(tmp_path, gen, 2)
    counts = count_calls(monkeypatch, ("boundary_det_zeros", "grid_psd_scan") + builders)
    main(["classify", path, "--class", "all", "--json"])
    capsys.readouterr()
    # one crossing search per form, from G: no grid scan, no rational form
    assert counts == {"boundary_det_zeros": 2, "grid_psd_scan": 0, builders[0]: 0, builders[1]: 0}


@pytest.mark.parametrize("gen,builders", list(BUILDERS.items()))
def test_a_boundary_pole_builds_no_rational_form(tmp_path, capsys, monkeypatch, gen, builders):
    path = tmp_path / "pole.json"
    save_document(document_of(with_boundary_pole(gen), name=f"{gen}-pole"), path)
    counts = count_calls(monkeypatch, ("boundary_det_zeros", "grid_psd_scan") + builders)
    main(["classify", str(path), "--class", "all", "--json"])
    capsys.readouterr()
    assert counts == {"boundary_det_zeros": 2, "grid_psd_scan": 0, builders[0]: 0, builders[1]: 0}


def test_single_class_stays_lazy(monkeypatch):
    counts = count_calls(monkeypatch, ("boundary_det_zeros", "grid_psd_scan", "ppart_dt", "defect_dt"))
    analysis_dt.classify_dni(reference("dt_ni", 2))
    assert counts == {"boundary_det_zeros": 1, "grid_psd_scan": 0, "ppart_dt": 0, "defect_dt": 0}


@pytest.mark.parametrize("gen", ["ct_ni", "dt_ni"])
def test_class_all_realizes_the_matrix_once(tmp_path, capsys, monkeypatch, gen):
    path = write(tmp_path, gen, 2)
    counts = count_calls(monkeypatch, ("minimal_realization",), owner="realization")
    main(["classify", path, "--class", "all", "--json"])
    capsys.readouterr()
    # both strict forms of each domain read the one realization
    assert counts == {"minimal_realization": 1}


def test_plain_class_realizes_once_and_a_strict_class_reuses_it(monkeypatch):
    counts = count_calls(monkeypatch, ("minimal_realization",), owner="realization")
    G = reference("dt_ni", 2)
    analysis_dt.classify_dni(G)
    assert counts == {"minimal_realization": 1}  # the crossings of the plain class come from a realization
    analysis_dt.classify_dwsni(G)
    assert counts == {"minimal_realization": 1}


@pytest.mark.parametrize("gen", ["ct_ni", "dt_ni"])
def test_the_strict_classes_share_one_expansion_at_infinity_and_one_per_endpoint(monkeypatch, gen):
    G = reference(gen, 2)
    counts = count_calls(monkeypatch, ("matrix_laurent_inf", "matrix_taylor"), owner="series")
    if gen == "ct_ni":
        for cls in CT_CLASSES:
            getattr(analysis_ct, f"classify_{cls}")(G)
        # csspr and cssni read one expansion at infinity; cssni its slope at s = 0
        assert counts == {"matrix_laurent_inf": 1, "matrix_taylor": 1}
    else:
        for cls in DT_CLASSES:
            getattr(analysis_dt, f"classify_{cls}")(G)
        analysis_dt.circle_limits(G)
        assert counts == {"matrix_laurent_inf": 0, "matrix_taylor": 2}  # z = 1 and z = -1, once each


# each class's condition ids, in order, and the type of its limits, on a strictly stable member of each
# domain that reaches every condition
PINNED = {
    "cpr": (["no-rhp-poles", "boundary-psd", "imaginary-axis-poles", "pole-at-infinity"], "StrictnessLimits"),
    "csspr": (["hurwitz-poles", "strict-boundary-sign", "decay-at-infinity", "full-normal-rank"],
              "StrictnessLimits"),
    "cwspr": (["hurwitz-poles", "strict-boundary-sign"], "NoneType"),
    "cni": (["symmetry", "no-rhp-poles", "boundary-sign", "imaginary-axis-poles", "pole-at-origin",
             "pole-at-infinity"], "NoneType"),
    "cssni": (["symmetry", "hurwitz-poles", "strict-boundary-sign", "decay-at-infinity", "slope-at-origin",
               "full-normal-rank"], "StrictnessLimits"),
    "cwsni": (["symmetry", "hurwitz-poles", "strict-boundary-sign"], "NoneType"),
    "dpr": (["analytic-outside-disc", "boundary-psd", "circle-poles"], "NoneType"),
    "dsspr": (["schur-poles", "strict-boundary-sign", "full-normal-rank"], "NoneType"),
    "dni": (["symmetry", "no-outside-poles", "boundary-sign", "arc-poles", "pole-at-plus-one",
             "pole-at-minus-one"], "NoneType"),
    "dssni": (["symmetry", "schur-poles", "strict-boundary-sign", "slope-at-one", "slope-at-minus-one",
               "full-normal-rank"], "CircleLimits"),
    "dwsni": (["symmetry", "schur-poles", "strict-boundary-sign"], "NoneType"),
}


@pytest.mark.parametrize("gen", ["ct_ni", "dt_ni"])
def test_each_class_lists_its_pinned_conditions_and_limits(gen):
    G = getattr(corpus, gen)(np.random.default_rng([0, 2]), m=2)
    classes = [name for name, (domain, _) in CLASSIFIERS.items() if domain == G.domain]
    assert len(classes) == (6 if gen == "ct_ni" else 5)
    for name in classes:
        rep = CLASSIFIERS[name][1](G, DEFAULT)
        assert ([c.cid for c in rep.conditions], type(rep.limits).__name__) == PINNED[name], name
