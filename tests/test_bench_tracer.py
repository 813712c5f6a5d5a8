"""The benchmark's per-layer tracer still finds every function it wraps.

``bench/tracing.py`` wraps nipr functions by name; renaming or deleting one
breaks ``bench/run.py --trace 1``.  These tests install and uninstall the
tracer, and check that a traced classification and a traced lemma check are
seen layer by layer.
"""

import json
from pathlib import Path

import numpy as np

import corpus
from nipr import boundary, cli, nilemma, realization
from nipr.docio import document_of, save_document

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_sees_a_classification_and_uninstalls(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    path = tmp_path / "g.json"
    save_document(document_of(corpus.ct_ni(np.random.default_rng(0), m=1, nterms=3)), path)
    originals = (cli.main, boundary.grid_psd_scan, dict(cli.CLASSIFIERS))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["classify", str(path), "--class", "cni", "--json"]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)[0]["verdict"] is True
    assert (cli.main, boundary.grid_psd_scan, dict(cli.CLASSIFIERS)) == originals
    assert tracer.calls["analysis_ct.cni"] == 1
    assert tracer.calls["boundary.grid_psd_scan"] == 0  # the sign comes from the crossings
    assert tracer.calls["boundary.boundary_det_zeros"] == 1
    assert tracer.calls["boundary.defect_ct"] == 0  # the samples read G: no rational form is built


def test_tracer_sees_the_crossing_test_of_class_all(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    path = tmp_path / "g.json"
    save_document(document_of(corpus.dt_ni(np.random.default_rng(0), m=2, nterms=3)), path)
    originals = (boundary.boundary_det_zeros, realization.minimal_realization)
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(["classify", str(path), "--class", "all", "--json"])
    finally:
        tracer.uninstall()
    verdicts = {r["class"]: r["verdict"] for r in json.loads(capsys.readouterr().out)}
    assert verdicts["dni"] and verdicts["dwsni"] and verdicts["dssni"]
    assert (boundary.boundary_det_zeros, realization.minimal_realization) == originals
    # one crossing test per boundary form, both on the one realization
    assert tracer.calls["boundary.boundary_det_zeros"] == 2
    assert tracer.calls["realization.minimal_realization"] == 1


def test_tracer_sees_a_lemma_decided_by_a_separating_functional(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    # not D-NI, with free parameters left by the lemma equation (the first
    # dt_lemma_corpus(7, 100) system)
    path = tmp_path / "g.json"
    save_document(document_of(corpus.dt_lemma_corpus(7, 1)[0]), path)
    originals = (nilemma.dni_lemma_check, nilemma._farkas_infeasible)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["lemma", str(path), "--form", "primal"]) == 1
    finally:
        tracer.uninstall()
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "Infeasible" and cert["extras"]["free_parameters"] >= 1
    assert (nilemma.dni_lemma_check, nilemma._farkas_infeasible) == originals
    assert tracer.calls["nilemma.dni_lemma_check"] == 1
    assert tracer.counts["infeasible_answers"] == tracer.counts["farkas_certified"] == 1
