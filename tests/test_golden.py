"""Byte-identity of every construction output and Yang-Baxter report.

The fixtures under tests/golden/ were recorded by tests/golden/generate.py;
each case replays one CLI call and must reproduce the recorded exit code,
stdout, stderr and written model file exactly.
"""

import json
import os

import pytest

from bihom import catalog, models
from bihom.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")


def _cases(*names):
    out = []
    cases_dir = os.path.join(GOLDEN, "cases")
    for fname in names or sorted(os.listdir(cases_dir)):
        with open(os.path.join(cases_dir, fname), encoding="utf-8") as fh:
            for case_id, doc in json.load(fh).items():
                out.append(pytest.param(doc, id=case_id))
    return out


@pytest.mark.parametrize("doc", _cases())
def test_golden(doc, tmp_path, capsys):
    _replay(doc, tmp_path, capsys)


@pytest.mark.parametrize("doc", _cases("search-r.json"))
def test_golden_search_pooled(doc, tmp_path, capsys, monkeypatch):
    """BIHOM_THREADS is accepted and ignored: the search prints the recorded
    bytes under BIHOM_THREADS=2 too."""
    monkeypatch.setenv("BIHOM_THREADS", "2")
    _replay(doc, tmp_path, capsys)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_entry_matches_its_golden_input(name):
    """The bytes `bihom catalog NAME` prints, as the fixtures were recorded."""
    with open(os.path.join(INPUTS, f"{name}.json"), encoding="utf-8") as fh:
        assert models.dumps(catalog.entry(name), name=name) == fh.read()


def _replay(doc, tmp_path, capsys):
    out_path = str(tmp_path / "out.json")
    argv = [os.path.join(INPUTS, a[4:]) if a.startswith("@in/") else
            (out_path if a == "@out" else a) for a in doc["argv"]]
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == doc["rc"]
    assert captured.out == doc["stdout"]
    assert captured.err == doc["stderr"]
    if doc["output"] is None:
        assert not os.path.exists(out_path)
    else:
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == doc["output"]
