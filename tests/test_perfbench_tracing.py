"""The benchmark tracer still finds every name it wraps.

perfbench/tracing.py replaces public names of bihom with recording
wrappers; a renamed or removed name makes `install` fail. perfbench/ is
not a package, so it goes on sys.path for the import.
"""

import os
import sys

import pytest

import bihom
import bihom.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def _namespaces():
    """Every namespace the tracer patches, as {label: namespace dict}."""
    out = {name: vars(getattr(bihom, name)) for name in (*bihom.__all__, "cli")}
    out["LinMap"] = vars(bihom.exactcore.LinMap)
    out["ModelFile"] = vars(bihom.models.ModelFile)
    out["CHECKERS"] = bihom.cli.CHECKERS
    return out


def test_install_wraps_and_restore_puts_back(tracing):
    before = {label: dict(ns) for label, ns in _namespaces().items()}
    restore = tracing.install(tracing.Recorder(), bihom)
    try:
        changed = {(label, attr) for label, ns in _namespaces().items()
                   for attr, value in ns.items() if before[label].get(attr) is not value}
        for name in (("ybe", "_solves"), ("ybe", "elem3_build"), ("ybe", "grid_search_r"),
                     ("LinMap", "tensor"), ("LinMap", "__matmul__"), ("cli", "run")):
            assert name in changed
    finally:
        restore()
    for label, ns in _namespaces().items():
        assert set(ns) == set(before[label]), label
        assert all(ns[attr] is before[label][attr] for attr in ns), label


def test_traced_search_tells_evaluated_from_pruned(tracing, kz2_yau, monkeypatch):
    """The search walks a tree of partial r instead of scoring candidates,
    so a traced search records one `ybe.search` span, whose count is the
    number of solutions, and no `ybe.candidate` (`_solves`) span: the
    benchmark reads its evaluated / pruned split as 0 or not applicable."""
    monkeypatch.delenv("BIHOM_THREADS", raising=False)
    a, psi, omega = kz2_yau.algebra, kz2_yau.coalgebra.psi, kz2_yau.coalgebra.omega
    rec = tracing.Recorder()
    restore = tracing.install(rec, bihom)
    try:
        rec.enabled = True
        solutions = bihom.ybe.grid_search_r(a, psi, omega, 1, [-1, 0, 1])
        rec.enabled = False
    finally:
        restore()
    totals = rec.totals()
    assert totals["ybe.search"]["calls"] == 1
    assert totals["ybe.search"]["extras"] == [{"n": len(solutions)}]
    assert len(solutions) == 2
    assert "ybe.candidate" not in totals


def test_traced_verify_records_its_checker_and_structure(tracing, tmp_path, capsys):
    """verify looks its checker up in cli.CHECKERS and builds the record with
    ModelFile.to_structure: the names the tracer wraps for those layers."""
    path = tmp_path / "kz2.json"
    path.write_text(bihom.models.dumps(bihom.catalog.entry("kz2")))
    rec = tracing.Recorder()
    restore = tracing.install(rec, bihom)
    try:
        rec.enabled = True
        rc = bihom.cli.run(["verify", str(path)])
        rec.enabled = False
    finally:
        restore()
    assert rc == 0
    assert capsys.readouterr().out == "PASS: kz2 as bialgebra\n"
    totals = rec.totals()
    assert totals["axioms.check"]["calls"] == 1
    assert totals["models.to_structure"]["calls"] == 1
