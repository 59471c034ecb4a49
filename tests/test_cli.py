import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom import catalog, models
from bihom.cli import run
from bihom.errors import BadScalar, IndexOutOfRange, ParseError
from bihom.exactcore import Comul, Covec, Endo, Mul, Vec
from bihom.structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented, Dendriform, HopfBimodule,
    HopfModule, LeftComodule, LeftModule, PreLie, PreLieCoalgebra, RotaBaxter,
    _action_layout,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_INPUTS = os.path.join(ROOT, "tests", "golden", "inputs")


@pytest.fixture
def workdir(tmp_path):
    def put(name):
        path = tmp_path / f"{name}.json"
        models.save(catalog.entry(name), str(path))
        return str(path)
    return tmp_path, put


def test_roundtrip_every_catalog_entry(tmp_path):
    for name in catalog.names():
        model = catalog.entry(name)
        path = tmp_path / f"{name}.json"
        models.save(model, str(path))
        again = models.load(str(path))
        assert again == model, name
        models.save(again, str(tmp_path / "again.json"))
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (tmp_path / "again.json").read_bytes()


# the legs of each sparse block: 'a' runs over the model's dim, 'm' over
# its module or comodule block's dim
_BLOCK_LEGS = {"mul": "aaa", "comul": "aaa", "star": "aaa", "r": "aa", "sigma": "aa",
               "action": "amm", "raction": "mam", "coaction": "mam", "rcoaction": "mma"}


@st.composite
def _sparse_block(draw, dims):
    """Sparse entries on dims in any order, some repeated at the same index
    with a value that adds to the first or cancels it."""
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = draw(st.lists(st.tuples(index, value), max_size=6))
    for idx, v in draw(st.lists(st.sampled_from(entries), max_size=4) if entries else st.just([])):
        entries.append((idx, draw(st.sampled_from([-v, v, v / 2]))))
    return [[*idx, str(v)] for idx, v in draw(st.permutations(entries))]


def _reference(entries) -> list:
    """Duplicates summed, zeros dropped, sorted by index."""
    total: dict = {}
    for *idx, v in entries:
        total[tuple(idx)] = total.get(tuple(idx), 0) + Fraction(v)
    return [[*idx, str(v)] for idx, v in sorted(total.items()) if v]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_blocks_roundtrip_to_canonical_entries(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def block(key):
        return data.draw(_sparse_block(tuple(n if leg == "a" else m for leg in _BLOCK_LEGS[key])))
    doc = {"name": "x", "dim": n}
    doc.update((key, block(key)) for key in ("mul", "comul", "star", "r", "sigma"))
    doc["module"] = {"dim": m, "action": block("action"), "raction": block("raction")}
    doc["comodule"] = {"dim": m, "coaction": block("coaction"), "rcoaction": block("rcoaction")}
    expected = {key: _reference(val) for key, val in doc.items() if isinstance(val, list)}
    for sub in ("module", "comodule"):
        expected[sub] = {key: val if key == "dim" else _reference(val)
                         for key, val in doc[sub].items()}
    assert models.model_to_dict(models.model_from_dict(doc)) == {"name": "x", "dim": n, **expected}


_SCALARS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _cells(draw, dims):
    """A sparse table on legs dims, as {index tuple: value}."""
    if 0 in dims:
        return {}
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return draw(st.dictionaries(index, _SCALARS, max_size=4))


@st.composite
def _records(draw, kind):
    """A record of the kind on a space of dim 1 or 2, its (co)module
    carriers of dim 0 to 2; every part is drawn, none has to obey a law."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(0, 2))

    def part(cls, dim=n):
        return cls(dim, draw(_cells((dim,) * cls.legs)))

    def action(key):
        return draw(_cells(_action_layout(key, n, m)[0]))

    algebra = Algebra(n, part(Mul), part(Endo), part(Endo), draw(st.none() | st.just(part(Vec))))
    coalgebra = Coalgebra(n, part(Comul), part(Endo), part(Endo),
                          draw(st.none() | st.just(part(Covec))))
    weight = draw(_SCALARS)
    bialgebra = Bialgebra(algebra, coalgebra, weight)
    build = {
        "hopf-bimodule": lambda: HopfBimodule(
            bialgebra, m, action("action"), action("raction"), action("coaction"),
            action("rcoaction"), *(part(Endo, m) for _ in range(4))),
        "hopf-module": lambda: HopfModule(
            bialgebra, LeftModule(algebra, m, action("action"), part(Endo, m), part(Endo, m)),
            LeftComodule(coalgebra, m, action("coaction"), part(Endo, m), part(Endo, m))),
        "rota-baxter": lambda: RotaBaxter(algebra, part(Endo), weight),
        "dendriform": lambda: Dendriform(n, part(Mul), part(Mul), part(Endo), part(Endo)),
        "prelie": lambda: PreLie(n, part(Mul), part(Endo), part(Endo)),
        "prelie-coalgebra": lambda: PreLieCoalgebra(n, part(Comul), part(Endo), part(Endo)),
        "augmented": lambda: Augmented(algebra, part(Covec), weight),
        "coaugmented": lambda: Coaugmented(coalgebra, part(Vec), weight),
        "bialgebra": lambda: bialgebra,
        "algebra": lambda: algebra,
        "coalgebra": lambda: coalgebra,
    }
    return build[kind]()


@pytest.mark.parametrize("kind", models.KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_kind_round_trips_through_its_file(kind, data):
    """A record saved and read back is inferred as its own kind and
    rebuilds the same record."""
    record = data.draw(_records(kind))
    model = models.model_from_dict(json.loads(models.dumps(record)))
    assert model.kind_auto() == kind
    assert model.to_structure(kind) == record


def test_dumps_writes_the_name_it_is_given():
    model = catalog.entry("kz2")
    assert json.loads(models.dumps(model, name="other"))["name"] == "other"
    assert json.loads(models.dumps(model))["name"] == "kz2"
    assert model.name == "kz2"


def test_save_writes_the_name_without_renaming_the_model(tmp_path):
    model = catalog.entry("kz2")
    models.save(model, str(tmp_path / "x.json"), name="x")
    assert models.load(str(tmp_path / "x.json")).name == "x"
    assert model.name == "kz2"


@pytest.mark.parametrize("side, missing", [("comodule", "rcoaction"), ("module", "raction")])
def test_hopf_bimodule_without_a_one_sided_block_exits_2_naming_it(tmp_path, capsys,
                                                                   side, missing):
    """One right (co)action marks a Hopf bimodule, so the file is not checked
    as a Hopf module: it is refused, naming the block it lacks."""
    with open(os.path.join(GOLDEN_INPUTS, "kz2-yau-hbm.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc[side][missing]
    path = tmp_path / "hbm.json"
    path.write_text(json.dumps(doc))
    assert models.load(str(path)).kind_auto() == "hopf-bimodule"
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{missing!r}" in captured.err


def test_readme_kind_table_is_the_kinds_table():
    """The README lists the `verify --kind` choices in inference order, each
    with the blocks that mark it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| kind | marked by |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", table, re.MULTILINE)
    assert [kind for kind, _ in rows] == list(models.KINDS)
    for kind, marks in rows:
        assert re.findall(r"`(\w+)`", marks) == models.KINDS[kind].marks.replace("|", " ").split()


def test_index_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "dim": 2, "mul": [[0, 0, 5, "1"]]}')
    with pytest.raises(IndexOutOfRange):
        models.load(str(path))


def test_bad_scalar(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "dim": 2, "mul": [[0, 0, 0, "1/0"]]}')
    with pytest.raises(ParseError):
        models.load(str(path))


@pytest.mark.parametrize("text", [
    '{"name": "x", "dim": true, "mul": [[0, 0, 0, "1"]]}',
    '{"name": "x", "dim": 2, "mul": [[0, 0, true, "1"]]}',
    '{"name": "x", "dim": 2, "r": [[false, 0, "1"]]}',
])
def test_boolean_dim_or_index_rejected(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        models.load(str(path))
    assert run(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_string_name_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "name": ["x"], "mul": [[0, 0, 0, "1"]]}')
    with pytest.raises(ParseError, match="field 'name'"):
        models.load(str(path))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: field 'name'")


@pytest.mark.parametrize("block", ["module", "comodule"])
@pytest.mark.parametrize("dim", [-1])
def test_non_positive_sub_block_dim_rejected(tmp_path, capsys, block, dim):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "mul": [], block: {"dim": dim, "action": []}}))
    with pytest.raises(ParseError, match=f"field '{block}'.*non-negative"):
        models.load(str(path))
    for argv in (["verify", str(path)], ["verify", str(path), "--kind", "hopf-module"]):
        assert run(argv) == 2
        assert f"error: field '{block}'" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["module", "comodule"])
def test_zero_dim_sub_block_is_accepted(tmp_path, block):
    """A module or comodule on the zero space, as hopf-module --vdim 0
    writes it; the model's own dim stays positive."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 2, "mul": [], block: {"dim": 0, "action": []}}))
    assert getattr(models.load(str(path)), block)["dim"] == 0


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,,}')
    with pytest.raises(ParseError, match="line"):
        models.load(str(path))


@pytest.mark.parametrize("content", [
    b'{"name": "\xff", "dim": 1}',   # not UTF-8
    None,                            # the path is a directory
    b"[" * 100_000,                  # nested deeper than the parser recurses
], ids=["non-utf8", "directory", "deep-nesting"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "bihom.cli", "verify", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(path) in lines[0]


def test_verify_exit_codes(workdir, capsys):
    _, put = workdir
    assert run(["verify", put("dual-numbers")]) == 0
    assert run(["verify", put("trunc-poly-3")]) == 1
    assert run(["verify", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_verify_kind_auto_inference(workdir, capsys):
    _, put = workdir
    assert run(["verify", put("dual-numbers"), "--kind", "auto"]) == 0
    out = capsys.readouterr().out
    assert "as algebra" in out
    assert run(["verify", put("kz2")]) == 0
    assert "as bialgebra" in capsys.readouterr().out


def test_verify_json_report_lists_truncation(workdir, capsys):
    _, put = workdir
    code = run(["verify", put("trunc-poly-2"), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    pairs = {tuple(v["indices"]) for v in doc["violations"]}
    assert pairs == {(1, 2), (2, 1), (2, 2)}
    assert {v["equation_id"] for v in doc["violations"]} == {"(12.4)"}


def test_json_reports_byte_identical(workdir, capsys):
    _, put = workdir
    path = put("trunc-poly-3")
    run(["verify", path, "--json"])
    first = capsys.readouterr().out
    run(["verify", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_ybe_verb(workdir, capsys):
    tmp, put = workdir
    dn = put("dual-numbers")
    qt = put("qt-one")
    assert run(["ybe", dn, "--r", qt]) == 0
    out = capsys.readouterr().out
    assert "solution" in out
    assert run(["ybe", dn, "--r", qt, "--weight", "2"]) == 1
    capsys.readouterr()


def test_construction_pipeline_via_cli(workdir, capsys):
    tmp, put = workdir
    dn = put("dual-numbers")
    qt = put("qt-one")
    out_b = str(tmp / "b.json")
    assert run(["delta-r", dn, "--r", qt, "-o", out_b]) == 0
    assert run(["verify", out_b]) == 0
    out_rb = str(tmp / "rb.json")
    assert run(["rota-baxter", dn, "--r", qt, "--sign", "+", "-o", out_rb]) == 0
    assert run(["verify", out_rb]) == 0
    out_d = str(tmp / "d.json")
    assert run(["dendriform", out_rb, "--variant", "prec", "-o", out_d]) == 0
    assert run(["verify", out_d, "--full-axioms"]) == 0
    capsys.readouterr()


def test_dualize_and_tensor_via_cli(workdir, capsys):
    tmp, put = workdir
    tl = put("trivial-left")
    dual = str(tmp / "dual.json")
    assert run(["dualize", tl, "-o", dual]) == 0
    assert run(["verify", dual]) == 0
    # the dual is counitary: its counit serves as augmentation
    doc = json.loads((tmp / "dual.json").read_text())
    doc["chi"] = doc["counit"]
    aug = tmp / "aug.json"
    aug.write_text(json.dumps(doc))
    out_t = str(tmp / "t.json")
    assert run(["tensor", str(aug), str(aug), "-o", out_t]) == 0
    assert run(["verify", out_t, "--kind", "augmented"]) == 0
    capsys.readouterr()


def test_prelie_via_cli(workdir, capsys):
    tmp, put = workdir
    kz2 = put("kz2")
    out_p = str(tmp / "p.json")
    assert run(["prelie", kz2, "-o", out_p]) == 0
    assert run(["verify", out_p]) == 0
    out_pc = str(tmp / "pc.json")
    assert run(["prelie-coalgebra", kz2, "--noninv", "-o", out_pc]) == 0
    assert run(["verify", out_pc, "--kind", "prelie-coalgebra"]) == 0
    capsys.readouterr()


def test_hopf_module_via_cli(workdir, capsys):
    tmp, put = workdir
    kz2 = put("kz2")
    qt = put("qt-one")
    assert run(["hopf-module", kz2, "--from", "plain", "--vdim", "2"]) == 0
    assert run(["hopf-module", kz2, "--from", "unital"]) == 0
    dn = put("dual-numbers")
    b = str(tmp / "b.json")
    assert run(["delta-r", dn, "--r", qt, "-o", b]) == 0
    assert run(["hopf-module", b, "--from", "qt", "--r", qt]) == 0
    capsys.readouterr()


def test_hopf_module_on_a_zero_dim_space(workdir, capsys):
    _, put = workdir
    assert run(["hopf-module", put("kz2"), "--from", "plain", "--vdim", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_hopf_module_on_a_zero_dim_space_round_trips(workdir, capsys):
    tmp, put = workdir
    out = str(tmp / "h.json")
    assert run(["hopf-module", put("kz2"), "--from", "plain", "--vdim", "0", "-o", out]) == 0
    capsys.readouterr()
    assert run(["verify", out]) == 0
    assert capsys.readouterr().out == "PASS: kz2-hopf-module as hopf-module\n"


def test_hopf_module_negative_vdim_exits_2_naming_the_option(workdir, capsys):
    tmp, put = workdir
    out = tmp / "h.json"
    assert run(["hopf-module", put("kz2"), "--from", "plain", "--vdim", "-1", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --vdim must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_search_r_verb(workdir, capsys):
    _, put = workdir
    dn = put("dual-numbers")
    assert run(["search-r", dn, "--coeffs", "-1,0,1", "--weight", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert [[0, 0, "1"]] in doc["solutions"]


@pytest.mark.parametrize("dim", [60, 100])
def test_search_r_guard_refuses_large_dims_at_once(tmp_path, capsys, dim):
    """3^(dim^2) candidates: refused without computing the count, which at
    dim 100 has more digits than Python converts to a string."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"name": "zero", "dim": dim, "mul": []}))
    start = time.perf_counter()
    assert run(["search-r", str(path), "--coeffs=-1,0,1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 3^{dim * dim} candidates exceed the guard of 10000000\n"


def test_catalog_verbs(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in catalog.names():
        assert name in out
    assert run(["catalog", "dual-numbers"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2
    assert run(["catalog", "--selftest"]) == 0
    capsys.readouterr()


def test_unknown_catalog_name_exits_2_with_its_name(capsys):
    assert run(["catalog", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no catalog entry named 'nosuch'\n"


def test_unknown_verb_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_precondition_error_exits_2(workdir, capsys):
    tmp, put = workdir
    dn = put("dual-numbers")
    qt = put("qt-one")
    # r = 1 (x) 1 does not solve the negative-weight residual
    assert run(["rota-baxter", dn, "--r", qt, "--sign", "-",
                "-o", str(tmp / "x.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("verb, host, block, dim", [
    ("ybe", "kz2", "r", 3),
    ("delta-r", "kz2", "r", 3),
    ("rota-baxter", "kz2", "r", 3),
    ("hopf-module", "kz2", "r", 3),
    ("co-ybe", "trunc-poly-2", "sigma", 2),
    ("co-ybe", "trunc-poly-2", "sigma", 4),
    ("mu-sigma", "trunc-poly-2", "sigma", 4),
])
def test_element_of_other_dim_exits_2(workdir, capsys, verb, host, block, dim):
    tmp, put = workdir
    elem = tmp / "elem.json"
    elem.write_text(json.dumps({"name": "e", "dim": dim, "lambda": "1",
                                block: [[0, 0, "1"]]}))
    extra = ["--from", "qt"] if verb == "hopf-module" else []
    assert run([verb, put(host), *extra, f"--{block}", str(elem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"has dim {dim}" in err


@pytest.mark.parametrize("verb, host, block", [
    ("ybe", "dual-numbers", "r"),
    ("delta-r", "dual-numbers", "r"),
    ("rota-baxter", "dual-numbers", "r"),
    ("hopf-module --from qt", "kz2", "r"),
    ("mu-sigma", "trunc-poly-2", "sigma"),
    ("co-ybe", "trunc-poly-2", "sigma"),
    ("hopf-module --from coqt", "trunc-poly-2", "sigma"),
])
def test_element_file_without_its_block_exits_2(workdir, verb, host, block):
    _, put = workdir
    path = put(host)
    proc = subprocess.run([sys.executable, "-m", "bihom.cli", *verb.split(), path,
                           f"--{block}", path], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: no {block!r} block\n"


def test_installed_entry_point(tmp_path):
    path = tmp_path / "dn.json"
    models.save(catalog.entry("dual-numbers"), str(path))
    proc = subprocess.run([sys.executable, "-m", "bihom.cli", "verify", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_closed_stdout_exits_2_without_traceback():
    """A reader that goes away (`search-r ... | head -1`) is not a violation."""
    host = os.path.join(os.path.dirname(__file__), "golden", "inputs", "trivial-left.json")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "bihom.cli", "search-r", host,
                               "--coeffs=-2,-1,0,1,2", "--weight=0", "--any-r"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_hopf_bimodule_roundtrip_and_verify(tmp_path, capsys):
    from fractions import Fraction as Q
    from bihom import constructions as C
    from bihom.exactcore import Endo
    from bihom.structures import HopfBimodule

    dn = catalog.entry("dual-numbers").as_algebra()
    b = C.trivial_coproduct(dn, Endo.identity(2), Endo.identity(2), 0)
    mul, comul = b.algebra.mul, b.coalgebra.comul
    raction = tuple(tuple(tuple(mul.c[p][i][q] for q in range(2))
                          for i in range(2)) for p in range(2))
    h = HopfBimodule(b, 2, mul.c, raction, comul.d, comul.d,
                     Endo.identity(2), Endo.identity(2),
                     Endo.identity(2), Endo.identity(2))
    path = tmp_path / "hbm.json"
    models.save(h, str(path))
    again = models.load(str(path))
    assert again.kind_auto() == "hopf-bimodule"
    assert again.to_structure("hopf-bimodule") == h
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hopf-bimodule" in out


def test_full_axioms_on_another_kind_exits_2_naming_it(capsys):
    path = os.path.join(GOLDEN_INPUTS, "trunc-poly-2.json")
    assert run(["verify", path, "--full-axioms"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --full-axioms applies to dendriform models only, not bialgebra\n"


# Modules a cold `verify` must not load: dataclasses (and the inspect it
# imports) cost about 10 ms, and the verbs' own modules are compiled afresh
# in every process.
_COLD_FORBIDDEN = ("dataclasses", "inspect", "bihom.constructions", "bihom.ybe", "bihom.catalog")

_PROBE = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["bihom", *sys.argv[1:]]
try:
    runpy.run_module("bihom.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


def _cold_modules(*argv) -> set[str]:
    """The modules a fresh `python -m bihom.cli argv` process loads beyond
    those the interpreter had loaded before it ran."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(loaded)


def test_cold_verify_loads_only_what_it_uses():
    loaded = _cold_modules("verify", os.path.join(GOLDEN_INPUTS, "kz2.json"))
    assert {"bihom.axioms", "bihom.models", "bihom.structures"} <= loaded
    assert not loaded.intersection(_COLD_FORBIDDEN)


def test_cold_catalog_listing_loads_no_constructions():
    loaded = _cold_modules("catalog", "--json")
    assert "bihom.catalog" in loaded
    assert "bihom.constructions" not in loaded and "bihom.ybe" not in loaded
