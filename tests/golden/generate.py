"""Write the golden CLI fixtures replayed by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/generate.py

Run this only at a commit whose outputs are the reference: it rewrites
`inputs/` and `cases/` from what the current code prints. The inputs are
the catalog hosts, hand-written r / sigma / twist-map files, and hosts
derived from them by the CLI itself (induced bialgebras, duals,
Rota-Baxter operators, augmented copies), and copies of inputs and
outputs with one cell or twist changed. `cases/<verb>.json` maps
each case id to its argv, exit code, stdout, stderr and, for `-o` runs,
the written file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from fractions import Fraction

from bihom import catalog, models
from bihom.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
CASES = os.path.join(HERE, "cases")

ALGEBRA_HOSTS = ("dual-numbers", "kz2", "kz2-yau", "trivial-left", "trivial-right",
                 "trunc-poly-2", "trunc-poly-3")
BIALGEBRA_HOSTS = ALGEBRA_HOSTS[1:]
DIMS = {"dual-numbers": 2, "kz2": 2, "kz2-yau": 2, "trivial-left": 2,
        "trivial-right": 2, "trunc-poly-2": 3, "trunc-poly-3": 4}
# per dimension, an r solving the residual at the file's weight, and one
# solving it at minus that weight
R_ONE = {2: "qt-one.json", 3: "r3-one.json", 4: "r4-one.json"}
R_ANTI = {2: "r2-anti.json", 3: "r3-anti.json", 4: "r4-anti.json"}
# a dimension-8 host for the verbs whose maps grow fastest with the dimension
LARGE, LARGE_DIM = "trunc-poly-7", 8


def _write(name: str, doc: dict) -> str:
    with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return name


def _pairs(dim: int, lam: str, entries, key: str = "r", name: str = "x") -> dict:
    return {"name": name, "dim": dim, "lambda": lam, key: [list(e) for e in entries]}


def _diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else "0" for j in range(n)] for i in range(n)]


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


def _derive(name: str, argv: list[str]) -> str:
    """Run a construction verb at this commit and keep its output as an input."""
    rc, _, err = _cli([*(a if not a.startswith("@in/") else os.path.join(INPUTS, a[4:])
                         for a in argv), "-o", os.path.join(INPUTS, name)])
    if rc != 0:
        raise SystemExit(f"deriving {name} failed ({rc}): {err}")
    return name


def make_inputs() -> dict:
    """Write every input file; returns the r / sigma / maps files per dim."""
    for host in ALGEBRA_HOSTS + ("qt-one",):
        with open(os.path.join(INPUTS, f"{host}.json"), "w", encoding="utf-8") as fh:
            fh.write(models.dumps(catalog.entry(host), name=host))
    with open(os.path.join(INPUTS, f"{LARGE}.json"), "w", encoding="utf-8") as fh:
        fh.write(models.dumps(catalog._trunc_poly(LARGE_DIM - 1), name=LARGE))
    r_files = {
        2: [
            "qt-one.json",
            _write("r2-anti.json", _pairs(2, "1", [(0, 0, "-1")], name="r2-anti")),
            _write("r2-w2.json", _pairs(2, "2", [(0, 0, "1"), (0, 1, "1")], name="r2-w2")),
            _write("r2-w0.json", _pairs(2, "0", [(0, 1, "1")], name="r2-w0")),
            _write("r2-diag.json", _pairs(2, "1", [(0, 0, "1"), (1, 1, "-2")], name="r2-diag")),
            _write("r2-gen.json", _pairs(2, "1/2", [(0, 0, "1"), (0, 1, "2"), (1, 0, "-1/2"),
                                                    (1, 1, "3")], name="r2-gen")),
        ],
        3: [
            _write("r3-one.json", _pairs(3, "-1", [(0, 0, "-1")], name="r3-one")),
            _write("r3-anti.json", _pairs(3, "-1", [(0, 0, "1")], name="r3-anti")),
            _write("r3-gen.json", _pairs(3, "-1", [(0, 0, "1"), (0, 2, "1"), (1, 1, "-1"),
                                                   (2, 0, "1/3"), (1, 2, "2")], name="r3-gen")),
        ],
        4: [
            _write("r4-one.json", _pairs(4, "-1", [(0, 0, "-1")], name="r4-one")),
            _write("r4-anti.json", _pairs(4, "-1", [(0, 0, "1")], name="r4-anti")),
            _write("r4-gen.json", _pairs(4, "-1", [(0, 0, "2"), (0, 3, "-1"), (1, 2, "1"),
                                                   (3, 1, "1/2"), (2, 2, "-3")], name="r4-gen")),
        ],
        8: [
            _write("r8-one.json", _pairs(8, "-1", [(0, 0, "-1")], name="r8-one")),
            _write("r8-gen.json", _pairs(8, "-1", [(0, 0, "2"), (0, 7, "-1"), (1, 2, "1"),
                                                   (7, 1, "1/2"), (2, 2, "-3")], name="r8-gen")),
        ],
    }
    sigma_files = {
        2: [
            _write("s2-one.json", _pairs(2, "1", [(0, 0, "1")], "sigma", "s2-one")),
            _write("s2-anti.json", _pairs(2, "1", [(0, 0, "-1")], "sigma", "s2-anti")),
            _write("s2-gen.json", _pairs(2, "1", [(0, 0, "1"), (0, 1, "-1"), (1, 0, "2"),
                                                  (1, 1, "1/3")], "sigma", "s2-gen")),
        ],
        3: [
            _write("s3-one.json", _pairs(3, "-1", [(0, 0, "-1")], "sigma", "s3-one")),
            _write("s3-anti.json", _pairs(3, "-1", [(0, 0, "1")], "sigma", "s3-anti")),
            _write("s3-gen.json", _pairs(3, "-1", [(0, 0, "1"), (0, 1, "2"), (1, 1, "-1"),
                                                   (2, 0, "1/2"), (2, 2, "1")], "sigma", "s3-gen")),
        ],
        4: [
            _write("s4-one.json", _pairs(4, "-1", [(0, 0, "-1")], "sigma", "s4-one")),
            _write("s4-anti.json", _pairs(4, "-1", [(0, 0, "1")], "sigma", "s4-anti")),
            _write("s4-gen.json", _pairs(4, "-1", [(0, 0, "1"), (1, 3, "2"), (2, 1, "-1"),
                                                   (3, 3, "1/2")], "sigma", "s4-gen")),
        ],
        8: [
            _write("s8-one.json", _pairs(8, "-1", [(0, 0, "-1")], "sigma", "s8-one")),
            _write("s8-gen.json", _pairs(8, "-1", [(0, 0, "1"), (1, 7, "2"), (2, 1, "-1"),
                                                   (5, 3, "1/3"), (7, 7, "1/2")], "sigma", "s8-gen")),
        ],
    }
    theta = _diag(["1", "-1"])
    maps_files = {
        2: [
            _write("maps2-theta.json", {"name": "maps2-theta", "dim": 2, "alpha": theta,
                                        "beta": theta, "psi": theta, "omega": theta}),
            _write("maps2-mixed.json", {"name": "maps2-mixed", "dim": 2, "alpha": theta,
                                        "beta": _diag(["1", "1"]), "psi": theta,
                                        "omega": _diag(["1", "1"])}),
            _write("maps2-noncommuting.json", {"name": "maps2-noncommuting", "dim": 2,
                                               "alpha": theta,
                                               "beta": [["1", "1"], ["0", "1"]]}),
            _write("maps2-nonmorphism.json", {"name": "maps2-nonmorphism", "dim": 2,
                                              "alpha": _diag(["1", "2"])}),
        ],
        3: [
            _write("maps3-powers.json", {"name": "maps3-powers", "dim": 3,
                                         "alpha": _diag(["1", "2", "4"]),
                                         "beta": _diag(["1", "-1", "1"]),
                                         "psi": _diag(["1", "1/3", "1/9"]),
                                         "omega": _diag(["1", "-3/2", "9/4"])}),
        ],
        4: [
            _write("maps4-powers.json", {"name": "maps4-powers", "dim": 4,
                                         "alpha": _diag(["1", "-2", "4", "-8"]),
                                         "beta": _diag(["1", "1/2", "1/4", "1/8"]),
                                         "omega": _diag(["1", "3", "9", "27"])}),
        ],
    }
    return {"r": r_files, "sigma": sigma_files, "maps": maps_files}


def make_derived() -> dict:
    """Hosts built by the CLI at this commit from the hand-written inputs."""
    induced, rota = [], []
    for host in ALGEBRA_HOSTS:
        d = DIMS[host]
        induced.append(_derive(f"{host}-dr.json", ["delta-r", f"@in/{host}.json",
                                                   "--r", f"@in/{R_ONE[d]}"]))
        induced.append(_derive(f"{host}-dr-anti.json", ["delta-r", f"@in/{host}.json",
                                                        "--r", f"@in/{R_ANTI[d]}", "--anti"]))
        rota.append(_derive(f"{host}-rb-plus.json", ["rota-baxter", f"@in/{host}.json",
                                                     "--r", f"@in/{R_ONE[d]}"]))
        rota.append(_derive(f"{host}-rb-minus.json", ["rota-baxter", f"@in/{host}.json",
                                                      "--r", f"@in/{R_ANTI[d]}", "--sign", "-"]))
    induced.append(_derive("kz2-dr-w2.json", ["delta-r", "@in/kz2.json", "--r", "@in/r2-w2.json"]))
    w0 = _derive("dual-numbers-dr-w0.json", ["delta-r", "@in/dual-numbers.json",
                                             "--r", "@in/r2-w0.json"])
    induced.append(w0)
    rota.append(_derive("kz2-rb-w2.json", ["rota-baxter", "@in/kz2.json", "--r", "@in/r2-w2.json"]))
    duals = [_derive(f"{host}-dual.json", ["dualize", f"@in/{host}.json"])
             for host in ("kz2", "kz2-yau", "trivial-left", "trivial-right")]
    duals.append(_derive("dual-numbers-dr-w0-dual.json", ["dualize", f"@in/{w0}"]))
    sigma_induced = [
        _derive("trunc-poly-2-ms.json", ["mu-sigma", "@in/trunc-poly-2.json",
                                         "--sigma", "@in/s3-one.json"]),
        _derive("trunc-poly-2-ms-anti.json", ["mu-sigma", "@in/trunc-poly-2.json",
                                              "--sigma", "@in/s3-anti.json", "--anti"]),
        _derive("kz2-dual-ms.json", ["mu-sigma", "@in/kz2-dual.json", "--sigma", "@in/s2-one.json"]),
        _derive("kz2-yau-dual-ms-anti.json", ["mu-sigma", "@in/kz2-yau-dual.json",
                                              "--sigma", "@in/s2-anti.json", "--anti"]),
    ]
    aug, coaug = [], []
    for host in ("kz2", "kz2-yau", "trunc-poly-2", "trivial-right", LARGE):
        with open(os.path.join(INPUTS, f"{host}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        d = doc["dim"]
        lam = doc["lambda"]
        chi = [str(-1 / Fraction(lam))] + ["0"] * (d - 1)
        aug.append(_write(f"{host}-aug.json", dict(doc, name=f"{host}-aug", chi=chi)))
        coaug.append(_write(f"{host}-coaug.json",
                            dict(doc, name=f"{host}-coaug",
                                 zeta=[("1" if lam == "-1" else "-1")] + ["1/2"] * (d - 1))))
    large_dr = _derive(f"{LARGE}-dr.json", ["delta-r", f"@in/{LARGE}.json",
                                             "--r", "@in/r8-one.json"])
    large = {
        "dr": large_dr,
        "ms": _derive(f"{LARGE}-ms.json", ["mu-sigma", f"@in/{LARGE}.json",
                                           "--sigma", "@in/s8-one.json"]),
        "prelie": _derive(f"{LARGE}-prelie.json", ["prelie", f"@in/{large_dr}"]),
        "prelie_co": _derive(f"{LARGE}-prelie-co.json", ["prelie-coalgebra", f"@in/{large_dr}"]),
    }
    return {"induced": induced, "rota": rota, "duals": duals,
            # the dimension-8 copies are crossed with trunc-poly-2 only
            "sigma_induced": sigma_induced, "aug": aug[:-1], "coaug": coaug[:-1],
            "large": large}


def _edited(name: str, source: str, path: tuple, value: str) -> str:
    """Write a copy of the input source under name with one cell set: a
    path ending in an index tuple sets that sparse entry, any other path one
    cell of a map, a vector or a block."""
    with open(os.path.join(INPUTS, source), encoding="utf-8") as fh:
        doc = json.load(fh)
    *outer, last = path
    at = doc
    for key in outer:
        at = at[key]
    if isinstance(last, tuple):
        at[:] = sorted([e for e in at if tuple(e[:-1]) != last] + [[*last, value]])
    else:
        at[last] = value
    return _write(name, dict(doc, name=name.removesuffix(".json")))


def _hopf_bimodule(name: str, source: str) -> str:
    """The bialgebra in source acting and coacting on itself from both sides
    by its own product, coproduct and twists."""
    with open(os.path.join(INPUTS, source), encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["dim"]
    doc["module"] = {"dim": n, "alpha": doc["alpha"], "beta": doc["beta"],
                     "action": doc["mul"], "raction": doc["mul"]}
    doc["comodule"] = {"dim": n, "psi": doc["psi"], "omega": doc["omega"],
                       "coaction": doc["comul"], "rcoaction": doc["comul"]}
    return _write(name, dict(doc, name=name.removesuffix(".json")))


def _coalgebra_half(name: str, source: str) -> str:
    """The coalgebra blocks of the bialgebra in source, on their own."""
    with open(os.path.join(INPUTS, source), encoding="utf-8") as fh:
        doc = json.load(fh)
    return _write(name, {"name": name.removesuffix(".json"), "dim": doc["dim"],
                         **{k: doc[k] for k in ("psi", "omega", "counit", "comul") if k in doc}})


def make_perturbed() -> dict:
    """Failing inputs, each one changed cell or twist away from an input or
    a recorded output, so that together with the other inputs every label a
    `verify` kind emits occurs in some failing report. The comment after a
    file names the labels it is there for."""
    prelie = _derive("kz2-yau-prelie.json", ["prelie", "@in/kz2-yau.json"])
    prelie_co = _derive("kz2-dr-prelie-co.json", ["prelie-coalgebra", "@in/kz2-dr.json"])
    dend = _derive("kz2-yau-rb-plus-dend.json", ["dendriform", "@in/kz2-yau-rb-plus.json"])
    module = _derive("kz2-yau-hm.json", ["hopf-module", "@in/kz2-yau.json", "--from", "plain",
                                         "--vdim", "2"])
    bimodule = _hopf_bimodule("kz2-yau-hbm.json", "kz2-yau.json")     # (20.02)
    coalgebra = _coalgebra_half("kz2-yau-co.json", "kz2-yau.json")
    for name, source, path, value in (
            ("kz2-yau-x-mul", "kz2-yau.json", ("mul", (1, 1, 1)), "1"),    # (1.2) (1.3) (12.3)
            ("kz2-yau-x-unit", "kz2-yau.json", ("unit", 1), "1"),          # (1.5) (12.30) (L2.11a)
            ("kz2-yau-x-comul", "kz2-yau.json", ("comul", (1, 1, 1)), "1"),  # (1.7) (1.9) (12.2)
            ("kz2-yau-x-alpha", "kz2-yau.json", ("alpha", 0, 1), "1"),     # (12.1)
            ("kz2-yau-x-psi", "kz2-yau.json", ("psi", 1, 0), "1"),         # (12.30) by a twist
            ("kz2-yau-co-x-comul", coalgebra, ("comul", (1, 1, 1)), "1"),  # (1.7) (1.9) alone
            ("kz2-dual-ms-x-counit", "kz2-dual-ms.json", ("counit", 1), "1"),  # (1.11) (L2.11b)
            ("kz2-dual-ms-x-alpha", "kz2-dual-ms.json", ("alpha", 0, 1), "1"),  # (12.31)
            ("kz2-yau-aug-x-chi", "kz2-yau-aug.json", ("chi", 1), "1"),    # (12.5m)
            ("kz2-rb-plus-x-R", "kz2-rb-plus.json", ("R", 0, 1), "1"),     # (RB)
            ("kz2-yau-rb-plus-x-R", "kz2-yau-rb-plus.json", ("R", 0, 1), "1"),  # (RB.alpha) (RB.beta)
            ("kz2-yau-prelie-x-star", prelie, ("star", (0, 0, 0)), "1"),  # (13.1)
            ("kz2-yau-prelie-x-alpha", prelie, ("alpha", 1, 1), "2"),  # (13.1m)
            ("kz2-dr-prelie-co-x-comul", prelie_co, ("costar", (0, 0, 1)), "1"),  # (co13.1)
            ("kz2-dr-prelie-co-x-psi", prelie_co, ("psi", 1, 0), "1"),  # (co13.1m)
            ("kz2-yau-rb-plus-dend-x-prec", dend, ("prec", (0, 0, 0)), "1"),  # (D.1)-(D.3)
            ("kz2-yau-rb-plus-dend-x-alpha", dend, ("alpha", 1, 1), "2"),  # (D.maps)
            ("kz2-yau-hm-x-action", module, ("module", "action", (0, 0, 0)), "2"),  # (1.15) (12.13)
            ("kz2-yau-hm-x-coaction", module, ("comodule", "coaction", (0, 0, 0)), "1"),  # (1.15C)
            ("kz2-yau-hm-x-alpha", module, ("module", "alpha", 0, 2), "1"),  # (1.13) (HM.comm)
            ("kz2-yau-hm-x-psi", module, ("comodule", "psi", 1, 0), "1"),  # (1.13C)
            # (1.15R) (1.16) (12.13R)
            ("kz2-yau-hbm-x-raction", bimodule, ("module", "raction", (1, 1, 1)), "1"),
            # (1.15CR) (1.16C) (20.01)
            ("kz2-yau-hbm-x-rcoaction", bimodule, ("comodule", "rcoaction", (1, 1, 1)), "1"),
            ("kz2-yau-hbm-x-alpha", bimodule, ("module", "alpha", 0, 1), "1"),  # (1.13R)
            ("kz2-yau-hbm-x-psi", bimodule, ("comodule", "psi", 1, 0), "1")):  # (1.13CR)
        _edited(f"{name}.json", source, path, value)
    return {"prelie_co": [prelie_co, "kz2-dr-prelie-co-x-comul.json",
                          "kz2-dr-prelie-co-x-psi.json"],
            "dendriform": [dend, "kz2-yau-rb-plus-dend-x-prec.json",
                           "kz2-yau-rb-plus-dend-x-alpha.json"]}


def _dim_of(name: str) -> int:
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return json.load(fh)["dim"]


def make_cases(files: dict, derived: dict) -> list[tuple[str, list[str]]]:
    cases: list[tuple[str, list[str]]] = []

    def add(argv: list[str]):
        parts = [a[4:].removesuffix(".json") if a.startswith("@in/") else a.lstrip("-")
                 for a in argv if a != "@out"]
        cases.append(("_".join(p for p in parts if p), argv))

    algebra_hosts = [f"{h}.json" for h in ALGEBRA_HOSTS]
    bialgebras = [f"{h}.json" for h in BIALGEBRA_HOSTS] + derived["induced"] + derived["duals"]
    coalgebras = [f"{h}.json" for h in ("trunc-poly-2", "trunc-poly-3")] + derived["duals"] \
        + [f"{h}.json" for h in ("kz2", "trivial-left")]

    for host in [f"{h}.json" for h in BIALGEBRA_HOSTS] + derived["duals"][:1]:
        for maps in files["maps"][_dim_of(host)]:
            add(["twist", f"@in/{host}", "--maps", f"@in/{maps}"])
    for host in algebra_hosts:
        for r in files["r"][_dim_of(host)]:
            for extra in ([], ["--anti"]):
                add(["delta-r", f"@in/{host}", "--r", f"@in/{r}", *extra])
                add(["ybe", f"@in/{host}", "--r", f"@in/{r}", "--json", *extra])
            for sign in ("+", "-"):
                add(["rota-baxter", f"@in/{host}", "--r", f"@in/{r}", "--sign", sign])
    for host in coalgebras:
        for s in files["sigma"][_dim_of(host)]:
            for extra in ([], ["--anti"]):
                add(["mu-sigma", f"@in/{host}", "--sigma", f"@in/{s}", *extra])
                add(["co-ybe", f"@in/{host}", "--sigma", f"@in/{s}", "--json", *extra])
    for host in bialgebras + derived["sigma_induced"]:
        add(["dualize", f"@in/{host}"])
        for extra in ([], ["--noninv"]):
            add(["prelie", f"@in/{host}", *extra])
            add(["prelie-coalgebra", f"@in/{host}", *extra])
    for x in derived["aug"]:
        for y in derived["aug"]:
            add(["tensor", f"@in/{x}", f"@in/{y}"])
    for x in derived["coaug"]:
        for y in derived["coaug"]:
            add(["tensor", f"@in/{x}", f"@in/{y}", "--co"])
    for rb in derived["rota"]:
        for variant in ("prec", "succ"):
            add(["dendriform", f"@in/{rb}", "--variant", variant])
    counital = derived["duals"] + derived["sigma_induced"] + ["trunc-poly-2.json", "kz2.json"]
    for host in bialgebras + derived["sigma_induced"]:
        sources = ("plain", "unital", "counital") if host in counital else ("plain", "unital")
        for source in sources:
            for vdim in ("1", "2") if _dim_of(host) == 2 else ("1",):
                add(["hopf-module", f"@in/{host}", "--from", source, "--vdim", vdim, "-o", "@out"])
    for host in ("dual-numbers-dr-w0.json", "dual-numbers-dr-w0-dual.json", "kz2.json"):
        for source in ("comodule-w0", "module-w0"):
            add(["hopf-module", f"@in/{host}", "--from", source, "-o", "@out"])
    qt_runs = [(f"{h}-dr.json", "qt", R_ONE) for h in ALGEBRA_HOSTS] \
        + [(f"{h}-dr-anti.json", "anti-qt", R_ANTI) for h in ALGEBRA_HOSTS] \
        + [("kz2-dr.json", "anti-qt", R_ANTI), ("trunc-poly-2-dr-anti.json", "qt", R_ONE)]
    for host, source, r_of in qt_runs:
        add(["hopf-module", f"@in/{host}", "--from", source,
             "--r", f"@in/{r_of[_dim_of(host)]}", "-o", "@out"])
    for host, r in (("kz2-dr-w2.json", "r2-w2.json"), ("dual-numbers-dr-w0.json", "r2-w0.json")):
        add(["hopf-module", f"@in/{host}", "--from", "qt", "--r", f"@in/{r}", "-o", "@out"])
    for host in derived["sigma_induced"]:
        for s in files["sigma"][_dim_of(host)]:
            for extra in ([], ["--anti"]):
                add(["hopf-module", f"@in/{host}", "--from", "coqt", "--sigma", f"@in/{s}",
                     *extra, "-o", "@out"])
    large, host = derived["large"], f"@in/{LARGE}.json"
    for s in files["sigma"][LARGE_DIM]:
        for extra in ([], ["--anti"]):
            add(["co-ybe", host, "--sigma", f"@in/{s}", "--json", *extra])
            add(["mu-sigma", host, "--sigma", f"@in/{s}", *extra])
    add(["delta-r", host, "--r", "@in/r8-gen.json"])
    add(["tensor", f"@in/{LARGE}-aug.json", "@in/trunc-poly-2-aug.json"])
    add(["tensor", f"@in/{LARGE}-coaug.json", "@in/trunc-poly-2-coaug.json", "--co"])
    for extra in ([], ["--noninv"]):
        add(["prelie", f"@in/{large['dr']}", *extra])
        add(["prelie-coalgebra", f"@in/{large['dr']}", *extra])
    add(["verify", f"@in/{large['prelie']}", "--kind", "prelie", "--json"])
    add(["verify", f"@in/{large['prelie_co']}", "--kind", "prelie-coalgebra", "--json"])
    add(["hopf-module", f"@in/{large['ms']}", "--from", "coqt", "--sigma", "@in/s8-one.json",
         "-o", "@out"])
    for host in ("dual-numbers", "kz2", "kz2-yau", "trivial-left"):
        for weight in ([], ["--weight=-1"]):
            for any_r in ([], ["--any-r"]):
                for fmt in ([], ["--json"]):
                    add(["search-r", f"@in/{host}.json", "--coeffs=-1,0,1",
                         *weight, *any_r, *fmt])
    add(["search-r", "@in/trivial-left.json", "--coeffs=-2,-1,0,1,2", "--weight=0", "--any-r"])
    add(["search-r", "@in/trunc-poly-2.json", "--coeffs=0,1"])
    for any_r in ([], ["--any-r"]):
        for fmt in ([], ["--json"]):
            add(["search-r", "@in/trunc-poly-2.json", "--coeffs=-1,0,1", *any_r, *fmt])
    # 3^16 candidates: refused by the guard before any work
    add(["search-r", "@in/trunc-poly-3.json", "--coeffs=-1,0,1"])
    # the perturbed pre-Lie coalgebras and dendriform products under the
    # laws their inferred kind (coalgebra, dendriform totals) leaves out
    for name in derived["perturbed"]["prelie_co"]:
        for fmt in ([], ["--json"]):
            add(["verify", f"@in/{name}", "--kind", "prelie-coalgebra", *fmt])
    for name in derived["perturbed"]["dendriform"]:
        for fmt in ([], ["--json"]):
            add(["verify", f"@in/{name}", "--full-axioms", *fmt])
    # every input as its inferred kind: passing, failing and unreadable
    # structures pin the reports' labels, index tuples and renderings
    for name in sorted(os.listdir(INPUTS)):
        for fmt in ([], ["--json"]):
            add(["verify", f"@in/{name}", *fmt])
    ids = [c[0] for c in cases]
    assert len(ids) == len(set(ids)), "case ids collide"
    return cases


def record(case_id: str, argv: list[str]) -> dict:
    out_path = os.path.join(CASES, "_out.json")
    real = [os.path.join(INPUTS, a[4:]) if a.startswith("@in/") else
            (out_path if a == "@out" else a) for a in argv]
    rc, stdout, stderr = _cli(real)
    output = None
    if "@out" in argv and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            output = fh.read()
        os.remove(out_path)
    return {"argv": argv, "rc": rc, "stdout": stdout, "stderr": stderr, "output": output}


def main():
    for d in (INPUTS, CASES):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    files = make_inputs()
    derived = dict(make_derived(), perturbed=make_perturbed())
    by_verb: dict[str, dict] = {}
    for case_id, argv in make_cases(files, derived):
        by_verb.setdefault(argv[0], {})[case_id] = record(case_id, argv)
    for verb, docs in by_verb.items():
        with open(os.path.join(CASES, f"{verb}.json"), "w", encoding="utf-8") as fh:
            json.dump(docs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    codes = [doc["rc"] for docs in by_verb.values() for doc in docs.values()]
    print(f"{len(codes)} cases, by exit code: "
          f"{ {rc: codes.count(rc) for rc in sorted(set(codes))} }", file=sys.stderr)

if __name__ == "__main__":
    main()
