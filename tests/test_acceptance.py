"""The acceptance gate: one test per criterion, exact tolerances throughout.

Every assertion is exact rational equality (tolerance zero); each test
prints a single PASS line on success (run with -s to see them).
"""

from fractions import Fraction as Q

import json

import pytest

from grid_reference import grid_candidates
from bihom import axioms, catalog, constructions as C, models, ybe
from bihom.cli import run
from bihom.exactcore import BiForm, Comul, Elem2, Endo, Mul, Vec
from bihom.structures import (
    Algebra, Bialgebra, Coalgebra, HopfBimodule, HopfModule,
    regular_left_comodule, regular_left_module,
)

ID2 = Endo.identity(2)
GRID = [Q(-1), Q(0), Q(1)]
WEIGHTS = [Q(-1), Q(0), Q(1)]

POSITIVE_ENTRIES = ("dual-numbers", "kz2", "kz2-yau", "trivial-left", "trivial-right")


def _ok(n, title):
    print(f"criterion {n}: PASS - {title}")


def _hosts():
    dn = catalog.entry("dual-numbers").as_algebra()
    yau = catalog.entry("kz2-yau").to_structure("bialgebra")
    return [
        ("dual-numbers", dn, ID2, ID2),
        ("kz2-yau", yau.algebra, yau.coalgebra.psi, yau.coalgebra.omega),
    ]


def test_criterion_1_axiom_soundness():
    for name in POSITIVE_ENTRIES:
        model = catalog.entry(name)
        kind = catalog.EXPECTATIONS[name][0]
        report = (axioms.check_infbh_bialgebra(model.to_structure("bialgebra"))
                  if kind == "bialgebra"
                  else axioms.check_bihom_algebra(model.as_algebra()))
        assert report.passed, (name, report.violations[:3])
    for order in (2, 3):
        b = catalog.entry(f"trunc-poly-{order}").to_structure("bialgebra")
        report = axioms.check_infbh_bialgebra(b)
        expected = {(i, j) for i in range(order + 1) for j in range(order + 1)
                    if i + j > order}
        assert {v.equation_id for v in report.violations} == {"(12.4)"}
        assert {tuple(v.indices) for v in report.violations} == expected
    _ok(1, "positive entries clean; truncation fails exactly above the order")


def _mutation_corpus():
    """The catalog plus 100 deterministic structure-constant mutations."""
    cases = [catalog.entry(n).to_structure("bialgebra")
             for n in ("kz2", "kz2-yau", "trivial-left", "trivial-right",
                       "trunc-poly-2", "trunc-poly-3")]
    dn = catalog.entry("dual-numbers").as_algebra()
    cases.append(C.trivial_coproduct(dn, ID2, ID2, 0))
    seeds = [catalog.entry(n).to_structure("bialgebra")
             for n in ("kz2", "trivial-left", "trivial-right", "trunc-poly-2")]
    seeds.append(cases[-1])
    for k in range(100):
        base = seeds[k % len(seeds)]
        n = base.dim
        flat = (k * 7919 + 13) % (n * n * n)
        i, rem = divmod(flat, n * n)
        j, l = divmod(rem, n)
        if (k // len(seeds)) % 2 == 0:
            cube = [[list(row) for row in plane] for plane in base.algebra.mul.c]
            cube[i][j][l] += 1
            mutated = Bialgebra(
                Algebra(n, Mul(n, tuple(tuple(tuple(r) for r in p) for p in cube)),
                        base.algebra.alpha, base.algebra.beta, base.algebra.unit),
                base.coalgebra, base.weight)
        else:
            cube = [[list(row) for row in plane] for plane in base.coalgebra.comul.d]
            cube[i][j][l] += 1
            mutated = Bialgebra(
                base.algebra,
                Coalgebra(n, Comul(n, tuple(tuple(tuple(r) for r in p) for p in cube)),
                          base.coalgebra.psi, base.coalgebra.omega,
                          base.coalgebra.counit),
                base.weight)
        cases.append(mutated)
    return cases


def test_criterion_2_three_way_equivalence():
    cases = _mutation_corpus()
    assert len(cases) == 107
    flipped = 0
    for b in cases:
        der = axioms.check_derivation(b).passed
        coder = axioms.check_coderivation(b).passed
        compat = axioms.check_compatibility(b).passed
        assert der == coder == compat
        flipped += not compat
    assert flipped > 0, "the corpus must contain failing mutations"
    _ok(2, f"derivation/coderivation/compatibility agree on all {len(cases)} cases "
           f"({flipped} negative)")


def test_criterion_3_induced_coproduct_pipeline():
    checked = 0
    for name, alg, psi, omega in _hosts():
        for w in WEIGHTS:
            for r in ybe.grid_search_r(alg, psi, omega, w, GRID):
                b = C.delta_r(alg, psi, omega, r, w)
                assert axioms.check_infbh_bialgebra(b).passed, (name, w, r.m)
                checked += 1
    dn = catalog.entry("dual-numbers").as_algebra()
    b = C.delta_r(dn, ID2, ID2, Elem2(2, ((1, 0), (0, 0))), 1)
    reference = C.trivial_coproduct(dn, ID2, ID2, 1, side="right")
    assert b.coalgebra.comul == reference.coalgebra.comul
    _ok(3, f"all {checked} grid solutions induce fully valid structures; the unit "
           "tensor reproduces the right-trivial coproduct")


def test_criterion_4_characterizations():
    checked = 0
    for name, alg, psi, omega in _hosts():
        candidates = grid_candidates(alg, psi, omega, GRID)
        for w in WEIGHTS:
            for r in candidates:
                plain = ybe.abhybe_residual(alg, psi, omega, r, w, anti=False)
                anti = ybe.abhybe_residual(alg, psi, omega, r, w, anti=True)
                assert (plain.is_solution == plain.characterization["(14.8)"]
                        == plain.characterization["(14.9)"])
                assert (anti.is_solution == anti.characterization["(14.28)"]
                        == anti.characterization["(14.29)"])
                if w == 0:
                    assert (plain.characterization["(14.8)"]
                            == plain.characterization["(14.28)"])
                    assert (plain.characterization["(14.9)"]
                            == plain.characterization["(14.29)"])
                checked += 1
    _ok(4, f"solution verdicts match both characterizations on {checked} "
           "candidate evaluations; weight 0 collapses the two families")


def test_criterion_5_coboundary_equivalence():
    checked = 0
    for name, alg, psi, omega in _hosts():
        for r in grid_candidates(alg, psi, omega, GRID):
            for w in WEIGHTS:
                for anti in (False, True):
                    cob = ybe.coboundary_check(alg, psi, omega, r, w, anti=anti).passed
                    induced = C.delta_r(alg, psi, omega, r, w, anti=anti)
                    coassoc = axioms.check_bihom_coalgebra(induced.coalgebra).passed
                    assert cob == coassoc, (name, r.m, w, anti)
                    checked += 1
    _ok(5, f"invariance condition = coassociativity on {checked} candidates, "
           "both variants, solutions and non-solutions alike")


def _weight_zero_base():
    dn = catalog.entry("dual-numbers").as_algebra()
    r = Elem2(2, ((0, 1), (0, 0)))
    return C.delta_r(dn, ID2, ID2, r, 0)


def test_criterion_6_hopf_module_theorems():
    count = 0
    passing = [catalog.entry(n).to_structure("bialgebra")
               for n in ("kz2", "kz2-yau", "trivial-left", "trivial-right")]
    for b in passing:
        for vdim in (1, 2):
            iv = Endo.identity(vdim)
            for variant in ("plain", "unital"):
                h = C.hopf_module_free(b, vdim, iv, iv, iv, iv, variant)
                assert axioms.check_hopf_module(h).passed, (b, variant)
                count += 1
    for name in ("trivial-left", "trivial-right"):
        dual = C.dualize(catalog.entry(name).to_structure("bialgebra"))
        for vdim in (1, 2):
            iv = Endo.identity(vdim)
            h = C.hopf_module_free(dual, vdim, iv, iv, iv, iv, "counital")
            assert axioms.check_hopf_module(h).passed
            count += 1

    b0 = _weight_zero_base()
    n_co = regular_left_comodule(b0.coalgebra)
    h = C.hopf_module_free(b0, 2, ID2, ID2, n_co.psi_m, n_co.omega_m,
                           "comodule_w0", extra=n_co)
    assert axioms.check_hopf_module(h).passed
    dual0 = C.dualize(b0)
    n_mod = regular_left_module(dual0.algebra)
    h = C.hopf_module_free(dual0, 2, n_mod.alpha_m, n_mod.beta_m, ID2, ID2,
                           "module_w0", extra=n_mod)
    assert axioms.check_hopf_module(h).passed
    count += 2

    dn = catalog.entry("dual-numbers").as_algebra()
    r1 = Elem2(2, ((1, 0), (0, 0)))
    for anti, w in ((False, Q(1)), (True, Q(-1))):
        b = C.delta_r(dn, ID2, ID2, r1, w, anti=anti)
        h = C.hopf_module_from_qt(b, r1, regular_left_module(dn), ID2, ID2, anti=anti)
        assert axioms.check_hopf_module(h).passed
        count += 1
    cdual = C.dual_coalgebra(dn)
    sig = BiForm(2, r1.m)
    for anti, w in ((False, Q(1)), (True, Q(-1))):
        b = C.mu_sigma(cdual, ID2, ID2, sig, w, anti=anti)
        h = C.hopf_module_from_coqt(b, sig, regular_left_comodule(b.coalgebra),
                                    ID2, ID2, anti=anti)
        assert axioms.check_hopf_module(h).passed
        count += 1

    # the regular five-part structure: action/coaction both regular
    dn0 = C.trivial_coproduct(dn, ID2, ID2, 0)
    n = dn0.dim
    mul, comul = dn0.algebra.mul, dn0.coalgebra.comul
    raction = tuple(tuple(tuple(mul.c[p][i][q] for q in range(n))
                          for i in range(n)) for p in range(n))
    regular = HopfBimodule(dn0, n, mul.c, raction, comul.d, comul.d,
                           ID2, ID2, ID2, ID2)
    assert axioms.check_hopf_bimodule(regular).passed
    count += 1
    _ok(6, f"{count} Hopf-module constructions pass, including the regular "
           "five-part structure at weight 0")


def test_criterion_7_operator_chain():
    dn = catalog.entry("dual-numbers").as_algebra()
    r1 = Elem2(2, ((1, 0), (0, 0)))
    rb = C.rota_baxter_from_r(dn, ID2, ID2, r1, 1, sign="+")
    assert rb.op == Endo.diagonal([-1, -1])
    assert axioms.check_rota_baxter(rb).passed
    for variant in ("prec", "succ"):
        d = C.dendriform_from_rb(rb, variant)
        assert axioms.check_dendriform(d).passed
    passing = {n: catalog.entry(n).to_structure("bialgebra")
               for n in ("kz2", "kz2-yau", "trivial-left", "trivial-right")}
    for name, b in passing.items():
        assert axioms.check_prelie(C.prelie_from_bialgebra(b)).passed, name
        assert axioms.check_prelie(C.prelie_noninv(b)).passed, name
        for noninv in (False, True):
            pc = C.prelie_coalgebra(b, noninv=noninv)
            assert axioms.check_prelie_coalgebra(pc).passed, (name, noninv)
    _ok(7, "operator chain exact: negated identity operator, associative "
           "dendriform totals, twisted-symmetric products and coproducts")


def test_criterion_8_duality():
    for name in ("kz2", "kz2-yau", "trivial-left", "trivial-right",
                  "trunc-poly-2", "trunc-poly-3"):
        b = catalog.entry(name).to_structure("bialgebra")
        assert C.dualize(C.dualize(b)) == b, name
    dn = catalog.entry("dual-numbers").as_algebra()
    cdual = C.dual_coalgebra(dn)
    transported = 0
    for r in grid_candidates(dn, ID2, ID2, GRID):
        sig = BiForm(2, r.m)
        for w in WEIGHTS:
            rep = ybe.abhybe_residual(dn, ID2, ID2, r, w)
            corep = ybe.coabhybe_residual(cdual, ID2, ID2, sig, w)
            assert rep.residual == corep.residual
            pairs = [("(14.8)", "(01.06)"), ("(14.9)", "(01.07)"),
                     ("(14.28)", "(01.10)"), ("(14.29)", "(01.11)")]
            for a, bkey in pairs:
                assert rep.characterization[a] == corep.characterization[bkey]
            if rep.is_solution:
                bd = C.dualize(C.delta_r(dn, ID2, ID2, r, w))
                bm = C.mu_sigma(cdual, ID2, ID2, sig, w)
                assert bd == bm
            transported += 1
    _ok(8, f"duality is an involution; {transported} residual/characterization "
           "transports agree coordinatewise; induced structures correspond")


def test_criterion_9_twist_and_morphism():
    theta = Endo(2, ((1, 0), (0, -1)))
    kz2 = catalog.entry("kz2").to_structure("bialgebra")
    twisted = C.yau_twist(kz2, theta, theta, theta, theta)
    assert axioms.check_infbh_bialgebra(twisted).passed
    assert twisted == catalog.entry("kz2-yau").to_structure("bialgebra")
    counitary = []
    for name in ("trivial-left", "trivial-right"):
        counitary.append(C.dualize(catalog.entry(name).to_structure("bialgebra")))
    tp2 = catalog.entry("trunc-poly-2").to_structure("coalgebra")
    id3 = Endo.identity(3)
    for side in ("left", "right"):
        counitary.append(C.trivial_product(tp2, id3, id3, Q(-1), side=side))
    for b in counitary:
        assert axioms.check_infbh_bialgebra(b).passed
        assert C.check_delta_morphism(b).passed
    _ok(9, f"the twisted group algebra passes; the coproduct is multiplicative "
           f"into the weighted square on {len(counitary)} counitary structures")


def test_criterion_10_determinism_and_exactness(tmp_path, capsys):
    path = tmp_path / "tp3.json"
    models.save(catalog.entry("trunc-poly-3"), str(path))
    outputs = []
    for _ in range(3):
        run(["verify", str(path), "--json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0])
    import math
    from bihom.exactcore import scalar_parse
    for name in catalog.names():
        model = catalog.entry(name)
        text = models.dumps(model)
        for token in _scalar_tokens(json.loads(text)):
            value = scalar_parse(token)
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0
    b = C.delta_r(catalog.entry("dual-numbers").as_algebra(), ID2, ID2,
                  Elem2(2, ((Q(2, 6), 0), (0, Q(-4, 10)))), Q(3, 9))
    for plane in b.coalgebra.comul.d:
        for row in plane:
            for x in row:
                assert math.gcd(x.numerator, x.denominator) == 1
    _ok(10, "repeated machine reports byte-identical; every serialized and "
            "computed scalar is in lowest terms")


def _scalar_tokens(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for part in doc:
            yield from _scalar_tokens(part)
    elif isinstance(doc, dict):
        for key, part in doc.items():
            if key != "name":
                yield from _scalar_tokens(part)
