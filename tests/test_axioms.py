from fractions import Fraction as Q

import pytest

from bihom import axioms, catalog, constructions
from bihom.exactcore import Comul, Covec, Elem2, Endo, LinMap, Mul, Vec
from bihom.structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented, HopfBimodule,
    HopfModule, LeftModule, PreLie, RotaBaxter, regular_left_comodule,
    regular_left_module,
)

ID2 = Endo.identity(2)


def _mutate_mul(mul: Mul, i, j, k, delta=Q(1)) -> Mul:
    cube = [[list(row) for row in plane] for plane in mul.c]
    cube[i][j][k] += delta
    return Mul(mul.dim, tuple(tuple(tuple(r) for r in p) for p in cube))


def _mutate_comul(comul: Comul, i, j, k, delta=Q(1)) -> Comul:
    cube = [[list(row) for row in plane] for plane in comul.d]
    cube[i][j][k] += delta
    return Comul(comul.dim, tuple(tuple(tuple(r) for r in p) for p in cube))


# ---------------------------------------------------------------------------
# algebras and coalgebras


def test_dual_numbers_algebra_passes(dual_numbers):
    assert axioms.check_bihom_algebra(dual_numbers).passed


def test_dim_one_field_algebra_passes():
    one = Endo.identity(1)
    a = Algebra(1, Mul(1, (((Q(1),),),)), one, one, Vec(1, (Q(1),)))
    assert axioms.check_bihom_algebra(a).passed


def test_unit_axiom_violation_is_pinpointed(dual_numbers):
    bad = Algebra(2, dual_numbers.mul, dual_numbers.alpha,
                  Endo.diagonal([1, 2]), dual_numbers.unit)
    report = axioms.check_bihom_algebra(bad)
    assert not report.passed
    hits = report.by_equation("(1.5)")
    assert any(v.indices == (1,) and v.lhs == "e1" and v.rhs == "2*e1" for v in hits)


def test_trivial_left_coalgebra_passes(trivial_left):
    assert axioms.check_bihom_coalgebra(trivial_left.coalgebra).passed


def test_divided_power_coalgebra_passes(trunc_poly_2):
    assert axioms.check_bihom_coalgebra(trunc_poly_2.coalgebra).passed


def test_zero_coproduct_coalgebra_passes():
    c = Coalgebra(2, Comul.zero(2), ID2, ID2, counit=None)
    assert axioms.check_bihom_coalgebra(c).passed


# ---------------------------------------------------------------------------
# bialgebras


def test_trivial_coproduct_bialgebras_pass(trivial_left, trivial_right):
    assert axioms.check_infbh_bialgebra(trivial_left).passed
    assert axioms.check_infbh_bialgebra(trivial_right).passed


def test_truncation_fails_exactly_above_order(trunc_poly_2):
    report = axioms.check_infbh_bialgebra(trunc_poly_2)
    assert not report.passed
    assert {tuple(v.indices) for v in report.violations} == {(1, 2), (2, 1), (2, 2)}
    assert {v.equation_id for v in report.violations} == {"(12.4)"}
    top = [v for v in report.violations if v.indices == (2, 2)]
    assert top[0].lhs == "0" and top[0].rhs == "e2(x)e2"


def test_weight_zero_zero_coproduct_passes(dual_numbers):
    b = constructions.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    assert axioms.check_infbh_bialgebra(b).passed


def test_unit_coproduct_diagnostic(kz2):
    # the coproduct of the unit must be -weight * 1 (x) 1
    bad = Bialgebra(kz2.algebra,
                    Coalgebra(2, _mutate_comul(kz2.coalgebra.comul, 0, 0, 0),
                              ID2, ID2), kz2.weight)
    report = axioms.check_infbh_bialgebra(bad)
    assert report.by_equation("(L2.11a)")


def test_counit_diagnostic_on_dual(trivial_left):
    dual = constructions.dualize(trivial_left)
    assert axioms.check_infbh_bialgebra(dual).passed
    bad_counit = Covec(2, (Q(1), Q(1)))
    worse = Bialgebra(dual.algebra,
                      Coalgebra(2, dual.coalgebra.comul, dual.coalgebra.psi,
                                dual.coalgebra.omega, bad_counit), dual.weight)
    report = axioms.check_infbh_bialgebra(worse)
    assert not report.passed


# ---------------------------------------------------------------------------
# the three-way equivalence (derivation / coderivation / compatibility)


def test_equivalence_on_passing_entries(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        assert axioms.check_derivation(b).passed, name
        assert axioms.check_coderivation(b).passed, name
        assert axioms.check_compatibility(b).passed, name


def test_equivalence_flips_together(kz2, trunc_poly_2):
    # a coproduct perturbation flips all three predicates at once
    mutated = Bialgebra(
        kz2.algebra,
        Coalgebra(2, _mutate_comul(kz2.coalgebra.comul, 1, 1, 1), ID2, ID2),
        kz2.weight)
    flags = (axioms.check_derivation(mutated).passed,
             axioms.check_coderivation(mutated).passed,
             axioms.check_compatibility(mutated).passed)
    assert flags == (False, False, False)
    # so does a product perturbation where the coproduct is rich enough
    id3 = Endo.identity(3)
    mutated2 = Bialgebra(
        Algebra(3, _mutate_mul(trunc_poly_2.algebra.mul, 1, 1, 2),
                id3, id3, trunc_poly_2.algebra.unit),
        trunc_poly_2.coalgebra, trunc_poly_2.weight)
    before = {tuple(v.indices) for v in
              axioms.check_infbh_bialgebra(trunc_poly_2).by_equation("(12.4)")}
    after = {tuple(v.indices) for v in
             axioms.check_infbh_bialgebra(mutated2).by_equation("(12.4)")}
    assert before != after
    assert (axioms.check_derivation(mutated2).passed
            == axioms.check_coderivation(mutated2).passed
            == axioms.check_compatibility(mutated2).passed)


def test_equivalence_weight_zero_zero_coproduct(dual_numbers):
    b = constructions.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    assert axioms.check_derivation(b).passed
    assert axioms.check_coderivation(b).passed


# ---------------------------------------------------------------------------
# modules and comodules


def test_regular_module_passes(dual_numbers):
    assert axioms.check_left_module(regular_left_module(dual_numbers)).passed


def test_scaled_action_fails_on_noncommutative_host():
    # upper-triangular 2x2 matrices: basis e00, e01, e11
    rows = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    cube = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), i in rows.items():
        for (c, d), j in rows.items():
            if b == c:
                k = rows[(a, d)]
                cube[i][j][k] += 1
    mul = Mul(3, tuple(tuple(tuple(r) for r in p) for p in cube))
    ident3 = Endo.identity(3)
    host = Algebra(3, mul, ident3, ident3, Vec(3, (1, 0, 1)))
    assert axioms.check_bihom_algebra(host).passed
    doubled = tuple(tuple(tuple(2 * x for x in row) for row in plane) for plane in cube)
    bad = LeftModule(host, 3, doubled, ident3, ident3)
    report = axioms.check_left_module(bad)
    assert report.by_equation("(1.15)")


def test_regular_comodule_passes(trivial_left):
    com = regular_left_comodule(trivial_left.coalgebra)
    assert axioms.check_left_comodule(com).passed


# ---------------------------------------------------------------------------
# Hopf modules and bimodules


def _self_hopf_module(b: Bialgebra) -> HopfModule:
    return HopfModule(b, regular_left_module(b.algebra),
                      regular_left_comodule(b.coalgebra))


def test_bialgebra_is_its_own_hopf_module(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        assert axioms.check_hopf_module(_self_hopf_module(b)).passed, name


def test_free_hopf_module_passes(kz2):
    h = constructions.hopf_module_free(kz2, 2, ID2, ID2, ID2, ID2, variant="plain")
    assert axioms.check_hopf_module(h).passed


def test_dropping_weight_term_breaks_coupling(trivial_left):
    h = _self_hopf_module(trivial_left)
    weightless = Bialgebra(trivial_left.algebra, trivial_left.coalgebra, Q(0))
    report = axioms.check_hopf_module(HopfModule(weightless, h.module, h.comodule))
    assert {v.equation_id for v in report.violations} == {"(12.13)"}


def _regular_hopf_bimodule(b: Bialgebra) -> HopfBimodule:
    n = b.dim
    mul, comul = b.algebra.mul, b.coalgebra.comul
    raction = tuple(tuple(tuple(mul.c[p][i][q] for q in range(n))
                          for i in range(n)) for p in range(n))
    return HopfBimodule(b, n, mul.c, raction, comul.d, comul.d,
                        b.algebra.alpha, b.algebra.beta,
                        b.coalgebra.psi, b.coalgebra.omega)


def test_regular_hopf_bimodule_weight_zero(dual_numbers):
    b = constructions.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    assert axioms.check_hopf_bimodule(_regular_hopf_bimodule(b)).passed


def test_regular_hopf_bimodule_cross_couplings_at_weight_one(trivial_left, trivial_right):
    # at nonzero weight the two cross couplings each cut a single term out
    # of the compatibility law, so exactly one fails per trivial structure
    left = axioms.check_hopf_bimodule(_regular_hopf_bimodule(trivial_left))
    assert {v.equation_id for v in left.violations} == {"(20.02)"}
    right = axioms.check_hopf_bimodule(_regular_hopf_bimodule(trivial_right))
    assert {v.equation_id for v in right.violations} == {"(20.01)"}


def test_mutated_right_coaction_hits_cross_coupling(dual_numbers):
    b = constructions.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    h = _regular_hopf_bimodule(b)
    bad = [[list(row) for row in plane] for plane in b.coalgebra.comul.d]  # h's rcoaction table
    bad[1][0][0] += 1
    mutated = HopfBimodule(b, h.dim, h.action, h.raction, h.coaction,
                           tuple(tuple(tuple(r) for r in p) for p in bad),
                           h.alpha_m, h.beta_m, h.psi_m, h.omega_m)
    report = axioms.check_hopf_bimodule(mutated)
    assert "(20.01)" in {v.equation_id for v in report.violations}


# ---------------------------------------------------------------------------
# augmentations


def test_counitary_bialgebra_is_augmented(trivial_left, trunc_poly_2):
    dual = constructions.dualize(trivial_left)
    aug = Augmented(dual.algebra, dual.coalgebra.counit, dual.weight)
    assert axioms.check_augmented(aug).passed
    aug2 = Augmented(trunc_poly_2.algebra, trunc_poly_2.coalgebra.counit,
                     trunc_poly_2.weight)
    assert axioms.check_augmented(aug2).passed


def test_unitary_bialgebra_is_coaugmented(trivial_left, kz2):
    for b in (trivial_left, kz2):
        co = Coaugmented(b.coalgebra, b.algebra.unit, b.weight)
        assert axioms.check_coaugmented(co).passed


def test_zero_augmentation_passes(dual_numbers):
    for w in (Q(-2), Q(0), Q(1, 2)):
        aug = Augmented(dual_numbers, Covec(2, (0, 0)), w)
        assert axioms.check_augmented(aug).passed


# ---------------------------------------------------------------------------
# Rota-Baxter / dendriform / pre-Lie checkers


def test_negated_identity_is_weight_one_rota_baxter(dual_numbers):
    rb = RotaBaxter(dual_numbers, Endo.diagonal([-1, -1]), Q(1))
    assert axioms.check_rota_baxter(rb).passed


def test_zero_operator_rota_baxter_any_weight(dual_numbers):
    for w in (Q(-1), Q(0), Q(2)):
        rb = RotaBaxter(dual_numbers, Endo.diagonal([0, 0]), w)
        assert axioms.check_rota_baxter(rb).passed


def test_identity_fails_weight_one(dual_numbers):
    rb = RotaBaxter(dual_numbers, ID2, Q(1))
    assert not axioms.check_rota_baxter(rb).passed


def test_commutative_product_is_prelie(dual_numbers):
    p = PreLie(2, dual_numbers.mul, ID2, ID2)
    assert axioms.check_prelie(p).passed


def test_prelie_violation_detected():
    # a product with an asymmetric associator in the first two slots:
    # e0 * e1 = e0 and e1 * e0 = e1
    cube = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][1][0] = Q(1)
    cube[1][0][1] = Q(1)
    p = PreLie(2, Mul(2, tuple(tuple(tuple(r) for r in p_) for p_ in cube)), ID2, ID2)
    report = axioms.check_prelie(p)
    assert report.by_equation("(13.1)")


def test_reports_sorted_and_deterministic(trunc_poly_2):
    r1 = axioms.check_infbh_bialgebra(trunc_poly_2)
    r2 = axioms.check_infbh_bialgebra(trunc_poly_2)
    assert r1 == r2
    keys = [(v.equation_id, v.indices) for v in r1.violations]
    assert keys == sorted(keys)


def test_misdeclared_row_is_refused():
    """A row whose declared legs do not fit its maps raises instead of
    rendering wrong indices, whether or not the two sides agree."""
    f = LinMap.identity(2)
    for in_dims, out_dims, legs in (((3,), (2,), ("e",)), ((2,), (4,), ("e",)),
                                    ((2,), (2,), ("e", "e")), ((2,), (2,), ())):
        with pytest.raises(ValueError, match="do not fit"):
            axioms.compare_maps("(x)", f, f, in_dims, out_dims, legs)

    @axioms.checker
    def misdeclared(n):
        yield ("(x)", LinMap.identity(n * n), LinMap.zero(n * n, n * n), (n,), (n, n), ("e", "e"))
    with pytest.raises(ValueError, match="do not fit"):
        misdeclared(2)
