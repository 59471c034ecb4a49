from fractions import Fraction as Q

import pytest

from bihom import axioms, catalog, constructions as C, ybe
from bihom.errors import (
    NotInvariant, NotMorphism, NotYBESolution, PreconditionFailed,
    SingularMap, WeightMismatch,
)
from bihom.exactcore import BiForm, Comul, Covec, Elem2, Endo, Mul, Vec
from bihom.structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented,
    regular_left_comodule, regular_left_module,
)

ID2 = Endo.identity(2)
NEG_G = Endo(2, ((1, 0), (0, -1)))


# ---------------------------------------------------------------------------
# twisting


def test_yau_twist_identity_is_identity(kz2):
    assert C.yau_twist(kz2, ID2, ID2, ID2, ID2) == kz2


def test_yau_twist_group_algebra(kz2, kz2_yau):
    twisted = C.yau_twist(kz2, NEG_G, NEG_G, NEG_G, NEG_G)
    assert axioms.check_infbh_bialgebra(twisted).passed
    assert twisted == kz2_yau


def test_yau_twist_scaling_map_accepted(trivial_left):
    # x -> 2x is both an algebra and a coalgebra morphism here
    double = Endo.diagonal([1, 2])
    twisted = C.yau_twist(trivial_left, ID2, ID2, double, double)
    assert axioms.check_infbh_bialgebra(twisted).passed


def test_yau_twist_rejects_non_morphism(kz2):
    shift = Endo(2, ((1, 1), (0, 1)))
    with pytest.raises(NotMorphism):
        C.yau_twist(kz2, shift, shift, shift, shift)


def test_yau_twist_preserves_validity(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        if not all(f.is_identity() for f in
                   (b.algebra.alpha, b.algebra.beta, b.coalgebra.psi, b.coalgebra.omega)):
            continue
        twisted = C.yau_twist(b, ID2, ID2, ID2, ID2)
        assert axioms.check_infbh_bialgebra(twisted).passed, name


# ---------------------------------------------------------------------------
# trivial structures


def test_trivial_coproduct_weight_zero(dual_numbers):
    b = C.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    assert all(x == 0 for p in b.coalgebra.comul.d for r in p for x in r)
    assert axioms.check_infbh_bialgebra(b).passed


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("weight", [Q(-2), Q(-1), Q(0), Q(1, 2), Q(1)])
def test_trivial_coproduct_closure(dual_numbers, side, weight):
    b = C.trivial_coproduct(dual_numbers, ID2, ID2, weight, side=side)
    assert axioms.check_infbh_bialgebra(b).passed


def test_trivial_coproduct_matches_catalog(dual_numbers, trivial_left, trivial_right):
    assert C.trivial_coproduct(dual_numbers, ID2, ID2, 1, side="left") == trivial_left
    assert C.trivial_coproduct(dual_numbers, ID2, ID2, 1, side="right") == trivial_right


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("weight", [Q(-2), Q(-1), Q(0), Q(1, 2), Q(1)])
def test_trivial_product_closure(trunc_poly_2, side, weight):
    id3 = Endo.identity(3)
    b = C.trivial_product(trunc_poly_2.coalgebra, id3, id3, weight, side=side)
    assert axioms.check_infbh_bialgebra(b).passed


def test_trivial_product_divided_powers(trunc_poly_2):
    id3 = Endo.identity(3)
    b = C.trivial_product(trunc_poly_2.coalgebra, id3, id3, Q(-1), side="left")
    # x^m . x^n = x^m exactly when n = 0 (at weight -1)
    for m in range(3):
        for n in range(3):
            prod = b.algebra.product(Vec.basis(3, m), Vec.basis(3, n))
            assert prod == (Vec.basis(3, m) if n == 0 else Vec.zero(3))


# ---------------------------------------------------------------------------
# duality


def test_dualize_is_involution(catalog_bialgebras):
    for name, b in catalog_bialgebras.items():
        assert C.dualize(C.dualize(b)) == b, name


def test_dual_of_left_trivial_is_left_trivial_product(trivial_left, dual_numbers):
    dual = C.dualize(trivial_left)
    assert axioms.check_infbh_bialgebra(dual).passed
    rebuilt = C.trivial_product(C.dual_coalgebra(dual_numbers), ID2, ID2, 1, side="left")
    assert dual.algebra.mul == rebuilt.algebra.mul


def test_dual_of_zero_coproduct_has_zero_product(dual_numbers):
    b = C.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    dual = C.dualize(b)
    assert all(x == 0 for p in dual.algebra.mul.c for r in p for x in r)


# ---------------------------------------------------------------------------
# weighted tensor products


def test_aug_tensor_zero_augmentation(dual_numbers):
    from bihom.exactcore import Covec
    aug = Augmented(dual_numbers, Covec(2, (0, 0)), Q(1))
    algebra, product = C.aug_tensor_product(aug, aug)
    assert all(x == 0 for p in algebra.mul.c for r in p for x in r)


def test_aug_tensor_product_of_counitary(trivial_left):
    dual = C.dualize(trivial_left)
    aug = Augmented(dual.algebra, dual.coalgebra.counit, dual.weight)
    algebra, product = C.aug_tensor_product(aug, aug)
    assert axioms.check_bihom_algebra(algebra).passed
    assert axioms.check_augmented(product).passed


def test_aug_tensor_product_weight_minus_one(trunc_poly_2):
    aug = Augmented(trunc_poly_2.algebra, trunc_poly_2.coalgebra.counit, Q(-1))
    algebra, product = C.aug_tensor_product(aug, aug)
    assert axioms.check_bihom_algebra(algebra).passed
    assert axioms.check_augmented(product).passed


def test_aug_tensor_weight_mismatch(dual_numbers):
    from bihom.exactcore import Covec
    a = Augmented(dual_numbers, Covec(2, (0, 0)), Q(1))
    b = Augmented(dual_numbers, Covec(2, (0, 0)), Q(2))
    with pytest.raises(WeightMismatch):
        C.aug_tensor_product(a, b)


def test_coaug_tensor_product(kz2, trivial_left):
    for b in (kz2, trivial_left):
        co = Coaugmented(b.coalgebra, b.algebra.unit, b.weight)
        coalgebra, product = C.coaug_tensor_product(co, co)
        assert axioms.check_bihom_coalgebra(coalgebra).passed
        assert axioms.check_coaugmented(product).passed


def test_delta_morphism_on_counitary_positives(trivial_left, trivial_right):
    for b in (trivial_left, trivial_right):
        dual = C.dualize(b)
        assert C.check_delta_morphism(dual).passed


def test_delta_morphism_fails_with_truncation(trunc_poly_2):
    report = C.check_delta_morphism(trunc_poly_2)
    assert {tuple(v.indices) for v in report.violations} == {(1, 2), (2, 1), (2, 2)}


def test_mu_comorphism_on_unitary_entries(kz2, kz2_yau, trivial_left):
    for b in (kz2, kz2_yau, trivial_left):
        assert C.check_mu_comorphism(b).passed


# ---------------------------------------------------------------------------
# induced coproducts and products


def test_delta_r_zero(dual_numbers):
    b = C.delta_r(dual_numbers, ID2, ID2, Elem2.zero(2), 0)
    assert all(x == 0 for p in b.coalgebra.comul.d for r in p for x in r)


def test_delta_r_unit_tensor_matches_trivial(dual_numbers, r_one, trivial_right):
    b = C.delta_r(dual_numbers, ID2, ID2, r_one, 1)
    assert b.coalgebra.comul == trivial_right.coalgebra.comul
    assert axioms.check_infbh_bialgebra(b).passed


def test_delta_r_anti_flips_to_left_form(dual_numbers, r_one):
    b = C.delta_r(dual_numbers, ID2, ID2, r_one, -1, anti=True)
    expected = C.trivial_coproduct(dual_numbers, ID2, ID2, -1, side="left")
    assert b.coalgebra.comul == expected.coalgebra.comul


def test_delta_r_requires_invariance(kz2_yau, r_one):
    lopsided = Elem2(2, ((0, 1), (0, 0)))
    with pytest.raises(NotInvariant):
        C.delta_r(kz2_yau.algebra, kz2_yau.coalgebra.psi, kz2_yau.coalgebra.omega,
                  lopsided, 1)


def test_delta_r_requires_invertible_twists(dual_numbers, r_one):
    crush = Endo.diagonal([1, 0])
    host = Algebra(2, dual_numbers.mul, crush, crush, dual_numbers.unit)
    with pytest.raises(SingularMap):
        C.delta_r(host, ID2, ID2, Elem2.zero(2), 1)


def test_mu_sigma_zero(trunc_poly_2):
    id3 = Endo.identity(3)
    b = C.mu_sigma(trunc_poly_2.coalgebra, id3, id3, BiForm(3, ((0,)*3,)*3), 0)
    assert all(x == 0 for p in b.algebra.mul.c for r in p for x in r)


def test_mu_sigma_counit_square_verdict_matches_residual(trunc_poly_2):
    # sigma = eps (x) eps on the divided powers; the co-residual decides
    # whether the induced product is associative, confirmed independently
    id3 = Endo.identity(3)
    eps = trunc_poly_2.coalgebra.counit
    sig = BiForm(3, tuple(tuple(eps.coeffs[i] * eps.coeffs[j] for j in range(3))
                          for i in range(3)))
    report = ybe.coabhybe_residual(trunc_poly_2.coalgebra, id3, id3, sig, Q(-1))
    b = C.mu_sigma(trunc_poly_2.coalgebra, id3, id3, sig, Q(-1))
    assoc_ok = axioms.check_bihom_algebra(b.algebra).passed
    full_ok = axioms.check_infbh_bialgebra(b).passed
    assert report.is_solution == full_ok == assoc_ok


def test_mu_sigma_matches_dualized_delta_r(dual_numbers, r_one):
    bd = C.dualize(C.delta_r(dual_numbers, ID2, ID2, r_one, 1))
    b2 = C.mu_sigma(C.dual_coalgebra(dual_numbers), ID2, ID2, BiForm(2, r_one.m), 1)
    assert bd == b2


# ---------------------------------------------------------------------------
# Rota-Baxter / dendriform / pre-Lie


def test_rota_baxter_zero_solution(dual_numbers):
    rb = C.rota_baxter_from_r(dual_numbers, ID2, ID2, Elem2.zero(2), 0, sign="+")
    assert rb.op == Endo(2, ((0, 0), (0, 0)))
    assert axioms.check_rota_baxter(rb).passed


def test_rota_baxter_unit_tensor_is_negated_identity(dual_numbers, r_one):
    rb = C.rota_baxter_from_r(dual_numbers, ID2, ID2, r_one, 1, sign="+")
    assert rb.op == Endo.diagonal([-1, -1])
    assert axioms.check_rota_baxter(rb).passed


def test_rota_baxter_rejects_non_solution(dual_numbers, r_one):
    with pytest.raises(NotYBESolution):
        C.rota_baxter_from_r(dual_numbers, ID2, ID2, r_one, 2, sign="+")


def test_rota_baxter_from_grid_search_on_twisted(kz2_yau):
    alg = kz2_yau.algebra
    psi, omega = kz2_yau.coalgebra.psi, kz2_yau.coalgebra.omega
    found = ybe.grid_search_r(alg, psi, omega, Q(1), [Q(-1), Q(0), Q(1)])
    assert found, "expected at least the zero solution"
    for r in found:
        rb = C.rota_baxter_from_r(alg, psi, omega, r, Q(1), sign="+")
        assert axioms.check_rota_baxter(rb).passed


def test_dendriform_zero(dual_numbers):
    from bihom.structures import RotaBaxter
    rb = RotaBaxter(dual_numbers, Endo(2, ((0, 0), (0, 0))), Q(0))
    d = C.dendriform_from_rb(rb)
    assert all(x == 0 for p in d.prec.c for r in p for x in r)
    assert all(x == 0 for p in d.succ.c for r in p for x in r)


def test_dendriform_variants(dual_numbers, r_one):
    rb = C.rota_baxter_from_r(dual_numbers, ID2, ID2, r_one, 1, sign="+")
    d_prec = C.dendriform_from_rb(rb, "prec")
    # with R = -identity at weight 1: x < y = 0 and x > y = -xy
    assert all(x == 0 for p in d_prec.prec.c for r in p for x in r)
    neg_mul = tuple(tuple(tuple(-x for x in row) for row in plane)
                    for plane in dual_numbers.mul.c)
    assert d_prec.succ.c == neg_mul
    assert axioms.check_dendriform(d_prec).passed
    assert axioms.check_dendriform(d_prec, full_axioms=True).passed
    d_succ = C.dendriform_from_rb(rb, "succ")
    assert d_succ.prec.c == neg_mul
    assert all(x == 0 for p in d_succ.succ.c for r in p for x in r)
    assert axioms.check_dendriform(d_succ, full_axioms=True).passed


def test_prelie_from_bialgebra(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        p = C.prelie_from_bialgebra(b)
        assert axioms.check_prelie(p).passed, name


def test_prelie_left_trivial_is_negated_opposite(kz2):
    # with identity maps and the left-trivial coproduct the product is
    # a * b = -weight * (b a)
    p = C.prelie_from_bialgebra(kz2)
    mul = kz2.algebra.mul
    for i in range(2):
        for j in range(2):
            expected = mul.c[j][i]
            got = tuple(p.star.c[i][j])
            assert got == tuple(-x for x in expected)


def test_prelie_noninv(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        p = C.prelie_noninv(b)
        assert axioms.check_prelie(p).passed, name


def test_prelie_noninv_composite_twists(kz2_yau):
    p = C.prelie_noninv(kz2_yau)
    a_, c_ = kz2_yau.algebra, kz2_yau.coalgebra
    assert p.alpha == (a_.alpha @ a_.alpha) @ a_.beta
    assert p.beta == (a_.alpha @ a_.alpha) @ (a_.beta @ a_.beta) @ (c_.psi @ c_.omega)


def test_prelie_noninv_with_singular_twists(dual_numbers):
    # a valid weight-zero structure whose product-side maps crush x
    crush = Endo.diagonal([1, 0])
    host = Algebra(2, dual_numbers.mul, ID2, ID2, dual_numbers.unit)
    b = C.trivial_coproduct(host, crush, crush, 0)
    assert axioms.check_infbh_bialgebra(b).passed
    p = C.prelie_noninv(b)
    assert axioms.check_prelie(p).passed


def test_prelie_coalgebra(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        for noninv in (False, True):
            pc = C.prelie_coalgebra(b, noninv=noninv)
            assert axioms.check_prelie_coalgebra(pc).passed, (name, noninv)


def test_prelie_coalgebra_zero_weight(dual_numbers):
    b = C.trivial_coproduct(dual_numbers, ID2, ID2, 0)
    pc = C.prelie_coalgebra(b)
    assert all(x == 0 for p in pc.delta.d for r in p for x in r)


def test_prelie_duality_transport(kz2):
    # the coproduct-side construction on the dual matches the dual of the
    # product-side construction
    dual = C.dualize(kz2)
    pc = C.prelie_coalgebra(dual)
    p = C.prelie_from_bialgebra(kz2)
    # transport: delta[i][j][k] on the dual should equal star[j][k][i]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert pc.delta.d[i][j][k] == p.star.c[j][k][i]


# ---------------------------------------------------------------------------
# Hopf modules


def _idv(n):
    return Endo.identity(n)


def test_hopf_module_free_plain_dim1_is_self(kz2):
    h = C.hopf_module_free(kz2, 1, _idv(1), _idv(1), _idv(1), _idv(1), "plain")
    assert h.module.action == kz2.algebra.mul.map
    assert h.comodule.coaction == kz2.coalgebra.comul.map
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_free_unital(passing_bialgebras):
    for name, b in passing_bialgebras.items():
        for vdim in (1, 2):
            h = C.hopf_module_free(b, vdim, _idv(vdim), _idv(vdim),
                                   _idv(vdim), _idv(vdim), "unital")
            assert axioms.check_hopf_module(h).passed, (name, vdim)


def test_hopf_module_free_counital(trivial_left, trivial_right):
    for b in (trivial_left, trivial_right):
        dual = C.dualize(b)
        for vdim in (1, 2):
            h = C.hopf_module_free(dual, vdim, _idv(vdim), _idv(vdim),
                                   _idv(vdim), _idv(vdim), "counital")
            assert axioms.check_hopf_module(h).passed


def _weight_zero_pair(dual_numbers):
    r = Elem2(2, ((0, 1), (0, 0)))  # 1 (x) x solves the weight-0 residual
    b = C.delta_r(dual_numbers, ID2, ID2, r, 0)
    return r, b


def test_hopf_module_free_comodule_w0(dual_numbers):
    _, b = _weight_zero_pair(dual_numbers)
    assert axioms.check_infbh_bialgebra(b).passed
    n = regular_left_comodule(b.coalgebra)
    h = C.hopf_module_free(b, 2, ID2, ID2, n.psi_m, n.omega_m,
                           "comodule_w0", extra=n)
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_free_module_w0(dual_numbers):
    _, b = _weight_zero_pair(dual_numbers)
    dual = C.dualize(b)
    n = regular_left_module(dual.algebra)
    h = C.hopf_module_free(dual, 2, n.alpha_m, n.beta_m, ID2, ID2,
                           "module_w0", extra=n)
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_free_module_w0_zero_counit(dual_numbers):
    # a zero counit forces psi = omega = 0 (so no unit, which they would
    # have to fix); the eps(b) term vanishes, so no inverse of omega is
    # taken and the action is the plain one
    zero = Endo(2, ((0, 0), (0, 0)))
    zero_comul = Comul(2, (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    algebra = Algebra(2, dual_numbers.mul, ID2, ID2, unit=None)
    b = Bialgebra(algebra, Coalgebra(2, zero_comul, zero, zero, Covec(2, (0, 0))), 0)
    assert axioms.check_infbh_bialgebra(b).passed
    n = regular_left_module(algebra)
    h = C.hopf_module_free(b, 2, n.alpha_m, n.beta_m, zero, zero, "module_w0", extra=n)
    plain = C.hopf_module_free(b, 2, n.alpha_m, n.beta_m, zero, zero, "plain")
    assert h == plain
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_free_rejects_nonzero_weight(kz2):
    with pytest.raises(PreconditionFailed):
        C.hopf_module_free(kz2, 2, ID2, ID2, ID2, ID2, "comodule_w0",
                           extra=regular_left_comodule(kz2.coalgebra))


def test_hopf_module_from_qt_regular(dual_numbers, r_one):
    b = C.delta_r(dual_numbers, ID2, ID2, r_one, 1)
    h = C.hopf_module_from_qt(b, r_one, regular_left_module(dual_numbers), ID2, ID2)
    assert axioms.check_hopf_module(h).passed
    # the coaction is m -> -1 (x) m here
    # the coaction table cell [1][0][1] is row (0, 1) = 1, column 1 of the map
    assert h.comodule.coaction.a[1][1] == Q(-1)


def test_hopf_module_from_qt_anti_zero_coaction(dual_numbers, r_one):
    b = C.delta_r(dual_numbers, ID2, ID2, r_one, -1, anti=True)
    h = C.hopf_module_from_qt(b, r_one, regular_left_module(dual_numbers),
                              ID2, ID2, anti=True)
    assert all(x == 0 for r in h.comodule.coaction.a for x in r)
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_from_qt_zero_r(dual_numbers):
    b = C.delta_r(dual_numbers, ID2, ID2, Elem2.zero(2), 0)
    h = C.hopf_module_from_qt(b, Elem2.zero(2), regular_left_module(dual_numbers),
                              ID2, ID2)
    assert all(x == 0 for r in h.comodule.coaction.a for x in r)
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_from_coqt(dual_numbers, r_one):
    cdual = C.dual_coalgebra(dual_numbers)
    sig = BiForm(2, r_one.m)
    b = C.mu_sigma(cdual, ID2, ID2, sig, 1)
    h = C.hopf_module_from_coqt(b, sig, regular_left_comodule(b.coalgebra), ID2, ID2)
    assert axioms.check_hopf_module(h).passed


def test_hopf_module_from_coqt_anti(dual_numbers, r_one):
    cdual = C.dual_coalgebra(dual_numbers)
    sig = BiForm(2, r_one.m)
    b = C.mu_sigma(cdual, ID2, ID2, sig, -1, anti=True)
    h = C.hopf_module_from_coqt(b, sig, regular_left_comodule(b.coalgebra),
                                ID2, ID2, anti=True)
    assert axioms.check_hopf_module(h).passed
