"""Constructive theorems as total functions from validated inputs.

Constructors validate their preconditions eagerly and raise named errors;
they never emit unchecked structures. The one deliberate exception:
coproducts induced by an element r (and products induced by a bilinear
form) are emitted even when r fails the Yang-Baxter residual, because the
derivation property holds regardless and coassociativity is the caller's
obligation via :mod:`bihom.ybe`.

Every constructed tensor is a composite of the records' LinMaps, exactly
as the checkers in :mod:`bihom.axioms` build both sides of an identity,
and the new record stores that composite as it is.
"""

from __future__ import annotations

from . import axioms
from .errors import (
    DimensionMismatch, MissingCounit, MissingUnit, NonCommutingMaps, NotBialgebra,
    NotCoquasitriangular, NotInvariant, NotMorphism, NotQuasitriangular,
    NotYBESolution, PreconditionFailed, WeightMismatch,
)
from .exactcore import (
    BiForm, Comul, Covec, Elem2, Endo, LinMap, Mul, Q, Vec, biform_invariant_under,
    endo_inverse, endo_tensor, first_noncommuting, first_nonmultiplicative, square_map,
)
from .structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented, Dendriform,
    HopfModule, LeftComodule, LeftModule, PreLie, PreLieCoalgebra, RotaBaxter,
    twisted_left_action, twisted_right_action,
)


def _endo_comultiplicative(f: Endo, d: Comul) -> bool:
    return square_map(f) @ d.map == d.map @ f.map


def _require_square_maps(dim: int, *endos: Endo):
    for f in endos:
        if f.dim != dim:
            raise PreconditionFailed("twist map has wrong dimension")


def _check_unital_twist_compat(a: Algebra, psi: Endo, omega: Endo):
    """The shared hypotheses for coproducts on a unital algebra:
    the four-map commutations, psi/omega multiplicative, both fixing 1."""
    _require_square_maps(a.dim, psi, omega)
    for f, g in ((a.alpha, psi), (a.alpha, omega), (a.beta, psi), (a.beta, omega)):
        if not f.commutes_with(g):
            raise PreconditionFailed("(12.1)")
    for f in (psi, omega):
        if first_nonmultiplicative(f, a.mul) is not None:
            raise PreconditionFailed("(12.3)")
    if a.unit is None:
        raise MissingUnit("a unital algebra is required")
    for f in (psi, omega):
        if f(a.unit) != a.unit:
            raise PreconditionFailed("(12.30)")


def _check_counital_twist_compat(c: Coalgebra, alpha: Endo, beta: Endo):
    """Dual hypotheses on a counital coalgebra."""
    _require_square_maps(c.dim, alpha, beta)
    for f, g in ((alpha, c.psi), (alpha, c.omega), (beta, c.psi), (beta, c.omega)):
        if not f.commutes_with(g):
            raise PreconditionFailed("(12.1)")
    for f in (alpha, beta):
        if not _endo_comultiplicative(f, c.comul):
            raise PreconditionFailed("(12.2)")
    if c.counit is None:
        raise MissingCounit("a counital coalgebra is required")
    eps = c.counit.map
    for f in (alpha, beta):
        if eps @ f.map != eps:
            raise PreconditionFailed("(12.31)")


# ---------------------------------------------------------------------------
# twisting and the two trivial structures


def yau_twist(b: Bialgebra, alpha: Endo, beta: Endo, psi: Endo, omega: Endo) -> Bialgebra:
    """Deform an untwisted bialgebra by four commuting (co)algebra morphisms.

    The input must carry identity structure maps; the output multiplies by
    mul o (alpha (x) beta) and comultiplies by (omega (x) psi) o comul.
    """
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    for f in (a_.alpha, a_.beta, c_.psi, c_.omega):
        if not f.is_identity():
            raise PreconditionFailed("input structure maps must all be the identity")
    maps = {"alpha": alpha, "beta": beta, "psi": psi, "omega": omega}
    _require_square_maps(n, *maps.values())
    for f in maps.values():
        if first_nonmultiplicative(f, a_.mul) is not None:
            raise NotMorphism("a twist map is not an algebra morphism")
        if not _endo_comultiplicative(f, c_.comul):
            raise NotMorphism("a twist map is not a coalgebra morphism")
        if a_.unit is not None and f(a_.unit) != a_.unit:
            raise NotMorphism("a twist map does not fix the unit")
        if c_.counit is not None and c_.counit.map @ f.map != c_.counit.map:
            raise NotMorphism("a twist map does not preserve the counit")
    if first_noncommuting(maps) is not None:
        raise NonCommutingMaps("twist maps must pairwise commute")

    twisted_mul = Mul(n, a_.mul.map @ alpha.map.tensor(beta.map))
    twisted_comul = Comul(n, omega.map.tensor(psi.map) @ c_.comul.map)
    return Bialgebra(
        Algebra(n, twisted_mul, alpha, beta, a_.unit),
        Coalgebra(n, twisted_comul, psi, omega, c_.counit),
        b.weight)


def trivial_coproduct(a: Algebra, psi: Endo, omega: Endo, weight, side: str = "left") -> Bialgebra:
    """Equip a unital algebra with D(a) = -weight * (omega(a) (x) 1)
    (side='left') or -weight * (1 (x) psi(a)) (side='right')."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    weight = Q(weight)
    _check_unital_twist_compat(a, psi, omega)
    n = a.dim
    eta = a.unit.map
    half = omega.map.tensor(eta) if side == "left" else eta.tensor(psi.map)
    comul = Comul(n, half.scale(-weight))
    return Bialgebra(a, Coalgebra(n, comul, psi, omega, counit=None), weight)


def trivial_product(c: Coalgebra, alpha: Endo, beta: Endo, weight, side: str = "left") -> Bialgebra:
    """Equip a counital coalgebra with a.b = -weight * alpha(a) eps(b)
    (side='left') or -weight * eps(a) beta(b) (side='right')."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    weight = Q(weight)
    _check_counital_twist_compat(c, alpha, beta)
    n = c.dim
    eps = c.counit.map
    half = alpha.map.tensor(eps) if side == "left" else eps.tensor(beta.map)
    mul = Mul(n, half.scale(-weight))
    return Bialgebra(Algebra(n, mul, alpha, beta, unit=None), c, weight)


# ---------------------------------------------------------------------------
# duality: a coalgebra-side construction on C is its algebra-side twin on the
# dual algebra C* = _dual_algebra(C), transposed back; a bilinear form sigma
# on C is the element sigma^T of C* (x) C*. Preconditions are checked on C first.


def dualize(b: Bialgebra) -> Bialgebra:
    """The dual bialgebra on the dual basis (an involution)."""
    return Bialgebra(_dual_algebra(b.coalgebra), dual_coalgebra(b.algebra), b.weight)


def _dual_algebra(c: Coalgebra) -> Algebra:
    """The algebra on the dual basis of a coalgebra (with its evaluation unit)."""
    n = c.dim
    mul = Mul(n, c.comul.map.transpose())
    unit = Vec(n, c.counit.map.transpose()) if c.counit is not None else None
    return Algebra(n, mul, c.omega.transpose(), c.psi.transpose(), unit)


def dual_coalgebra(a: Algebra) -> Coalgebra:
    """The coalgebra on the dual basis of an algebra (with its evaluation counit)."""
    n = a.dim
    comul = Comul(n, a.mul.map.transpose())
    counit = Covec(n, a.unit.map.transpose()) if a.unit is not None else None
    return Coalgebra(n, comul, a.beta.transpose(), a.alpha.transpose(), counit)


# ---------------------------------------------------------------------------
# tensor products of (co)augmented structures


def aug_tensor_product(x: Augmented, y: Augmented) -> tuple[Algebra, Augmented]:
    """The weighted tensor-product algebra of two augmented algebras.

    (a (x) b) . (a' (x) b') = chi_B(b) aa' (x) beta_B(b')
                            + chi_A(a') alpha_A(a) (x) bb'
                            + weight chi_A(a') chi_B(b) alpha_A(a) (x) beta_B(b')
    """
    if x.weight != y.weight:
        raise WeightMismatch(f"weights {x.weight} and {y.weight} differ")
    a_alg, b_alg = x.algebra, y.algebra
    na, nb = a_alg.dim, b_alg.dim
    dim = na * nb
    w = x.weight
    chi_a, chi_b = x.chi.map, y.chi.map
    left = a_alg.alpha.map.tensor(chi_a)     # a (x) a' -> chi_A(a') alpha_A(a)
    right = chi_b.tensor(b_alg.beta.map)     # b (x) b' -> chi_B(b) beta_B(b')
    mul = Mul(dim, (a_alg.mul.map.tensor(right) + left.tensor(b_alg.mul.map)
                   + left.tensor(right).scale(w)).permute_cols((na, nb, na, nb), (0, 2, 1, 3)))
    alpha = endo_tensor(a_alg.alpha, b_alg.alpha)
    beta = endo_tensor(a_alg.beta, b_alg.beta)
    chi = Covec(dim, chi_a.tensor(chi_b))
    algebra = Algebra(dim, mul, alpha, beta, unit=None)
    return algebra, Augmented(algebra, chi, w)


def coaug_tensor_product(x: Coaugmented, y: Coaugmented) -> tuple[Coalgebra, Coaugmented]:
    """The weighted tensor-product coalgebra of two coaugmented coalgebras:
    the dual of the tensor-product algebra of their duals."""
    if x.weight != y.weight:
        raise WeightMismatch(f"weights {x.weight} and {y.weight} differ")
    duals = (Augmented(_dual_algebra(z.coalgebra), Covec(z.coalgebra.dim, z.zeta.map.transpose()),
                       z.weight) for z in (x, y))
    algebra, product = aug_tensor_product(*duals)
    coalgebra = dual_coalgebra(algebra)
    return coalgebra, Coaugmented(coalgebra, Vec(algebra.dim, product.chi.map.transpose()),
                                  product.weight)


@axioms.checker
def check_delta_morphism(b: Bialgebra) -> axioms.Laws:
    """Is the coproduct multiplicative into the weighted tensor square?

    Needs a counit; the target algebra is the augmented tensor product of
    two copies of the input with its counit as augmentation.
    """
    if b.coalgebra.counit is None:
        raise MissingCounit("the morphism target needs the counit as augmentation")
    n = b.dim
    aug = Augmented(b.algebra, b.coalgebra.counit, b.weight)
    square, _ = aug_tensor_product(aug, aug)
    de = b.coalgebra.comul.map
    yield ("(T2.21a)", de @ b.algebra.mul.map, square.mul.map @ de.tensor(de),
           (n, n), (n, n), ("e", "e"))


@axioms.checker
def check_mu_comorphism(b: Bialgebra) -> axioms.Laws:
    """Is the product comultiplicative from the weighted tensor square?"""
    if b.algebra.unit is None:
        raise MissingUnit("the comorphism source needs the unit as coaugmentation")
    n = b.dim
    coaug = Coaugmented(b.coalgebra, b.algebra.unit, b.weight)
    square, _ = coaug_tensor_product(coaug, coaug)
    mu = b.algebra.mul.map
    yield ("(T2.21b)", b.coalgebra.comul.map @ mu, mu.tensor(mu) @ square.comul.map,
           (n, n), (n, n), ("e", "e"))


# ---------------------------------------------------------------------------
# coproducts from an element r, products from a bilinear form


def _check_r_preconditions(a: Algebra, psi: Endo, omega: Endo, r: Elem2):
    if r.dim != a.dim:
        raise DimensionMismatch(f"r has dim {r.dim}, the algebra has dim {a.dim}")
    _check_unital_twist_compat(a, psi, omega)
    for f, name in ((a.alpha, "alpha"), (a.beta, "beta"), (psi, "psi"), (omega, "omega")):
        if square_map(f) @ r.map != r.map:  # (f (x) f)(r) = r
            raise NotInvariant(f"r is not {name}-invariant")


def delta_r(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight,
            anti: bool = False) -> Bialgebra:
    """The coproduct induced by r on a unital algebra with invertible twists.

    D_r(x) = alphainv(x) |> r - r <| betainv(x) - weight * (omega(x) (x) 1);
    with anti=True the last term is weight * (1 (x) psi(x)) instead. The
    derivation law holds unconditionally; coassociativity is not checked
    here and is the caller's obligation through the Yang-Baxter residual.
    """
    weight = Q(weight)
    _check_r_preconditions(a, psi, omega, r)
    comul = Comul(a.dim, _delta_r_map(a, psi, omega, r, weight, anti))
    return Bialgebra(a, Coalgebra(a.dim, comul, psi, omega, counit=None), weight)


def _delta_r_map(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight: Q,
                 anti: bool) -> LinMap:
    """The induced coproduct as a map A -> A (x) A, preconditions assumed
    already verified:

        (mu (x) beta)(omega alphainv (x) r) - (alpha (x) mu)(r (x) psi betainv)
        - weight * (omega (x) eta)          (anti: weight * (eta (x) psi))
    """
    alpha_inv = endo_inverse(a.alpha).map
    beta_inv = endo_inverse(a.beta).map
    r_map = r.map
    eta = a.unit.map
    tail = eta.tensor(psi.map) if anti else omega.map.tensor(eta)
    return (twisted_left_action(a, omega, r_map, 2) @ alpha_inv
            - twisted_right_action(a, psi, r_map, 2) @ beta_inv
            - tail.scale(weight))


def mu_sigma(c: Coalgebra, alpha: Endo, beta: Endo, sigma: BiForm, weight,
             anti: bool = False) -> Bialgebra:
    """The product induced by a bilinear form on a counital coalgebra.

    x.y = alpha omegainv(x_1) sigma(x_2, psi(y))
        - sigma(omega(x), y_1) beta psiinv(y_2)
        - weight * alpha(x) eps(y)          (anti: weight * eps(x) beta(y))
    """
    weight = Q(weight)
    if sigma.dim != c.dim:
        raise DimensionMismatch(f"sigma has dim {sigma.dim}, the coalgebra has dim {c.dim}")
    _check_counital_twist_compat(c, alpha, beta)
    for f, name in ((alpha, "alpha"), (beta, "beta"), (c.psi, "psi"), (c.omega, "omega")):
        if not biform_invariant_under(f, sigma):
            raise NotInvariant(f"sigma is not {name}-invariant")
    r = Elem2(c.dim, sigma.map.transpose())
    dmap = _delta_r_map(_dual_algebra(c), beta.transpose(), alpha.transpose(), r, weight, anti)
    mul = Mul(c.dim, dmap.transpose())
    return Bialgebra(Algebra(c.dim, mul, alpha, beta, unit=None), c, weight)


# ---------------------------------------------------------------------------
# Hopf-module builders


def _pairwise_commuting(maps: dict[str, Endo]):
    pair = first_noncommuting(maps)
    if pair is not None:
        raise PreconditionFailed(f"{pair[0]} and {pair[1]} must commute")


def _require_valid_bialgebra(b: Bialgebra):
    if not axioms.check_infbh_bialgebra(b).passed:
        raise NotBialgebra("input fails the bialgebra axioms")


def hopf_module_free(b: Bialgebra, v_dim: int, alpha_v: Endo, beta_v: Endo,
                     psi_v: Endo, omega_v: Endo, variant: str = "plain",
                     extra: LeftModule | LeftComodule | None = None) -> HopfModule:
    """The Hopf-module structures on A (x) V (or A (x) N).

    variant='plain':    act by mul (x) beta_V, coact by comul (x) psi_V;
    variant='unital':   plain action, coaction gains weight * omega(a)(x)1(x)psi_V(v);
    variant='counital': plain coaction, action gains weight * eps(b) alpha(a)(x)beta_V(v);
    variant='comodule_w0' (weight 0, alpha invertible): V is a left comodule N,
        coaction gains omega alphainv(a) n_-1 (x) 1 (x) n_0;
    variant='module_w0' (weight 0, omega invertible, counit): V is a left
        module N, action gains eps(b) alpha omegainv(a_1) (x) (a_2 |> n).
    """
    if variant not in ("plain", "unital", "counital", "comodule_w0", "module_w0"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_valid_bialgebra(b)
    a_, c_ = b.algebra, b.coalgebra
    na = b.dim
    _pairwise_commuting({"alpha_v": alpha_v, "beta_v": beta_v,
                         "psi_v": psi_v, "omega_v": omega_v})

    if variant == "unital" and a_.unit is None:
        raise PreconditionFailed("variant 'unital' needs a unit")
    if variant == "counital" and c_.counit is None:
        raise PreconditionFailed("variant 'counital' needs a counit")
    if variant in ("comodule_w0", "module_w0") and b.weight != 0:
        raise PreconditionFailed(f"variant {variant!r} needs weight 0")
    if variant == "comodule_w0":
        if a_.unit is None:
            raise PreconditionFailed("variant 'comodule_w0' needs a unit")
        if not isinstance(extra, LeftComodule) or extra.dim != v_dim:
            raise PreconditionFailed("variant 'comodule_w0' needs comodule data for V")
        if extra.psi_m != psi_v or extra.omega_m != omega_v:
            raise PreconditionFailed("comodule maps must match the supplied V maps")
        if not axioms.check_left_comodule(extra).passed:
            raise PreconditionFailed("V comodule data fails its axioms")
    if variant == "module_w0":
        if c_.counit is None:
            raise PreconditionFailed("variant 'module_w0' needs a counit")
        if not isinstance(extra, LeftModule) or extra.dim != v_dim:
            raise PreconditionFailed("variant 'module_w0' needs module data for V")
        if extra.alpha_m != alpha_v or extra.beta_m != beta_v:
            raise PreconditionFailed("module maps must match the supplied V maps")
        if not axioms.check_left_module(extra).passed:
            raise PreconditionFailed("V module data fails its axioms")

    nv = v_dim
    dim = na * nv
    mu, de = a_.mul.map, c_.comul.map
    ident_v = LinMap.identity(nv)

    # left action on A (x) V
    act = mu.tensor(beta_v.map)
    if variant == "counital":
        act = act + (a_.alpha.map.tensor(c_.counit.map)
                     .tensor(beta_v.map).scale(b.weight))
    if variant == "module_w0" and c_.counit.map != LinMap.zero(1, na):  # a zero counit adds nothing
        act = act + ((a_.alpha @ endo_inverse(c_.omega)).map
                     .tensor(extra.action)
                     @ de.tensor(c_.counit.map).tensor(ident_v))

    # left coaction on A (x) V
    coact = de.tensor(psi_v.map)
    if variant == "unital":
        coact = coact + (c_.omega.map.tensor(a_.unit.map)
                         .tensor(psi_v.map).scale(b.weight))
    if variant == "comodule_w0":
        coact = coact + (mu.tensor(a_.unit.map).tensor(ident_v)
                         @ (c_.omega @ endo_inverse(a_.alpha)).map
                         .tensor(extra.coaction))

    module = LeftModule(a_, dim, act,
                        endo_tensor(a_.alpha, alpha_v), endo_tensor(a_.beta, beta_v))
    comodule = LeftComodule(c_, dim, coact,
                            endo_tensor(c_.psi, psi_v), endo_tensor(c_.omega, omega_v))
    return HopfModule(b, module, comodule)


def hopf_module_from_qt(b: Bialgebra, r: Elem2, module: LeftModule,
                        psi_m: Endo, omega_m: Endo, anti: bool = False) -> HopfModule:
    """Turn a module over an r-induced bialgebra into a Hopf module.

    rho(m) = -alpha(r1) (x) r2 |> psi_m betainv_m(m), plus (anti case)
    -weight * 1 (x) psi_m(m). Requires the matching Yang-Baxter
    characterization for r and full map compatibility of the module data.
    """
    from . import ybe as ybe_mod

    a_ = b.algebra
    if module.over != a_:
        raise PreconditionFailed("module is not over the bialgebra's algebra")
    expected = delta_r(a_, b.coalgebra.psi, b.coalgebra.omega, r, b.weight, anti=anti)
    if expected.coalgebra.comul != b.coalgebra.comul:
        raise PreconditionFailed("bialgebra coproduct is not the one induced by r")
    report = ybe_mod.abhybe_residual(a_, b.coalgebra.psi, b.coalgebra.omega,
                                     r, b.weight, anti=anti)
    if not report.is_solution:
        kind = "anti-quasitriangular" if anti else "quasitriangular"
        raise NotQuasitriangular(f"r does not solve the {kind} Yang-Baxter residual")
    if not axioms.check_left_module(module).passed:
        raise PreconditionFailed("module data fails its axioms")
    beta_m_inv = endo_inverse(module.beta_m)
    nm = module.dim
    _pairwise_commuting({"alpha_m": module.alpha_m, "beta_m": module.beta_m,
                         "psi_m": psi_m, "omega_m": omega_m})
    gam = module.action
    for f_m, f_a, name in ((psi_m, b.coalgebra.psi, "psi"), (omega_m, b.coalgebra.omega, "omega")):
        fm = f_m.map
        if fm @ gam != gam @ f_a.map.tensor(fm):
            raise PreconditionFailed(f"{name} maps do not intertwine the action")

    coact = (a_.alpha.map.tensor(gam)
             @ r.map.tensor((psi_m @ beta_m_inv).map)).scale(-1)
    if anti:
        coact = coact - a_.unit.map.tensor(psi_m.map).scale(b.weight)
    comodule = LeftComodule(b.coalgebra, nm, coact,
                            psi_m, omega_m)
    return HopfModule(b, module, comodule)


def hopf_module_from_coqt(b: Bialgebra, sigma: BiForm, comodule: LeftComodule,
                          alpha_m: Endo, beta_m: Endo, anti: bool = False) -> HopfModule:
    """Turn a comodule over a sigma-induced bialgebra into a Hopf module.

    c |> m = -sigma(omega(c), m_-1) beta_m psiinv_m(m_0), plus (anti case)
    -weight * eps(c) beta_m(m).
    """
    from . import ybe as ybe_mod

    c_ = b.coalgebra
    if comodule.over != c_:
        raise PreconditionFailed("comodule is not over the bialgebra's coalgebra")
    expected = mu_sigma(c_, b.algebra.alpha, b.algebra.beta, sigma, b.weight, anti=anti)
    if expected.algebra.mul != b.algebra.mul:
        raise PreconditionFailed("bialgebra product is not the one induced by sigma")
    report = ybe_mod.coabhybe_residual(c_, b.algebra.alpha, b.algebra.beta,
                                       sigma, b.weight, anti=anti)
    if not report.is_solution:
        kind = "anti-coquasitriangular" if anti else "coquasitriangular"
        raise NotCoquasitriangular(f"sigma does not solve the {kind} residual")
    if not axioms.check_left_comodule(comodule).passed:
        raise PreconditionFailed("comodule data fails its axioms")
    psi_m_inv = endo_inverse(comodule.psi_m)
    nm = comodule.dim
    _pairwise_commuting({"alpha_m": alpha_m, "beta_m": beta_m,
                         "psi_m": comodule.psi_m, "omega_m": comodule.omega_m})
    rho = comodule.coaction
    for f_m, f_a, name in ((alpha_m, b.algebra.alpha, "alpha"), (beta_m, b.algebra.beta, "beta")):
        fm, fa = f_m.map, f_a.map
        if rho @ fm != fa.tensor(fm) @ rho:
            raise PreconditionFailed(f"{name} maps do not intertwine the coaction")

    sig = sigma.map
    act = (sig.tensor((beta_m @ psi_m_inv).map) @ c_.omega.map.tensor(rho)).scale(-1)
    if anti:
        act = act - c_.counit.map.tensor(beta_m.map).scale(b.weight)
    module = LeftModule(b.algebra, nm, act,
                        alpha_m, beta_m)
    return HopfModule(b, module, comodule)


# ---------------------------------------------------------------------------
# Rota-Baxter, dendriform, pre-Lie chains


def rota_baxter_from_r(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight,
                       sign: str = "+") -> RotaBaxter:
    """The Rota-Baxter operator induced by a Yang-Baxter solution.

    R(x) = -/+ beta^2 psi(r1) . (alphainv betainv(x) . alpha omega(r2)),
    the minus branch for sign '+' (r solving the +weight residual) and the
    plus branch for sign '-' (r solving the -weight residual).
    """
    from . import ybe as ybe_mod

    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    weight = Q(weight)
    _check_r_preconditions(a, psi, omega, r)
    for f in (psi, omega):
        endo_inverse(f)  # bijectivity required; raises SingularMap
    report = ybe_mod.abhybe_residual(a, psi, omega, r, weight, anti=(sign == "-"))
    if not report.is_solution:
        raise NotYBESolution(f"r does not solve the ({sign}weight) residual")
    n = a.dim
    lead = ((a.beta @ a.beta) @ psi).map
    inner = (endo_inverse(a.alpha) @ endo_inverse(a.beta)).map
    tail = (a.alpha @ omega).map
    mu = a.mul.map
    # x -> r1 (x) inner(x) (x) r2 -> lead(r1) . (inner(x) . tail(r2))
    op = (mu @ lead.tensor(mu @ LinMap.identity(n).tensor(tail))
          @ r.map.tensor(inner).permute_rows((n, n, n), (0, 2, 1)))
    if sign == "+":
        op = op.scale(-1)
    return RotaBaxter(a, Endo(n, op), weight)


def dendriform_from_rb(rb: RotaBaxter, variant: str = "prec") -> Dendriform:
    """Split the product along a Rota-Baxter operator.

    variant='prec': x < y = x R(y) + weight x y,  x > y = R(x) y
    variant='succ': x < y = x R(y),               x > y = R(x) y + weight x y
    """
    if variant not in ("prec", "succ"):
        raise ValueError(f"variant must be 'prec' or 'succ', got {variant!r}")
    a = rb.algebra
    n = a.dim
    mu, op, ident = a.mul.map, rb.op.map, LinMap.identity(n)
    x_ry, rx_y, xy = mu @ ident.tensor(op), mu @ op.tensor(ident), mu.scale(rb.weight)
    prec = x_ry + xy if variant == "prec" else x_ry
    succ = rx_y if variant == "prec" else rx_y + xy
    return Dendriform(n, Mul(n, prec), Mul(n, succ), a.alpha, a.beta)


def _prelie_star(b: Bialgebra, lead: Endo, mid: Endo, tail: Endo) -> Mul:
    """x * y = (lead(y_1) . mid(x)) . tail(y_2) as a product tensor."""
    n = b.dim
    mu = b.algebra.mul.map
    first = mu @ lead.map.tensor(mid.map)
    # legs (x, y_1, y_2) -> A; Delta on the last leg by contracting the
    # reshaped (out, x) x (y_1, y_2) map with Delta, i.e. h @ (id (x) Delta)
    h = (mu @ first.tensor(tail.map)).permute_cols((n, n, n), (1, 0, 2))
    return Mul(n, (h.reshape(n * n, n * n) @ b.coalgebra.comul.map).reshape(n, n * n))


def prelie_from_bialgebra(b: Bialgebra) -> PreLie:
    """x * y = (alpha^-2 beta omegainv(y_1) . betainv(x)) . psiinv(y_2),
    on a valid bialgebra with all four maps invertible."""
    _require_valid_bialgebra(b)
    a_, c_ = b.algebra, b.coalgebra
    alpha_inv = endo_inverse(a_.alpha)
    lead = (alpha_inv @ alpha_inv) @ a_.beta @ endo_inverse(c_.omega)
    star = _prelie_star(b, lead, endo_inverse(a_.beta), endo_inverse(c_.psi))
    return PreLie(b.dim, star, a_.alpha, a_.beta)


def prelie_noninv(b: Bialgebra) -> PreLie:
    """x * y = (beta^2 psi(y_1) . alpha(x)) . alpha^2 beta omega(y_2), with
    composite twists alpha^2 beta and alpha^2 beta^2 psi omega; no
    invertibility needed."""
    _require_valid_bialgebra(b)
    a_, c_ = b.algebra, b.coalgebra
    alpha2beta = (a_.alpha @ a_.alpha) @ a_.beta
    star = _prelie_star(b, (a_.beta @ a_.beta) @ c_.psi, a_.alpha, alpha2beta @ c_.omega)
    tail_twist = alpha2beta @ a_.beta @ c_.psi @ c_.omega
    return PreLie(b.dim, star, alpha2beta, tail_twist)


def prelie_coalgebra(b: Bialgebra, noninv: bool = False) -> PreLieCoalgebra:
    """The two coproduct-side analogues of the pre-Lie constructions.

    noninv=False: D*(c) = psiinv(c_12) (x) alphainv psi omega^-2(c_11) . betainv(c_2)
                  with twists (psi, omega); all four maps must be invertible.
    noninv=True:  D*(c) = omega(c_12) (x) beta psi^2(c_11) . alpha psi omega^2(c_2)
                  with twists (psi omega^2, alpha beta psi^2 omega^2).
    """
    _require_valid_bialgebra(b)
    a_, c_ = b.algebra, b.coalgebra
    n = b.dim
    if noninv:
        first_map = c_.omega
        lead_map = (a_.beta @ c_.psi) @ c_.psi
        tail_map = (a_.alpha @ c_.psi) @ c_.omega @ c_.omega
        psi_out = c_.psi @ c_.omega @ c_.omega
        omega_out = (a_.alpha @ a_.beta @ c_.psi) @ c_.psi @ c_.omega @ c_.omega
    else:
        omega_inv = endo_inverse(c_.omega)
        first_map = endo_inverse(c_.psi)
        lead_map = (endo_inverse(a_.alpha) @ c_.psi) @ omega_inv @ omega_inv
        tail_map = endo_inverse(a_.beta)
        psi_out = c_.psi
        omega_out = c_.omega
    star = _prelie_star(dualize(b), lead_map.transpose(), first_map.transpose(),
                        tail_map.transpose())
    return PreLieCoalgebra(n, Comul(n, star.map.transpose()), psi_out, omega_out)
