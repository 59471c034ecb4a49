"""Hand-built coalgebra-side constructions, kept as test oracles.

`bihom` computes each coalgebra-side notion as its algebra-side twin on the
dual algebra, transposed back. The functions here evaluate the same notions
directly on the coalgebra, by their own compositions of LinMaps, so the
property tests can compare two independent implementations.
"""

from __future__ import annotations

from bihom.errors import BihomError, DimensionMismatch, MissingCounit, WeightMismatch
from bihom.exactcore import (
    BiForm, Comul, Elem3, Endo, LinMap, Q, Vec, biform_invariant_under, endo_inverse,
    endo_is_invertible, endo_tensor,
)
from bihom.structures import Bialgebra, Coalgebra, Coaugmented, PreLieCoalgebra
from bihom.ybe import YbeReport


def coabhybe_residual(c: Coalgebra, alpha: Endo, beta: Endo, sigma: BiForm, weight,
                      anti: bool = False) -> YbeReport:
    """Residual of a bilinear form on a counital coalgebra, as the rank-3
    value tensor of the defining identity's LHS minus RHS on basis triples."""
    weight = Q(weight)
    if c.counit is None:
        raise MissingCounit("the co-residual needs the counit")
    if sigma.dim != c.dim:
        raise DimensionMismatch(f"sigma has dim {sigma.dim}, the coalgebra has dim {c.dim}")
    n = c.dim
    sign = -weight if anti else weight
    i1 = LinMap.identity(n)
    al, be = alpha.map, beta.map
    ps, om = c.psi.map, c.omega.map
    de = c.comul.map
    sig = sigma.map
    eps = c.counit.map

    # each term is a functional on basis triples (i, j, k): two sigma values,
    # each an n x n matrix pair(f, g), summed against Delta of the third
    # index. contract reads the row of left, the row of right and the
    # argument of Delta as the indices perm[0], perm[1], perm[2] of (i, j, k).
    def pair(f: LinMap, g: LinMap) -> LinMap:      # [u][v] = sigma(f(u), g(v))
        return f.transpose() @ sig.reshape(n, n) @ g

    def contract(left: LinMap, right: LinMap, perm) -> LinMap:
        return (left.tensor(right) @ de).reshape(1, n ** 3).permute_cols((n,) * 3, perm)

    term1 = contract(pair(al, be @ om).transpose(), pair(i1, ps).transpose(), (2, 1, 0))
    term2 = contract(pair(om, i1), pair(i1, ps).transpose(), (0, 2, 1))
    term3 = contract(pair(om, i1), pair(al @ ps, be), (1, 0, 2))
    s_a_b_eps = (sig @ al.tensor(be)).tensor(eps).permute_cols((n,) * 3, (0, 2, 1))
    value = term1 - term2 + term3 - s_a_b_eps.scale(sign)
    residual = Elem3(n, value.transpose())

    characterization: dict[str, bool] = {}
    invariant = all(biform_invariant_under(f, sigma) for f in (alpha, beta, c.psi, c.omega))
    if invariant and endo_is_invertible(c.psi) and endo_is_invertible(c.omega):
        try:
            characterization.update(_coqt_characterization(
                c, alpha, beta, sigma, weight, sig, term1, term3, s_a_b_eps))
        except BihomError:
            characterization = {}
    return YbeReport(residual, residual.is_zero(), characterization)


def _coqt_characterization(c: Coalgebra, alpha: Endo, beta: Endo, sigma: BiForm,
                           weight: Q, sig: LinMap, term1: LinMap, term3: LinMap,
                           s_a_b_eps: LinMap) -> dict[str, bool]:
    """The product and dual characterizations of both induced products, as
    functionals on basis triples (i, j, k)."""
    n = c.dim
    i1 = LinMap.identity(n)
    eps = c.counit.map
    s_id_b = sig @ i1.tensor(beta.map)       # sigma(u, beta(k))
    s_a_id = sig @ alpha.map.tensor(i1)      # sigma(alpha(i), u)

    characterization: dict[str, bool] = {}
    for anti_flag, key_prod, key_dual in ((False, "(01.06)", "(01.07)"),
                                          (True, "(01.10)", "(01.11)")):
        mu = mu_sigma_map(c, alpha, beta, sigma, weight, anti_flag)
        lhs = s_id_b @ mu.tensor(i1)                 # sigma(ij, beta(k))
        rhs = term3.scale(-1)
        lhs2 = s_a_id @ i1.tensor(mu)                # sigma(alpha(i), jk)
        rhs2 = term1
        if anti_flag:
            rhs = rhs - (s_a_b_eps + eps.tensor(sig)).scale(weight)
        else:
            rhs2 = rhs2 - (s_a_b_eps + sig.tensor(eps)).scale(weight)
        characterization[key_prod] = lhs == rhs
        characterization[key_dual] = lhs2 == rhs2
    return characterization


def mu_sigma_map(c: Coalgebra, alpha: Endo, beta: Endo, sigma: BiForm,
                 weight: Q, anti: bool) -> LinMap:
    """The induced product as a map A (x) A -> A, preconditions assumed
    already verified:

        (alpha omegainv (x) sigma)(Delta (x) psi) - (sigma (x) beta psiinv)(omega (x) Delta)
        - weight * (alpha (x) eps)          (anti: weight * (eps (x) beta))
    """
    omega_inv = endo_inverse(c.omega)
    psi_inv = endo_inverse(c.psi)
    de = c.comul.map
    sig = sigma.map
    eps = c.counit.map
    tail = eps.tensor(beta.map) if anti else alpha.map.tensor(eps)
    return ((alpha @ omega_inv).map.tensor(sig) @ de.tensor(c.psi.map)
            - sig.tensor((beta @ psi_inv).map) @ c.omega.map.tensor(de)
            - tail.scale(weight))


def coaug_tensor_product(x: Coaugmented, y: Coaugmented) -> tuple[Coalgebra, Coaugmented]:
    """The weighted tensor-product coalgebra of two coaugmented coalgebras."""
    if x.weight != y.weight:
        raise WeightMismatch(f"weights {x.weight} and {y.weight} differ")
    c_co, d_co = x.coalgebra, y.coalgebra
    nc, nd = c_co.dim, d_co.dim
    dim = nc * nd
    w = x.weight
    zeta_c, zeta_d = x.zeta.map, y.zeta.map
    left = c_co.omega.map.tensor(zeta_c)     # c -> omega_C(c) (x) 1_C
    right = zeta_d.tensor(d_co.psi.map)      # d -> 1_D (x) psi_D(d)
    comul = Comul(dim, (c_co.comul.map.tensor(right) + left.tensor(d_co.comul.map)
                       + left.tensor(right).scale(w)).permute_rows((nc, nc, nd, nd), (0, 2, 1, 3)))
    psi = endo_tensor(c_co.psi, d_co.psi)
    omega = endo_tensor(c_co.omega, d_co.omega)
    zeta = Vec(dim, zeta_c.tensor(zeta_d))
    coalgebra = Coalgebra(dim, comul, psi, omega, counit=None)
    return coalgebra, Coaugmented(coalgebra, zeta, w)


def prelie_coalgebra(b: Bialgebra, noninv: bool = False) -> PreLieCoalgebra:
    """The two coproduct-side analogues of the pre-Lie constructions, on a
    bialgebra the caller has already checked.

    noninv=False: D*(c) = psiinv(c_12) (x) alphainv psi omega^-2(c_11) . betainv(c_2)
                  with twists (psi, omega); all four maps must be invertible.
    noninv=True:  D*(c) = omega(c_12) (x) beta psi^2(c_11) . alpha psi omega^2(c_2)
                  with twists (psi omega^2, alpha beta psi^2 omega^2).
    """
    a_, c_ = b.algebra, b.coalgebra
    n = b.dim
    if noninv:
        first_map = c_.omega
        lead_map = (a_.beta @ c_.psi) @ c_.psi
        tail_map = (a_.alpha @ c_.psi) @ c_.omega @ c_.omega
        psi_out = c_.psi @ c_.omega @ c_.omega
        omega_out = (a_.alpha @ a_.beta @ c_.psi) @ c_.psi @ c_.omega @ c_.omega
    else:
        for f in (a_.alpha, a_.beta, c_.psi, c_.omega):
            endo_inverse(f)
        omega_inv = endo_inverse(c_.omega)
        first_map = endo_inverse(c_.psi)
        lead_map = (endo_inverse(a_.alpha) @ c_.psi) @ omega_inv @ omega_inv
        tail_map = endo_inverse(a_.beta)
        psi_out = c_.psi
        omega_out = c_.omega
    de = c_.comul.map
    right = a_.mul.map @ lead_map.map.tensor(tail_map.map)
    # (Delta (x) id) Delta is Delta after Delta's table read as the n x n^2 matrix
    # [c_1][(c_2, c)]; with its legs as (c_11, c_2, c_12), right acts on the first
    # two and first on the last, then the legs swap: first(c_12) (x) right(c_11, c_2)
    twice = (de @ de.reshape(n, n * n)).reshape(n ** 3, n).permute_rows((n, n, n), (0, 2, 1))
    acted = (right @ twice.reshape(n * n, n * n)).reshape(n * n, n)
    delta = (LinMap.identity(n).tensor(first_map.map) @ acted).permute_rows((n, n), (1, 0))
    return PreLieCoalgebra(n, Comul(n, delta), psi_out, omega_out)
