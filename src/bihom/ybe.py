"""Nonhomogeneous (co)associative Yang-Baxter residuals and searches.

The residual of r at weight w is the exact tensor

    r13r12 - r12r23 + r23r13 - w*r13        (quasitriangular convention)

and the anti flag flips the sign of the last term, i.e. asks whether r
solves the equation at weight -w while the ambient structure keeps its own
weight. Reports carry the full residual so tests can assert coefficient
patterns of near-solutions, plus the four characterization booleans
evaluated through the induced (co)products.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import axioms, constructions
from .errors import (
    BihomError, DimensionMismatch, MissingCounit, MissingUnit, SearchSpaceTooLarge,
)
from .exactcore import (
    ELEM3_KINDS, BiForm, Elem2, Elem3, Endo, LinMap, Q, biform_invariant_under, biform_map,
    comul_map, counit_map, elem2_flat, elem3_build, elem3_flat, elem3_map, elem_map,
    endo_inverse, endo_is_invertible, endo_map, flat_elem3, form_map, outer_flat, square_map,
)
from .structures import Algebra, Coalgebra, twisted_left_action, twisted_right_action


@dataclass(frozen=True)
class YbeReport:
    residual: Elem3
    is_solution: bool
    characterization: dict[str, bool]

    def as_dict(self) -> dict:
        from .exactcore import render_elem3
        return {"is_solution": self.is_solution,
                "residual": render_elem3(self.residual),
                "characterization": dict(sorted(self.characterization.items()))}


def _residual_maps(a: Algebra, psi: Endo, omega: Endo, weight: Q,
                   anti: bool) -> tuple[LinMap, LinMap]:
    """The residual compiled for a search: two maps whose rows are indexed
    by the coordinates of r (x) r and of r, so that the residual of r is the
    row form(r (x) r) @ quad - form(r) @ lin. A row times a map visits the
    nonzero coordinates of r only."""
    if a.unit is None:
        raise MissingUnit("the residual needs the unit element")

    def part(kind: str) -> LinMap:
        return elem3_map(kind, a.mul, a.alpha, a.beta, psi, omega, a.unit)
    sign = -weight if anti else weight
    quad = part("r13r12") - part("r12r23") + part("r23r13")
    return quad.transpose(), part("r13").scale(sign).transpose()


def _residual_parts(a: Algebra, psi: Endo, omega: Endo, r: Elem2,
                    kinds: tuple[str, ...]) -> dict[str, LinMap]:
    """The elements of kinds built from a single r, as maps K -> A (x) A (x) A."""
    if r.dim != a.dim:
        raise DimensionMismatch(f"r has dim {r.dim}, the algebra has dim {a.dim}")
    if a.unit is None:
        raise MissingUnit("the residual needs the unit element")
    return {kind: elem_map(elem3_flat(elem3_build(kind, a.mul, a.alpha, a.beta, psi, omega,
                                                  a.unit, r)))
            for kind in kinds}


def _residual(part: dict[str, LinMap], weight: Q, anti: bool) -> LinMap:
    sign = -weight if anti else weight
    return part["r13r12"] - part["r12r23"] + part["r23r13"] - part["r13"].scale(sign)


def _squares(a: Algebra, psi: Endo, omega: Endo) -> tuple[LinMap, ...]:
    """f (x) f for the four twists r must be invariant under."""
    return tuple(square_map(f) for f in (a.alpha, a.beta, psi, omega))


def _invariant(squares: tuple[LinMap, ...], flat: tuple[Q, ...]) -> bool:
    return all(ff.apply_flat(flat) == flat for ff in squares)


def abhybe_residual(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight,
                    anti: bool = False) -> YbeReport:
    """Residual and characterizations of r on a unital algebra.

    The raw residual is computed for arbitrary r; the characterization
    entries additionally need invertible alpha, beta and an invariant r
    (they evaluate both sides through the induced coproducts) and are
    omitted when those hypotheses fail.
    """
    weight = Q(weight)
    characterize = (r.dim == a.dim and _invariant(_squares(a, psi, omega), elem2_flat(r))
                    and endo_is_invertible(a.alpha) and endo_is_invertible(a.beta))
    # every element both sides need, as K -> A (x) A (x) A
    part = _residual_parts(a, psi, omega, r, ELEM3_KINDS if characterize else ELEM3_KINDS[:4])
    residual = flat_elem3(_residual(part, weight, anti).column(0), a.dim)
    characterization: dict[str, bool] = {}
    if characterize:
        r_map = elem_map(elem2_flat(r))
        try:
            for anti_flag, key_left, key_right in ((False, "(14.8)", "(14.9)"),
                                                   (True, "(14.28)", "(14.29)")):
                dmap = constructions._delta_r_map(a, psi, omega, r, weight, anti_flag)
                lhs_left = dmap.tensor(endo_map(psi)) @ r_map
                lhs_right = endo_map(omega).tensor(dmap) @ r_map
                if anti_flag:
                    rhs_left = part["r23r13"].scale(-1) - (part["r23"] + part["r13"]).scale(weight)
                    rhs_right = part["r13r12"]
                else:
                    rhs_left = part["r23r13"].scale(-1)
                    rhs_right = part["r13r12"] - (part["r13"] + part["r12"]).scale(weight)
                characterization[key_left] = lhs_left == rhs_left
                characterization[key_right] = lhs_right == rhs_right
        except BihomError:
            characterization = {}
    return YbeReport(residual, residual.is_zero(), characterization)


def coboundary_check(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight,
                     anti: bool = False) -> axioms.Report:
    """The invariance condition equivalent to coassociativity of the
    r-induced coproduct: for every basis x,

        omega alphainv(x) |> residual = residual <| psi betainv(x).
    """
    weight = Q(weight)
    alpha_inv = endo_inverse(a.alpha)
    beta_inv = endo_inverse(a.beta)
    residual = _residual(_residual_parts(a, psi, omega, r, ELEM3_KINDS[:4]), weight, anti)
    n = a.dim
    lhs = twisted_left_action(a, omega, residual, 3) @ endo_map(omega @ alpha_inv)
    rhs = twisted_right_action(a, psi, residual, 3) @ endo_map(psi @ beta_inv)
    eq_id = "(coboundary1)" if anti else "(coboundary)"
    return axioms._report(axioms.compare_maps(eq_id, lhs, rhs, (n,), (n, n, n), ("e", "e", "e")))


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
    al, be = endo_map(alpha), endo_map(beta)
    ps, om = endo_map(c.psi), endo_map(c.omega)
    de = comul_map(c.comul)
    sig = biform_map(sigma)
    eps = counit_map(c.counit)

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
    residual = flat_elem3(value.a[0], n)

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
    eps = counit_map(c.counit)
    s_id_b = sig @ i1.tensor(endo_map(beta))       # sigma(u, beta(k))
    s_a_id = sig @ endo_map(alpha).tensor(i1)      # sigma(alpha(i), u)

    characterization: dict[str, bool] = {}
    for anti_flag, key_prod, key_dual in ((False, "(01.06)", "(01.07)"),
                                          (True, "(01.10)", "(01.11)")):
        mu = constructions._mu_sigma_map(c, alpha, beta, sigma, weight, anti_flag)
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


def worker_count() -> int:
    """Worker cap from the optional BIHOM_THREADS variable (default 1)."""
    raw = os.environ.get("BIHOM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _grid(n: int, coeff_set, guard: int) -> tuple[list[Q], int]:
    """The sorted grid values and the number of candidates on dim n,
    refused when that number exceeds the guard."""
    coeffs = sorted({Q(x) for x in coeff_set})
    total = len(coeffs) ** (n * n)
    if total > guard:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the guard of {guard}")
    return coeffs, total


def _grid_flats(coeffs: list[Q], n: int, start: int = 0, stop: int | None = None):
    """The row-major coefficient tuples of grid candidates start..stop-1, in
    lexicographic order, one at a time."""
    return itertools.islice(itertools.product(coeffs, repeat=n * n), start, stop)


def _as_elem2(flat: tuple[Q, ...], n: int) -> Elem2:
    return Elem2(n, tuple(flat[i:i + n] for i in range(0, n * n, n)))


def _solves(search: tuple[LinMap, LinMap, tuple[LinMap, ...]], flat: tuple[Q, ...]) -> bool:
    """Whether the candidate with row-major coefficients flat is invariant
    under every square in the search (none when invariance is not
    required) and has zero residual."""
    quad, lin, squares = search
    return (_invariant(squares, flat)
            and form_map(outer_flat(flat, flat)) @ quad == form_map(flat) @ lin)


def _search_range(job) -> list[tuple[Q, ...]]:
    """The solutions among grid candidates start..stop-1, in grid order."""
    a, psi, omega, weight, coeffs, require_invariant, start, stop = job
    search = (*_residual_maps(a, psi, omega, weight, anti=False),
              _squares(a, psi, omega) if require_invariant else ())
    return [flat for flat in _grid_flats(coeffs, a.dim, start, stop) if _solves(search, flat)]


def grid_search_r(a: Algebra, psi: Endo, omega: Endo, weight,
                  coeff_set, require_invariant: bool = True,
                  guard: int = 10_000_000) -> list[Elem2]:
    """All r with entries from coeff_set and zero residual, in lexicographic
    order of their row-major coefficient tuples.

    The grid is split into contiguous index ranges, one per worker process,
    when BIHOM_THREADS exceeds one (at most one worker per usable CPU); the
    solutions are merged back in grid order, so the result is identical
    either way.
    """
    coeffs, total = _grid(a.dim, coeff_set, guard)
    workers = max(1, min(worker_count(), total, _usable_cpus()))
    bounds = [total * k // workers for k in range(workers + 1)]
    jobs = [(a, psi, omega, Q(weight), coeffs, require_invariant, start, stop)
            for start, stop in zip(bounds, bounds[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(_search_range, jobs))
    else:
        found = [_search_range(job) for job in jobs]
    return [_as_elem2(flat, a.dim) for part in found for flat in part]


def grid_candidates(a: Algebra, psi: Endo, omega: Endo, coeff_set,
                    require_invariant: bool = True,
                    guard: int = 10_000_000) -> list[Elem2]:
    """Every grid candidate (solutions and non-solutions alike), for the
    equivalence sweeps that quantify over the whole grid."""
    coeffs, _ = _grid(a.dim, coeff_set, guard)
    squares = _squares(a, psi, omega) if require_invariant else ()
    return [_as_elem2(flat, a.dim) for flat in _grid_flats(coeffs, a.dim)
            if _invariant(squares, flat)]
