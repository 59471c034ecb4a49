"""Nonhomogeneous (co)associative Yang-Baxter residuals and searches.

The residual of r at weight w is the exact tensor

    r13r12 - r12r23 + r23r13 - w*r13        (quasitriangular convention)

and the anti flag flips the sign of the last term, i.e. asks whether r
solves the equation at weight -w while the ambient structure keeps its own
weight. Reports carry the full residual so tests can assert coefficient
patterns of near-solutions, plus the four characterization booleans
evaluated through the induced (co)products.

The coalgebra side is computed on the dual algebra: the co-residual of a
bilinear form sigma on a coalgebra C is the residual of sigma^T on C*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import axioms, constructions
from .errors import (
    BihomError, DimensionMismatch, MissingCounit, MissingUnit, SearchSpaceTooLarge,
)
from .exactcore import (
    ELEM3_KINDS, ZERO, BiForm, Elem2, Elem3, Endo, LinMap, Q, elem3_build, elem3_map, elem_map,
    endo_inverse, endo_is_invertible, form_map, outer_flat, square_map,
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
    return {kind: elem3_build(kind, a.mul, a.alpha, a.beta, psi, omega, a.unit, r).map
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
    characterize = (r.dim == a.dim and all(ff @ r.map == r.map for ff in _squares(a, psi, omega))
                    and endo_is_invertible(a.alpha) and endo_is_invertible(a.beta))
    # every element both sides need, as K -> A (x) A (x) A
    part = _residual_parts(a, psi, omega, r, ELEM3_KINDS if characterize else ELEM3_KINDS[:4])
    residual = Elem3(a.dim, _residual(part, weight, anti))
    characterization: dict[str, bool] = {}
    if characterize:
        try:
            for anti_flag, key_left, key_right in ((False, "(14.8)", "(14.9)"),
                                                   (True, "(14.28)", "(14.29)")):
                dmap = constructions._delta_r_map(a, psi, omega, r, weight, anti_flag)
                lhs_left = dmap.tensor(psi.map) @ r.map
                lhs_right = omega.map.tensor(dmap) @ r.map
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


@axioms.checker
def coboundary_check(a: Algebra, psi: Endo, omega: Endo, r: Elem2, weight,
                     anti: bool = False) -> axioms.Laws:
    """The invariance condition equivalent to coassociativity of the
    r-induced coproduct: for every basis x,

        omega alphainv(x) |> residual = residual <| psi betainv(x).
    """
    weight = Q(weight)
    alpha_inv = endo_inverse(a.alpha)
    beta_inv = endo_inverse(a.beta)
    residual = _residual(_residual_parts(a, psi, omega, r, ELEM3_KINDS[:4]), weight, anti)
    n = a.dim
    lhs = twisted_left_action(a, omega, residual, 3) @ (omega @ alpha_inv).map
    rhs = twisted_right_action(a, psi, residual, 3) @ (psi @ beta_inv).map
    yield ("(coboundary1)" if anti else "(coboundary)", lhs, rhs,
           (n,), (n, n, n), ("e", "e", "e"))


def coabhybe_residual(c: Coalgebra, alpha: Endo, beta: Endo, sigma: BiForm, weight,
                      anti: bool = False) -> YbeReport:
    """The co-residual of a bilinear form on a counital coalgebra: the
    residual of r = sigma^T on the dual algebra, with psi = beta^T and
    omega = alpha^T. The characterizations of the r-induced coproducts there
    are those of the sigma-induced products, (01.06)-(01.11), here."""
    if c.counit is None:
        raise MissingCounit("the co-residual needs the counit")
    if sigma.dim != c.dim:
        raise DimensionMismatch(f"sigma has dim {sigma.dim}, the coalgebra has dim {c.dim}")
    report = abhybe_residual(constructions._dual_algebra(c), beta.transpose(), alpha.transpose(),
                             Elem2(c.dim, sigma.map.transpose()), weight, anti)
    keys = {"(14.8)": "(01.06)", "(14.9)": "(01.07)", "(14.28)": "(01.10)", "(14.29)": "(01.11)"}
    return YbeReport(report.residual, report.is_solution,
                     {keys[k]: v for k, v in report.characterization.items()})


def _grid(n: int, coeff_set, guard: int) -> list[Q]:
    """The sorted grid values on dim n, refused when the number of
    candidates exceeds the guard. Two or more values on more coordinates
    than the guard has bits are refused without computing that number,
    which has 4,772 digits for three values at dim 100."""
    coeffs = sorted({Q(x) for x in coeff_set})
    if len(coeffs) > 1 and n * n > guard.bit_length():
        raise SearchSpaceTooLarge(f"{len(coeffs)}^{n * n} candidates exceed the guard of {guard}")
    total = len(coeffs) ** (n * n)
    if total > guard:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the guard of {guard}")
    return coeffs


def _as_elem2(flat: tuple[Q, ...], n: int) -> Elem2:
    return Elem2(n, elem_map(flat))


def _solves(search: tuple[LinMap, LinMap, tuple[LinMap, ...]], flat: tuple[Q, ...]) -> bool:
    """Whether the candidate with row-major coefficients flat is invariant
    under every square in the search (none when invariance is not
    required) and has zero residual: one grid point at a time, the
    reference the depth-first search is tested against."""
    quad, lin, squares = search
    return (_invariant(squares, flat)
            and form_map(outer_flat(flat, flat)) @ quad == form_map(flat) @ lin)


def _system(n: int, residual: tuple[LinMap, LinMap] | None, squares: tuple[LinMap, ...]):
    """The equations a search decides, the residual ones (quad and lin of
    _residual_maps) and (f (x) f - id) r = 0 for the squares, by coordinate
    x_k of r (row-major): the (equation, coefficient) terms in x_k^2, in
    x_k and in x_p x_k for each p < k, and the equations whose last
    variable is x_k."""
    nv = n * n
    square: list[tuple] = [()] * nv
    linear: list[dict] = [{} for _ in range(nv)]
    cross: list[dict] = [{} for _ in range(nv)]     # cross[k][p]: the terms in x_p x_k
    size = 0
    if residual is not None:
        quad, lin = residual
        for pk, (cs, vs) in enumerate(quad.nonzeros):
            p, k = sorted(divmod(pk, nv))
            if p == k:
                square[k] = tuple(zip(cs, vs))
                continue
            table = cross[k].setdefault(p, {})
            for e, v in zip(cs, vs):
                table[e] = table.get(e, ZERO) + v
        for k, (cs, vs) in enumerate(lin.nonzeros):
            linear[k] = {e: -v for e, v in zip(cs, vs)}
        size = quad.cols
    for ff in squares:
        for cs, vs in (ff - LinMap.identity(nv)).nonzeros:
            if cs:
                for c, v in zip(cs, vs):
                    linear[c][size] = v
                size += 1
    # x_p x_k and x_k x_p terms may cancel
    cross = [[(p, [(e, v) for e, v in t.items() if v]) for p, t in sorted(row.items())]
             for row in cross]
    last = {e: k for k in range(nv)
            for e, _ in itertools.chain(square[k], linear[k].items(), *(t for _, t in cross[k]))}
    decide: list[list[int]] = [[] for _ in range(nv)]
    for e, k in last.items():
        decide[k].append(e)
    return square, linear, cross, decide, size


def _walk(coeffs: list[Q], system) -> list[tuple[Q, ...]]:
    """The row-major coefficient tuples of the grid points solving every
    equation of system, in lexicographic order. A depth-first search sets
    x_0, x_1, ... in turn to each grid value, keeps every equation's value
    on the assigned prefix as a running sum, and cuts the subtree as soon
    as an equation whose last variable has been set is nonzero. The nodes
    wait on a stack, not in Python frames, so no dimension meets the
    recursion limit."""
    square, linear, cross, decide, size = system
    x = [ZERO] * len(decide)
    found = []
    stack = [(-1, ZERO, [ZERO] * size)]     # (j, x_j, sums with x_0..x_j set)
    while stack:
        j, value, sums = stack.pop()
        if j >= 0:
            x[j] = value
        k = j + 1
        if k == len(x):
            found.append(tuple(x))
            continue
        slope = dict(linear[k])     # the coefficient of x_k on this prefix
        for p, terms in cross[k]:
            xp = x[p]
            if xp:
                for e, c in terms:
                    slope[e] = slope.get(e, ZERO) + xp * c
        children = []
        for v in coeffs:
            child = sums
            if v:
                child = sums.copy()
                for e, c in slope.items():
                    child[e] += v * c
                vv = v * v
                for e, c in square[k]:
                    child[e] += vv * c
            if not any(child[e] for e in decide[k]):
                children.append((k, v, child))
        stack.extend(reversed(children))
    return found


def grid_search_r(a: Algebra, psi: Endo, omega: Endo, weight,
                  coeff_set, require_invariant: bool = True,
                  guard: int = 10_000_000) -> list[Elem2]:
    """All r with entries from coeff_set and zero residual, in lexicographic
    order of their row-major coefficient tuples, found by the depth-first
    search of _walk. BIHOM_THREADS is accepted and ignored."""
    coeffs = _grid(a.dim, coeff_set, guard)
    system = _system(a.dim, _residual_maps(a, psi, omega, Q(weight), anti=False),
                     _squares(a, psi, omega) if require_invariant else ())
    return [_as_elem2(flat, a.dim) for flat in _walk(coeffs, system)]
