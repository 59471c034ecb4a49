import itertools
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import grid_candidates
from bihom import axioms, catalog, constructions as C, ybe
from bihom.errors import MissingUnit, SearchSpaceTooLarge
from bihom.exactcore import (
    BiForm, Elem2, Elem3, Endo, LinMap, Mul, Vec, endo_inverse,
)
from bihom.structures import Algebra

ID2 = Endo.identity(2)
GRID = [Q(-1), Q(0), Q(1)]
WEIGHTS = [Q(-1), Q(0), Q(1)]


def _host_pairs(dual_numbers, kz2_yau):
    """(algebra, psi, omega) hosts for the sweeps."""
    yau = kz2_yau
    return [
        (dual_numbers, ID2, ID2),
        (yau.algebra, yau.coalgebra.psi, yau.coalgebra.omega),
    ]


def test_zero_r_solves_everything(dual_numbers):
    for w in WEIGHTS:
        rep = ybe.abhybe_residual(dual_numbers, ID2, ID2, Elem2.zero(2), w)
        assert rep.is_solution
        assert rep.residual == Elem3.zero(2)


def test_unit_tensor_residual_pattern(dual_numbers, r_one):
    # the residual of 1 (x) 1 is (1 - w) times 1 (x) 1 (x) 1
    for w in (Q(-1), Q(0), Q(1), Q(2), Q(1, 2)):
        rep = ybe.abhybe_residual(dual_numbers, ID2, ID2, r_one, w)
        assert rep.residual.t[0][0][0] == 1 - w
        assert rep.is_solution == (w == 1)


def test_unit_tensor_characterizations(dual_numbers, r_one):
    rep = ybe.abhybe_residual(dual_numbers, ID2, ID2, r_one, 1)
    assert rep.characterization == {"(14.8)": True, "(14.9)": True,
                                    "(14.28)": False, "(14.29)": False}


def test_residual_needs_unit():
    mul = catalog.entry("dual-numbers").as_algebra().mul
    unitless = Algebra(2, mul, ID2, ID2, unit=None)
    with pytest.raises(MissingUnit):
        ybe.abhybe_residual(unitless, ID2, ID2, Elem2.zero(2), 0)


def test_characterizations_match_solution_verdict(dual_numbers, kz2_yau):
    """On every invariant grid candidate, each characterization pair is
    equivalent to solving the residual of the matching weight sign."""
    for alg, psi, omega in _host_pairs(dual_numbers, kz2_yau):
        candidates = grid_candidates(alg, psi, omega, GRID)
        for w in WEIGHTS:
            for r in candidates:
                plain = ybe.abhybe_residual(alg, psi, omega, r, w, anti=False)
                anti = ybe.abhybe_residual(alg, psi, omega, r, w, anti=True)
                assert plain.characterization["(14.8)"] == plain.is_solution
                assert plain.characterization["(14.9)"] == plain.is_solution
                assert anti.characterization["(14.28)"] == anti.is_solution
                assert anti.characterization["(14.29)"] == anti.is_solution


def test_weight_zero_characterizations_coincide(dual_numbers, kz2_yau):
    for alg, psi, omega in _host_pairs(dual_numbers, kz2_yau):
        for r in grid_candidates(alg, psi, omega, GRID):
            rep = ybe.abhybe_residual(alg, psi, omega, r, 0)
            assert rep.characterization["(14.8)"] == rep.characterization["(14.28)"]
            assert rep.characterization["(14.9)"] == rep.characterization["(14.29)"]


def test_coboundary_equals_coassociativity(dual_numbers, kz2_yau):
    """The invariance condition holds exactly when the induced coproduct is
    coassociative, for every invariant grid candidate, both variants."""
    for alg, psi, omega in _host_pairs(dual_numbers, kz2_yau):
        for r in grid_candidates(alg, psi, omega, GRID):
            for w in WEIGHTS:
                for anti in (False, True):
                    cob = ybe.coboundary_check(alg, psi, omega, r, w, anti=anti)
                    induced = C.delta_r(alg, psi, omega, r, w, anti=anti)
                    coassoc = axioms.check_bihom_coalgebra(induced.coalgebra).passed
                    assert cob.passed == coassoc, (r.m, w, anti)


def test_coboundary_trivial_for_solutions(dual_numbers, r_one):
    assert ybe.coboundary_check(dual_numbers, ID2, ID2, r_one, 1).passed


def test_coboundary_violation_names_basis_index(kz2_yau):
    # an invariant non-solution over the twisted group algebra
    alg = kz2_yau.algebra
    psi, omega = kz2_yau.coalgebra.psi, kz2_yau.coalgebra.omega
    bad = None
    for r in grid_candidates(alg, psi, omega, GRID):
        rep = ybe.abhybe_residual(alg, psi, omega, r, Q(1))
        cob = ybe.coboundary_check(alg, psi, omega, r, Q(1))
        if not rep.is_solution and not cob.passed:
            bad = (r, cob)
            break
    assert bad is not None
    _, cob = bad
    assert all(len(v.indices) == 1 for v in cob.violations)


# ---------------------------------------------------------------------------
# the dual side


def test_zero_sigma_solves(trunc_poly_2):
    id3 = Endo.identity(3)
    sig = BiForm(3, ((0,) * 3,) * 3)
    for w in WEIGHTS:
        assert ybe.coabhybe_residual(trunc_poly_2.coalgebra, id3, id3, sig, w).is_solution


def test_transport_preserves_residual_tensor(dual_numbers):
    """The co-residual of the transported form equals the residual of r
    coordinatewise, candidate by candidate."""
    cdual = C.dual_coalgebra(dual_numbers)
    for r in grid_candidates(dual_numbers, ID2, ID2, GRID):
        sig = BiForm(2, r.m)
        for w in WEIGHTS:
            for anti in (False, True):
                rep = ybe.abhybe_residual(dual_numbers, ID2, ID2, r, w, anti=anti)
                corep = ybe.coabhybe_residual(cdual, ID2, ID2, sig, w, anti=anti)
                assert rep.residual == corep.residual
                assert rep.is_solution == corep.is_solution


def test_transport_pairs_characterizations(dual_numbers, r_one):
    cdual = C.dual_coalgebra(dual_numbers)
    rep = ybe.abhybe_residual(dual_numbers, ID2, ID2, r_one, 1)
    corep = ybe.coabhybe_residual(cdual, ID2, ID2, BiForm(2, r_one.m), 1)
    pairs = [("(14.8)", "(01.06)"), ("(14.9)", "(01.07)"),
             ("(14.28)", "(01.10)"), ("(14.29)", "(01.11)")]
    for a, b in pairs:
        assert rep.characterization[a] == corep.characterization[b]


def test_counit_square_form_oracle(trunc_poly_2):
    """Double implementation: the co-residual of eps (x) eps agrees with a
    from-scratch scalar evaluation of the defining identity."""
    id3 = Endo.identity(3)
    coalg = trunc_poly_2.coalgebra
    eps = coalg.counit
    sig = BiForm(3, tuple(tuple(eps.coeffs[i] * eps.coeffs[j] for j in range(3))
                          for i in range(3)))
    w = Q(-1)
    report = ybe.coabhybe_residual(coalg, id3, id3, sig, w)

    def s(x, y):
        return sig(x, y)

    n = 3
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ci, cj, ck = Vec.basis(n, i), Vec.basis(n, j), Vec.basis(n, k)
                di = Elem2(n, coalg.comul.map @ ci.map)
                dj = Elem2(n, coalg.comul.map @ cj.map)
                dk = Elem2(n, coalg.comul.map @ ck.map)
                t1 = sum(di.m[u][v] * s(Vec.basis(n, u), ck) * s(Vec.basis(n, v), cj)
                         for u in range(n) for v in range(n))
                t2 = sum(dj.m[u][v] * s(ci, Vec.basis(n, u)) * s(Vec.basis(n, v), ck)
                         for u in range(n) for v in range(n))
                t3 = sum(dk.m[u][v] * s(cj, Vec.basis(n, u)) * s(ci, Vec.basis(n, v))
                         for u in range(n) for v in range(n))
                rhs = w * s(ci, ck) * eps(cj)
                assert report.residual.t[i][j][k] == t1 - t2 + t3 - rhs


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_zero_only():
    alg = catalog.entry("dual-numbers").as_algebra()
    assert ybe.grid_search_r(alg, ID2, ID2, 1, [Q(0)]) == [Elem2.zero(2)]


def test_grid_search_finds_unit_tensor(dual_numbers, r_one):
    found = ybe.grid_search_r(dual_numbers, ID2, ID2, 1, GRID)
    assert r_one in found


def test_grid_search_dim_one_scalar_equation():
    one = Endo.identity(1)
    alg = Algebra(1, Mul(1, (((Q(1),),),)), one, one, Vec(1, (Q(1),)))
    found = ybe.grid_search_r(alg, one, one, 1, GRID)
    values = sorted(r.m[0][0] for r in found)
    assert values == [Q(0), Q(1)]


def test_grid_search_order_is_lexicographic(dual_numbers):
    found = ybe.grid_search_r(dual_numbers, ID2, ID2, 1, GRID)
    flats = [tuple(x for row in r.m for x in row) for r in found]
    assert flats == sorted(flats)


def test_grid_search_guard():
    alg = catalog.entry("trunc-poly-3").as_algebra()
    with pytest.raises(SearchSpaceTooLarge):
        ybe.grid_search_r(alg, Endo.identity(4), Endo.identity(4), 0,
                          GRID, guard=100)


def test_grid_candidates_deeper_than_the_recursion_limit():
    """The search keeps its nodes on a stack: dim 33 has 1,089 coordinates,
    more than Python's default recursion limit."""
    n = 33
    one = Endo.identity(n)
    alg = Algebra(n, Mul.zero(n), one, one, Vec(n, [Q(int(i == 0)) for i in range(n)]))
    assert grid_candidates(alg, one, one, [Q(0)]) == [Elem2.zero(n)]


def test_induced_structures_from_all_solutions(dual_numbers, kz2_yau):
    """Every grid solution induces a structure passing the full axiom set."""
    for alg, psi, omega in _host_pairs(dual_numbers, kz2_yau):
        for w in WEIGHTS:
            for r in ybe.grid_search_r(alg, psi, omega, w, GRID):
                b = C.delta_r(alg, psi, omega, r, w)
                assert axioms.check_infbh_bialgebra(b).passed


def test_worker_cap_does_not_change_results(dual_numbers, monkeypatch):
    seq = ybe.grid_search_r(dual_numbers, ID2, ID2, 1, GRID)
    monkeypatch.setenv("BIHOM_THREADS", "2")
    par = ybe.grid_search_r(dual_numbers, ID2, ID2, 1, GRID)
    assert seq == par


def test_search_memory_does_not_grow_with_the_grid(kz2_yau, monkeypatch):
    """The search holds one running-sum list per depth of r, not the grid:
    2,401 candidates peak at under twice the memory of 81."""
    monkeypatch.delenv("BIHOM_THREADS", raising=False)
    a, psi, omega = kz2_yau.algebra, kz2_yau.coalgebra.psi, kz2_yau.coalgebra.omega
    small, large = GRID, [Q(x) for x in range(-3, 4)]

    def peak(grid):
        tracemalloc.start()
        try:
            ybe.grid_search_r(a, psi, omega, 1, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for grid in (small, large):  # first-call allocations are not the search's
        ybe.grid_search_r(a, psi, omega, 1, grid)
    assert peak(large) < 2 * peak(small)


# ---------------------------------------------------------------------------
# the depth-first search against the grid point by point

BIG = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


def _brute_force(a, psi, omega, weight, grid, require_invariant):
    """The grid search one candidate at a time, in lexicographic order."""
    search = (*ybe._residual_maps(a, psi, omega, Q(weight), anti=False),
              ybe._squares(a, psi, omega) if require_invariant else ())
    return [ybe._as_elem2(flat, a.dim)
            for flat in itertools.product(sorted(set(grid)), repeat=a.dim ** 2)
            if ybe._solves(search, flat)]


@st.composite
def _basis_change(draw, n):
    """A random integer change of basis p, a product of a lower and an
    upper unipotent matrix, and its inverse, as LinMaps."""
    def unipotent(upper):
        return LinMap(n, n, [[Q(int(i == j)) if (i > j) == upper or i == j
                              else draw(st.sampled_from([0] * (n - 1) + [1, -1]))
                              for j in range(n)]
                             for i in range(n)])
    p = unipotent(False) @ unipotent(True)
    return p, endo_inverse(Endo(n, p.a)).map


@st.composite
def _unital_hosts(draw, graded=False):
    """(algebra, psi, omega, unit coefficients) on dim 2-3: e_0 is the
    unit, the other products are small integers and mostly zero, the
    twists are diagonal with entries +-1 and fix e_0. All of it is
    conjugated by a random integer change of basis, which moves the unit
    and makes the twists non-diagonal. With graded, e_i e_j has no e_k
    part unless d_i d_j = d_k on every twist's diagonal d, so the four
    twists are algebra morphisms."""
    n = draw(st.sampled_from([2, 2, 2, 3]))
    entry = st.sampled_from([Q(0)] * (3 * n - 3) + [Q(1), Q(-1), Q(2)])
    c = [[[Q(int(k == i + j)) if 0 in (i, j) else draw(entry) for k in range(n)]
          for j in range(n)] for i in range(n)]
    p, p_inv = draw(_basis_change(n))
    diags = [[Q(1)] + [draw(st.sampled_from([Q(1), Q(-1)])) for _ in range(n - 1)]
             for _ in range(4)]
    if graded:
        c = [[[x if all(d[i] * d[j] == d[k] for d in diags) else Q(0) for k, x in enumerate(row)]
              for j, row in enumerate(plane)] for i, plane in enumerate(c)]
    alpha, beta, psi, omega = (Endo(n, p_inv @ Endo.diagonal(d).map @ p) for d in diags)
    mul = Mul(n, p_inv @ Mul(n, c).map @ p.tensor(p))
    unit = tuple(row[0] for row in p_inv.a)
    return Algebra(n, mul, alpha, beta, Vec(n, unit)), psi, omega, unit


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tree_search_matches_brute_force(data):
    """grid_search_r and grid_candidates list exactly the grid points the
    point-by-point reference accepts, in the same order. Every twist fixes
    the unit u, so weight * u (x) u solves; the grid often holds its
    coordinates, a solution with several nonzero coordinates. Without the
    invariance prune the reference evaluates all 512 dense residuals of a
    two-value grid at dim 3 (seconds), so there the grid holds one value."""
    a, psi, omega, unit = data.draw(_unital_hosts())
    weight = data.draw(BIG)
    known = sorted({weight * x * y for x in unit for y in unit})
    grid = data.draw(st.permutations(known)) + data.draw(st.lists(BIG, max_size=2))
    grid = grid[:4 if a.dim == 2 else 2]
    for require_invariant, values in ((True, grid), (False, grid[:4 if a.dim == 2 else 1])):
        assert ybe.grid_search_r(a, psi, omega, weight, values, require_invariant) == \
            _brute_force(a, psi, omega, weight, values, require_invariant)
    squares = ybe._squares(a, psi, omega)
    assert grid_candidates(a, psi, omega, grid) == [
        ybe._as_elem2(flat, a.dim) for flat in itertools.product(sorted(set(grid)), repeat=a.dim ** 2)
        if ybe._invariant(squares, flat)]
