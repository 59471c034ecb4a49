from fractions import Fraction as Q

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom import axioms, catalog
from bihom.errors import DimensionMismatch, NonCommutingMaps, NonMultiplicativeMap
from bihom.exactcore import Elem2, Elem3, Endo, Mul, Vec
from bihom.structures import Algebra
from bihom.structures import (
    Bimodule, HopfBimodule, LeftComodule, LeftModule, RightComodule, RightModule,
    bimodule_triple, twisted_left_action, twisted_right_action,
)

ID2 = Endo.identity(2)


def _pair_left(alg, omega, a, xy):
    """a |> (x (x) y) = omega(a)x (x) beta(y), extended bilinearly."""
    return Elem2(alg.dim, twisted_left_action(alg, omega, xy.map, 2) @ a.map)


def _pair_right(alg, psi, xy, a):
    """(x (x) y) <| a = alpha(x) (x) y.psi(a), extended bilinearly."""
    return Elem2(alg.dim, twisted_right_action(alg, psi, xy.map, 2) @ a.map)


def _triple(alg, psi, omega, side, a, t):
    """The twisted left or right action of a on a triple tensor t."""
    action = (twisted_left_action(alg, omega, t.map, 3) if side == "left"
              else twisted_right_action(alg, psi, t.map, 3))
    return Elem3(alg.dim, action @ a.map)


def _tensor(a, b):
    return Elem2(a.dim, a.map.tensor(b.map))


def _regular_bimodule(alg):
    """A acting on itself on both sides by its own multiplication."""
    return Bimodule(alg, alg.dim, alg.mul.map, alg.mul.map, alg.alpha, alg.beta)


def _one_x():
    return Vec.basis(2, 0), Vec.basis(2, 1)


def test_act_pair_left_unit(dual_numbers):
    one, x = _one_x()
    xy = _tensor(x, one)
    # 1 |> (x (x) 1) = (1.x) (x) beta(1) = beta(x) (x) 1
    assert _pair_left(dual_numbers, ID2, one, xy) == xy


def test_act_pair_left_zero(dual_numbers):
    one, x = _one_x()
    assert _pair_left(dual_numbers, ID2, Vec.zero(2), _tensor(x, one)) == Elem2.zero(2)


def test_act_pair_left_nilpotent(dual_numbers):
    one, x = _one_x()
    assert _pair_left(dual_numbers, ID2, x, _tensor(one, one)) == _tensor(x, one)


def test_act_pair_right_examples(dual_numbers):
    one, x = _one_x()
    assert _pair_right(dual_numbers, ID2, _tensor(one, one), x) == _tensor(one, x)
    assert _pair_right(dual_numbers, ID2, Elem2.zero(2), x) == Elem2.zero(2)
    assert _pair_right(dual_numbers, ID2, _tensor(x, one), x) == _tensor(x, x)


def _cube(vectors):
    out = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    a, b, c = vectors
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i][j][k] = a.coeffs[i] * b.coeffs[j] * c.coeffs[k]
    return Elem3(2, tuple(tuple(tuple(r) for r in p) for p in out))


def test_act_triple_zero_and_unit(dual_numbers):
    one, x = _one_x()
    t = _cube((x, one, x))
    assert _triple(dual_numbers, ID2, ID2, "left", Vec.zero(2), t) == Elem3.zero(2)
    # acting by the unit twists each slot by the relevant map (identity here)
    assert _triple(dual_numbers, ID2, ID2, "left", one, t) == t
    assert _triple(dual_numbers, ID2, ID2, "right", one, t) == t


def test_act_triple_right_multiplies_last_slot(dual_numbers):
    one, x = _one_x()
    t = _cube((one, one, one))
    assert _triple(dual_numbers, ID2, ID2, "right", x, t) == _cube((one, one, x))


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _square(n):
    return st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_twisted_actions_match_their_formulas(data):
    """The pair and triple actions on random hosts of dim 2-3 whose twists
    are not symmetric, against their defining formulas summed over basis
    tensors: a |> (x (x) y (x) z) = omega(a)x (x) beta(y) (x) beta(z) and
    (x (x) y (x) z) <| a = alpha(x) (x) alpha(y) (x) z.psi(a)."""
    n = data.draw(st.integers(2, 3))
    c = [data.draw(_square(n)) for _ in range(n)]
    alpha, beta, psi, omega = (Endo(n, data.draw(_square(n))) for _ in range(4))
    alg = Algebra(n, Mul(n, c), alpha, beta)
    a = Vec(n, data.draw(st.lists(_small, min_size=n, max_size=n)))
    cells = data.draw(st.lists(_small, min_size=n ** 3, max_size=n ** 3))
    basis = [Vec.basis(n, i) for i in range(n)]

    def expected(legs, side):
        out = [Q(0)] * n ** legs
        for idx in itertools.product(range(n), repeat=legs):
            coeff = cells[sum(i * n ** (legs - 1 - k) for k, i in enumerate(idx))]
            xs = [basis[i] for i in idx]
            if side == "left":
                xs = [alg.product(omega(a), xs[0])] + [beta(x) for x in xs[1:]]
            else:
                xs = [alpha(x) for x in xs[:-1]] + [alg.product(xs[-1], psi(a))]
            for flat, parts in enumerate(itertools.product(*(x.coeffs for x in xs))):
                prod = coeff
                for p in parts:
                    prod *= p
                out[flat] += prod
        return out

    xy = Elem2(n, tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
    pair_left, pair_right = _pair_left(alg, omega, a, xy), _pair_right(alg, psi, xy, a)
    assert [x for row in pair_left.m for x in row] == expected(2, "left")
    assert [x for row in pair_right.m for x in row] == expected(2, "right")
    t = Elem3(n, tuple(tuple(tuple(cells[(i * n + j) * n:(i * n + j + 1) * n])
                             for j in range(n)) for i in range(n)))
    for side in ("left", "right"):
        got = _triple(alg, psi, omega, side, a, t)
        assert [x for p in got.t for row in p for x in row] == expected(3, side), side


def test_regular_bimodule_passes(dual_numbers):
    assert axioms.check_bimodule(_regular_bimodule(dual_numbers)).passed


def test_bimodule_triple_regular(dual_numbers):
    reg = _regular_bimodule(dual_numbers)
    prod = bimodule_triple(dual_numbers, ID2, ID2, reg, reg, reg)
    assert axioms.check_bimodule(prod).passed


def test_bimodule_triple_zero_actions(dual_numbers):
    zero3 = tuple(tuple(tuple(Q(0) for _ in range(2)) for _ in range(2)) for _ in range(2))
    from bihom.structures import Bimodule
    z = Bimodule(dual_numbers, 2, zero3, zero3, ID2, ID2)
    prod = bimodule_triple(dual_numbers, ID2, ID2, z, z, z)
    assert all(x == 0 for row in prod.action.a for x in row)
    assert all(x == 0 for row in prod.raction.a for x in row)


def test_bimodule_triple_yau_twisted(kz2_yau):
    alg = kz2_yau.algebra
    reg = _regular_bimodule(alg)
    prod = bimodule_triple(alg, alg.alpha, alg.beta, reg, reg, reg)
    assert axioms.check_bimodule(prod).passed


def test_bimodule_triple_rejects_noncommuting(dual_numbers):
    reg = _regular_bimodule(dual_numbers)
    skew = Endo(2, ((1, 1), (0, 1)))
    bad = Endo(2, ((1, 0), (1, 1)))
    from bihom.structures import Algebra
    host = Algebra(dual_numbers.dim, dual_numbers.mul, skew, dual_numbers.beta,
                   dual_numbers.unit)
    with pytest.raises((NonCommutingMaps, NonMultiplicativeMap)):
        bimodule_triple(host, bad, ID2, reg, reg, reg)


def test_pair_actions_rebuild_induced_coproduct(dual_numbers, r_one):
    """Composing the two pair actions per the inducing formula reproduces
    the emitted coproduct coordinatewise."""
    from bihom.constructions import delta_r
    from bihom.exactcore import endo_inverse

    b = delta_r(dual_numbers, ID2, ID2, r_one, Q(1))
    ainv = endo_inverse(dual_numbers.alpha)
    binv = endo_inverse(dual_numbers.beta)
    for i in range(2):
        e = Vec.basis(2, i)
        direct = (_pair_left(dual_numbers, ID2, ainv(e), r_one)
                  - _pair_right(dual_numbers, ID2, r_one, binv(e))
                  - _tensor(e, dual_numbers.unit))
        assert Elem2(2, b.coalgebra.comul.map @ e.map) == direct


def test_records_are_pure_data(dual_numbers):
    twin = catalog.entry("dual-numbers").as_algebra()
    assert twin == dual_numbers
    assert axioms.check_bihom_algebra(twin) == axioms.check_bihom_algebra(dual_numbers)


@pytest.mark.parametrize("build", [
    lambda b, f: LeftModule(b.algebra, 2, b.algebra.mul.c, f, f),
    lambda b, f: RightModule(b.algebra, 2, b.algebra.mul.c, f, f),
    lambda b, f: Bimodule(b.algebra, 2, b.algebra.mul.c, b.algebra.mul.c, f, f),
    lambda b, f: LeftComodule(b.coalgebra, 2, b.coalgebra.comul.d, f, f),
    lambda b, f: RightComodule(b.coalgebra, 2, b.coalgebra.comul.d, f, f),
    lambda b, f: HopfBimodule(b, 2, b.algebra.mul.c, b.algebra.mul.c,
                              b.coalgebra.comul.d, b.coalgebra.comul.d, f, f, f, f),
], ids=["left-module", "right-module", "bimodule", "left-comodule", "right-comodule",
        "hopf-bimodule"])
def test_module_records_reject_maps_of_another_dim(kz2, build):
    build(kz2, Endo.identity(2))
    with pytest.raises(DimensionMismatch):
        build(kz2, Endo.identity(3))
