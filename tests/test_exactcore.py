import itertools
import json
import math
import os
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from render_reference import render_flat_dense
from bihom.errors import BadScalar, DimensionMismatch, MissingUnit, SingularMap
from bihom.exactcore import (
    BiForm, Comul, Covec, Elem2, Elem3, Endo, LinMap, Mul, Vec, elem3_build, endo_inverse,
    mul_apply, render_elem3, render_flat, scalar_parse, scalar_render,
)
from bihom import axioms, catalog, cli, exactcore, models

ID2 = Endo.identity(2)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


# ---------------------------------------------------------------------------
# scalars


def test_scalar_parse_zero():
    assert scalar_parse("0") == Q(0)


def test_scalar_parse_reduces():
    assert scalar_parse("-3/6") == Q(-1, 2)
    assert scalar_render(scalar_parse("-3/6")) == "-1/2"


def test_scalar_parse_integer_embedding():
    assert scalar_parse("7/1") == Q(7)
    assert scalar_render(scalar_parse("7/1")) == "7"


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "0/0", "1/-2", "--2", "1/2/3"])
def test_scalar_parse_rejects(bad):
    with pytest.raises(BadScalar):
        scalar_parse(bad)


@given(rationals)
def test_scalar_render_roundtrip(x):
    assert scalar_parse(scalar_render(x)) == x


@given(rationals, rationals)
def test_scalar_arithmetic_stays_reduced(x, y):
    import math
    z = x * y + x - y
    assert math.gcd(z.numerator, z.denominator) == 1
    assert z.denominator > 0


# ---------------------------------------------------------------------------
# endomorphisms


def test_endo_inverse_identity():
    assert endo_inverse(ID2) == ID2


def test_endo_inverse_diagonal():
    assert endo_inverse(Endo.diagonal([1, 2])) == Endo.diagonal([1, Q(1, 2)])


def test_endo_inverse_shear():
    # oracle: the exact product with the claimed inverse is the identity
    f = Endo(2, ((1, 1), (0, 1)))
    g = endo_inverse(f)
    assert g == Endo(2, ((1, -1), (0, 1)))
    assert f @ g == ID2 and g @ f == ID2


def test_endo_inverse_singular():
    with pytest.raises(SingularMap):
        endo_inverse(Endo(2, ((1, 1), (1, 1))))


# hypothesis-built invertible maps: unit diagonal plus a strict upper part
@given(rationals, rationals, rationals)
def test_endo_inverse_roundtrip_triangular(a, b, c):
    f = Endo(3, ((1, a, b), (0, 1, c), (0, 0, 1)))
    g = endo_inverse(f)
    assert f @ g == Endo.identity(3)
    assert g @ f == Endo.identity(3)


# ---------------------------------------------------------------------------
# structure tensors and contractions


def test_mul_apply_dual_numbers():
    mul = catalog.entry("dual-numbers").as_algebra().mul
    one, x = Vec.basis(2, 0), Vec.basis(2, 1)
    assert mul_apply(mul, x, x) == Vec.zero(2)
    assert mul_apply(mul, one, x) == x
    assert mul_apply(mul, Vec.zero(2), x) == Vec.zero(2)


@given(rationals, st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_mul_apply_bilinear(s, i, j, k):
    mul = catalog.entry("dual-numbers").as_algebra().mul
    a, a2, b = Vec.basis(2, i), Vec.basis(2, j), Vec.basis(2, k)
    lhs = mul_apply(mul, a.scale(s) + a2, b)
    rhs = mul_apply(mul, a, b).scale(s) + mul_apply(mul, a2, b)
    assert lhs == rhs
    lhs2 = mul_apply(mul, b, a.scale(s) + a2)
    rhs2 = mul_apply(mul, b, a).scale(s) + mul_apply(mul, b, a2)
    assert lhs2 == rhs2


def _tensor(a, b):
    return Elem2(a.dim, a.map.tensor(b.map))


def test_comul_apply_trivial_left():
    comul = catalog.entry("trivial-left").to_structure("coalgebra").comul
    x = Vec.basis(2, 1)
    assert Elem2(2, comul.map @ x.map) == _tensor(x, Vec.basis(2, 0)).scale(-1)
    assert Elem2(2, comul.map @ Vec.zero(2).map) == Elem2.zero(2)


def test_comul_apply_divided_powers():
    comul = catalog.entry("trunc-poly-2").to_structure("coalgebra").comul
    x2 = Vec.basis(3, 2)
    expected = (_tensor(Vec.basis(3, 0), x2)
                + _tensor(Vec.basis(3, 1), Vec.basis(3, 1))
                + _tensor(x2, Vec.basis(3, 0)))
    assert Elem2(3, comul.map @ x2.map) == expected


# ---------------------------------------------------------------------------
# triple tensor builders


def _unit_cube(dim=2):
    one = [[Q(0)] * dim for _ in range(dim)]
    one[0][0] = Q(1)
    return Elem2(dim, tuple(tuple(r) for r in one))


def test_elem3_build_zero_r(dual_numbers):
    zero = Elem2.zero(2)
    for kind in ("r13r12", "r12r23", "r23r13", "r13", "r12", "r23"):
        out = elem3_build(kind, dual_numbers.mul, ID2, ID2, ID2, ID2,
                          dual_numbers.unit, zero)
        assert out.is_zero()


def test_elem3_build_unit_r(dual_numbers):
    r = _unit_cube()
    expected = Elem3.zero(2)
    cube = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][0] = Q(1)
    expected = Elem3(2, tuple(tuple(tuple(row) for row in plane) for plane in cube))
    for kind in ("r12r23", "r13", "r13r12", "r23r13", "r12", "r23"):
        out = elem3_build(kind, dual_numbers.mul, ID2, ID2, ID2, ID2,
                          dual_numbers.unit, r)
        assert out == expected, kind


def test_elem3_build_r12_is_r_tensor_unit(dual_numbers):
    r = Elem2(2, ((Q(1, 2), Q(-2)), (Q(3), Q(0))))
    out = elem3_build("r12", dual_numbers.mul, ID2, ID2, ID2, ID2,
                      dual_numbers.unit, r)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert out.t[i][j][k] == r.m[i][j] * dual_numbers.unit.coeffs[k]


def test_elem3_build_needs_unit(dual_numbers):
    r = _unit_cube()
    with pytest.raises(MissingUnit):
        elem3_build("r13", dual_numbers.mul, ID2, ID2, ID2, ID2, None, r)


def _elem3_reference(kind, c, alpha, beta, psi, omega, unit, r, rbar):
    """The nested-loop construction the LinMap kernel replaced, on plain
    lists of Fractions: c[i][j][k] the product, each twist a matrix whose
    column j is the image of e_j, unit a list, r and rbar matrices."""
    n = len(c)
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]

    def add(xs, ys, zs, coeff):
        if coeff == 0:
            return
        for a in range(n):
            xa = xs[a]
            if xa == 0:
                continue
            for b in range(n):
                xb = xa * ys[b]
                if xb == 0:
                    continue
                row = out[a][b]
                for c_ in range(n):
                    if zs[c_] != 0:
                        row[c_] += coeff * xb * zs[c_]

    def col(f, i):
        return [f[u][i] for u in range(n)]

    def compose(f, g):
        return [[sum((f[i][k] * g[k][j] for k in range(n)), Q(0)) for j in range(n)]
                for i in range(n)]

    def mul(x, y):
        return [sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), Q(0))
                for k in range(n)]

    basis = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    if kind == "r12":
        for i in range(n):
            for j in range(n):
                add(basis[i], basis[j], unit, r[i][j])
    elif kind == "r23":
        for i in range(n):
            for j in range(n):
                add(unit, basis[i], basis[j], r[i][j])
    elif kind == "r13":
        for i in range(n):
            for j in range(n):
                add(col(omega, i), unit, col(psi, j), r[i][j])
    else:
        alpha_c = [col(alpha, i) for i in range(n)]
        beta_c = [col(beta, i) for i in range(n)]
        alphapsi_c = [col(compose(alpha, psi), i) for i in range(n)]
        betaomega_c = [col(compose(beta, omega), i) for i in range(n)]
        prod = [[mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]
        omega_prod = [[mul(col(omega, i), basis[k]) for k in range(n)] for i in range(n)]
        psi_prod = [[mul(basis[l], col(psi, j)) for j in range(n)] for l in range(n)]
        for i in range(n):
            for j in range(n):
                cij = r[i][j]
                if cij == 0:
                    continue
                for k in range(n):
                    for l in range(n):
                        coeff = cij * rbar[k][l]
                        if coeff == 0:
                            continue
                        if kind == "r12r23":
                            add(alpha_c[i], prod[j][k], beta_c[l], coeff)
                        elif kind == "r13r12":
                            add(omega_prod[i][k], beta_c[l], alphapsi_c[j], coeff)
                        else:  # r23r13
                            add(betaomega_c[i], alpha_c[k], psi_prod[l][j], coeff)
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_elem3_build_and_map_match_nested_loops(data):
    n = data.draw(st.integers(2, 3))
    c = [data.draw(_rows(n, n)) for _ in range(n)]
    alpha, beta, psi, omega, r, rbar = (data.draw(_rows(n, n)) for _ in range(6))
    unit = data.draw(_rows(1, n))[0]
    assume(rbar != r)
    args = (Mul(n, c), *(Endo(n, f) for f in (alpha, beta, psi, omega)), Vec(n, unit))
    flat_r, flat_rbar = (tuple(x for row in m for x in row) for m in (r, rbar))
    for kind in exactcore.ELEM3_KINDS:
        expected = _elem3_reference(kind, c, alpha, beta, psi, omega, unit, r, rbar)
        built = elem3_build(kind, *args, Elem2(n, r), Elem2(n, rbar))
        assert built.t == expected, kind
        # the compiled map, applied to r (x) rbar or to r, gives the same element
        source = (exactcore.outer_flat(flat_r, flat_rbar)
                  if kind in ("r13r12", "r12r23", "r23r13") else flat_r)
        compiled = exactcore.elem3_map(kind, *args).apply_flat(source)
        assert Elem3(n, exactcore.elem_map(compiled)).t == expected, kind


# ---------------------------------------------------------------------------
# the dense map kernel


@given(rationals, rationals, rationals, rationals)
def test_linmap_tensor_compose_interchange(a, b, c, d):
    f = LinMap(2, 2, ((a, b), (c, d)))
    g = LinMap(2, 2, ((d, a), (b, c)))
    h = LinMap(2, 2, ((1, 0), (1, 1)))
    k = LinMap(2, 2, ((0, 1), (1, 0)))
    assert f.tensor(g) @ h.tensor(k) == (f @ h).tensor(g @ k)


def _leg_moves(dims, perm):
    """moves[src] = dst: where each flat index lands when target leg t is
    source leg perm[t]."""
    out_dims = [dims[p] for p in perm]
    moves = []
    for idx in itertools.product(*(range(d) for d in dims)):
        dst = 0
        for d, p in zip(out_dims, perm):
            dst = dst * d + idx[p]
        moves.append(dst)
    return moves


def _leg_permutation_matrix(dims, perm):
    """The reference permutation matrix: target leg t is source leg perm[t]."""
    moves = _leg_moves(dims, perm)
    rows = [[0] * len(moves) for _ in moves]
    for src, dst in enumerate(moves):
        rows[dst][src] = 1
    return LinMap(len(moves), len(moves), tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("dims, perm", [((2, 3, 2), (2, 0, 1)), ((3, 2), (1, 0)),
                                        ((2, 2, 3, 2), (0, 2, 1, 3)), ((3, 3, 3), (1, 0, 2))])
def test_permute_matches_permutation_matrix(dims, perm):
    size = 1
    for d in dims:
        size *= d
    f = LinMap(2, size, tuple(tuple(Q(3 * r + c, 7) for c in range(size)) for r in range(2)))
    g = f.transpose()
    p = _leg_permutation_matrix(dims, perm)
    assert f.permute_cols(dims, perm) == f @ p
    assert g.permute_rows(dims, perm) == p @ g


def test_permute_rows_moves_basis_legs():
    # (1, 0, 2) sends e_a (x) e_b (x) e_c to e_b (x) e_a (x) e_c
    n = 3
    for a, b, c in ((0, 1, 2), (2, 0, 1), (1, 1, 0)):
        flat = [0] * n ** 3
        flat[(a * n + b) * n + c] = 1
        moved = LinMap(n ** 3, 1, tuple((x,) for x in flat)).permute_rows((n, n, n), (1, 0, 2))
        assert [row[0] for row in moved.a].index(1) == (b * n + a) * n + c


def test_permute_and_reshape_check_shapes():
    f = LinMap.zero(2, 6)
    with pytest.raises(DimensionMismatch):
        f.permute_cols((2, 2), (1, 0))
    with pytest.raises(DimensionMismatch):
        f.permute_rows((2, 3), (1, 0))
    with pytest.raises(DimensionMismatch):
        f.reshape(5, 2)


def test_reshape_reads_row_major():
    f = LinMap(2, 3, ((1, 2, 3), (4, 5, 6)))
    assert f.reshape(3, 2) == LinMap(3, 2, ((1, 2), (3, 4), (5, 6)))
    assert f.reshape(1, 6).reshape(2, 3) == f


# ---------------------------------------------------------------------------
# the sparse kernel against a dense nested-loop reference

# A few large-denominator values with their negatives, so that sums of
# products often cancel exactly, next to arbitrary small rationals.
_BIG = [Q(2 ** 61 - 1, 10 ** 12 + 39), Q(-7, 3 ** 25), Q(5, 2 ** 40)]
_values = st.one_of(st.sampled_from(_BIG + [-x for x in _BIG]),
                    st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 6))


@st.composite
def _rows(draw, rows, cols):
    """Dense rows of Fractions, about two cells in three zero."""
    return [[draw(_values) if draw(st.sampled_from((False, False, True))) else Q(0)
             for _ in range(cols)] for _ in range(rows)]


def _cancelling(draw, x):
    """Rows that cancel x exactly on a drawn subset of its cells."""
    y = draw(_rows(len(x), len(x[0])))
    spots = st.tuples(st.integers(0, len(x) - 1), st.integers(0, len(x[0]) - 1))
    for r, c in draw(st.lists(spots, max_size=len(x) * len(x[0]))):
        y[r][c] = -x[r][c]
    return y


def _assert_matches(result, ref):
    """result equals the reference rows cell by cell, every cell is a
    Fraction, and it compares, hashes and views equal to the public build."""
    built = LinMap(len(ref), len(ref[0]), ref)
    assert result.a == tuple(tuple(row) for row in ref)
    assert all(type(x) is Q for row in result.a for x in row)
    assert result == built and hash(result) == hash(built)
    assert result.nonzeros == built.nonzeros
    assert result.differing_columns(built) == []


_side = st.integers(1, 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_binary_ops_match_dense_reference(data):
    r, m, c, r2, c2 = (data.draw(_side) for _ in range(5))
    x, y, z = data.draw(_rows(r, m)), data.draw(_rows(m, c)), data.draw(_rows(r2, c2))
    w = _cancelling(data.draw, x)
    f, g, h, k = LinMap(r, m, x), LinMap(m, c, y), LinMap(r2, c2, z), LinMap(r, m, w)
    _assert_matches(f @ g, [[sum((x[i][t] * y[t][j] for t in range(m)), Q(0))
                             for j in range(c)] for i in range(r)])
    _assert_matches(f.tensor(h), [[x[i][a] * z[j][b] for a in range(m) for b in range(c2)]
                                  for i in range(r) for j in range(r2)])
    _assert_matches(f + k, [[x[i][j] + w[i][j] for j in range(m)] for i in range(r)])
    _assert_matches(f - k, [[x[i][j] - w[i][j] for j in range(m)] for i in range(r)])
    _assert_matches(f - f, [[Q(0)] * m for _ in range(r)])
    _assert_matches(f @ f.transpose(), [[sum((x[i][t] * x[j][t] for t in range(m)), Q(0))
                                         for j in range(r)] for i in range(r)])
    _assert_matches(k.transpose() @ f, [[sum((w[t][i] * x[t][j] for t in range(r)), Q(0))
                                         for j in range(m)] for i in range(m)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_unary_ops_match_dense_reference(data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    perm = data.draw(st.permutations(range(len(dims))))
    r, cols = data.draw(_side), math.prod(dims)
    x = data.draw(_rows(r, cols))
    s = data.draw(st.one_of(st.just(Q(0)), st.just(Q(1)), _values))
    f = LinMap(r, cols, x)
    _assert_matches(f.scale(s), [[s * v for v in row] for row in x])
    _assert_matches(f.scale(0), [[Q(0)] * cols for _ in range(r)])
    xt = [[x[i][j] for i in range(r)] for j in range(cols)]
    _assert_matches(f.transpose(), xt)
    flat = [v for row in x for v in row]
    new_rows = data.draw(st.sampled_from([d for d in range(1, r * cols + 1) if r * cols % d == 0]))
    new_cols = r * cols // new_rows
    _assert_matches(f.reshape(new_rows, new_cols),
                    [flat[i * new_cols:(i + 1) * new_cols] for i in range(new_rows)])
    moves = _leg_moves(dims, perm)
    _assert_matches(f.permute_cols(dims, perm), [[row[moves[j]] for j in range(cols)] for row in x])
    moved = [None] * cols
    for src, dst in enumerate(moves):
        moved[dst] = xt[src]
    _assert_matches(f.transpose().permute_rows(dims, perm), moved)


def test_differing_columns():
    f = LinMap(2, 3, ((1, 0, 2), (0, 0, 3)))
    g = LinMap(2, 3, ((1, 0, 2), (5, 0, 0)))
    assert f.differing_columns(g) == [0, 2]
    assert f.differing_columns(f.scale(1)) == []
    with pytest.raises(DimensionMismatch):
        f.differing_columns(f.transpose())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_comparison_and_readers_match_dense_reference(data):
    r, cols = data.draw(_side), data.draw(_side)
    x = data.draw(_rows(r, cols))
    y = data.draw(st.one_of(st.just([list(row) for row in x]), _rows(r, cols)))
    for i in data.draw(st.sets(st.integers(0, r - 1))):
        y[i] = [Q(0)] * cols                            # empty rows
    w = _cancelling(data.draw, y)
    f = LinMap(r, cols, x)
    g = LinMap(r, cols, y) + LinMap(r, cols, w)         # cancels exactly on some cells
    z = [[y[i][j] + w[i][j] for j in range(cols)] for i in range(r)]
    for m, ref in ((f, x), (g, z)):
        assert m.a == tuple(tuple(row) for row in ref)
    differ = [j for j in range(cols) if any(x[i][j] != z[i][j] for i in range(r))]
    assert f.differing_columns(g) == g.differing_columns(f) == differ
    assert g.differing_columns(LinMap(r, cols, z)) == []
    assert (g - LinMap(r, cols, w)).differing_columns(LinMap(r, cols, y)) == []

    n = data.draw(_side)
    u, a, b = (data.draw(_rows(1, n))[0] for _ in range(3))
    s = data.draw(_rows(n, n))
    assert Covec(n, u)(Vec(n, a)) == sum((u[i] * a[i] for i in range(n)), Q(0))
    assert BiForm(n, s)(Vec(n, a), Vec(n, b)) == sum(
        (s[i][j] * a[i] * b[j] for i in range(n) for j in range(n)), Q(0))


# ---------------------------------------------------------------------------
# built maps are not coerced again


@pytest.fixture
def coerce_calls(monkeypatch):
    """The number of _coerce calls since the fixture was set up."""
    calls = [0]
    coerce = exactcore._coerce

    def counting(values):
        calls[0] += 1
        return coerce(values)

    monkeypatch.setattr(exactcore, "_coerce", counting)
    return calls


def test_kernel_results_skip_coerce(coerce_calls):
    f = LinMap(4, 4, tuple(tuple(Q(i - j, i + j + 1) for j in range(4)) for i in range(4)))
    g = LinMap(4, 2, ((1, 0), (0, Q(2, 3)), (0, 0), (-1, 1)))
    coerce_calls[0] = 0
    results = [f @ g, f.tensor(g), f + f, f - f, f.scale(Q(3, 2)), f.scale(0), f.transpose(),
               f.reshape(2, 8), f.permute_cols((2, 2), (1, 0)), f.permute_rows((2, 2), (1, 0)),
               LinMap.identity(3), LinMap.zero(2, 3)]
    assert coerce_calls[0] == 0
    assert all(type(x) is Q for m in results for row in m.a for x in row)


def test_check_infbh_bialgebra_barely_coerces(coerce_calls):
    """The structure maps and every composite of a dimension-8 check are
    built from cells that are already exact."""
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "trunc-poly-7.json")
    b = models.load(path).to_structure("bialgebra")
    coerce_calls[0] = 0
    assert axioms.check_infbh_bialgebra(b).violations
    assert coerce_calls[0] <= 24


def test_kernel_results_stay_sparse(monkeypatch, capsys):
    """A check and a rendered report read no map's dense rows: every map
    built holds only its view of nonzero cells."""
    built = []
    init = LinMap.__post_init__

    def record(self):
        init(self)
        built.append(self)

    monkeypatch.setattr(LinMap, "__post_init__", record)
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "trunc-poly-7.json")
    assert axioms.check_infbh_bialgebra(models.load(path).to_structure("bialgebra")).violations
    assert cli.run(["verify", path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["violations"]
    assert built and not [m for m in built if "a" in m.__dict__]


@pytest.mark.parametrize("record", [Vec, Covec, Endo, Mul, Comul, Elem2, Elem3, BiForm])
def test_records_on_dim_zero(record):
    assert record.zero(0) == record(0, ())
    assert Mul.zero(0).c == Elem2.zero(0).m == Vec.zero(0).coeffs == ()


def test_render_canonical():
    assert render_flat([(0, Q(1)), (1, Q(-2))], (2,), ("e",)) == "e0 - 2*e1"
    assert render_flat([], (2, 2), ("e", "e")) == "0"
    assert render_flat([(1, Q(1, 2)), (2, Q(-1))], (2, 2), ("e", "e")) == "1/2*e0(x)e1 - e1(x)e0"
    assert render_flat([(0, Q(-3, 2))], (), ()) == "-3/2"
    assert render_flat([], (), ()) == "0"
    t = Elem3(2, {(0, 1, 1): Q(2), (1, 0, 0): Q(-1)})
    assert render_elem3(t) == "2*e0(x)e1(x)e1 - e1(x)e0(x)e0"


_coefficients = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(1)), st.just(Q(-1)),
                          st.fractions(min_value=-5, max_value=5, max_denominator=9))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_flat_matches_dense_reference(data):
    """The renderer over nonzero cells prints what the dense walk printed,
    on 0 to 3 legs (the scalar case too), zero vectors, +-1, fractions and
    negative leading terms, with e and m legs."""
    dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    legs = tuple(data.draw(st.sampled_from("em")) for _ in dims)
    coeffs = data.draw(st.one_of(st.lists(_coefficients, min_size=math.prod(dims),
                                          max_size=math.prod(dims)),
                                 st.just([Q(0)] * math.prod(dims))))
    cells = [(flat, c) for flat, c in enumerate(coeffs) if c]
    assert render_flat(cells, dims, legs) == render_flat_dense(coeffs, dims, legs)
