"""Exact rational tensor kernel.

Basis-indexed vectors, functionals, endomorphisms, rank-2/3 structure
tensors and the dense contraction primitives every other module consumes.

Conventions, fixed once for the whole package:

* the ground field is Q, realised by ``fractions.Fraction`` (always in
  lowest terms, positive denominator, arbitrary precision);
* basis indices are 0-based everywhere, including the file format;
* an endomorphism stores the image of basis vector ``e_j`` in column j,
  so application is the ordinary matrix-vector product;
* a multiplication tensor ``c`` means ``e_i . e_j = sum_k c[i][j][k] e_k``;
* a comultiplication tensor ``d`` means
  ``D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k``;
* tensor legs pair row-major: the flat index of ``e_i (x) e_j`` on a
  product of spaces of dimensions (m, n) is ``i*n + j``.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadScalar, DimensionMismatch, MissingUnit, SingularMap

Q = Fraction
ZERO = Q(0)
ONE = Q(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def scalar_parse(text: str) -> Q:
    """Parse an exact rational written as 'p' or 'p/q' (q > 0)."""
    if not isinstance(text, str) or not _SCALAR_RE.match(text.strip()):
        raise BadScalar(f"malformed scalar {text!r}")
    body = text.strip()
    if "/" in body and body.split("/")[1].lstrip("0") == "":
        raise BadScalar(f"zero denominator in {text!r}")
    return Q(body)


def scalar_render(x: Q) -> str:
    """Canonical rendering: 'p/q' in lowest terms, 'p' for integers."""
    return str(x)


def _coerce(values: Iterable) -> tuple:
    return tuple(v if type(v) is Q else Q(v) for v in values)


# ---------------------------------------------------------------------------
# basic carriers


@dataclass(frozen=True)
class Vec:
    dim: int
    coeffs: tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce(self.coeffs))
        if len(self.coeffs) != self.dim:
            raise DimensionMismatch(f"vector of length {len(self.coeffs)} on dim {self.dim}")

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec(dim, (ZERO,) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> "Vec":
        return Vec(dim, tuple(ONE if j == i else ZERO for j in range(dim)))

    def __add__(self, other: "Vec") -> "Vec":
        _same_dim(self, other)
        return Vec(self.dim, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Vec") -> "Vec":
        _same_dim(self, other)
        return Vec(self.dim, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Vec":
        return Vec(self.dim, tuple(-a for a in self.coeffs))

    def scale(self, s) -> "Vec":
        s = Q(s)
        return Vec(self.dim, tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


@dataclass(frozen=True)
class Covec:
    """A linear functional, stored by its values on the basis."""

    dim: int
    coeffs: tuple[Q, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce(self.coeffs))
        if len(self.coeffs) != self.dim:
            raise DimensionMismatch(f"covector of length {len(self.coeffs)} on dim {self.dim}")

    def __call__(self, v: Vec) -> Q:
        _same_dim(self, v)
        return sum((c * x for c, x in zip(self.coeffs, v.coeffs)), ZERO)


def _same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs dim {b.dim}")


@dataclass(frozen=True)
class Endo:
    """A linear endomorphism; column j holds the image of e_j."""

    dim: int
    entries: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        rows = tuple(_coerce(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise DimensionMismatch(f"{len(rows)} rows on dim {self.dim}")

    @staticmethod
    def identity(dim: int) -> "Endo":
        return Endo(dim, tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)))

    @staticmethod
    def diagonal(diag: Sequence) -> "Endo":
        d = _coerce(diag)
        n = len(d)
        return Endo(n, tuple(tuple(d[i] if i == j else ZERO for j in range(n)) for i in range(n)))

    def __call__(self, v: Vec) -> Vec:
        _same_dim(self, v)
        return Vec(self.dim, endo_map(self).apply_flat(v.coeffs))

    def __matmul__(self, other: "Endo") -> "Endo":
        """Composition self o other."""
        _same_dim(self, other)
        return Endo(self.dim, (endo_map(self) @ endo_map(other)).a)

    def transpose(self) -> "Endo":
        return Endo(self.dim, endo_map(self).transpose().a)

    def is_identity(self) -> bool:
        return self == Endo.identity(self.dim)

    def commutes_with(self, other: "Endo") -> bool:
        return self @ other == other @ self


def endo_inverse(f: Endo) -> Endo:
    """Exact inverse by Gauss-Jordan elimination; raises SingularMap."""
    n = f.dim
    aug = [list(f.entries[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMap("determinant is zero")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [inv * x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return Endo(n, tuple(tuple(row[n:]) for row in aug))


def endo_is_invertible(f: Endo) -> bool:
    try:
        endo_inverse(f)
        return True
    except SingularMap:
        return False


# ---------------------------------------------------------------------------
# structure tensors


@dataclass(frozen=True)
class Mul:
    """Multiplication structure constants: e_i . e_j = sum_k c[i][j][k] e_k."""

    dim: int
    c: tuple[tuple[tuple[Q, ...], ...], ...]

    def __post_init__(self):
        cube = tuple(tuple(_coerce(row) for row in plane) for plane in self.c)
        object.__setattr__(self, "c", cube)
        n = self.dim
        if len(cube) != n or any(len(p) != n for p in cube) or any(len(r) != n for p in cube for r in p):
            raise DimensionMismatch("multiplication tensor is not cubic")

    @staticmethod
    def zero(dim: int) -> "Mul":
        return Mul(dim, (((ZERO,) * dim,) * dim,) * dim)

    def __add__(self, other: "Mul") -> "Mul":
        _same_dim(self, other)
        return Mul(self.dim, action_table(mul_map(self) + mul_map(other), self.dim, self.dim))


@dataclass(frozen=True)
class Comul:
    """Comultiplication constants: D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k."""

    dim: int
    d: tuple[tuple[tuple[Q, ...], ...], ...]

    def __post_init__(self):
        cube = tuple(tuple(_coerce(row) for row in plane) for plane in self.d)
        object.__setattr__(self, "d", cube)
        n = self.dim
        if len(cube) != n or any(len(p) != n for p in cube) or any(len(r) != n for p in cube for r in p):
            raise DimensionMismatch("comultiplication tensor is not cubic")

    @staticmethod
    def zero(dim: int) -> "Comul":
        return Comul(dim, (((ZERO,) * dim,) * dim,) * dim)


@dataclass(frozen=True)
class Elem2:
    """An element r = sum m[i][j] e_i (x) e_j of A (x) A."""

    dim: int
    m: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        rows = tuple(_coerce(row) for row in self.m)
        object.__setattr__(self, "m", rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise DimensionMismatch("Elem2 matrix is not square of side dim")

    @staticmethod
    def zero(dim: int) -> "Elem2":
        return Elem2(dim, ((ZERO,) * dim,) * dim)

    def __add__(self, other: "Elem2") -> "Elem2":
        _same_dim(self, other)
        return Elem2(self.dim, tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.m, other.m)))

    def __sub__(self, other: "Elem2") -> "Elem2":
        _same_dim(self, other)
        return Elem2(self.dim, tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.m, other.m)))

    def __neg__(self) -> "Elem2":
        return Elem2(self.dim, tuple(tuple(-a for a in r) for r in self.m))

    def scale(self, s) -> "Elem2":
        s = Q(s)
        return Elem2(self.dim, tuple(tuple(s * a for a in r) for r in self.m))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.m for a in r)


@dataclass(frozen=True)
class Elem3:
    """An element of A (x) A (x) A over a triple tensor basis."""

    dim: int
    t: tuple[tuple[tuple[Q, ...], ...], ...]

    def __post_init__(self):
        cube = tuple(tuple(_coerce(row) for row in plane) for plane in self.t)
        object.__setattr__(self, "t", cube)
        n = self.dim
        if len(cube) != n or any(len(p) != n for p in cube) or any(len(r) != n for p in cube for r in p):
            raise DimensionMismatch("Elem3 tensor is not cubic of side dim")

    @staticmethod
    def zero(dim: int) -> "Elem3":
        return Elem3(dim, (((ZERO,) * dim,) * dim,) * dim)

    def is_zero(self) -> bool:
        return all(x == 0 for p in self.t for r in p for x in r)


@dataclass(frozen=True)
class BiForm:
    """A bilinear functional on A (x) A: s[i][j] = sigma(e_i, e_j)."""

    dim: int
    s: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        rows = tuple(_coerce(row) for row in self.s)
        object.__setattr__(self, "s", rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise DimensionMismatch("BiForm matrix is not square of side dim")

    def __call__(self, a: Vec, b: Vec) -> Q:
        _same_dim(self, a)
        _same_dim(a, b)
        return biform_map(self).apply_flat(outer_flat(a.coeffs, b.coeffs))[0]


# ---------------------------------------------------------------------------
# contractions


def mul_apply(m: Mul, a: Vec, b: Vec) -> Vec:
    """Bilinear product sum a_i b_j c[i][j][k] e_k."""
    _same_dim(m, a)
    _same_dim(a, b)
    return Vec(m.dim, mul_map(m).apply_flat(outer_flat(a.coeffs, b.coeffs)))


def comul_apply(d: Comul, a: Vec) -> Elem2:
    """Linear extension of the coproduct to a, as an Elem2."""
    _same_dim(d, a)
    return Elem2(d.dim, (comul_map(d) @ elem_map(a.coeffs)).reshape(d.dim, d.dim).a)


def tensor_vv(a: Vec, b: Vec) -> Elem2:
    _same_dim(a, b)
    return Elem2(a.dim, form_map(outer_flat(a.coeffs, b.coeffs)).reshape(a.dim, a.dim).a)


def square_map(f: Endo) -> LinMap:
    """f (x) f on A (x) A."""
    fm = endo_map(f)
    return fm.tensor(fm)


def biform_invariant_under(f: Endo, s: BiForm) -> bool:
    """f-invariance of a bilinear form: sigma o (f (x) f) = sigma."""
    sig = biform_map(s)
    return sig @ square_map(f) == sig


ELEM3_KINDS = ("r13r12", "r12r23", "r23r13", "r13", "r12", "r23")
_ELEM3_PRODUCTS = ELEM3_KINDS[:3]


def _elem3_check(kind: str, m: Mul, twists: Sequence[Endo], unit: Vec | None):
    if kind not in ELEM3_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    for other in twists:
        _same_dim(m, other)
    if kind not in _ELEM3_PRODUCTS:
        if unit is None:
            raise MissingUnit(f"building {kind} needs the unit element")
        _same_dim(m, unit)


def elem3_map(kind: str, m: Mul, alpha: Endo, beta: Endo, psi: Endo, omega: Endo,
              unit: Vec | None) -> LinMap:
    """The map behind elem3_build, compiled once for many r: a product kind
    is a map on r (x) rbar, whose legs (i, j, k, l) carry r_ij rbar_kl, and
    a linear kind a map on r. A product kind holds n^3 x n^4 cells, so a
    single r goes through elem3_build instead."""
    _elem3_check(kind, m, (alpha, beta, psi, omega), unit)
    n = m.dim
    i1, mu = LinMap.identity(n), mul_map(m)
    al, be, ps, om = map(endo_map, (alpha, beta, psi, omega))
    legs = ((n,) * 4, (0, 2, 3, 1))
    if kind == "r12r23":
        return al.tensor(mu).tensor(be)
    if kind == "r13r12":
        return (mu @ om.tensor(i1)).tensor(be).tensor(al @ ps).permute_cols(*legs)
    if kind == "r23r13":
        return (be @ om).tensor(al).tensor(mu @ i1.tensor(ps)).permute_cols(*legs)
    u = unit_map(unit)
    if kind == "r13":
        return om.tensor(u).tensor(ps)
    if kind == "r12":
        return i1.tensor(i1).tensor(u)
    return u.tensor(i1).tensor(i1)


def _sandwich(x: LinMap, mu: LinMap, y: LinMap) -> LinMap:
    """sum_{b,e} x[a][b] y[e][d] e_b.e_e for n x n maps x and y, as the
    1 x n^3 map of its coefficients on legs (a, product, d)."""
    n = x.rows
    w = (mu.reshape(n * n, n) @ y).reshape(1, n ** 3)           # legs (c, b, d)
    w = w.permute_cols((n,) * 3, (1, 0, 2)).reshape(n, n * n)  # rows b, cols (c, d)
    return (x @ w).reshape(1, n ** 3)


def elem3_build(kind: str, m: Mul, alpha: Endo, beta: Endo, psi: Endo, omega: Endo,
                unit: Vec | None, r: Elem2, rbar: Elem2 | None = None) -> Elem3:
    """The six standard elements of A (x) A (x) A built from r (and rbar).

    With rbar defaulting to r itself:

        r12r23 = alpha(r1) (x) r2.rb1     (x) beta(rb2)
        r13r12 = omega(r1).rb1 (x) beta(rb2) (x) alpha psi(r2)
        r23r13 = beta omega(r1) (x) alpha(rb1) (x) rb2.psi(r2)
        r13    = omega(r1) (x) 1 (x) psi(r2)
        r12    = r (x) 1
        r23    = 1 (x) r

    For a product kind, r and rbar are n x n maps (r_ij in row i, column
    j), so (f (x) g)(r) is f @ r @ g^T: the twists act on them before any
    tensor product is formed, and no map exceeds n^3 cells.
    """
    _elem3_check(kind, m, (alpha, beta, psi, omega), unit)
    rbar = r if rbar is None else rbar
    _same_dim(m, r)
    _same_dim(m, rbar)
    n = m.dim
    if kind not in _ELEM3_PRODUCTS:   # a linear kind: its map has n^5 cells
        return flat_elem3(elem3_map(kind, m, alpha, beta, psi, omega, unit)
                          .apply_flat(elem2_flat(r)), n)
    mu, al, be, ps, om = mul_map(m), *map(endo_map, (alpha, beta, psi, omega))
    legs = (n,) * 3
    rm, rb = LinMap._exact(n, n, r.m), LinMap._exact(n, n, rbar.m)
    if kind == "r12r23":
        flat = _sandwich(al @ rm, mu, rb @ be.transpose())
    elif kind == "r13r12":     # sandwich legs (alpha psi(r2), product, beta(rb2))
        flat = _sandwich((al @ ps) @ rm.transpose() @ om.transpose(), mu,
                         rb @ be.transpose()).permute_cols(legs, (2, 0, 1))
    else:                      # sandwich legs (alpha(rb1), product, beta omega(r1))
        flat = _sandwich(al @ rb, mu,
                         ps @ rm.transpose() @ (be @ om).transpose()).permute_cols(legs, (1, 2, 0))
    return flat_elem3(flat.a[0], n)


# ---------------------------------------------------------------------------
# exact linear maps between tensor powers (the checking backbone)


_NO_CELLS = ((), ())


def _row_view(row: Sequence[Q]) -> tuple[tuple[int, ...], tuple[Q, ...]]:
    """The nonzero cells of a dense row as (columns ascending, values).
    Tuples are built from lists, see apply_flat."""
    cs = tuple([c for c, v in enumerate(row) if v])
    return (cs, tuple([row[c] for c in cs])) if cs else _NO_CELLS


def _dict_view(acc: dict) -> tuple[tuple[int, ...], tuple[Q, ...]]:
    """The nonzero cells of a {column: value} accumulator, as _row_view."""
    cs = tuple(sorted([c for c, v in acc.items() if v]))
    return (cs, tuple([acc[c] for c in cs])) if cs else _NO_CELLS


def _gather(rows: int, cells: Iterable) -> list:
    """Per-row views of nonzero (row, col, value) cells that come in
    ascending column order within each row."""
    out: list[tuple[list, list]] = [([], []) for _ in range(rows)]
    for r, c, v in cells:
        out[r][0].append(c)
        out[r][1].append(v)
    return [(tuple(cs), tuple(vs)) if cs else _NO_CELLS for cs, vs in out]


@dataclass(frozen=True)
class LinMap:
    """An exact linear map; a[r][c] with cols indexing the source basis.

    ``a`` holds dense rows of Fractions. ``nonzeros`` is a per-row view of
    the nonzero cells as (columns ascending, values); it is cached on the
    instance outside the dataclass fields, so it takes no part in ==, hash
    or repr. Every operation reads and writes nonzero cells only, and hands
    its result the view it computed.
    """

    rows: int
    cols: int
    a: tuple[tuple[Q, ...], ...]

    def __post_init__(self):
        # Maps built by _exact arrive with exact cells and their view.
        if "nonzeros" not in self.__dict__:
            object.__setattr__(self, "a", tuple(_coerce(row) for row in self.a))
        if len(self.a) != self.rows or any(len(r) != self.cols for r in self.a):
            raise DimensionMismatch(f"LinMap shape {len(self.a)} rows, expected {self.rows}x{self.cols}")

    @classmethod
    def _exact(cls, rows: int, cols: int, a: tuple, nonzeros: tuple | None = None) -> "LinMap":
        """The private constructor: dense rows whose cells are already
        Fractions, and optionally their view; skips _coerce."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, a=a,
                          nonzeros=tuple(map(_row_view, a)) if nonzeros is None else nonzeros)
        m.__post_init__()
        return m

    @classmethod
    def _from_nonzeros(cls, rows: int, cols: int, nonzeros: Sequence) -> "LinMap":
        """The map with the given view; fills in the dense rows."""
        blank = (ZERO,) * cols
        a = []
        for cs, vs in nonzeros:
            if cs:
                row = list(blank)
                for c, v in zip(cs, vs):
                    row[c] = v
                a.append(tuple(row))
            else:
                a.append(blank)
        return cls._exact(rows, cols, tuple(a), tuple(nonzeros))

    @functools.cached_property
    def nonzeros(self) -> tuple[tuple[tuple[int, ...], tuple[Q, ...]], ...]:
        return tuple(map(_row_view, self.a))

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap._from_nonzeros(n, n, [((i,), (ONE,)) for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "LinMap":
        return LinMap._from_nonzeros(rows, cols, (_NO_CELLS,) * rows)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if self.cols != other.rows:
            raise DimensionMismatch(f"compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        right = other.nonzeros
        out = []
        for cs, vs in self.nonzeros:
            acc: dict[int, Q] = {}
            for k, s in zip(cs, vs):
                kcs, kvs = right[k]
                for j, t in zip(kcs, kvs):
                    x = acc.get(j)
                    acc[j] = s * t if x is None else x + s * t
            out.append(_dict_view(acc))
        return LinMap._from_nonzeros(self.rows, other.cols, out)

    def tensor(self, other: "LinMap") -> "LinMap":
        """Kronecker product, row-major leg pairing."""
        oc = other.cols
        out = []
        for cs, vs in self.nonzeros:
            for ocs, ovs in other.nonzeros:
                if cs and ocs:
                    out.append((tuple(k * oc + l for k in cs for l in ocs),
                                tuple(s * t for s in vs for t in ovs)))
                else:
                    out.append(_NO_CELLS)
        return LinMap._from_nonzeros(self.rows * other.rows, self.cols * oc, out)

    def transpose(self) -> "LinMap":
        return LinMap._from_nonzeros(self.cols, self.rows, _gather(self.cols, (
            (c, r, v) for r, (cs, vs) in enumerate(self.nonzeros) for c, v in zip(cs, vs))))

    def reshape(self, rows: int, cols: int) -> "LinMap":
        """The same cells, read row-major, as a rows x cols map; turns a map
        into a functional on its (target, source) legs and back."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch(f"reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return LinMap._from_nonzeros(rows, cols, _gather(rows, (
            (*divmod(r * self.cols + c, cols), v)
            for r, (cs, vs) in enumerate(self.nonzeros) for c, v in zip(cs, vs))))

    def permute_cols(self, dims: Sequence[int], perm: Sequence[int]) -> "LinMap":
        """self after the leg reordering perm of its source (legs dims, see
        _leg_targets), by reindexing the columns."""
        moved = [0] * self.cols
        for dst, src in enumerate(_leg_targets(dims, perm, self.cols)):
            moved[src] = dst
        out = []
        for cs, vs in self.nonzeros:
            cells = sorted(zip(map(moved.__getitem__, cs), vs))
            out.append((tuple(c for c, _ in cells), tuple(v for _, v in cells)) if cells else _NO_CELLS)
        return LinMap._from_nonzeros(self.rows, self.cols, out)

    def permute_rows(self, dims: Sequence[int], perm: Sequence[int]) -> "LinMap":
        """The leg reordering perm of the target of self (legs dims) after
        self, by reindexing the rows."""
        order = [0] * self.rows
        for src, dst in enumerate(_leg_targets(dims, perm, self.rows)):
            order[dst] = src
        return LinMap._exact(self.rows, self.cols, tuple(self.a[s] for s in order),
                             tuple(self.nonzeros[s] for s in order))

    def _combine(self, other: "LinMap", negate: bool) -> "LinMap":
        out = []
        for (cs, vs), (ocs, ovs) in zip(self.nonzeros, other.nonzeros):
            if not ocs:
                out.append((cs, vs))
                continue
            acc = dict(zip(cs, vs))
            for c, v in zip(ocs, ovs):
                x = acc.get(c)
                if negate:
                    acc[c] = -v if x is None else x - v
                else:
                    acc[c] = v if x is None else x + v
            out.append(_dict_view(acc))
        return LinMap._from_nonzeros(self.rows, self.cols, out)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("adding maps of different shape")
        return self._combine(other, negate=False)

    def __sub__(self, other: "LinMap") -> "LinMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("subtracting maps of different shape")
        return self._combine(other, negate=True)

    def scale(self, s) -> "LinMap":
        s = Q(s)
        if not s:
            return LinMap.zero(self.rows, self.cols)
        return LinMap._from_nonzeros(self.rows, self.cols, [
            (cs, tuple(s * v for v in vs)) for cs, vs in self.nonzeros])

    def column(self, c: int) -> tuple[Q, ...]:
        return tuple(row[c] for row in self.a)

    def differing_columns(self, other: "LinMap") -> list[int]:
        """The columns, ascending, in which self and other differ."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("comparing maps of different shape")
        mine, theirs = self.transpose().nonzeros, other.transpose().nonzeros
        return [c for c in range(self.cols) if mine[c] != theirs[c]]

    def apply_flat(self, coeffs: Sequence[Q]) -> tuple[Q, ...]:
        if len(coeffs) != self.cols:
            raise DimensionMismatch("flat vector length does not match map source")
        # tuple() of a list, not of a generator: CPython sizes the latter by
        # a guess and resizes it, so a search that applies maps per candidate
        # leaves up to 2,000 tuples on each per-size free list.
        return tuple([sum((v * coeffs[c] for c, v in zip(cs, vs)), ZERO)
                      for cs, vs in self.nonzeros])


# The converters below take cells that are already Fractions (from Vec,
# Covec, Endo, Elem2, Elem3, BiForm and the frozen structure tables), so
# they build through LinMap._exact.


def endo_map(f: Endo) -> LinMap:
    return LinMap._exact(f.dim, f.dim, f.entries)


def endo_tensor(*fs: Endo) -> Endo:
    """The Kronecker product f_1 (x) f_2 (x) ... of endomorphisms."""
    m = endo_map(fs[0])
    for f in fs[1:]:
        m = m.tensor(endo_map(f))
    return Endo(m.rows, m.a)


def elem_map(coeffs: Sequence[Q]) -> LinMap:
    """A vector (of any tensor power, flat row-major) as the map K -> V."""
    return LinMap._exact(len(coeffs), 1, tuple((c,) for c in coeffs))


def form_map(coeffs: Sequence[Q]) -> LinMap:
    """A functional (on any tensor power, flat row-major) as the map V -> K."""
    return LinMap._exact(1, len(coeffs), (tuple(coeffs),))


def biform_map(s: BiForm) -> LinMap:
    """A bilinear form as the one-row map A (x) A -> K."""
    return form_map(tuple(x for row in s.s for x in row))


def unit_map(u: Vec) -> LinMap:
    """The unit K -> A as a one-column map."""
    return elem_map(u.coeffs)


def counit_map(e: Covec) -> LinMap:
    """A counit A -> K as a one-row map."""
    return form_map(e.coeffs)


# The two layouts of a rank-3 table t[a][b][c] (dimensions d0, d1, d2) as
# a LinMap; every structure tensor of the package is stored in one of them.


def _two_to_one(t, d0: int, d1: int, d2: int) -> LinMap:
    """e_a (x) e_b -> sum_c t[a][b][c] e_c."""
    return LinMap._exact(d2, d0 * d1, tuple(
        tuple(t[a][b][c] for a in range(d0) for b in range(d1)) for c in range(d2)))


def _one_to_two(t, d0: int, d1: int, d2: int) -> LinMap:
    """e_a -> sum_{b,c} t[a][b][c] e_b (x) e_c."""
    return LinMap._exact(d1 * d2, d0, tuple(
        tuple(t[a][b][c] for a in range(d0)) for b in range(d1) for c in range(d2)))


def action_table(f: LinMap, d0: int, d1: int) -> tuple:
    """Inverse of the two-to-one layout: t[a][b][c] is the e_c coefficient
    of f(e_a (x) e_b), for source legs of dimensions (d0, d1). Gives Mul.c
    and left / right action tables."""
    return tuple(tuple(tuple(f.a[c][a * d1 + b] for c in range(f.rows))
                       for b in range(d1)) for a in range(d0))


def coaction_table(f: LinMap, d1: int, d2: int) -> tuple:
    """Inverse of the one-to-two layout: t[a][b][c] is the e_b (x) e_c
    coefficient of f(e_a), for target legs of dimensions (d1, d2). Gives
    Comul.d and left / right coaction tables."""
    return tuple(tuple(tuple(f.a[b * d2 + c][a] for c in range(d2))
                       for b in range(d1)) for a in range(f.cols))


def mul_map(m: Mul) -> LinMap:
    """mu as a map A (x) A -> A."""
    return action_map(m.c, m.dim, m.dim)


def comul_map(d: Comul) -> LinMap:
    """Delta as a map A -> A (x) A."""
    return coaction_map(d.d, d.dim, d.dim)


def action_map(act, dim_a: int, dim_m: int) -> LinMap:
    """A left action A (x) M -> M from act[i][p][q]."""
    return _two_to_one(act, dim_a, dim_m, dim_m)


def raction_map(ract, dim_m: int, dim_a: int) -> LinMap:
    """A right action M (x) A -> M from ract[p][i][q]."""
    return _two_to_one(ract, dim_m, dim_a, dim_m)


def coaction_map(h, dim_m: int, dim_a: int) -> LinMap:
    """A left coaction M -> A (x) M from h[p][i][q]."""
    return _one_to_two(h, dim_m, dim_a, dim_m)


def rcoaction_map(h, dim_m: int, dim_a: int) -> LinMap:
    """A right coaction M -> M (x) A from h[p][q][i]."""
    return _one_to_two(h, dim_m, dim_m, dim_a)


def elem2_flat(r: Elem2) -> tuple[Q, ...]:
    return tuple(r.m[i][j] for i in range(r.dim) for j in range(r.dim))


def outer_flat(x: Sequence[Q], y: Sequence[Q]) -> tuple[Q, ...]:
    """The flat coefficients of x (x) y from the flat coefficients of x and y."""
    return tuple([a * b for a in x for b in y])  # a list first, see apply_flat


def elem3_flat(t: Elem3) -> tuple[Q, ...]:
    n = t.dim
    return tuple(t.t[i][j][k] for i in range(n) for j in range(n) for k in range(n))


def flat_elem3(coeffs: Sequence[Q], dim: int) -> Elem3:
    n = dim
    return Elem3(n, tuple(tuple(tuple(coeffs[(i * n + j) * n + k] for k in range(n))
                                for j in range(n)) for i in range(n)))


def _leg_targets(dims: Sequence[int], perm: Sequence[int], size: int) -> list[int]:
    """Where each flat index over legs dims (spanning size indices) lands
    when target leg t is source leg perm[t]: (1, 0, 2) on (n, n, n) sends
    e_a (x) e_b (x) e_c to e_b (x) e_a (x) e_c."""
    out_dims = [dims[p] for p in perm]
    targets = []
    for idx in itertools.product(*(range(d) for d in dims)):
        dst = 0
        for d, p in zip(out_dims, perm):
            dst = dst * d + idx[p]
        targets.append(dst)
    if len(targets) != size:
        raise DimensionMismatch(f"legs {tuple(dims)} span {len(targets)} indices, not {size}")
    return targets


def first_nonmultiplicative(f: Endo, m: Mul) -> tuple[int, int] | None:
    """The first basis pair (i, j) with f(e_i e_j) != f(e_i) f(e_j), or None."""
    fm, mu = endo_map(f), mul_map(m)
    bad = (fm @ mu).differing_columns(mu @ fm.tensor(fm))
    return divmod(bad[0], m.dim) if bad else None


def first_noncommuting(maps: dict[str, Endo]) -> tuple[str, str] | None:
    """The first pair of names, in insertion order, whose maps do not commute."""
    for x, y in itertools.combinations(maps, 2):
        fx, fy = endo_map(maps[x]), endo_map(maps[y])
        if fx @ fy != fy @ fx:
            return x, y
    return None


# ---------------------------------------------------------------------------
# canonical rendering of exact values (used by reports)


def render_flat(coeffs: Sequence[Q], dims: Sequence[int], legs: Sequence[str]) -> str:
    """Render a tensor by its nonzero coordinates, e.g. 'e0(x)e1 - 2*e1(x)e0'."""
    if not dims:
        return scalar_render(coeffs[0])
    terms = []
    for flat, c in enumerate(coeffs):
        if c == 0:
            continue
        idx = []
        rem = flat
        for d in reversed(dims):
            rem, part = divmod(rem, d)
            idx.append(part)
        idx.reverse()
        basis = "(x)".join(f"{leg}{i}" for leg, i in zip(legs, idx))
        if c == 1:
            term = basis
        elif c == -1:
            term = "-" + basis
        else:
            term = f"{scalar_render(c)}*{basis}"
        terms.append(term)
    if not terms:
        return "0"
    text = terms[0]
    for term in terms[1:]:
        text += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
    return text


def render_vec(v: Vec, leg: str = "e") -> str:
    return render_flat(v.coeffs, (v.dim,), (leg,))


def render_elem2(r: Elem2, legs: Sequence[str] = ("e", "e")) -> str:
    return render_flat(elem2_flat(r), (r.dim, r.dim), legs)


def render_elem3(t: Elem3, legs: Sequence[str] = ("e", "e", "e")) -> str:
    return render_flat(elem3_flat(t), (t.dim, t.dim, t.dim), legs)
