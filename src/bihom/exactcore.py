"""Exact rational tensor kernel.

Basis-indexed vectors, functionals, endomorphisms and rank-2/3 structure
tensors, each stored as the exact linear map (LinMap) the checkers and
constructions compose, and the sparse LinMap kernel itself. A LinMap
stores only the nonzero cells of each row; its dense rows ``a`` are a
lazy, cached view for readers outside the kernel.

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
  product of spaces of dimensions (m, n) is ``i*n + j``;
* a record's ``map`` is its tensor as a map between tensor powers: mu is
  A (x) A -> A, Delta is A -> A (x) A, a vector K -> A, a functional
  A -> K; ``c``, ``d``, ``entries`` and the like are read-only dense views.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

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
# records


class Record:
    """An immutable record. Its fields are the annotated names of its class
    and bases, ClassVars aside, in order; a class attribute of a field's
    name is its default. Records take fields by position or name, then run
    __post_init__ if the class has one; they compare and hash as the tuple
    of their fields and refuse assignment. Unlike a dataclass, a record
    class defines no methods of its own when it is created."""

    _fields: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {name: None for klass in reversed(cls.__mro__)
                 for name, note in vars(klass).get("__annotations__", {}).items()
                 if not str(note).startswith(("ClassVar", "typing.ClassVar"))}
        cls._fields = tuple(names)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of each field: from args by position, from kwargs by
        name, else its default; TypeError as a call would raise it."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(cls._fields, args))
        for key, value in kwargs.items():
            if key not in cls._fields or key in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [key for key in cls._fields if key not in values and key not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments {', '.join(map(repr, missing))}")
        return [values[key] if key in values else cls._defaults[key] for key in cls._fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{key}={getattr(self, key)!r}' for key in self._fields)})")

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a {type(self).__name__}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a {type(self).__name__}")


# ---------------------------------------------------------------------------
# tables as maps: a table on legs of dimensions dims is stored as the map
# onto its legs target (in order) from its other legs (in order), each side
# flat row-major; mu's table c[i][j][k] on target (2,) is the map A (x) A -> A


def _cell(idx: Sequence[int], dims: Sequence[int], target: Sequence[int]) -> tuple[int, int]:
    """The (row, column) of the map that holds the table cell idx."""
    row = col = 0
    for leg, (i, d) in enumerate(zip(idx, dims)):
        if leg in target:
            row = row * d + i
        else:
            col = col * d + i
    return row, col


def _flatten(table, dims: Sequence[int], what: str) -> list:
    if not dims:
        return [table]
    if not isinstance(table, (list, tuple)) or len(table) != dims[0]:
        raise DimensionMismatch(f"{what} table has wrong shape")
    return [x for part in table for x in _flatten(part, dims[1:], what)]


def table_map(table, dims: Sequence[int], target: Sequence[int], what: str) -> "LinMap":
    """A table on legs dims as its map onto the legs target: a LinMap of that
    shape as it is, a dict of {index tuple: value} cells (indices in range),
    or a dense nested table. Any other shape raises DimensionMismatch."""
    rows = math.prod(d for leg, d in enumerate(dims) if leg in target)
    cols = math.prod(d for leg, d in enumerate(dims) if leg not in target)
    if not isinstance(table, LinMap):
        if not isinstance(table, dict):
            table = dict(zip(itertools.product(*map(range, dims)), _flatten(table, dims, what)))
        # filtered again once exact: Q("0") is zero though "0" is not
        cells = ((idx, v if type(v) is Q else Q(v)) for idx, v in table.items() if v)
        table = LinMap._from_nonzeros(rows, cols, _gather(rows, sorted(
            (*_cell(idx, dims, target), v) for idx, v in cells if v)))
    if (table.rows, table.cols) != (rows, cols):
        raise DimensionMismatch(f"{what} needs a {rows}x{cols} map, got {table.rows}x{table.cols}")
    return table


def table_entries(m: "LinMap", dims: Sequence[int], target: Sequence[int]) -> list:
    """The nonzero cells of a map laid out as in table_map, as (index tuple,
    value) pairs in index order."""
    source = [leg for leg in range(len(dims)) if leg not in target]
    out = []
    for row, (cs, vs) in enumerate(m.nonzeros):
        for col, v in zip(cs, vs):
            idx = [0] * len(dims)
            for legs, flat in ((target, row), (source, col)):
                for leg in reversed(legs):
                    flat, idx[leg] = divmod(flat, dims[leg])
            out.append((tuple(idx), v))
    return sorted(out)


# ---------------------------------------------------------------------------
# structure records


class _Tensor(Record):
    """A tensor whose legs all have dimension dim, stored as the map the
    checkers compose (table_map's layout for the class's legs and target).
    The constructor takes that map, a dict of {index tuple: value} cells or
    the dense nested table in the subclass's docstring."""

    legs: ClassVar[int]
    target: ClassVar[tuple[int, ...]]
    dim: int
    map: LinMap

    def __init__(self, dim: int, table):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "map", table_map(table, (dim,) * self.legs, self.target,
                                                  type(self).__name__))

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, LinMap.zero(dim ** len(cls.target), dim ** (cls.legs - len(cls.target))))

    def __add__(self, other):
        return type(self)(self.dim, self.map + other.map)

    def __sub__(self, other):
        return type(self)(self.dim, self.map - other.map)

    def scale(self, s):
        return type(self)(self.dim, self.map.scale(s))

    def _dense(self) -> tuple:
        """The dense nested table, a read-only view for readers of tables."""
        cells = dict(table_entries(self.map, (self.dim,) * self.legs, self.target))

        def part(idx: tuple) -> tuple:
            if len(idx) == self.legs:
                return cells.get(idx, ZERO)
            return tuple(part(idx + (i,)) for i in range(self.dim))
        return part(())


def _only_cell(m: "LinMap") -> Q:
    """The value of a 1 x 1 map."""
    cs, vs = m.nonzeros[0]
    return vs[0] if cs else ZERO


def _same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs dim {b.dim}")


class Vec(_Tensor):
    """A vector sum coeffs[i] e_i, as the map K -> A."""

    legs, target = 1, (0,)
    coeffs = property(_Tensor._dense)

    @staticmethod
    def basis(dim: int, i: int) -> "Vec":
        return Vec(dim, {(i,): ONE})


class Covec(_Tensor):
    """A linear functional with values coeffs[i] on the basis, as A -> K."""

    legs, target = 1, ()
    coeffs = property(_Tensor._dense)

    def __call__(self, v: Vec) -> Q:
        _same_dim(self, v)
        return _only_cell(self.map @ v.map)


class Endo(_Tensor):
    """A linear endomorphism; column j of entries holds the image of e_j."""

    legs, target = 2, (0,)
    entries = property(_Tensor._dense)

    @staticmethod
    def identity(dim: int) -> "Endo":
        return Endo(dim, LinMap.identity(dim))

    @staticmethod
    def diagonal(diag: Sequence) -> "Endo":
        return Endo(len(diag), {(i, i): x for i, x in enumerate(diag)})

    def __call__(self, v: Vec) -> Vec:
        _same_dim(self, v)
        return Vec(self.dim, self.map @ v.map)

    def __matmul__(self, other: "Endo") -> "Endo":
        """Composition self o other."""
        _same_dim(self, other)
        return Endo(self.dim, self.map @ other.map)

    def transpose(self) -> "Endo":
        return Endo(self.dim, self.map.transpose())

    def is_identity(self) -> bool:
        return self.map == LinMap.identity(self.dim)

    def commutes_with(self, other: "Endo") -> bool:
        return self @ other == other @ self


def endo_inverse(f: Endo) -> Endo:
    """Exact inverse by Gauss-Jordan elimination; raises SingularMap."""
    n = f.dim
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(f.entries)]
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


class Mul(_Tensor):
    """Multiplication structure constants e_i . e_j = sum_k c[i][j][k] e_k,
    as mu: A (x) A -> A."""

    legs, target = 3, (2,)
    c = property(_Tensor._dense)


class Comul(_Tensor):
    """Comultiplication constants D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k,
    as Delta: A -> A (x) A."""

    legs, target = 3, (1, 2)
    d = property(_Tensor._dense)


class Elem2(_Tensor):
    """An element r = sum m[i][j] e_i (x) e_j of A (x) A, as K -> A (x) A."""

    legs, target = 2, (0, 1)
    m = property(_Tensor._dense)


class Elem3(_Tensor):
    """An element sum t[i][j][k] e_i (x) e_j (x) e_k of A (x) A (x) A, as
    K -> A (x) A (x) A."""

    legs, target = 3, (0, 1, 2)
    t = property(_Tensor._dense)

    def is_zero(self) -> bool:
        return not any(cs for cs, _ in self.map.nonzeros)


class BiForm(_Tensor):
    """A bilinear functional s[i][j] = sigma(e_i, e_j), as A (x) A -> K."""

    legs, target = 2, ()

    def __call__(self, a: Vec, b: Vec) -> Q:
        _same_dim(self, a)
        _same_dim(a, b)
        return _only_cell(self.map @ a.map.tensor(b.map))


# ---------------------------------------------------------------------------
# contractions


def mul_apply(m: Mul, a: Vec, b: Vec) -> Vec:
    """Bilinear product sum a_i b_j c[i][j][k] e_k."""
    _same_dim(m, a)
    _same_dim(a, b)
    return Vec(m.dim, m.map @ a.map.tensor(b.map))


def square_map(f: Endo) -> LinMap:
    """f (x) f on A (x) A."""
    return f.map.tensor(f.map)


def biform_invariant_under(f: Endo, s: BiForm) -> bool:
    """f-invariance of a bilinear form: sigma o (f (x) f) = sigma."""
    return s.map @ square_map(f) == s.map


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
    i1, mu = LinMap.identity(n), m.map
    al, be, ps, om = (f.map for f in (alpha, beta, psi, omega))
    legs = ((n,) * 4, (0, 2, 3, 1))
    if kind == "r12r23":
        return al.tensor(mu).tensor(be)
    if kind == "r13r12":
        return (mu @ om.tensor(i1)).tensor(be).tensor(al @ ps).permute_cols(*legs)
    if kind == "r23r13":
        return (be @ om).tensor(al).tensor(mu @ i1.tensor(ps)).permute_cols(*legs)
    u = unit.map
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
        return Elem3(n, elem3_map(kind, m, alpha, beta, psi, omega, unit) @ r.map)
    mu, al, be, ps, om = (x.map for x in (m, alpha, beta, psi, omega))
    legs = (n,) * 3
    rm, rb = r.map.reshape(n, n), rbar.map.reshape(n, n)
    if kind == "r12r23":
        flat = _sandwich(al @ rm, mu, rb @ be.transpose())
    elif kind == "r13r12":     # sandwich legs (alpha psi(r2), product, beta(rb2))
        flat = _sandwich((al @ ps) @ rm.transpose() @ om.transpose(), mu,
                         rb @ be.transpose()).permute_cols(legs, (2, 0, 1))
    else:                      # sandwich legs (alpha(rb1), product, beta omega(r1))
        flat = _sandwich(al @ rb, mu,
                         ps @ rm.transpose() @ (be @ om).transpose()).permute_cols(legs, (1, 2, 0))
    return Elem3(n, flat.reshape(n ** 3, 1))


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


class LinMap(Record):
    """An exact linear map from the source basis (columns) to the target
    basis (rows).

    The stored form is ``nonzeros``: for each row, its nonzero cells as
    (columns ascending, values), all Fractions, with no zero cell. It is
    canonical, so the Record ==, hash and every operation read it, and
    each operation writes only the view of its result. ``a``, the dense
    rows of Fractions, is a read-only view built on first read and cached;
    the kernel never asks for it. ``LinMap(rows, cols, a)`` builds a map
    from dense rows of anything Fraction accepts. Instances are immutable.
    """

    rows: int
    cols: int
    nonzeros: tuple[tuple[tuple[int, ...], tuple[Q, ...]], ...]

    def __init__(self, rows: int, cols: int, a: Sequence[Sequence]):
        if len(a) != rows or any(len(row) != cols for row in a):
            raise DimensionMismatch(f"LinMap shape {len(a)} rows, expected {rows}x{cols}")
        self.__dict__.update(rows=rows, cols=cols,
                             nonzeros=tuple(_row_view(_coerce(row)) for row in a))
        self.__post_init__()

    def __post_init__(self):
        """The shape check every constructor runs last."""
        if len(self.nonzeros) != self.rows or any(
                cs and (cs[0] < 0 or cs[-1] >= self.cols) for cs, _ in self.nonzeros):
            raise DimensionMismatch(f"LinMap view of {len(self.nonzeros)} rows does not fit "
                                    f"{self.rows}x{self.cols}")

    @classmethod
    def _from_nonzeros(cls, rows: int, cols: int, nonzeros: Sequence) -> "LinMap":
        """The private constructor: the map with the given canonical view."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, nonzeros=tuple(nonzeros))
        m.__post_init__()
        return m

    def _dense_rows(self) -> tuple[tuple[Q, ...], ...]:
        """The dense rows of Fractions, a[r][c]."""
        out = []
        for cs, vs in self.nonzeros:
            row = [ZERO] * self.cols
            for c, v in zip(cs, vs):
                row[c] = v
            out.append(tuple(row))
        return tuple(out)

    a = functools.cached_property(_dense_rows)

    def __repr__(self):
        return (f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r}, "
                f"a={self._dense_rows()!r})")

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
        return LinMap._from_nonzeros(self.rows, self.cols, [self.nonzeros[s] for s in order])

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

    def differing_columns(self, other: "LinMap") -> list[int]:
        """The columns, ascending, in which self and other differ, found row
        by row: views are canonical, so equal rows are skipped whole."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("comparing maps of different shape")
        bad: set[int] = set()
        for row, orow in zip(self.nonzeros, other.nonzeros):
            if row != orow:
                mine, theirs = dict(zip(*row)), dict(zip(*orow))
                bad.update(c for c in mine.keys() | theirs.keys() if mine.get(c) != theirs.get(c))
        return sorted(bad)

    def apply_flat(self, coeffs: Sequence[Q]) -> tuple[Q, ...]:
        if len(coeffs) != self.cols:
            raise DimensionMismatch("flat vector length does not match map source")
        # tuple() of a list, not of a generator: CPython sizes the latter by
        # a guess and resizes it, so a search that applies maps per candidate
        # leaves up to 2,000 tuples on each per-size free list.
        return tuple([sum((v * coeffs[c] for c, v in zip(cs, vs)), ZERO)
                      for cs, vs in self.nonzeros])


def endo_tensor(*fs: Endo) -> Endo:
    """The Kronecker product f_1 (x) f_2 (x) ... of endomorphisms."""
    m = fs[0].map
    for f in fs[1:]:
        m = m.tensor(f.map)
    return Endo(m.rows, m)


def elem_map(coeffs: Sequence[Q]) -> LinMap:
    """A vector (of any tensor power, flat row-major) as the map K -> V."""
    return LinMap._from_nonzeros(len(coeffs), 1, [((0,), (c,)) if c else _NO_CELLS
                                                  for c in coeffs])


def form_map(coeffs: Sequence[Q]) -> LinMap:
    """A functional (on any tensor power, flat row-major) as the map V -> K."""
    return LinMap._from_nonzeros(1, len(coeffs), (_row_view(coeffs),))


def outer_flat(x: Sequence[Q], y: Sequence[Q]) -> tuple[Q, ...]:
    """The flat coefficients of x (x) y from the flat coefficients of x and y."""
    return tuple([a * b for a in x for b in y])  # a list first, see apply_flat


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
    fm, mu = f.map, m.map
    bad = (fm @ mu).differing_columns(mu @ fm.tensor(fm))
    return divmod(bad[0], m.dim) if bad else None


def first_noncommuting(maps: dict[str, Endo]) -> tuple[str, str] | None:
    """The first pair of names, in insertion order, whose maps do not commute."""
    for x, y in itertools.combinations(maps, 2):
        fx, fy = maps[x].map, maps[y].map
        if fx @ fy != fy @ fx:
            return x, y
    return None


# ---------------------------------------------------------------------------
# canonical rendering of exact values (used by reports)


def unflatten(flat: int, dims: Sequence[int]) -> tuple[int, ...]:
    """The index tuple of a flat row-major index over legs dims."""
    idx = []
    for d in reversed(dims):
        flat, part = divmod(flat, d)
        idx.append(part)
    return tuple(reversed(idx))


def render_flat(cells: Sequence[tuple[int, Q]], dims: Sequence[int], legs: Sequence[str]) -> str:
    """Render a tensor from its nonzero coordinates, (flat index, value) pairs
    in index order, e.g. 'e0(x)e1 - 2*e1(x)e0'; a scalar when dims is ()."""
    if not dims:
        return scalar_render(cells[0][1]) if cells else "0"
    text = ""
    for flat, c in cells:
        basis = "(x)".join(f"{leg}{i}" for leg, i in zip(legs, unflatten(flat, dims)))
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + ("" if abs(c) == 1 else f"{scalar_render(abs(c))}*") + basis
    return text or "0"


def render_elem3(t: Elem3) -> str:
    return render_flat([(row, vs[0]) for row, (cs, vs) in enumerate(t.map.nonzeros) if cs],
                       (t.dim,) * 3, ("e", "e", "e"))
