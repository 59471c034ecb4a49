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
        return Vec(self.dim, tuple(
            sum((self.entries[i][j] * v.coeffs[j] for j in range(self.dim)), ZERO)
            for i in range(self.dim)))

    def __matmul__(self, other: "Endo") -> "Endo":
        """Composition self o other."""
        _same_dim(self, other)
        n = self.dim
        return Endo(n, tuple(tuple(
            sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), ZERO)
            for j in range(n)) for i in range(n)))

    def transpose(self) -> "Endo":
        n = self.dim
        return Endo(n, tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)))

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
        n = self.dim
        return Mul(n, tuple(tuple(tuple(
            self.c[i][j][k] + other.c[i][j][k] for k in range(n))
            for j in range(n)) for i in range(n)))


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

    def __add__(self, other: "Elem3") -> "Elem3":
        _same_dim(self, other)
        n = self.dim
        return Elem3(n, tuple(tuple(tuple(
            self.t[i][j][k] + other.t[i][j][k] for k in range(n))
            for j in range(n)) for i in range(n)))

    def __sub__(self, other: "Elem3") -> "Elem3":
        _same_dim(self, other)
        n = self.dim
        return Elem3(n, tuple(tuple(tuple(
            self.t[i][j][k] - other.t[i][j][k] for k in range(n))
            for j in range(n)) for i in range(n)))

    def __neg__(self) -> "Elem3":
        return self.scale(-1)

    def scale(self, s) -> "Elem3":
        s = Q(s)
        n = self.dim
        return Elem3(n, tuple(tuple(tuple(s * x for x in row) for row in plane) for plane in self.t))

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
        _same_dim(self, b)
        return sum((self.s[i][j] * a.coeffs[i] * b.coeffs[j]
                    for i in range(self.dim) for j in range(self.dim)), ZERO)


# ---------------------------------------------------------------------------
# contractions


def mul_apply(m: Mul, a: Vec, b: Vec) -> Vec:
    """Bilinear product sum a_i b_j c[i][j][k] e_k."""
    _same_dim(m, a)
    _same_dim(m, b)
    n = m.dim
    out = [ZERO] * n
    for i in range(n):
        if a.coeffs[i] == 0:
            continue
        for j in range(n):
            s = a.coeffs[i] * b.coeffs[j]
            if s == 0:
                continue
            for k in range(n):
                out[k] += s * m.c[i][j][k]
    return Vec(n, tuple(out))


def comul_apply(d: Comul, a: Vec) -> Elem2:
    """Linear extension of the coproduct to a, as an Elem2."""
    _same_dim(d, a)
    n = d.dim
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        if a.coeffs[i] == 0:
            continue
        for j in range(n):
            for k in range(n):
                out[j][k] += a.coeffs[i] * d.d[i][j][k]
    return Elem2(n, tuple(tuple(row) for row in out))


def tensor_vv(a: Vec, b: Vec) -> Elem2:
    _same_dim(a, b)
    return Elem2(a.dim, tuple(tuple(x * y for y in b.coeffs) for x in a.coeffs))


def elem2_map(f: Endo, g: Endo, r: Elem2) -> Elem2:
    """(f (x) g)(r)."""
    n = r.dim
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = r.m[i][j]
            if s == 0:
                continue
            for u in range(n):
                fu = f.entries[u][i]
                if fu == 0:
                    continue
                for v in range(n):
                    out[u][v] += s * fu * g.entries[v][j]
    return Elem2(n, tuple(tuple(row) for row in out))


def elem2_invariant_under(f: Endo, r: Elem2) -> bool:
    """f-invariance of r: (f (x) f)(r) = r."""
    return elem2_map(f, f, r) == r


def biform_invariant_under(f: Endo, s: BiForm) -> bool:
    """f-invariance of a bilinear form: sigma o (f (x) f) = sigma."""
    sig = biform_map(s)
    fm = endo_map(f)
    return sig @ fm.tensor(fm) == sig


ELEM3_KINDS = ("r13r12", "r12r23", "r23r13", "r13", "r12", "r23")


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
    """
    if kind not in ELEM3_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if rbar is None:
        rbar = r
    n = m.dim
    for other in (alpha, beta, psi, omega, r, rbar):
        _same_dim(m, other)
    if kind in ("r13", "r12", "r23"):
        if unit is None:
            raise MissingUnit(f"building {kind} needs the unit element")
        _same_dim(m, unit)

    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]

    def add(xs, ys, zs, coeff: Q):
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
                for c in range(n):
                    if zs[c] != 0:
                        row[c] += coeff * xb * zs[c]

    basis = [Vec.basis(n, i) for i in range(n)]
    col = lambda f, i: tuple(f.entries[u][i] for u in range(n))

    if kind == "r12":
        for i in range(n):
            for j in range(n):
                add(basis[i].coeffs, basis[j].coeffs, unit.coeffs, r.m[i][j])
    elif kind == "r23":
        for i in range(n):
            for j in range(n):
                add(unit.coeffs, basis[i].coeffs, basis[j].coeffs, r.m[i][j])
    elif kind == "r13":
        for i in range(n):
            for j in range(n):
                add(col(omega, i), unit.coeffs, col(psi, j), r.m[i][j])
    else:
        alpha_c = [col(alpha, i) for i in range(n)]
        beta_c = [col(beta, i) for i in range(n)]
        omega_v = [omega(basis[i]) for i in range(n)]
        psi_v = [psi(basis[i]) for i in range(n)]
        alpha_psi, beta_omega = alpha @ psi, beta @ omega
        alphapsi_c = [col(alpha_psi, i) for i in range(n)]
        betaomega_c = [col(beta_omega, i) for i in range(n)]
        prod = [[mul_apply(m, basis[i], basis[j]).coeffs for j in range(n)] for i in range(n)]
        omega_prod = [[mul_apply(m, omega_v[i], basis[k]).coeffs for k in range(n)] for i in range(n)]
        psi_prod = [[mul_apply(m, basis[l], psi_v[j]).coeffs for j in range(n)] for l in range(n)]
        for i in range(n):
            for j in range(n):
                cij = r.m[i][j]
                if cij == 0:
                    continue
                for k in range(n):
                    for l in range(n):
                        coeff = cij * rbar.m[k][l]
                        if coeff == 0:
                            continue
                        if kind == "r12r23":
                            add(alpha_c[i], prod[j][k], beta_c[l], coeff)
                        elif kind == "r13r12":
                            add(omega_prod[i][k], beta_c[l], alphapsi_c[j], coeff)
                        else:  # r23r13
                            add(betaomega_c[i], alpha_c[k], psi_prod[l][j], coeff)

    return Elem3(n, tuple(tuple(tuple(row) for row in plane) for plane in out))


# ---------------------------------------------------------------------------
# exact linear maps between tensor powers (the checking backbone)


_NO_CELLS = ((), ())


def _row_view(row: Sequence[Q]) -> tuple[tuple[int, ...], tuple[Q, ...]]:
    """The nonzero cells of a dense row as (columns ascending, values)."""
    cs = tuple(c for c, v in enumerate(row) if v)
    return (cs, tuple(row[c] for c in cs)) if cs else _NO_CELLS


def _dict_view(acc: dict) -> tuple[tuple[int, ...], tuple[Q, ...]]:
    """The nonzero cells of a {column: value} accumulator, as _row_view."""
    cs = tuple(sorted(c for c, v in acc.items() if v))
    return (cs, tuple(acc[c] for c in cs)) if cs else _NO_CELLS


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
        return tuple(sum((v * coeffs[c] for c, v in zip(cs, vs)), ZERO)
                     for cs, vs in self.nonzeros)


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
