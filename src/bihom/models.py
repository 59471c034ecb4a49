"""JSON model files: the on-disk shape of every structure.

Scalars travel as strings ('p/q', lowest terms), never as JSON floats.
Multiplication-like tensors are sparse entry lists [i, j, k, "p/q"], maps
are dense row-major string matrices, and absent blocks mean the feature is
absent (no counit, no unit, ...). Sparse entries are parsed straight into
the record's map, duplicates summed. Saving is canonical: entries sorted,
zeros dropped, fixed key order, so identical structures produce
byte-identical files.

Two tables hold the schema. BLOCKS maps each JSON key to its ModelFile
attribute and its format, in save order; one loop parses a file and one
saves it. KINDS maps each structure kind, in inference order, to the blocks
that mark a file of that kind, its record class and its checker. Records
convert through their dataclass fields: a field is the ModelFile attribute
of its name, a nested record is built from the same file, and the fields of
a (co)module live in the `module` or `comodule` block, `alpha_m` under the
key `alpha` and so on.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, get_type_hints

from . import axioms
from .errors import IndexOutOfRange, ParseError
from .exactcore import (
    BiForm, Comul, Covec, Elem2, Endo, LinMap, Mul, Q, Vec, ZERO, scalar_parse,
    scalar_render, table_entries, table_map,
)
from .structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented, Dendriform,
    HopfBimodule, HopfModule, PreLie, PreLieCoalgebra, RotaBaxter, _action_layout,
)

_MAP_KEYS = ("alpha", "beta", "psi", "omega")
_ACTION_KEYS = ("action", "raction", "coaction", "rcoaction")
# the (co)module record fields and the block that holds each
_SIDES = {"action": "module", "raction": "module", "alpha_m": "module", "beta_m": "module",
          "coaction": "comodule", "rcoaction": "comodule", "psi_m": "comodule",
          "omega_m": "comodule"}


@dataclass
class ModelFile:
    """A parsed model file: each block of BLOCKS as an exact kernel object,
    or None where the file lacks it."""

    name: str
    dim: int
    weight: Q | None = None
    alpha: Endo | None = None
    beta: Endo | None = None
    psi: Endo | None = None
    omega: Endo | None = None
    unit: Vec | None = None
    counit: Covec | None = None
    chi: Covec | None = None
    zeta: Vec | None = None
    mul: Mul | None = None
    comul: Comul | None = None
    delta: Comul | None = None
    star: Mul | None = None
    prec: Mul | None = None
    succ: Mul | None = None
    r: Elem2 | None = None
    sigma: BiForm | None = None
    op: Endo | None = None
    module: dict | None = None
    comodule: dict | None = None

    def map(self, key: str) -> Endo:
        return getattr(self, key) or Endo.identity(self.dim)

    def kind_auto(self) -> str:
        """The first kind in KINDS whose marks are among the file's JSON keys
        and the keys inside its module and comodule blocks."""
        present = {key for key, (attr, _) in BLOCKS.items() if getattr(self, attr) is not None}
        for sub in (self.module, self.comodule):
            present.update(sub or ())
        for kind, spec in KINDS.items():
            if all(present.intersection(mark.split("|")) for mark in spec.marks.split()):
                return kind
        raise ParseError(f"model {self.name!r}: cannot infer a structure kind")

    def to_structure(self, kind: str):
        if kind not in KINDS:
            raise ParseError(f"unknown structure kind {kind!r}")
        return self.record(KINDS[kind].record)

    def as_algebra(self) -> Algebra:
        return self.to_structure("algebra")

    def record(self, cls):
        """The record cls built from this file. An absent twist is the
        identity and an absent optional part None; any other absent part
        is a ParseError naming its block."""
        fields = _fields(cls)
        sides = sorted({_SIDES[f] for f in fields if f in _SIDES})
        dim = self._carrier_dim(sides) if sides else self.dim
        args = {}
        for name, (typ, optional) in fields.items():
            side = _SIDES.get(name)
            if name == "dim":
                value = dim
            elif _is_record(typ):
                value = self.record(typ)
            elif side:
                key = name.removesuffix("_m")
                value, where = getattr(self, side).get(key), f"{key!r} block in {side!r}"
            else:
                value, where = getattr(self, name), f"{_KEY_OF[name]!r} block"
            if value is None and typ is Endo:
                value = Endo.identity(dim)
            elif value is None and not optional:
                raise ParseError(f"model {self.name!r} has no {where}")
            args[name] = value
        return cls(**args)

    def _carrier_dim(self, sides: list[str]) -> int:
        """The one dim of the module and comodule blocks in sides."""
        for side in sides:
            if getattr(self, side) is None:
                raise ParseError(f"model {self.name!r} has no {side!r} block")
        dims = {getattr(self, side)["dim"] for side in sides}
        if len(dims) > 1:
            raise ParseError(f"model {self.name!r}: module and comodule dims differ")
        return dims.pop()


def _is_record(typ) -> bool:
    """A structure record type, built from the same file in turn."""
    return getattr(typ, "__module__", None) == Algebra.__module__


@functools.cache
def _fields(cls) -> dict[str, tuple[type, bool]]:
    """Each field of the record class cls: its type, and whether it may be None."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is None) for f in dataclasses.fields(cls)}


def _flatten(rec, parts: dict) -> dict:
    """The ModelFile attributes of the record rec added to parts, where
    the first writer wins (a module's `over` repeats its Hopf module's)."""
    sides = {_SIDES[f.name] for f in dataclasses.fields(rec) if f.name in _SIDES}
    for f in dataclasses.fields(rec):
        value = getattr(rec, f.name)
        if _is_record(type(value)):
            _flatten(value, parts)
        elif f.name in _SIDES:
            parts.setdefault(_SIDES[f.name], {})[f.name.removesuffix("_m")] = value
        elif f.name == "dim" and sides:
            for side in sides:
                parts.setdefault(side, {})["dim"] = value
        else:
            parts.setdefault(f.name, value)
    return parts


# ---------------------------------------------------------------------------
# parsing


def _is_int(x) -> bool:
    """A JSON integer; true and false are not indices or dimensions."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_scalar_field(raw, where: str) -> Q:
    try:
        return scalar_parse(raw)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_matrix(raw, dim: int, where: str) -> Endo:
    if not isinstance(raw, list) or len(raw) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in raw):
        raise ParseError(f"{where}: expected a dense {dim}x{dim} matrix")
    return Endo(dim, tuple(tuple(_parse_scalar_field(x, where) for x in row) for row in raw))


def _parse_vector(raw, dim: int, where: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{where}: expected a coefficient array of length {dim}")
    return tuple(_parse_scalar_field(x, where) for x in raw)


def _parse_entries(raw, dims: tuple[int, ...], target: tuple[int, ...], where: str) -> LinMap:
    """Sparse entries [i, j, (k,) scalar] on legs dims, duplicates summed, as
    the map onto the legs target (the layout of exactcore.table_map)."""
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list of sparse entries")
    span = f"dims {dims}" if len(dims) == 3 else f"dim {dims[0]}"
    cells: dict = {}
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != len(dims) + 1:
            raise ParseError(f"{where}: entries must be [{', '.join('ijk'[:len(dims)])}, scalar]")
        *idx, val = entry
        if not all(_is_int(x) for x in idx):
            raise ParseError(f"{where}: indices must be integers")
        if not all(0 <= i < d for i, d in zip(idx, dims)):
            raise IndexOutOfRange(f"{where}: entry {idx} outside {span}")
        idx = tuple(idx)
        cells[idx] = cells.get(idx, ZERO) + _parse_scalar_field(val, where)
    return table_map(cells, dims, target, where)


def _parse_sub_block(raw, dim_a: int, where: str) -> dict:
    if not isinstance(raw, dict) or "dim" not in raw or not _is_int(raw["dim"]) \
            or raw["dim"] < 0:
        raise ParseError(f"{where}: expected an object with a non-negative integer 'dim'")
    dim = raw["dim"]
    out: dict = {"dim": dim}
    for key in _MAP_KEYS:
        if key in raw:
            out[key] = _parse_matrix(raw[key], dim, f"{where}.{key}")
    for key in _ACTION_KEYS:
        if key in raw:
            out[key] = _parse_entries(raw[key], *_action_layout(key, dim_a, dim), f"{where}.{key}")
    return out


def model_from_dict(doc: dict, name_hint: str = "model") -> ModelFile:
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    if "dim" not in doc or not _is_int(doc["dim"]) or doc["dim"] <= 0:
        raise ParseError("field 'dim': expected a positive integer")
    name = doc.get("name", name_hint)
    if not isinstance(name, str):
        raise ParseError("field 'name': expected a string")
    dim = doc["dim"]
    return ModelFile(name, dim, **{attr: fmt.parse(doc[key], dim, f"field {key!r}")
                                   for key, (attr, fmt) in BLOCKS.items() if key in doc})


def load(path: str, block: str | None = None) -> ModelFile:
    """The model in path; with block ('r' or 'sigma'), a file without that
    block is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:     # a directory, no permission
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    model = model_from_dict(doc, name_hint=path)
    if block is not None and getattr(model, block) is None:
        raise ParseError(f"{path}: no {block!r} block")
    return model


# ---------------------------------------------------------------------------
# serialization


def _entries_out(m: LinMap, dims: tuple[int, ...], target: tuple[int, ...]) -> list:
    return [[*idx, scalar_render(v)] for idx, v in table_entries(m, dims, target)]


def entries_out(rec) -> list:
    """A structure record's nonzero entries [i, j, (k,) "p/q"] in index order."""
    return _entries_out(rec.map, (rec.dim,) * rec.legs, rec.target)


def _matrix_out(endo: Endo) -> list:
    return [[scalar_render(x) for x in row] for row in endo.entries]


def _sub_block_out(blk: dict, dim_a: int) -> dict:
    out: dict = {"dim": blk["dim"]}
    for key in _MAP_KEYS:
        if key in blk:
            out[key] = _matrix_out(blk[key])
    for key in _ACTION_KEYS:
        if key in blk:
            out[key] = _entries_out(blk[key], *_action_layout(key, dim_a, blk["dim"]))
    return out


def model_to_dict(model: ModelFile) -> dict:
    doc: dict = {"name": model.name, "dim": model.dim}
    for key, (attr, fmt) in BLOCKS.items():
        if getattr(model, attr) is not None:
            doc[key] = fmt.render(getattr(model, attr), model.dim)
    return doc


def structure_to_model(obj, name: str | None = None) -> ModelFile:
    """A record, or a model, as a model ready for saving under name (by
    default the model's own name, or 'model')."""
    if isinstance(obj, ModelFile):
        return obj if name is None else dataclasses.replace(obj, name=name)
    return ModelFile("model" if name is None else name, **_flatten(obj, {}))


def dumps(obj, name: str | None = None) -> str:
    return json.dumps(model_to_dict(structure_to_model(obj, name)), indent=2) + "\n"


def save(obj, path: str, name: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(structure_to_model(obj, name)), indent=2) + "\n")


# ---------------------------------------------------------------------------
# the tables


class _Format(NamedTuple):
    parse: Callable     # (JSON value, dim, where) -> block
    render: Callable    # (block, dim) -> JSON value


def _vector(cls) -> _Format:
    return _Format(lambda raw, dim, where: cls(dim, _parse_vector(raw, dim, where)),
                   lambda vec, dim: [scalar_render(x) for x in vec.coeffs])


def _sparse(cls) -> _Format:
    return _Format(lambda raw, dim, where: cls(dim, _parse_entries(
        raw, (dim,) * cls.legs, cls.target, where)), lambda rec, dim: entries_out(rec))


_SCALAR = _Format(lambda raw, dim, where: _parse_scalar_field(raw, where),
                  lambda x, dim: scalar_render(x))
_MATRIX = _Format(_parse_matrix, lambda endo, dim: _matrix_out(endo))
_SUB_BLOCK = _Format(_parse_sub_block, _sub_block_out)

# JSON key -> (ModelFile attribute, format), in save order
BLOCKS = {
    "lambda": ("weight", _SCALAR),
    "alpha": ("alpha", _MATRIX), "beta": ("beta", _MATRIX),
    "psi": ("psi", _MATRIX), "omega": ("omega", _MATRIX),
    "unit": ("unit", _vector(Vec)), "counit": ("counit", _vector(Covec)),
    "chi": ("chi", _vector(Covec)), "zeta": ("zeta", _vector(Vec)),
    "mul": ("mul", _sparse(Mul)), "comul": ("comul", _sparse(Comul)),
    "costar": ("delta", _sparse(Comul)), "star": ("star", _sparse(Mul)),
    "prec": ("prec", _sparse(Mul)), "succ": ("succ", _sparse(Mul)),
    "r": ("r", _sparse(Elem2)), "sigma": ("sigma", _sparse(BiForm)),
    "R": ("op", _MATRIX),
    "module": ("module", _SUB_BLOCK), "comodule": ("comodule", _SUB_BLOCK),
}
_KEY_OF = {attr: key for key, (attr, _) in BLOCKS.items()}


class Kind(NamedTuple):
    marks: str          # the blocks a file of the kind has; a|b means either
    record: type
    check: Callable


# in inference order: a file is of the first kind whose marks it has
KINDS = {
    "hopf-bimodule": Kind("module comodule raction|rcoaction", HopfBimodule,
                          axioms.check_hopf_bimodule),
    "hopf-module": Kind("module comodule", HopfModule, axioms.check_hopf_module),
    "rota-baxter": Kind("R", RotaBaxter, axioms.check_rota_baxter),
    "dendriform": Kind("prec succ", Dendriform, axioms.check_dendriform),
    "prelie": Kind("star", PreLie, axioms.check_prelie),
    "prelie-coalgebra": Kind("costar", PreLieCoalgebra, axioms.check_prelie_coalgebra),
    "augmented": Kind("chi", Augmented, axioms.check_augmented),
    "coaugmented": Kind("zeta", Coaugmented, axioms.check_coaugmented),
    "bialgebra": Kind("mul comul lambda", Bialgebra, axioms.check_infbh_bialgebra),
    "algebra": Kind("mul", Algebra, axioms.check_bihom_algebra),
    "coalgebra": Kind("comul", Coalgebra, axioms.check_bihom_coalgebra),
}
