"""JSON model files: the on-disk shape of every structure.

Scalars travel as strings ('p/q', lowest terms), never as JSON floats.
Multiplication-like tensors are sparse entry lists [i, j, k, "p/q"], maps
are dense row-major string matrices, and absent blocks mean the feature is
absent (no counit, no unit, ...). Sparse entries are parsed straight into
the record's map, duplicates summed. Saving is canonical: entries sorted,
zeros dropped, fixed key order, so identical structures produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import IndexOutOfRange, ParseError
from .exactcore import (
    BiForm, Comul, Covec, Elem2, Endo, LinMap, Mul, Q, Vec, ZERO, scalar_parse,
    scalar_render, table_entries, table_map,
)
from .structures import (
    Algebra, Augmented, Bialgebra, Coalgebra, Coaugmented, Dendriform,
    HopfBimodule, HopfModule, LeftComodule, LeftModule, PreLie,
    PreLieCoalgebra, RotaBaxter, _action_layout,
)

_MAP_KEYS = ("alpha", "beta", "psi", "omega")
_ACTION_KEYS = ("action", "raction", "coaction", "rcoaction")

KINDS = ("algebra", "coalgebra", "bialgebra", "hopf-module", "hopf-bimodule",
         "rota-baxter", "dendriform", "prelie", "prelie-coalgebra",
         "augmented", "coaugmented")


@dataclass
class ModelFile:
    """A parsed model file; blocks are exact kernel objects or None."""

    name: str
    dim: int
    weight: Q | None = None
    mul: Mul | None = None
    comul: Comul | None = None
    maps: dict = field(default_factory=dict)
    unit: Vec | None = None
    counit: Covec | None = None
    r: Elem2 | None = None
    sigma: BiForm | None = None
    chi: Covec | None = None
    zeta: Vec | None = None
    rb_op: Endo | None = None
    star: Mul | None = None
    prec: Mul | None = None
    succ: Mul | None = None
    module: dict | None = None
    comodule: dict | None = None

    def map(self, key: str) -> Endo:
        return self.maps.get(key) or Endo.identity(self.dim)

    # ----- structure views -------------------------------------------------

    def kind_auto(self) -> str:
        if self.module is not None and self.comodule is not None:
            if "raction" in self.module or "rcoaction" in self.comodule:
                return "hopf-bimodule"
            return "hopf-module"
        if self.rb_op is not None:
            return "rota-baxter"
        if self.prec is not None and self.succ is not None:
            return "dendriform"
        if self.star is not None:
            return "prelie"
        if self.chi is not None:
            return "augmented"
        if self.zeta is not None:
            return "coaugmented"
        if self.mul is not None and self.comul is not None and self.weight is not None:
            return "bialgebra"
        if self.mul is not None:
            return "algebra"
        if self.comul is not None:
            return "coalgebra"
        raise ParseError(f"model {self.name!r}: cannot infer a structure kind")

    def as_algebra(self) -> Algebra:
        if self.mul is None:
            raise ParseError(f"model {self.name!r} has no multiplication block")
        return Algebra(self.dim, self.mul, self.map("alpha"), self.map("beta"), self.unit)

    def as_coalgebra(self) -> Coalgebra:
        if self.comul is None:
            raise ParseError(f"model {self.name!r} has no comultiplication block")
        return Coalgebra(self.dim, self.comul, self.map("psi"), self.map("omega"), self.counit)

    def as_bialgebra(self) -> Bialgebra:
        if self.weight is None:
            raise ParseError(f"model {self.name!r} has no weight ('lambda')")
        return Bialgebra(self.as_algebra(), self.as_coalgebra(), self.weight)

    def as_augmented(self) -> Augmented:
        if self.chi is None or self.weight is None:
            raise ParseError(f"model {self.name!r} needs 'chi' and 'lambda'")
        return Augmented(self.as_algebra(), self.chi, self.weight)

    def as_coaugmented(self) -> Coaugmented:
        if self.zeta is None or self.weight is None:
            raise ParseError(f"model {self.name!r} needs 'zeta' and 'lambda'")
        return Coaugmented(self.as_coalgebra(), self.zeta, self.weight)

    def as_rota_baxter(self) -> RotaBaxter:
        if self.rb_op is None or self.weight is None:
            raise ParseError(f"model {self.name!r} needs 'R' and 'lambda'")
        return RotaBaxter(self.as_algebra(), self.rb_op, self.weight)

    def as_dendriform(self) -> Dendriform:
        if self.prec is None or self.succ is None:
            raise ParseError(f"model {self.name!r} needs 'prec' and 'succ'")
        return Dendriform(self.dim, self.prec, self.succ, self.map("alpha"), self.map("beta"))

    def as_prelie(self) -> PreLie:
        if self.star is None:
            raise ParseError(f"model {self.name!r} needs 'star'")
        return PreLie(self.dim, self.star, self.map("alpha"), self.map("beta"))

    def as_prelie_coalgebra(self) -> PreLieCoalgebra:
        if self.comul is None:
            raise ParseError(f"model {self.name!r} needs 'comul'")
        return PreLieCoalgebra(self.dim, self.comul, self.map("psi"), self.map("omega"))

    def _module_part(self) -> LeftModule:
        blk = self.module
        if blk is None or "action" not in blk:
            raise ParseError(f"model {self.name!r} needs a module block with an action")
        return LeftModule(self.as_algebra(), blk["dim"], blk["action"],
                          blk.get("alpha") or Endo.identity(blk["dim"]),
                          blk.get("beta") or Endo.identity(blk["dim"]))

    def _comodule_part(self) -> LeftComodule:
        blk = self.comodule
        if blk is None or "coaction" not in blk:
            raise ParseError(f"model {self.name!r} needs a comodule block with a coaction")
        return LeftComodule(self.as_coalgebra(), blk["dim"], blk["coaction"],
                            blk.get("psi") or Endo.identity(blk["dim"]),
                            blk.get("omega") or Endo.identity(blk["dim"]))

    def as_hopf_module(self) -> HopfModule:
        mod, com = self._module_part(), self._comodule_part()
        if mod.dim != com.dim:
            raise ParseError(f"model {self.name!r}: module and comodule dims differ")
        return HopfModule(self.as_bialgebra(), mod, com)

    def as_hopf_bimodule(self) -> HopfBimodule:
        mod_blk, com_blk = self.module, self.comodule
        if mod_blk is None or com_blk is None:
            raise ParseError(f"model {self.name!r} needs module and comodule blocks")
        for key, blk in (("raction", mod_blk), ("rcoaction", com_blk)):
            if key not in blk:
                raise ParseError(f"model {self.name!r} needs a {key!r} block")
        dim = mod_blk["dim"]
        if com_blk["dim"] != dim:
            raise ParseError(f"model {self.name!r}: module and comodule dims differ")
        return HopfBimodule(
            self.as_bialgebra(), dim,
            mod_blk["action"], mod_blk["raction"],
            com_blk["coaction"], com_blk["rcoaction"],
            mod_blk.get("alpha") or Endo.identity(dim),
            mod_blk.get("beta") or Endo.identity(dim),
            com_blk.get("psi") or Endo.identity(dim),
            com_blk.get("omega") or Endo.identity(dim))

    def to_structure(self, kind: str):
        table = {
            "algebra": self.as_algebra, "coalgebra": self.as_coalgebra,
            "bialgebra": self.as_bialgebra, "hopf-module": self.as_hopf_module,
            "hopf-bimodule": self.as_hopf_bimodule, "rota-baxter": self.as_rota_baxter,
            "dendriform": self.as_dendriform, "prelie": self.as_prelie,
            "prelie-coalgebra": self.as_prelie_coalgebra,
            "augmented": self.as_augmented, "coaugmented": self.as_coaugmented,
        }
        if kind not in table:
            raise ParseError(f"unknown structure kind {kind!r}")
        return table[kind]()


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


def _parse_record(cls, raw, dim: int, where: str):
    return cls(dim, _parse_entries(raw, (dim,) * cls.legs, cls.target, where))


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
    dim = doc["dim"]
    model = ModelFile(name=doc.get("name", name_hint), dim=dim)
    if "lambda" in doc:
        model.weight = _parse_scalar_field(doc["lambda"], "field 'lambda'")
    for key in _MAP_KEYS:
        if key in doc:
            model.maps[key] = _parse_matrix(doc[key], dim, f"field {key!r}")
    for key, cls in (("mul", Mul), ("comul", Comul), ("star", Mul), ("prec", Mul), ("succ", Mul)):
        if key in doc:
            setattr(model, key, _parse_record(cls, doc[key], dim, f"field {key!r}"))
    if "unit" in doc:
        model.unit = Vec(dim, _parse_vector(doc["unit"], dim, "field 'unit'"))
    if "counit" in doc:
        model.counit = Covec(dim, _parse_vector(doc["counit"], dim, "field 'counit'"))
    if "chi" in doc:
        model.chi = Covec(dim, _parse_vector(doc["chi"], dim, "field 'chi'"))
    if "zeta" in doc:
        model.zeta = Vec(dim, _parse_vector(doc["zeta"], dim, "field 'zeta'"))
    for key, cls in (("r", Elem2), ("sigma", BiForm)):
        if key in doc:
            setattr(model, key, _parse_record(cls, doc[key], dim, f"field {key!r}"))
    if "R" in doc:
        model.rb_op = _parse_matrix(doc["R"], dim, "field 'R'")
    if "module" in doc:
        model.module = _parse_sub_block(doc["module"], dim, "field 'module'")
    if "comodule" in doc:
        model.comodule = _parse_sub_block(doc["comodule"], dim, "field 'comodule'")
    return model


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


def _vector_out(vec) -> list:
    return [scalar_render(x) for x in vec.coeffs]


def model_to_dict(model: ModelFile) -> dict:
    doc: dict = {"name": model.name, "dim": model.dim}
    if model.weight is not None:
        doc["lambda"] = scalar_render(model.weight)
    for key in _MAP_KEYS:
        if key in model.maps:
            doc[key] = _matrix_out(model.maps[key])
    for key in ("unit", "counit", "chi", "zeta"):
        if getattr(model, key) is not None:
            doc[key] = _vector_out(getattr(model, key))
    for key in ("mul", "comul", "star", "prec", "succ", "r", "sigma"):
        if getattr(model, key) is not None:
            doc[key] = entries_out(getattr(model, key))
    if model.rb_op is not None:
        doc["R"] = _matrix_out(model.rb_op)
    for key, attr in (("module", model.module), ("comodule", model.comodule)):
        if attr is not None:
            blk: dict = {"dim": attr["dim"]}
            for mk in _MAP_KEYS:
                if mk in attr:
                    blk[mk] = _matrix_out(attr[mk])
            for tk in _ACTION_KEYS:
                if tk in attr:
                    blk[tk] = _entries_out(attr[tk], *_action_layout(tk, model.dim, attr["dim"]))
            doc[key] = blk
    return doc


def structure_to_model(obj, name: str = "model") -> ModelFile:
    """Wrap a structure record as a model ready for saving."""
    if isinstance(obj, ModelFile):
        return obj
    if isinstance(obj, Algebra):
        return ModelFile(name, obj.dim, mul=obj.mul, unit=obj.unit,
                         maps={"alpha": obj.alpha, "beta": obj.beta})
    if isinstance(obj, Coalgebra):
        return ModelFile(name, obj.dim, comul=obj.comul, counit=obj.counit,
                         maps={"psi": obj.psi, "omega": obj.omega})
    if isinstance(obj, Bialgebra):
        return ModelFile(
            name, obj.dim, weight=obj.weight, mul=obj.algebra.mul,
            comul=obj.coalgebra.comul, unit=obj.algebra.unit,
            counit=obj.coalgebra.counit,
            maps={"alpha": obj.algebra.alpha, "beta": obj.algebra.beta,
                  "psi": obj.coalgebra.psi, "omega": obj.coalgebra.omega})
    if isinstance(obj, Augmented):
        base = structure_to_model(obj.algebra, name)
        base.chi = obj.chi
        base.weight = obj.weight
        return base
    if isinstance(obj, Coaugmented):
        base = structure_to_model(obj.coalgebra, name)
        base.zeta = obj.zeta
        base.weight = obj.weight
        return base
    if isinstance(obj, RotaBaxter):
        base = structure_to_model(obj.algebra, name)
        base.rb_op = obj.op
        base.weight = obj.weight
        return base
    if isinstance(obj, Dendriform):
        return ModelFile(name, obj.dim, prec=obj.prec, succ=obj.succ,
                         maps={"alpha": obj.alpha, "beta": obj.beta})
    if isinstance(obj, PreLie):
        return ModelFile(name, obj.dim, star=obj.star,
                         maps={"alpha": obj.alpha, "beta": obj.beta})
    if isinstance(obj, PreLieCoalgebra):
        return ModelFile(name, obj.dim, comul=obj.delta,
                         maps={"psi": obj.psi, "omega": obj.omega})
    if isinstance(obj, HopfModule):
        base = structure_to_model(obj.over, name)
        base.module = {"dim": obj.module.dim, "alpha": obj.module.alpha_m,
                       "beta": obj.module.beta_m, "action": obj.module.action}
        base.comodule = {"dim": obj.comodule.dim, "psi": obj.comodule.psi_m,
                         "omega": obj.comodule.omega_m, "coaction": obj.comodule.coaction}
        return base
    if isinstance(obj, HopfBimodule):
        base = structure_to_model(obj.over, name)
        base.module = {"dim": obj.dim, "alpha": obj.alpha_m, "beta": obj.beta_m,
                       "action": obj.action, "raction": obj.raction}
        base.comodule = {"dim": obj.dim, "psi": obj.psi_m, "omega": obj.omega_m,
                         "coaction": obj.coaction, "rcoaction": obj.rcoaction}
        return base
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, name: str = "model") -> str:
    return json.dumps(model_to_dict(structure_to_model(obj, name)), indent=2) + "\n"


def save(obj, path: str, name: str | None = None):
    model = structure_to_model(obj, name or getattr(obj, "name", "model"))
    if name is not None:
        model.name = name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(model), indent=2) + "\n")
