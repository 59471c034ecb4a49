"""Bundled domain structures and the twisted module-action primitives.

All records are frozen dataclasses: pure data, safe to share, compared
fieldwise. A module or comodule record stores each (co)action as its
LinMap; its constructor also takes the dense table of its docstring. Only
shapes are checked at construction time; the checkers in
:mod:`bihom.axioms` check the axioms and report violations as data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NonCommutingMaps, NonMultiplicativeMap
from .exactcore import (
    Comul, Covec, Endo, LinMap, Mul, Q, Vec, endo_tensor, first_noncommuting,
    first_nonmultiplicative, mul_apply, table_map,
)


@dataclass(frozen=True)
class Algebra:
    """A BiHom-associative algebra (A, mul, alpha, beta) with optional unit."""

    dim: int
    mul: Mul
    alpha: Endo
    beta: Endo
    unit: Vec | None = None

    def __post_init__(self):
        for part in (self.mul, self.alpha, self.beta):
            if part.dim != self.dim:
                raise DimensionMismatch("algebra parts disagree on dim")
        if self.unit is not None and self.unit.dim != self.dim:
            raise DimensionMismatch("unit vector has wrong dim")

    def product(self, a: Vec, b: Vec) -> Vec:
        return mul_apply(self.mul, a, b)


@dataclass(frozen=True)
class Coalgebra:
    """A BiHom-coassociative coalgebra (C, comul, psi, omega), optional counit."""

    dim: int
    comul: Comul
    psi: Endo
    omega: Endo
    counit: Covec | None = None

    def __post_init__(self):
        for part in (self.comul, self.psi, self.omega):
            if part.dim != self.dim:
                raise DimensionMismatch("coalgebra parts disagree on dim")
        if self.counit is not None and self.counit.dim != self.dim:
            raise DimensionMismatch("counit has wrong dim")


@dataclass(frozen=True)
class Bialgebra:
    """An algebra and a coalgebra on one space, coupled at weight lambda."""

    algebra: Algebra
    coalgebra: Coalgebra
    weight: Q

    def __post_init__(self):
        object.__setattr__(self, "weight", Q(self.weight))
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatch("bialgebra substructures live on different spaces")

    @property
    def dim(self) -> int:
        return self.algebra.dim


# Each (co)action table by its legs, 'a' over the algebra or coalgebra and
# 'm' over the carrier, and the legs its map sends to (table_map's layout):
# action[i][p][q] is the f_q coefficient of e_i |> f_p, its map A (x) M -> M.
_ACTIONS = {"action": ("amm", (2,)), "raction": ("mam", (2,)),
            "coaction": ("mam", (1, 2)), "rcoaction": ("mma", (1, 2))}


def _action_layout(key: str, dim_a: int, dim_m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The leg dimensions and target legs of the (co)action table key."""
    legs, target = _ACTIONS[key]
    return tuple(dim_a if leg == "a" else dim_m for leg in legs), target


def _store_parts(rec, tables: dict[str, str], twists: tuple[str, ...]):
    """Store each (co)action of a module record as its map (from a LinMap or
    a table in the layout of _ACTIONS[tables[field]]) and check that every
    part fits the carrier."""
    for field, key in tables.items():
        object.__setattr__(rec, field, table_map(
            getattr(rec, field), *_action_layout(key, rec.over.dim, rec.dim), field))
    for field in twists:
        if getattr(rec, field).dim != rec.dim:
            raise DimensionMismatch(f"{field} has dim {getattr(rec, field).dim}, "
                                    f"the carrier has dim {rec.dim}")


@dataclass(frozen=True)
class LeftModule:
    """Left action of an algebra: e_i |> f_p = sum_q action[i][p][q] f_q."""

    over: Algebra
    dim: int
    action: LinMap
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        _store_parts(self, {"action": "action"}, ("alpha_m", "beta_m"))


@dataclass(frozen=True)
class RightModule:
    """Right action of an algebra: f_p <| e_i = sum_q action[p][i][q] f_q."""

    over: Algebra
    dim: int
    action: LinMap
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        _store_parts(self, {"action": "raction"}, ("alpha_m", "beta_m"))


@dataclass(frozen=True)
class Bimodule:
    """Simultaneous left and right actions on one carrier."""

    over: Algebra
    dim: int
    action: LinMap
    raction: LinMap
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        _store_parts(self, {"action": "action", "raction": "raction"}, ("alpha_m", "beta_m"))

    @property
    def left(self) -> LeftModule:
        return LeftModule(self.over, self.dim, self.action, self.alpha_m, self.beta_m)

    @property
    def right(self) -> RightModule:
        return RightModule(self.over, self.dim, self.raction, self.alpha_m, self.beta_m)


@dataclass(frozen=True)
class LeftComodule:
    """Left coaction: rho(f_p) = sum h[p][i][q] e_i (x) f_q."""

    over: Coalgebra
    dim: int
    coaction: LinMap
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        _store_parts(self, {"coaction": "coaction"}, ("psi_m", "omega_m"))


@dataclass(frozen=True)
class RightComodule:
    """Right coaction: phi(f_p) = sum h[p][q][i] f_q (x) e_i."""

    over: Coalgebra
    dim: int
    coaction: LinMap
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        _store_parts(self, {"coaction": "rcoaction"}, ("psi_m", "omega_m"))


@dataclass(frozen=True)
class HopfModule:
    """A module and comodule on one carrier, coupled by the weighted law."""

    over: Bialgebra
    module: LeftModule
    comodule: LeftComodule

    def __post_init__(self):
        if self.module.dim != self.comodule.dim:
            raise DimensionMismatch("module and comodule carriers differ")


@dataclass(frozen=True)
class HopfBimodule:
    """Left/right actions and coactions on one carrier (five-part axioms)."""

    over: Bialgebra
    dim: int
    action: LinMap
    raction: LinMap
    coaction: LinMap
    rcoaction: LinMap
    alpha_m: Endo
    beta_m: Endo
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        _store_parts(self, {key: key for key in _ACTIONS},
                     ("alpha_m", "beta_m", "psi_m", "omega_m"))


@dataclass(frozen=True)
class RotaBaxter:
    """An algebra with a weight-lambda Rota-Baxter operator."""

    algebra: Algebra
    op: Endo
    weight: Q

    def __post_init__(self):
        object.__setattr__(self, "weight", Q(self.weight))
        if self.op.dim != self.algebra.dim:
            raise DimensionMismatch("operator has wrong dim")


@dataclass(frozen=True)
class Dendriform:
    """A product split into two halves whose sum is BiHom-associative."""

    dim: int
    prec: Mul
    succ: Mul
    alpha: Endo
    beta: Endo

    def __post_init__(self):
        for part in (self.prec, self.succ, self.alpha, self.beta):
            if part.dim != self.dim:
                raise DimensionMismatch("dendriform parts disagree on dim")

    @property
    def total(self) -> Mul:
        return self.prec + self.succ


@dataclass(frozen=True)
class PreLie:
    """A product whose twisted associator is symmetric in the first two slots."""

    dim: int
    star: Mul
    alpha: Endo
    beta: Endo

    def __post_init__(self):
        for part in (self.star, self.alpha, self.beta):
            if part.dim != self.dim:
                raise DimensionMismatch("pre-Lie parts disagree on dim")


@dataclass(frozen=True)
class PreLieCoalgebra:
    """The coproduct dual of a pre-Lie product, with its two twists."""

    dim: int
    delta: Comul
    psi: Endo
    omega: Endo

    def __post_init__(self):
        for part in (self.delta, self.psi, self.omega):
            if part.dim != self.dim:
                raise DimensionMismatch("pre-Lie coalgebra parts disagree on dim")


@dataclass(frozen=True)
class Augmented:
    """An algebra with a weight-lambda multiplicative-up-to-sign functional."""

    algebra: Algebra
    chi: Covec
    weight: Q

    def __post_init__(self):
        object.__setattr__(self, "weight", Q(self.weight))
        if self.chi.dim != self.algebra.dim:
            raise DimensionMismatch("augmentation has wrong dim")


@dataclass(frozen=True)
class Coaugmented:
    """A coalgebra with a grouplike-up-to-sign element of weight lambda."""

    coalgebra: Coalgebra
    zeta: Vec
    weight: Q

    def __post_init__(self):
        object.__setattr__(self, "weight", Q(self.weight))
        if self.zeta.dim != self.coalgebra.dim:
            raise DimensionMismatch("coaugmentation has wrong dim")


# ---------------------------------------------------------------------------
# twisted actions of an algebra on its own tensor squares and cubes


def twisted_left_action(a_alg: Algebra, omega: Endo, t: LinMap, legs: int) -> LinMap:
    """a |> t = omega(a)t_1 (x) beta(t_2) (x) ... (x) beta(t_legs), as a map
    A -> A^(x)legs; t is an element of A^(x)legs given as a map K -> A^(x)legs.
    beta acts on t and omega on a before the product, so for legs <= 3 no
    map exceeds n^4 cells."""
    n = a_alg.dim
    rest = n ** (legs - 1)
    t = t.reshape(n, rest) @ endo_tensor(*(a_alg.beta,) * (legs - 1)).map.transpose()
    mul = a_alg.mul.map @ omega.map.tensor(LinMap.identity(n))
    out = (mul.reshape(n * n, n) @ t).reshape(1, n * n * rest)   # legs (c, a, t_2, ...)
    return out.permute_cols((n,) * (legs + 1), (0, legs, *range(1, legs))).reshape(n * rest, n)


def twisted_right_action(a_alg: Algebra, psi: Endo, t: LinMap, legs: int) -> LinMap:
    """t <| a = alpha(t_1) (x) ... (x) alpha(t_(legs-1)) (x) t_legs.psi(a), as
    a map A -> A^(x)legs, built like twisted_left_action."""
    n = a_alg.dim
    rest = n ** (legs - 1)
    t = endo_tensor(*(a_alg.alpha,) * (legs - 1)).map @ t.reshape(rest, n)
    mul = (a_alg.mul.map @ LinMap.identity(n).tensor(psi.map)).reshape(1, n ** 3)
    mul = mul.permute_cols((n,) * 3, (1, 0, 2)).reshape(n, n * n)  # rows t_legs, cols (c, a)
    return (t @ mul).reshape(rest * n, n)


def bimodule_triple(a_alg: Algebra, psi_a: Endo, omega_a: Endo,
                    m: Bimodule, n_mod: Bimodule, v: Bimodule) -> Bimodule:
    """The bimodule structure on M (x) N (x) V.

        a |> (m (x) n (x) v) = omega(a) |> m (x) beta_N(n) (x) beta_V(v)
        (m (x) n (x) v) <| a = alpha_M(m) (x) alpha_N(n) (x) v <| psi(a)

    Requires psi, omega multiplicative and the four algebra maps pairwise
    commuting; both are checked eagerly.
    """
    for f, name in ((psi_a, "psi"), (omega_a, "omega")):
        pair = first_nonmultiplicative(f, a_alg.mul)
        if pair is not None:
            raise NonMultiplicativeMap(f"{name} is not multiplicative at basis pair {pair}")
    pair = first_noncommuting({"alpha": a_alg.alpha, "beta": a_alg.beta,
                               "psi": psi_a, "omega": omega_a})
    if pair is not None:
        raise NonCommutingMaps(f"{pair[0]} and {pair[1]} do not commute")

    dim = m.dim * n_mod.dim * v.dim
    left = (m.action @ omega_a.map.tensor(LinMap.identity(m.dim))
            ).tensor(n_mod.beta_m.map).tensor(v.beta_m.map)
    right = m.alpha_m.map.tensor(n_mod.alpha_m.map).tensor(
        v.raction @ LinMap.identity(v.dim).tensor(psi_a.map))
    return Bimodule(
        over=a_alg,
        dim=dim,
        action=left,
        raction=right,
        alpha_m=endo_tensor(m.alpha_m, n_mod.alpha_m, v.alpha_m),
        beta_m=endo_tensor(m.beta_m, n_mod.beta_m, v.beta_m),
    )


def regular_left_module(a_alg: Algebra) -> LeftModule:
    return LeftModule(a_alg, a_alg.dim, a_alg.mul.map, a_alg.alpha, a_alg.beta)


def regular_left_comodule(c_coalg: Coalgebra) -> LeftComodule:
    """C coacting on itself by its own comultiplication."""
    return LeftComodule(c_coalg, c_coalg.dim, c_coalg.comul.map, c_coalg.psi, c_coalg.omega)
