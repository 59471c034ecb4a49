"""Bundled domain structures and the twisted module-action primitives.

All records are frozen dataclasses: pure data, safe to share, compared
fieldwise. Nothing is validated mathematically at construction time; the
checkers in :mod:`bihom.axioms` do that and report violations as data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NonCommutingMaps, NonMultiplicativeMap
from .exactcore import (
    Comul, Covec, Elem2, Elem3, Endo, LinMap, Mul, Q, Vec, action_map, action_table,
    elem2_flat, elem3_flat, elem_map, endo_map, endo_tensor, first_noncommuting,
    first_nonmultiplicative, flat_elem3, mul_apply, mul_map, raction_map,
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


def _check_rank3(tensor, dims: tuple[int, int, int], what: str):
    a, b, c = dims
    if len(tensor) != a or any(len(p) != b for p in tensor) or any(
            len(row) != c for p in tensor for row in p):
        raise DimensionMismatch(f"{what} tensor has wrong shape")


def _freeze3(tensor):
    return tuple(tuple(tuple(Q(x) for x in row) for row in plane) for plane in tensor)


@dataclass(frozen=True)
class LeftModule:
    """Left action of an algebra: e_i |> f_p = sum_q action[i][p][q] f_q."""

    over: Algebra
    dim: int
    action: tuple
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "action", _freeze3(self.action))
        _check_rank3(self.action, (self.over.dim, self.dim, self.dim), "left action")
        if self.alpha_m.dim != self.dim or self.beta_m.dim != self.dim:
            raise DimensionMismatch("module maps have wrong dim")


@dataclass(frozen=True)
class RightModule:
    """Right action of an algebra: f_p <| e_i = sum_q action[p][i][q] f_q."""

    over: Algebra
    dim: int
    action: tuple
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "action", _freeze3(self.action))
        _check_rank3(self.action, (self.dim, self.over.dim, self.dim), "right action")
        if self.alpha_m.dim != self.dim or self.beta_m.dim != self.dim:
            raise DimensionMismatch("module maps have wrong dim")


@dataclass(frozen=True)
class Bimodule:
    """Simultaneous left and right actions on one carrier."""

    over: Algebra
    dim: int
    action: tuple
    raction: tuple
    alpha_m: Endo
    beta_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "action", _freeze3(self.action))
        object.__setattr__(self, "raction", _freeze3(self.raction))
        _check_rank3(self.action, (self.over.dim, self.dim, self.dim), "left action")
        _check_rank3(self.raction, (self.dim, self.over.dim, self.dim), "right action")

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
    coaction: tuple
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "coaction", _freeze3(self.coaction))
        _check_rank3(self.coaction, (self.dim, self.over.dim, self.dim), "left coaction")
        if self.psi_m.dim != self.dim or self.omega_m.dim != self.dim:
            raise DimensionMismatch("comodule maps have wrong dim")


@dataclass(frozen=True)
class RightComodule:
    """Right coaction: phi(f_p) = sum h[p][q][i] f_q (x) e_i."""

    over: Coalgebra
    dim: int
    coaction: tuple
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "coaction", _freeze3(self.coaction))
        _check_rank3(self.coaction, (self.dim, self.dim, self.over.dim), "right coaction")


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
    action: tuple
    raction: tuple
    coaction: tuple
    rcoaction: tuple
    alpha_m: Endo
    beta_m: Endo
    psi_m: Endo
    omega_m: Endo

    def __post_init__(self):
        object.__setattr__(self, "action", _freeze3(self.action))
        object.__setattr__(self, "raction", _freeze3(self.raction))
        object.__setattr__(self, "coaction", _freeze3(self.coaction))
        object.__setattr__(self, "rcoaction", _freeze3(self.rcoaction))
        n, m = self.over.dim, self.dim
        _check_rank3(self.action, (n, m, m), "left action")
        _check_rank3(self.raction, (m, n, m), "right action")
        _check_rank3(self.coaction, (m, n, m), "left coaction")
        _check_rank3(self.rcoaction, (m, m, n), "right coaction")


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
    t = t.reshape(n, rest) @ endo_map(endo_tensor(*(a_alg.beta,) * (legs - 1))).transpose()
    mul = mul_map(a_alg.mul) @ endo_map(omega).tensor(LinMap.identity(n))
    out = (mul.reshape(n * n, n) @ t).reshape(1, n * n * rest)   # legs (c, a, t_2, ...)
    return out.permute_cols((n,) * (legs + 1), (0, legs, *range(1, legs))).reshape(n * rest, n)


def twisted_right_action(a_alg: Algebra, psi: Endo, t: LinMap, legs: int) -> LinMap:
    """t <| a = alpha(t_1) (x) ... (x) alpha(t_(legs-1)) (x) t_legs.psi(a), as
    a map A -> A^(x)legs, built like twisted_left_action."""
    n = a_alg.dim
    rest = n ** (legs - 1)
    t = endo_map(endo_tensor(*(a_alg.alpha,) * (legs - 1))) @ t.reshape(rest, n)
    mul = (mul_map(a_alg.mul) @ LinMap.identity(n).tensor(endo_map(psi))).reshape(1, n ** 3)
    mul = mul.permute_cols((n,) * 3, (1, 0, 2)).reshape(n, n * n)  # rows t_legs, cols (c, a)
    return (t @ mul).reshape(rest * n, n)


def act_pair_left(a_alg: Algebra, omega: Endo, a: Vec, xy: Elem2) -> Elem2:
    """a |> (x (x) y) = omega(a)x (x) beta(y), extended bilinearly."""
    n = a_alg.dim
    if a.dim != n or xy.dim != n or omega.dim != n:
        raise DimensionMismatch("left pair action operands disagree on dim")
    flat = twisted_left_action(a_alg, omega, elem_map(elem2_flat(xy)), 2).apply_flat(a.coeffs)
    return Elem2(n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))


def act_pair_right(a_alg: Algebra, psi: Endo, xy: Elem2, a: Vec) -> Elem2:
    """(x (x) y) <| a = alpha(x) (x) y.psi(a), extended bilinearly."""
    n = a_alg.dim
    if a.dim != n or xy.dim != n or psi.dim != n:
        raise DimensionMismatch("right pair action operands disagree on dim")
    flat = twisted_right_action(a_alg, psi, elem_map(elem2_flat(xy)), 2).apply_flat(a.coeffs)
    return Elem2(n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))


def act_triple(a_alg: Algebra, psi: Endo, omega: Endo, side: str, a: Vec, t: Elem3) -> Elem3:
    """The twisted actions on triple tensors.

    side='left':  a |> (x (x) y (x) z) = omega(a)x (x) beta(y) (x) beta(z)
    side='right': (x (x) y (x) z) <| a = alpha(x) (x) alpha(y) (x) z.psi(a)
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = a_alg.dim
    if a.dim != n or t.dim != n:
        raise DimensionMismatch("triple action operands disagree on dim")
    t_map = elem_map(elem3_flat(t))
    action = (twisted_left_action(a_alg, omega, t_map, 3) if side == "left"
              else twisted_right_action(a_alg, psi, t_map, 3))
    return flat_elem3(action.apply_flat(a.coeffs), n)


def bimodule_triple(a_alg: Algebra, psi_a: Endo, omega_a: Endo,
                    m: Bimodule, n_mod: Bimodule, v: Bimodule) -> Bimodule:
    """The bimodule structure on M (x) N (x) V.

        a |> (m (x) n (x) v) = omega(a) |> m (x) beta_N(n) (x) beta_V(v)
        (m (x) n (x) v) <| a = alpha_M(m) (x) alpha_N(n) (x) v <| psi(a)

    Requires psi, omega multiplicative and the four algebra maps pairwise
    commuting; both are checked eagerly.
    """
    dim_a = a_alg.dim
    for f, name in ((psi_a, "psi"), (omega_a, "omega")):
        pair = first_nonmultiplicative(f, a_alg.mul)
        if pair is not None:
            raise NonMultiplicativeMap(f"{name} is not multiplicative at basis pair {pair}")
    pair = first_noncommuting({"alpha": a_alg.alpha, "beta": a_alg.beta,
                               "psi": psi_a, "omega": omega_a})
    if pair is not None:
        raise NonCommutingMaps(f"{pair[0]} and {pair[1]} do not commute")

    dim = m.dim * n_mod.dim * v.dim
    left = (action_map(m.action, dim_a, m.dim)
            @ endo_map(omega_a).tensor(LinMap.identity(m.dim))
            ).tensor(endo_map(n_mod.beta_m)).tensor(endo_map(v.beta_m))
    right = endo_map(m.alpha_m).tensor(endo_map(n_mod.alpha_m)).tensor(
        raction_map(v.raction, v.dim, dim_a) @ LinMap.identity(v.dim).tensor(endo_map(psi_a)))
    return Bimodule(
        over=a_alg,
        dim=dim,
        action=action_table(left, dim_a, dim),
        raction=action_table(right, dim, dim_a),
        alpha_m=endo_tensor(m.alpha_m, n_mod.alpha_m, v.alpha_m),
        beta_m=endo_tensor(m.beta_m, n_mod.beta_m, v.beta_m),
    )


def regular_bimodule(a_alg: Algebra) -> Bimodule:
    """A acting on itself on both sides by its own multiplication."""
    return Bimodule(a_alg, a_alg.dim, a_alg.mul.c, a_alg.mul.c, a_alg.alpha, a_alg.beta)


def regular_left_module(a_alg: Algebra) -> LeftModule:
    return LeftModule(a_alg, a_alg.dim, a_alg.mul.c, a_alg.alpha, a_alg.beta)


def regular_left_comodule(c_coalg: Coalgebra) -> LeftComodule:
    """C coacting on itself by its own comultiplication."""
    return LeftComodule(c_coalg, c_coalg.dim, c_coalg.comul.d, c_coalg.psi, c_coalg.omega)
