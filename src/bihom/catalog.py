"""Built-in example models and their declared expectations.

Every entry declares which checks it passes and which violations it
exhibits; `selftest` replays the declarations against the checkers. The
truncated polynomial entries are deliberate negative fixtures: their
compatibility law fails at exactly the basis pairs whose exponents
overflow the truncation order.
"""

from __future__ import annotations

from fractions import Fraction as Q

from . import ybe
from .constructions import trivial_coproduct, yau_twist
from .errors import ParseError
from .exactcore import Comul, Covec, Elem2, Endo, Mul, Vec
from .models import KINDS, ModelFile, structure_to_model

_ID2 = Endo.identity(2)


def _dual_numbers() -> ModelFile:
    # basis 1, x with x^2 = 0
    mul = Mul(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return ModelFile("dual-numbers", 2, mul=mul, unit=Vec(2, (1, 0)), alpha=_ID2, beta=_ID2)


def _kz2() -> ModelFile:
    # group algebra on 1, g with g^2 = 1; coproduct a -> -(a (x) 1) at weight 1
    mul = Mul(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    comul = Comul(2, {(0, 0, 0): -1, (1, 1, 0): -1})
    return ModelFile("kz2", 2, weight=Q(1), mul=mul, comul=comul, unit=Vec(2, (1, 0)),
                     alpha=_ID2, beta=_ID2, psi=_ID2, omega=_ID2)


def _kz2_yau() -> ModelFile:
    # the kz2 structure twisted by g -> -g in all four slots
    theta = Endo(2, ((1, 0), (0, -1)))
    kz2 = _kz2().to_structure("bialgebra")
    return structure_to_model(yau_twist(kz2, theta, theta, theta, theta), "kz2-yau")


def _trunc_poly(order: int) -> ModelFile:
    # K[x]/(x^(order+1)) with the full-range divided coproduct at weight -1
    dim = order + 1
    ident = Endo.identity(dim)
    basis0 = [1] + [0] * order
    return ModelFile(
        f"trunc-poly-{order}", dim, weight=Q(-1),
        mul=Mul(dim, {(i, j, i + j): 1 for i in range(dim) for j in range(dim) if i + j <= order}),
        comul=Comul(dim, {(n, p, n - p): 1 for n in range(dim) for p in range(n + 1)}),
        unit=Vec(dim, tuple(basis0)), counit=Covec(dim, tuple(basis0)),
        alpha=ident, beta=ident, psi=ident, omega=ident)


def _trivial(side: str) -> ModelFile:
    # the weight-1 coproduct a -> -(a (x) 1) resp. -(1 (x) a) on the dual numbers
    algebra = _dual_numbers().to_structure("algebra")
    return structure_to_model(trivial_coproduct(algebra, _ID2, _ID2, 1, side), f"trivial-{side}")


def _qt_one() -> ModelFile:
    # r = 1 (x) 1 at weight 1, over the dual numbers
    return ModelFile("qt-one", 2, weight=Q(1), r=Elem2(2, ((1, 0), (0, 0))))


_BUILDERS = {
    "dual-numbers": _dual_numbers,
    "kz2": _kz2,
    "kz2-yau": _kz2_yau,
    "trunc-poly-2": lambda: _trunc_poly(2),
    "trunc-poly-3": lambda: _trunc_poly(3),
    "trivial-left": lambda: _trivial("left"),
    "trivial-right": lambda: _trivial("right"),
    "qt-one": _qt_one,
}

# name -> (kind, expectation); expectation is 'pass', or for the negative
# fixtures the exact set of failing basis pairs of the compatibility law,
# or 'ybe-solution' for the solution entry.
EXPECTATIONS: dict[str, tuple] = {
    "dual-numbers": ("algebra", "pass"),
    "kz2": ("bialgebra", "pass"),
    "kz2-yau": ("bialgebra", "pass"),
    "trunc-poly-2": ("bialgebra", {(i, j) for i in range(3) for j in range(3) if i + j > 2}),
    "trunc-poly-3": ("bialgebra", {(i, j) for i in range(4) for j in range(4) if i + j > 3}),
    "trivial-left": ("bialgebra", "pass"),
    "trivial-right": ("bialgebra", "pass"),
    "qt-one": ("r-element", "ybe-solution"),
}


def names() -> list[str]:
    return list(_BUILDERS)


def entry(name: str) -> ModelFile:
    if name not in _BUILDERS:
        raise ParseError(f"no catalog entry named {name!r}")
    return _BUILDERS[name]()


def selftest() -> list[str]:
    """Replay every declared expectation; returns failure descriptions."""
    failures = []
    for name, (kind, expect) in EXPECTATIONS.items():
        model = entry(name)
        if kind == "r-element":
            host = entry("dual-numbers").to_structure("algebra")
            report = ybe.abhybe_residual(host, Endo.identity(2), Endo.identity(2),
                                         model.r, model.weight)
            if expect == "ybe-solution" and not report.is_solution:
                failures.append(f"{name}: declared a residual solution but is not")
            if not (report.characterization.get("(14.8)") and report.characterization.get("(14.9)")):
                failures.append(f"{name}: induced-coproduct characterizations do not hold")
            continue
        report = KINDS[kind].check(model.to_structure(kind))
        if expect == "pass":
            if not report.passed:
                failures.append(f"{name}: declared passing but has violations "
                                f"{[v.equation_id for v in report.violations[:3]]}")
        else:
            got = {tuple(v.indices) for v in report.by_equation("(12.4)")}
            others = [v for v in report.violations if v.equation_id != "(12.4)"]
            if got != expect:
                failures.append(f"{name}: compatibility failures at {sorted(got)}, "
                                f"declared {sorted(expect)}")
            if others:
                failures.append(f"{name}: unexpected violations outside the "
                                f"compatibility law: {[v.equation_id for v in others[:3]]}")
    return failures
