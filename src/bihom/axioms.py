"""Exhaustive exact verifiers.

Every checker evaluates its displayed identities on the whole basis (no
sampling) and returns a :class:`Report`; mathematical failure is data,
never an exception. A checker is a law table: a generator of rows, each an
identity between two LinMap composites of the records' maps on tensor
powers, and the one loop in :func:`checker` compares them, so a violation
pinpoints the source-basis tuple together with both sides of the failed
identity.

Equation labels used in reports ("(1.3)", "(12.4)", ...) are stable
internal identifiers; the table in the README spells out which identity
each label denotes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .exactcore import LinMap, render_flat, unflatten
from .structures import (
    Algebra, Augmented, Bialgebra, Bimodule, Coalgebra, Coaugmented,
    Dendriform, HopfBimodule, HopfModule, LeftComodule, LeftModule, PreLie,
    PreLieCoalgebra, RightComodule, RightModule, RotaBaxter,
)

Laws = Iterator[tuple]  # rows (label, lhs, rhs, in_dims, out_dims, out_legs)


@dataclass(frozen=True, order=True)
class Violation:
    """Reports sort violations by (label, indices, lhs, rhs), field order."""

    equation_id: str
    indices: tuple[int, ...]
    lhs: str
    rhs: str

    def as_dict(self) -> dict:
        return {"equation_id": self.equation_id, "indices": list(self.indices),
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"passed": self.passed, "violations": [v.as_dict() for v in self.violations]}

    def by_equation(self, equation_id: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.equation_id == equation_id)


def checker(laws):
    """The checker of a law table: laws(*args) yields the rows, and each is
    compared as it is yielded, so one row's maps are alive at a time. A
    checker that contains another yields from its ``laws``."""
    @functools.wraps(laws)
    def check(*args, **kwargs) -> Report:
        found = itertools.starmap(compare_maps, laws(*args, **kwargs))
        return Report(tuple(sorted(itertools.chain.from_iterable(found))))
    check.laws = laws
    return check


def _column_cells(m: LinMap, cols: list[int]) -> dict[int, list]:
    """The nonzero (row, value) cells of each column in cols, rows
    ascending, from one pass over the row views."""
    out: dict[int, list] = {c: [] for c in cols}
    for row, (cs, vs) in enumerate(m.nonzeros):
        for c, v in zip(cs, vs):
            if c in out:
                out[c].append((row, v))
    return out


def compare_maps(eq_id: str, lhs: LinMap, rhs: LinMap,
                 in_dims: tuple[int, ...], out_dims: tuple[int, ...],
                 out_legs: tuple[str, ...]) -> list[Violation]:
    """Columnwise comparison; one violation per differing source-basis tuple,
    each side rendered from the nonzero cells of its column."""
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError("comparing maps of different shape")
    declared = (math.prod(out_dims), math.prod(in_dims), len(out_legs))
    if declared != (lhs.rows, lhs.cols, len(out_dims)):
        raise ValueError(f"{eq_id}: legs {in_dims} -> {out_dims} {out_legs} do not fit "
                         f"a {lhs.rows}x{lhs.cols} map")
    bad = lhs.differing_columns(rhs)
    if not bad:
        return []
    left, right = _column_cells(lhs, bad), _column_cells(rhs, bad)
    return [Violation(eq_id, unflatten(col, in_dims), render_flat(left[col], out_dims, out_legs),
                      render_flat(right[col], out_dims, out_legs))
            for col in bad]


# ---------------------------------------------------------------------------
# algebra / coalgebra / bialgebra


@checker
def check_bihom_algebra(a: Algebra) -> Laws:
    n = a.dim
    al, be, mu = a.alpha.map, a.beta.map, a.mul.map
    i1 = LinMap.identity(n)
    yield ("(1.2)", al @ be, be @ al, (n,), (n,), ("e",))
    yield ("(1.2)", al @ mu, mu @ al.tensor(al), (n, n), (n,), ("e",))
    yield ("(1.2)", be @ mu, mu @ be.tensor(be), (n, n), (n,), ("e",))
    yield ("(1.3)", mu @ al.tensor(mu), mu @ mu.tensor(be), (n, n, n), (n,), ("e",))
    if a.unit is not None:
        eta = a.unit.map
        yield ("(1.5)", al @ eta, eta, (), (n,), ("e",))
        yield ("(1.5)", be @ eta, eta, (), (n,), ("e",))
        yield ("(1.5)", mu @ i1.tensor(eta), al, (n,), (n,), ("e",))
        yield ("(1.5)", mu @ eta.tensor(i1), be, (n,), (n,), ("e",))


@checker
def check_bihom_coalgebra(c: Coalgebra) -> Laws:
    n = c.dim
    ps, om, de = c.psi.map, c.omega.map, c.comul.map
    i1 = LinMap.identity(n)
    yield ("(1.7)", ps @ om, om @ ps, (n,), (n,), ("e",))
    yield ("(1.7)", ps.tensor(ps) @ de, de @ ps, (n,), (n, n), ("e", "e"))
    yield ("(1.7)", om.tensor(om) @ de, de @ om, (n,), (n, n), ("e", "e"))
    yield ("(1.9)", de.tensor(ps) @ de, om.tensor(de) @ de, (n,), (n, n, n), ("e", "e", "e"))
    if c.counit is not None:
        eps = c.counit.map
        yield ("(1.11)", eps @ ps, eps, (n,), (), ())
        yield ("(1.11)", eps @ om, eps, (n,), (), ())
        yield ("(1.11)", i1.tensor(eps) @ de, om, (n,), (n,), ("e",))
        yield ("(1.11)", eps.tensor(i1) @ de, ps, (n,), (n,), ("e",))


def _hopf_compat(b: Bialgebra, gam: LinMap, rho: LinMap,
                 be_m: LinMap, ps_m: LinMap) -> tuple[LinMap, LinMap]:
    """Both sides of the weighted derivation law for a left action gam and a
    left coaction rho on M, as maps A(x)M -> A(x)M: the Hopf-module coupling
    (12.13), and on A itself (gam = mu, rho = Delta) the law (12.4)."""
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, om = a_.alpha.map, c_.omega.map
    lhs = rho @ gam
    rhs = (mu.tensor(be_m) @ om.tensor(rho)
           + al.tensor(gam) @ de.tensor(ps_m)
           + (al @ om).tensor(be_m @ ps_m).scale(b.weight))
    return lhs, rhs


@checker
def check_compatibility(b: Bialgebra) -> Laws:
    """Only the weighted derivation law, on all basis pairs."""
    n = b.dim
    yield ("(12.4)", *_hopf_compat(b, b.algebra.mul.map, b.coalgebra.comul.map,
                                   b.algebra.beta.map, b.coalgebra.psi.map),
           (n, n), (n, n), ("e", "e"))


@checker
def check_infbh_bialgebra(b: Bialgebra) -> Laws:
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    yield from check_bihom_algebra.laws(a_)
    yield from check_bihom_coalgebra.laws(c_)
    for f, g in ((al, ps), (al, om), (be, ps), (be, om)):
        yield ("(12.1)", f @ g, g @ f, (n,), (n,), ("e",))
    yield ("(12.2)", al.tensor(al) @ de, de @ al, (n,), (n, n), ("e", "e"))
    yield ("(12.2)", be.tensor(be) @ de, de @ be, (n,), (n, n), ("e", "e"))
    yield ("(12.3)", ps @ mu, mu @ ps.tensor(ps), (n, n), (n,), ("e",))
    yield ("(12.3)", om @ mu, mu @ om.tensor(om), (n, n), (n,), ("e",))
    yield from check_compatibility.laws(b)
    if a_.unit is not None:
        eta = a_.unit.map
        yield ("(12.30)", ps @ eta, eta, (), (n,), ("e",))
        yield ("(12.30)", om @ eta, eta, (), (n,), ("e",))
        # derived diagnostic: the coproduct of the unit is -weight * 1 (x) 1
        yield ("(L2.11a)", de @ eta, (eta.tensor(eta)).scale(-b.weight), (), (n, n), ("e", "e"))
    if c_.counit is not None:
        eps = c_.counit.map
        yield ("(12.31)", eps @ al, eps, (n,), (), ())
        yield ("(12.31)", eps @ be, eps, (n,), (), ())
        # derived diagnostic: the counit is multiplicative up to -weight
        yield ("(L2.11b)", eps @ mu, (eps.tensor(eps)).scale(-b.weight), (n, n), (), ())


@checker
def check_derivation(b: Bialgebra) -> Laws:
    """The coproduct as a weighted twisted derivation of the product."""
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    for f in (al, be, ps, om):
        yield ("(12.9)", f.tensor(f) @ de, de @ f, (n,), (n, n), ("e", "e"))
    yield ("(12.10)", *_hopf_compat(b, mu, de, be, ps), (n, n), (n, n), ("e", "e"))


@checker
def check_coderivation(b: Bialgebra) -> Laws:
    """The product as a weighted twisted coderivation of the coproduct."""
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    for f in (om, ps, al, be):
        yield ("(12.11)", mu @ f.tensor(f), f @ mu, (n, n), (n,), ("e",))
    yield ("(12.12)", *_hopf_compat(b, mu, de, be, ps), (n, n), (n, n), ("e", "e"))


# ---------------------------------------------------------------------------
# modules, comodules, Hopf modules


@checker
def check_left_module(m: LeftModule) -> Laws:
    a_ = m.over
    na, nm = a_.dim, m.dim
    gam = m.action
    al_a, be_a = a_.alpha.map, a_.beta.map
    al_m, be_m = m.alpha_m.map, m.beta_m.map
    mu = a_.mul.map
    yield ("(1.13)", al_m @ be_m, be_m @ al_m, (nm,), (nm,), ("m",))
    yield ("(1.13)", al_m @ gam, gam @ al_a.tensor(al_m), (na, nm), (nm,), ("m",))
    yield ("(1.13)", be_m @ gam, gam @ be_a.tensor(be_m), (na, nm), (nm,), ("m",))
    yield ("(1.15)", gam @ al_a.tensor(gam), gam @ mu.tensor(be_m), (na, na, nm), (nm,), ("m",))


@checker
def check_right_module(m: RightModule) -> Laws:
    a_ = m.over
    na, nm = a_.dim, m.dim
    nu = m.action
    al_a, be_a = a_.alpha.map, a_.beta.map
    al_m, be_m = m.alpha_m.map, m.beta_m.map
    mu = a_.mul.map
    yield ("(1.13R)", al_m @ be_m, be_m @ al_m, (nm,), (nm,), ("m",))
    yield ("(1.13R)", al_m @ nu, nu @ al_m.tensor(al_a), (nm, na), (nm,), ("m",))
    yield ("(1.13R)", be_m @ nu, nu @ be_m.tensor(be_a), (nm, na), (nm,), ("m",))
    yield ("(1.15R)", nu @ nu.tensor(be_a), nu @ al_m.tensor(mu), (nm, na, na), (nm,), ("m",))


@checker
def check_bimodule(b: Bimodule) -> Laws:
    a_ = b.over
    na, nm = a_.dim, b.dim
    gam = b.action
    nu = b.raction
    al_a, be_a = a_.alpha.map, a_.beta.map
    yield from check_left_module.laws(b.left)
    yield from check_right_module.laws(b.right)
    yield ("(1.16)", gam @ al_a.tensor(nu), nu @ gam.tensor(be_a), (na, nm, na), (nm,), ("m",))


@checker
def check_left_comodule(m: LeftComodule) -> Laws:
    c_ = m.over
    na, nm = c_.dim, m.dim
    rho = m.coaction
    ps_a, om_a = c_.psi.map, c_.omega.map
    ps_m, om_m = m.psi_m.map, m.omega_m.map
    de = c_.comul.map
    yield ("(1.13C)", ps_m @ om_m, om_m @ ps_m, (nm,), (nm,), ("m",))
    yield ("(1.13C)", ps_a.tensor(ps_m) @ rho, rho @ ps_m, (nm,), (na, nm), ("e", "m"))
    yield ("(1.13C)", om_a.tensor(om_m) @ rho, rho @ om_m, (nm,), (na, nm), ("e", "m"))
    yield ("(1.15C)", de.tensor(ps_m) @ rho, om_a.tensor(rho) @ rho,
           (nm,), (na, na, nm), ("e", "e", "m"))


@checker
def check_right_comodule(m: RightComodule) -> Laws:
    c_ = m.over
    na, nm = c_.dim, m.dim
    phi = m.coaction
    ps_a, om_a = c_.psi.map, c_.omega.map
    ps_m, om_m = m.psi_m.map, m.omega_m.map
    de = c_.comul.map
    yield ("(1.13CR)", ps_m @ om_m, om_m @ ps_m, (nm,), (nm,), ("m",))
    yield ("(1.13CR)", ps_m.tensor(ps_a) @ phi, phi @ ps_m, (nm,), (nm, na), ("m", "e"))
    yield ("(1.13CR)", om_m.tensor(om_a) @ phi, phi @ om_m, (nm,), (nm, na), ("m", "e"))
    yield ("(1.15CR)", phi.tensor(ps_a) @ phi, om_m.tensor(de) @ phi,
           (nm,), (nm, na, na), ("m", "e", "e"))


@checker
def check_hopf_module(h: HopfModule) -> Laws:
    b = h.over
    na, nm = b.dim, h.module.dim
    yield from check_left_module.laws(h.module)
    yield from check_left_comodule.laws(h.comodule)
    twists = (h.module.alpha_m, h.module.beta_m, h.comodule.psi_m, h.comodule.omega_m)
    for f, g in itertools.combinations([t.map for t in twists], 2):
        yield ("(HM.comm)", f @ g, g @ f, (nm,), (nm,), ("m",))
    yield ("(12.13)", *_hopf_compat(b, h.module.action, h.comodule.coaction,
                                    h.module.beta_m.map, h.comodule.psi_m.map),
           (na, nm), (na, nm), ("e", "m"))


@checker
def check_hopf_bimodule(h: HopfBimodule) -> Laws:
    """The five-part axiom set for simultaneous left/right Hopf structure."""
    b = h.over
    a_, c_ = b.algebra, b.coalgebra
    na, nm = b.dim, h.dim
    left_mod = LeftModule(a_, nm, h.action, h.alpha_m, h.beta_m)
    right_mod = RightModule(a_, nm, h.raction, h.alpha_m, h.beta_m)
    left_com = LeftComodule(c_, nm, h.coaction, h.psi_m, h.omega_m)
    right_com = RightComodule(c_, nm, h.rcoaction, h.psi_m, h.omega_m)

    # (1) left Hopf module
    yield from check_hopf_module.laws(HopfModule(b, left_mod, left_com))

    # (2) right Hopf module: mirrored coupling phi o nu
    mu, de = a_.mul.map, c_.comul.map
    al_a, be_a = a_.alpha.map, a_.beta.map
    ps_a, om_a = c_.psi.map, c_.omega.map
    al_m, be_m = h.alpha_m.map, h.beta_m.map
    ps_m, om_m = h.psi_m.map, h.omega_m.map
    nu = h.raction
    phi = h.rcoaction
    yield from check_right_module.laws(right_mod)
    yield from check_right_comodule.laws(right_com)
    rhs = (nu.tensor(be_a) @ om_m.tensor(de)
           + al_m.tensor(mu) @ phi.tensor(ps_a)
           + (al_m @ om_m).tensor(be_a @ ps_a).scale(b.weight))
    yield ("(12.13R)", phi @ nu, rhs, (nm, na), (nm, na), ("m", "e"))

    # (3) bimodule and (4) bicomodule
    gam = h.action
    rho = h.coaction
    yield ("(1.16)", gam @ al_a.tensor(nu), nu @ gam.tensor(be_a), (na, nm, na), (nm,), ("m",))
    yield ("(1.16C)", om_a.tensor(phi) @ rho, rho.tensor(ps_a) @ phi,
           (nm,), (na, nm, na), ("e", "m", "e"))

    # (5) the two cross couplings
    yield ("(20.01)", phi @ gam, gam.tensor(be_a) @ om_a.tensor(phi),
           (na, nm), (nm, na), ("m", "e"))
    yield ("(20.02)", rho @ nu, al_a.tensor(nu) @ rho.tensor(ps_a), (nm, na), (na, nm), ("e", "m"))


# ---------------------------------------------------------------------------
# augmentations


@checker
def check_augmented(a: Augmented) -> Laws:
    alg = a.algebra
    n = alg.dim
    chi = a.chi.map
    mu = alg.mul.map
    yield ("(12.5m)", chi @ alg.alpha.map, chi, (n,), (), ())
    yield ("(12.5m)", chi @ alg.beta.map, chi, (n,), (), ())
    yield ("(12.5)", chi @ mu, chi.tensor(chi).scale(-a.weight), (n, n), (), ())


@checker
def check_coaugmented(c: Coaugmented) -> Laws:
    co = c.coalgebra
    n = co.dim
    zeta = c.zeta.map
    de = co.comul.map
    yield ("(12.42m)", co.omega.map @ zeta, zeta, (), (n,), ("e",))
    yield ("(12.42m)", co.psi.map @ zeta, zeta, (), (n,), ("e",))
    yield ("(12.42)", de @ zeta, zeta.tensor(zeta).scale(-c.weight), (), (n, n), ("e", "e"))


# ---------------------------------------------------------------------------
# Rota-Baxter / dendriform / pre-Lie


@checker
def check_rota_baxter(rb: RotaBaxter) -> Laws:
    alg = rb.algebra
    n = alg.dim
    mu = alg.mul.map
    r_ = rb.op.map
    i1 = LinMap.identity(n)
    yield ("(RB.alpha)", alg.alpha.map @ r_, r_ @ alg.alpha.map, (n,), (n,), ("e",))
    yield ("(RB.beta)", alg.beta.map @ r_, r_ @ alg.beta.map, (n,), (n,), ("e",))
    lhs = mu @ r_.tensor(r_)
    rhs = r_ @ (mu @ r_.tensor(i1) + mu @ i1.tensor(r_) + mu.scale(rb.weight))
    yield ("(RB)", lhs, rhs, (n, n), (n,), ("e",))


@checker
def check_dendriform(d: Dendriform, full_axioms: bool = False) -> Laws:
    """Primary check: the total product is BiHom-associative.

    The three split relations are literature-sourced and only verified
    behind the opt-in flag.
    """
    n = d.dim
    total = Algebra(n, d.total, d.alpha, d.beta, unit=None)
    yield from check_bihom_algebra.laws(total)
    if full_axioms:
        al, be = d.alpha.map, d.beta.map
        pr, su = d.prec.map, d.succ.map
        both = pr + su
        for f in (al, be):
            yield ("(D.maps)", f @ pr, pr @ f.tensor(f), (n, n), (n,), ("e",))
            yield ("(D.maps)", f @ su, su @ f.tensor(f), (n, n), (n,), ("e",))
        yield ("(D.1)", pr @ pr.tensor(be), pr @ al.tensor(both), (n, n, n), (n,), ("e",))
        yield ("(D.2)", pr @ su.tensor(be), su @ al.tensor(pr), (n, n, n), (n,), ("e",))
        yield ("(D.3)", su @ al.tensor(su), su @ both.tensor(be), (n, n, n), (n,), ("e",))


@checker
def check_prelie(p: PreLie) -> Laws:
    n = p.dim
    st = p.star.map
    al, be = p.alpha.map, p.beta.map
    yield ("(13.1m)", al @ be, be @ al, (n,), (n,), ("e",))
    yield ("(13.1m)", al @ st, st @ al.tensor(al), (n, n), (n,), ("e",))
    yield ("(13.1m)", be @ st, st @ be.tensor(be), (n, n), (n,), ("e",))
    # twisted associator, then symmetry in the first two arguments
    assoc = st @ (al @ be).tensor(st @ al.tensor(LinMap.identity(n))) \
        - st @ (st @ be.tensor(al)).tensor(be)
    flipped = assoc.permute_cols((n, n, n), (1, 0, 2))
    yield ("(13.1)", assoc, flipped, (n, n, n), (n,), ("e",))


@checker
def check_prelie_coalgebra(p: PreLieCoalgebra) -> Laws:
    n = p.dim
    de = p.delta.map
    ps, om = p.psi.map, p.omega.map
    i1 = LinMap.identity(n)
    yield ("(co13.1m)", ps @ om, om @ ps, (n,), (n,), ("e",))
    yield ("(co13.1m)", ps.tensor(ps) @ de, de @ ps, (n,), (n, n), ("e", "e"))
    yield ("(co13.1m)", om.tensor(om) @ de, de @ om, (n,), (n, n), ("e", "e"))
    bar = ((om @ ps).tensor(om.tensor(i1) @ de) @ de
           - (ps.tensor(om) @ de).tensor(ps) @ de)
    flipped = bar.permute_rows((n, n, n), (1, 0, 2))
    yield ("(co13.1)", bar - flipped, LinMap.zero(n * n * n, n), (n,), (n, n, n), ("e", "e", "e"))
