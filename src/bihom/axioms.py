"""Exhaustive exact verifiers.

Every checker evaluates its displayed identities on the whole basis (no
sampling) and returns a :class:`Report`; mathematical failure is data,
never an exception. Each identity is compared as two LinMap composites of
the records' maps, between tensor powers, so a violation pinpoints the
source-basis tuple together with both sides of the failed identity.

Equation labels used in reports ("(1.3)", "(12.4)", ...) are stable
internal identifiers; the table in the README spells out which identity
each label denotes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactcore import LinMap, render_flat
from .structures import (
    Algebra, Augmented, Bialgebra, Bimodule, Coalgebra, Coaugmented,
    Dendriform, HopfBimodule, HopfModule, LeftComodule, LeftModule, PreLie,
    PreLieCoalgebra, RightComodule, RightModule, RotaBaxter,
)


@dataclass(frozen=True)
class Violation:
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


def _report(violations: list[Violation]) -> Report:
    return Report(tuple(sorted(violations, key=lambda v: (v.equation_id, v.indices, v.lhs, v.rhs))))


def _unflatten(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    idx = []
    for d in reversed(dims):
        flat, part = divmod(flat, d)
        idx.append(part)
    return tuple(reversed(idx))


def compare_maps(eq_id: str, lhs: LinMap, rhs: LinMap,
                 in_dims: tuple[int, ...], out_dims: tuple[int, ...],
                 out_legs: tuple[str, ...]) -> list[Violation]:
    """Columnwise comparison; one violation per differing source-basis tuple."""
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError("comparing maps of different shape")
    return [Violation(eq_id, _unflatten(col, in_dims),
                      render_flat(lhs.column(col), out_dims, out_legs),
                      render_flat(rhs.column(col), out_dims, out_legs))
            for col in lhs.differing_columns(rhs)]


# ---------------------------------------------------------------------------
# algebra / coalgebra / bialgebra


def check_bihom_algebra(a: Algebra) -> Report:
    n = a.dim
    al, be, mu = a.alpha.map, a.beta.map, a.mul.map
    i1 = LinMap.identity(n)
    v: list[Violation] = []
    v += compare_maps("(1.2)", al @ be, be @ al, (n,), (n,), ("e",))
    v += compare_maps("(1.2)", al @ mu, mu @ al.tensor(al), (n, n), (n,), ("e",))
    v += compare_maps("(1.2)", be @ mu, mu @ be.tensor(be), (n, n), (n,), ("e",))
    v += compare_maps("(1.3)", mu @ al.tensor(mu), mu @ mu.tensor(be), (n, n, n), (n,), ("e",))
    if a.unit is not None:
        eta = a.unit.map
        v += compare_maps("(1.5)", al @ eta, eta, (), (n,), ("e",))
        v += compare_maps("(1.5)", be @ eta, eta, (), (n,), ("e",))
        v += compare_maps("(1.5)", mu @ i1.tensor(eta), al, (n,), (n,), ("e",))
        v += compare_maps("(1.5)", mu @ eta.tensor(i1), be, (n,), (n,), ("e",))
    return _report(v)


def check_bihom_coalgebra(c: Coalgebra) -> Report:
    n = c.dim
    ps, om, de = c.psi.map, c.omega.map, c.comul.map
    i1 = LinMap.identity(n)
    v: list[Violation] = []
    v += compare_maps("(1.7)", ps @ om, om @ ps, (n,), (n,), ("e",))
    v += compare_maps("(1.7)", ps.tensor(ps) @ de, de @ ps, (n,), (n, n), ("e", "e"))
    v += compare_maps("(1.7)", om.tensor(om) @ de, de @ om, (n,), (n, n), ("e", "e"))
    v += compare_maps("(1.9)", de.tensor(ps) @ de, om.tensor(de) @ de,
                      (n,), (n, n, n), ("e", "e", "e"))
    if c.counit is not None:
        eps = c.counit.map
        v += compare_maps("(1.11)", eps @ ps, eps, (n,), (), ())
        v += compare_maps("(1.11)", eps @ om, eps, (n,), (), ())
        v += compare_maps("(1.11)", i1.tensor(eps) @ de, om, (n,), (n,), ("e",))
        v += compare_maps("(1.11)", eps.tensor(i1) @ de, ps, (n,), (n,), ("e",))
    return _report(v)


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


def check_compatibility(b: Bialgebra) -> Report:
    """Only the weighted derivation law, on all basis pairs."""
    n = b.dim
    lhs, rhs = _hopf_compat(b, b.algebra.mul.map, b.coalgebra.comul.map,
                            b.algebra.beta.map, b.coalgebra.psi.map)
    return _report(compare_maps("(12.4)", lhs, rhs, (n, n), (n, n), ("e", "e")))


def check_infbh_bialgebra(b: Bialgebra) -> Report:
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    v = list(check_bihom_algebra(a_).violations)
    v += list(check_bihom_coalgebra(c_).violations)
    for f, g in ((al, ps), (al, om), (be, ps), (be, om)):
        v += compare_maps("(12.1)", f @ g, g @ f, (n,), (n,), ("e",))
    v += compare_maps("(12.2)", al.tensor(al) @ de, de @ al, (n,), (n, n), ("e", "e"))
    v += compare_maps("(12.2)", be.tensor(be) @ de, de @ be, (n,), (n, n), ("e", "e"))
    v += compare_maps("(12.3)", ps @ mu, mu @ ps.tensor(ps), (n, n), (n,), ("e",))
    v += compare_maps("(12.3)", om @ mu, mu @ om.tensor(om), (n, n), (n,), ("e",))
    v += list(check_compatibility(b).violations)
    if a_.unit is not None:
        eta = a_.unit.map
        v += compare_maps("(12.30)", ps @ eta, eta, (), (n,), ("e",))
        v += compare_maps("(12.30)", om @ eta, eta, (), (n,), ("e",))
        # derived diagnostic: the coproduct of the unit is -weight * 1 (x) 1
        v += compare_maps("(L2.11a)", de @ eta, (eta.tensor(eta)).scale(-b.weight),
                          (), (n, n), ("e", "e"))
    if c_.counit is not None:
        eps = c_.counit.map
        v += compare_maps("(12.31)", eps @ al, eps, (n,), (), ())
        v += compare_maps("(12.31)", eps @ be, eps, (n,), (), ())
        # derived diagnostic: the counit is multiplicative up to -weight
        v += compare_maps("(L2.11b)", eps @ mu, (eps.tensor(eps)).scale(-b.weight),
                          (n, n), (), ())
    return _report(v)


def check_derivation(b: Bialgebra) -> Report:
    """The coproduct as a weighted twisted derivation of the product."""
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    v: list[Violation] = []
    for f in (al, be, ps, om):
        v += compare_maps("(12.9)", f.tensor(f) @ de, de @ f, (n,), (n, n), ("e", "e"))
    lhs, rhs = _hopf_compat(b, mu, de, be, ps)
    v += compare_maps("(12.10)", lhs, rhs, (n, n), (n, n), ("e", "e"))
    return _report(v)


def check_coderivation(b: Bialgebra) -> Report:
    """The product as a weighted twisted coderivation of the coproduct."""
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra
    mu, de = a_.mul.map, c_.comul.map
    al, be = a_.alpha.map, a_.beta.map
    ps, om = c_.psi.map, c_.omega.map
    v: list[Violation] = []
    for f in (om, ps, al, be):
        v += compare_maps("(12.11)", mu @ f.tensor(f), f @ mu, (n, n), (n,), ("e",))
    lhs, rhs = _hopf_compat(b, mu, de, be, ps)
    v += compare_maps("(12.12)", lhs, rhs, (n, n), (n, n), ("e", "e"))
    return _report(v)


# ---------------------------------------------------------------------------
# modules, comodules, Hopf modules


def check_left_module(m: LeftModule) -> Report:
    a_ = m.over
    na, nm = a_.dim, m.dim
    gam = m.action
    al_a, be_a = a_.alpha.map, a_.beta.map
    al_m, be_m = m.alpha_m.map, m.beta_m.map
    mu = a_.mul.map
    v: list[Violation] = []
    v += compare_maps("(1.13)", al_m @ be_m, be_m @ al_m, (nm,), (nm,), ("m",))
    v += compare_maps("(1.13)", al_m @ gam, gam @ al_a.tensor(al_m), (na, nm), (nm,), ("m",))
    v += compare_maps("(1.13)", be_m @ gam, gam @ be_a.tensor(be_m), (na, nm), (nm,), ("m",))
    v += compare_maps("(1.15)", gam @ al_a.tensor(gam), gam @ mu.tensor(be_m),
                      (na, na, nm), (nm,), ("m",))
    return _report(v)


def check_right_module(m: RightModule) -> Report:
    a_ = m.over
    na, nm = a_.dim, m.dim
    nu = m.action
    al_a, be_a = a_.alpha.map, a_.beta.map
    al_m, be_m = m.alpha_m.map, m.beta_m.map
    mu = a_.mul.map
    v: list[Violation] = []
    v += compare_maps("(1.13R)", al_m @ be_m, be_m @ al_m, (nm,), (nm,), ("m",))
    v += compare_maps("(1.13R)", al_m @ nu, nu @ al_m.tensor(al_a), (nm, na), (nm,), ("m",))
    v += compare_maps("(1.13R)", be_m @ nu, nu @ be_m.tensor(be_a), (nm, na), (nm,), ("m",))
    v += compare_maps("(1.15R)", nu @ nu.tensor(be_a), nu @ al_m.tensor(mu),
                      (nm, na, na), (nm,), ("m",))
    return _report(v)


def check_bimodule(b: Bimodule) -> Report:
    a_ = b.over
    na, nm = a_.dim, b.dim
    gam = b.action
    nu = b.raction
    al_a, be_a = a_.alpha.map, a_.beta.map
    v = list(check_left_module(b.left).violations)
    v += list(check_right_module(b.right).violations)
    v += compare_maps("(1.16)", gam @ al_a.tensor(nu), nu @ gam.tensor(be_a),
                      (na, nm, na), (nm,), ("m",))
    return _report(v)


def check_left_comodule(m: LeftComodule) -> Report:
    c_ = m.over
    na, nm = c_.dim, m.dim
    rho = m.coaction
    ps_a, om_a = c_.psi.map, c_.omega.map
    ps_m, om_m = m.psi_m.map, m.omega_m.map
    de = c_.comul.map
    v: list[Violation] = []
    v += compare_maps("(1.13C)", ps_m @ om_m, om_m @ ps_m, (nm,), (nm,), ("m",))
    v += compare_maps("(1.13C)", ps_a.tensor(ps_m) @ rho, rho @ ps_m, (nm,), (na, nm), ("e", "m"))
    v += compare_maps("(1.13C)", om_a.tensor(om_m) @ rho, rho @ om_m, (nm,), (na, nm), ("e", "m"))
    v += compare_maps("(1.15C)", de.tensor(ps_m) @ rho, om_a.tensor(rho) @ rho,
                      (nm,), (na, na, nm), ("e", "e", "m"))
    return _report(v)


def check_right_comodule(m: RightComodule) -> Report:
    c_ = m.over
    na, nm = c_.dim, m.dim
    phi = m.coaction
    ps_a, om_a = c_.psi.map, c_.omega.map
    ps_m, om_m = m.psi_m.map, m.omega_m.map
    de = c_.comul.map
    v: list[Violation] = []
    v += compare_maps("(1.13CR)", ps_m @ om_m, om_m @ ps_m, (nm,), (nm,), ("m",))
    v += compare_maps("(1.13CR)", ps_m.tensor(ps_a) @ phi, phi @ ps_m, (nm,), (nm, na), ("m", "e"))
    v += compare_maps("(1.13CR)", om_m.tensor(om_a) @ phi, phi @ om_m, (nm,), (nm, na), ("m", "e"))
    v += compare_maps("(1.15CR)", phi.tensor(ps_a) @ phi, om_m.tensor(de) @ phi,
                      (nm,), (nm, na, na), ("m", "e", "e"))
    return _report(v)


def check_hopf_module(h: HopfModule) -> Report:
    b = h.over
    na, nm = b.dim, h.module.dim
    v = list(check_left_module(h.module).violations)
    v += list(check_left_comodule(h.comodule).violations)
    maps = {"alpha_m": h.module.alpha_m, "beta_m": h.module.beta_m,
            "psi_m": h.comodule.psi_m, "omega_m": h.comodule.omega_m}
    names = list(maps)
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            v += compare_maps("(HM.comm)", maps[x].map @ maps[y].map,
                              maps[y].map @ maps[x].map, (nm,), (nm,), ("m",))
    gam = h.module.action
    rho = h.comodule.coaction
    lhs, rhs = _hopf_compat(b, gam, rho, h.module.beta_m.map, h.comodule.psi_m.map)
    v += compare_maps("(12.13)", lhs, rhs, (na, nm), (na, nm), ("e", "m"))
    return _report(v)


def check_hopf_bimodule(h: HopfBimodule) -> Report:
    """The five-part axiom set for simultaneous left/right Hopf structure."""
    b = h.over
    a_, c_ = b.algebra, b.coalgebra
    na, nm = b.dim, h.dim
    left_mod = LeftModule(a_, nm, h.action, h.alpha_m, h.beta_m)
    right_mod = RightModule(a_, nm, h.raction, h.alpha_m, h.beta_m)
    left_com = LeftComodule(c_, nm, h.coaction, h.psi_m, h.omega_m)
    right_com = RightComodule(c_, nm, h.rcoaction, h.psi_m, h.omega_m)

    # (1) left Hopf module
    v = list(check_hopf_module(HopfModule(b, left_mod, left_com)).violations)

    # (2) right Hopf module: mirrored coupling phi o nu
    mu, de = a_.mul.map, c_.comul.map
    al_a, be_a = a_.alpha.map, a_.beta.map
    ps_a, om_a = c_.psi.map, c_.omega.map
    al_m, be_m = h.alpha_m.map, h.beta_m.map
    ps_m, om_m = h.psi_m.map, h.omega_m.map
    nu = h.raction
    phi = h.rcoaction
    v += list(check_right_module(right_mod).violations)
    v += list(check_right_comodule(right_com).violations)
    rhs = (nu.tensor(be_a) @ om_m.tensor(de)
           + al_m.tensor(mu) @ phi.tensor(ps_a)
           + (al_m @ om_m).tensor(be_a @ ps_a).scale(b.weight))
    v += compare_maps("(12.13R)", phi @ nu, rhs, (nm, na), (nm, na), ("m", "e"))

    # (3) bimodule and (4) bicomodule
    gam = h.action
    rho = h.coaction
    v += compare_maps("(1.16)", gam @ al_a.tensor(nu), nu @ gam.tensor(be_a),
                      (na, nm, na), (nm,), ("m",))
    v += compare_maps("(1.16C)", om_a.tensor(phi) @ rho, rho.tensor(ps_a) @ phi,
                      (nm,), (na, nm, na), ("e", "m", "e"))

    # (5) the two cross couplings
    v += compare_maps("(20.01)", phi @ gam, gam.tensor(be_a) @ om_a.tensor(phi),
                      (na, nm), (nm, na), ("m", "e"))
    v += compare_maps("(20.02)", rho @ nu, al_a.tensor(nu) @ rho.tensor(ps_a),
                      (nm, na), (na, nm), ("e", "m"))
    return _report(v)


# ---------------------------------------------------------------------------
# augmentations


def check_augmented(a: Augmented) -> Report:
    alg = a.algebra
    n = alg.dim
    chi = a.chi.map
    mu = alg.mul.map
    v: list[Violation] = []
    v += compare_maps("(12.5m)", chi @ alg.alpha.map, chi, (n,), (), ())
    v += compare_maps("(12.5m)", chi @ alg.beta.map, chi, (n,), (), ())
    v += compare_maps("(12.5)", chi @ mu, chi.tensor(chi).scale(-a.weight), (n, n), (), ())
    return _report(v)


def check_coaugmented(c: Coaugmented) -> Report:
    co = c.coalgebra
    n = co.dim
    zeta = c.zeta.map
    de = co.comul.map
    v: list[Violation] = []
    v += compare_maps("(12.42m)", co.omega.map @ zeta, zeta, (), (n,), ("e",))
    v += compare_maps("(12.42m)", co.psi.map @ zeta, zeta, (), (n,), ("e",))
    v += compare_maps("(12.42)", de @ zeta, zeta.tensor(zeta).scale(-c.weight),
                      (), (n, n), ("e", "e"))
    return _report(v)


# ---------------------------------------------------------------------------
# Rota-Baxter / dendriform / pre-Lie


def check_rota_baxter(rb: RotaBaxter) -> Report:
    alg = rb.algebra
    n = alg.dim
    mu = alg.mul.map
    r_ = rb.op.map
    i1 = LinMap.identity(n)
    v: list[Violation] = []
    v += compare_maps("(RB.alpha)", alg.alpha.map @ r_, r_ @ alg.alpha.map,
                      (n,), (n,), ("e",))
    v += compare_maps("(RB.beta)", alg.beta.map @ r_, r_ @ alg.beta.map,
                      (n,), (n,), ("e",))
    lhs = mu @ r_.tensor(r_)
    rhs = r_ @ (mu @ r_.tensor(i1) + mu @ i1.tensor(r_) + mu.scale(rb.weight))
    v += compare_maps("(RB)", lhs, rhs, (n, n), (n,), ("e",))
    return _report(v)


def check_dendriform(d: Dendriform, full_axioms: bool = False) -> Report:
    """Primary check: the total product is BiHom-associative.

    The three split relations are literature-sourced and only verified
    behind the opt-in flag.
    """
    n = d.dim
    total = Algebra(n, d.total, d.alpha, d.beta, unit=None)
    v = list(check_bihom_algebra(total).violations)
    if full_axioms:
        al, be = d.alpha.map, d.beta.map
        pr, su = d.prec.map, d.succ.map
        both = pr + su
        for f in (al, be):
            v += compare_maps("(D.maps)", f @ pr, pr @ f.tensor(f), (n, n), (n,), ("e",))
            v += compare_maps("(D.maps)", f @ su, su @ f.tensor(f), (n, n), (n,), ("e",))
        v += compare_maps("(D.1)", pr @ pr.tensor(be), pr @ al.tensor(both),
                          (n, n, n), (n,), ("e",))
        v += compare_maps("(D.2)", pr @ su.tensor(be), su @ al.tensor(pr),
                          (n, n, n), (n,), ("e",))
        v += compare_maps("(D.3)", su @ al.tensor(su), su @ both.tensor(be),
                          (n, n, n), (n,), ("e",))
    return _report(v)


def check_prelie(p: PreLie) -> Report:
    n = p.dim
    st = p.star.map
    al, be = p.alpha.map, p.beta.map
    v: list[Violation] = []
    v += compare_maps("(13.1m)", al @ be, be @ al, (n,), (n,), ("e",))
    v += compare_maps("(13.1m)", al @ st, st @ al.tensor(al), (n, n), (n,), ("e",))
    v += compare_maps("(13.1m)", be @ st, st @ be.tensor(be), (n, n), (n,), ("e",))
    # twisted associator, then symmetry in the first two arguments
    assoc = st @ (al @ be).tensor(st @ al.tensor(LinMap.identity(n))) \
        - st @ (st @ be.tensor(al)).tensor(be)
    flipped = assoc.permute_cols((n, n, n), (1, 0, 2))
    v += compare_maps("(13.1)", assoc, flipped, (n, n, n), (n,), ("e",))
    return _report(v)


def check_prelie_coalgebra(p: PreLieCoalgebra) -> Report:
    n = p.dim
    de = p.delta.map
    ps, om = p.psi.map, p.omega.map
    i1 = LinMap.identity(n)
    v: list[Violation] = []
    v += compare_maps("(co13.1m)", ps @ om, om @ ps, (n,), (n,), ("e",))
    v += compare_maps("(co13.1m)", ps.tensor(ps) @ de, de @ ps, (n,), (n, n), ("e", "e"))
    v += compare_maps("(co13.1m)", om.tensor(om) @ de, de @ om, (n,), (n, n), ("e", "e"))
    bar = ((om @ ps).tensor(om.tensor(i1) @ de) @ de
           - (ps.tensor(om) @ de).tensor(ps) @ de)
    flipped = bar.permute_rows((n, n, n), (1, 0, 2))
    v += compare_maps("(co13.1)", bar - flipped, LinMap.zero(n * n * n, n),
                      (n,), (n, n, n), ("e", "e", "e"))
    return _report(v)
