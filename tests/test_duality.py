"""The coalgebra side, computed on the dual algebra, against the hand-built
references of coalgebra_reference on non-diagonal data at dims 1-3."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

import coalgebra_reference as ref
from bihom import catalog, constructions as C, ybe
from bihom.exactcore import BiForm, Comul, Covec, Endo, LinMap, Mul, Vec, square_map
from bihom.structures import Algebra, Bialgebra, Coalgebra, Coaugmented
from test_ybe import _basis_change, _unital_hosts

SMALL = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-1), Q(2), Q(1, 2)])
PASSING = sorted(name for name, (kind, expect) in catalog.EXPECTATIONS.items()
                 if kind == "bialgebra" and expect == "pass")


@st.composite
def _dense(draw, rows, cols):
    """A rows x cols map of small, mostly zero entries."""
    return LinMap(rows, cols, [[draw(SMALL) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _coalgebras(draw, counit=True):
    """A coalgebra on dim 1-3 with random comultiplication, twists and
    counit: no axiom holds in general."""
    n = draw(st.sampled_from([1, 2, 3]))
    psi, omega = (Endo(n, draw(_dense(n, n))) for _ in range(2))
    return Coalgebra(n, Comul(n, draw(_dense(n * n, n))), psi, omega,
                     Covec(n, draw(_dense(1, n))) if counit else None)


def _invariant_form(sig: LinMap, twists) -> LinMap:
    """The sum of sig o (f (x) f) over the group that the commuting
    involutions twists generate: a form invariant under each of them."""
    forms = [sig]
    for f in twists:
        ff = square_map(f)
        forms += [s @ ff for s in forms]
    return sum(forms[1:], forms[0])


def _transport(b: Bialgebra, p: LinMap, p_inv: LinMap) -> Bialgebra:
    """b carried along the change of basis p: a bialgebra exactly when b is."""
    n = b.dim
    a_, c_ = b.algebra, b.coalgebra

    def endo(f):
        return Endo(n, p_inv @ f.map @ p)
    unit = Vec(n, p_inv @ a_.unit.map) if a_.unit is not None else None
    counit = Covec(n, c_.counit.map @ p) if c_.counit is not None else None
    return Bialgebra(
        Algebra(n, Mul(n, p_inv @ a_.mul.map @ p.tensor(p)), endo(a_.alpha), endo(a_.beta), unit),
        Coalgebra(n, Comul(n, p_inv.tensor(p_inv) @ c_.comul.map @ p), endo(c_.psi),
                  endo(c_.omega), counit),
        b.weight)


@settings(max_examples=20, deadline=None)
@given(_coalgebras(counit=True), _coalgebras(counit=False))
def test_dual_algebra_round_trip(counital, plain):
    for c in (counital, plain):
        assert C.dual_coalgebra(C._dual_algebra(c)) == c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coresidual_matches_reference(data):
    """Residual, verdict and characterizations equal the reference's on
    coalgebras, twists and forms that satisfy no axiom."""
    c = data.draw(_coalgebras())
    n = c.dim
    alpha, beta = (Endo(n, data.draw(_dense(n, n))) for _ in range(2))
    sigma = BiForm(n, data.draw(_dense(1, n * n)))
    weight, anti = data.draw(SMALL), data.draw(st.booleans())
    assert ybe.coabhybe_residual(c, alpha, beta, sigma, weight, anti) == \
        ref.coabhybe_residual(c, alpha, beta, sigma, weight, anti)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coresidual_characterizations_match_reference(data):
    """On the dual of a unital host, with sigma invariant under the four
    non-diagonal twists, all four characterizations are evaluated and equal
    the reference's. sigma = +-weight * eps (x) eps solves one of the two
    residuals, so both verdicts occur."""
    a, psi, omega, _ = data.draw(_unital_hosts())
    c = C.dual_coalgebra(a)
    n = c.dim
    alpha, beta = omega.transpose(), psi.transpose()
    weight, anti = data.draw(SMALL), data.draw(st.booleans())
    eps = c.counit.map
    sig = eps.tensor(eps).scale(data.draw(st.sampled_from([weight, -weight])))
    if data.draw(st.booleans()):
        sig = sig + _invariant_form(data.draw(_dense(1, n * n)), (alpha, beta, c.psi, c.omega))
    sigma = BiForm(n, sig)
    got = ybe.coabhybe_residual(c, alpha, beta, sigma, weight, anti)
    assert got == ref.coabhybe_residual(c, alpha, beta, sigma, weight, anti)
    assert sorted(got.characterization) == ["(01.06)", "(01.07)", "(01.10)", "(01.11)"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mu_sigma_matches_reference(data):
    """On the dual of a graded unital host, whose commuting non-diagonal
    twists are algebra morphisms, the product induced by an invariant sigma
    equals the reference's."""
    a, psi, omega, _ = data.draw(_unital_hosts(graded=True))
    c = C.dual_coalgebra(a)
    n = c.dim
    alpha, beta = omega.transpose(), psi.transpose()
    sigma = BiForm(n, _invariant_form(data.draw(_dense(1, n * n)),
                                      (alpha, beta, c.psi, c.omega)))
    weight, anti = data.draw(SMALL), data.draw(st.booleans())
    b = C.mu_sigma(c, alpha, beta, sigma, weight, anti)
    assert b.algebra.mul.map == ref.mu_sigma_map(c, alpha, beta, sigma, weight, anti)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coaug_tensor_product_matches_reference(data):
    weight = data.draw(SMALL)
    x, y = (Coaugmented(c, Vec(c.dim, data.draw(_dense(c.dim, 1))), weight)
            for c in (data.draw(_coalgebras(counit=data.draw(st.booleans()))) for _ in range(2)))
    assert C.coaug_tensor_product(x, y) == ref.coaug_tensor_product(x, y)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PASSING), st.data())
def test_prelie_coalgebra_matches_reference(name, data):
    """Both variants on the catalog's passing bialgebras, carried along a
    random integer change of basis."""
    b = catalog.entry(name).to_structure("bialgebra")
    b = _transport(b, *data.draw(_basis_change(b.dim)))
    for noninv in (False, True):
        assert C.prelie_coalgebra(b, noninv) == ref.prelie_coalgebra(b, noninv)
