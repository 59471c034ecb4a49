"""The dense maps behind the constructions stay as small as the tensors they
compose: a leg reordering reindexes rows or columns and a contraction with
Delta goes through a reshape, so no size x size matrix over a tensor power
is ever built.

Every map built during a call is recorded; at dimension 8 a leg-reordering
matrix over the third or fourth tensor power would hold n^6 or n^8 cells,
while every map these calls need fits in n^5 (and a tensor product of
dimension d in d^3).
"""

import pytest

from bihom import axioms, catalog, constructions as C, ybe
from bihom.exactcore import BiForm, Covec, Elem2, Endo, LinMap, Vec
from bihom.structures import Augmented, Coaugmented

N = 8


@pytest.fixture
def largest(monkeypatch):
    """The cell count of the largest LinMap built since the last reset."""
    seen = [0]
    init = LinMap.__post_init__

    def record(self):
        init(self)
        seen[0] = max(seen[0], self.rows * self.cols)

    monkeypatch.setattr(LinMap, "__post_init__", record)
    return seen


@pytest.fixture(scope="module")
def host():
    return catalog._trunc_poly(N - 1).to_structure("bialgebra")


@pytest.fixture(scope="module")
def induced(host):
    r = Elem2(N, tuple(tuple(-1 if (i, j) == (0, 0) else 0 for j in range(N))
                       for i in range(N)))
    ident = Endo.identity(N)
    return C.delta_r(host.algebra, ident, ident, r, -1)


@pytest.mark.parametrize("anti", [False, True])
def test_residual_builds_no_fourth_power_matrix(host, largest, anti):
    r = Elem2(N, tuple(tuple((i * j + i) % 3 - 1 for j in range(N)) for i in range(N)))
    ident = Endo.identity(N)
    report = ybe.abhybe_residual(host.algebra, ident, ident, r, -1, anti=anti)
    assert report.characterization  # the characterization path ran too
    assert largest[0] <= N ** 5
    largest[0] = 0
    ybe.coboundary_check(host.algebra, ident, ident, r, -1, anti=anti)
    assert largest[0] <= N ** 5


@pytest.mark.parametrize("anti", [False, True])
def test_co_residual_builds_no_fourth_power_matrix(host, largest, anti):
    sigma = BiForm(N, tuple(tuple((i + 2 * j) % 3 - 1 for j in range(N)) for i in range(N)))
    ident = Endo.identity(N)
    report = ybe.coabhybe_residual(host.coalgebra, ident, ident, sigma, -1, anti=anti)
    assert report.characterization  # the characterization path ran too
    assert largest[0] <= N ** 5


def test_tensor_products_stay_within_the_product_table(host, largest):
    small = catalog.entry("trunc-poly-2").to_structure("bialgebra")
    dim = N * small.dim

    def aug(b):
        return Augmented(b.algebra, Covec(b.dim, (1,) + (0,) * (b.dim - 1)), -1)

    def coaug(b):
        return Coaugmented(b.coalgebra, Vec(b.dim, (1,) * b.dim), -1)

    algebra, _ = C.aug_tensor_product(aug(host), aug(small))
    assert algebra.dim == dim and largest[0] <= dim ** 3
    largest[0] = 0
    coalgebra, _ = C.coaug_tensor_product(coaug(host), coaug(small))
    assert coalgebra.dim == dim and largest[0] <= dim ** 3


def test_prelie_builders_and_checkers(induced, largest):
    prelie = C.prelie_from_bialgebra(induced)
    assert axioms.check_prelie(prelie).passed
    coalgebra = C.prelie_coalgebra(induced)
    assert axioms.check_prelie_coalgebra(coalgebra).passed
    assert largest[0] <= N ** 5
