from fractions import Fraction as Q

import pytest

from bihom import catalog
from bihom.exactcore import Elem2, Endo

ID2 = Endo.identity(2)


@pytest.fixture
def dual_numbers():
    return catalog.entry("dual-numbers").as_algebra()


@pytest.fixture
def kz2():
    return catalog.entry("kz2").to_structure("bialgebra")


@pytest.fixture
def kz2_yau():
    return catalog.entry("kz2-yau").to_structure("bialgebra")


@pytest.fixture
def trivial_left():
    return catalog.entry("trivial-left").to_structure("bialgebra")


@pytest.fixture
def trivial_right():
    return catalog.entry("trivial-right").to_structure("bialgebra")


@pytest.fixture
def trunc_poly_2():
    return catalog.entry("trunc-poly-2").to_structure("bialgebra")


@pytest.fixture
def r_one():
    """r = 1 (x) 1 on a two-dimensional unital carrier."""
    return Elem2(2, ((1, 0), (0, 0)))


@pytest.fixture
def catalog_bialgebras():
    return {name: catalog.entry(name).to_structure("bialgebra")
            for name in ("kz2", "kz2-yau", "trivial-left", "trivial-right",
                         "trunc-poly-2", "trunc-poly-3")}


@pytest.fixture
def passing_bialgebras(catalog_bialgebras):
    return {k: v for k, v in catalog_bialgebras.items()
            if not k.startswith("trunc-poly")}
