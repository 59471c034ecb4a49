"""Pinned failing reports of the checkers that no CLI verb reaches.

The golden fixtures pin every report `bihom verify` prints; these tests
pin, byte for byte, one failing report of each checker outside that
surface: its labels, index tuples, order and renderings.
"""

from fractions import Fraction as Q

from bihom import axioms, catalog, constructions, ybe
from bihom.exactcore import Comul, Elem2, Endo, Mul, table_entries
from bihom.structures import Bialgebra, Bimodule, Coalgebra

ID2 = Endo.identity(2)


def _failing(*rows) -> dict:
    return {"passed": False, "violations": [
        {"equation_id": label, "indices": list(indices), "lhs": lhs, "rhs": rhs}
        for label, indices, lhs, rhs in rows]}


def _with_cell(record, cls, target, cell, value):
    """A copy of a dim-2 rank-3 record with one table cell set."""
    cells = dict(table_entries(record.map, (2, 2, 2), target))
    cells[cell] = value
    return cls(2, cells)


def _kz2_yau_mutated() -> Bialgebra:
    """kz2-yau with one coproduct cell added and psi no longer diagonal."""
    b = catalog.entry("kz2-yau").to_structure("bialgebra")
    c = b.coalgebra
    comul = _with_cell(c.comul, Comul, (1, 2), (1, 1, 1), Q(1))
    return Bialgebra(b.algebra, Coalgebra(2, comul, Endo(2, ((1, 1), (0, -1))), c.omega),
                     b.weight)


def test_derivation_failing_report():
    assert axioms.check_derivation(_kz2_yau_mutated()).as_dict() == _failing(
        ("(12.10)", (0, 1), "-e1(x)e0 - e1(x)e1", "-e1(x)e0 + e1(x)e1"),
        ("(12.10)", (1, 0), "-e1(x)e0 - e1(x)e1", "-e1(x)e0 + e1(x)e1"),
        ("(12.10)", (1, 1), "-e0(x)e0", "-e0(x)e0 + e0(x)e1 + e1(x)e0 + e1(x)e1"),
        ("(12.9)", (1,), "-e1(x)e0 + e1(x)e1", "-e1(x)e0 - e1(x)e1"),
        ("(12.9)", (1,), "-e1(x)e0 + e1(x)e1", "-e1(x)e0 - e1(x)e1"),
        ("(12.9)", (1,), "-e1(x)e0 + e1(x)e1", "-e1(x)e0 - e1(x)e1"),
        ("(12.9)", (1,), "2*e0(x)e0 - e0(x)e1 - 2*e1(x)e0 + e1(x)e1",
         "-e0(x)e0 - e1(x)e0 - e1(x)e1"))


def test_coderivation_failing_report():
    assert axioms.check_coderivation(_kz2_yau_mutated()).as_dict() == _failing(
        ("(12.11)", (0, 1), "e0 + e1", "-e0 + e1"),
        ("(12.11)", (1, 0), "e0 + e1", "-e0 + e1"),
        ("(12.11)", (1, 1), "2*e0 + 2*e1", "e0"),
        ("(12.12)", (0, 1), "-e1(x)e0 - e1(x)e1", "-e1(x)e0 + e1(x)e1"),
        ("(12.12)", (1, 0), "-e1(x)e0 - e1(x)e1", "-e1(x)e0 + e1(x)e1"),
        ("(12.12)", (1, 1), "-e0(x)e0", "-e0(x)e0 + e0(x)e1 + e1(x)e0 + e1(x)e1"))


def test_bimodule_failing_report():
    """The regular bimodule of kz2-yau with one right-action cell added."""
    a = catalog.entry("kz2-yau").as_algebra()
    raction = _with_cell(a.mul, Mul, (2,), (1, 1, 1), Q(1)).map
    bimodule = Bimodule(a, 2, a.mul.map, raction, a.alpha, a.beta)
    assert axioms.check_bimodule(bimodule).as_dict() == _failing(
        ("(1.13R)", (1, 1), "m0 - m1", "m0 + m1"),
        ("(1.13R)", (1, 1), "m0 - m1", "m0 + m1"),
        ("(1.15R)", (0, 1, 1), "m0 + m1", "m0"),
        ("(1.15R)", (1, 1, 0), "m0 - m1", "m0 + m1"),
        ("(1.15R)", (1, 1, 1), "-m0", "m1"),
        ("(1.16)", (0, 1, 1), "m0 - m1", "m0 + m1"),
        ("(1.16)", (1, 0, 1), "m0", "m0 + m1"),
        ("(1.16)", (1, 1, 1), "-m0 + m1", "m1"))


def test_delta_morphism_failing_report(trunc_poly_2):
    assert constructions.check_delta_morphism(trunc_poly_2).as_dict() == _failing(
        ("(T2.21a)", (1, 2), "0", "e1(x)e2 + e2(x)e1"),
        ("(T2.21a)", (2, 1), "0", "e1(x)e2 + e2(x)e1"),
        ("(T2.21a)", (2, 2), "0", "e2(x)e2"))


def test_mu_comorphism_failing_report(trunc_poly_2):
    assert constructions.check_mu_comorphism(trunc_poly_2).as_dict() == _failing(
        ("(T2.21b)", (1, 2), "0", "e1(x)e2 + e2(x)e1"),
        ("(T2.21b)", (2, 1), "0", "e1(x)e2 + e2(x)e1"),
        ("(T2.21b)", (2, 2), "0", "e2(x)e2"))


def test_coboundary_failing_report(dual_numbers):
    r = Elem2(2, ((1, 1), (0, 1)))
    assert ybe.coboundary_check(dual_numbers, ID2, ID2, r, 1).as_dict() == _failing(
        ("(coboundary)", (1,), "e1(x)e0(x)e1", "0"))
    assert ybe.coboundary_check(dual_numbers, ID2, ID2, r, 1, anti=True).as_dict() == _failing(
        ("(coboundary1)", (1,), "2*e1(x)e0(x)e0 + 3*e1(x)e0(x)e1", "2*e0(x)e0(x)e1"))
