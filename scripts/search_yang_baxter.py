#!/usr/bin/env python3
"""Sweep the built-in algebras for Yang-Baxter solutions and induce structures.

For each host algebra and each weight in a small grid, enumerate every
invariant r with coefficients in {-1, 0, 1}, keep the residual solutions,
induce the coproduct, and verify the full axiom set on the result. Prints
a table of solutions plus the characterization booleans.
"""

import argparse
from fractions import Fraction as Q

from bihom import axioms, catalog, constructions, ybe
from bihom.exactcore import Endo
from bihom.models import entries_out


def hosts():
    dn = catalog.entry("dual-numbers").to_structure("algebra")
    yau = catalog.entry("kz2-yau").to_structure("bialgebra")
    kz2 = catalog.entry("kz2").to_structure("bialgebra")
    ident = Endo.identity(2)
    return [
        ("dual-numbers", dn, ident, ident),
        ("kz2", kz2.algebra, ident, ident),
        ("kz2-yau", yau.algebra, yau.coalgebra.psi, yau.coalgebra.omega),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", default="-1,0,1",
                        help="comma-separated weight grid")
    parser.add_argument("--coeffs", default="-1,0,1",
                        help="comma-separated coefficient grid")
    args = parser.parse_args()
    weights = [Q(tok) for tok in args.weights.split(",")]
    coeffs = [Q(tok) for tok in args.coeffs.split(",")]

    for name, alg, psi, omega in hosts():
        print(f"== {name} (dim {alg.dim}) ==")
        for w in weights:
            solutions = ybe.grid_search_r(alg, psi, omega, w, coeffs)
            print(f"  weight {w}: {len(solutions)} solution(s)")
            for r in solutions:
                b = constructions.delta_r(alg, psi, omega, r, w)
                verdict = axioms.check_infbh_bialgebra(b).passed
                rep = ybe.abhybe_residual(alg, psi, omega, r, w)
                print(f"    r = {entries_out(r) or '0'}"
                      f"  induced structure valid: {verdict}"
                      f"  characterizations: {rep.characterization}")


if __name__ == "__main__":
    main()
