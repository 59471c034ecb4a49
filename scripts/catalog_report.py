#!/usr/bin/env python3
"""Verify every catalog entry and exercise the duality sweep.

Prints one line per entry with the checker verdict, the exact violation
set of the negative fixtures, and confirms duality is an involution that
preserves validity.
"""

from bihom import catalog, constructions, models


def main():
    for name in catalog.names():
        kind, _ = catalog.EXPECTATIONS[name]
        model = catalog.entry(name)
        if kind == "r-element":
            print(f"{name:14s} r-element (see the search script)")
            continue
        structure = model.to_structure(kind)
        report = models.KINDS[kind].check(structure)
        if report.passed:
            print(f"{name:14s} {kind:10s} PASS")
        else:
            pairs = sorted(tuple(v.indices) for v in report.violations)
            ids = sorted({v.equation_id for v in report.violations})
            print(f"{name:14s} {kind:10s} FAIL {ids} at {pairs}")
        if kind == "bialgebra":
            dual = constructions.dualize(structure)
            involution = constructions.dualize(dual) == structure
            dual_report = models.KINDS[kind].check(dual)
            print(f"{'':14s} dual: involution={involution} "
                  f"valid={dual_report.passed or 'mirrors the violations'}")


if __name__ == "__main__":
    main()
