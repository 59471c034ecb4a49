"""The surface of src/bihom: each module-level def or class is reached from
the package itself, from a script or from the benchmark, or it is one of
the paper's own statements listed below with its label. A definition that
only tests reach belongs in tests/, or nowhere.

A definition counts as reached when its name occurs as a word in
src/, scripts/ or perfbench/ outside the lines of its own definition.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bihom")
READERS = ("src", "scripts", "perfbench")

# Paper-level entry points that no verb, script or benchmark reaches yet.
PAPER = {
    "check_derivation": "(12.9)-(12.10), the coproduct as a weighted derivation",
    "check_coderivation": "(12.11)-(12.12), the product as a weighted coderivation",
    "check_bimodule": "(1.13)-(1.16), a bimodule",
    "bimodule_triple": "the bimodule structure on M (x) N (x) V",
    "check_delta_morphism": "(T2.21a), the coproduct as an algebra morphism",
    "check_mu_comorphism": "(T2.21b), the product as a coalgebra morphism",
    "trivial_product": "the abstract's trivial product on a counital coalgebra",
}


def _sources() -> dict[str, list[str]]:
    out = {}
    for top in READERS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith((".", "__"))]
            for fname in filenames:
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    with open(path, encoding="utf-8") as fh:
                        out[path] = fh.read().splitlines()
    return out


def _definitions():
    """(path, node) for each module-level def and class in the package."""
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            path = os.path.join(PACKAGE, fname)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield path, node


def _reached(path: str, node, sources: dict[str, list[str]]) -> bool:
    word = re.compile(rf"\b{re.escape(node.name)}\b")
    own = range(node.lineno - 1, node.end_lineno)
    return any(word.search(line) for where, lines in sources.items()
               for i, line in enumerate(lines) if not (where == path and i in own))


def test_every_definition_is_reached_or_a_paper_statement():
    sources = _sources()
    unreached = [f"{os.path.basename(path)}:{node.lineno} {node.name}"
                 for path, node in _definitions()
                 if node.name not in PAPER and not _reached(path, node, sources)]
    assert not unreached, "reached from tests only: " + ", ".join(unreached)


def test_paper_statements_are_defined():
    assert sorted(PAPER) == sorted(node.name for _, node in _definitions()
                                   if node.name in PAPER)
