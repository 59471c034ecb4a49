"""Report labels: the README table lists exactly the labels the law tables
can emit, and the golden `verify` fixtures fail every label a `verify`
kind can emit.

The labels are read from the source: each checker is a generator of law
rows, so a label is a string constant in the first element of a yielded
row, and a checker that contains another yields from its `.laws`.
"""

import ast
import json
import os
import re

from bihom import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bihom")
VERIFY_CASES = os.path.join(ROOT, "tests", "golden", "cases", "verify.json")


def _law_tables() -> dict[str, tuple[set[str], set[str]]]:
    """Per generator in the package: the labels of the rows it yields and
    the names of the checkers whose laws it yields from."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            labels, inner = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
                    labels |= {c.value for c in ast.walk(node.value.elts[0])
                               if isinstance(c, ast.Constant) and isinstance(c.value, str)}
                elif isinstance(node, ast.YieldFrom):
                    inner |= {a.value.id for a in ast.walk(node.value)
                              if isinstance(a, ast.Attribute) and a.attr == "laws"
                              and isinstance(a.value, ast.Name)}
            if labels or inner:
                out[fn.name] = (labels, inner)
    return out


def _labels_of(names, tables) -> set[str]:
    """The labels the checkers names can emit, through the tables they
    contain."""
    seen, todo, labels = set(), list(names), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            own, inner = tables[name]
            labels |= own
            todo += inner
    return labels


def _readme_labels() -> set[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Violation reports")[1].split("\n## ")[0]
    return {label for line in section.splitlines() if line.startswith("| `(")
            for label in re.findall(r"`(\([^`]*\))`", line.split("|")[1])}


def _table_form(label: str) -> str:
    """The README writes the dendriform labels (D.maps), (D.1)-(D.3) as one row."""
    return "(D.*)" if label.startswith("(D.") else label


def test_readme_table_lists_every_emitted_label():
    tables = _law_tables()
    emitted = {_table_form(label) for own, _ in tables.values() for label in own}
    assert _readme_labels() == emitted


def test_golden_verify_failures_cover_every_verify_label():
    tables = _law_tables()
    verify = _labels_of({fn.__name__ for fn in cli.CHECKERS.values()}, tables)
    with open(VERIFY_CASES, encoding="utf-8") as fh:
        cases = json.load(fh).values()
    failed = {v["equation_id"] for case in cases
              if case["rc"] == 1 and "--json" in case["argv"]
              for v in json.loads(case["stdout"])["violations"]}
    assert failed == verify
