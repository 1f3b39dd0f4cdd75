"""Judgments pick their rule by a node's class, compared by identity.

Every rule choice over node classes in `src/pvgr` reads `x.__class__` and
compares it with `is`, instead of a `match` with class patterns: CPython
3.11 does not specialize `MATCH_CLASS`, so each arm tried costs an
`isinstance`, and an arm with captures more. Identity selects the arm that
`isinstance` would select only while no class it names has a subclass.
This file pins both halves: no `case` in `src/pvgr` uses a class pattern
(the parser's `match`es on token kinds are value patterns), and no record
class that `src/pvgr` compares by identity has a subclass. The machine's
cells are left out: `runtime` compares a cell with `_Mark` by identity to
tell a bare mark from its subclasses.
"""

from __future__ import annotations

import ast
import importlib

from conftest import ROOT

from pvgr.ast import Record

SRC = ROOT / "src" / "pvgr"


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def identity_compared() -> dict[type, list[str]]:
    """Each record class that a module of src/pvgr names as an operand of
    `is` or `is not`, with the places that do."""
    out: dict[type, list[str]] = {}
    for module, tree in _modules().items():
        namespace = vars(importlib.import_module(f"pvgr.{module}"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
                continue
            for operand in (node.left, *node.comparators):
                cls = namespace.get(operand.id) if isinstance(operand, ast.Name) else None
                if isinstance(cls, type) and issubclass(cls, Record):
                    out.setdefault(cls, []).append(f"{module}.py:{node.lineno}")
    return out


def test_no_case_uses_a_class_pattern():
    found = [
        f"{module}.py:{sub.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.match_case)
        for sub in ast.walk(node.pattern)
        if isinstance(sub, ast.MatchClass)
    ]
    assert found == []


def test_no_class_compared_by_identity_has_a_subclass():
    compared = identity_compared()
    # the judgments' dispatch is among them: a scan that found nothing
    # would pin nothing
    assert {"TVar", "StBind", "ELet", "CProc", "VChan", "BTVar", "KDom", "DomMerge"} <= {c.__name__ for c in compared}
    subclassed = {f"{cls.__name__} ({', '.join(where)})": [s.__name__ for s in cls.__subclasses__()]
                  for cls, where in compared.items() if cls.__subclasses__()}
    assert subclassed == {}
