"""Every top-level function and class in `src/pvgr` is used by the package.

A definition counts as used when code in `src/pvgr` outside its own body
names it: imports it, or loads it as a name. `pvgr/__init__.py` does not
count, as exporting a name is not using it. What only the tests or
perfbench use belongs with them, so each unused definition must be on the
allowlist below with the reason it stays.
"""

from __future__ import annotations

import ast

from conftest import ROOT

SRC = ROOT / "src" / "pvgr"

# (module, name) -> why it stays in src/ though no src/ code uses it
ALLOWED = {
    ("ast", "alpha_equiv"): "a public judgment of the calculus",
    ("kinding", "check_ctx"): "a public judgment of the calculus",
    ("constraints", "close"): "a layer perfbench spans (SPANNED in perfbench/layers.py)",
    ("runtime", "step_expr"): "a layer perfbench spans (SPANNED in perfbench/layers.py)",
    ("ast", "size"): "perfbench/layers.py counts anf.nodes_out with it",
    ("runtime", "iter_procs"): "the public walk over a configuration's processes, which the tests read results with",
}


def unused_definitions() -> set[tuple[str, str]]:
    defined: set[tuple[str, str]] = set()
    uses: dict[str, set[tuple[str, str | None]]] = {}  # name -> (module, enclosing definition) of each use
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None:
                defined.add((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                else:
                    continue
                for name in names:
                    uses.setdefault(name, set()).add((module, owner))
    return {(module, name) for module, name in defined if uses.get(name, set()) <= {(module, name)}}


def test_every_definition_in_src_is_used_or_allowed():
    unused = unused_definitions()
    assert unused - ALLOWED.keys() == set(), "used by no src/ code: move it to the tests or allow it"
    assert ALLOWED.keys() - unused == set(), "allowed but used in src/: drop it from ALLOWED"


def test_the_scan_sees_uses_across_modules_and_not_a_definitions_own_body():
    unused = unused_definitions()
    assert ("constraints", "chain_of") not in unused  # imported by typing
    assert ("constraints", "_sides") not in unused  # loaded by atomize and expand
    assert ("ast", "size") in unused  # its recursive call does not count
