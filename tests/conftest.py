from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from pvgr.anf import let_in
from pvgr.ast import ELet, Expr, Name, Tree, TVar, VVar, free_vars
from pvgr.parser import Parser

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def parse_expr(src: str, filename: str = "<input>", open_world: bool = True) -> Expr:
    return Parser(src, filename, open_world=open_world).whole(Parser.expr)


def flatten_lets(e: Expr) -> Expr:
    """Reassociate let x = (let y = h in b) in e2 into let y = h in let x = b in e2.

    Pure reassociation: preserves evaluation order and each let's span, and
    introduces no names. The spine is rebuilt from its tail with `let_in`,
    one let at a time.
    """
    spine = []
    while isinstance(e, ELet):
        spine.append(e)
        e = e.body
    for let in reversed(spine):
        e = let_in(let.binder, let.head, e, let.exnames, let.span)
    return e


def corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.pvgr"))


def cli_programs() -> list[tuple[str, str]]:
    """Every string in tests/test_cli.py that parses as a program, named by
    its line."""
    import ast

    from pvgr.diagnostic import Diagnostic
    from pvgr.parser import parse_program

    text = (Path(__file__).parent / "test_cli.py").read_text()
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parse_program(node.value, filename="cli.pvgr")
            except Diagnostic:
                continue
            out.append((f"test_cli.py:{node.lineno}", node.value))
    return out


def perfbench_gen():
    """perfbench's generators of the chain, fan and hold programs."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rename_free(t: Tree, mapping: dict[int, Name]) -> Tree:
    """Rename free variable occurrences by uid, preserving their category."""
    from oracles import node_fields, replace_fields

    from pvgr.ast import Node

    if isinstance(t, TVar) and t.name.uid in mapping:
        return TVar(mapping[t.name.uid], span=t.span)
    if isinstance(t, VVar) and t.name.uid in mapping:
        return VVar(mapping[t.name.uid], span=t.span)
    changes = {}
    for f in node_fields(t):
        v = getattr(t, f)
        if isinstance(v, Node):
            changes[f] = rename_free(v, mapping)
        elif isinstance(v, tuple) and any(isinstance(x, Node) for x in v):
            changes[f] = tuple(
                rename_free(x, mapping) if isinstance(x, Node) else x for x in v
            )
    return replace_fields(t, **changes) if changes else t


def parse_with(kind: str, src: str, free: dict[str, Name]):
    """Parse an open term and identify its free names with the given ones
    (so terms parsed separately can share free variables)."""
    p = Parser(src, open_world=True)
    if kind == "type":
        t = p.type_()
    elif kind == "expr":
        t = p.expr()
    else:
        raise ValueError(kind)
    p.eat("eof")
    mapping = {nm.uid: free[nm.text] for nm in free_vars(t) if nm.text in free}
    return rename_free(t, mapping)


@pytest.fixture
def rng():
    import random

    return random.Random(12345)
