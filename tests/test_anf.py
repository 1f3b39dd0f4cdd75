"""Let-spines: let_in, anf_transform and is_strict_anf, and flatten_lets,
the tests' reassociation (conftest.py), which folds a spine with let_in.

The one-loop spine walk of pvgr.anf is compared with the recursive
reference transforms in oracles.py (`flatten_lets_ref`, `anf_transform_ref`)
on every corpus expression, on perfbench's chain programs and on seeded
binder-heavy trees. Spines far longer than the recursion limit go through
every spine function, and a long chain program checks and runs end to end.
"""

from __future__ import annotations

import functools
import importlib.util
import random

from conftest import ROOT, corpus_files, flatten_lets
from oracles import anf_transform_ref, flatten_lets_ref, random_binder_tree

from pvgr.anf import anf_transform, is_strict_anf, let_in
from pvgr.ast import (
    ELet,
    EProj,
    EVal,
    Expr,
    Label,
    Node,
    VPair,
    VUnit,
    VVar,
    alpha_equiv,
    children,
    fresh_name,
)
from pvgr.cli import main
from pvgr.parser import parse_program
from pvgr.runtime import iter_procs


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@functools.lru_cache(maxsize=None)
def _exprs() -> tuple[tuple[str, Expr], ...]:
    out: list[tuple[str, Expr]] = []
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is not None:
            out.append((path.name, prog.expr))
        else:
            out += [(path.name, e) for _, e in iter_procs(prog.config)]
    gen = _perfbench_gen()
    for n in range(1, 9):
        out.append((f"chain{n}", parse_program(gen.chain(n, random.Random(n))).expr))
    rng = random.Random(20221031)
    made = 0
    while made < 400:
        t = random_binder_tree(rng, rng.randrange(4, 40))
        if isinstance(t, Expr):
            made += 1
            out.append((f"random{made}", t))
    return tuple(out)


def _lets(t: Node) -> list[ELet]:
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, ELet):
            out.append(t)
        stack.extend(c for c in children(t) if isinstance(c, Node))
    return out


def test_agrees_with_reference():
    for name, e in _exprs():
        anf, flat = anf_transform(e), flatten_lets(e)
        assert alpha_equiv(anf, anf_transform_ref(e)), name
        assert alpha_equiv(flat, flatten_lets_ref(e)), name
        assert is_strict_anf(anf), name
        assert is_strict_anf(flat) == is_strict_anf(flatten_lets_ref(e)), name


def test_strict_anf_is_exactly_the_fixed_points_of_the_reference():
    seen = set()
    for name, e in _exprs():
        strict = is_strict_anf(e)
        seen.add(strict)
        assert strict == alpha_equiv(anf_transform_ref(e), e), name
    assert seen == {True, False}


def test_transforms_are_idempotent():
    for name, e in _exprs():
        anf, flat = anf_transform(e), flatten_lets(e)
        assert anf_transform(anf) == anf, name
        assert flatten_lets(flat) == flat, name
        assert flatten_lets(anf) == anf, name


def test_let_in_is_flatten_lets_on_a_flat_body():
    grafts = 0
    for name, e in _exprs():
        for let in _lets(e):
            body = flatten_lets(let.body)
            whole = ELet(let.binder, let.head, body, exnames=let.exnames, span=let.span)
            assert let_in(let.binder, let.head, body, let.exnames, let.span) == flatten_lets(whole), name
            grafts += isinstance(let.head, ELet)
    assert grafts > 20


def test_source_let_spans_survive_both_transforms():
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is None:
            continue
        source = {let.span for let in _lets(prog.expr)}
        assert None not in source
        for out in (flatten_lets(prog.expr), anf_transform(prog.expr)):
            spans = {let.span for let in _lets(out) if not let.binder.text.startswith("_a")}
            assert spans == source, path.name


# -- spines longer than the recursion limit ------------------------------------

UNIT = EVal(VUnit())


def _deep_spine(n: int) -> Expr:
    """n lets, each with a let as its head, ending in an operation."""
    e: Expr = EProj(Label.L1, VPair(VUnit(), VUnit()))
    for _ in range(n):
        y = fresh_name("y")
        e = ELet(fresh_name("x"), ELet(y, UNIT, EVal(VVar(y))), e)
    return e


def _spine(e: Expr) -> tuple[list[ELet], Expr]:
    lets = []
    while isinstance(e, ELet):
        lets.append(e)
        e = e.body
    return lets, e


def test_deep_spine_at_the_default_recursion_limit():
    n = 3000
    e = _deep_spine(n)
    assert not is_strict_anf(e)

    flat = flatten_lets(e)
    lets, tail = _spine(flat)
    assert len(lets) == 2 * n and not any(isinstance(let.head, ELet) for let in lets)
    assert isinstance(tail, EProj)
    assert not is_strict_anf(flat)  # the tail is an operation

    anf = anf_transform(e)
    lets, tail = _spine(anf)
    assert len(lets) == 2 * n + 1 and isinstance(tail, EVal)
    assert lets[-1].binder.text == "_a" and isinstance(lets[-1].head, EProj)
    assert is_strict_anf(anf)

    graft = let_in(fresh_name("z"), e, UNIT, (), None)
    lets, tail = _spine(graft)
    assert len(lets) == 2 * n + 1 and tail == UNIT


def test_long_chain_program_checks_and_runs(tmp_path, capsys):
    f = tmp_path / "chain100.pvgr"
    f.write_text(_perfbench_gen().chain(100, random.Random(1)))
    assert main(["check", str(f)]) == 0
    assert "type: Unit" in capsys.readouterr().out
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out.startswith("final after ")

