"""T-Let along a let-spine: typing the spine in one loop, with its package
collected once, agrees with the recursive reference (`tests/typing_ref.py`)
on every spine the checker types; the collector runs once per spine; and a
spine far deeper than the recursion limit types."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys

import pytest
from conftest import corpus_files, perfbench_gen
from test_cli import KIND_FAILURES
from typing_ref import recursive_lets, type_expr_ref

import pvgr.ast
import pvgr.typing
from pvgr.anf import anf_transform
from pvgr.ast import (
    BDisjoint, BTVar, ELet, EClose, ENew, ERequest, EVal, KDom, ShOne, StEmpty, TEnd, TUnit, VUnit, VVar, fresh_name,
)
from pvgr.cli import main
from pvgr.constraints import Context
from pvgr.diagnostic import Diagnostic
from pvgr.kinding import disjoint_append
from pvgr.parser import parse_program
from pvgr.typing import ExprTyping, type_config, type_expr

# the ill-typed programs of tests/test_cli.py
ILL_TYPED = {f"kind-{site}": src for site, (src, *_) in KIND_FAILURES.items()} | {
    "close-unit": "close ()",
    "exnames": "let ap = new End in\nlet [c, d] u = request ap in close u\n",
    "state": "let ap = new End in let v = request ap in let u = close v in close v",
    "state2": (
        "let ap = new End in let [c] v = request ap in let u = close v in\n"
        "let g = /\\d:Dom(1)[]. \\[{d: End}](x: Chan d). close x in let h = g [c] in h v\n"
    ),
    "send-send": "nu a b : !Int.End . (<send () (chan a)> | <send () (chan b)>)",
    "omega": r"let f = \[.](x: ((\a:0. a a) (\a:0. a a))). () in ()",
}


# programs whose typings keep existential packages built by several lets of
# one spine, and by its tail: open channels, and arrow packages with
# constraints, some of which go with a dropped binder
OPEN_PACKAGES = {
    "two-open": "let ap = new End in let v = request ap in let w = request ap in ()",
    "open-then-closed": "let ap = new End in let v = request ap in let w = request ap in let r = close v in w",
    "open-in-lambda": (
        "let ap = new End in\n"
        "let f = \\[.](x: Unit). let v = request ap in let w = request ap in () in\n"
        "let y = f () in let v = request ap in f ()\n"
    ),
    "open-in-poly": (
        "let ap = new ?Int.End in let [c] v = request ap in\n"
        "let g = /\\d:Dom(1)[]. \\[{d: !Int.End}](x: Chan d).\n"
        "  let ap2 = new End in let w = request ap2 in let s = send () x in x in\n"
        "let h = g [c] in h v\n"
    ),
    "arrow-packages": (
        "let ap = new End in\n"
        "let g = \\[.](f: [.; Unit -> ex c:Dom(1), d:Dom(1), c # d. {c: End, d: End}; Unit]).\n"
        "  let y = f () in let v = request ap in let w = f () in let r = close v in f () in\n"
        "g\n"
    ),
    "arrow-packages-dropped": (
        "let ap = new End in\n"
        "let g = \\[.](f: [.; Unit -> ex c:Dom(1), d:Dom(1), c # d. {c: End}; Unit]).\n"
        "  let y = f () in let v = request ap in let r = close v in let w = f () in w in\n"
        "g\n"
    ),
    # a configuration is typed without the ANF transform, so a spine's tail
    # can have a package of its own
    "arrow-package-in-the-tail": (
        "nuap ap : End . (<let u = accept ap in close u> | <let v = request ap in\n"
        "let g = \\[.](f: [.; Unit -> ex c:Dom(1), d:Dom(1), c # d. {c: End, d: End}; Unit]).\n"
        "  let y = f () in f () in close v>)\n"
    ),
}


def _generated() -> dict[str, str]:
    gen = perfbench_gen()
    return {
        f"{family}{n}-seed{seed}": getattr(gen, family)(n, random.Random(seed))
        for family in ("chain", "fan", "hold")
        for n in (3, 8, 16)
        for seed in (1, 2)
    }


PROGRAMS = {f.name: f.read_text() for f in corpus_files()} | _generated() | OPEN_PACKAGES | ILL_TYPED


def _check(src: str, name: str) -> None:
    prog = parse_program(src, filename=name)
    if prog.expr is not None:
        type_expr((), StEmpty(), anf_transform(prog.expr))
    else:
        type_config((), StEmpty(), prog.config)


@pytest.fixture(scope="module")
def spines():
    """(context, atoms, spine) of every let-spine the checker types over
    PROGRAMS, and in `run --check` of the corpus, which types every
    configuration the machine reaches; and the number of PROGRAMS that
    fail."""
    calls = []
    real = pvgr.typing._type_expr

    def spy(g, atoms, e):
        if isinstance(e, ELet):
            calls.append((g, list(atoms), e))
        return real(g, atoms, e)

    failed = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pvgr.typing, "_type_expr", spy)
        for name, src in PROGRAMS.items():
            try:
                _check(src, name)
            except Diagnostic:
                failed += 1
        with contextlib.redirect_stdout(io.StringIO()):
            for f in corpus_files():
                main(["run", str(f), "--check"])
    return calls, failed


def _outcome(fn, start: int):
    """fn() with fresh names numbered from `start`: its typing, or its
    diagnostic's class and both renderings; and the next fresh number."""
    pvgr.ast._uid_counter = itertools.count(start)
    try:
        got = fn()
    except Diagnostic as d:
        got = type(d), str(d), d.to_json()
    return got, next(pvgr.ast._uid_counter)


def test_loop_agrees_with_the_recursive_reference_on_every_spine(spines):
    calls, failed = spines
    diagnostics = packages = constrained = 0
    for g, atoms, e in calls:
        start = next(pvgr.ast._uid_counter)
        got, end = _outcome(lambda: pvgr.typing._type_expr(g, atoms, e), start)
        with recursive_lets():
            want, end_ref = _outcome(lambda: type_expr_ref(g, atoms, e), start)
        pvgr.ast._uid_counter = itertools.count(max(end, end_ref))
        assert got == want, e
        if isinstance(got, ExprTyping):
            packages += sum(isinstance(b, BTVar) for b in got.exctx) > 1
            constrained += any(isinstance(b, BDisjoint) for b in got.exctx)
        else:
            diagnostics += 1
    assert failed == len(ILL_TYPED)
    assert len(calls) >= 450
    assert diagnostics >= 7  # failing spines give the reference's diagnostic
    assert packages >= 7  # kept packages with more than one binder
    assert constrained >= 2  # kept packages with a constraint


def test_check_collects_each_spine_once(tmp_path, capsys, monkeypatch):
    calls = 0
    real = pvgr.typing._gc_package

    def counting(r):
        nonlocal calls
        calls += 1
        return real(r)

    monkeypatch.setattr(pvgr.typing, "_gc_package", counting)
    f = tmp_path / "fan16.pvgr"
    f.write_text(perfbench_gen().fan(16, random.Random(1)))
    assert main(["check", str(f)]) == 0
    assert calls == 17  # 16 servers and one client, not one per let (96)


def test_disjoint_extension_by_an_empty_package_is_the_context_itself():
    d = fresh_name("d")
    g = Context(()) + (BTVar(d, KDom(ShOne())),)
    assert disjoint_append(g, ()) is g
    assert disjoint_append((), ()) == ()


def test_a_spine_deeper_than_the_recursion_limit_types():
    # let ap = new End in let [c] v = request ap in let x0 = () in ...
    # let x1999 = () in let r = close v in r; no longer, as the contexts
    # along a spine take O(n²) memory (ROADMAP item 2)
    n = 2000
    ap, c, v, r = (fresh_name(t) for t in ("ap", "c", "v", "r"))
    e = ELet(r, EClose(VVar(v)), EVal(VVar(r)))
    for i in reversed(range(n)):
        e = ELet(fresh_name(f"x{i}"), EVal(VUnit()), e)
    e = ELet(ap, ENew(TEnd()), ELet(v, ERequest(VVar(ap)), e, exnames=(c,)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = type_expr((), StEmpty(), e)
    finally:
        sys.setrecursionlimit(limit)
    assert got == ExprTyping((), [], TUnit())


LETS = "".join(f"let x{i} = () in\n" for i in range(5000))
REQUEST = (
    "let ap = new End in\n"
    "let z = fork (\\[.](w: Unit). let u = accept ap in close u) in\n"
    "let c = request ap in\n"
)


@pytest.mark.parametrize(
    "src, final",
    [(LETS + "()\n", "final after 5000 steps: ()"), (REQUEST + LETS + "close c\n", "final after 5011 steps: () | ()")],
    ids=["unit", "between-request-and-close"],
)
def test_a_file_of_5000_lets_checks_and_runs(tmp_path, capsys, src, final):
    f = tmp_path / "lets.pvgr"
    f.write_text(src)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out.endswith("type: Unit\n")
        assert main(["run", str(f)]) == 0
        assert capsys.readouterr().out == final + "\n"
    finally:
        sys.setrecursionlimit(limit)
