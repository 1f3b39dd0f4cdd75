"""T-Send on a plain step (`pvgr.ast.plain_step`): a send whose binder has
shape 0, whose state is `.` and whose payload does not mention the binder
is typed by conversion of the payload's type alone. These tests hold that
shortcut to the general path, which matches the existential package, and
pin that the benchmark's generated families never reach the general path.
The printer writes such a step back as its sugar `!T.S`."""

from __future__ import annotations

import random

import pytest
from conftest import CORPUS, checked_programs, perfbench_gen, rename_free, run_cli
from oracles import random_type

import pvgr.kinding
import pvgr.typing
from pvgr.ast import Node, StMerge, TRecv, TSend, Type, alpha_equiv, children, free_vars, fresh_name, plain_step
from pvgr.diagnostic import Diagnostic
from pvgr.normalize import conv, conv_key
from pvgr.parser import Parser, parse_program, parse_type
from pvgr.pretty import pretty


def _count(monkeypatch, name: str) -> list[int]:
    calls = [0]
    real = getattr(pvgr.typing, name)

    def spy(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pvgr.typing, name, spy)
    return calls


@pytest.mark.parametrize("family", ["chain", "fan"])
def test_the_generated_families_never_match_a_package(tmp_path, capsys, monkeypatch, family):
    # at N = 8 each family sends 8 times, and no send transfers a channel
    matches, typed = _count(monkeypatch, "match_existential"), _count(monkeypatch, "_type_send")
    src = perfbench_gen().FAMILIES[family](8, random.Random(1))
    assert run_cli(tmp_path, capsys, [(family, src)], (("check",),)) == [0]
    assert matches[0] == 0 and typed[0] == 8


def test_a_transferring_send_still_matches_its_package(tmp_path, capsys, monkeypatch):
    matches = _count(monkeypatch, "match_existential")
    src = (CORPUS / "chan_transfer.pvgr").read_text()
    assert run_cli(tmp_path, capsys, [("chan_transfer", src)], (("check",),)) == [0]
    assert matches[0] == 1


def _outcome(thunk):
    """The typing thunk gives, or the diagnostic it raises."""
    try:
        return thunk(), None
    except Diagnostic as exc:
        return None, exc


def _agree(got, exc, want, want_exc) -> bool:
    """The same diagnostic (code, message, location and details), or the same
    empty package, the same post-atom keys in order and convertible types."""
    if exc is not None or want_exc is not None:
        return type(exc) is type(want_exc) and str(exc) == str(want_exc)
    return (
        got.exctx == want.exctx == ()
        and [conv_key(a) for a in got.post] == [conv_key(a) for a in want.post]
        and conv(got.ty, want.ty)
    )


def test_the_shortcut_agrees_with_the_general_path(tmp_path, capsys, monkeypatch):
    # every send of every program is typed twice: by `_type_send`, and by
    # `_type_send` with every step taken as not plain, which is the general
    # path alone. The spy runs under `main`, which reports any exception, so
    # it records a disagreement rather than raising it.
    real = pvgr.typing._type_send
    counts = {"plain": 0, "general": 0, "failed": 0}
    disagreements = []

    def general(*args):
        monkeypatch.setattr(pvgr.typing, "plain_step", lambda t: False)
        try:
            return real(*args)
        finally:
            monkeypatch.setattr(pvgr.typing, "plain_step", plain_step)

    def spy(g, atoms, e, payload, chanv):
        want, want_exc = _outcome(lambda: general(g, atoms, e, payload, chanv))
        got, exc = _outcome(lambda: real(g, atoms, e, payload, chanv))
        if not _agree(got, exc, want, want_exc):
            disagreements.append((e.span, exc, want_exc))
        if exc is not None:
            counts["failed"] += 1
            raise exc
        counts["plain" if plain_step(pvgr.typing._channel_op(g, atoms, e, chanv)[1]) else "general"] += 1
        return got

    monkeypatch.setattr(pvgr.typing, "_type_send", spy)
    statuses = run_cli(tmp_path, capsys, checked_programs((3, 8)))
    assert not disagreements
    assert statuses.count(0) > 40 and statuses.count(1) > 10
    assert counts["plain"] > 500 and counts["general"] > 50 and counts["failed"] >= 5, counts


# -- the printer's sugar ---------------------------------------------------------


def _types(t, out: list[Type]) -> list[Type]:
    """The outermost types in t: those that no other type holds."""
    if isinstance(t, Type):
        out.append(t)
    elif isinstance(t, Node):
        for c in children(t):
            _types(c, out)
    return out


def _plain_steps(t) -> int:
    return plain_step(t) + sum(_plain_steps(c) for c in children(t) if isinstance(c, Node))


def _reads_back(t: Type) -> bool:
    """parse(pretty(t)) is alpha-equivalent to t, where a free name is read
    back by its text: the printer does not tell apart free names that share
    their text. A merge of states is read back by the state rule."""
    by_text = {n.text: n for n in free_vars(t)}
    t = rename_free(t, {n.uid: by_text[n.text] for n in free_vars(t)})
    p = Parser(pretty(t), open_world=True)
    back = p.whole(Parser.state if isinstance(t, StMerge) else Parser.type_)
    return alpha_equiv(rename_free(back, {n.uid: by_text[n.text] for n in free_vars(back)}), t)


def test_the_printer_writes_the_sugar_back():
    assert pretty(parse_type("!{e:Dom(0)}(.; Unit).?Int.End")) == "!Unit.?Unit.End"
    assert pretty(parse_type("?{e:Dom(0)}(.; AP(!Unit.End)).End")) == "?AP(!Unit.End).End"
    assert pretty(parse_type("!(Unit * Unit).End")) == "!(Unit * Unit).End"
    # a payload that would read as a binder after the mark is parenthesised
    assert pretty(parse_type("!({}).End")) == "!({}).End"
    # not plain: the binder has another shape, a state, or is mentioned
    for src in ("!{e:Dom((0 * 0))}(.; Unit).End", "?{e:Dom(1)}(.; Chan e).End", "!{e:Dom(0)}(.; Chan e).End"):
        assert pretty(parse_type(src)) == src
    assert plain_step(parse_type("?Int.End")) and not plain_step(parse_type("End"))
    assert isinstance(parse_type("!Int.End"), TSend) and isinstance(parse_type("?Int.End"), TRecv)


def test_every_corpus_and_generated_type_reads_back():
    programs = [src for _, src in checked_programs((3, 8))]
    types = []
    for src in programs:
        prog = parse_program(src)
        _types(prog.expr if prog.expr is not None else prog.config, types)
    rng = random.Random(2510)
    free = [fresh_name(f"fv{i}") for i in range(3)]
    types += [random_type(rng, rng.randrange(1, 12), free) for _ in range(1000)]
    assert len(types) > 1200
    assert all(_reads_back(t) for t in types)


def test_every_diagnostic_type_reads_back(tmp_path, capsys, monkeypatch):
    # every type the checker prints while it checks the programs
    printed: list[Type] = []
    for module in (pvgr.typing, pvgr.kinding):
        real = module.pretty

        def spy(t, real=real):
            if isinstance(t, Type):
                printed.append(t)
            return real(t)

        monkeypatch.setattr(module, "pretty", spy)
    run_cli(tmp_path, capsys, checked_programs((3, 8)), (("check",),))
    assert len(printed) > 50
    assert sum(map(_plain_steps, printed)) > 5
    assert all(_reads_back(t) for t in printed)
