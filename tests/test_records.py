"""The record protocol of pvgr's node classes: fields declared once as
annotations, keyword-only spans outside equality, hash and repr, frozen
instances, defaults, positional `match` patterns, and a cold start that
does not import `dataclasses`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import node_fields

from pvgr.ast import (
    LAYOUT,
    BDisjoint,
    CNuChan,
    CProc,
    DomProj,
    DomZero,
    ELet,
    EVal,
    KDom,
    Label,
    Name,
    Node,
    ShOne,
    ShZero,
    Span,
    StBind,
    TAll,
    TDual,
    TEnd,
    TSend,
    TUnit,
    TVar,
    VUnit,
    VVar,
    replace,
)
from pvgr.cli import main
from pvgr.constraints import Chain

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN = Span("f.pvgr", 0, 3, 1, 1)


def _node_classes(cls: type = Node) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _node_classes(sub)
    return out


NODE_CLASSES = _node_classes()


def _args(cls: type) -> tuple:
    """One distinct stand-in value per field of cls."""
    return tuple(node_fields(cls))


def _match_positional(x: Node, C: type) -> tuple:
    """What a positional class pattern for C binds, one capture per field."""
    match len(C.__match_args__), x:
        case 0, C():
            return ()
        case 1, C(a):
            return (a,)
        case 2, C(a, b):
            return (a, b)
        case 3, C(a, b, c):
            return (a, b, c)
        case 4, C(a, b, c, d):
            return (a, b, c, d)
        case 5, C(a, b, c, d, e):
            return (a, b, c, d, e)
    raise AssertionError(f"no pattern for {C.__name__}")


def test_every_node_class_is_checked():
    # the syntax tree's classes and the disjoint extension marker
    assert len(NODE_CLASSES) == 63


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_field_order_is_the_annotation_order(cls):
    assert list(cls._fields) == list(node_fields(cls))
    assert cls.__match_args__ == tuple(node_fields(cls))
    assert [pos for _, _, pos in sorted(LAYOUT[cls].fields, key=lambda f: f[2])] == list(
        range(len(node_fields(cls)))
    )


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_ignore_the_span(cls):
    args = _args(cls)
    with_span, without = cls(*args, span=SPAN), cls(*args)
    assert with_span.span is SPAN and without.span is None
    assert with_span == without and hash(with_span) == hash(without)
    assert hash(without) == hash(args)
    for i in range(len(args)):
        other = cls(*args[:i], "x", *args[i + 1 :])
        assert other != without
    assert all(without != sub(*_args(sub)) for sub in NODE_CLASSES if sub is not cls)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    x = cls(*_args(cls), span=SPAN)
    for f in (*node_fields(cls), "span", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, f, "new")
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == cls(*_args(cls)) and x.span is SPAN


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_positional_patterns_bind_the_fields_in_order(cls):
    args = _args(cls)
    assert _match_positional(cls(*args, span=SPAN), cls) == args
    assert tuple(getattr(cls(*args), f) for f in node_fields(cls)) == args


def test_span_is_keyword_only():
    with pytest.raises(TypeError):
        TVar(Name("a", 1), SPAN)
    with pytest.raises(TypeError):
        TUnit(SPAN)


def test_defaults_apply():
    a, d = Name("a", 1), Name("d", 2)
    let = ELet(a, EVal(VUnit()), EVal(VVar(a)))
    assert let.exnames == () and let == ELet(a, EVal(VUnit()), EVal(VVar(a)), ())
    nu = CNuChan(a, d, TEnd(), CProc(EVal(VUnit())))
    assert nu.closed is False and nu != replace(nu, closed=True)
    defaulted = {
        cls: {f: getattr(cls, f) for f in node_fields(cls) if hasattr(cls, f)} for cls in NODE_CLASSES
    }
    assert {cls: d for cls, d in defaulted.items() if d} == {
        ELet: {"exnames": ()},
        CNuChan: {"closed": False},
    }
    with pytest.raises(TypeError):
        ELet(a, EVal(VUnit()))


def test_replace_keeps_the_span_and_rejects_unknown_fields():
    a, d = Name("a", 1), Name("d", 2)
    nu = CNuChan(a, d, TEnd(), CProc(EVal(VUnit())), span=SPAN)
    closed = replace(nu, closed=True, ses=TUnit())
    assert (closed.end1, closed.end2, closed.ses, closed.body, closed.closed) == (
        a, d, TUnit(), nu.body, True,
    )
    assert closed.span is SPAN
    with pytest.raises(TypeError):
        replace(nu, nonsense=1)


def test_names_and_spans_are_records():
    a = Name("a", 1)
    assert a == Name("a", 1) and hash(a) == hash(("a", 1)) and a != Name("a", 2)
    assert SPAN == Span("f.pvgr", 0, 3, 1, 1) and str(SPAN) == "f.pvgr:1:1"
    with pytest.raises(AttributeError):
        a.uid = 2
    match a:
        case Name(text, uid):
            assert (text, uid) == ("a", 1)


def test_repr_matches_the_dataclass_format():
    a, d = Name("a", 1), Name("d", 2)
    cases = {
        TVar(a, span=SPAN): "TVar(name=a#1)",
        TUnit(): "TUnit()",
        DomProj(Label.L1, TVar(d)): "DomProj(label=<Label.L1: 1>, dom=TVar(name=d#2))",
        TSend(a, ShOne(), StBind(TVar(a), TEnd()), TUnit(), TDual(TEnd())): (
            "TSend(binder=a#1, shape=ShOne(), state=StBind(dom=TVar(name=a#1), ses=TEnd()),"
            " payload=TUnit(), cont=TDual(ses=TEnd()))"
        ),
        ELet(a, EVal(VUnit()), EVal(VVar(a))): (
            "ELet(binder=a#1, head=EVal(value=VUnit()), body=EVal(value=VVar(name=a#1)), exnames=())"
        ),
        CNuChan(a, d, TEnd(), CProc(EVal(VUnit()), span=SPAN)): (
            "CNuChan(end1=a#1, end2=d#2, ses=TEnd(), body=CProc(expr=EVal(value=VUnit())),"
            " closed=False)"
        ),
        TAll(a, KDom(ShZero()), (BDisjoint(TVar(a), DomZero()),), TUnit()): (
            "TAll(binder=a#1, kind=KDom(shape=ShZero()),"
            " cstr=(BDisjoint(left=TVar(name=a#1), right=DomZero()),), body=TUnit())"
        ),
        SPAN: "Span(file='f.pvgr', start=0, end=3, line=1, col=1)",
        a: "a#1",
        Chain(a, (Label.L2,)): "Chain(base=a#1, path=(<Label.L2: 2>,))",
    }
    for x, want in cases.items():
        assert repr(x) == want


def test_json_diagnostics_keep_their_key_order(tmp_path, capsys):
    f = tmp_path / "bad.pvgr"
    f.write_text(
        "let ap = new ?Int.!Int.End in let v = request ap in let a = send () v in close v\n"
    )
    assert main(["check", str(f), "--format", "json"]) == 1
    assert capsys.readouterr().err == (
        '{"severity": "error", "code": "T-Close", "message": "channel session has not ended",'
        f' "file": {json.dumps(str(f))}, "line": 1, "col": 74, "expected": "End",'
        ' "found": "?{_z:Dom(0)}(.; Unit).End"}\n'
    )
    f.write_text("let x = ( in x\n")
    assert main(["check", str(f), "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        '{"severity": "error", "code": "parse", "message": "expected a value, found \'in\'",'
        f' "file": {json.dumps(str(f))}, "line": 1, "col": 11}}\n'
    )


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # -S: without site's own imports, everything in sys.modules is pvgr's doing
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pvgr.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
