"""The record protocol of pvgr's node classes: fields declared once as
annotations, keyword-only spans outside equality, hash and repr, frozen
instances, defaults, positional `match` patterns, methods compiled once
per field shape but counted per class by a profiler, and a cold start
that imports neither `dataclasses` nor `json` nor the machine."""

from __future__ import annotations

import cProfile
import itertools
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import node_fields

from pvgr.ast import (
    LAYOUT,
    BDisjoint,
    CNuChan,
    CPar,
    CProc,
    DomProj,
    DomZero,
    ELet,
    EVal,
    KDom,
    Label,
    Name,
    Node,
    Record,
    ShOne,
    ShZero,
    Span,
    StBind,
    TAll,
    TDual,
    TEnd,
    TPair,
    TRecv,
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
        ' "found": "?Unit.End"}\n'
    )
    f.write_text("let x = ( in x\n")
    assert main(["check", str(f), "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        '{"severity": "error", "code": "parse", "message": "expected a value, found \'in\'",'
        f' "file": {json.dumps(str(f))}, "line": 1, "col": 11}}\n'
    )


def _fresh(probe: str) -> str:
    """What probe prints in a new interpreter that imports pvgr from src/.
    -S: without site's own imports, everything in sys.modules is pvgr's
    doing."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1])\n" + probe, str(SRC)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # nor the machine, which only `run` and `corpus` need, nor json, which
    # only `--format json` needs
    probe = (
        "import pvgr.cli\n"
        "print(sorted(m for m in ('pvgr.runtime', 'json', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    assert _fresh(probe) == "[]"


def _shape_groups() -> list[list[type]]:
    """The node classes, grouped by shape, in groups of two or more: every
    node class takes a span, so its shape is its field names."""
    groups: dict[tuple, list[type]] = {}
    for cls in NODE_CLASSES:
        groups.setdefault(cls.__match_args__, []).append(cls)
    return [g for g in groups.values() if len(g) > 1]


SHAPE_GROUPS = _shape_groups()


def test_classes_of_one_shape_are_grouped():
    pairs = {frozenset(p) for g in SHAPE_GROUPS for p in itertools.combinations(g, 2)}
    assert {frozenset(p) for p in ((TVar, VVar), (TSend, TRecv), (TPair, CPar))} <= pairs
    # with Name's, the 28 shapes a fresh import compiles
    assert len({cls.__match_args__ for cls in NODE_CLASSES}) == 27


@pytest.mark.parametrize("group", SHAPE_GROUPS, ids=lambda g: "-".join(c.__name__ for c in g))
def test_classes_of_one_shape_share_code_but_not_methods_or_equality(group):
    args = _args(group[0])
    for a, b in itertools.combinations(group, 2):
        x, y = a(*args), b(*args)
        assert x != y and y != x and hash(x) == hash(y) == hash(args)
        assert len({x, y}) == 2
        for name in ("__init__", "__eq__", "__hash__"):
            fa, fb = getattr(a, name), getattr(b, name)
            assert fa is not fb and fa.__code__.co_code == fb.__code__.co_code
            assert (fa.__code__.co_filename, fb.__code__.co_filename) == (
                f"<record {a.__qualname__}>", f"<record {b.__qualname__}>",
            )


def test_each_class_keeps_its_own_defaults():
    assert ELet.__init__.__defaults__ == ((),) and CNuChan.__init__.__defaults__ == (False,)
    assert all(cls.__init__.__kwdefaults__ == {"span": None} for cls in NODE_CLASSES)
    assert len({id(cls.__init__.__kwdefaults__) for cls in NODE_CLASSES}) == len(NODE_CLASSES)

    class One(Record):
        x: int
        y: int = 1

    class Two(Record):
        x: int
        y: int = 2

    assert One.__init__ is not Two.__init__
    assert (One(0).y, Two(0).y, One(0, 5).y) == (1, 2, 5)
    assert One.__init__.__kwdefaults__ is None and One(0) != Two(0, 1)


def test_cprofile_counts_constructors_class_by_class():
    a = Name("a", 1)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3):
        TVar(a)
    for _ in range(5):
        VVar(a)
    profile.disable()
    stats = pstats.Stats(profile).stats
    calls = {
        (file, fn): ncalls
        for (file, _, fn), (_, ncalls, *_) in stats.items()
        if file.startswith("<record")
    }
    assert calls == {("<record TVar>", "__init__"): 3, ("<record VVar>", "__init__"): 5}


def test_a_fresh_import_compiles_once_per_shape():
    probe = """
compiled = []

def count(event, args):
    if event == "compile" and args[1] == "<record>":
        compiled.append(args[0])

sys.addaudithook(count)
import pvgr.ast

def classes(cls):
    return [c for sub in cls.__subclasses__() for c in [sub, *classes(sub)]]

records = classes(pvgr.ast.Record)
print(len(compiled), len(set(compiled)), len(records), len({(c.__match_args__, c._spanned) for c in records}))
"""
    # 65 record classes, of 28 shapes: Name, Node and the 63 node classes
    assert _fresh(probe) == "28 28 65 28"
