"""The scope walks that `pvgr.ast.Walk` generates, against the scope table
interpreted node by node (`tests/scope_ref.py`).

On every node class, on seeded random types and sessions, and on every type
the checker normalizes while it checks the corpus and perfbench's families
at N = 3 and 8, the two give the same free variables, the same normal form
with the same nodes marked normal, the same conversion key, the same
canonical form, and alpha-equal substitutions and instantiations whose
binders are all fresh.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
import scope_ref as ref
from conftest import ROOT, checked_programs, run_cli
from oracles import random_session, random_type

from pvgr.ast import (
    _FREE,
    _RENAME,
    BDisjoint,
    BTVar,
    BVal,
    CProc,
    EVal,
    KDom,
    Label,
    Name,
    Node,
    ShOne,
    StBind,
    TChan,
    TEnd,
    TLam,
    TPair,
    TRecv,
    TSend,
    TVar,
    VAbs,
    VPair,
    VVar,
    canonicalize,
    free_vars,
    fresh_name,
    subst,
)
from pvgr.normalize import _CONGRUENCE, _KEYS, conv_key, instantiate, normalize

NORMALIZE = sys.modules["pvgr.normalize"]  # the package binds `normalize` to the function


def _node_classes(cls: type = Node) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _node_classes(sub)
    return out


def _subtrees(t) -> list[Node]:
    """t and every node below it, in field order."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack += reversed(x)
        elif isinstance(x, Node):
            out.append(x)
            stack += reversed([getattr(x, f) for f in x._fields])
    return out


def _copy(t):
    """t rebuilt node by node: nothing marked normal, no key kept."""
    if isinstance(t, tuple):
        return tuple(_copy(x) for x in t)
    if not isinstance(t, Node):
        return t
    return t.__class__(*(_copy(getattr(t, f)) for f in t._fields), span=t.span)


def _binders(t) -> list[int]:
    """The uid of every name t binds: each name not held by a TVar or VVar."""
    out = []
    for x in _subtrees(t):
        if not isinstance(x, (TVar, VVar)):
            for f in x._fields:
                v = getattr(x, f)
                out += [n.uid for n in (v if isinstance(v, tuple) else (v,)) if isinstance(n, Name)]
    return out


def _marks(t) -> list[bool]:
    return [x.__dict__.get("_normal", False) for x in _subtrees(t)]


def _payload(rng: random.Random, name: Name) -> Node:
    pick = rng.randrange(4)
    if pick == 0:
        return TVar(fresh_name(name.text))
    if pick == 1:
        b = fresh_name("q")
        return TLam(b, ShOne(), TChan(TVar(b)))
    if pick == 2:
        b = fresh_name("z")
        return TSend(b, ShOne(), StBind(TVar(b), TEnd()), TChan(TVar(b)), TEnd())
    x = fresh_name("y")
    return VAbs(TEnd(), x, TEnd(), EVal(VVar(x)))


def _same(new, want) -> bool:
    """Alpha-equal, as the reference's canonical forms tell, with the same
    nodes marked normal and the same spans."""
    return (
        ref.canonicalize(new) == ref.canonicalize(want)
        and _marks(new) == _marks(want)
        and [x.span for x in _subtrees(new)] == [x.span for x in _subtrees(want)]
    )


def _agree(t: Node, rng: random.Random, s: dict | None = None) -> None:
    """The generated walks and the reference agree on t, under s or under
    a substitution of seeded payloads for t's free names."""
    assert free_vars(t) == ref.free_vars(t)
    assert canonicalize(t) == ref.canonicalize(t)
    if s is None:
        s = {n.uid: _payload(rng, n) for n in sorted(ref.free_vars(t), key=lambda n: n.uid)}
    old = set(_binders(t)).union(*(_binders(p) for p in s.values()))
    for m in ({}, s):
        new = subst(m, t)
        assert _same(new, ref.subst(m, t))
        bound = _binders(new)
        assert len(bound) == len(set(bound)) and not old & set(bound)
    assert _same(normalize(_copy(t)), ref.normalize(_copy(t)))
    assert conv_key(_copy(t)) == ref.conv_key(_copy(t))
    normal = {uid: normalize(r) for uid, r in s.items() if not isinstance(r, VAbs)}
    assert _same(instantiate(_copy(t), normal), ref.instantiate(_copy(t), normal))


# -- every node class -----------------------------------------------------------


def _sample(cls: type) -> Node:
    """An instance of cls each of whose children mentions every name the
    instance binds, and a free one: in an OUT field a bound name is free."""
    free = fresh_name("free")
    if cls in (TVar, VVar):
        return cls(free)
    binders: list[Name] = []
    fields = {f: ann.replace("'", "").replace('"', "") for f, ann in cls._fields.items()}
    vals: dict = {}
    for f, ann in fields.items():
        if ann == "Name":
            vals[f] = fresh_name(f)
            binders.append(vals[f])
        elif ann == "tuple[Name, ...]":
            vals[f] = (fresh_name(f), fresh_name(f))
            binders += vals[f]
        elif ann.startswith("tuple") and "Binding" in ann:
            e, x = fresh_name("e"), fresh_name("x")
            vals[f] = (BTVar(e, KDom(TVar(free))), BVal(x, TVar(e)), BDisjoint(TVar(e), TVar(x)))
            binders += (e, x)

    def ty() -> Node:
        out = TVar(free)
        for b in binders:
            out = TPair(TVar(b), out)
        return out

    def value() -> Node:
        out = VVar(free)
        for b in binders:
            out = VPair(VVar(b), out)
        return out

    made = {
        "Type": ty,
        "Kind": lambda: KDom(ty()),
        "Value": value,
        "Expr": lambda: EVal(value()),
        "Config": lambda: CProc(EVal(value())),
        "Label": lambda: Label.L2,
        "bool": lambda: True,
        "tuple[BDisjoint, ...]": lambda: (BDisjoint(ty(), TVar(free)), BDisjoint(TVar(free), ty())),
    }
    for f, ann in fields.items():
        if f not in vals:
            vals[f] = made[ann]()
    return cls(**vals)


NODE_CLASSES = _node_classes()


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_walks_agree_with_reference_on_every_node_class(cls):
    _agree(_sample(cls), random.Random(cls.__name__))
    for walk in (_FREE, _RENAME, _CONGRUENCE, _KEYS):
        # every class's step is its own function, under its own file name
        assert walk[cls].__code__.co_filename == f"<walk {walk.go} {cls.__qualname__}>"


def test_classes_of_one_shape_share_a_walks_code():
    for walk in (_FREE, _RENAME, _CONGRUENCE, _KEYS):
        send, recv = walk[TSend].__code__, walk[TRecv].__code__
        assert send is not recv and send.co_code == recv.co_code
        assert (send.co_filename, recv.co_filename) == (f"<walk {walk.go} TSend>", f"<walk {walk.go} TRecv>")


# -- seeded trees -----------------------------------------------------------------


def test_walks_agree_with_reference_on_seeded_trees():
    rng = random.Random(3017)
    free = [fresh_name(t) for t in "abcd"]
    for i in range(500):
        if i % 2:
            t = random_type(rng, rng.randrange(1, 30), free)
        else:
            t = random_session(rng, rng.randrange(1, 6), free[:2])
        _agree(t, rng)


# -- what the checker meets ---------------------------------------------------------


def test_walks_agree_with_reference_on_every_type_the_checker_meets(tmp_path, capsys, monkeypatch):
    met: list = []  # (type, substitution or None) at each top-level normalization
    norm = NORMALIZE._norm

    def spy(t, scope):
        if not scope[1]:
            met.append((t, None if scope[2] is None else {uid: r for uid, (r, _) in scope[2].items()}))
        return norm(t, scope)

    monkeypatch.setattr(NORMALIZE, "_norm", spy)
    programs = [p for p in checked_programs((3, 8)) if not p[0].startswith("test_cli.py")]
    assert set(run_cli(tmp_path, capsys, programs, commands=(("check",),))) == {0}
    monkeypatch.undo()
    seen = {id(t): (t, s) for t, s in met}
    # about 1500 types, some 130 of them met under a substitution (instantiate)
    assert len(seen) > 1000 and sum(s is not None for _, s in seen.values()) > 100
    rng = random.Random(8)
    for t, s in seen.values():
        _agree(t, rng, s)


# -- compiled on first use, at any depth ------------------------------------------------


def _fresh(probe: str, *args: str) -> list[str]:
    """What probe prints in a new interpreter, started without site's
    imports, that imports pvgr from src/ (argv[1]); args follow."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1])\n" + probe, str(ROOT / "src"), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_a_long_session_normalizes_and_keys_at_the_default_recursion_limit():
    # 495 steps of ?Int, the most the interpreting walk took, in a fresh
    # interpreter: each walk meets `End` first at the deepest point, and
    # compiles its step there
    probe = """
from pvgr.normalize import conv_key
from pvgr.parser import parse_type
print(sys.getrecursionlimit(), len(conv_key(parse_type("?Int." * int(sys.argv[2]) + "End"))))
"""
    assert _fresh(probe, "495") == ["1000", "5"]  # the key of a receive: its class and four fields


def test_no_walk_is_compiled_at_import_and_each_shape_once():
    probe = """
import collections, io, sys
compiled = collections.Counter()
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<walk>" and compiled.update([args[0]]))
import pvgr.cli
at_import = sum(compiled.values())
sys.stdout = io.StringIO()
pvgr.cli.main(["check", sys.argv[2]])
sys.stdout = sys.__stdout__
from pvgr.ast import _FREE, _RENAME
from pvgr.normalize import _CONGRUENCE, _KEYS
steps = sum(len(w) + len(w.opened) for w in (_FREE, _RENAME, _CONGRUENCE, _KEYS))
print(at_import, max(compiled.values()), sum(compiled.values()) < steps)
"""
    assert _fresh(probe, str(ROOT / "corpus" / "gsend_send2.pvgr")) == ["0", "1", "True"]
