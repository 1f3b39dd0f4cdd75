"""Instantiation in one pass: `normalize.instantiate(t, s)` is
`normalize(subst(s, t))` (docs/normalization.md, "Instantiation in one
pass").

For random types and sessions from `tests/oracles.py`, with normal
replacements for domains, shapes, state functions, type functions and
sessions, and for every call the checker makes on the corpus, the result
has the sort key and the canonical form of `normalize(subst(s, t))`, is
marked normal, is its own normal form, and binds no uid that `t` or a
replacement binds. `subst` and `instantiate` decide once per replacement
whether it has binders.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest
from conftest import corpus_files
from oracles import random_session, random_type
from scope_ref import scope_walk

import pvgr.ast
import pvgr.typing
from pvgr.ast import (
    DomMerge,
    DomProj,
    DomZero,
    Label,
    Node,
    ShOne,
    ShZero,
    StBind,
    StMerge,
    TApp,
    TEnd,
    TLam,
    TPair,
    TSend,
    TUnit,
    TVar,
    Type,
    canonicalize,
    fresh_name,
    subst,
)
from pvgr.cli import main
from pvgr.normalize import conv_key, instantiate, normalize

A, B = fresh_name("a"), fresh_name("b")  # free, never replaced
D, H, F, G, S = (fresh_name(t) for t in ("d", "h", "f", "g", "s"))
FREE = [A, B, D, H, F, G, S]


def _binders(t) -> set[int]:
    """The uid of every binder in t."""
    out: set[int] = set()

    def go(c, scope):
        scope_walk(c, scope, go, bind, lambda *_: None)

    def bind(name, role, scope):
        out.add(name.uid)
        return name, scope

    if isinstance(t, Node):
        go(t, None)
    return out


def _unmarked(t):
    """t rebuilt node by node, with no node marked normal."""
    if isinstance(t, tuple):
        return tuple(_unmarked(x) for x in t)
    if not isinstance(t, Node):
        return t
    return t.__class__(*(_unmarked(getattr(t, f)) for f in t._fields), span=t.span)


def _state(rng: random.Random, free: list) -> Type:
    """A state of one to three bindings, some of them under the names given."""
    st = StBind(TVar(rng.choice(free)), random_session(rng, 2, [S]))
    for _ in range(rng.randrange(3)):
        st = StMerge(StBind(TVar(rng.choice(free)), random_session(rng, 2, [A])), st)
    return st


def _replacements(rng: random.Random) -> dict[int, Type]:
    """Normal replacements for D (a domain), H (a shape), F (a state
    function), G (a type function) and S (a session), each under its own
    binders where it has any."""
    p, e = fresh_name("p"), fresh_name("e")
    s = {
        D.uid: rng.choice([TVar(A), DomZero(), DomMerge(TVar(A), TVar(B)), DomProj(Label.L1, TVar(B))]),
        H.uid: rng.choice([ShOne(), TPair(ShOne(), ShZero())]),
        F.uid: TLam(p, ShOne(), _state(rng, [p, p, A, B])),
        G.uid: TLam(p, ShOne(), random_type(rng, rng.randrange(1, 6), [p, A])),
        # bound keys sort before free ones: under e, {e: ..} comes first
        S.uid: rng.choice(
            [
                random_session(rng, 3, [A]),
                TSend(e, ShOne(), _state(rng, [e, A, B]), TUnit(), random_session(rng, 2, [A])),
            ]
        ),
    }
    return {uid: normalize(r) for uid, r in s.items()}


def _subject(rng: random.Random) -> Type:
    """A raw type over FREE, with F and G applied where `random_type` puts
    no variable: in function position, under a binder."""
    pick = rng.randrange(3)
    if pick == 0:
        return random_type(rng, rng.randrange(1, 12), FREE)
    if pick == 1:
        return random_session(rng, 3, [S, A])
    z = fresh_name("z")
    arg = rng.choice([TVar(z), TVar(D), DomProj(Label.L2, DomMerge(TVar(A), TVar(z)))])
    state = StMerge(TApp(TVar(F), arg), random_type(rng, rng.randrange(1, 6), FREE + [z]))
    payload = TPair(TApp(TVar(G), TVar(z)), random_type(rng, rng.randrange(1, 6), FREE + [z]))
    return TSend(z, TVar(H), state, payload, random_type(rng, rng.randrange(1, 6), FREE))


def _check(t: Type, s: dict[int, Type], got: Type) -> None:
    want = normalize(subst(s, t))
    assert conv_key(got) == conv_key(want), t
    assert canonicalize(got) == canonicalize(want), t
    assert got._normal, t
    assert canonicalize(normalize(_unmarked(got))) == canonicalize(got), t
    taken = _binders(t).union(*(_binders(r) for r in s.values()))
    assert not _binders(got) & taken, t


def test_instantiate_is_normalize_after_subst_on_random_types():
    rng = random.Random(2902)
    for _ in range(400):
        t, s = _subject(rng), _replacements(rng)
        _check(t, s, instantiate(t, s))


def test_instantiate_reduces_an_applied_replacement():
    # {pi1 p: End, pi2 p: End} for f, at (d, c) with d a pair: one pass
    # gives the sorted state, the projections reduced
    p, c = fresh_name("p"), fresh_name("c")
    pair = TPair(ShOne(), ShOne())
    f = TLam(p, pair, StMerge(StBind(DomProj(Label.L2, TVar(p)), TEnd()), StBind(DomProj(Label.L1, TVar(p)), TEnd())))
    t = TApp(TVar(F), DomMerge(TVar(c), TVar(A)))
    got = instantiate(t, {F.uid: normalize(f)})
    assert got._normal
    assert canonicalize(got) == canonicalize(normalize(StMerge(StBind(TVar(A), TEnd()), StBind(TVar(c), TEnd()))))


@pytest.fixture(scope="module")
def corpus_calls():
    """(t, s, result) of every instantiate call the checker makes on the
    corpus."""
    calls = []
    real = pvgr.typing.instantiate

    def spy(t, s):
        got = real(t, s)
        calls.append((t, dict(s), got))
        return got

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(pvgr.typing, "instantiate", spy)
        for f in corpus_files():
            assert main(["check", str(f)]) == 0
    return calls


def test_instantiate_is_normalize_after_subst_on_the_corpus(corpus_calls):
    assert len(corpus_calls) >= 60
    for t, s, got in corpus_calls:
        _check(t, s, got)
    # type applications, among them ones that replace a function
    assert sum(isinstance(r, TLam) for _, s, _ in corpus_calls for r in s.values()) >= 6


@pytest.mark.parametrize("walk", [subst, lambda s, t: instantiate(t, s)], ids=["subst", "instantiate"])
def test_whether_a_replacement_has_binders_is_decided_once(monkeypatch, walk):
    # a session with a binder, put in at five occurrences
    r = normalize(TSend(fresh_name("e"), ShOne(), StBind(TVar(A), TEnd()), TUnit(), TEnd()))
    t = TVar(S)
    for _ in range(4):
        t = TPair(TVar(S), t)
    asked = []
    real = pvgr.ast._has_binders

    def spy(x):
        if x is r:
            asked.append(x)
        return real(x)

    monkeypatch.setattr(pvgr.ast, "_has_binders", spy)
    got = walk({S.uid: r}, t)
    assert len(asked) == 1
    # each occurrence has binders of its own
    assert len(_binders(got)) == 5 and not _binders(got) & _binders(r)
