"""Normal forms known by identity.

`normalize` marks every normal form it returns at the top and returns a
marked tree as it is, so normalizing twice gives the same object. These
tests check that each marked tree is what the reference normalizer gives,
that normalizing an unmarked copy of it changes nothing (no beta step, no
fresh name), and that `conv`, which compares the sort keys of normal forms
kept on them, agrees with the declarative rewrite search and with
comparing canonical forms (`tests/conv_ref.py`). The types are those the
checker normalizes on the corpus, and random ones.
"""

from __future__ import annotations

import functools
import random

import pytest
from conftest import corpus_files
from conv_ref import conv as conv_ref
from oracles import alpha_oracle, conv_search, mutate_type, normalize_ref, random_session, random_type

import pvgr.constraints
import pvgr.kinding
import pvgr.typing
from pvgr.anf import anf_transform
from pvgr.ast import (
    DomProj,
    Label,
    Node,
    ShOne,
    StBind,
    StMerge,
    TEnd,
    TSend,
    TUnit,
    TVar,
    Type,
    canonicalize,
    fresh_name,
    size,
    state_atoms,
    subst,
)
from pvgr.normalize import conv, conv_key, normalize
from pvgr.parser import parse_program, parse_type
from pvgr.typing import type_config, type_expr


def _unmarked(t):
    """t rebuilt node by node: equal to t, and no node of it is marked."""
    if isinstance(t, tuple):
        return tuple(_unmarked(x) for x in t)
    if not isinstance(t, Node):
        return t
    return t.__class__(*(_unmarked(getattr(t, f)) for f in t._fields), span=t.span)


@functools.lru_cache(maxsize=None)
def _corpus_types() -> tuple[Type, ...]:
    """Every type the checker normalizes while checking the corpus, once
    each, in the order it first met them."""
    met: dict[int, Type] = {}

    def spy(t):
        met.setdefault(id(t), t)
        return normalize(t)

    with pytest.MonkeyPatch.context() as mp:
        for module in (pvgr.typing, pvgr.kinding, pvgr.constraints):
            mp.setattr(module, "normalize", spy)
        for f in corpus_files():
            prog = parse_program(f.read_text(), filename=f.name)
            if prog.expr is not None:
                type_expr((), parse_type("."), anf_transform(prog.expr))
            else:
                type_config((), parse_type("."), prog.config)
    return tuple(met.values())


def _random_types() -> tuple[Type, ...]:
    rng = random.Random(2210)
    free = [fresh_name(f"fv{i}") for i in range(3)]
    types = [random_type(rng, rng.randrange(1, 12), free) for _ in range(300)]
    return tuple(types + [random_session(rng, 3, free[:1]) for _ in range(100)])


SOURCES = {"corpus": _corpus_types, "random": _random_types}


@pytest.fixture(scope="module", params=list(SOURCES))
def types(request) -> tuple[Type, ...]:
    return SOURCES[request.param]()


def test_the_corpus_meets_marked_and_unmarked_types():
    met = _corpus_types()
    assert len(met) > 300
    marked = sum(t._normal for t in met)
    assert 50 < marked < len(met)


def test_a_normal_form_is_returned_as_it_is(types):
    for t in types:
        nf = normalize(t)
        assert normalize(nf) is nf
        assert nf._normal or nf is t  # a leaf is returned as it is, unmarked


def test_normalize_agrees_with_reference(types):
    for t in types:
        nf = normalize(t)
        assert alpha_oracle(nf, normalize_ref(t)), t


def test_a_marked_tree_is_its_own_normal_form(types):
    # renormalizing an unmarked copy walks the whole tree again: it must
    # give back the same tree, names included, so no beta step happened
    for t in types:
        nf = normalize(t)
        again = normalize(_unmarked(nf))
        assert again == nf and again is not nf


def test_conv_agrees_with_declarative_search(types):
    rng = random.Random(1741)
    small = [t for t in types if size(t) <= 10]
    assert len(small) > 20
    agree = 0
    for t, u in zip(small, small[1:] + small[:1]):
        m = mutate_type(rng, t)
        for a, b in ((t, u), (t, m), (normalize(t), m), (t, normalize(u))):
            if size(a) <= 10 and size(b) <= 10:
                assert conv(a, b) == conv_search(a, b), (a, b)
                agree += 1
    assert agree > 2 * len(small)
    # twice on the same normal forms: the second time reads kept canonical forms
    for t, u in zip(small, small[1:]):
        nt, nu, want = normalize(t), normalize(u), conv_search(t, u)
        assert conv(nt, nu) == conv(nu, nt) == want


def test_conv_agrees_with_canonical_forms(types):
    # the types; the session !{d:Dom(1)}({a: End, d: End}; Unit).End with `a`
    # free, its state and atoms as normalized under the binder, the same
    # atoms built at the top, and two atoms that differ only in a label; and
    # the normal form, an alpha-variant (every binder renamed) and a mutant
    # of each
    rng = random.Random(1717)
    a, d = fresh_name("a"), fresh_name("d")
    example = TSend(d, ShOne(), StMerge(StBind(TVar(a), TEnd()), StBind(TVar(d), TEnd())), TUnit(), TEnd())
    under = normalize(example).state
    base = [*types, example, under, *state_atoms(under), StBind(TVar(d), TEnd()), StBind(TVar(a), TEnd())]
    base += [StBind(DomProj(lab, TVar(a)), TEnd()) for lab in Label]
    nfs = [normalize(t) for t in base]
    variants = [subst({}, t) for t in base]
    mutants = [mutate_type(rng, t) for t in base]
    pairs = [*zip(base, variants), *zip(nfs, mutants), *zip(base, nfs[1:]), *zip(variants, mutants[1:])]
    outcomes = [conv(t, u) for t, u in pairs]
    assert outcomes == [conv_ref(t, u) for t, u in pairs]
    assert 0 < outcomes.count(False) < outcomes.count(True)
    # every pair of the pool: the keys part it into the classes that the
    # canonical forms of the normal forms part it into
    pool = base + nfs + variants + mutants
    classes: dict = {}
    for t in pool:
        classes.setdefault(conv_key(t), set()).add(canonicalize(normalize(t)))
    assert all(len(forms) == 1 for forms in classes.values())
    assert len(classes) == len({canonicalize(normalize(t)) for t in pool})


def test_a_state_normalized_under_its_binder_is_not_marked():
    # !{d:Dom(1)}({d: End, a: End}; Unit).End with a free domain `a`, whose
    # name sorts before `d`: under the binder, the bound `d` sorts first (by
    # its level); at the top both are free and `a` sorts first
    a, d = fresh_name("a"), fresh_name("d")
    state = StMerge(StBind(TVar(a), TEnd()), StBind(TVar(d), TEnd()))
    ses = normalize(TSend(d, ShOne(), state, TUnit(), TEnd()))
    assert [x.dom.name for x in (ses.state.left, ses.state.right)] == [d, a]
    top = normalize(ses.state)
    assert alpha_oracle(top, normalize_ref(ses.state))
    assert [x.dom.name for x in (top.left, top.right)] == [a, d]
    assert not ses.state._normal and top._normal
    # and a tree marked at the top is normalized again under a binder
    under = normalize(TSend(d, ShOne(), top, TUnit(), TEnd()))
    assert alpha_oracle(under, normalize_ref(TSend(d, ShOne(), top, TUnit(), TEnd())))
    assert [x.dom.name for x in (under.state.left, under.state.right)] == [d, a]
