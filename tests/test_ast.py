"""Binder hygiene: substitution, free variables, canonical renaming."""

from __future__ import annotations

import random

from conftest import parse_expr
from oracles import alpha_oracle, node_fields, random_type, replace_fields

from pvgr.ast import (
    ShOne,
    StBind,
    TChan,
    TDual,
    TLam,
    TVar,
    VUnit,
    VVar,
    alpha_equiv,
    canonicalize,
    free_vars,
    fresh_name,
    size,
    subst,
)
from pvgr.parser import parse_type


def test_subst_variable_hit():
    x = fresh_name("x")
    assert subst({x.uid: VUnit()}, VVar(x)) == VUnit()


def test_subst_variable_miss():
    x, y = fresh_name("x"), fresh_name("y")
    assert subst({x.uid: VUnit()}, VVar(y)) == VVar(y)


def test_subst_type_variable():
    a, d = fresh_name("a"), fresh_name("d")
    assert subst({a.uid: TVar(d)}, TChan(TVar(a))) == TChan(TVar(d))


def test_subst_matches_naive_textual_substitution_on_closed_binders(rng):
    # on instances where every binder is closed (no capture possible), the
    # hygienic substitution agrees with naive textual replacement up to alpha
    a = fresh_name("a")
    for _ in range(50):
        body = random_type(rng, rng.randrange(2, 8), [a])
        payload = random_type(rng, rng.randrange(1, 4), [])
        hygienic = subst({a.uid: payload}, body)
        naive = _naive_subst(a.uid, payload, body)
        assert alpha_equiv(hygienic, naive)


def _naive_subst(uid, payload, t):
    from pvgr.ast import Node

    if isinstance(t, TVar) and t.name.uid == uid:
        return payload
    changes = {}
    for f in node_fields(t):
        v = getattr(t, f)
        if isinstance(v, Node):
            changes[f] = _naive_subst(uid, payload, v)
        elif isinstance(v, tuple) and any(isinstance(x, Node) for x in v):
            changes[f] = tuple(
                _naive_subst(uid, payload, x) if isinstance(x, Node) else x for x in v
            )
    return replace_fields(t, **changes) if changes else t


def test_subst_identity_map_is_identity_up_to_alpha(rng):
    for _ in range(30):
        t = random_type(rng, rng.randrange(2, 9), [fresh_name("f")])
        assert alpha_equiv(subst({}, t), t)


def test_subst_composition_up_to_alpha(rng):
    # disjoint domains/ranges: applying in sequence equals the fused map
    for _ in range(30):
        a, b = fresh_name("a"), fresh_name("b")
        t = random_type(rng, rng.randrange(2, 8), [a, b])
        pa = random_type(rng, 2, [])
        pb = random_type(rng, 2, [])
        seq = subst({b.uid: pb}, subst({a.uid: pa}, t))
        fused = subst({a.uid: pa, b.uid: pb}, t)
        assert alpha_equiv(seq, fused)


def test_free_vars_chan():
    a = fresh_name("a")
    assert free_vars(TChan(TVar(a))) == {a}


def test_free_vars_bound_occurrence():
    a = fresh_name("a")
    assert free_vars(TLam(a, ShOne(), TChan(TVar(a)))) == set()


def test_free_vars_state_binding():
    a, b = fresh_name("a"), fresh_name("b")
    assert free_vars(StBind(TVar(a), TDual(TVar(b)))) == {a, b}


def test_canonicalize_alpha_variants_identical():
    t1 = parse_type("\\a:1. a", open_world=False)
    t2 = parse_type("\\b:1. b", open_world=False)
    assert canonicalize(t1) == canonicalize(t2)


def test_canonicalize_idempotent_on_closed_trees():
    t = parse_type("forall a:Dom(1)[]. [{a: End}; Chan a -> ex c:Dom(1). {c: End}; Chan c]",
                   open_world=False)
    once = canonicalize(t)
    assert canonicalize(once) == once


def test_canonicalize_keeps_free_variables_distinct():
    t = parse_type("{a: End, b: End}")
    c = canonicalize(t)
    assert len(free_vars(c)) == 2


def test_canonicalize_agrees_with_bijection_search_small_trees(rng):
    # canonical equality iff a binder bijection exists, on trees <= 8 nodes
    free = [fresh_name("w")]
    pool = [random_type(rng, rng.randrange(1, 6), free) for _ in range(60)]
    pool = [t for t in pool if size(t) <= 8]
    checked = 0
    for i in range(0, len(pool) - 1, 2):
        t1, t2 = pool[i], pool[i + 1]
        assert (canonicalize(t1) == canonicalize(t2)) == alpha_oracle(t1, t2)
        checked += 1
    # alpha-variants must compare equal under both
    for t in pool[:20]:
        variant = subst({}, t)  # freshens all binders
        assert canonicalize(t) == canonicalize(variant)
        assert alpha_oracle(t, variant)
        checked += 1
    assert checked > 20


def test_hygiene_no_duplicate_binders_after_subst():
    # one payload with a binder inserted at two sites keeps binder uids unique
    e = parse_expr("let f = (\\[.](x:Unit). x) in let g = f in ()", open_world=False)
    x = fresh_name("x")
    lam = parse_expr("(\\[.](y:Unit). y)", open_world=False).value
    doubled = subst({x.uid: lam}, parse_expr("let a = x in let b = x in ()"))
    binders = _collect_binders(doubled)
    assert len(binders) == len(set(binders))


def _collect_binders(t):
    from pvgr.ast import Node, VAbs, ELet

    out = []
    if isinstance(t, VAbs):
        out.append(t.binder.uid)
    if isinstance(t, ELet):
        out.append(t.binder.uid)
    for f in node_fields(t):
        v = getattr(t, f)
        if isinstance(v, Node):
            out += _collect_binders(v)
        elif isinstance(v, tuple):
            out += [x for y in v if isinstance(y, Node) for x in _collect_binders(y)]
    return out
