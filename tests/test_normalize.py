"""Type conversion: normalization examples, invariants, and agreement with
the declarative rewrite search."""

from __future__ import annotations

from oracles import conv_search, mutate_type, random_session, random_type

from pvgr.ast import TDual, TEnd, TRecv, TVar, fresh_name, size
from pvgr.kinding import infer_kind
from pvgr.ast import alpha_equiv
from pvgr.normalize import conv, normalize
from pvgr.parser import parse_type
from pvgr.pretty import pretty


def test_dual_end_is_end():
    assert normalize(parse_type("dual End")) == TEnd()


def test_dual_involution_on_variable():
    t = parse_type("dual (dual a)")
    nt = normalize(t)
    assert isinstance(nt, TVar)


def test_dual_send_flips_direction():
    t = normalize(parse_type("dual (!{a:Dom(0)}(.;Int).End)"))
    assert isinstance(t, TRecv)
    assert t.cont == TEnd()


def test_dual_stuck_on_variable():
    t = normalize(parse_type("dual a"))
    assert isinstance(t, TDual) and isinstance(t.ses, TVar)


def test_normalize_beta_and_projection():
    t = parse_type("(\\a:1. Chan a) b")
    assert pretty(normalize(t)) == "Chan b"
    t2 = parse_type("pi1 (a, b)")
    assert pretty(normalize(t2)) == "a"


def test_alpha_equiv_examples():
    t1 = parse_type("\\a:1. Chan a", open_world=False)
    t2 = parse_type("\\b:1. Chan b", open_world=False)
    assert alpha_equiv(t1, t2)
    assert not alpha_equiv(parse_type("End"), parse_type("dual End"))  # not normalized
    assert not alpha_equiv(parse_type("Chan a"), parse_type("Chan b"))  # distinct frees


def test_conv_examples():
    from conftest import parse_with

    s = fresh_name("s")
    assert conv(parse_with("type", "dual (dual s)", {"s": s}), TVar(s))
    # state reordering
    ab = fresh_name("a"), fresh_name("b")
    free = {"a": ab[0], "b": ab[1]}
    from conftest import parse_with as pw

    t1 = pw("type", "{a: End, b: End}", free)
    t2 = pw("type", "{b: End, a: End}", free)
    assert conv(t1, t2)
    assert not conv(parse_type("Unit"), parse_type("(Unit * Unit)"))


def is_normal(t) -> bool:
    return normalize(t) == t


def test_normalize_idempotent(rng):
    free = [fresh_name("f")]
    for _ in range(300):
        t = random_type(rng, rng.randrange(1, 10), free)
        nt = normalize(t)
        assert normalize(nt) == nt
        assert is_normal(nt)


def test_dual_is_involution_on_1000_random_sessions(rng):
    for _ in range(1000):
        s = random_session(rng, 3)
        assert conv(TDual(TDual(s)), s)


def test_normalize_preserves_kinds(rng):
    # closed well-kinded types: kind unchanged by normalization
    samples = [
        "forall a:Dom(1)[]. Chan a",
        "forall s:Session[]. [.; AP(s) -> ex c:Dom(1). {c: s}; Chan c]",
        "dual (!{a:Dom(0)}(.;Int).End)",
        "(\\a:1. Chan a)",
        "forall h:Shape[]. forall f:(Dom(h)->State)[]. forall d:Dom(h)[]. [f d; Unit -> ex . .; Unit]",
    ]
    for src in samples:
        t = parse_type(src, open_world=False)
        k1 = infer_kind((), t)
        k2 = infer_kind((), normalize(t))
        from pvgr.kinding import kind_equiv

        assert kind_equiv(k1, k2), src


def test_conv_agrees_with_declarative_search_small_trees(rng):
    free = [fresh_name(f"fv{i}") for i in range(3)]
    agree = 0
    for i in range(250):
        t1 = random_type(rng, rng.randrange(1, 10), free)
        t2 = random_type(rng, rng.randrange(1, 10), free)
        if size(t1) > 10 or size(t2) > 10:
            continue
        assert conv(t1, t2) == conv_search(t1, t2), (pretty(t1), pretty(t2))
        agree += 1
    # convertible pairs by equivalence-preserving mutation
    for i in range(150):
        t = random_type(rng, rng.randrange(1, 6), free)
        m = t
        for _ in range(rng.randrange(1, 3)):
            m = mutate_type(rng, m)
        if size(t) > 10 or size(m) > 10:
            continue
        assert conv(t, m), (pretty(t), pretty(m))
        assert conv_search(t, m), (pretty(t), pretty(m))
    assert agree > 150
