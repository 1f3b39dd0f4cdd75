"""Context formation, kinding, restriction operators, disjoint extension."""

from __future__ import annotations

import pytest

from pvgr.ast import (
    BDisjoint,
    BTVar,
    BVal,
    DomMerge,
    KArrow,
    KDom,
    KSession,
    KShape,
    KState,
    KType,
    ShOne,
    TChan,
    TUnit,
    TVar,
    fresh_name,
)
from pvgr.constraints import BFresh, expand
from pvgr.kinding import (
    KindError,
    check_ctx,
    check_kind,
    disjoint_append,
    infer_kind,
    kind_equiv,
    restrict_non_dom,
)
from pvgr.parser import parse_type
from pvgr.pretty import pretty


def dom1() -> KDom:
    return KDom(ShOne())


def test_check_ctx_empty():
    check_ctx(())


def test_check_ctx_with_constraint():
    a, b = fresh_name("a"), fresh_name("b")
    check_ctx((BTVar(a, dom1()), BTVar(b, dom1()), BDisjoint(TVar(a), TVar(b))))


def test_check_ctx_unbound_constraint():
    a, b = fresh_name("a"), fresh_name("b")
    with pytest.raises(KindError):
        check_ctx((BDisjoint(TVar(a), TVar(b)),))


def test_check_ctx_duplicate():
    a = fresh_name("a")
    with pytest.raises(KindError):
        check_ctx((BTVar(a, dom1()), BTVar(a, dom1())))


def test_check_kind_constants_and_dom():
    check_kind((), KType())
    check_kind((), KDom(parse_type("1")))
    with pytest.raises(KindError):
        check_kind((), KDom(parse_type("x")))  # unbound shape variable


def test_infer_kind_shape_one():
    assert isinstance(infer_kind((), parse_type("1")), KShape)


def test_infer_kind_chan_under_domain():
    a = fresh_name("a")
    g = (BTVar(a, dom1()),)
    assert isinstance(infer_kind(g, TChan(TVar(a))), KType)


def test_infer_kind_gsend_type_closed():
    gsend = parse_type(
        "forall h:Shape[]. forall d:Dom(h)[]. forall f:(Dom(h)->State)[]. "
        "forall g:(Dom(h)->Type)[]. forall c:Dom(1)[d # c]. forall s:Session[]. "
        "[.; g d -> ex . .; [f d, {c: !{e:Dom(h)}(f e; g e).s}; Chan c -> ex . {c: s}; Unit]]",
        open_world=False,
    )
    assert isinstance(infer_kind((), gsend), KType)


def test_infer_kind_higher_order_adapter_types_closed():
    # protocol-adapter parameter types: channel-creating functional argument,
    # state-polymorphic argument, and the combination of both
    eq10 = parse_type(
        "forall h:Shape[]. forall f:(Dom(h)->State)[]. forall g:(Dom(h)->Type)[]. "
        "forall c:Dom(1)[]. forall s:Session[]. forall s1:Session[]. "
        "[.; [{c: s}; Chan c -> ex a:Dom(h). f a, {c: s1}; g a] -> ex . .; "
        "[{c: !Int.s}; Chan c -> ex a:Dom(h). f a, {c: s1}; g a]]",
        open_world=False,
    )
    assert isinstance(infer_kind((), eq10), KType)
    eq11 = parse_type(
        "forall h1:Shape[]. forall f1:(Dom(h1)->State)[]. "
        "forall h2:Shape[]. forall f2:(Dom(h2)->State)[]. forall g2:(Dom(h2)->Type)[]. "
        "forall d1:Dom(h1)[]. forall d2:Dom(h2)[]. forall c:Dom(1)[d1 # c, d2 # c]. "
        "forall s:Session[]. forall s1:Session[]. "
        "[.; [f1 d1, {c: s}; Chan c -> ex . f2 d2, {c: s1}; g2 d2] -> ex . .; "
        "[f1 d1, {c: !Int.s}; Chan c -> ex . f2 d2, {c: s1}; g2 d2]]",
        open_world=False,
    )
    assert isinstance(infer_kind((), eq11), KType)
    eq12 = parse_type(
        "forall h1:Shape[]. forall f1:(Dom(h1)->State)[]. "
        "forall h2:Shape[]. forall h:Shape[]. "
        "forall f2:(Dom((h*h2))->State)[]. forall g2:(Dom((h*h2))->Type)[]. "
        "forall d1:Dom(h1)[]. forall d2:Dom(h2)[]. forall c:Dom(1)[d1 # c, d2 # c]. "
        "forall s:Session[]. forall s1:Session[]. "
        "[.; [f1 d1, {c: s}; Chan c -> ex a:Dom(h). f2 (a, d2), {c: s1}; g2 (a, d2)] -> ex . .; "
        "[f1 d1, {c: !Int.s}; Chan c -> ex a:Dom(h). f2 (a, d2), {c: s1}; g2 (a, d2)]]",
        open_world=False,
    )
    assert isinstance(infer_kind((), eq12), KType)


def test_infer_kind_unbound_variable():
    # the deepest failing premise is reported, under its own rule
    for src in ("Chan a", "Chan (x, y)"):
        with pytest.raises(KindError) as exc:
            infer_kind((), parse_type(src))
        assert exc.value.code == "K-Var"


def test_k_lam_codomain_restriction():
    # a type function may return Type or State, nothing else
    with pytest.raises(KindError):
        infer_kind((), parse_type("\\a:1. 1", open_world=False))  # Shape body
    k = infer_kind((), parse_type("\\a:1. Chan a", open_world=False))
    assert kind_equiv(k, KArrow(dom1(), KType()))


def test_state_merge_requires_disjointness():
    a, b = fresh_name("a"), fresh_name("b")
    g_ok = (BTVar(a, dom1()), BTVar(b, dom1()), BDisjoint(TVar(a), TVar(b)))
    g_bad = (BTVar(a, dom1()), BTVar(b, dom1()))
    from pvgr.ast import StBind, StMerge, TEnd

    st = StMerge(StBind(TVar(a), TEnd()), StBind(TVar(b), TEnd()))
    assert isinstance(infer_kind(g_ok, st), KState)
    with pytest.raises(KindError):
        infer_kind(g_bad, st)


def test_duplicate_state_binding_rejected():
    a = fresh_name("a")
    from pvgr.ast import StBind, StMerge, TEnd

    g = (BTVar(a, dom1()),)
    with pytest.raises(KindError):
        infer_kind(g, StMerge(StBind(TVar(a), TEnd()), StBind(TVar(a), TEnd())))


def test_restrict_tables():
    x, a, s = fresh_name("x"), fresh_name("a"), fresh_name("s")
    g = (BVal(x, TUnit()), BTVar(a, dom1()), BTVar(s, KSession()))
    assert restrict_non_dom(g) == (BTVar(s, KSession()),)
    assert restrict_non_dom(()) == ()


def test_restrict_keeps_state_and_type_functions():
    f, g_, st, ty = fresh_name("f"), fresh_name("g"), fresh_name("st"), fresh_name("ty")
    sh = fresh_name("h")
    ctx = (
        BTVar(sh, KShape()),
        BTVar(f, KArrow(KDom(TVar(sh)), KState())),
        BTVar(g_, KArrow(KDom(TVar(sh)), KType())),
        BTVar(st, KState()),
        BTVar(ty, KType()),
    )
    kept = restrict_non_dom(ctx)
    assert [b.name for b in kept] == [sh, f, g_]


def test_disjoint_append_examples():
    # the extension ends in a marker over its domains, which expands to the
    # constraints C2 (its domains pairwise) and C12 (each earlier domain
    # with each of them)
    assert disjoint_append((), ()) == ()
    a, b = fresh_name("a"), fresh_name("b")
    g = disjoint_append((BTVar(a, dom1()),), (BTVar(b, dom1()),))
    assert g == (BTVar(a, dom1()), BTVar(b, dom1()), BFresh(TVar(b)))
    assert expand(g) == (BTVar(a, dom1()), BTVar(b, dom1()), BDisjoint(TVar(a), TVar(b)))
    # value bindings on the left contribute nothing; C2 pairs arise within g2
    x, c, d = fresh_name("x"), fresh_name("c"), fresh_name("d")
    g2 = disjoint_append((BVal(x, TUnit()),), (BTVar(c, dom1()), BTVar(d, dom1())))
    assert g2 == (
        BVal(x, TUnit()),
        BTVar(c, dom1()),
        BTVar(d, dom1()),
        BFresh(DomMerge(TVar(c), TVar(d))),
    )
    assert expand(g2) == (
        BVal(x, TUnit()),
        BTVar(c, dom1()),
        BTVar(d, dom1()),
        BDisjoint(TVar(c), TVar(d)),
    )
    # g2's own constraints come first, then C2, then C12
    e = fresh_name("e")
    g3 = disjoint_append(g, (BTVar(c, dom1()), BTVar(e, dom1()), BDisjoint(TVar(e), TVar(c))))
    assert g3 == g + (
        BTVar(c, dom1()),
        BTVar(e, dom1()),
        BDisjoint(TVar(e), TVar(c)),
        BFresh(DomMerge(TVar(c), TVar(e))),
    )
    assert expand(g3) == expand(g) + (
        BTVar(c, dom1()),
        BTVar(e, dom1()),
        BDisjoint(TVar(e), TVar(c)),
        BDisjoint(TVar(c), TVar(e)),
        BDisjoint(TVar(a), TVar(c)),
        BDisjoint(TVar(a), TVar(e)),
        BDisjoint(TVar(b), TVar(c)),
        BDisjoint(TVar(b), TVar(e)),
    )
    # no domains, no marker
    assert disjoint_append(g, (BVal(x, TUnit()),)) == g + (BVal(x, TUnit()),)


def test_disjoint_append_requires_fresh_distinct_names():
    a, b = fresh_name("a"), fresh_name("b")
    g = (BTVar(a, dom1()),)
    for g2 in ((BTVar(a, dom1()),), (BVal(a, TUnit()),), (BTVar(b, dom1()), BTVar(b, dom1()))):
        with pytest.raises(KindError) as exc:
            disjoint_append(g, g2)
        assert exc.value.code == "CF-ConsKind"


def test_ctx_formation_concatenation_lemma():
    # check_ctx(g1+g2) holds iff check_ctx(disjoint_append(g1,g2)) holds
    a, b = fresh_name("a"), fresh_name("b")
    g1, g2 = (BTVar(a, dom1()),), (BTVar(b, dom1()),)
    check_ctx(g1 + g2)
    check_ctx(disjoint_append(g1, g2))


def test_weakening_on_random_small_instances(rng):
    # an order-preserving extension never changes an inferred kind
    closed = [
        "forall a:Dom(1)[]. Chan a",
        "!{a:Dom(0)}(.;Int).End",
        "{}",
        "(1*1)",
        "[.;Unit -> ex . .;Unit]",
    ]
    extra = (BTVar(fresh_name("zz"), KSession()),)
    for src in closed:
        t = parse_type(src, open_world=False)
        k1 = infer_kind((), t)
        k2 = infer_kind(extra, t)
        assert kind_equiv(k1, k2)


def test_infer_kind_deterministic():
    t = parse_type("forall a:Dom(1)[]. Chan a", open_world=False)
    assert pretty(infer_kind((), t)) == pretty(infer_kind((), t))


def test_wellformed_inputs_imply_wellformed_outputs():
    # whenever infer_kind succeeds under a wellformed context, the kind is wellformed
    samples = [
        ((), "forall a:Dom(1)[]. Chan a"),
        ((), "\\a:1. Chan a"),
        ((), "{}"),
    ]
    for g, src in samples:
        k = infer_kind(g, parse_type(src, open_world=False))
        check_kind(g, k)
