"""Value typing, state-threaded expression typing, existential matching,
configuration typing."""

from __future__ import annotations

import pytest
from conftest import parse_with

from pvgr.anf import anf_transform
from pvgr.ast import (
    BTVar,
    BVal,
    KArrow,
    KDom,
    KSession,
    KShape,
    KType,
    ShOne,
    StBind,
    StEmpty,
    TChan,
    TUnit,
    TVar,
    VChan,
    VUnit,
    fresh_name,
    state_of_atoms,
)
from pvgr.kinding import KindError, check_ctx
from pvgr.normalize import conv
from pvgr.parser import parse_expr, parse_program, parse_type
from pvgr.pretty import pretty
from pvgr.typing import (
    TypecheckError,
    match_existential,
    type_config,
    type_expr,
    type_value,
)

EMPTY = StEmpty()


def texpr(src: str, sigma: str = ".", ctx=()):
    e = anf_transform(parse_expr(src, open_world=False))
    return type_expr(ctx, parse_type(sigma, open_world=False), e)


# -- value typing --------------------------------------------------------------


def test_type_value_unit():
    assert type_value((), VUnit()) == TUnit()


def test_type_value_chan_needs_single_channel_domain():
    a = fresh_name("a")
    g = (BTVar(a, KDom(ShOne())),)
    assert conv(type_value(g, VChan(TVar(a))), TChan(TVar(a)))
    with pytest.raises(KindError) as exc:
        type_value((), VChan(TVar(a)))  # unbound domain: reported by kinding, once
    assert exc.value.code == "K-Var"


def test_type_value_server_matches_paper_type():
    server = parse_expr(
        """
        /\\s:Session[]. /\\a:Dom(1)[].
        \\[{a: ?Int.?Int.!Int.s}](u: Chan a).
        let x = recv u in
        let y = recv u in
        let z = send y u in
        z
        """,
        open_world=False,
    ).value
    t = type_value((), server)
    expected = parse_type(
        "forall s:Session[]. forall a:Dom(1)[]. "
        "[{a: ?Int.?Int.!Int.s}; Chan a -> ex . {a: s}; Unit]",
        open_world=False,
    )
    assert conv(t, expected)


# -- expression typing ----------------------------------------------------------


def test_type_expr_val_threads_state():
    r = texpr("()")
    assert r.exctx == ()
    assert conv(r.post_state, EMPTY)
    assert conv(r.ty, TUnit())


def test_type_expr_accept_package():
    # the existential package of `accept x` is exactly one fresh channel
    s = fresh_name("s")
    x = fresh_name("x")
    g = (BTVar(s, KSession()), BVal(x, parse_with("type", "AP(s)", {"s": s})))
    e = parse_expr("accept x")
    e = _close_expr_vars(e, {"x": x})
    r = type_expr(g, EMPTY, e)
    assert len(r.exctx) == 1
    c = r.exctx[0].name
    assert conv(r.ty, TChan(TVar(c)))
    assert conv(r.post_state, StBind(TVar(c), TVar(s)))


def _close_expr_vars(e, free):
    from pvgr.ast import VVar, free_vars, subst

    out = e
    for nm in free_vars(e):
        if nm.text in free:
            out = subst({nm.uid: VVar(free[nm.text])}, out)
    return out


def test_type_expr_server_prime_body_matches_eq14_shape():
    # the captured-channel service: under {a: ?Int.?Int.!Int.s0} the inner
    # polymorphic function has the paper's type with no channel quantifier
    a, u = fresh_name("a"), fresh_name("u")
    g = (BTVar(a, KDom(ShOne())), BVal(u, TChan(TVar(a))))
    v = parse_with(
        "expr",
        """
        /\\s:Session[].
        \\[{a: ?Int.?Int.!Int.s}](z: Unit).
        let x = recv u in
        let y = recv u in
        let w = send y u in
        w
        """,
        {"a": a, "u": u},
    )
    t = type_value(g, v.value)
    eq14 = parse_with(
        "type",
        "forall s:Session[]. [{a: ?Int.?Int.!Int.s}; Unit -> ex . {a: s}; Unit]",
        {"a": a},
    )
    assert conv(t, eq14)


def test_type_expr_requires_strict_anf():
    e = parse_expr("let x = (let y = () in y) in x", open_world=False)
    with pytest.raises(TypecheckError) as exc:
        type_expr((), EMPTY, e)
    assert "A-normal form" in exc.value.message


def test_type_expr_unknown_channel_in_state():
    # a channel value whose domain has no binding in the threaded state
    a, x = fresh_name("a"), fresh_name("x")
    g = (BTVar(a, KDom(ShOne())), BVal(x, TChan(TVar(a))))
    e = _close_expr_vars(parse_expr("close x"), {"x": x})
    with pytest.raises(TypecheckError) as exc:
        type_expr(g, EMPTY, e)
    assert exc.value.code == "T-Close"
    assert "not in the current state" in exc.value.message


def test_type_expr_session_mismatch():
    a, x = fresh_name("a"), fresh_name("x")
    g = (BTVar(a, KDom(ShOne())), BVal(x, TChan(TVar(a))))
    e = _close_expr_vars(parse_expr("close x"), {"x": x})
    sigma = state_of_atoms([StBind(TVar(a), parse_type("!Int.End", open_world=False))])
    with pytest.raises(TypecheckError) as exc:
        type_expr(g, sigma, e)
    assert exc.value.code == "T-Close"


def test_type_expr_send_of_a_domain_of_the_wrong_shape():
    # the session sends a domain of shape h, and the payload's type matches
    # its pattern only with a domain of shape 1. No surface program reaches
    # this: kinding `g d` in a lambda's annotation fails K-App first, so the
    # context here is built without being formed.
    free = {t: fresh_name(t) for t in "hgdcx"}
    h, g, d, c, x = free.values()
    ctx = (
        BTVar(h, KShape()),
        BTVar(g, KArrow(KDom(TVar(h)), KType())),
        BTVar(d, KDom(ShOne())),
        BTVar(c, KDom(ShOne())),
        BVal(x, parse_with("type", "g d", free)),
    )
    sigma = parse_with("type", "{c: !{e:Dom(h)}(.; g e).End}", free)
    e = parse_with("expr", "send x (chan c)", free)
    with pytest.raises(TypecheckError) as exc:
        type_expr(ctx, sigma, e)
    err = exc.value
    assert (err.code, err.message, err.expected, err.found) == (
        "T-Send", "transferred domain has the wrong shape", "Dom(h)", "Dom(1)"
    )
    assert str(err).startswith("<input>:1:1: error[T-Send]")


def test_frame_unused_binding_passes_through():
    from pvgr.ast import BDisjoint

    a, b, x = fresh_name("a"), fresh_name("b"), fresh_name("x")
    g = (
        BTVar(a, KDom(ShOne())),
        BTVar(b, KDom(ShOne())),
        BDisjoint(TVar(a), TVar(b)),
        BVal(x, TChan(TVar(a))),
    )
    e = _close_expr_vars(parse_expr("close x"), {"x": x})
    sigma = state_of_atoms(
        [StBind(TVar(a), parse_type("End")), StBind(TVar(b), parse_type("End"))]
    )
    r = type_expr(g, sigma, e)
    assert conv(r.post_state, StBind(TVar(b), parse_type("End")))


def test_typing_deterministic():
    r1 = texpr("let x = () in x")
    r2 = texpr("let x = () in x")
    assert pretty(r1.ty) == pretty(r2.ty)
    assert conv(r1.post_state, r2.post_state)


def test_output_wellformedness():
    # on success: ctx ⋉ exctx wellformed, post kinds to State, ty to Type
    from pvgr.kinding import disjoint_append, infer_kind
    from pvgr.ast import KState, KType

    s = fresh_name("s")
    x = fresh_name("x")
    g = (BTVar(s, KSession()), BVal(x, parse_with("type", "AP(s)", {"s": s})))
    e = _close_expr_vars(parse_expr("accept x"), {"x": x})
    r = type_expr(g, EMPTY, e)
    g2 = disjoint_append(g, r.exctx)
    check_ctx(g2)
    assert isinstance(infer_kind(g2, r.post_state), KState)
    assert isinstance(infer_kind(g2, r.ty), KType)


# -- match_existential -----------------------------------------------------------


def test_match_nothing_to_bind():
    rho = match_existential((), (), EMPTY, TUnit(), [], TUnit())
    assert rho == {}


def test_match_send1_scenario():
    # pattern  ex a:Dom(1). ({a: S'}; Chan a)  against actual ({d: S'}; Chan d)
    a, d = fresh_name("a"), fresh_name("d")
    g = (BTVar(d, KDom(ShOne())),)
    pat_state = StBind(TVar(a), parse_type("End"))
    pat_ty = TChan(TVar(a))
    act = [StBind(TVar(d), parse_type("End"))]
    rho = match_existential(g, (BTVar(a, KDom(ShOne())),), pat_state, pat_ty, act, TChan(TVar(d)))
    assert conv(rho[a.uid], TVar(d))


def test_match_head_mismatch():
    a = fresh_name("a")
    with pytest.raises(TypecheckError):
        match_existential(
            (), (BTVar(a, KDom(ShOne())),), EMPTY, TChan(TVar(a)), [], TUnit()
        )


def test_match_pair_of_channels_assembles_merge():
    from pvgr.ast import DomProj, Label, DomMerge, TPair

    a, d1, d2 = fresh_name("a"), fresh_name("d1"), fresh_name("d2")
    g = (
        BTVar(d1, KDom(ShOne())),
        BTVar(d2, KDom(ShOne())),
        __import__("pvgr.ast", fromlist=["BDisjoint"]).BDisjoint(TVar(d1), TVar(d2)),
    )
    pat_ty = TPair(TChan(DomProj(Label.L1, TVar(a))), TChan(DomProj(Label.L2, TVar(a))))
    pat_state = state_of_atoms(
        [
            StBind(DomProj(Label.L1, TVar(a)), parse_type("End")),
            StBind(DomProj(Label.L2, TVar(a)), parse_type("End")),
        ]
    )
    act_state = [
        StBind(TVar(d1), parse_type("End")),
        StBind(TVar(d2), parse_type("End")),
    ]
    act_ty = TPair(TChan(TVar(d1)), TChan(TVar(d2)))
    rho = match_existential(
        g, (BTVar(a, KDom(TPair(ShOne(), ShOne()))),), pat_state, pat_ty, act_state, act_ty
    )
    assert conv(rho[a.uid], DomMerge(TVar(d1), TVar(d2)))


# -- configuration typing ---------------------------------------------------------


def test_type_config_unit_process():
    type_config((), EMPTY, parse_program("<()>").config)


def test_type_config_nuaccess():
    type_config((), EMPTY, parse_program("nuap x : End . <x>").config)


def test_type_config_closed_channel_reading():
    # both references dead, session ended: accepted without state bindings
    type_config((), EMPTY, parse_program("nu a b : End . (<()> | <()>)").config)


def test_type_config_rejects_half_closed():
    with pytest.raises(TypecheckError):
        type_config((), EMPTY, parse_program("nu a b : End . (<close (chan a)> | <()>)").config)


def test_type_config_rejects_leftover():
    with pytest.raises(TypecheckError):
        type_config(
            (), EMPTY, parse_program("nu a b : !Int.End . (<()> | <()>)").config
        )


# -- the aliasing counterexample ---------------------------------------------------


SENDSEND_TWO_CHAN = """
/\\d:Dom(1)[]. /\\s1:Session[]. /\\s2:Session[].
\\[.](w: Chan d).
\\[.](sendSend: forall a:Dom(1)[]. forall b:Dom(1)[a # b]. forall t1:Session[]. forall t2:Session[].
   [.; Chan a -> ex . .; [{a: !Int.t1, b: !Int.t2}; Chan b -> ex . {a: t1, b: t2}; Unit]]).
\\[{d: !Int.s1}](z: Unit).
let g1 = sendSend [d] in
let g2 = g1 [d] in
g2
"""

SENDSEND_ONE_CHAN = """
/\\d:Dom(1)[]. /\\s:Session[].
\\[.](w: Chan d).
\\[.](sendSend: forall a:Dom(1)[]. forall s0:Session[].
   [.; Chan a -> ex . .; [{a: !Int.!Int.s0}; Chan a -> ex . {a: s0}; Unit]]).
\\[{d: !Int.!Int.s}](z: Unit).
let g1 = sendSend [d] in
let g2 = g1 [s] in
let g3 = g2 w in
g3 w
"""


def test_aliased_two_channel_call_rejected_by_entailment():
    with pytest.raises(TypecheckError) as exc:
        texpr(SENDSEND_TWO_CHAN)
    assert exc.value.code == "T-TApp"
    assert "constraint" in exc.value.message


def test_aliased_single_channel_call_accepted():
    r = texpr(SENDSEND_ONE_CHAN)
    assert conv(r.post_state, EMPTY)
