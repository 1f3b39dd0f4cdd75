"""Acceptance criteria, one test per criterion, each printing a pass line
with its runtime against the stated budget."""

from __future__ import annotations

import random
import time

import pytest
from conftest import CORPUS, corpus_files, flatten_lets, parse_expr, parse_with
from oracles import (
    conv_search,
    entails_search,
    mutate_type,
    node_fields,
    random_entailment_instance,
    random_session,
    random_type,
    replace_fields,
)

from pvgr.anf import anf_transform, is_strict_anf
from pvgr.ast import (
    BVal,
    BTVar,
    CProc,
    KDom,
    ShOne,
    TChan,
    TDual,
    TVar,
    alpha_equiv,
    canonicalize,
    fresh_name,
    size,
)
from pvgr.constraints import entails
from pvgr.normalize import conv
from pvgr.parser import parse_program, parse_type
from pvgr.pretty import pretty
from pvgr.runtime import Machine, Soup, classify_config, iter_procs
from pvgr.typing import TypecheckError, type_config, type_expr, type_value

EMPTY = parse_type(".")


def report(n: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {n} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def corpus_expr(name: str):
    return anf_transform(parse_program((CORPUS / name).read_text(), filename=name).expr)


def corpus_value(name: str):
    e = corpus_expr(name)
    return e.value


def test_criterion_1_paper_example_typings():
    t0 = time.time()

    # Listing 1 server against its polymorphic type
    server_t = type_value((), corpus_value("server.pvgr"))
    eq5 = parse_type(
        "forall s:Session[]. forall a:Dom(1)[]. "
        "[{a: ?Int.?Int.!Int.s}; Chan a -> ex . {a: s}; Unit]",
        open_world=False,
    )
    assert conv(server_t, eq5)

    # Listing 4 server', under a context providing the captured channel:
    # quantifies the continuation but not the channel
    a, u = fresh_name("a"), fresh_name("u")
    g = (BTVar(a, KDom(ShOne())), BVal(u, TChan(TVar(a))))
    server_prime = parse_with(
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
    eq14 = parse_with(
        "type",
        "forall s:Session[]. [{a: ?Int.?Int.!Int.s}; Unit -> ex . {a: s}; Unit]",
        {"a": a},
    )
    assert conv(type_value(g, server_prime.value), eq14)

    # the acceptor: existential package over the created channel
    acc_t = type_value((), corpus_value("acc.pvgr"))
    eq7 = parse_type(
        "forall s:Session[]. [.; AP(s) -> ex c:Dom(1). {c: s}; Chan c]", open_world=False
    )
    assert conv(acc_t, eq7)

    # the send family
    send0_t = type_value((), corpus_value("send0.pvgr"))
    eq9 = parse_type(
        "forall c:Dom(1)[]. forall s:Session[]. [.; Int -> ex . .; "
        "[{c: !{a:Dom(0)}(.;Int).s}; Chan c -> ex . {c: s}; Unit]]",
        open_world=False,
    )
    assert conv(send0_t, eq9)

    send1_t = type_value((), corpus_value("send1.pvgr"))
    ty_231 = parse_type(
        "forall a:Dom(1)[]. forall c:Dom(1)[a # c]. forall s:Session[]. "
        "[.; Chan a -> ex . .; [{a: End, c: !{b:Dom(1)}({b: End}; Chan b).s}; "
        "Chan c -> ex . {c: s}; Unit]]",
        open_world=False,
    )
    assert conv(send1_t, ty_231)

    send2_t = type_value((), corpus_value("send2.pvgr"))
    ty_232 = parse_type(
        "forall a:Dom(1)[]. forall b:Dom(1)[a # b]. forall c:Dom(1)[a # c, b # c]. "
        "forall s:Session[]. [.; (Chan a * Chan b) -> ex . .; "
        "[{a: End, b: End, c: !{d:Dom((1*1))}({pi1 d: End, pi2 d: End}; "
        "(Chan (pi1 d) * Chan (pi2 d))).s}; Chan c -> ex . {c: s}; Unit]]",
        open_world=False,
    )
    assert conv(send2_t, ty_232)

    gsend_t = type_value((), corpus_value("gsend.pvgr"))
    eq6 = parse_type(
        "forall h:Shape[]. forall d:Dom(h)[]. forall f:(Dom(h)->State)[]. "
        "forall g:(Dom(h)->Type)[]. forall c:Dom(1)[d # c]. forall s:Session[]. "
        "[.; g d -> ex . .; [f d, {c: !{e:Dom(h)}(f e; g e).s}; Chan c -> ex . {c: s}; Unit]]",
        open_world=False,
    )
    assert conv(gsend_t, eq6)

    # the three instantiations of the general send type-check
    for name in ("gsend_send0.pvgr", "gsend_send1.pvgr", "gsend_send2.pvgr"):
        r = type_expr((), EMPTY, corpus_expr(name))
        assert r.ty is not None
    # and the empty-shape instantiation matches the direct type up to the
    # vacuous constraint introduced by instantiating with the empty domain
    r0 = type_expr((), EMPTY, corpus_expr("gsend_send0.pvgr"))
    assert conv(_drop_trivial_constraints(r0.ty), eq9)

    report(1, "paper-example typings", t0, 1.0)


def _drop_trivial_constraints(t):
    """Erase constraints whose sides make them hold vacuously (empty domain)."""
    from pvgr.ast import DomZero, Node, TAll

    def trivial(c) -> bool:
        from pvgr.normalize import normalize

        return isinstance(normalize(c.left), DomZero) or isinstance(
            normalize(c.right), DomZero
        )

    def go(t):
        if isinstance(t, TAll):
            cstr = tuple(c for c in t.cstr if not trivial(c))
            return TAll(t.binder, go(t.kind), tuple(go(c) for c in cstr), go(t.body))
        changes = {}
        for f in node_fields(t):
            v = getattr(t, f)
            if isinstance(v, Node):
                changes[f] = go(v)
            elif isinstance(v, tuple) and any(isinstance(x, Node) for x in v):
                changes[f] = tuple(go(x) if isinstance(x, Node) else x for x in v)
        return replace_fields(t, **changes) if changes else t

    return go(t)


def test_criterion_2_aliasing_negative_example():
    t0 = time.time()
    two_chan = """
    /\\d:Dom(1)[]. /\\s1:Session[]. /\\s2:Session[].
    \\[.](w: Chan d).
    \\[.](sendSend: forall a:Dom(1)[]. forall b:Dom(1)[a # b]. forall t1:Session[]. forall t2:Session[].
       [.; Chan a -> ex . .; [{a: !Int.t1, b: !Int.t2}; Chan b -> ex . {a: t1, b: t2}; Unit]]).
    \\[{d: !Int.s1}](z: Unit).
    let g1 = sendSend [d] in
    let g2 = g1 [d] in
    g2
    """
    with pytest.raises(TypecheckError) as exc:
        type_expr((), EMPTY, anf_transform(parse_expr(two_chan, open_world=False)))
    assert exc.value.code == "T-TApp"
    assert "constraint" in exc.value.message

    one_chan = """
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
    r = type_expr((), EMPTY, anf_transform(parse_expr(one_chan, open_world=False)))
    assert conv(r.post_state, EMPTY)
    report(2, "aliased sendSend rejected / single-channel accepted", t0, 1.0)


def _corpus_configs():
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is not None:
            yield path.name, CProc(anf_transform(prog.expr))
        else:
            yield path.name, prog.config


def test_criterion_3_subject_reduction_harness():
    t0 = time.time()
    violations = []
    for seed in range(10):
        for name, cfg in _corpus_configs():
            m = Machine(cfg, seed=seed, max_steps=10_000)
            while True:
                try:
                    type_config((), EMPTY, m.config)
                except TypecheckError as e:
                    violations.append((name, seed, m.steps, str(e)))
                    break
                out = m.step()
                if out.kind != "stepped":
                    break
    assert not violations, violations[:3]
    report(3, "subject reduction, corpus x 10 seeds", t0, 60.0)


def test_criterion_4_progress_trichotomy():
    t0 = time.time()
    for seed in range(10):
        for name, cfg in _corpus_configs():
            m = Machine(cfg, seed=seed, max_steps=10_000)
            while True:
                cls = classify_config(Soup(m.config))
                kinds = [
                    cls == "final",
                    isinstance(cls, tuple) and cls[0] == "deadlock",
                    cls == "reducible",
                ]
                assert sum(kinds) == 1, (name, seed)
                out = m.step()
                if cls == "reducible":
                    assert out.kind == "stepped", (name, seed, m.steps)
                else:
                    assert out.kind in ("final", "deadlock"), (name, seed)
                if out.kind != "stepped":
                    break
    report(4, "progress trichotomy, corpus x 10 seeds", t0, 60.0)


def test_criterion_5_entailment_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240)
    checked = agreed = 0
    for _ in range(500):
        g, c = random_entailment_instance(rng)
        got = entails(g, tuple(c))
        want = entails_search(g, c, depth=6)
        checked += 1
        agreed += got == want
    assert agreed == checked == 500
    report(5, "entailment oracle equivalence (500 instances)", t0, 30.0)


def test_criterion_6_conversion_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(777)
    free = [fresh_name(f"fv{i}") for i in range(3)]
    checked = 0
    while checked < 350:
        t1 = random_type(rng, rng.randrange(1, 10), free)
        t2 = random_type(rng, rng.randrange(1, 10), free)
        if size(t1) > 10 or size(t2) > 10:
            continue
        assert conv(t1, t2) == conv_search(t1, t2), (pretty(t1), pretty(t2))
        checked += 1
    while checked < 500:
        t = random_type(rng, rng.randrange(1, 6), free)
        m = t
        for _ in range(rng.randrange(1, 3)):
            m = mutate_type(rng, m)
        if size(t) > 10 or size(m) > 10:
            continue
        assert conv(t, m) and conv_search(t, m), (pretty(t), pretty(m))
        checked += 1
    # duality is an involution after normalization
    for _ in range(1000):
        s = random_session(rng, 3)
        assert conv(TDual(TDual(s)), s)
    report(6, "conversion oracle equivalence (500 pairs + involution)", t0, 30.0)


DEADLOCK_WITNESSES = [
    # send against send on opposite ends: no matchable communication
    (
        "nu a b : !Int.End . (<send () (chan a)> | <send () (chan b)>)",
        {"send"},
        "nu a b : !Int.End . (<let x = send () (chan a) in close (chan a)>"
        " | <let y = recv (chan b) in close (chan b)>)",
    ),
    # request with no accept
    (
        None,  # expression program below
        {"request"},
        None,
    ),
    # close with no co-close
    (
        "nu a b : End . (<close (chan a)> | <()>)",
        {"close"},
        "nu a b : End . (<close (chan a)> | <close (chan b)>)",
    ),
]


def test_criterion_7_deadlock_witnesses_and_repairs():
    t0 = time.time()

    # 1: send/send mismatch (ill-typed; the machine still classifies it)
    cfg = parse_program(DEADLOCK_WITNESSES[0][0]).config
    out = Machine(cfg).run()
    assert out.kind == "deadlock"
    assert {b.operation for b in out.report.blocked} == {"send"}
    assert {b.subject for b in out.report.blocked} == {"a", "b"}
    repaired = parse_program(DEADLOCK_WITNESSES[0][2]).config
    type_config((), EMPTY, repaired)  # the repair is well-typed
    assert Machine(repaired).run().kind == "final"

    # 2: request with no accept (well-typed deadlock)
    req = anf_transform(
        parse_expr("let ap = new End in let c = request ap in close c", open_world=False)
    )
    type_expr((), EMPTY, req)
    out = Machine(CProc(req)).run()
    assert out.kind == "deadlock"
    assert [b.operation for b in out.report.blocked] == ["request"]
    rep = anf_transform(
        parse_expr(
            "let ap = new End in "
            "let z = fork (\\[.](w:Unit). let c = accept ap in close c) in "
            "let c = request ap in close c",
            open_world=False,
        )
    )
    type_expr((), EMPTY, rep)
    assert Machine(CProc(rep)).run().kind == "final"

    # 3: close with no co-close
    cfg3 = parse_program(DEADLOCK_WITNESSES[2][0]).config
    out3 = Machine(cfg3).run()
    assert out3.kind == "deadlock"
    assert [b.operation for b in out3.report.blocked] == ["close"]
    assert [b.subject for b in out3.report.blocked] == ["a"]
    repaired3 = parse_program(DEADLOCK_WITNESSES[2][2]).config
    type_config((), EMPTY, repaired3)
    assert Machine(repaired3).run().kind == "final"

    report(7, "deadlock witnesses classify and repairs reach final", t0, 5.0)


def test_criterion_8_round_trip_and_anf():
    t0 = time.time()
    rng = random.Random(31337)

    # corpus round trips
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        tree = prog.expr if prog.expr is not None else prog.config
        printed = pretty(tree)
        prog2 = parse_program(printed)
        tree2 = prog2.expr if prog2.expr is not None else prog2.config
        assert alpha_equiv(tree, tree2), path.name

    # 1000 random trees: printing is parse-stable
    free = [fresh_name(f"fv{i}") for i in range(3)]
    for _ in range(1000):
        t = random_type(rng, rng.randrange(1, 10), free)
        printed = pretty(t)
        assert pretty(parse_type(printed)) == printed

    # ANF idempotence and run equivalence on the deterministic corpus
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is None:
            continue
        once = anf_transform(prog.expr)
        assert is_strict_anf(once)
        assert alpha_equiv(anf_transform(once), once)
        base = Machine(CProc(flatten_lets(prog.expr)), max_steps=20_000)
        trans = Machine(CProc(once), max_steps=20_000)
        kind = base.run().kind
        assert kind == trans.run().kind
        if kind == "final":
            c1 = sorted(repr(canonicalize(anf_transform(e))) for _, e in iter_procs(base.config))
            c2 = sorted(repr(canonicalize(anf_transform(e))) for _, e in iter_procs(trans.config))
            assert c1 == c2

    report(8, "round-trip and ANF properties", t0, 30.0)
