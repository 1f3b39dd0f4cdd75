"""The indexed context: entailment decided from the index, and every pair
K-StMerge's sweep settles without asking it, agree with the closed-set
reference on the context's expansion, an index built by
extension equals the index built from the context's plain tuple, and
disjoint extension expands to what writing out its constraints gave."""

from __future__ import annotations

import random

import pytest
from conftest import corpus_files, perfbench_gen
from oracles import entails_ref, random_entailment_instance

import pvgr.kinding
import pvgr.typing
from pvgr.anf import anf_transform
from pvgr.ast import (
    BDisjoint,
    BTVar,
    BVal,
    DomMerge,
    DomProj,
    DomZero,
    KDom,
    KSession,
    Label,
    ShOne,
    ShZero,
    TPair,
    TUnit,
    TVar,
    fresh_name,
)
from pvgr.constraints import AtomizeError, BFresh, Context, entails, expand, open_pairs
from pvgr.kinding import disjoint_append, restrict_non_dom
from pvgr.parser import parse_program, parse_type
from pvgr.typing import type_config, type_expr


def hold_config(n: int) -> str:
    """n acceptors and one process that requests n channels, then applies a
    lambda whose pre-state holds all n ends."""
    acceptor = "<let u = accept ap in let r = close u in r>"
    requests = "".join(f"let [c{i}] v{i} = request ap in " for i in range(n))
    state = "{" + ", ".join(f"c{i}: End" for i in range(n)) + "}"
    closes = "".join(f"let r{i} = close v{i} in " for i in reversed(range(n)))
    user = f"<{requests}let f = \\[{state}](x: Unit). {closes}() in let y = f () in y>"
    return "nuap ap : End . (" + " | ".join([acceptor] * n + [user]) + ")"


def _check(src: str, filename: str) -> None:
    prog = parse_program(src, filename=filename)
    if prog.expr is not None:
        type_expr((), parse_type("."), anf_transform(prog.expr))
    else:
        type_config((), parse_type("."), prog.config)


PROGRAMS = [(f.name, f.read_text()) for f in corpus_files()] + [
    (f"hold{n}", hold_config(n)) for n in range(4, 13)
]


def _settled(g, doms, open_) -> list:
    """The goals `open_pairs` settled: each pair of doms it did not return."""
    left_open = set(open_)
    return [
        (BDisjoint(doms[i], doms[j]),)
        for i in range(len(doms))
        for j in range(i + 1, len(doms))
        if (i, j) not in left_open
    ]


@pytest.fixture(scope="module")
def traced():
    """Every disjointness decision and every extended context met while
    checking PROGRAMS, in the order they occurred. A decision is an
    entails query, or a pair of domains that K-StMerge's sweep
    (`constraints.open_pairs`) settled from the index without one; the
    latter are recorded as (context, goal, True, "sweep")."""
    queries: list = []
    extended: list[Context] = []

    def spy(g, c):
        got = entails(g, c)
        queries.append((g, c, got, "entails"))
        return got

    def spy_sweep(g, doms):
        out = open_pairs(g, doms)
        queries.extend((g, c, True, "sweep") for c in _settled(g, doms, out))
        return out

    add = Context.__add__

    def spy_add(self, more):
        out = add(self, more)
        extended.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pvgr.kinding, "entails", spy)
        mp.setattr(pvgr.typing, "entails", spy)
        mp.setattr(pvgr.kinding, "open_pairs", spy_sweep)
        mp.setattr(Context, "__add__", spy_add)
        for name, src in PROGRAMS:
            _check(src, name)
    return queries, extended


def test_hold_config_checks_and_queries_every_pair(traced):
    # hold12's lambda pre-state holds 12 channels: each of its 66 pairs is
    # decided from the index, by the sweep alone
    queries, _ = traced
    swept = [c for _, c, _, how in queries if how == "sweep"]
    assert len(swept) >= 12 * 11 // 2
    assert any(got for _, _, got, how in queries if how == "entails")


def test_hold_check_asks_entails_linearly_often():
    # the sweep settles every pair of hold's pre-state, so entails is asked
    # O(n) times, not once per pair
    n = 24
    asked: list = []

    def spy(g, c):
        asked.append(c)
        return entails(g, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pvgr.kinding, "entails", spy)
        mp.setattr(pvgr.typing, "entails", spy)
        _check(hold_config(n), "hold.pvgr")
    assert len(asked) <= 2 * n


def test_entails_agrees_with_reference_on_checker_queries(traced):
    queries, _ = traced
    assert any(isinstance(b, BFresh) for g, _, _, _ in queries for b in g)
    for g, c, got, _ in queries:
        assert got == entails_ref(expand(g), list(c)), (g, c)


def test_entails_agrees_with_reference_on_random_instances():
    rng = random.Random(2210_17335)
    held = 0
    for _ in range(500):
        g, c = random_entailment_instance(rng)
        got = entails(g, tuple(c))
        assert got == entails_ref(g, c), (g, c)
        held += got
    assert 50 < held < 450


def _random_dom(rng: random.Random, doms: list) -> object:
    """A domain over the variables doms: a variable, a projection of one, a
    merge or the empty domain."""
    pick = rng.randrange(6)
    if pick == 0 or not doms:
        return DomZero()
    if pick == 1:
        return DomMerge(_random_dom(rng, doms), _random_dom(rng, doms))
    d = TVar(rng.choice(doms))
    return DomProj(rng.choice([Label.L1, Label.L2]), d) if pick == 2 else d


def test_entails_agrees_with_reference_on_seeded_chains():
    # contexts built by chains of disjoint extension, plain extension and
    # restriction, queried after each step, against the closed set of
    # their expansion
    rng = random.Random(1219)
    held = asked = 0
    for _ in range(150):
        g = Context()
        for _ in range(rng.randrange(1, 8)):
            op = rng.random()
            doms = [b.name for b in g if isinstance(b, BTVar) and isinstance(b.kind, KDom)]
            more = _random_bindings(rng, rng.randrange(0, 5))
            doms += [b.name for b in more if isinstance(b, BTVar) and isinstance(b.kind, KDom)]
            if doms and rng.random() < 0.5:
                more.append(BDisjoint(_random_dom(rng, doms), _random_dom(rng, doms)))
            if op < 0.5:
                g = disjoint_append(g, tuple(more))
            elif op < 0.85:
                g = g + tuple(more)
            elif op < 0.93:
                g = _only_dom(g)
            else:
                g = restrict_non_dom(g)
            doms = [b.name for b in g if isinstance(b, BTVar) and isinstance(b.kind, KDom)]
            for _ in range(4):
                c = (BDisjoint(_random_dom(rng, doms), _random_dom(rng, doms)),)
                got = entails(g, c)
                assert got == entails_ref(expand(g), list(c)), (g, c)
                held += got
                asked += 1
    assert 0.1 * asked < held < 0.9 * asked


def test_index_by_extension_equals_index_from_tuple(traced):
    _, extended = traced
    assert len(extended) > 100
    for g in extended:
        fresh = Context(tuple(g))
        assert g.names == fresh.names
        assert g.disjointness == fresh.disjointness
        assert list(g.disjointness.bound) == _bound_ref(g)


def _only_dom(g) -> Context:
    """g restricted to its domain variables."""
    return Context(b for b in g if isinstance(b, BTVar) and isinstance(b.kind, KDom))


def _domains_ref(g) -> tuple:
    return tuple(b.name for b in _only_dom(tuple(g)))


def _bound_ref(g) -> list[int]:
    """The uids of g's domain variables, each once, in binding order."""
    return list(dict.fromkeys(n.uid for n in _domains_ref(g)))


def _disjoint_append_ref(g1, g2) -> tuple:
    """Disjoint extension with g1's domains found by rescanning g1."""
    d2 = _domains_ref(g2)
    d1 = _domains_ref(g1) if d2 else ()
    c2 = tuple(BDisjoint(TVar(a), TVar(b)) for i, a in enumerate(d2) for b in d2[i + 1 :])
    c12 = tuple(BDisjoint(TVar(a), TVar(b)) for a in d1 for b in d2)
    return tuple(g1) + tuple(g2) + c2 + c12


def _random_bindings(rng: random.Random, n: int) -> list:
    out: list = []
    for _ in range(n):
        pick = rng.randrange(5)
        if pick < 2:
            shape = rng.choice([ShZero(), ShOne(), TPair(ShOne(), ShOne())])
            out.append(BTVar(fresh_name("d"), KDom(shape)))
        elif pick == 2:
            out.append(BTVar(fresh_name("s"), KSession()))
        elif pick == 3:
            out.append(BVal(fresh_name("x"), TUnit()))
        else:
            doms = [b.name for b in out if isinstance(b, BTVar) and isinstance(b.kind, KDom)]
            if len(doms) >= 2:
                out.append(BDisjoint(*(TVar(d) for d in rng.sample(doms, 2))))
    return out


def test_disjointness_index_by_extension_equals_rescan_on_random_contexts():
    # extended in chunks, some of them disjoint extensions, each index read
    # at random points, so that a read starts from whichever ancestor last
    # built it
    rng = random.Random(1217)
    for _ in range(200):
        bindings = _random_bindings(rng, rng.randrange(0, 24))
        g, i = Context(), 0
        while i < len(bindings):
            k = rng.randrange(1, 4)
            more = tuple(bindings[i : i + k])
            if rng.random() < 0.5:
                g = disjoint_append(g, more)
            else:
                g = g + more
            i += k
            if rng.random() < 0.4:
                assert list(g.disjointness.bound) == _bound_ref(g)
            if rng.random() < 0.3:
                g.names
        assert g.disjointness == Context(tuple(g)).disjointness
        assert list(g.disjointness.bound) == _bound_ref(g)


@pytest.fixture(scope="module")
def appended():
    """Every disjoint extension made while checking PROGRAMS, with its result."""
    calls: list = []

    def spy(g1, g2):
        out = disjoint_append(g1, g2)
        calls.append((g1, g2, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pvgr.kinding, "disjoint_append", spy)
        mp.setattr(pvgr.typing, "disjoint_append", spy)
        for name, src in PROGRAMS:
            _check(src, name)
    return calls


def _agrees_with_rescan(g1, g2, out) -> None:
    assert isinstance(out, Context)
    assert out[: len(g1) + len(g2)] == tuple(g1) + tuple(g2)
    assert len(out) - len(g1) - len(g2) == (1 if _domains_ref(g2) else 0)
    assert expand(out) == _disjoint_append_ref(expand(g1), g2)


def test_disjoint_append_agrees_with_rescan_on_checker_calls(appended):
    assert len(appended) > 100
    assert any(len(out) > len(g1) + len(g2) for g1, g2, out in appended)
    for g1, g2, out in appended:
        _agrees_with_rescan(g1, g2, out)


def test_chain_check_writes_no_constraints_and_linear_contexts():
    # each received value binds a fresh domain; its extension leaves one
    # marker instead of one constraint per earlier domain
    n = 200
    calls: list = []

    def spy(g1, g2):
        out = disjoint_append(g1, g2)
        calls.append((len(g1) + len(g2), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pvgr.kinding, "disjoint_append", spy)
        mp.setattr(pvgr.typing, "disjoint_append", spy)
        _check(perfbench_gen().chain(n, random.Random(1)), "chain.pvgr")
    assert sum(len(out) > k and isinstance(out[-1], BFresh) for k, out in calls) >= n
    assert not any(isinstance(b, BDisjoint) for k, out in calls for b in out[k:])
    assert max(len(out) for _, out in calls) <= 4 * n


def test_disjoint_append_agrees_with_rescan_on_random_contexts():
    rng = random.Random(1218)
    for _ in range(200):
        g1 = Context()
        for _ in range(rng.randrange(0, 4)):
            g1 = disjoint_append(g1, tuple(_random_bindings(rng, rng.randrange(0, 6))))
        g2 = tuple(b for b in _random_bindings(rng, rng.randrange(0, 5)) if not isinstance(b, BDisjoint))
        _agrees_with_rescan(g1, g2, disjoint_append(g1, g2))


def test_assumption_that_does_not_atomize_is_reported_by_every_query():
    a, b = fresh_name("a"), fresh_name("b")
    g = Context((BTVar(a, KDom(ShOne())), BDisjoint(TUnit(), TVar(a))))
    g2 = g + (BTVar(b, KDom(ShOne())),)
    for ctx in (g, g2, tuple(g2)):
        with pytest.raises(AtomizeError):
            entails(ctx, ())
    with pytest.raises(AtomizeError):
        entails_ref(g2, [])


def test_context_behaves_as_its_tuple():
    g = Context()
    assert g == () and not g
    g2 = g + (1, 2)
    assert isinstance(g2, Context) and g2 == (1, 2) and list(g2) == [1, 2]
    assert g2[:1] == (1,) and type(g2[:1]) is tuple
    assert hash(g2) == hash((1, 2))
