"""K-StMerge kinded in one pass over a merge tree agrees with the nested
rule of `tests/kinding_ref.py`: the same kind or the same diagnostic, and
the same first failing disjointness goal. Compared on every type the
checker kinds over the corpus, the generated families and the ill-typed
programs of tests/test_cli.py, and on seeded merge trees; every pair the
one-pass rule's sweep settles without asking `entails` is checked against
the closed-set reference, and a sweep that never falls back to `entails`
is caught. Also: each atom of a lambda's pre-state is normalized once by
the rule."""

from __future__ import annotations

import random
import sys

import pytest
from conftest import cli_programs, corpus_files, perfbench_gen
from kinding_ref import infer_kind_ref
from oracles import entails_ref

import pvgr.kinding as kinding
import pvgr.typing
from pvgr.anf import anf_transform
from pvgr.ast import (
    BDisjoint,
    BTVar,
    DomProj,
    KArrow,
    KDom,
    KSession,
    KState,
    Label,
    ShOne,
    StBind,
    StEmpty,
    StMerge,
    TApp,
    TEnd,
    TPair,
    TUnit,
    TVar,
    VAbs,
    fresh_name,
    state_atoms,
)
from pvgr.constraints import AtomizeError, Context, entails, expand, open_pairs
from pvgr.diagnostic import Diagnostic
from pvgr.kinding import KindError, disjoint_append, infer_kind
from pvgr.parser import parse_program, parse_type
from pvgr.typing import type_config, type_expr

normalize_module = sys.modules["pvgr.normalize"]  # the package exports the function
EMPTY = parse_type(".")


def _check(src: str, filename: str) -> None:
    prog = parse_program(src, filename=filename)
    if prog.expr is not None:
        type_expr((), EMPTY, anf_transform(prog.expr))
    else:
        type_config((), EMPTY, prog.config)


def _programs() -> list[tuple[str, str]]:
    gen = perfbench_gen()
    families = [
        (f"{fam}{n}", gen.FAMILIES[fam](n, random.Random(n)))
        for fam in ("chain", "fan", "hold")
        for n in (3, 8, 12)
    ]
    return [(f.name, f.read_text()) for f in corpus_files()] + families + cli_programs()


@pytest.fixture(scope="module")
def kinded():
    """Each (context, type) the checker kinds while checking the programs."""
    calls: dict = {}

    def spy(g, t):
        calls.setdefault((id(g), id(t)), (g, t))
        return infer_kind(g, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinding, "infer_kind", spy)
        mp.setattr(pvgr.typing, "infer_kind", spy)
        for name, src in _programs():
            try:
                _check(src, name)
            except Diagnostic:
                pass
    return list(calls.values())


def _outcome(fn, g, t, sweep=None):
    """fn(g, t)'s kind or diagnostic, and the first disjointness goal that
    fails: the last goal asked that did not hold, as both rules stop at
    their first failure. With `sweep`, the one-pass rule decides its pairs
    through it instead of `constraints.open_pairs`."""
    failed: list = []

    def spy(g2, c):
        got = entails(g2, c)
        if not got:
            failed.append(c)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinding, "entails", spy)
        if sweep is not None:
            mp.setattr(kinding, "open_pairs", sweep)
        try:
            result = ("kind", fn(g, t))
        except KindError as e:
            result = ("error", e.code, e.message, e.span, e.expected, e.found, e.state)
    return result, failed[-1] if failed else None


def _checked_sweep(calls: list):
    """open_pairs, with every pair it settles checked against the closed-set
    reference on the expanded context; counts them in calls."""

    def sweep(g, doms):
        out = open_pairs(g, doms)
        left_open = set(out)
        for i in range(len(doms)):
            for j in range(i + 1, len(doms)):
                if (i, j) not in left_open:
                    assert entails_ref(expand(g), [BDisjoint(doms[i], doms[j])]), (g, doms[i], doms[j])
                    calls.append((i, j))
        return out

    return sweep


def test_checker_kindings_agree_with_nested_rule(kinded):
    merges = failures = failing_pairs = 0
    settled: list = []
    for g, t in kinded:
        got = _outcome(infer_kind, g, t, _checked_sweep(settled))
        assert got == _outcome(infer_kind_ref, g, t), t
        merges += isinstance(t, StMerge) and isinstance(t.left, StMerge)
        failures += got[0][0] == "error"
        failing_pairs += got[1] is not None
    assert len(kinded) > 1000 and merges >= 5 and failures >= 5 and failing_pairs >= 1
    assert len(settled) >= 12 * 11 // 2


def _seeded_case(rng: random.Random):
    """A context of eight domains, most pairs made disjoint by extension or
    constraint, a state variable, a state function and a session variable,
    and a merge tree of 3 to 7 atoms over them."""
    g = Context()
    doms: list = []
    while len(doms) < 8:
        chunk = [fresh_name("d") for _ in range(rng.randrange(1, 3))]
        shape = TPair(ShOne(), ShOne()) if rng.random() < 0.2 else ShOne()
        more = tuple(BTVar(d, KDom(shape if i == 0 else ShOne())) for i, d in enumerate(chunk))
        g = disjoint_append(g, more) if rng.random() < 0.5 else g + more
        doms += chunk
    g = g + tuple(
        BDisjoint(TVar(a), TVar(b)) for i, a in enumerate(doms) for b in doms[i + 1 :] if rng.random() < 0.7
    )
    s, f, k = fresh_name("s"), fresh_name("f"), fresh_name("k")
    g = g + (BTVar(s, KState()), BTVar(f, KArrow(KDom(ShOne()), KState())), BTVar(k, KSession()))

    unused = list(doms)
    rng.shuffle(unused)

    def chan():  # mostly a domain not used yet; a repeat is never disjoint
        d = TVar(unused.pop() if unused and rng.random() < 0.9 else rng.choice(doms))
        pair = isinstance(g.names[d.name.uid].kind.shape, TPair)
        return DomProj(rng.choice([Label.L1, Label.L2]), d) if pair else d

    def atom():
        pick = rng.random()
        if pick < 0.8:
            return StBind(chan(), TEnd())
        if pick < 0.88:
            return TApp(TVar(f), chan())
        if pick < 0.92:
            return TVar(s)
        if pick < 0.96:
            return StEmpty()
        if pick < 0.98:
            return TVar(k)  # a session where a state is due
        return StBind(chan(), TUnit())  # a type where a session is due

    def tree(atoms):
        if len(atoms) == 1:
            return atoms[0]
        i = rng.randrange(1, len(atoms))
        return StMerge(tree(atoms[:i]), tree(atoms[i:]))

    return g, tree([atom() for _ in range(rng.randrange(3, 8))])


def test_seeded_merges_agree_with_nested_rule():
    rng = random.Random(1520)
    seen = {"kind": 0, "error": 0}
    codes, failing_pairs = set(), 0
    settled: list = []
    for _ in range(600):
        g, t = _seeded_case(rng)
        got = _outcome(infer_kind, g, t, _checked_sweep(settled))
        assert got == _outcome(infer_kind_ref, g, t), t
        seen[got[0][0]] += 1
        if got[0][0] == "error":
            codes.add((got[0][1], " ".join(got[0][2].split()[:2])))
        failing_pairs += got[1] is not None
    assert min(seen.values()) > 100 and failing_pairs > 100 and len(settled) > 1000
    assert codes == {
        ("K-StMerge", "cannot prove"),
        ("K-StMerge", "cannot establish"),
        ("K-StMerge", "k has"),
        ("K-StChan", "Unit has"),
    }


def test_a_sweep_without_the_pairwise_fallback_is_caught():
    # a mutant sweep that settles every pair, so that no pair falls back to
    # entails, must disagree with the nested rule on some seeded merge
    rng = random.Random(1520)
    disagree = 0
    for _ in range(200):
        g, t = _seeded_case(rng)
        disagree += _outcome(infer_kind, g, t, lambda g, doms: []) != _outcome(infer_kind_ref, g, t)
    assert disagree > 10


def test_an_assumption_that_does_not_atomize_is_raised_as_by_the_nested_rule():
    # with such an assumption every pair is left to entails, which raises
    # it at the first pair the nested rule asks
    a, b, c = fresh_name("a"), fresh_name("b"), fresh_name("c")
    g = disjoint_append(Context((BTVar(a, KDom(ShOne())), BDisjoint(TUnit(), TVar(a)))), (BTVar(b, KDom(ShOne())),))
    g = disjoint_append(g, (BTVar(c, KDom(ShOne())),))
    t = StMerge(StMerge(StBind(TVar(a), TEnd()), StBind(TVar(b), TEnd())), StBind(TVar(c), TEnd()))
    raised = []
    for fn in (infer_kind, infer_kind_ref):
        with pytest.raises(AtomizeError) as e:
            fn(g, t)
        raised.append(str(e.value))
    assert raised[0] == raised[1]


def _lambda_pre(t):
    """The pre-state of the first lambda in t."""
    if isinstance(t, VAbs):
        return t.pre
    for v in vars(t).values():
        for x in v if isinstance(v, tuple) else (v,):
            if hasattr(x, "_fields"):
                pre = _lambda_pre(x)
                if pre is not None:
                    return pre
    return None


def test_hold_pre_state_atoms_are_normalized_once():
    n = 10
    prog = parse_program(perfbench_gen().hold(n, random.Random(1)), filename="hold.pvgr")
    pre = _lambda_pre(prog.config)
    leaves = {id(a): a for a in state_atoms(pre)}
    assert len(leaves) == n and all(isinstance(a, StBind) for a in leaves.values())
    contexts: list = []

    def spy(g, t):
        if t is pre:
            contexts.append(g)
        return infer_kind(g, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinding, "infer_kind", spy)
        mp.setattr(pvgr.typing, "infer_kind", spy)
        type_config((), EMPTY, prog.config)
    assert len(contexts) == 1

    normalized: list = []
    norm = normalize_module._norm

    def counting(t, scope):
        if id(t) in leaves:
            normalized.append(id(t))
        return norm(t, scope)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalize_module, "_norm", counting)
        assert isinstance(infer_kind(contexts[0], pre), KState)
    assert sorted(normalized) == sorted(leaves)
