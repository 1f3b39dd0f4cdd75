"""Disjointness entailment: decomposition, closure, oracle agreement."""

from __future__ import annotations

import pytest
from oracles import entails_search, random_entailment_instance, shape_env

from pvgr.ast import (
    BDisjoint,
    BTVar,
    DomMerge,
    DomProj,
    DomZero,
    KDom,
    Label,
    ShOne,
    TPair,
    TVar,
    fresh_name,
)
from pvgr.constraints import AtomizeError, Chain, atomize, chain_of, close, entails


def dom1():
    return KDom(ShOne())


def dom11():
    return KDom(TPair(ShOne(), ShOne()))


def test_atomize_split_distributes():
    a, b, c = fresh_name("a"), fresh_name("b"), fresh_name("c")
    atoms = atomize((BDisjoint(DomMerge(TVar(a), TVar(b)), TVar(c)),))
    lefts = {(l.base.uid, l.path) for l, _ in atoms}
    assert lefts == {(a.uid, ()), (b.uid, ())}
    assert len(atoms) == 2


def test_atomize_zero_trivially_true():
    c = fresh_name("c")
    assert atomize((BDisjoint(DomZero(), TVar(c)),)) == set()


def test_atomize_normalizes_projections():
    a, b, c = fresh_name("a"), fresh_name("b"), fresh_name("c")
    atoms = atomize((BDisjoint(DomProj(Label.L1, DomMerge(TVar(a), TVar(b))), TVar(c)),))
    assert atoms == {(Chain(a, ()), Chain(c, ()))}


def test_atomize_error_on_non_domain():
    from pvgr.ast import TUnit

    with pytest.raises(AtomizeError):
        atomize((BDisjoint(TUnit(), TUnit()),))


def test_chain_of_reads_a_path_innermost_first():
    from pvgr.ast import TUnit

    a, b = fresh_name("a"), fresh_name("b")
    nested = DomProj(Label.L2, DomProj(Label.L1, TVar(a)))
    assert chain_of(nested) == Chain(a, (Label.L1, Label.L2))
    assert chain_of(TVar(a)) == Chain(a, ())
    assert chain_of(DomProj(Label.L1, TUnit())) is None
    assert chain_of(DomMerge(TVar(a), TVar(b))) is None
    assert atomize((BDisjoint(nested, TVar(b)),)) == {(Chain(a, (Label.L1, Label.L2)), Chain(b, ()))}
    # a projection of a non-chain is reported at its innermost node
    with pytest.raises(AtomizeError, match=r"^not a projection chain: TUnit\(\)$"):
        atomize((BDisjoint(DomProj(Label.L1, TUnit()), TVar(a)),))
    with pytest.raises(AtomizeError, match=r"^domain does not decompose: TUnit\(\)$"):
        atomize((BDisjoint(TUnit(), TVar(a)),))


def test_close_symmetry():
    a, b = fresh_name("a"), fresh_name("b")
    cl = close({(Chain(a, ()), Chain(b, ()))})
    assert (Chain(b, ()), Chain(a, ())) in cl


def test_close_projection_split_consequences():
    a, b = fresh_name("a"), fresh_name("b")
    g = (BTVar(a, dom11()), BTVar(b, dom11()), BDisjoint(TVar(a), TVar(b)))
    cl = close(atomize(g), shape_env(g))
    pairs = {((l.base.uid, l.path), (r.base.uid, r.path)) for l, r in cl}
    for pa in ((), (Label.L1,), (Label.L2,)):
        for pb in ((), (Label.L1,), (Label.L2,)):
            assert ((a.uid, pa), (b.uid, pb)) in pairs


def test_close_empty():
    assert close(set()) == frozenset()


def test_entails_axiom_and_symmetry():
    a, b = fresh_name("a"), fresh_name("b")
    g = (BTVar(a, dom1()), BTVar(b, dom1()), BDisjoint(TVar(a), TVar(b)))
    assert entails(g, (BDisjoint(TVar(b), TVar(a)),))


def test_entails_zero():
    a = fresh_name("a")
    g = (BTVar(a, dom1()),)
    assert entails(g, (BDisjoint(DomZero(), TVar(a)),))


def test_entails_no_reflexivity():
    a = fresh_name("a")
    g = (BTVar(a, dom1()),)
    assert not entails(g, (BDisjoint(TVar(a), TVar(a)),))
    assert not entails_search(g, [BDisjoint(TVar(a), TVar(a))], depth=6)


def test_entails_sibling_projections():
    a = fresh_name("a")
    g = (BTVar(a, dom11()),)
    goal = BDisjoint(DomProj(Label.L1, TVar(a)), DomProj(Label.L2, TVar(a)))
    assert entails(g, (goal,))
    assert entails_search(g, [goal], depth=6)


def test_entails_empty_conjunction():
    assert entails((), ())
    a = fresh_name("a")
    assert entails((BTVar(a, dom1()),), ())


def test_entails_monotone_under_extension():
    a, b, z = fresh_name("a"), fresh_name("b"), fresh_name("z")
    g = (BTVar(a, dom1()), BTVar(b, dom1()), BDisjoint(TVar(a), TVar(b)))
    goal = (BDisjoint(TVar(a), TVar(b)),)
    assert entails(g, goal)
    assert entails(g + (BTVar(z, dom1()),), goal)


def test_oracle_agreement_500_instances(rng):
    true_count = 0
    for _ in range(500):
        g, c = random_entailment_instance(rng)
        got = entails(g, tuple(c))
        want = entails_search(g, c, depth=6)
        assert got == want
        true_count += got
    assert true_count > 50  # the family is not trivially false
