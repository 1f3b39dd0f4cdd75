"""The binder-scope table against the hand-written walks it replaced.

free_vars, subst, canonicalize, the normalization key and normalize are
compared with their reference versions in oracles.py on every tree the corpus reaches
(parsed programs, their ANF, their typings, and each configuration the
machine passes through for seeds 1-3) and on seeded binder-heavy trees.
The existential matcher is compared with its reference in match_ref.py on
seeded types.
"""

from __future__ import annotations

import functools
import random

import pytest
from conftest import corpus_files
from match_ref import match_ref
from oracles import (
    _key_ref,
    alpha_oracle,
    canonicalize_ref,
    free_vars_ref,
    mutate_type,
    node_fields,
    normalize_ref,
    random_binder_tree,
    random_type,
    subst_ref,
)

from pvgr.anf import anf_transform
from pvgr.ast import (
    LAYOUT,
    SCOPES,
    BTVar,
    BVal,
    CProc,
    DomMerge,
    DomProj,
    DomZero,
    EVal,
    Kind,
    Label,
    Name,
    Node,
    ShOne,
    StBind,
    StEmpty,
    TChan,
    TEnd,
    TArr,
    TLam,
    TSend,
    TUnit,
    TVar,
    Type,
    VAbs,
    VVar,
    canonicalize,
    free_vars,
    fresh_name,
    state_of_atoms,
    subst,
)
from pvgr.normalize import _key, normalize
from pvgr.parser import parse_program, parse_type
from pvgr.runtime import Machine
from pvgr.typing import TypecheckError, _match, type_config, type_expr

EMPTY = parse_type(".")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(node_fields(cls))


def _subtrees(t: Node) -> list[Node]:
    """t and every node below it, found through the annotated fields only."""
    out = [t]
    for name in _field_names(type(t)):
        v = getattr(t, name)
        for x in v if isinstance(v, tuple) else (v,):
            if isinstance(x, Node):
                out += _subtrees(x)
    return out


def _binders(t: Node) -> list[int]:
    """Uids of every name t binds: each name not held by a TVar or VVar."""
    out = []
    for name in _field_names(type(t)):
        v = getattr(t, name)
        for x in v if isinstance(v, tuple) else (v,):
            if isinstance(x, Node):
                out += _binders(x)
            elif isinstance(x, Name) and not isinstance(t, (TVar, VVar)):
                out.append(x.uid)
    return out


def _package(exctx, post, ty) -> Type:
    return TArr(StEmpty(), TUnit(), tuple(exctx), state_of_atoms(list(post)), ty)


@functools.lru_cache(maxsize=None)
def _corpus_trees() -> tuple[Node, ...]:
    out: list[Node] = []
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is not None:
            anf = anf_transform(prog.expr)
            out += [prog.expr, anf]
            try:
                r = type_expr((), EMPTY, anf)
                out.append(_package(r.exctx, r.post, r.ty))
            except TypecheckError:
                pass
            start = CProc(anf)
        else:
            out.append(prog.config)
            collected: list = []
            try:
                type_config((), EMPTY, prog.config, collected)
            except TypecheckError:
                pass
            for p in collected:
                inner = _package(p.typing.exctx, p.typing.post, p.typing.ty)
                out.append(_package(p.ctx, p.atoms_in, inner))
            start = prog.config
        for seed in (1, 2, 3):
            m = Machine(start, max_steps=300, seed=seed)
            while m.step().kind == "stepped":
                out.append(m.config)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _generated_trees() -> tuple[Node, ...]:
    rng = random.Random(2210)
    return tuple(random_binder_tree(rng, rng.randrange(2, 40)) for _ in range(400))


SOURCES = {"corpus": _corpus_trees, "generated": _generated_trees}


@functools.lru_cache(maxsize=None)
def _all_subtrees(source: str) -> tuple[Node, ...]:
    """Every distinct subtree object; a BTVar or BVal, whose name scopes
    over the rest of its telescope, is taken inside a telescope of its own."""
    seen = {id(s): s for t in SOURCES[source]() for s in _subtrees(t)}
    return tuple(
        _package((s,), (), TUnit()) if isinstance(s, (BTVar, BVal)) else s for s in seen.values()
    )


def test_trees_reach_every_binder_form():
    generated = {type(s) for t in _generated_trees() for s in _subtrees(t)}
    corpus = {type(s) for t in _corpus_trees() for s in _subtrees(t)}
    assert set(SCOPES) <= generated
    assert set(SCOPES) - {BVal} <= corpus


@pytest.mark.parametrize("source", SOURCES)
def test_free_vars_agrees_with_reference(source):
    for t in _all_subtrees(source):
        assert free_vars(t) == free_vars_ref(t)


@pytest.mark.parametrize("source", SOURCES)
def test_canonicalize_agrees_with_reference(source):
    for t in _all_subtrees(source):
        assert canonicalize(t) == canonicalize_ref(t)


def _payload(rng: random.Random, name: Name) -> Node:
    pick = rng.randrange(4)
    if pick == 0:
        return TVar(fresh_name(name.text))
    if pick == 1:
        b = fresh_name("q")
        return TLam(b, ShOne(), TChan(TVar(b)))
    if pick == 2:
        b = fresh_name("z")
        return TSend(b, ShOne(), StBind(TVar(b), TEnd()), TChan(TVar(b)), TEnd())
    x = fresh_name("y")
    return VAbs(StEmpty(), x, TUnit(), EVal(VVar(x)))


@pytest.mark.parametrize("source", SOURCES)
def test_subst_agrees_with_reference_and_freshens_every_binder(source):
    rng = random.Random(7)
    for t in _all_subtrees(source):
        s = {n.uid: _payload(rng, n) for n in free_vars_ref(t)}
        old_binders = set(_binders(t)).union(*(_binders(p) for p in s.values()))
        for m in ({}, s):
            new = subst(m, t)
            assert alpha_oracle(new, subst_ref(m, t))
            bound = _binders(new)
            assert len(bound) == len(set(bound))
            assert not old_binders & set(bound)


def _order(keys: list) -> list[int]:
    return sorted(range(len(keys)), key=keys.__getitem__)


@pytest.mark.parametrize("source", SOURCES)
def test_key_orders_like_reference(source):
    # one pool per source, so that atoms of different trees meet in the sort
    rng = random.Random(11)
    atoms = [s for s in _all_subtrees(source) if isinstance(s, (Type, Kind))]
    rng.shuffle(atoms)
    free = sorted({n.uid for a in atoms for n in free_vars_ref(a)})
    bound = rng.sample(free, len(free) // 2)
    for levels in ({}, {uid: i for i, uid in enumerate(bound)}):
        depth = len(levels)
        new = [_key(a, (levels, depth)) for a in atoms]
        old = [_key_ref(a, levels, depth) for a in atoms]
        assert _order(new) == _order(old)


@pytest.mark.parametrize("source", SOURCES)
def test_normalize_agrees_with_reference(source):
    for t in _all_subtrees(source):
        if isinstance(t, Type):
            new, old = normalize(t), normalize_ref(t)
            assert alpha_oracle(new, old)
            # diagnostics print spans, and normal forms keep only the leaves'
            assert [x.span for x in _subtrees(new)] == [x.span for x in _subtrees(old)]


def test_match_agrees_with_reference():
    # a pattern over two pattern variables and a free name, matched against
    # an instance (every binder renamed by subst), a conversion-preserving
    # mutation of it, and an unrelated type
    rng = random.Random(1017)
    matched = 0
    for _ in range(600):
        pv = [fresh_name("p"), fresh_name("p")]
        other = fresh_name("f")
        pat = normalize(random_type(rng, rng.randrange(1, 14), pv + [other]))
        doms = [TVar(fresh_name("d")), DomZero(), DomProj(Label.L1, TVar(other))]
        doms.append(DomMerge(TVar(other), DomZero()))
        inst = subst({p.uid: rng.choice(doms) for p in pv}, pat)
        for act in (inst, normalize(mutate_type(rng, inst)), random_type(rng, 6, [other])):
            pvars = {p.uid for p in pv}
            parts, ref_parts = {}, {}
            got = _match(pat, act, pvars, {}, parts)
            assert got == match_ref(pat, act, pvars, {}, ref_parts)
            assert parts == ref_parts
            matched += got
    assert matched > 600


def _node_classes(cls=Node) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _node_classes(sub)
    return out


def test_scope_table_covers_every_binder_form():
    # a class holding a name must say how it scopes it, and every entry
    # must list exactly its class's non-span fields
    for cls in _node_classes():
        fields = node_fields(cls)
        if any(ann in ("Name", "tuple[Name, ...]") for ann in fields.values()):
            assert cls in SCOPES, cls.__name__
    for cls, entries in SCOPES.items():
        names = [name for name, _ in entries]
        assert sorted(names) == sorted(node_fields(cls))
        assert len(names) == len(set(names))
        assert [name for name, _, _ in LAYOUT[cls].fields] == names
