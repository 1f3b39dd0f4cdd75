"""The scope table interpreted node by node: the reference for the walks
that `pvgr.ast.Walk` generates.

`scope_walk` reads a node's `LAYOUT` entry at every node it visits and
hands each field to callbacks. It was the one traversal behind free
variables, substitution, canonical renaming, normalization's congruence
case and the normalization key, and it is kept here with those four
callback sets as they were. `conv_key` computes the key afresh and never
reads or keeps one on a node, so that no result of the generated walks
reaches this one.
"""

from __future__ import annotations

import itertools

from pvgr.ast import (
    IN,
    KEEP,
    LAYOUT,
    OUT,
    TBIND,
    TBINDS,
    TELE,
    VBIND,
    BTVar,
    BVal,
    DomMerge,
    DomProj,
    ELet,
    EVal,
    Label,
    Name,
    StEmpty,
    StMerge,
    Subst,
    TApp,
    TDual,
    TLam,
    Tree,
    TVar,
    Type,
    VUnit,
    VVar,
    fresh_name,
    replace,
    replacements,
    state_atoms,
    state_of_atoms,
)
from pvgr.normalize import _dual_push


def scope_walk(t: Tree, scope, go, bind, make):
    """One pass over t's fields in scoping order.

    A child c becomes go(c, s): s is `scope` for OUT fields, and for IN
    fields and telescope bindings it is `scope` extended by every binder
    met so far, each through bind(name, role, s) -> (new name, s').
    Returns make(t, new field values in declaration order) and the scope
    after the last binder.
    """
    fields = LAYOUT[t.__class__].fields
    vals: list = [None] * len(fields)
    inner = scope
    for name, role, pos in fields:
        v = getattr(t, name)
        if role is OUT:
            v = go(v, scope)
        elif role is IN:
            v = tuple([go(x, inner) for x in v]) if v.__class__ is tuple else go(v, inner)
        elif role is TBIND or role is VBIND:
            v, inner = bind(v, role, inner)
        elif role is TBINDS:
            names = []
            for n in v:
                n, inner = bind(n, TBIND, inner)
                names.append(n)
            v = tuple(names)
        elif role is TELE:
            bindings = []
            for b in v:
                b, inner = scope_walk(b, inner, go, bind, make)
                bindings.append(b)
            v = tuple(bindings)
        vals[pos] = v
    return make(t, vals), inner


# -- free variables -----------------------------------------------------------


def free_vars(t: Tree) -> set[Name]:
    out: set[Name] = set()
    _free(t, (frozenset(), out))
    return out


def _free(t: Tree, scope: tuple[frozenset[int], set[Name]]) -> None:
    if t.__class__ is TVar or t.__class__ is VVar:
        if t.name.uid not in scope[0]:
            scope[1].add(t.name)
    elif t.__class__ is ELet:
        while t.__class__ is ELet:
            _free(t.head, scope)
            scope = (scope[0] | {t.binder.uid, *[n.uid for n in t.exnames]}, scope[1])
            t = t.body
        _free(t, scope)
    else:
        scope_walk(t, scope, _free, _bind_free, _discard)


def _bind_free(name: Name, role: str, scope):
    bound, out = scope
    return name, (bound | {name.uid}, out)


def _discard(t: Tree, vals: list) -> None:
    return None


# -- substitution and canonical renaming --------------------------------------


def _rebuild(t: Tree, vals: list) -> Tree:
    for name, _, pos in LAYOUT[t.__class__].fields:
        if vals[pos] is not getattr(t, name):
            return t.__class__(*vals, span=t.span)
    return t


_HOLE = EVal(VUnit())  # stands for a let's body while the let is renamed


def insert(hit: tuple[Tree, bool]) -> Tree:
    return subst({}, hit[0]) if hit[1] else hit[0]


def _rename(t: Tree, scope: tuple[dict, object]) -> Tree:
    if t.__class__ is TVar or t.__class__ is VVar:
        hit = scope[0].get(t.name.uid)
        return t if hit is None else insert(hit)
    if t.__class__ is not ELet:
        return scope_walk(t, scope, _rename, _bind_rename, _rebuild)[0]
    lets = []
    while t.__class__ is ELet:
        let, scope = scope_walk(replace(t, body=_HOLE), scope, _rename, _bind_rename, _rebuild)
        lets.append(let)
        t = t.body
    out = _rename(t, scope)
    for let in reversed(lets):
        out = replace(let, body=out)
    return out


def _bind_rename(name: Name, role: str, scope):
    s, new_name = scope
    new = new_name(name)
    return new, ({**s, name.uid: ((TVar if role is TBIND else VVar)(new), False)}, new_name)


def _fresh_like(n: Name) -> Name:
    return fresh_name(n.text)


def subst(s: Subst, t: Tree) -> Tree:
    return _rename(t, (replacements(s), _fresh_like))


def canonicalize(t: Tree) -> Tree:
    counter = itertools.count()

    def cname(_: Name) -> Name:
        i = next(counter)
        return Name(f"?{i}", -1 - i)

    return _rename(t, ({}, cname))


# -- normalization and its key -------------------------------------------------

_TOP = ({}, 0, None)


def normalize(t: Type) -> Type:
    return _norm(t, _TOP)


def instantiate(t: Type, s: Subst) -> Type:
    out = _norm(t, ({}, 0, replacements(s)))
    out.__dict__["_normal"] = True
    return out


def conv_key(t: Type):
    return _key(normalize(t), ({}, 0))


def _norm(t: Type, scope) -> Type:
    cls = t.__class__
    if not LAYOUT[cls].children:
        if cls is TVar and scope[2]:
            hit = scope[2].get(t.name.uid)
            if hit is not None:
                return insert(hit)
        return t
    if scope is _TOP and t._normal:
        return t
    top = not scope[1]
    if cls is TApp:
        hit = scope[2] and t.fn.__class__ is TVar and scope[2].get(t.fn.name.uid)
        nf = hit[0] if hit and hit[0].__class__ is TLam else _norm(t.fn, scope)
        na = _norm(t.arg, scope)
        if nf.__class__ is TLam:
            out = _norm(nf.body, (scope[0], scope[1], replacements({nf.binder.uid: na})))
        else:
            out = TApp(nf, na)
    elif cls is TDual:
        out = _dual_push(_norm(t.ses, scope))
    elif cls is DomProj:
        lab = t.label
        nd = _norm(t.dom, scope)
        if isinstance(nd, DomMerge):
            out = nd.left if lab is Label.L1 else nd.right
        else:
            out = DomProj(lab, nd)
    elif cls is StMerge:
        atoms: list[Type] = []
        for a in state_atoms(t):
            atoms.extend(state_atoms(_norm(a, scope)))
        atoms = [a for a in atoms if not isinstance(a, StEmpty)]
        atoms.sort(key=conv_key if top else lambda a, levels=scope[:2]: _key(a, levels))
        out = state_of_atoms(atoms)
    else:
        out = scope_walk(t, scope, _norm, _bind_norm, _bare)[0]
    if top:
        out.__dict__["_normal"] = True
    return out


def _bind_norm(name: Name, role: str, scope):
    levels, depth, sub = scope
    if sub is not None:
        new = fresh_name(name.text)
        sub = {**sub, name.uid: (TVar(new), False)}
        name = new
    return name, ({**levels, name.uid: depth}, depth + 1, sub)


def _bare(t: Tree, vals: list) -> Tree:
    return t.__class__(*vals)


_KEYED = (OUT, IN, TELE, KEEP)


def _key(t: Tree, scope):
    if t.__class__ is TVar:
        levels, uid = scope[0], t.name.uid
        return ("b", levels[uid]) if uid in levels else ("f", t.name.text, uid)
    return scope_walk(t, scope, _key, _bind_level, _key_of)[0]


def _bind_level(name: Name, role: str, scope):
    levels, depth = scope
    return name, ({**levels, name.uid: depth}, depth + 1)


def _key_of(t: Tree, vals: list):
    parts = [vals[pos] for _, role, pos in LAYOUT[t.__class__].fields if role in _KEYED]
    if t.__class__ is BTVar or t.__class__ is BVal:
        return parts[0]
    return (t.__class__.__name__, *parts)
