"""Type normalization and conversion.

normalize exhaustively applies type-level beta reduction, projection of
domain merges, and dual-pushing; it also flattens states, drops empty
units, and sorts state bindings by an alpha-invariant key so conversion
treats states as multisets. The rewrite system terminates: each rule is
size-reducing (see docs/normalization.md).

A normal form is known by identity: every tree that `_norm` returns at the
top (scope depth 0) is marked, and normalizing a marked tree returns it as
it is. Only top-level results are marked, as a tree normalized under a
binder orders its states by the binder's level (docs/normalization.md).

The sort key is the one alpha-invariant form: bound variables key as their
de Bruijn levels and free ones as their names, so on types two trees have
equal keys exactly when they are alpha-equivalent. Conversion is
alpha-equivalence of normal forms, so `conv` compares `conv_key`s: the key
of a type's normal form, taken at the top, computed once and kept on the
type and on its normal form. A key taken under a binder depends on the
binder and is never kept.
"""

from __future__ import annotations

from .ast import (
    IN,
    KEEP,
    LAYOUT,
    OUT,
    TELE,
    BTVar,
    BVal,
    DomMerge,
    DomProj,
    Label,
    Name,
    StEmpty,
    StMerge,
    TApp,
    TBranch,
    TChoice,
    TDual,
    TEnd,
    TLam,
    TRecv,
    TSend,
    TVar,
    Tree,
    Type,
    scope_walk,
    state_atoms,
    state_of_atoms,
    subst1,
)

# A Type with no beta/projection redexes, duals pushed to variables, and
# states in canonical (flattened, sorted) form.
NormalType = Type

_Scope = tuple[dict[int, int], int]  # binder uid -> de Bruijn level; binders in scope
_TOP: _Scope = ({}, 0)


def normalize(t: Type) -> NormalType:
    return _norm(t, _TOP)


def conv(t1: Type, t2: Type) -> bool:
    """Decides the conversion relation: alpha-equivalence of normal forms."""
    return conv_key(t1) == conv_key(t2)


def conv_key(t: Type):
    """The key of t's normal form, taken at the top: two types are
    convertible exactly when their keys are equal. Computed once and kept
    on t and on its normal form."""
    k = t._canon
    if k is None:
        nf = normalize(t)
        k = nf._canon
        if k is None:
            k = _key(nf, _TOP)
        t.__dict__["_canon"] = nf.__dict__["_canon"] = k
    return k


def dual(s: Type) -> NormalType:
    return normalize(TDual(s))


# ---------------------------------------------------------------------------


def _norm(t: Type, scope: _Scope) -> Type:
    if not LAYOUT[t.__class__].children:
        return t  # leaves are normal and keep their spans
    top = scope is _TOP  # _bind_level makes a new scope for each binder
    if top and t._normal:
        return t
    match t:
        case TApp(fn, arg):
            nf = _norm(fn, scope)
            na = _norm(arg, scope)
            if isinstance(nf, TLam):
                out = _norm(subst1(nf.binder, na, nf.body), scope)
            else:
                out = TApp(nf, na)
        case TDual(s):
            out = _dual_push(_norm(s, scope))
        case DomProj(lab, dom):
            nd = _norm(dom, scope)
            if isinstance(nd, DomMerge):
                out = nd.left if lab is Label.L1 else nd.right
            else:
                out = DomProj(lab, nd)
        case StMerge():
            atoms: list[Type] = []
            for a in state_atoms(t):
                atoms.extend(state_atoms(_norm(a, scope)))  # normalization may expose merges
            atoms = [a for a in atoms if not isinstance(a, StEmpty)]
            # each atom is normal under this scope; only a top key is kept
            atoms.sort(key=conv_key if top else lambda a: _key(a, scope))
            out = state_of_atoms(atoms)
        case _:
            # every other node: congruence, scoped by the table
            out = scope_walk(t, scope, _norm, _bind_level, _bare)[0]
    if top:
        out.__dict__["_normal"] = True
    return out


def _bind_level(name: Name, role: str, scope: _Scope) -> tuple[Name, _Scope]:
    levels, depth = scope
    return name, ({**levels, name.uid: depth}, depth + 1)


def _bare(t: Tree, vals: list) -> Tree:
    """t rebuilt from new field values; normal forms carry no spans."""
    return t.__class__(*vals)


def _dual_push(s: Type) -> Type:
    """Dual of an already-normal session; stays stuck on variables."""
    match s:
        case TEnd():
            return TEnd()
        case TSend(binder, shape, state, payload, cont):
            return TRecv(binder, shape, state, payload, _dual_push(cont))
        case TRecv(binder, shape, state, payload, cont):
            return TSend(binder, shape, state, payload, _dual_push(cont))
        case TChoice(l, r):
            return TBranch(_dual_push(l), _dual_push(r))
        case TBranch(l, r):
            return TChoice(_dual_push(l), _dual_push(r))
        case TDual(inner) if isinstance(inner, TVar):
            return inner  # involution
        case _:
            return TDual(s)  # stuck


# ---------------------------------------------------------------------------
# alpha-invariant ordering key (de Bruijn levels for bound, uid for free)
# ---------------------------------------------------------------------------

_KEYED = (OUT, IN, TELE, KEEP)


def _key(t: Tree, scope: _Scope):
    if t.__class__ is TVar:
        levels, uid = scope[0], t.name.uid
        return ("b", levels[uid]) if uid in levels else ("f", t.name.text, uid)
    return scope_walk(t, scope, _key, _bind_level, _key_of)[0]


def _key_of(t: Tree, vals: list):
    """The class name, then the keys of the children and the kept fields;
    a telescope binding keys as its annotation."""
    parts = [vals[pos] for _, role, pos in LAYOUT[t.__class__].fields if role in _KEYED]
    if t.__class__ is BTVar or t.__class__ is BVal:
        return parts[0]
    return (t.__class__.__name__, *parts)
