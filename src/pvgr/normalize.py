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

`instantiate(t, s)` is `normalize(subst(s, t))` in one pass, and so is a
beta step (docs/normalization.md, "Instantiation in one pass").

`_norm` and `_dual_push` pick their rewrite from the node's class by
identity, as `pvgr.kinding` does, and for the same reason.
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
    Subst,
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
    fresh_name,
    insert,
    replacements,
    scope_walk,
    state_atoms,
    state_of_atoms,
)

# A Type with no beta/projection redexes, duals pushed to variables, and
# states in canonical (flattened, sorted) form.
NormalType = Type

_Levels = tuple[dict[int, int], int]  # binder uid -> de Bruijn level; binders in scope
_Scope = tuple[dict[int, int], int, "dict | None"]  # and the substitution, if any
_TOP: _Scope = ({}, 0, None)


def normalize(t: Type) -> NormalType:
    return _norm(t, _TOP)


def instantiate(t: Type, s: Subst) -> NormalType:
    """normalize(subst(s, t)) in one pass, for a substitution whose
    replacements are normal forms (docs/normalization.md)."""
    out = _norm(t, ({}, 0, replacements(s)))
    out.__dict__["_normal"] = True  # also a replacement put in at the top
    return out


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
            k = _key(nf, ({}, 0))
        t.__dict__["_canon"] = nf.__dict__["_canon"] = k
    return k


def dual(s: Type) -> NormalType:
    return normalize(TDual(s))


# ---------------------------------------------------------------------------


def _norm(t: Type, scope: _Scope) -> Type:
    cls = t.__class__
    if not LAYOUT[cls].children:
        if cls is TVar and scope[2]:
            hit = scope[2].get(t.name.uid)
            if hit is not None:
                return insert(hit)  # a normal form, at any depth
        return t  # leaves are normal and keep their spans
    if scope is _TOP and t._normal:  # under a substitution, nothing is skipped
        return t
    top = not scope[1]
    if cls is TApp:
        hit = scope[2] and t.fn.__class__ is TVar and scope[2].get(t.fn.name.uid)
        # a function put in place is reduced at once: beta renames its body
        nf = hit[0] if hit and hit[0].__class__ is TLam else _norm(t.fn, scope)
        na = _norm(t.arg, scope)
        if nf.__class__ is TLam:
            # beta: the normal body walked again, the binder replaced
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
            atoms.extend(state_atoms(_norm(a, scope)))  # normalization may expose merges
        atoms = [a for a in atoms if not isinstance(a, StEmpty)]
        # each atom is normal under this scope; only a top key is kept
        atoms.sort(key=conv_key if top else lambda a, levels=scope[:2]: _key(a, levels))
        out = state_of_atoms(atoms)
    else:
        # every other node: congruence, scoped by the table
        out = scope_walk(t, scope, _norm, _bind_norm, _bare)[0]
    if top:
        out.__dict__["_normal"] = True
    return out


def _bind_norm(name: Name, role: str, scope: _Scope) -> tuple[Name, _Scope]:
    """A binder's level; under a substitution, also a fresh name, as `subst` gives."""
    levels, depth, sub = scope
    if sub is not None:
        new = fresh_name(name.text)
        sub = {**sub, name.uid: (TVar(new), False)}
        name = new
    return name, ({**levels, name.uid: depth}, depth + 1, sub)


def _bare(t: Tree, vals: list) -> Tree:
    """t rebuilt from new field values; normal forms carry no spans."""
    return t.__class__(*vals)


def _dual_push(s: Type) -> Type:
    """Dual of an already-normal session; stays stuck on variables."""
    cls = s.__class__
    if cls is TEnd:
        return TEnd()
    if cls is TSend:
        return TRecv(s.binder, s.shape, s.state, s.payload, _dual_push(s.cont))
    if cls is TRecv:
        return TSend(s.binder, s.shape, s.state, s.payload, _dual_push(s.cont))
    if cls is TChoice:
        return TBranch(_dual_push(s.left), _dual_push(s.right))
    if cls is TBranch:
        return TChoice(_dual_push(s.left), _dual_push(s.right))
    if cls is TDual and s.ses.__class__ is TVar:
        return s.ses  # involution
    return TDual(s)  # stuck


# ---------------------------------------------------------------------------
# alpha-invariant ordering key (de Bruijn levels for bound, uid for free)
# ---------------------------------------------------------------------------

_KEYED = (OUT, IN, TELE, KEEP)


def _key(t: Tree, scope: _Levels):
    if t.__class__ is TVar:
        levels, uid = scope[0], t.name.uid
        return ("b", levels[uid]) if uid in levels else ("f", t.name.text, uid)
    return scope_walk(t, scope, _key, _bind_level, _key_of)[0]


def _bind_level(name: Name, role: str, scope: _Levels) -> tuple[Name, _Levels]:
    levels, depth = scope
    return name, ({**levels, name.uid: depth}, depth + 1)


def _key_of(t: Tree, vals: list):
    """The class name, then the keys of the children and the kept fields;
    a telescope binding keys as its annotation."""
    parts = [vals[pos] for _, role, pos in LAYOUT[t.__class__].fields if role in _KEYED]
    if t.__class__ is BTVar or t.__class__ is BVal:
        return parts[0]
    return (t.__class__.__name__, *parts)
