"""Abstract syntax for the pvgr calculus.

A single Type tree covers expression types, session types, shapes, domains
and states; kinding is what tells the categories apart (TPair, for one, is
both a pair of types and a pair of shapes). Binders carry globally unique
names (the hygiene invariant), established by the parser and
re-established by substitution, so scope handling never needs capture
checks.

The scope table `SCOPES` is the one statement of binder scoping: free
variables, substitution, canonical renaming and normalization all walk
trees through it with `scope_walk`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple, Union


# ---------------------------------------------------------------------------
# names, spans
# ---------------------------------------------------------------------------

_uid_counter = itertools.count(1)


@dataclass(frozen=True)
class Name:
    """Identifier with a globally unique id; `text` is for printing only."""

    text: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"


def fresh_name(text: str) -> Name:
    return Name(text, next(_uid_counter))


@dataclass(frozen=True)
class Span:
    file: str
    start: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Node:
    span: Span | None = field(default=None, compare=False, repr=False, kw_only=True)


class Label(IntEnum):
    L1 = 1
    L2 = 2

    def other(self) -> "Label":
        return Label.L2 if self is Label.L1 else Label.L1


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind(Node):
    pass


@dataclass(frozen=True)
class KType(Kind):
    pass


@dataclass(frozen=True)
class KSession(Kind):
    pass


@dataclass(frozen=True)
class KState(Kind):
    pass


@dataclass(frozen=True)
class KShape(Kind):
    pass


@dataclass(frozen=True)
class KDom(Kind):
    """Domain kind indexed by a shape (a Type of kind Shape)."""

    shape: "Type"


@dataclass(frozen=True)
class KArrow(Kind):
    src: Kind
    dst: Kind


# ---------------------------------------------------------------------------
# types (one tree for T / S / shapes / domains / states)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type(Node):
    pass


@dataclass(frozen=True)
class TVar(Type):
    name: Name


@dataclass(frozen=True)
class TApp(Type):
    fn: Type
    arg: Type


@dataclass(frozen=True)
class TLam(Type):
    """Type-level function over a domain: \\a:shape. body."""

    binder: Name
    shape: Type
    body: Type


@dataclass(frozen=True)
class TAll(Type):
    """Constrained universal: forall a:kind[cstr]. body."""

    binder: Name
    kind: Kind
    cstr: tuple["BDisjoint", ...]
    body: Type


@dataclass(frozen=True)
class TArr(Type):
    """Function type [pre; arg -> ex exctx. post; res]."""

    pre: Type
    arg: Type
    exctx: tuple["Binding", ...]
    post: Type
    res: Type


@dataclass(frozen=True)
class TChan(Type):
    dom: Type


@dataclass(frozen=True)
class TAccess(Type):
    """Access point type AP(S)."""

    ses: Type


@dataclass(frozen=True)
class TUnit(Type):
    pass


@dataclass(frozen=True)
class TPair(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TSend(Type):
    """Session !{binder:Dom(shape)}(state; payload).cont.

    binder scopes over state and payload, not over cont.
    """

    binder: Name
    shape: Type
    state: Type
    payload: Type
    cont: Type


@dataclass(frozen=True)
class TRecv(Type):
    binder: Name
    shape: Type
    state: Type
    payload: Type
    cont: Type


@dataclass(frozen=True)
class TChoice(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TBranch(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TEnd(Type):
    pass


@dataclass(frozen=True)
class TDual(Type):
    ses: Type


@dataclass(frozen=True)
class ShZero(Type):
    pass


@dataclass(frozen=True)
class ShOne(Type):
    pass


@dataclass(frozen=True)
class DomZero(Type):
    pass


@dataclass(frozen=True)
class DomMerge(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class DomProj(Type):
    label: Label
    dom: Type


@dataclass(frozen=True)
class StEmpty(Type):
    pass


@dataclass(frozen=True)
class StBind(Type):
    dom: Type
    ses: Type


@dataclass(frozen=True)
class StMerge(Type):
    left: Type
    right: Type


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binding(Node):
    pass


@dataclass(frozen=True)
class BTVar(Binding):
    name: Name
    kind: Kind


@dataclass(frozen=True)
class BVal(Binding):
    name: Name
    type: Type


@dataclass(frozen=True)
class BDisjoint(Binding):
    left: Type
    right: Type


Ctx = tuple[Binding, ...]
ConstraintSet = tuple[BDisjoint, ...]


# ---------------------------------------------------------------------------
# expressions and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Value(Node):
    pass


@dataclass(frozen=True)
class EVal(Expr):
    value: Value


@dataclass(frozen=True)
class ELet(Expr):
    """let [exnames] binder = head in body; exnames (optional sugar) name
    the leading existential binders of the header's typing package so the
    body can mention them in type applications."""

    binder: Name
    head: Expr
    body: Expr
    exnames: tuple[Name, ...] = ()


@dataclass(frozen=True)
class EApp(Expr):
    fn: Value
    arg: Value


@dataclass(frozen=True)
class EProj(Expr):
    label: Label
    value: Value


@dataclass(frozen=True)
class ETApp(Expr):
    value: Value
    type: Type


@dataclass(frozen=True)
class EFork(Expr):
    value: Value


@dataclass(frozen=True)
class ENew(Expr):
    ses: Type


@dataclass(frozen=True)
class EAccept(Expr):
    value: Value


@dataclass(frozen=True)
class ERequest(Expr):
    value: Value


@dataclass(frozen=True)
class ESend(Expr):
    payload: Value
    chan: Value


@dataclass(frozen=True)
class ERecv(Expr):
    value: Value


@dataclass(frozen=True)
class ESelect(Expr):
    label: Label
    value: Value


@dataclass(frozen=True)
class ECase(Expr):
    value: Value
    left: Expr
    right: Expr


@dataclass(frozen=True)
class EClose(Expr):
    value: Value


@dataclass(frozen=True)
class VVar(Value):
    name: Name


@dataclass(frozen=True)
class VChan(Value):
    dom: Type


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VPair(Value):
    left: Value
    right: Value


@dataclass(frozen=True)
class VAbs(Value):
    """\\[pre](binder:argty). body"""

    pre: Type
    binder: Name
    argty: Type
    body: Expr


@dataclass(frozen=True)
class VTAbs(Value):
    """/\\binder:kind[cstr]. body (body restricted to a syntactic value)."""

    binder: Name
    kind: Kind
    cstr: tuple[BDisjoint, ...]
    body: Value


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config(Node):
    pass


@dataclass(frozen=True)
class CProc(Config):
    expr: Expr


@dataclass(frozen=True)
class CPar(Config):
    left: Config
    right: Config


@dataclass(frozen=True)
class CNuChan(Config):
    """Channel binder over both ends; end1 carries `ses`, end2 its dual.

    `closed` marks a channel whose close rendezvous already happened: the
    binder stays (dead references may remain) but no longer contributes
    state.
    """

    end1: Name
    end2: Name
    ses: Type
    body: Config
    closed: bool = False


@dataclass(frozen=True)
class CNuAccess(Config):
    binder: Name
    ses: Type
    body: Config


Tree = Union[Kind, Type, Binding, Expr, Value, Config]
Subst = dict[int, Union[Type, Value]]


# ---------------------------------------------------------------------------
# binder scoping
# ---------------------------------------------------------------------------

# The scope role of a node field.
OUT = "out"  # child seen from the scope around the node
IN = "in"  # child, or tuple of children, also under the binders listed before it
TBIND = "tbind"  # name bound as a type variable (its occurrences are TVar)
VBIND = "vbind"  # name bound as a value variable (its occurrences are VVar)
TBINDS = "tbinds"  # tuple of names bound as type variables
TELE = "tele"  # bindings whose names scope over later bindings and the IN fields
KEEP = "keep"  # carried over as is
VAR = "var"  # the name of a variable occurrence

SCOPES: dict[type, tuple[tuple[str, str], ...]] = {
    TVar: (("name", VAR),),
    VVar: (("name", VAR),),
    TLam: (("shape", OUT), ("binder", TBIND), ("body", IN)),
    TAll: (("kind", OUT), ("binder", TBIND), ("cstr", IN), ("body", IN)),
    TArr: (("pre", OUT), ("arg", OUT), ("exctx", TELE), ("post", IN), ("res", IN)),
    TSend: (("shape", OUT), ("binder", TBIND), ("state", IN), ("payload", IN), ("cont", OUT)),
    TRecv: (("shape", OUT), ("binder", TBIND), ("state", IN), ("payload", IN), ("cont", OUT)),
    BTVar: (("name", TBIND), ("kind", OUT)),
    BVal: (("name", VBIND), ("type", OUT)),
    ELet: (("head", OUT), ("binder", VBIND), ("exnames", TBINDS), ("body", IN)),
    VAbs: (("pre", OUT), ("argty", OUT), ("binder", VBIND), ("body", IN)),
    VTAbs: (("kind", OUT), ("binder", TBIND), ("cstr", IN), ("body", IN)),
    CNuChan: (("ses", OUT), ("end1", TBIND), ("end2", TBIND), ("body", IN), ("closed", KEEP)),
    CNuAccess: (("ses", OUT), ("binder", VBIND), ("body", IN)),
}
"""Every class with a name field, and its non-span fields in scoping order.

Binders are numbered and renamed in this order. Every other class has
only OUT children and KEEP labels.
"""


class Layout(NamedTuple):
    fields: tuple[tuple[str, str, int], ...]  # (name, role, declaration position)
    children: tuple[str, ...]  # fields holding a child or a tuple of them
    binds: bool


class _LayoutCache(dict):
    def __missing__(self, cls: type) -> Layout:
        decl = [f for f in dataclasses.fields(cls) if f.name != "span"]
        pos = {f.name: i for i, f in enumerate(decl)}
        roles = SCOPES.get(cls) or [(f.name, KEEP if f.type == "Label" else OUT) for f in decl]
        fields = tuple((name, role, pos[name]) for name, role in roles)
        layout = self[cls] = Layout(
            fields,
            tuple(name for name, role, _ in fields if role in (OUT, IN, TELE)),
            any(role in (TBIND, VBIND, TBINDS, TELE) for _, role, _ in fields),
        )
        return layout


LAYOUT: dict[type, Layout] = _LayoutCache()
"""The scope table of every node class, derived once per class."""


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


def children(t: Tree) -> Iterator[Tree]:
    """All direct subtrees, including bindings inside tuples."""
    for name in LAYOUT[t.__class__].children:
        v = getattr(t, name)
        if v.__class__ is tuple:
            yield from v
        else:
            yield v


def size(t: Tree) -> int:
    return 1 + sum(size(c) for c in children(t))


def _has_binders(t: Tree) -> bool:
    return LAYOUT[t.__class__].binds or any(_has_binders(c) for c in children(t))


# ---------------------------------------------------------------------------
# free variables, substitution, canonical alpha-renaming
# ---------------------------------------------------------------------------


def free_vars(t: Tree) -> set[Name]:
    """Identifiers with no enclosing binder in t (type and value vars alike)."""
    out: set[Name] = set()

    def go(t: Tree, bound: frozenset[int]) -> None:
        if t.__class__ is TVar or t.__class__ is VVar:
            if t.name.uid not in bound:
                out.add(t.name)
        else:
            scope_walk(t, bound, go, bind, _discard)

    def bind(name: Name, role: str, bound: frozenset[int]):
        return name, bound | {name.uid}

    go(t, frozenset())
    return out


def _discard(t: Tree, vals: list) -> None:
    return None


def _rebuild(t: Tree, vals: list) -> Tree:
    for name, _, pos in LAYOUT[t.__class__].fields:
        if vals[pos] is not getattr(t, name):
            return t.__class__(*vals, span=t.span)
    return t


def _renaming(new_name):
    """The walk behind subst and canonicalize. Its scope maps a uid to the
    tree that replaces the variable; new_name(binder) names each binder."""

    def go(t: Tree, s: Subst) -> Tree:
        if t.__class__ is TVar or t.__class__ is VVar:
            r = s.get(t.name.uid)
            if r is None:
                return t
            # freshen the payload's own binders per insertion site
            return subst({}, r) if _has_binders(r) else r
        return scope_walk(t, s, go, bind, _rebuild)[0]

    def bind(name: Name, role: str, s: Subst):
        new = new_name(name)
        return new, {**s, name.uid: (TVar if role is TBIND else VVar)(new)}

    return go


def subst(s: Subst, t: Tree) -> Tree:
    """Simultaneous capture-avoiding substitution.

    Every binder along the way is freshened, and so are binders inside
    substituted payloads, which re-establishes the hygiene invariant even
    when one payload is inserted at several sites.
    """
    return _renaming(lambda n: fresh_name(n.text))(t, s)


def subst1(name: Name, replacement: Union[Type, Value], t: Tree) -> Tree:
    return subst({name.uid: replacement}, t)


def canonicalize(t: Tree) -> Tree:
    """Renumber binders in deterministic traversal order.

    Alpha-equivalent trees become structurally identical; free names are
    left untouched. Canonical names live in a negative uid space so they
    cannot collide with fresh ones.
    """
    counter = itertools.count()

    def cname(_: Name) -> Name:
        i = next(counter)
        return Name(f"?{i}", -1 - i)

    return _renaming(cname)(t, {})


def alpha_equiv(a: Tree, b: Tree) -> bool:
    """Structural equality up to renaming of bound names."""
    return canonicalize(a) == canonicalize(b)


# states as lists of atoms ---------------------------------------------------


def state_atoms(st: Type) -> list[Type]:
    """Flatten a state into bindings / opaque atoms (vars, stuck applications)."""
    match st:
        case StEmpty():
            return []
        case StMerge(l, r):
            return state_atoms(l) + state_atoms(r)
        case _:
            return [st]


def state_of_atoms(atoms: list[Type]) -> Type:
    out: Type = StEmpty()
    for a in atoms:
        out = a if isinstance(out, StEmpty) else StMerge(out, a)
    return out
