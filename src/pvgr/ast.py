"""Abstract syntax for the pvgr calculus.

A single Type tree covers expression types, session types, shapes, domains
and states; kinding is what tells the categories apart (TPair, for one, is
both a pair of types and a pair of shapes). Binders carry globally unique
names (the hygiene invariant), established by the parser and
re-established by substitution, so scope handling never needs capture
checks.

A node class declares its fields once, as annotations in its body; a
field whose annotation assigns a value takes it as its default.
`Record.__init_subclass__` reads the annotations into `_fields` and gives
the class its constructor, equality, hash, repr and positional `match`
patterns, compiling the first three once per shape (field names, and
whether a span is taken); each class's functions over that code have the
file name `<record ClassName>`, so a profiler counts them class by class.
`SCOPES` names fields of the binder forms, and `LAYOUT` reads
`_fields` for every field's declaration position, for the role of each
field that `SCOPES` does not list, and for the fields that hold an
expression or a value (the operands `pvgr.anf` walks).

A node's `span` is a `Span`: the token it starts at, which is also that
token's location. The parser builds it from the scanner's flat lists the
first time a node or a diagnostic keeps that token, and only then.

The scope table `SCOPES` is the one statement of binder scoping: free
variables, substitution, canonical renaming and normalization all walk
trees through it with `scope_walk`, and existential matching
(`typing._match`) walks pairs of trees through its `LAYOUT`. Each walk is
a module-level function that carries its state (the names bound, the
substitution, how to name a binder) in the scope it hands `scope_walk`.
`free_vars` and `subst` follow a let-spine's bodies in a loop, not one
recursion per `let`.
A nested function that calls itself refers to itself through its closure
cell, so each call of such a walk would leave a reference cycle behind
for the cyclic collector; these walks leave none, and what they build is
freed by reference counting.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from types import FunctionType
from typing import Iterator, NamedTuple, Union


# ---------------------------------------------------------------------------
# records: names, spans, nodes
# ---------------------------------------------------------------------------

_METHODS = """
def __init__(self, {params}):
    d = self.__dict__
    {stores}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""
_COMPILED: dict = {}  # (field names, spanned) -> the namespace _METHODS ran in for that shape


class Record:
    """An immutable record whose fields are its class's annotations.

    Defining a subclass appends its annotations to its base's `_fields`
    (field name -> annotation text, in declaration order) and compiles an
    `__init__`, `__eq__` and `__hash__` for exactly those fields, as
    `dataclasses` would; classes of one shape share that code, each with
    its own functions and defaults. The constructor writes the fields
    straight into the instance's `__dict__`, past the `__setattr__` that
    freezes them.
    A field's default is the value its annotation assigns; fields with a
    default come last. Equality and hash are those of the tuple of fields,
    between instances of one class. Node classes also take a keyword-only
    `span`, which equality, hash and repr leave out.
    """

    _fields = {}  # not annotated, as every annotation declares a field
    _spanned = False

    def __init_subclass__(cls) -> None:
        cls._fields = {**cls._fields, **cls.__dict__.get("__annotations__", {})}
        names = cls.__match_args__ = tuple(cls._fields)
        methods = _COMPILED.setdefault((names, cls._spanned), {})
        if not methods:  # the first class of its shape
            params, stored = (names + ("*", "span=None"), names + ("span",)) if cls._spanned else (names, names)
            source = _METHODS.format(
                params=", ".join(params),
                stores="\n    ".join(f"d[{f!r}] = {f}" for f in stored),
                mine="".join(f"self.{f}, " for f in names),
                theirs="".join(f"other.{f}, " for f in names),
            )
            exec(compile(source, "<record>", "exec"), methods)
        filename = f"<record {cls.__qualname__}>"
        init, eq, hash_ = (
            FunctionType(methods[m].__code__.replace(co_filename=filename), methods)
            for m in ("__init__", "__eq__", "__hash__")
        )
        init.__defaults__ = tuple(getattr(cls, f) for f in names if hasattr(cls, f)) or None
        init.__kwdefaults__ = {"span": None} if cls._spanned else None
        cls.__init__, cls.__eq__, cls.__hash__ = init, eq, hash_

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(t: Node, **changes) -> Node:
    """t with the given fields changed, keeping its span."""
    return t.__class__(**{**{f: getattr(t, f) for f in t._fields}, **changes}, span=t.span)


_uid_counter = itertools.count(1)


class Name(Record):
    """Identifier with a globally unique id; `text` is for printing only."""

    text: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"


def fresh_name(text: str) -> Name:
    return Name(text, next(_uid_counter))


class Span:
    """A token, which is also its own source location: the parser builds
    one for a token that a node or a diagnostic keeps, once, and a node's
    `span` is the token it starts at. `kind` is 'ident', 'num', 'eof', or a
    keyword's or punctuation mark's text; a span built elsewhere has kind
    and text ''. Equality, hash and repr are those of the location."""

    __slots__ = ("file", "start", "end", "line", "col", "kind", "text")

    def __init__(self, file: str, start: int, end: int, line: int, col: int, kind: str = "", text: str = ""):
        # one store a line: cheaper than unpacking a tuple of seven
        self.file = file
        self.start = start
        self.end = end
        self.line = line
        self.col = col
        self.kind = kind
        self.text = text

    def _loc(self) -> tuple:
        return (self.file, self.start, self.end, self.line, self.col)

    def __eq__(self, other):
        return self._loc() == other._loc() if other.__class__ is Span else NotImplemented

    def __hash__(self) -> int:
        return hash(self._loc())

    def __repr__(self) -> str:
        return "Span(file={!r}, start={!r}, end={!r}, line={!r}, col={!r})".format(*self._loc())

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class Node(Record):
    """A syntax tree node: its fields, and a keyword-only source `span`."""

    _spanned = True
    # pvgr.normalize sets these in the instance's __dict__: the mark of a
    # top-level normal form it returns, and, once conversion has needed
    # it, the alpha-invariant key of the node's normal form taken at the
    # top (`normalize.conv_key`). A key taken under a binder is never kept.
    _normal = False
    _canon = None


class Label(IntEnum):
    L1 = 1
    L2 = 2


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


class Kind(Node):
    pass


class KType(Kind):
    pass


class KSession(Kind):
    pass


class KState(Kind):
    pass


class KShape(Kind):
    pass


class KDom(Kind):
    """Domain kind indexed by a shape (a Type of kind Shape)."""

    shape: "Type"


class KArrow(Kind):
    src: Kind
    dst: Kind


# ---------------------------------------------------------------------------
# types (one tree for T / S / shapes / domains / states)
# ---------------------------------------------------------------------------


class Type(Node):
    pass


class TVar(Type):
    name: Name


class TApp(Type):
    fn: Type
    arg: Type


class TLam(Type):
    """Type-level function over a domain: \\a:shape. body."""

    binder: Name
    shape: Type
    body: Type


class TAll(Type):
    """Constrained universal: forall a:kind[cstr]. body."""

    binder: Name
    kind: Kind
    cstr: tuple["BDisjoint", ...]
    body: Type


class TArr(Type):
    """Function type [pre; arg -> ex exctx. post; res]."""

    pre: Type
    arg: Type
    exctx: tuple["Binding", ...]
    post: Type
    res: Type


class TChan(Type):
    dom: Type


class TAccess(Type):
    """Access point type AP(S)."""

    ses: Type


class TUnit(Type):
    pass


class TPair(Type):
    left: Type
    right: Type


class TSend(Type):
    """Session !{binder:Dom(shape)}(state; payload).cont.

    binder scopes over state and payload, not over cont.
    """

    binder: Name
    shape: Type
    state: Type
    payload: Type
    cont: Type


class TRecv(Type):
    binder: Name
    shape: Type
    state: Type
    payload: Type
    cont: Type


class TChoice(Type):
    left: Type
    right: Type


class TBranch(Type):
    left: Type
    right: Type


class TEnd(Type):
    pass


class TDual(Type):
    ses: Type


class ShZero(Type):
    pass


class ShOne(Type):
    pass


class DomZero(Type):
    pass


class DomMerge(Type):
    left: Type
    right: Type


class DomProj(Type):
    label: Label
    dom: Type


class StEmpty(Type):
    pass


class StBind(Type):
    dom: Type
    ses: Type


class StMerge(Type):
    left: Type
    right: Type


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class Binding(Node):
    pass


class BTVar(Binding):
    name: Name
    kind: Kind


class BVal(Binding):
    name: Name
    type: Type


class BDisjoint(Binding):
    left: Type
    right: Type


Ctx = tuple[Binding, ...]
ConstraintSet = tuple[BDisjoint, ...]


# ---------------------------------------------------------------------------
# expressions and values
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


class Value(Node):
    pass


class EVal(Expr):
    value: Value


class ELet(Expr):
    """let [exnames] binder = head in body; exnames (optional sugar) name
    the leading existential binders of the header's typing package so the
    body can mention them in type applications."""

    binder: Name
    head: Expr
    body: Expr
    exnames: tuple[Name, ...] = ()


class EApp(Expr):
    fn: Value
    arg: Value


class EProj(Expr):
    label: Label
    value: Value


class ETApp(Expr):
    value: Value
    type: Type


class EFork(Expr):
    value: Value


class ENew(Expr):
    ses: Type


class EAccept(Expr):
    value: Value


class ERequest(Expr):
    value: Value


class ESend(Expr):
    payload: Value
    chan: Value


class ERecv(Expr):
    value: Value


class ESelect(Expr):
    label: Label
    value: Value


class ECase(Expr):
    value: Value
    left: Expr
    right: Expr


class EClose(Expr):
    value: Value


class VVar(Value):
    name: Name


class VChan(Value):
    dom: Type


class VUnit(Value):
    pass


class VPair(Value):
    left: Value
    right: Value


class VAbs(Value):
    """\\[pre](binder:argty). body"""

    pre: Type
    binder: Name
    argty: Type
    body: Expr


class VTAbs(Value):
    """/\\binder:kind[cstr]. body (body restricted to a syntactic value)."""

    binder: Name
    kind: Kind
    cstr: tuple[BDisjoint, ...]
    body: Value


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


class Config(Node):
    pass


class CProc(Config):
    expr: Expr


class CPar(Config):
    left: Config
    right: Config


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
    operands: tuple[tuple[str, bool], ...]  # Expr and Value fields, each with whether it holds an Expr


class _LayoutCache(dict):
    def __missing__(self, cls: type) -> Layout:
        pos = {name: i for i, name in enumerate(cls._fields)}
        roles = SCOPES.get(cls) or [(f, KEEP if ann == "Label" else OUT) for f, ann in cls._fields.items()]
        fields = tuple((name, role, pos[name]) for name, role in roles)
        layout = self[cls] = Layout(
            fields,
            tuple(name for name, role, _ in fields if role in (OUT, IN, TELE)),
            any(role in (TBIND, VBIND, TBINDS, TELE) for _, role, _ in fields),
            tuple((f, ann == "Expr") for f, ann in cls._fields.items() if ann in ("Expr", "Value")),
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
    layout = LAYOUT[t.__class__]
    return layout.binds or bool(layout.children) and any(_has_binders(c) for c in children(t))


# ---------------------------------------------------------------------------
# free variables, substitution, canonical alpha-renaming
# ---------------------------------------------------------------------------


def free_vars(t: Tree) -> set[Name]:
    """Identifiers with no enclosing binder in t (type and value vars alike)."""
    out: set[Name] = set()
    _free(t, (frozenset(), out))
    return out


def _free(t: Tree, scope: tuple[frozenset[int], set[Name]]) -> None:
    """free_vars' walk: the scope is the uids bound around t, and the set
    that collects the free names."""
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


def _rebuild(t: Tree, vals: list) -> Tree:
    for name, _, pos in LAYOUT[t.__class__].fields:
        if vals[pos] is not getattr(t, name):
            return t.__class__(*vals, span=t.span)
    return t


_HOLE = EVal(VUnit())  # stands for a let's body while the let is renamed


def replacements(s: Subst) -> dict:
    """s with each replacement paired with whether it has binders."""
    return {uid: (r, _has_binders(r)) for uid, r in s.items()}


def insert(hit: tuple[Tree, bool]) -> Tree:
    """A replacement at one occurrence, its own binders made fresh."""
    return subst({}, hit[0]) if hit[1] else hit[0]


def _rename(t: Tree, scope: tuple[dict, object]) -> Tree:
    """The walk behind subst and canonicalize. Its scope maps a uid to the
    replacement of the variable (as `replacements` pairs it), and holds
    the function that names each binder."""
    if t.__class__ is TVar or t.__class__ is VVar:
        hit = scope[0].get(t.name.uid)
        return t if hit is None else insert(hit)
    if t.__class__ is not ELet:
        return scope_walk(t, scope, _rename, _bind_rename, _rebuild)[0]
    lets = []  # a let-spine, in a loop: scope_walk renames each let but its body
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
    """Simultaneous capture-avoiding substitution.

    Every binder along the way is freshened, and so are binders inside
    substituted payloads, which re-establishes the hygiene invariant even
    when one payload is inserted at several sites.
    """
    return _rename(t, (replacements(s), _fresh_like))


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

    return _rename(t, ({}, cname))


def alpha_equiv(a: Tree, b: Tree) -> bool:
    """Structural equality up to renaming of bound names."""
    return canonicalize(a) == canonicalize(b)


# states as lists of atoms ---------------------------------------------------


def state_atoms(st: Type) -> list[Type]:
    """Flatten a state into bindings / opaque atoms (vars, stuck applications)."""
    cls = st.__class__
    if cls is StEmpty:
        return []
    if cls is StMerge:
        return state_atoms(st.left) + state_atoms(st.right)
    return [st]


def plain_step(t: Type) -> bool:
    """t is a send or receive that transfers no channel, `!T.S` or `?T.S`:
    its binder has shape 0, its state is `.`, and its payload does not
    mention the binder. Its package then has one instance, `{}`."""
    return (
        (t.__class__ is TSend or t.__class__ is TRecv)
        and t.shape.__class__ is ShZero
        and t.state.__class__ is StEmpty
        and t.binder not in free_vars(t.payload)
    )


def state_of_atoms(atoms: list[Type]) -> Type:
    """The atoms merged, nested to the right as normalize nests them; `.`
    when there are none."""
    if not atoms:
        return StEmpty()
    out = atoms[-1]
    for a in reversed(atoms[:-1]):
        out = StMerge(a, out)
    return out
