"""Deterministic pretty printer; output re-parses to an alpha-equivalent tree."""

from __future__ import annotations

from .ast import (
    BDisjoint,
    Binding,
    BTVar,
    BVal,
    DomMerge,
    DomProj,
    DomZero,
    EAccept,
    EApp,
    ECase,
    EClose,
    EFork,
    ELet,
    ENew,
    EProj,
    ERecv,
    ERequest,
    ESelect,
    ESend,
    ETApp,
    EVal,
    Expr,
    KDom,
    KSession,
    KShape,
    KState,
    KType,
    Kind,
    Name,
    ShOne,
    ShZero,
    StBind,
    StEmpty,
    StMerge,
    TAccess,
    TAll,
    TApp,
    TArr,
    TBranch,
    TChan,
    TChoice,
    TDual,
    TEnd,
    TLam,
    TPair,
    TSend,
    TUnit,
    TVar,
    Tree,
    Type,
    VAbs,
    VChan,
    VPair,
    VUnit,
    VVar,
    Value,
    plain_step,
    state_atoms,
)
from .parser import KINDS, OPERATIONS, TYPE_PREFIXES, TYPE_WORDS

# the parser's keyword tables, read from class to keyword
_KEYWORD = {cls: kw for table in (KINDS, TYPE_WORDS, TYPE_PREFIXES) for kw, cls in table.items()}
_KEYWORD.update(OPERATIONS)


class _Printer:
    """Tracks printed names so shadowing stays unambiguous in the output."""

    def __init__(self) -> None:
        self.printed: dict[int, str] = {}
        self.used: set[str] = set()

    def bind(self, nm: Name) -> str:
        text = nm.text or "_"
        while text in self.used:
            text += "'"
        self.printed[nm.uid] = text
        self.used.add(text)
        return text

    def var(self, nm: Name) -> str:
        return self.printed.get(nm.uid, nm.text)

    # -- kinds ---------------------------------------------------------------

    def kind(self, k: Kind) -> str:
        cls = k.__class__
        if cls is KType or cls is KSession or cls is KState or cls is KShape:
            return _KEYWORD[cls]
        if cls is KDom:
            return f"Dom({self.ty(k.shape)})"
        return f"({self.kind(k.src)} -> {self.kind(k.dst)})"

    # -- types -----------------------------------------------------------------

    def ty(self, t: Type) -> str:
        cls = t.__class__
        if cls is TChoice:
            return f"{self.ty_app(t.left)} +c {self.ty_app(t.right)}"
        if cls is TBranch:
            return f"{self.ty_app(t.left)} +b {self.ty_app(t.right)}"
        return self.ty_app(t)

    def ty_app(self, t: Type) -> str:
        if isinstance(t, TApp):
            arg = self.ty_atom(t.arg)
            if not self._juxtaposable(t.arg):
                arg = f"({self.ty(t.arg)})"
            return f"{self.ty_app(t.fn)} {arg}"
        return self.ty_atom(t)

    def _juxtaposable(self, t: Type) -> bool:
        """Argument forms the grammar accepts by juxtaposition."""
        cls = t.__class__
        if cls is TVar or cls is DomZero or cls is DomMerge or cls is TPair or cls is StBind:
            return True
        if cls is DomProj:
            return self._juxtaposable(t.dom)
        return False

    def ty_atom(self, t: Type) -> str:
        cls = t.__class__
        if cls is TVar:
            return self.var(t.name)
        if cls is TEnd or cls is TUnit:
            return _KEYWORD[cls]
        if cls is TDual:
            return f"{_KEYWORD[cls]} {self.ty_atom(t.ses)}"
        if cls is TChan:
            return f"{_KEYWORD[cls]} {self.ty_atom(t.dom)}"
        if cls is TAccess:
            return f"AP({self.ty(t.ses)})"
        if cls is TPair:
            return f"({self.ty(t.left)} * {self.ty(t.right)})"
        if cls is ShZero:
            return "0"
        if cls is ShOne:
            return "1"
        if cls is DomZero:
            return "{}"
        if cls is DomMerge:
            return f"({self.ty(t.left)}, {self.ty(t.right)})"
        if cls is DomProj:
            return f"pi{int(t.label)} {self.ty_atom(t.dom)}"
        if cls is StEmpty or cls is StBind or cls is StMerge:
            return self.state(t)
        if cls is TLam:
            sh = self.ty(t.shape)
            b = self.bind(t.binder)
            return f"(\\{b}:{sh}. {self.ty(t.body)})"
        if cls is TAll:
            k = self.kind(t.kind)
            b = self.bind(t.binder)
            cs = ", ".join(self.cstr(c) for c in t.cstr)
            return f"forall {b}:{k}[{cs}]. {self.ty(t.body)}"
        if cls is TArr:
            ex = self.bindings(t.exctx)
            return (
                f"[{self.state(t.pre)}; {self.ty(t.arg)} -> ex {ex}. "
                f"{self.state(t.post)}; {self.ty(t.res)}]"
            )
        if cls is TApp or cls is TChoice or cls is TBranch:
            return f"({self.ty(t)})"
        mark = "!" if isinstance(t, TSend) else "?"  # t is a TSend or a TRecv
        if plain_step(t):  # the sugar !T.S
            pay = self.ty_atom(t.payload)
            if pay[0] == "{":  # a `{` after the mark opens a binder
                pay = f"({pay})"
            return f"{mark}{pay}.{self.ty_atom(t.cont)}"
        sh = self.ty(t.shape)
        b = self.bind(t.binder)
        st = self.state(t.state)
        pay = self.ty(t.payload)
        return f"{mark}{{{b}:Dom({sh})}}({st}; {pay}).{self.ty_atom(t.cont)}"

    def state(self, st: Type) -> str:
        atoms = state_atoms(st)
        if not atoms:
            return "."
        parts = []
        binds: list[str] = []

        def flush() -> None:
            if binds:
                parts.append("{" + ", ".join(binds) + "}")
                binds.clear()

        for a in atoms:
            if isinstance(a, StBind):
                binds.append(f"{self.ty_app(a.dom)}: {self.ty(a.ses)}")
            else:
                flush()
                parts.append(self.ty_app(a))
        flush()
        return ", ".join(parts)

    def cstr(self, c: BDisjoint) -> str:
        return f"{self.ty_app(c.left)} # {self.ty_app(c.right)}"

    def bindings(self, bs: tuple[Binding, ...]) -> str:
        if not bs:
            return ""
        out = []
        for b in bs:
            cls = b.__class__
            if cls is BTVar:
                k = self.kind(b.kind)
                out.append(f"{self.bind(b.name)}:{k}")
            elif cls is BVal:
                out.append(f"{self.bind(b.name)}:{self.ty(b.type)}")
            elif cls is BDisjoint:
                out.append(self.cstr(b))
        return ", ".join(out)

    # -- values / expressions ----------------------------------------------------

    def value(self, v: Value) -> str:
        cls = v.__class__
        if cls is VVar:
            return self.var(v.name)
        if cls is VUnit:
            return "()"
        if cls is VChan:
            return f"chan {self.ty_atom(v.dom)}"
        if cls is VPair:
            return f"({self.value(v.left)}, {self.value(v.right)})"
        if cls is VAbs:
            st = self.state(v.pre)
            at = self.ty(v.argty)
            b = self.bind(v.binder)
            return f"(\\[{st}]({b}:{at}). {self.expr(v.body)})"
        k = self.kind(v.kind)  # v is a VTAbs
        b = self.bind(v.binder)
        cs = ", ".join(self.cstr(c) for c in v.cstr)
        return f"(/\\{b}:{k}[{cs}]. {self.value(v.body)})"

    def expr(self, e: Expr) -> str:
        cls = e.__class__
        if cls is EVal:
            return self.value(e.value)
        if cls is ELet:
            head = e.head
            h = self.expr(head)
            if isinstance(head, ELet):
                h = f"({h})"
            ex = ""
            if e.exnames:
                ex = "[" + ", ".join(self.bind(n) for n in e.exnames) + "] "
            b = self.bind(e.binder)
            return f"let {ex}{b} = {h} in {self.expr(e.body)}"
        if cls is EApp:
            return f"{self.value(e.fn)} {self.value(e.arg)}"
        if cls is EProj:
            return f"proj{int(e.label)} {self.value(e.value)}"
        if cls is ETApp:
            return f"{self.value(e.value)} [{self.ty(e.type)}]"
        if cls is EFork or cls is EAccept or cls is ERequest or cls is ERecv or cls is EClose:
            return f"{_KEYWORD[cls]} {self.value(e.value)}"
        if cls is ENew:
            return f"{_KEYWORD[ENew]} {self.ty_atom(e.ses)}"
        if cls is ESend:
            return f"{_KEYWORD[ESend]} {self.value(e.payload)} {self.value(e.chan)}"
        if cls is ESelect:
            return f"{_KEYWORD[ESelect]} {int(e.label)} {self.value(e.value)}"
        # e is an ECase
        return f"{_KEYWORD[ECase]} {self.value(e.value)} {{{self.expr(e.left)}; {self.expr(e.right)}}}"


def pretty(t: Tree) -> str:
    p = _Printer()
    if isinstance(t, Kind):
        return p.kind(t)
    if isinstance(t, Type):
        return p.ty(t)
    if isinstance(t, Value):
        return p.value(t)
    if isinstance(t, Expr):
        return p.expr(t)
    if isinstance(t, BDisjoint):
        return p.cstr(t)
    if isinstance(t, (BTVar, BVal)):
        return p.bindings((t,))
    raise TypeError(f"cannot pretty-print {t!r}")  # a configuration, say: no caller prints one


def pretty_ctx(bs: tuple[Binding, ...]) -> str:
    return _Printer().bindings(bs)
