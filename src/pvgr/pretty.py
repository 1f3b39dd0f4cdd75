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
        match k:
            case KType() | KSession() | KState() | KShape():
                return _KEYWORD[k.__class__]
            case KDom(shape):
                return f"Dom({self.ty(shape)})"
        return f"({self.kind(k.src)} -> {self.kind(k.dst)})"

    # -- types -----------------------------------------------------------------

    def ty(self, t: Type) -> str:
        match t:
            case TChoice(l, r):
                return f"{self.ty_app(l)} +c {self.ty_app(r)}"
            case TBranch(l, r):
                return f"{self.ty_app(l)} +b {self.ty_app(r)}"
            case _:
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
        match t:
            case TVar() | DomZero() | DomMerge() | TPair() | StBind():
                return True
            case DomProj(_, d):
                return self._juxtaposable(d)
            case _:
                return False

    def ty_atom(self, t: Type) -> str:
        match t:
            case TVar(nm):
                return self.var(nm)
            case TEnd() | TUnit():
                return _KEYWORD[t.__class__]
            case TDual(s) | TChan(s):
                return f"{_KEYWORD[t.__class__]} {self.ty_atom(s)}"
            case TAccess(s):
                return f"AP({self.ty(s)})"
            case TPair(l, r):
                return f"({self.ty(l)} * {self.ty(r)})"
            case ShZero():
                return "0"
            case ShOne():
                return "1"
            case DomZero():
                return "{}"
            case DomMerge(l, r):
                return f"({self.ty(l)}, {self.ty(r)})"
            case DomProj(lab, d):
                return f"pi{int(lab)} {self.ty_atom(d)}"
            case StEmpty() | StBind() | StMerge():
                return self.state(t)
            case TLam(binder, shape, body):
                sh = self.ty(shape)
                b = self.bind(binder)
                return f"(\\{b}:{sh}. {self.ty(body)})"
            case TAll(binder, kind, cstr, body):
                k = self.kind(kind)
                b = self.bind(binder)
                cs = ", ".join(self.cstr(c) for c in cstr)
                return f"forall {b}:{k}[{cs}]. {self.ty(body)}"
            case TArr(pre, arg, exctx, post, res):
                ex = self.bindings(exctx)
                return (
                    f"[{self.state(pre)}; {self.ty(arg)} -> ex {ex}. "
                    f"{self.state(post)}; {self.ty(res)}]"
                )
            case TApp() | TChoice() | TBranch():
                return f"({self.ty(t)})"
        mark = "!" if isinstance(t, TSend) else "?"  # t is a TSend or a TRecv
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
            match b:
                case BTVar(nm, kind):
                    k = self.kind(kind)
                    out.append(f"{self.bind(nm)}:{k}")
                case BVal(nm, ty):
                    out.append(f"{self.bind(nm)}:{self.ty(ty)}")
                case BDisjoint():
                    out.append(self.cstr(b))
        return ", ".join(out)

    # -- values / expressions ----------------------------------------------------

    def value(self, v: Value) -> str:
        match v:
            case VVar(nm):
                return self.var(nm)
            case VUnit():
                return "()"
            case VChan(d):
                return f"chan {self.ty_atom(d)}"
            case VPair(l, r):
                return f"({self.value(l)}, {self.value(r)})"
            case VAbs(pre, binder, argty, body):
                st = self.state(pre)
                at = self.ty(argty)
                b = self.bind(binder)
                return f"(\\[{st}]({b}:{at}). {self.expr(body)})"
        k = self.kind(v.kind)  # v is a VTAbs
        b = self.bind(v.binder)
        cs = ", ".join(self.cstr(c) for c in v.cstr)
        return f"(/\\{b}:{k}[{cs}]. {self.value(v.body)})"

    def expr(self, e: Expr) -> str:
        match e:
            case EVal(v):
                return self.value(v)
            case ELet(binder, head, body, exnames):
                h = self.expr(head)
                if isinstance(head, ELet):
                    h = f"({h})"
                ex = ""
                if exnames:
                    ex = "[" + ", ".join(self.bind(n) for n in exnames) + "] "
                b = self.bind(binder)
                return f"let {ex}{b} = {h} in {self.expr(body)}"
            case EApp(f, a):
                return f"{self.value(f)} {self.value(a)}"
            case EProj(lab, v):
                return f"proj{int(lab)} {self.value(v)}"
            case ETApp(v, ty):
                return f"{self.value(v)} [{self.ty(ty)}]"
            case EFork(v) | EAccept(v) | ERequest(v) | ERecv(v) | EClose(v):
                return f"{_KEYWORD[e.__class__]} {self.value(v)}"
            case ENew(s):
                return f"{_KEYWORD[ENew]} {self.ty_atom(s)}"
            case ESend(p, c):
                return f"{_KEYWORD[ESend]} {self.value(p)} {self.value(c)}"
            case ESelect(lab, v):
                return f"{_KEYWORD[ESelect]} {int(lab)} {self.value(v)}"
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
