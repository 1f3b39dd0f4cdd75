"""Concrete ASCII syntax for pvgr programs and types.

The grammar is documented in docs/syntax.md. Binders receive globally
unique names at parse time; the parser accepts non-strict let nesting
(anf.anf_transform restores strict form before checking).
"""

from __future__ import annotations

import re
from functools import reduce
from typing import NamedTuple

from .ast import (
    BDisjoint,
    Binding,
    BTVar,
    Config,
    CNuAccess,
    CNuChan,
    CPar,
    CProc,
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
    KArrow,
    KDom,
    KSession,
    KShape,
    KState,
    KType,
    Kind,
    Label,
    Name,
    ShOne,
    ShZero,
    Span,
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
    TRecv,
    TSend,
    TUnit,
    TVar,
    Type,
    VAbs,
    VChan,
    VPair,
    VTAbs,
    VUnit,
    VVar,
    Value,
    fresh_name,
)
from .diagnostic import Diagnostic

# Keyword tables: the one spelling of each form's keyword. The printer and
# the deadlock report read them too.
KINDS = {"Type": KType, "Session": KSession, "State": KState, "Shape": KShape}
TYPE_WORDS = {"End": TEnd, "Unit": TUnit}
TYPE_PREFIXES = {"dual": TDual, "Chan": TChan}
OPERATIONS = {
    EFork: "fork", EAccept: "accept", ERequest: "request", ERecv: "recv", EClose: "close",
    ENew: "new", ESend: "send", ESelect: "select", ECase: "case",
}

_TYPE_ATOM_WORDS = {**TYPE_WORDS, "Int": TUnit}  # `Int` is read as `Unit`
_OPERATION_OF = {kw: cls for cls, kw in OPERATIONS.items()}

KEYWORDS = {
    *KINDS, *_TYPE_ATOM_WORDS, *TYPE_PREFIXES, *_OPERATION_OF, "let", "in", "proj1", "proj2",
    "chan", "Dom", "AP", "forall", "ex", "nu", "nuap", "pi1", "pi2",
}

PUNCT = [
    "->", "/\\", "+c", "+b", "(", ")", "[", "]", "{", "}", "<", ">", ".", ",",
    ";", ":", "#", "*", "|", "=", "\\", "!", "?",
]


class ParseError(Diagnostic):
    """A failure to parse, with code `parse`."""

    status = 2


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span) -> None:
        self.kind = kind  # 'ident' | 'num' | punct text | 'eof'
        self.text = text
        self.span = span


# One match per token, with the whitespace and comments before it. The
# group that matched gives the token's kind; none matches at the end of
# input. Reverse order puts each punctuation mark before its prefixes, so
# the longest is tried first. `\w` and `\d` are not exactly `str.isalpha`
# and `str.isdigit`, so a word outside ASCII goes to `_word`.
_TOKEN = re.compile(
    r"""(?:[ \t\r]+|--[^\n]*)*
    (?: (\n)                                # 1: a newline
      | ({})                                # 2: punctuation
      | ([A-Za-z_][\w']*)                   # 3: an identifier or keyword
      | ([0-9]+)(?![0-9]|[^\x00-\x7f])      # 4: a number
      | (\w[\w']*|.)                        # 5: any other word or character
      | \Z )""".format("|".join(map(re.escape, sorted(PUNCT, reverse=True)))),
    re.VERBOSE,
)


def _word(text: str) -> list[tuple[str, int, int]]:
    """The (kind, start, end) of each token in `text`, which is a word or a
    character: a run of digits, then an identifier or a character that
    starts no token (kind '')."""
    i = 0
    while i < len(text) and text[i].isdigit():
        i += 1
    out = [("num", 0, i)] if i else []
    if i < len(text):
        if text[i].isalpha() or text[i] == "_":
            out.append((text[i:] if text[i:] in KEYWORDS else "ident", i, len(text)))
        else:
            out.append(("", i, i + 1))
    return out


def tokenize(src: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, line_start = 1, 0  # line_start: the offset at which `line` starts
    for m in _TOKEN.finditer(src):
        g = m.lastindex
        if g == 1:
            line += 1
            line_start = m.end()
        elif g is not None:
            start, end = m.span(g)
            text = m[g]
            if g < 5:
                sp = Span(filename, start, end, line, start - line_start + 1)
                kind = "num" if g == 4 else text if g == 2 or text in KEYWORDS else "ident"
                append(Token(kind, text, sp))
                continue
            for kind, i, j in _word(text):
                sp = Span(filename, start + i, start + j, line, start + i - line_start + 1)
                if not kind:
                    raise ParseError("parse", f"unexpected character {text[i]!r}", sp)
                append(Token(kind, text[i:j], sp))
    n = len(src)
    append(Token("eof", "", Span(filename, n, n, line, n - line_start + 1)))
    return toks


class Program(NamedTuple):
    """Parsed top level: either a configuration or a single expression."""

    config: Config | None
    expr: Expr | None
    filename: str


class _Scope:
    """Lexical scope mapping surface names to hygienic Names: one dict from
    each name's text to its innermost binding, and for each open scope the
    bindings its binds shadowed, put back when it closes."""

    def __init__(self, open_world: bool):
        self.names: dict[str, Name] = {}
        self.shadowed: list[list[tuple[str, Name | None]]] = [[]]
        self.free: dict[str, Name] = {}
        self.open_world = open_world

    def push(self) -> None:
        self.shadowed.append([])

    def pop(self) -> None:
        names = self.names
        for text, old in reversed(self.shadowed.pop()):
            if old is None:
                del names[text]
            else:
                names[text] = old

    def bind(self, text: str) -> Name:
        nm = fresh_name(text)
        self.shadowed[-1].append((text, self.names.get(text)))
        self.names[text] = nm
        return nm

    def lookup(self, text: str) -> Name | None:
        nm = self.names.get(text)
        if nm is not None:
            return nm
        if self.open_world:
            if text not in self.free:
                self.free[text] = fresh_name(text)
            return self.free[text]
        return None


class Parser:
    def __init__(self, src: str, filename: str = "<input>", open_world: bool = False):
        self.toks = tokenize(src, filename)
        self.pos = 0
        self.scope = _Scope(open_world)

    # -- token helpers ------------------------------------------------------
    # `pos` never passes the eof token that ends `toks`, and the grammar
    # looks one token ahead only past a token that is not eof, so no read
    # needs a bounds check

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.toks[self.pos].kind in kinds

    def eat(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            raise ParseError("parse", f"expected {kind!r}, found {t.text or 'end of input'!r}", t.span)
        if kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError("parse", f"{msg}, found {t.text or 'end of input'!r}", t.span)

    def ident(self) -> str:
        return self.eat("ident").text

    def comma_list(self, item) -> list:
        """item (',' item)*"""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    def whole(self, rule):
        """The parser method `rule`, which must read the rest of the input."""
        out = rule(self)
        self.eat("eof")
        return out

    def name_use(self) -> Name:
        t = self.eat("ident")
        nm = self.scope.lookup(t.text)
        if nm is None:
            raise ParseError("parse", f"unbound identifier {t.text!r}", t.span)
        return nm

    # -- kinds --------------------------------------------------------------

    def kind(self) -> Kind:
        k = self.kind_atom()
        if self.at("->"):
            self.next()
            return KArrow(k, self.kind())
        return k

    def kind_atom(self) -> Kind:
        t = self.peek()
        if t.kind in KINDS:
            self.next()
            return KINDS[t.kind]()
        if t.kind == "Dom":
            self.next()
            self.eat("(")
            sh = self.type_()
            self.eat(")")
            return KDom(sh)
        if t.kind == "(":
            self.next()
            k = self.kind()
            self.eat(")")
            return k
        raise self.fail("expected a kind")

    def dom_kind_shape(self) -> Type:
        k = self.kind()
        if not isinstance(k, KDom):
            raise self.fail("session binder must have a Dom(..) kind")
        return k.shape

    # -- types ----------------------------------------------------------------

    def type_(self) -> Type:
        left = self.type_app()
        if self.at("+c"):
            self.next()
            return TChoice(left, self.type_app())
        if self.at("+b"):
            self.next()
            return TBranch(left, self.type_app())
        return left

    def type_app(self) -> Type:
        t = self.type_atom()
        # only domain-shaped atoms can follow by juxtaposition
        while self.peek().kind in {"ident", "(", "{", "pi1", "pi2"}:
            t = TApp(t, self.type_atom())
        return t

    def type_atom(self) -> Type:
        t = self.peek()
        sp = t.span
        if t.kind in _TYPE_ATOM_WORDS:
            self.next()
            return _TYPE_ATOM_WORDS[t.kind](span=sp)
        if t.kind in TYPE_PREFIXES:
            self.next()
            return TYPE_PREFIXES[t.kind](self.type_atom(), span=sp)
        match t.kind:
            case "num":
                self.next()
                if t.text == "0":
                    return ShZero(span=sp)
                if t.text == "1":
                    return ShOne(span=sp)
                raise ParseError("parse", f"unexpected number {t.text!r} in type", sp)
            case "AP":
                self.next()
                self.eat("(")
                s = self.type_()
                self.eat(")")
                return TAccess(s, span=sp)
            case "pi1" | "pi2":
                self.next()
                lab = Label.L1 if t.kind == "pi1" else Label.L2
                return DomProj(lab, self.type_atom(), span=sp)
            case "forall":
                self.next()
                txt = self.ident()
                self.eat(":")
                k = self.kind()
                self.scope.push()
                binder = self.scope.bind(txt)
                cs = self.constraints()
                self.eat(".")
                body = self.type_()
                self.scope.pop()
                return TAll(binder, k, cs, body, span=sp)
            case "\\":
                self.next()
                txt = self.ident()
                self.eat(":")
                shape = self.type_()
                self.scope.push()
                binder = self.scope.bind(txt)
                self.eat(".")
                body = self.type_()
                self.scope.pop()
                return TLam(binder, shape, body, span=sp)
            case "!" | "?":
                return self.session_comm()
            case ".":
                self.next()
                return StEmpty(span=sp)
            case "{":
                return self.braces_type()
            case "[":
                return self.arr_type()
            case "(":
                self.next()
                inner = self.type_()
                if self.at(","):
                    self.next()
                    right = self.type_()
                    self.eat(")")
                    return DomMerge(inner, right, span=sp)
                if self.at("*"):
                    self.next()
                    right = self.type_()
                    self.eat(")")
                    # pair of types and pair of shapes share one surface form;
                    # kinding tells them apart
                    return TPair(inner, right, span=sp)
                self.eat(")")
                return inner
            case "ident":
                return TVar(self.name_use(), span=sp)
        raise self.fail("expected a type")

    def session_comm(self) -> Type:
        t = self.next()  # '!' or '?'
        sp = t.span
        cls = TSend if t.kind == "!" else TRecv
        if self.at("{"):
            self.next()
            txt = self.ident()
            self.eat(":")
            shape = self.dom_kind_shape()
            self.eat("}")
            self.scope.push()
            binder = self.scope.bind(txt)
            self.eat("(")
            st = self.state()
            self.eat(";")
            payload = self.type_()
            self.eat(")")
            self.scope.pop()
            self.eat(".")
            cont = self.type_atom()
            return cls(binder, shape, st, payload, cont, span=sp)
        # sugar: !T.S == !{_:Dom(0)}(.;T).S for channel-free payloads
        payload = self.type_atom()
        self.eat(".")
        cont = self.type_atom()
        return cls(fresh_name("_z"), ShZero(), StEmpty(), payload, cont, span=sp)

    def braces_type(self) -> Type:
        sp = self.eat("{").span
        if self.at("}"):
            self.next()
            return DomZero(span=sp)
        binds = self.comma_list(self.state_binding)
        self.eat("}")
        return reduce(StMerge, binds)

    def state_binding(self) -> Type:
        dom = self.type_app()
        self.eat(":")
        ses = self.type_()
        return StBind(dom, ses)

    def state(self) -> Type:
        return reduce(StMerge, self.comma_list(self.state_atom))

    def state_atom(self) -> Type:
        if self.at("."):
            sp = self.next().span
            return StEmpty(span=sp)
        if self.at("{"):
            return self.braces_type()
        return self.type_app()  # state variable or application

    def arr_type(self) -> Type:
        sp = self.eat("[").span
        pre = self.state()
        self.eat(";")
        arg = self.type_()
        self.eat("->")
        self.eat("ex")
        self.scope.push()
        ex = self.ex_bindings()
        self.eat(".")
        post = self.state()
        self.eat(";")
        res = self.type_()
        self.scope.pop()
        self.eat("]")
        return TArr(pre, arg, ex, post, res, span=sp)

    def ex_bindings(self) -> tuple[Binding, ...]:
        if self.at("."):
            return ()
        return tuple(self.comma_list(self.ex_binding))

    def ex_binding(self) -> Binding:
        if self.at("ident") and self.peek(1).kind == ":":
            txt = self.ident()
            self.eat(":")
            k = self.kind()
            return BTVar(self.scope.bind(txt), k)
        return self.disjointness()

    def disjointness(self) -> BDisjoint:
        left = self.type_app()
        self.eat("#")
        return BDisjoint(left, self.type_app())

    def constraints(self) -> tuple[BDisjoint, ...]:
        self.eat("[")
        out = () if self.at("]") else tuple(self.comma_list(self.disjointness))
        self.eat("]")
        return out

    # -- values and expressions ---------------------------------------------

    def value(self) -> Value:
        t = self.peek()
        sp = t.span
        match t.kind:
            case "\\":
                self.next()
                self.eat("[")
                pre = self.state()
                self.eat("]")
                self.eat("(")
                txt = self.ident()
                self.eat(":")
                argty = self.type_()
                self.eat(")")
                self.eat(".")
                self.scope.push()
                binder = self.scope.bind(txt)
                body = self.expr()
                self.scope.pop()
                return VAbs(pre, binder, argty, body, span=sp)
            case "/\\":
                self.next()
                txt = self.ident()
                self.eat(":")
                k = self.kind()
                self.scope.push()
                binder = self.scope.bind(txt)
                cs = self.constraints()
                self.eat(".")
                body = self.value()
                self.scope.pop()
                return VTAbs(binder, k, cs, body, span=sp)
            case "chan":
                self.next()
                return VChan(self.type_atom(), span=sp)
            case "(":
                self.next()
                if self.at(")"):
                    self.next()
                    return VUnit(span=sp)
                v = self.value()
                if self.at(","):
                    self.next()
                    w = self.value()
                    self.eat(")")
                    return VPair(v, w, span=sp)
                self.eat(")")
                return v
            case "ident":
                return VVar(self.name_use(), span=sp)
        raise self.fail("expected a value")

    def value_starts(self) -> bool:
        return self.peek().kind in {"\\", "/\\", "chan", "(", "ident"}

    _EXPR_KEYWORDS = {"let", "proj1", "proj2", *_OPERATION_OF}

    def expr(self) -> Expr:
        t = self.peek()
        sp = t.span
        if t.kind == "(" and self.peek(1).kind in self._EXPR_KEYWORDS:
            self.next()
            e = self.expr()
            self.eat(")")
            return e
        op = _OPERATION_OF.get(t.kind)
        if op is not None:
            self.next()
            return self.operation(op, sp)
        match t.kind:
            case "let":
                self.next()
                exnames_txt: list[str] = []
                if self.at("["):
                    self.next()
                    exnames_txt = self.comma_list(self.ident)
                    self.eat("]")
                txt = self.ident()
                self.eat("=")
                head = self.expr()
                self.eat("in")
                self.scope.push()
                exnames = tuple(self.scope.bind(t) for t in exnames_txt)
                binder = self.scope.bind(txt)
                body = self.expr()
                self.scope.pop()
                return ELet(binder, head, body, exnames=exnames, span=sp)
            case "proj1" | "proj2":
                self.next()
                lab = Label.L1 if t.kind == "proj1" else Label.L2
                return EProj(lab, self.value(), span=sp)
            case _:
                return self.app_chain()

    def operation(self, op: type, sp: Span) -> Expr:
        """The operands of the operation whose keyword was just read."""
        if op is ENew:
            return ENew(self.type_atom(), span=sp)
        if op is ESelect:
            lab = self.label()
            return ESelect(lab, self.value(), span=sp)
        v = self.value()
        if op is ESend:
            return ESend(v, self.value(), span=sp)
        if op is ECase:
            self.eat("{")
            left = self.expr()
            self.eat(";")
            right = self.expr()
            self.eat("}")
            return ECase(v, left, right, span=sp)
        return op(v, span=sp)  # fork, accept, request, recv, close

    def label(self) -> Label:
        t = self.eat("num")
        if t.text == "1":
            return Label.L1
        if t.text == "2":
            return Label.L2
        raise ParseError("parse", f"expected label 1 or 2, found {t.text!r}", t.span)

    def app_chain(self) -> Expr:
        """value (value | '[' type ']')*; chains of length > 1 desugar into lets."""
        sp = self.peek().span
        v = self.value()
        if not (self.value_starts() or self.at("[")):
            return EVal(v, span=sp)
        cur = self._apply(v, sp)
        while self.value_starts() or self.at("["):
            tmp = fresh_name("_t")
            cur = ELet(tmp, cur, self._apply(VVar(tmp), sp), span=sp)
        return cur

    def _apply(self, fn: Value, sp: Span) -> Expr:
        if self.at("["):
            self.next()
            ty = self.type_()
            self.eat("]")
            return ETApp(fn, ty, span=sp)
        return EApp(fn, self.value(), span=sp)

    # -- configurations -------------------------------------------------------

    def config(self) -> Config:
        c = self.config_atom()
        while self.at("|"):
            self.next()
            c = CPar(c, self.config_atom())
        return c

    def config_atom(self) -> Config:
        t = self.peek()
        sp = t.span
        match t.kind:
            case "<":
                self.next()
                e = self.expr()
                self.eat(">")
                return CProc(e, span=sp)
            case "nu":
                self.next()
                t1 = self.ident()
                t2 = self.ident()
                self.eat(":")
                ses = self.type_()
                self.eat(".")
                self.scope.push()
                n1 = self.scope.bind(t1)
                n2 = self.scope.bind(t2)
                body = self.config()
                self.scope.pop()
                return CNuChan(n1, n2, ses, body, span=sp)
            case "nuap":
                self.next()
                txt = self.ident()
                self.eat(":")
                ses = self.type_()
                self.eat(".")
                self.scope.push()
                binder = self.scope.bind(txt)
                body = self.config()
                self.scope.pop()
                return CNuAccess(binder, ses, body, span=sp)
            case "(":
                self.next()
                c = self.config()
                self.eat(")")
                return c
        raise self.fail("expected a configuration")

    def config_starts(self) -> bool:
        return self.peek().kind in {"<", "nu", "nuap"}


def parse_program(src: str, filename: str = "<input>") -> Program:
    p = Parser(src, filename, open_world=False)
    if p.at("eof"):
        raise ParseError("parse", "empty program", p.peek().span)
    if p.config_starts():
        return Program(config=p.whole(Parser.config), expr=None, filename=filename)
    return Program(config=None, expr=p.whole(Parser.expr), filename=filename)


def parse_expr(src: str, filename: str = "<input>", open_world: bool = True) -> Expr:
    return Parser(src, filename, open_world=open_world).whole(Parser.expr)


def parse_type(src: str, filename: str = "<input>", open_world: bool = True) -> Type:
    return Parser(src, filename, open_world=open_world).whole(Parser.type_)

