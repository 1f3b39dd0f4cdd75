"""Concrete ASCII syntax for pvgr programs and types.

The grammar is documented in docs/syntax.md. The scanner reads a file in
one pass into flat lists: each token's kind, text and start offset, and
the offsets at which lines start. A token becomes an object, an
`ast.Span` that is its location, only when a node or a diagnostic keeps
it: a node's span is the token it starts at, built from the token's
index once (`Parser.span`). Binders receive globally unique names at parse
time; a let-spine and a session's continuations are read in loops, and
every other construct that nests counts against `MAX_NESTING`; the parser
accepts non-strict let nesting (anf.anf_transform restores strict form
before checking).
"""

from __future__ import annotations

import re
from bisect import bisect_right
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


# One match per token, with the blanks and the comment before it (a
# comment runs to the newline, so at most one precedes a token). The group
# that matched gives the token's kind; none matches at the end of input.
# Identifiers, the commonest tokens, are tried first; each two-mark
# punctuation comes before the one-mark class, which holds none of its
# prefixes. `\w` and `\d` are not exactly `str.isalpha` and
# `str.isdigit`, so a word outside ASCII goes to `_word`.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:--[^\n]*)?
    (?: ([A-Za-z_][\w']*)                   # 1: an identifier or keyword
      | ({}|[{}])                           # 2: punctuation
      | (\n)                                # 3: a newline
      | ([0-9]+)(?![0-9]|[^\x00-\x7f])      # 4: a number
      | (\w[\w']*|.)                        # 5: any other word or character
      | \Z )""".format(
        "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True) if len(p) > 1),
        "".join(re.escape(p) for p in PUNCT if len(p) == 1),
    ),
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


# the kind of a word or punctuation mark: a keyword or a mark is its own
# kind, and any other word is an identifier
_KIND_OF = {**{kw: kw for kw in KEYWORDS}, **{p: p for p in PUNCT}}


def _scan(src: str, filename: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens of `src` as three lists, each kind, text and start offset,
    ending with an 'eof' token at the end of input; and the offsets at
    which its lines start, the first line's 0 first."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    lines = [0]
    kind_of = _KIND_OF.get
    for m in _TOKEN.finditer(src):
        g = m.lastindex
        if g is None:
            continue
        if g < 3:
            text = m[g]
            kinds.append(kind_of(text, "ident"))
            texts.append(text)
            starts.append(m.start(g))
        elif g == 3:
            lines.append(m.end())
        elif g == 4:
            kinds.append("num")
            texts.append(m[4])
            starts.append(m.start(4))
        else:
            text, start = m[5], m.start(5)
            for kind, i, j in _word(text):
                if not kind:
                    sp = Span(filename, start + i, start + j, len(lines), start + i - lines[-1] + 1, kind, text[i:j])
                    raise ParseError("parse", f"unexpected character {text[i]!r}", sp)
                kinds.append(kind)
                texts.append(text[i:j])
                starts.append(start + i)
    kinds.append("eof")
    texts.append("")
    starts.append(len(src))
    return kinds, texts, starts, lines


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


# How deeply constructs may nest (docs/syntax.md, "Nesting"): each bracket
# until it closes, and each lambda, type abstraction, `forall`, binder
# `nu`/`nuap`, prefix (`dual`, `Chan`, `pi1`, `pi2`), payload of a `!T.S`
# or `?T.S` step and let-spine until it ends, is one level. Every recursion
# of the parser passes one of them, so it stays within Python's default
# recursion limit.
MAX_NESTING = 100


class Parser:
    """A recursive-descent reader of the scanned tokens: `pos` indexes the
    next one, and `depth` counts the levels of nesting open at it."""

    def __init__(self, src: str, filename: str = "<input>", open_world: bool = False):
        self.kinds, self.texts, self.starts, self.lines = _scan(src, filename)
        self.file = filename
        self.spans: list[Span | None] = [None] * len(self.kinds)
        self.pos = 0
        self.depth = 0
        self.scope = _Scope(open_world)

    # -- token helpers ------------------------------------------------------
    # `pos` never passes the eof token that ends `kinds`, and the grammar
    # looks one token ahead only past a token that is not eof, so no read
    # needs a bounds check; a rule steps past a token only once it has
    # read its kind

    def span(self, i: int) -> Span:
        """Token i as a `Span`, its location: built the first time a node or
        a diagnostic asks for it, and the same object after that."""
        sp = self.spans[i]
        if sp is None:
            start, text, lines = self.starts[i], self.texts[i], self.lines
            line = bisect_right(lines, start)
            sp = Span(self.file, start, start + len(text), line, start - lines[line - 1] + 1, self.kinds[i], text)
            self.spans[i] = sp
        return sp

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def eat(self, kind: str) -> int:
        """Step past a token of `kind`, returning its index."""
        i = self.pos
        if self.kinds[i] != kind:
            raise self.fail(f"expected {kind!r}")
        if kind != "eof":
            self.pos = i + 1
        return i

    def fail(self, msg: str) -> ParseError:
        i = self.pos
        return ParseError("parse", f"{msg}, found {self.texts[i] or 'end of input'!r}", self.span(i))

    def nest(self, i: int) -> None:
        """Open one level of nesting at token i; the rule that opens it
        closes it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("parse", f"constructs nested more than {MAX_NESTING} deep", self.span(i))

    def open(self, bracket: str) -> int:
        """Step past an opening bracket and open its level."""
        i = self.eat(bracket)
        self.nest(i)
        return i

    def close(self, bracket: str) -> None:
        self.eat(bracket)
        self.depth -= 1

    def ident(self) -> str:
        return self.texts[self.eat("ident")]

    def comma_list(self, item) -> list:
        """item (',' item)*"""
        out = [item()]
        while self.at(","):
            self.pos += 1
            out.append(item())
        return out

    def whole(self, rule):
        """The parser method `rule`, which must read the rest of the input."""
        out = rule(self)
        self.eat("eof")
        return out

    def name_use(self) -> Name:
        i = self.pos
        text = self.ident()
        nm = self.scope.lookup(text)
        if nm is None:
            raise ParseError("parse", f"unbound identifier {text!r}", self.span(i))
        return nm

    # -- kinds --------------------------------------------------------------

    def kind(self) -> Kind:
        """kind_atom ('->' kind_atom)*, read in a loop, grouped to the right."""
        atoms = [self.kind_atom()]
        while self.at("->"):
            self.pos += 1
            atoms.append(self.kind_atom())
        k = atoms.pop()
        while atoms:
            k = KArrow(atoms.pop(), k)
        return k

    def kind_atom(self) -> Kind:
        i = self.pos
        k = self.kinds[i]
        if k in KINDS:
            self.pos = i + 1
            return KINDS[k]()
        if k == "Dom":
            self.pos = i + 1
            self.open("(")
            sh = self.type_()
            self.close(")")
            return KDom(sh)
        if k == "(":
            self.open("(")
            out = self.kind()
            self.close(")")
            return out
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
            self.pos += 1
            return TChoice(left, self.type_app())
        if self.at("+b"):
            self.pos += 1
            return TBranch(left, self.type_app())
        return left

    def type_app(self) -> Type:
        t = self.type_atom()
        # only domain-shaped atoms can follow by juxtaposition
        while self.kinds[self.pos] in {"ident", "(", "{", "pi1", "pi2"}:
            t = TApp(t, self.type_atom())
        return t

    def type_atom(self) -> Type:
        i = self.pos
        k = self.kinds[i]
        if k in _TYPE_ATOM_WORDS:
            self.pos = i + 1
            return _TYPE_ATOM_WORDS[k](span=self.span(i))
        if k in TYPE_PREFIXES:
            self.pos = i + 1
            self.nest(i)
            arg = self.type_atom()
            self.depth -= 1
            return TYPE_PREFIXES[k](arg, span=self.span(i))
        match k:
            case "ident":
                return TVar(self.name_use(), span=self.span(i))
            case "!" | "?":
                return self.session()
            case "num":
                self.pos = i + 1
                text = self.texts[i]
                if text == "0":
                    return ShZero(span=self.span(i))
                if text == "1":
                    return ShOne(span=self.span(i))
                raise ParseError("parse", f"unexpected number {text!r} in type", self.span(i))
            case "AP":
                self.pos = i + 1
                self.open("(")
                s = self.type_()
                self.close(")")
                return TAccess(s, span=self.span(i))
            case "pi1" | "pi2":
                self.pos = i + 1
                self.nest(i)
                arg = self.type_atom()
                self.depth -= 1
                return DomProj(Label.L1 if k == "pi1" else Label.L2, arg, span=self.span(i))
            case "forall":
                self.pos = i + 1
                self.nest(i)
                txt = self.ident()
                self.eat(":")
                kd = self.kind()
                self.scope.push()
                binder = self.scope.bind(txt)
                cs = self.constraints()
                self.eat(".")
                body = self.type_()
                self.scope.pop()
                self.depth -= 1
                return TAll(binder, kd, cs, body, span=self.span(i))
            case "\\":
                self.pos = i + 1
                self.nest(i)
                txt = self.ident()
                self.eat(":")
                shape = self.type_()
                self.scope.push()
                binder = self.scope.bind(txt)
                self.eat(".")
                body = self.type_()
                self.scope.pop()
                self.depth -= 1
                return TLam(binder, shape, body, span=self.span(i))
            case ".":
                self.pos = i + 1
                return StEmpty(span=self.span(i))
            case "{":
                return self.braces_type()
            case "[":
                return self.arr_type()
            case "(":
                self.open("(")
                inner = self.type_()
                if self.at(","):
                    self.pos += 1
                    right = self.type_()
                    self.close(")")
                    return DomMerge(inner, right, span=self.span(i))
                if self.at("*"):
                    self.pos += 1
                    right = self.type_()
                    self.close(")")
                    # pair of types and pair of shapes share one surface form;
                    # kinding tells them apart
                    return TPair(inner, right, span=self.span(i))
                self.close(")")
                return inner
        raise self.fail("expected a type")

    def session(self) -> Type:
        """A `!` or `?` step and the steps that continue it, read in a loop,
        then the continuation that is not a step. A `{..}` binder's scope
        closes before the `.` that ends its step. The sugar `!T.S` is
        `!{_:Dom(0)}(.;T).S` for a channel-free payload; its binder is named
        once its continuation is read."""
        kinds = self.kinds
        steps = []
        while kinds[self.pos] in ("!", "?"):
            i = self.pos
            self.pos = i + 1
            if kinds[self.pos] == "{":
                self.open("{")
                txt = self.ident()
                self.eat(":")
                shape = self.dom_kind_shape()
                self.close("}")
                self.scope.push()
                binder = self.scope.bind(txt)
                self.open("(")
                st = self.state()
                self.eat(";")
                payload = self.type_()
                self.close(")")
                self.scope.pop()
                steps.append((i, binder, shape, st, payload))
            else:
                self.nest(i)
                steps.append((i, None, None, None, self.type_atom()))
                self.depth -= 1
            self.eat(".")
        t = self.type_atom()
        for i, binder, shape, st, payload in reversed(steps):
            cls = TSend if kinds[i] == "!" else TRecv
            if binder is None:
                t = cls(fresh_name("_z"), ShZero(), StEmpty(), payload, t, span=self.span(i))
            else:
                t = cls(binder, shape, st, payload, t, span=self.span(i))
        return t

    def braces_type(self) -> Type:
        i = self.open("{")
        if self.at("}"):
            self.close("}")
            return DomZero(span=self.span(i))
        binds = self.comma_list(self.state_binding)
        self.close("}")
        return reduce(StMerge, binds)

    def state_binding(self) -> Type:
        dom = self.type_app()
        self.eat(":")
        ses = self.type_()
        return StBind(dom, ses)

    def state(self) -> Type:
        return reduce(StMerge, self.comma_list(self.state_atom))

    def state_atom(self) -> Type:
        i = self.pos
        if self.kinds[i] == ".":
            self.pos = i + 1
            return StEmpty(span=self.span(i))
        if self.kinds[i] == "{":
            return self.braces_type()
        return self.type_app()  # state variable or application

    def arr_type(self) -> Type:
        i = self.open("[")
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
        self.close("]")
        return TArr(pre, arg, ex, post, res, span=self.span(i))

    def ex_bindings(self) -> tuple[Binding, ...]:
        if self.at("."):
            return ()
        return tuple(self.comma_list(self.ex_binding))

    def ex_binding(self) -> Binding:
        i = self.pos
        if self.kinds[i] == "ident" and self.kinds[i + 1] == ":":
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
        self.open("[")
        out = () if self.at("]") else tuple(self.comma_list(self.disjointness))
        self.close("]")
        return out

    # -- values and expressions ---------------------------------------------

    def value(self) -> Value:
        i = self.pos
        match self.kinds[i]:
            case "ident":
                return VVar(self.name_use(), span=self.span(i))
            case "(":
                self.open("(")
                if self.at(")"):
                    self.close(")")
                    return VUnit(span=self.span(i))
                v = self.value()
                if self.at(","):
                    self.pos += 1
                    w = self.value()
                    self.close(")")
                    return VPair(v, w, span=self.span(i))
                self.close(")")
                return v
            case "\\":
                self.pos = i + 1
                self.nest(i)
                self.open("[")
                pre = self.state()
                self.close("]")
                self.open("(")
                txt = self.ident()
                self.eat(":")
                argty = self.type_()
                self.close(")")
                self.eat(".")
                self.scope.push()
                binder = self.scope.bind(txt)
                body = self.expr()
                self.scope.pop()
                self.depth -= 1
                return VAbs(pre, binder, argty, body, span=self.span(i))
            case "/\\":
                self.pos = i + 1
                self.nest(i)
                txt = self.ident()
                self.eat(":")
                k = self.kind()
                self.scope.push()
                binder = self.scope.bind(txt)
                cs = self.constraints()
                self.eat(".")
                body = self.value()
                self.scope.pop()
                self.depth -= 1
                return VTAbs(binder, k, cs, body, span=self.span(i))
            case "chan":
                self.pos = i + 1
                return VChan(self.type_atom(), span=self.span(i))
        raise self.fail("expected a value")

    _EXPR_KEYWORDS = {"let", "proj1", "proj2", *_OPERATION_OF}

    def expr(self) -> Expr:
        i = self.pos
        kinds = self.kinds
        k = kinds[i]
        if k == "(":
            # brackets around a keyword expression, each its own level;
            # the tokens end with eof, so the scan stops
            j = i + 1
            while kinds[j] == "(":
                j += 1
            if kinds[j] in self._EXPR_KEYWORDS:
                for _ in range(j - i):
                    self.open("(")
                e = self.expr()
                for _ in range(j - i):
                    self.close(")")
                return e
        op = _OPERATION_OF.get(k)
        if op is not None:
            self.pos = i + 1
            return self.operation(op, i)
        match k:
            case "let":
                return self.let_spine()
            case "proj1" | "proj2":
                self.pos = i + 1
                lab = Label.L1 if k == "proj1" else Label.L2
                return EProj(lab, self.value(), span=self.span(i))
            case _:
                return self.app_chain()

    def let_spine(self) -> Expr:
        """`let [..] x = head in` repeated, then the body, read in a loop:
        each let binds its names after its head, and its scope closes,
        innermost first, once the body is read. The spine is one level of
        nesting, so a spine in a head is one more."""
        kinds, scope = self.kinds, self.scope
        self.nest(self.pos)
        lets = []
        while kinds[self.pos] == "let":
            i = self.pos
            self.pos = i + 1
            exnames_txt = None
            if kinds[self.pos] == "[":
                self.open("[")
                exnames_txt = self.comma_list(self.ident)
                self.close("]")
            txt = self.ident()
            self.eat("=")
            head = self.expr()
            self.eat("in")
            scope.push()
            exnames = tuple(map(scope.bind, exnames_txt)) if exnames_txt else ()
            lets.append((scope.bind(txt), head, exnames, i))
        e = self.expr()
        for binder, head, exnames, i in reversed(lets):
            scope.pop()
            e = ELet(binder, head, e, exnames, span=self.span(i))
        self.depth -= 1
        return e

    def operation(self, op: type, i: int) -> Expr:
        """The operands of the operation whose keyword, token i, was just
        read."""
        if op is ENew:
            return ENew(self.type_atom(), span=self.span(i))
        if op is ESelect:
            lab = self.label()
            return ESelect(lab, self.value(), span=self.span(i))
        v = self.value()
        if op is ESend:
            return ESend(v, self.value(), span=self.span(i))
        if op is ECase:
            self.open("{")
            left = self.expr()
            self.eat(";")
            right = self.expr()
            self.close("}")
            return ECase(v, left, right, span=self.span(i))
        return op(v, span=self.span(i))  # fork, accept, request, recv, close

    def label(self) -> Label:
        i = self.eat("num")
        text = self.texts[i]
        if text == "1":
            return Label.L1
        if text == "2":
            return Label.L2
        raise ParseError("parse", f"expected label 1 or 2, found {text!r}", self.span(i))

    # what may follow a value that an application applies: an argument
    # value, or a bracketed type
    _APPLIED = {"\\", "/\\", "chan", "(", "ident", "["}

    def app_chain(self) -> Expr:
        """value (value | '[' type ']')*; chains of length > 1 desugar into lets."""
        i = self.pos
        v = self.value()
        sp = self.span(i)
        if self.kinds[self.pos] not in self._APPLIED:
            return EVal(v, span=sp)
        cur = self._apply(v, sp)
        while self.kinds[self.pos] in self._APPLIED:
            tmp = fresh_name("_t")
            cur = ELet(tmp, cur, self._apply(VVar(tmp), sp), span=sp)
        return cur

    def _apply(self, fn: Value, sp: Span) -> Expr:
        if self.at("["):
            self.open("[")
            ty = self.type_()
            self.close("]")
            return ETApp(fn, ty, span=sp)
        return EApp(fn, self.value(), span=sp)

    # -- configurations -------------------------------------------------------

    def config(self) -> Config:
        c = self.config_atom()
        while self.at("|"):
            self.pos += 1
            c = CPar(c, self.config_atom())
        return c

    def config_atom(self) -> Config:
        i = self.pos
        match self.kinds[i]:
            case "<":
                self.pos = i + 1
                e = self.expr()
                self.eat(">")
                return CProc(e, span=self.span(i))
            case "nu":
                self.pos = i + 1
                self.nest(i)
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
                self.depth -= 1
                return CNuChan(n1, n2, ses, body, span=self.span(i))
            case "nuap":
                self.pos = i + 1
                self.nest(i)
                txt = self.ident()
                self.eat(":")
                ses = self.type_()
                self.eat(".")
                self.scope.push()
                binder = self.scope.bind(txt)
                body = self.config()
                self.scope.pop()
                self.depth -= 1
                return CNuAccess(binder, ses, body, span=self.span(i))
            case "(":
                self.open("(")
                c = self.config()
                self.close(")")
                return c
        raise self.fail("expected a configuration")

    def config_starts(self) -> bool:
        """A configuration starts with `<`, `nu` or `nuap` after any `(`s,
        and no expression does. The tokens end with eof, so the scan stops."""
        kinds, i = self.kinds, self.pos
        while kinds[i] == "(":
            i += 1
        return kinds[i] in {"<", "nu", "nuap"}


def parse_program(src: str, filename: str = "<input>") -> Program:
    p = Parser(src, filename, open_world=False)
    if p.at("eof"):
        raise ParseError("parse", "empty program", p.span(p.pos))
    if p.config_starts():
        return Program(config=p.whole(Parser.config), expr=None, filename=filename)
    return Program(config=None, expr=p.whole(Parser.expr), filename=filename)


def parse_type(src: str, filename: str = "<input>", open_world: bool = True) -> Type:
    return Parser(src, filename, open_world=open_world).whole(Parser.type_)
