"""Let-spines: flat, and in strict A-normal form.

A let-spine is a run of lets along their bodies. It is flat when no head
is a let. It is in strict A-normal form (strict ANF) when it is flat,
every let body is a let or a value, and the same holds in every case
branch and lambda body. The checker requires strict ANF
(`typing.type_expr`), and the CLI puts expression programs into it with
`anf_transform`: the parser accepts nested let heads, and `v [T] [T']`
chains desugar into lets. The interpreter's processes read back flat:
`runtime` enters a head that is a let, an applied lambda body and a chosen
case branch with the let that waits for their value kept on a stack, and
reads each nested spine back in front of that let with `let_in`.

Each function loops along a spine, recursing only into heads, case
branches and lambda bodies, so a long spine needs no deep recursion.

`anf_transform` returns every node and every spine suffix that it does
not change as it is: strict input comes back as the same object, and
other input is rebuilt only along the path from the root to each change.
"""

from __future__ import annotations

from typing import Callable

from .ast import ELet, EVal, Expr, LAYOUT, Name, Span, Value, VVar, fresh_name, replace

# binder, head, exnames and span of one let of a spine, and the let itself
# when it is the input's own let with its own head
LetBinding = tuple[Name, Expr, tuple[Name, ...], Span | None, ELet | None]


def _unroll(
    e: Expr, leaf: Callable[[Expr], Expr] | None = None, name_tail: bool = False
) -> tuple[list[LetBinding], Expr]:
    """e's let-spine as its bindings in evaluation order, and its tail.

    A head that is a let is unrolled first and its bindings go in front of
    it, so no head in the result is a let. Without `leaf` this is pure
    reassociation. With `leaf`, which rewrites every other head and the
    tail, the result is strict: a `name_tail` spine with a non-value tail
    gets a temporary. A head `let y = h in b` names its tail when `b` is a
    let, because `b` is made strict on its own before the head is lifted.
    """
    bindings: list[LetBinding] = []
    while e.__class__ is ELet:
        head = e.head
        if head.__class__ is ELet:
            inner, head = _unroll(head, leaf, leaf is not None and head.body.__class__ is ELet)
            bindings += inner
        elif leaf is not None:
            head = leaf(head)
        bindings.append((e.binder, head, e.exnames, e.span, e if head is e.head else None))
        e = e.body
    tail = e if leaf is None else leaf(e)
    if name_tail and bindings and tail.__class__ is not EVal:
        t = fresh_name("_a")
        bindings.append((t, tail, (), None, None))
        tail = EVal(VVar(t))
    return bindings, tail


def _build(bindings: list[LetBinding], tail: Expr) -> Expr:
    """The spine of bindings ending in tail. A let of the input whose head
    is its own and whose body is what follows it is kept as it is."""
    for binder, head, exnames, span, let in reversed(bindings):
        if let is None or let.body is not tail:
            let = ELet(binder, head, tail, exnames=exnames, span=span)
        tail = let
    return tail


def let_in(
    binder: Name, head: Expr, body: Expr, exnames: tuple[Name, ...], span: Span | None
) -> Expr:
    """`let binder = head in body` with head's own spine lifted in front,
    at the cost of `head`: a flat spine when `body` is flat."""
    bindings, head = _unroll(head)
    return _build(bindings, ELet(binder, head, body, exnames=exnames, span=span))


def anf_transform(e: Expr) -> Expr:
    """Strict-ANF form of e, preserving left-to-right evaluation order:
    e itself when e is strict."""
    return _build(*_unroll(e, _anf_node, name_tail=True))


def _anf_node(t: Expr | Value) -> Expr | Value:
    """A non-let or a value, with its case branches and lambda bodies in
    strict ANF: t itself when none of its operands changed."""
    changed = {}
    for f, expr in LAYOUT[t.__class__].operands:
        x = getattr(t, f)
        y = anf_transform(x) if expr else _anf_node(x)
        if y is not x:
            changed[f] = y
    return replace(t, **changed) if changed else t


def is_strict_anf(e: Expr) -> bool:
    """Spec predicate: let bodies are lets or values; heads are not lets."""
    while isinstance(e, ELet):
        if not _strict_head(e.head):
            return False
        e = e.body
        if not isinstance(e, (ELet, EVal)):
            return False
    return _strict_head(e)


def _strict_head(t: Expr | Value) -> bool:
    """t is not a let, and its case branches and lambda bodies are strict."""
    if t.__class__ is ELet:
        return False
    for f, expr in LAYOUT[t.__class__].operands:
        if not (is_strict_anf if expr else _strict_head)(getattr(t, f)):
            return False
    return True
