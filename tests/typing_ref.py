"""The recursive T-Let of `pvgr.typing` from before each let-spine was typed
in one loop: one recursion per `let`, and the existential package collected
at every level on the way back up. It is the reference of
`tests/test_let_spine.py`. It is kept out of `tests/oracles.py`, which
perfbench imports.

`recursive_lets()` makes `pvgr.typing` type every let-spine, at any depth
(lambda bodies, case branches, heads), by the reference; every other
expression is typed by `pvgr.typing` itself.
"""

from __future__ import annotations

import contextlib

import pvgr.typing
from pvgr.ast import BDisjoint, BTVar, BVal, ELet, free_vars
from pvgr.kinding import disjoint_append
from pvgr.normalize import normalize
from pvgr.typing import ExprTyping, _rename_exctx

_type_expr = pvgr.typing._type_expr


def type_expr_ref(g, atoms, e) -> ExprTyping:
    if not isinstance(e, ELet):
        return _type_expr(g, atoms, e)
    binder, head, body, exnames = e.binder, e.head, e.body, e.exnames
    r1 = type_expr_ref(g, atoms, head)
    if exnames:
        r1 = _rename_exctx(r1, exnames, e.span)
    g2 = disjoint_append(g, r1.exctx) + (BVal(binder, normalize(r1.ty)),)
    r2 = type_expr_ref(g2, r1.post, body)
    merged = r1.exctx + r2.exctx
    return gc_package_ref(ExprTyping(merged, r2.post, r2.ty))


def gc_package_ref(r: ExprTyping) -> ExprTyping:
    """Drop existential binders that neither the post state nor the result
    type mentions; they are checker-internal and unreachable."""
    used = {nm.uid for nm in free_vars(r.post_state)} | {nm.uid for nm in free_vars(r.ty)}
    kept_uids = {b.name.uid for b in r.exctx if isinstance(b, BTVar) and b.name.uid in used}
    dropped = {b.name.uid for b in r.exctx if isinstance(b, BTVar)} - kept_uids
    out = []
    for b in r.exctx:
        if isinstance(b, BTVar):
            if b.name.uid in kept_uids:
                out.append(b)
        elif isinstance(b, BDisjoint):
            mentioned = {nm.uid for nm in free_vars(b.left)} | {nm.uid for nm in free_vars(b.right)}
            if not (mentioned & dropped):
                out.append(b)
    return ExprTyping(tuple(out), r.post, r.ty)


@contextlib.contextmanager
def recursive_lets():
    saved = pvgr.typing._type_expr
    pvgr.typing._type_expr = type_expr_ref
    try:
        yield
    finally:
        pvgr.typing._type_expr = saved
