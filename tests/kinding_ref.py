"""K-StMerge as a nested rule, the reference for the one-pass rule of
`pvgr.kinding`: each side of a merge is kinded by its own recursion, then
normalized again to list the domains its atoms govern, and every domain of
the left side must be disjoint from every domain of the right side.
`infer_kind_ref` is `infer_kind` with every merge, at any depth, kinded so.
"""

from __future__ import annotations

import pvgr.kinding as kinding
from pvgr.ast import Ctx, Kind, KState, StBind, StMerge, TApp, Type, state_atoms
from pvgr.normalize import normalize

_infer_kind = kinding.infer_kind


def _state_doms(st: Type) -> list[Type] | None:
    """Domains governed by a state; None when they cannot be determined
    (opaque state variable). A stuck application f d covers at most d."""
    out: list[Type] = []
    for a in state_atoms(normalize(st)):
        match a:
            case StBind(dom, _):
                out.append(dom)
            case TApp(_, arg):
                out.append(arg)
            case _:
                return None
    return out


def _stmerge_nested(g: Ctx, t: StMerge) -> Kind:
    l, r = t.left, t.right
    kinding._expect(g, l, KState(), "K-StMerge")
    kinding._expect(g, r, KState(), "K-StMerge")
    la, ra = _state_doms(l), _state_doms(r)
    if la is None or ra is None:
        if (la is None and ra != []) or (ra is None and la != []):
            raise kinding._fail("K-StMerge", "cannot establish disjointness of an opaque state", t)
    else:
        for d1 in la:
            for d2 in ra:
                kinding._require_disjoint(g, d1, d2, "K-StMerge", t)
    return KState()


def _dispatch(g: Ctx, t: Type) -> Kind:
    if isinstance(t, StMerge):
        return _stmerge_nested(kinding.context(g), t)
    return _infer_kind(g, t)


def infer_kind_ref(g: Ctx, t: Type) -> Kind:
    """infer_kind(g, t), with the nested rule at every merge: kinding's own
    recursion is routed through it for the length of the call."""
    saved = kinding.infer_kind
    kinding.infer_kind = _dispatch
    try:
        return _dispatch(g, t)
    finally:
        kinding.infer_kind = saved
