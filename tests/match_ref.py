"""The existential matcher as it was before it walked the scope table: the
reference that `test_scopes.py` holds `typing._match` to.

`match_ref` is the earlier `typing._match`, copied without change but for
its name and one mend: one `case` per constructor, with the alpha extension
of `TSend` and `TRecv` written out. The mend: `alpha` maps a pattern
binder's uid to the actual binder's name, and a pair left to `conv` has the
pattern's enclosing binders renamed to the actual ones first, so that an
alpha-equivalent payload matches. `_pattern_chain`, the earlier reader of a
pattern variable's projection chain, is copied without change too.
This module is kept apart from `oracles.py`, which perfbench loads to
verify outputs.
"""

from __future__ import annotations

from pvgr.ast import (
    DomMerge,
    DomProj,
    Name,
    TAccess,
    TApp,
    TBranch,
    TChan,
    TChoice,
    TDual,
    TEnd,
    TPair,
    TRecv,
    TSend,
    TUnit,
    TVar,
    Type,
    free_vars,
    subst,
)
from pvgr.normalize import conv


def match_ref(pat: Type, act: Type, pvars: set[int], alpha: dict[int, Name], parts) -> bool:
    """Structural first-order matching; pattern-variable projection chains
    are collected into `parts` keyed by (uid, path)."""
    chain = _pattern_chain(pat, pvars)
    if chain is not None:
        uid, path = chain
        prev = parts.get((uid, path))
        if prev is not None:
            return conv(prev, act)
        parts[(uid, path)] = act
        return True
    match (pat, act):
        case (TVar(a), TVar(b)):
            return (alpha[a.uid].uid if a.uid in alpha else a.uid) == b.uid
        case (TApp(f1, a1), TApp(f2, a2)):
            return match_ref(f1, f2, pvars, alpha, parts) and match_ref(a1, a2, pvars, alpha, parts)
        case (TChan(d1), TChan(d2)):
            return match_ref(d1, d2, pvars, alpha, parts)
        case (TAccess(s1), TAccess(s2)):
            return match_ref(s1, s2, pvars, alpha, parts)
        case (TPair(l1, r1), TPair(l2, r2)):
            return match_ref(l1, l2, pvars, alpha, parts) and match_ref(r1, r2, pvars, alpha, parts)
        case (TDual(s1), TDual(s2)):
            return match_ref(s1, s2, pvars, alpha, parts)
        case (TUnit(), TUnit()) | (TEnd(), TEnd()):
            return True
        case (DomMerge(l1, r1), DomMerge(l2, r2)):
            return match_ref(l1, l2, pvars, alpha, parts) and match_ref(r1, r2, pvars, alpha, parts)
        case (TChoice(l1, r1), TChoice(l2, r2)) | (TBranch(l1, r1), TBranch(l2, r2)):
            return match_ref(l1, l2, pvars, alpha, parts) and match_ref(r1, r2, pvars, alpha, parts)
        case (TSend(b1, sh1, st1, p1, c1), TSend(b2, sh2, st2, p2, c2)) | (
            TRecv(b1, sh1, st1, p1, c1),
            TRecv(b2, sh2, st2, p2, c2),
        ):
            if type(pat) is not type(act):
                return False
            alpha2 = {**alpha, b1.uid: b2}
            return (
                match_ref(sh1, sh2, pvars, alpha, parts)
                and match_ref(st1, st2, pvars, alpha2, parts)
                and match_ref(p1, p2, pvars, alpha2, parts)
                and match_ref(c1, c2, pvars, alpha, parts)
            )
        case _:
            # remaining constructors must agree up to conversion without
            # touching pattern variables
            if {n.uid for n in free_vars(pat)} & pvars:
                return False
            return conv(subst({uid: TVar(b) for uid, b in alpha.items()}, pat), act)


def _pattern_chain(t: Type, pvars: set[int]) -> tuple[int, tuple[int, ...]] | None:
    path: list[int] = []
    cur = t
    while isinstance(cur, DomProj):
        path.insert(0, int(cur.label))
        cur = cur.dom
    if isinstance(cur, TVar) and cur.name.uid in pvars:
        return (cur.name.uid, tuple(path))
    return None
