"""Decision procedure for disjointness-constraint entailment.

Constraints are normalized and decomposed into atomic constraints over
projection chains rooted at type variables, then closed under symmetry,
projection splitting, and the sibling axiom (both projections of a
pair-shaped domain are disjoint). Entailment holds when the goal's atoms
are contained in the closed assumption set. Chains are bounded by the
variables' shapes, so the closure terminates without fuel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    BDisjoint,
    BTVar,
    Ctx,
    ConstraintSet,
    DomMerge,
    DomProj,
    DomZero,
    KDom,
    Label,
    Name,
    TPair,
    TVar,
    Type,
)
from .normalize import normalize


class AtomizeError(Exception):
    """A constraint side is not a variable, projection chain, merge, or empty."""


@dataclass(frozen=True)
class Chain:
    """pi_{p_n} ... pi_{p_1} base, with path stored innermost-first."""

    base: Name
    path: tuple[Label, ...]

    def extend(self, lab: Label) -> "Chain":
        return Chain(self.base, self.path + (lab,))


AtomicConstraint = tuple[Chain, Chain]
ClosedSet = frozenset[AtomicConstraint]

_Shapes = dict[int, Type]  # domain variable uid -> normalized shape


def _chain_of(d: Type) -> Chain:
    match d:
        case TVar(nm):
            return Chain(nm, ())
        case DomProj(lab, inner):
            return _chain_of(inner).extend(lab)
    raise AtomizeError(f"not a projection chain: {d!r}")


def _sides(d: Type) -> list[Chain]:
    """Decompose a normalized domain into its chain parts (CE-Split); the
    empty domain contributes nothing (CE-Zero discharges those pairs)."""
    match d:
        case DomZero():
            return []
        case DomMerge(l, r):
            return _sides(l) + _sides(r)
        case TVar() | DomProj():
            return [_chain_of(d)]
    raise AtomizeError(f"domain does not decompose: {d!r}")


def atomize(constraints: ConstraintSet | Ctx) -> set[AtomicConstraint]:
    """Normalize and decompose constraints into atomic chain pairs."""
    out: set[AtomicConstraint] = set()
    for b in constraints:
        if not isinstance(b, BDisjoint):
            continue
        for l in _sides(normalize(b.left)):
            for r in _sides(normalize(b.right)):
                out.add((l, r))
    return out


def shape_env(g: Ctx) -> _Shapes:
    return {
        b.name.uid: normalize(b.kind.shape)
        for b in g
        if isinstance(b, BTVar) and isinstance(b.kind, KDom)
    }


def _shape_at(shapes: _Shapes, c: Chain) -> Type | None:
    sh = shapes.get(c.base.uid)
    if sh is None:
        return None
    for lab in c.path:
        if not isinstance(sh, TPair):
            return None
        sh = sh.left if lab is Label.L1 else sh.right
    return sh


def _sibling_seeds(shapes: _Shapes) -> set[AtomicConstraint]:
    """pi1 d # pi2 d for every pair-shaped position of every domain variable."""
    out: set[AtomicConstraint] = set()

    def walk(base: Name, path: tuple[Label, ...], sh: Type) -> None:
        if isinstance(sh, TPair):
            c1 = Chain(base, path + (Label.L1,))
            c2 = Chain(base, path + (Label.L2,))
            out.add((c1, c2))
            walk(base, path + (Label.L1,), sh.left)
            walk(base, path + (Label.L2,), sh.right)

    for uid, sh in shapes.items():
        # reconstruct the Name lazily; uid is what identifies it
        walk(Name("", uid), (), sh)
    return out


def close(atoms: set[AtomicConstraint], shapes: _Shapes | None = None) -> ClosedSet:
    """Least fixed point under symmetry and projection splitting."""
    shapes = shapes or {}
    seen: set[AtomicConstraint] = set()
    work = list(atoms)
    while work:
        a = work.pop()
        if a in seen:
            continue
        seen.add(a)
        l, r = a
        work.append((r, l))
        sh = _shape_at(shapes, l)
        if isinstance(sh, TPair):
            work.append((l.extend(Label.L1), r))
            work.append((l.extend(Label.L2), r))
    return frozenset(seen)


def _norm_chain_uid(c: Chain) -> tuple[int, tuple[int, ...]]:
    return (c.base.uid, tuple(int(x) for x in c.path))


def entails(g: Ctx, c: ConstraintSet) -> bool:
    """Gamma entails the conjunction c; goals are decomposed the same way as
    assumptions and checked against the closed assumption set."""
    shapes = shape_env(g)
    assumptions = atomize(g) | _sibling_seeds(shapes)
    closed = {( _norm_chain_uid(l), _norm_chain_uid(r)) for l, r in close(assumptions, shapes)}
    for goal in atomize(c):
        l, r = goal
        if (_norm_chain_uid(l), _norm_chain_uid(r)) not in closed:
            return False
    return True
