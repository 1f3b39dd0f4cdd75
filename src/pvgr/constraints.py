"""The typing context as an indexed data structure, and disjointness
entailment decided from its index.

Constraints are normalized and decomposed into atomic constraints: pairs
of projection chains rooted at type variables. The closed set of a context
is the least set that holds its atoms and the sibling axiom (both
projections of a pair-shaped domain are disjoint) and is closed under
symmetry and projection splitting; `atomize` and `close` compute it, for
the reference `entails_ref` in tests/oracles.py. `entails` never builds
it. A `Context` keeps the normalized shape of each domain variable, the
atoms of its `#` bindings in both orientations, and where each domain was
bound and made fresh, and each goal atom is decided from those by three
membership rules, without a fixed point (docs/constraints.md states the
rules and proves them equal to membership in the closed set).

A disjoint extension writes no constraints: it leaves a `BFresh` marker,
which stands for the `#` bindings `expand` writes out. `open_pairs` reads
the markers for a whole list of domains at once: one sweep in binding
order settles every pair of distinct variables that rule (iii) settles,
for K-StMerge, which asks `entails` only about the rest.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from typing import NamedTuple

from .ast import (
    BDisjoint,
    Binding,
    BTVar,
    BVal,
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


class Chain(NamedTuple):
    """pi_{p_n} ... pi_{p_1} base, with path stored innermost-first."""

    base: Name
    path: tuple[Label, ...]

    def extend(self, lab: Label) -> "Chain":
        return Chain(self.base, self.path + (lab,))


AtomicConstraint = tuple[Chain, Chain]
ClosedSet = frozenset[AtomicConstraint]

_Shapes = dict[int, Type]  # domain variable uid -> normalized shape
_Key = tuple[int, tuple[Label, ...]]  # a chain as (base uid, path)


def chain_of(d: Type) -> Chain | None:
    """d as a projection chain, or None when it is not one."""
    path: list[Label] = []
    while d.__class__ is DomProj:
        path.append(d.label)
        d = d.dom
    if d.__class__ is not TVar:
        return None
    path.reverse()
    return Chain(d.name, tuple(path))


def _sides(d: Type) -> list[Chain]:
    """Decompose a normalized domain into its chain parts (CE-Split); the
    empty domain contributes nothing (CE-Zero discharges those pairs)."""
    cls = d.__class__
    if cls is DomZero:
        return []
    if cls is DomMerge:
        return _sides(d.left) + _sides(d.right)
    chain = chain_of(d)
    if chain is not None:
        return [chain]
    if d.__class__ is DomProj:
        while d.__class__ is DomProj:
            d = d.dom
        raise AtomizeError(f"not a projection chain: {d!r}")
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


def _shape_at(shapes: _Shapes, uid: int, path: tuple[Label, ...]) -> Type | None:
    sh = shapes.get(uid)
    if sh is None:
        return None
    for lab in path:
        if not isinstance(sh, TPair):
            return None
        sh = sh.left if lab is Label.L1 else sh.right
    return sh


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
        sh = _shape_at(shapes, l.base.uid, l.path)
        if isinstance(sh, TPair):
            work.append((l.extend(Label.L1), r))
            work.append((l.extend(Label.L2), r))
    return frozenset(seen)


# -- disjoint extension markers -------------------------------------------------


class BFresh(Binding):
    """The binding a disjoint extension ends with. `doms` merges the domain
    variables it bound; each of them is disjoint from every other domain
    bound before the marker. It stands for the constraints `expand` writes
    out in its place."""

    doms: Type


def fresh_marker(names: list[Name]) -> BFresh:
    return BFresh(reduce(DomMerge, [TVar(n) for n in names]))


def expand(g: Ctx) -> tuple[Binding, ...]:
    """g with each marker replaced by the `#` bindings it stands for: its
    domains pairwise (C2), then each earlier domain with each of them (C12)."""
    out: list[Binding] = []
    doms: list[TVar] = []
    for b in g:
        if isinstance(b, BFresh):
            d2 = [TVar(c.base) for c in _sides(b.doms)]
            new = {d.name.uid for d in d2}
            out += [BDisjoint(x, y) for i, x in enumerate(d2) for y in d2[i + 1 :]]
            out += [BDisjoint(x, y) for x in doms if x.name.uid not in new for y in d2]
        else:
            out.append(b)
            if isinstance(b, BTVar) and isinstance(b.kind, KDom):
                doms.append(TVar(b.name))
    return tuple(out)


# -- the indexed context ------------------------------------------------------


class _Disjointness:
    """The normalized shape of each domain variable, the atoms of every `#`
    assumption in both orientations, and for each domain variable the number
    of domains bound before it and, once a marker made it fresh, before the
    marker. The first assumption that does not decompose is remembered;
    `entails` reports it, as atomizing the whole context would."""

    def __init__(
        self,
        shapes: _Shapes,
        pairs: set[tuple[_Key, _Key]],
        bound: dict[int, int],
        fresh: dict[int, int],
        error: str | None,
    ) -> None:
        self.shapes = shapes
        self.pairs = pairs
        self.bound = bound
        self.fresh = fresh
        self.error = error

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Disjointness) and vars(self) == vars(other)

    def copy(self) -> "_Disjointness":
        return _Disjointness(
            dict(self.shapes), set(self.pairs), dict(self.bound), dict(self.fresh), self.error
        )

    def add(self, b: Binding) -> None:
        if isinstance(b, BTVar):
            if isinstance(b.kind, KDom):
                self.shapes[b.name.uid] = normalize(b.kind.shape)
                self.bound.setdefault(b.name.uid, len(self.bound))
        elif isinstance(b, BFresh):
            for c in _sides(b.doms):
                self.fresh[c.base.uid] = len(self.bound)
        elif isinstance(b, BDisjoint) and self.error is None:
            try:
                atoms = atomize((b,))
            except AtomizeError as e:
                self.error = str(e)
                return
            for l, r in atoms:
                kl, kr = _key(l), _key(r)
                self.pairs.add((kl, kr))
                self.pairs.add((kr, kl))


class Context(tuple):
    """A typing context: its bindings in order, plus the indexes that
    lookups, disjoint extension and entailment read.

    It iterates, slices and compares as the tuple of its bindings. `g + bs`
    is a Context that remembers g. Each index is built on first use, from
    the nearest remembered ancestor that has it and the bindings added
    since, so a query never revisits bindings an ancestor already indexed.
    """

    _parent: "Context | None" = None
    _names: dict[int, Binding] | None = None
    _disjointness: _Disjointness | None = None

    def __add__(self, more: tuple) -> "Context":
        child = Context(tuple.__add__(self, more))
        child._parent = self
        return child

    def _since(self, attr: str) -> tuple["Context | None", tuple]:
        """The nearest ancestor holding index `attr` (None if there is none)
        and the bindings added after it."""
        base = self._parent
        while base is not None and getattr(base, attr) is None:
            base = base._parent
        return base, (self if base is None else self[len(base) :])

    @property
    def names(self) -> dict[int, Binding]:
        """uid -> the last type-variable or value binding of that uid. Binders
        have globally unique names, so a uid has one sort."""
        if self._names is None:
            base, new = self._since("_names")
            names = {} if base is None else dict(base._names)
            for b in new:
                if isinstance(b, (BTVar, BVal)):
                    names[b.name.uid] = b
            self._names = names
        return self._names

    @property
    def disjointness(self) -> _Disjointness:
        if self._disjointness is None:
            base, new = self._since("_disjointness")
            index = _Disjointness({}, set(), {}, {}, None) if base is None else base._disjointness.copy()
            for b in new:
                index.add(b)
            self._disjointness = index
        return self._disjointness


def context(g: Ctx) -> Context:
    """g when it is already a Context, else its bindings as a fresh one."""
    return g if isinstance(g, Context) else Context(g)


# -- entailment ---------------------------------------------------------------


def _key(c: Chain) -> _Key:
    return (c.base.uid, c.path)


def _origins(shapes: _Shapes, uid: int, path: tuple[Label, ...]) -> list[tuple[Label, ...]]:
    """The paths a closed-set chain ending at (uid, path) can have been split
    from: path itself and, when every proper prefix is a pair-shaped
    position, each of those prefixes."""
    if path and isinstance(_shape_at(shapes, uid, path[:-1]), TPair):
        return [path[:k] for k in range(len(path) + 1)]
    return [path]


def _holds(index: _Disjointness, l: _Key, r: _Key) -> bool:
    (a, p), (b, q) = l, r
    ps, qs = _origins(index.shapes, a, p), _origins(index.shapes, b, q)
    # (i) siblings: one variable, paths that part, both walking pairs
    if a == b and len(ps) > 1 and len(qs) > 1 and any(x != y for x, y in zip(p, q)):
        return True
    # (iii) a marker on the variables, each split further through pairs only:
    # one was made fresh after the other was bound
    if not ps[0] and not qs[0] and a != b:
        bound, fresh = index.bound, index.fresh
        if (b in bound and fresh.get(a, -1) > bound[b]) or (a in bound and fresh.get(b, -1) > bound[a]):
            return True
    # (ii) an assumption on prefixes, each split further through pairs only
    pairs = index.pairs
    return any(((a, x), (b, y)) in pairs for x in ps for y in qs)


def entails(g: Ctx, c: ConstraintSet) -> bool:
    """Gamma entails the conjunction c: every atom of c is in the closed set
    of g's assumptions, decided per atom from g's index."""
    index = context(g).disjointness
    if index.error is not None:
        raise AtomizeError(index.error)
    return all(_holds(index, _key(l), _key(r)) for l, r in atomize(c))


def open_pairs(g: Ctx, doms: list) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of the domains `doms` whose disjointness
    under g rule (iii) leaves open: every pair but those of two distinct
    plain variables that a marker makes disjoint. Those are found in one
    sweep over the variables in the order they were bound, so a merge of n
    domains costs O(n log n) plus the pairs returned, not n(n-1)/2 queries.
    Each pair left out is entailed (docs/constraints.md, "K-StMerge in one
    sweep"). An entry that is not a plain variable bound once in g and once
    in doms, or a context whose index holds a constraint that does not
    decompose, is paired with every other entry."""
    index = context(g).disjointness
    bound, fresh = index.bound, index.fresh
    uids = [d.name.uid if d.__class__ is TVar and d.name.uid in bound else None for d in doms]
    times = Counter(uids)
    loose = [index.error is not None or u is None or times[u] > 1 for u in uids]
    n = len(doms)
    # a loose entry with every other, each pair once
    out = [(min(i, j), max(i, j)) for i in range(n) if loose[i] for j in range(n) if j > i or not loose[j] and j != i]
    # Visit the variables in binding order. `passed` holds, in the order of
    # their markers, those whose marker (if any) came before the binding
    # visited. A variable that a marker made fresh after its binding is
    # disjoint from every one bound before it; any other from those bound
    # before it that are not passed yet, and its pairs with the passed
    # ones are open.
    plain = [j for j in range(n) if not loose[j]]
    by_fresh = sorted(plain, key=lambda j: fresh.get(uids[j], -1))
    passed: list[int] = []
    for j in sorted(plain, key=lambda j: bound[uids[j]]):
        b = bound[uids[j]]
        while len(passed) < len(by_fresh) and fresh.get(uids[by_fresh[len(passed)]], -1) <= b:
            passed.append(by_fresh[len(passed)])
        if fresh.get(uids[j], -1) <= b:
            out += [(min(i, j), max(i, j)) for i in passed if bound[uids[i]] < b]
    return out
