"""Independent oracles and random generators for the test suite.

These deliberately re-derive results from the declarative rules by brute
force, staying independent of the implementation paths they check.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator, Union

from pvgr.ast import (
    BDisjoint,
    Binding,
    BTVar,
    BVal,
    CNuAccess,
    CNuChan,
    Config,
    CPar,
    CProc,
    Ctx,
    DomMerge,
    DomProj,
    DomZero,
    EApp,
    ECase,
    ELet,
    ENew,
    ESend,
    ETApp,
    EVal,
    Expr,
    KArrow,
    KDom,
    Kind,
    KSession,
    KState,
    KType,
    Label,
    Name,
    Node,
    ShOne,
    ShZero,
    StBind,
    StEmpty,
    StMerge,
    Subst,
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
    Tree,
    Type,
    VAbs,
    VChan,
    VPair,
    Value,
    VTAbs,
    VUnit,
    VVar,
    canonicalize,
    fresh_name,
    state_atoms,
    subst1,
)
from pvgr.constraints import Chain, atomize, close
from pvgr.normalize import normalize


# ---------------------------------------------------------------------------
# node fields, read from the class annotations
# ---------------------------------------------------------------------------


def node_fields(t) -> dict[str, str]:
    """The fields of a node or node class other than `span`, each with its
    annotation text, in declaration order. They are read from the class
    annotations along the MRO, not from `pvgr.ast`'s own field table."""
    return _annotated_fields(t if isinstance(t, type) else t.__class__)


@functools.cache
def _annotated_fields(cls: type) -> dict[str, str]:
    fields: dict[str, str] = {}
    for c in reversed(cls.__mro__):
        fields.update(vars(c).get("__annotations__", {}))
    fields.pop("span", None)
    return fields


def replace_fields(t: Node, **changes) -> Node:
    """t with the given fields changed, keeping its span."""
    fields = node_fields(t)
    assert changes.keys() <= fields.keys(), changes
    return t.__class__(*[changes.get(f, getattr(t, f)) for f in fields], span=t.span)


# ---------------------------------------------------------------------------
# declarative conversion search (bounded common-reduct BFS)
# ---------------------------------------------------------------------------


def _key(t: Tree) -> str:
    return repr(canonicalize(t))


def _root_rewrites(t: Type) -> list[Type]:
    """Single contraction steps at the root: beta, projection, dual pushing,
    and state reordering (the omitted congruence rules read as treating
    states as multisets)."""
    out: list[Type] = []
    match t:
        case TApp(TLam(b, _, body), arg):
            out.append(subst1(b, arg, body))
        case DomProj(lab, DomMerge(l, r)):
            out.append(l if lab is Label.L1 else r)
        case TDual(TEnd()):
            out.append(TEnd())
        case TDual(TDual(TVar() as v)):
            out.append(v)
        case TDual(TSend(b, sh, st, p, c)):
            out.append(TRecv(b, sh, st, p, TDual(c)))
        case TDual(TRecv(b, sh, st, p, c)):
            out.append(TSend(b, sh, st, p, TDual(c)))
        case TDual(TChoice(l, r)):
            out.append(TBranch(TDual(l), TDual(r)))
        case TDual(TBranch(l, r)):
            out.append(TChoice(TDual(l), TDual(r)))
        case StMerge(l, r):
            out.append(StMerge(r, l))
            if isinstance(l, StMerge):
                out.append(StMerge(l.left, StMerge(l.right, r)))
            if isinstance(r, StMerge):
                out.append(StMerge(StMerge(l, r.left), r.right))
            if isinstance(l, StEmpty):
                out.append(r)
            if isinstance(r, StEmpty):
                out.append(l)
    return out


def _one_step(t: Tree) -> list[Tree]:
    out = list(_root_rewrites(t)) if isinstance(t, Type) else []
    for fname, v in [(f, getattr(t, f)) for f in node_fields(t)]:
        if isinstance(v, Node):
            for w in _one_step(v):
                out.append(replace_fields(t, **{fname: w}))
        elif isinstance(v, tuple) and any(isinstance(x, Node) for x in v):
            for i, x in enumerate(v):
                if isinstance(x, Node):
                    for w in _one_step(x):
                        out.append(
                            replace_fields(t, **{fname: v[:i] + (w,) + v[i + 1 :]})
                        )
    return out


def _reachable(t: Type, depth: int, cap: int = 4000) -> dict[str, Type]:
    seen = {_key(t): t}
    frontier = [t]
    for _ in range(depth):
        new = []
        for u in frontier:
            for v in _one_step(u):
                k = _key(v)
                if k not in seen:
                    seen[k] = v
                    new.append(v)
                    if len(seen) > cap:
                        return seen
        frontier = new
        if not frontier:
            break
    return seen


def conv_search(t1: Type, t2: Type, depth: int = 6) -> bool:
    """Declarative conversion: the two types have a common form within
    `depth` rewrite steps from each side (reflexivity/symmetry/transitivity
    and congruence are the search itself)."""
    r1 = _reachable(t1, depth)
    if _key(t2) in r1:
        return True
    r2 = _reachable(t2, depth)
    return bool(set(r1) & set(r2))


# ---------------------------------------------------------------------------
# declarative entailment search (forward chaining, derivation height <= depth)
# ---------------------------------------------------------------------------


def _dkey(d: Type) -> str:
    return repr(canonicalize(d))


def _shape_of(d: Type, shapes: dict[int, Type]) -> Type | None:
    match d:
        case TVar(nm):
            return shapes.get(nm.uid)
        case DomZero():
            return ShZero()
        case DomMerge(l, r):
            ls, rs = _shape_of(l, shapes), _shape_of(r, shapes)
            if ls is None or rs is None:
                return None
            return TPair(ls, rs)
        case DomProj(lab, inner):
            s = _shape_of(inner, shapes)
            if isinstance(s, TPair):
                return s.left if lab is Label.L1 else s.right
            return None
    return None


def _universe(g_constraints: list[BDisjoint], c: list[BDisjoint], shapes: dict[int, Type]):
    doms: dict[str, Type] = {}

    def add(d: Type) -> None:
        k = _dkey(d)
        if k in doms:
            return
        doms[k] = d
        if isinstance(d, DomMerge):
            add(d.left)
            add(d.right)
        if isinstance(d, DomProj):
            add(d.dom)

    for b in itertools.chain(g_constraints, c):
        add(b.left)
        add(b.right)
    for uid, sh in shapes.items():
        add(TVar(Name("v", uid)))
    # projection extensions, bounded by shapes
    changed = True
    while changed:
        changed = False
        for d in list(doms.values()):
            sh = _shape_of(d, shapes)
            if isinstance(sh, TPair):
                for lab in (Label.L1, Label.L2):
                    p = DomProj(lab, d)
                    if _dkey(p) not in doms:
                        doms[_dkey(p)] = p
                        changed = True
    return doms


def entails_search(g: Ctx, c: list[BDisjoint], depth: int = 6) -> bool:
    """Forward-chaining enumeration of the entailment rules, keeping the
    derivation height of every fact; a goal conjunction holds when each
    conjunct is derivable within the bound."""
    shapes = {
        b.name.uid: b.kind.shape
        for b in g
        if isinstance(b, BTVar) and isinstance(b.kind, KDom)
    }
    gc = [b for b in g if isinstance(b, BDisjoint)]
    doms = _universe(gc, c, shapes)

    facts: dict[tuple[str, str], int] = {}

    def have(l: Type, r: Type) -> int | None:
        return facts.get((_dkey(l), _dkey(r)))

    def put(l: Type, r: Type, h: int) -> bool:
        k = (_dkey(l), _dkey(r))
        if k in facts and facts[k] <= h:
            return False
        facts[k] = h
        return True

    def wellformed_height(d: Type) -> int | None:
        """Height of the kinding side-conditions for ProjMerge: variables
        and zero are free; merges need their parts disjoint."""
        match d:
            case TVar() | DomZero():
                return 0
            case DomProj(_, inner):
                return wellformed_height(inner)
            case DomMerge(l, r):
                hl, hr = wellformed_height(l), wellformed_height(r)
                hd = have(l, r)
                if hl is None or hr is None or hd is None:
                    return None
                return max(hl, hr, hd)
        return None

    for b in gc:
        put(b.left, b.right, 1)  # CE-Axiom
    for d in doms.values():
        put(DomZero(), d, 1)  # CE-Zero

    dom_list = list(doms.values())
    changed = True
    while changed:
        changed = False
        for (kl, kr), h in list(facts.items()):
            if h >= depth:
                continue
            l, r = doms.get(kl), doms.get(kr)
            if l is None or r is None:
                # zero facts may mention domains outside the universe map
                continue
            if put(r, l, h + 1):  # CE-Sym
                changed = True
            if isinstance(r, DomMerge):  # CE-Split
                if put(l, r.left, h + 1) or put(l, r.right, h + 1):
                    changed = True
            sh = _shape_of(l, shapes)  # CE-ProjSplit
            if isinstance(sh, TPair):
                for lab in (Label.L1, Label.L2):
                    if put(DomProj(lab, l), r, h + 1):
                        changed = True
        # CE-Merge (introduction)
        for d in dom_list:
            if not isinstance(d, DomMerge):
                continue
            for other in dom_list:
                h1, h2 = have(other, d.left), have(other, d.right)
                if h1 is not None and h2 is not None and max(h1, h2) < depth:
                    if put(other, d, max(h1, h2) + 1):
                        changed = True
        # CE-ProjMerge (sibling axiom, subject to wellformedness)
        for d in dom_list:
            sh = _shape_of(d, shapes)
            if isinstance(sh, TPair):
                wh = wellformed_height(d)
                if wh is not None and wh < depth:
                    if put(DomProj(Label.L1, d), DomProj(Label.L2, d), wh + 1):
                        changed = True

    def derivable(b: BDisjoint) -> bool:
        h = have(b.left, b.right)
        return h is not None and h <= depth

    return all(derivable(b) for b in c)


def shape_env(g: Ctx) -> dict[int, Type]:
    """The normalized shape of each domain variable of g, by uid."""
    return {
        b.name.uid: normalize(b.kind.shape)
        for b in g
        if isinstance(b, BTVar) and isinstance(b.kind, KDom)
    }


def entails_ref(g: Ctx, c: list[BDisjoint]) -> bool:
    """Entailment by building the closed set of docs/constraints.md: close the
    assumptions and the sibling pair of every pair-shaped position of every
    domain variable, then test each goal atom for membership."""
    shapes = shape_env(g)
    seeds = atomize(g)
    for uid, sh in shapes.items():
        todo = [((), sh)]
        while todo:
            path, s = todo.pop()
            if isinstance(s, TPair):
                kids = [(path + (Label.L1,), s.left), (path + (Label.L2,), s.right)]
                seeds.add((Chain(Name("", uid), kids[0][0]), Chain(Name("", uid), kids[1][0])))
                todo += kids
    key = lambda ch: (ch.base.uid, ch.path)  # noqa: E731
    closed = {(key(l), key(r)) for l, r in close(seeds, shapes)}
    return all((key(l), key(r)) in closed for l, r in atomize(c))


# ---------------------------------------------------------------------------
# alpha equivalence by direct bijection construction
# ---------------------------------------------------------------------------


def alpha_oracle(a: Tree, b: Tree) -> bool:
    """Structural comparison building the binder bijection on the fly;
    independent of canonicalize."""
    from pvgr.ast import (
        BVal,
        CNuAccess,
        CNuChan,
        ELet,
        VAbs,
        VTAbs,
        VVar,
    )

    def names_eq(x: Name, y: Name, env: dict[int, int]) -> bool:
        return env.get(x.uid, x.uid) == y.uid

    def seq(xs, ys, env, go_fn) -> bool:
        return len(xs) == len(ys) and all(go_fn(x, y, env) for x, y in zip(xs, ys))

    def go(a: Tree, b: Tree, env: dict[int, int]) -> bool:
        if type(a) is not type(b):
            return False
        match a:
            case TVar(n) | VVar(n):
                return names_eq(n, b.name, env)
            case TLam(n, sh, body):
                return go(sh, b.shape, env) and go(body, b.body, {**env, n.uid: b.binder.uid})
            case TAll(n, k, cs, body):
                env2 = {**env, n.uid: b.binder.uid}
                return go(k, b.kind, env) and seq(cs, b.cstr, env2, go) and go(body, b.body, env2)
            case TArr(pre, arg, ex, post, res):
                if not (go(pre, b.pre, env) and go(arg, b.arg, env)):
                    return False
                if len(ex) != len(b.exctx):
                    return False
                env2 = dict(env)
                for ba, bb in zip(ex, b.exctx):
                    if type(ba) is not type(bb):
                        return False
                    if isinstance(ba, BTVar):
                        if not go(ba.kind, bb.kind, env2):
                            return False
                        env2[ba.name.uid] = bb.name.uid
                    elif isinstance(ba, BVal):
                        if not go(ba.type, bb.type, env2):
                            return False
                        env2[ba.name.uid] = bb.name.uid
                    else:
                        if not (go(ba.left, bb.left, env2) and go(ba.right, bb.right, env2)):
                            return False
                return go(post, b.post, env2) and go(res, b.res, env2)
            case TSend(n, sh, st, p, c) | TRecv(n, sh, st, p, c):
                env2 = {**env, n.uid: b.binder.uid}
                return (
                    go(sh, b.shape, env)
                    and go(st, b.state, env2)
                    and go(p, b.payload, env2)
                    and go(c, b.cont, env)
                )
            case ELet(n, head, body, exn):
                if len(exn) != len(b.exnames):
                    return False
                env2 = {**env, n.uid: b.binder.uid}
                for x, y in zip(exn, b.exnames):
                    env2[x.uid] = y.uid
                return go(head, b.head, env) and go(body, b.body, env2)
            case VAbs(pre, n, argty, body):
                return (
                    go(pre, b.pre, env)
                    and go(argty, b.argty, env)
                    and go(body, b.body, {**env, n.uid: b.binder.uid})
                )
            case VTAbs(n, k, cs, body):
                env2 = {**env, n.uid: b.binder.uid}
                return go(k, b.kind, env) and seq(cs, b.cstr, env2, go) and go(body, b.body, env2)
            case CNuChan(e1, e2, ses, body, closed):
                if closed != b.closed:
                    return False
                env2 = {**env, e1.uid: b.end1.uid, e2.uid: b.end2.uid}
                return go(ses, b.ses, env) and go(body, b.body, env2)
            case CNuAccess(n, ses, body):
                return go(ses, b.ses, env) and go(body, b.body, {**env, n.uid: b.binder.uid})
            case _:
                for f in node_fields(a):
                    va, vb = getattr(a, f), getattr(b, f)
                    if isinstance(va, Node):
                        if not go(va, vb, env):
                            return False
                    elif isinstance(va, tuple) and any(isinstance(x, Node) for x in va):
                        if not seq(va, vb, env, go):
                            return False
                    elif va != vb:
                        return False
                return True

    return go(a, b, {})


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_session(rng: random.Random, depth: int = 3, vars_: list[Name] | None = None) -> Type:
    """A wellformed closed-ish session tree (variables allowed if given)."""
    if depth <= 0:
        leaves = [TEnd()]
        if vars_:
            leaves += [TVar(v) for v in vars_]
            leaves += [TDual(TVar(rng.choice(vars_)))]
        return rng.choice(leaves)
    pick = rng.randrange(6)
    if pick == 0:
        return TEnd()
    if pick == 1:
        return TDual(random_session(rng, depth - 1, vars_))
    if pick == 2:
        return TChoice(random_session(rng, depth - 1, vars_), random_session(rng, depth - 1, vars_))
    if pick == 3:
        return TBranch(random_session(rng, depth - 1, vars_), random_session(rng, depth - 1, vars_))
    b = fresh_name("z")
    return (TSend if pick == 4 else TRecv)(
        b, ShZero(), StEmpty(), TUnit(), random_session(rng, depth - 1, vars_)
    )


def random_type(rng: random.Random, budget: int, free: list[Name]) -> Type:
    """Arbitrary raw type trees (not necessarily well-kinded): the space the
    conversion oracle is compared on."""
    if budget <= 1:
        opts = [TEnd(), TUnit(), StEmpty(), DomZero(), ShZero(), ShOne()]
        if free:
            opts += [TVar(rng.choice(free))] * 3
        return rng.choice(opts)
    pick = rng.randrange(10)
    half = max(1, (budget - 1) // 2)
    if pick == 0:
        # application arguments stay domain-shaped, as in the surface grammar
        b = fresh_name("l")
        arg: Type = DomZero() if not free or rng.random() < 0.3 else TVar(rng.choice(free))
        if rng.random() < 0.3:
            arg = DomMerge(arg, DomZero())
        return TApp(TLam(b, ShOne(), random_type(rng, half, free + [b])), arg)
    if pick == 1:
        return DomProj(
            rng.choice([Label.L1, Label.L2]),
            DomMerge(random_type(rng, half, free), random_type(rng, half, free))
            if rng.random() < 0.6
            else random_type(rng, budget - 1, free),
        )
    if pick == 2:
        return TDual(random_type(rng, budget - 1, free))
    if pick == 3:
        b = fresh_name("z")
        return (TSend if rng.random() < 0.5 else TRecv)(
            b,
            rng.choice([ShZero(), ShOne()]),
            random_type(rng, half, free + [b]),
            random_type(rng, half, free + [b]),
            random_type(rng, half, free),
        )
    if pick == 4:
        return TChoice(random_type(rng, half, free), random_type(rng, half, free))
    if pick == 5:
        return TBranch(random_type(rng, half, free), random_type(rng, half, free))
    if pick == 6:
        return TPair(random_type(rng, half, free), random_type(rng, half, free))
    if pick == 7:
        binds = [
            StBind(random_type(rng, 1, free), random_type(rng, half, free))
            for _ in range(rng.randrange(1, 3))
        ]
        st: Type = StEmpty()
        for b in binds:
            st = StMerge(st, b) if not isinstance(st, StEmpty) else b
        return st
    if pick == 8:
        return TChan(random_type(rng, budget - 1, free))
    return DomMerge(random_type(rng, half, free), random_type(rng, half, free))


def random_entailment_instance(rng: random.Random):
    """A random (Gamma, C) pair inside the family the acceptance criterion
    names: <= 4 domain variables with shapes from {0, 1, (1*1)};
    assumptions are atomic, goals may contain one merge side."""
    shapes = [ShZero(), ShOne(), TPair(ShOne(), ShOne())]
    n = rng.randrange(2, 5)
    vars_ = [fresh_name(f"v{i}") for i in range(n)]
    var_shape = {v.uid: rng.choice(shapes) for v in vars_}
    ctx: list = [BTVar(v, KDom(var_shape[v.uid])) for v in vars_]

    def chain(v: Name) -> Type:
        d: Type = TVar(v)
        sh = var_shape[v.uid]
        while isinstance(sh, TPair) and rng.random() < 0.5:
            lab = rng.choice([Label.L1, Label.L2])
            d = DomProj(lab, d)
            sh = sh.left if lab is Label.L1 else sh.right
        return d

    def atom_side() -> Type:
        if rng.random() < 0.15:
            return DomZero()
        return chain(rng.choice(vars_))

    n_assume = rng.randrange(0, 4)
    assumptions = []
    for _ in range(n_assume):
        assumptions.append(BDisjoint(atom_side(), atom_side()))
    ctx_full = tuple(ctx) + tuple(assumptions)

    def goal_side(allow_merge: bool) -> Type:
        if allow_merge and rng.random() < 0.3:
            return DomMerge(chain(rng.choice(vars_)), chain(rng.choice(vars_)))
        return atom_side()

    n_goal = rng.randrange(1, 3)
    goals = []
    for _ in range(n_goal):
        merged_left = rng.random() < 0.5
        goals.append(BDisjoint(goal_side(merged_left), goal_side(not merged_left)))
    return ctx_full, goals


def random_binder_tree(rng: random.Random, budget: int) -> Tree:
    """A raw type, value, expression or configuration dense in binders of
    every form: TAll with constraints, TArr telescopes binding domains and
    values, ELet exnames, VAbs, VTAbs, CNuChan and CNuAccess. Kept apart
    from random_type so that the random stream the acceptance criteria
    sample stays as it is. One variable in five names any binder of its
    sort made so far, in scope or not, so that a wrong scope shows as a
    wrong free name."""
    kinds = [KType(), KSession(), KDom(ShOne()), KArrow(KDom(ShOne()), KState())]
    made_t: list[Name] = []  # binders of type variables
    made_v: list[Name] = []  # binders of value variables

    def fresh(text: str, made: list[Name]) -> Name:
        made.append(fresh_name(text))
        return made[-1]

    def use(names: list[Name], made: list[Name]) -> Name:
        return rng.choice(made if made and rng.random() < 0.2 else names)

    def ty(b: int, tv: list[Name], vv: list[Name]) -> Type:
        if b <= 1:
            return rng.choice([TEnd(), TUnit(), ShOne(), DomZero(), StEmpty(), TVar(use(tv, made_t))])
        h = max(1, (b - 1) // 2)
        pick = rng.randrange(9)
        if pick == 0:
            n = fresh("l", made_t)
            return TApp(TLam(n, ShOne(), ty(h, tv + [n], vv)), TVar(use(tv, made_t)))
        if pick == 1:
            n = fresh("t", made_t)
            cstr = tuple(BDisjoint(TVar(n), TVar(use(tv, made_t))) for _ in range(rng.randrange(3)))
            return TAll(n, rng.choice(kinds), cstr, ty(h, tv + [n], vv))
        if pick == 2:
            tele: list = []
            tv2, vv2 = list(tv), list(vv)
            for _ in range(rng.randrange(4)):
                k = rng.randrange(3)
                if k == 0:
                    n = fresh("c", made_t)
                    tele.append(BTVar(n, KDom(rng.choice([ShOne(), TPair(ShOne(), ShOne())]))))
                    tv2.append(n)
                elif k == 1:
                    n = fresh("v", made_v)
                    tele.append(BVal(n, ty(h, tv2, vv2)))
                    vv2.append(n)
                else:
                    tele.append(BDisjoint(TVar(use(tv2, made_t)), TVar(use(tv2, made_t))))
            return TArr(ty(h, tv, vv), ty(h, tv, vv), tuple(tele), ty(h, tv2, vv2), ty(h, tv2, vv2))
        if pick == 3:
            n = fresh("z", made_t)
            return rng.choice([TSend, TRecv])(
                n, ShOne(), ty(h, tv + [n], vv), ty(h, tv + [n], vv), ty(h, tv, vv)
            )
        if pick == 4:
            binds = [StBind(TVar(use(tv, made_t)), ty(h, tv, vv)) for _ in range(rng.randrange(2, 4))]
            return StMerge(StMerge(binds[0], binds[1]), binds[2] if binds[2:] else StEmpty())
        if pick == 5:
            return TPair(ty(h, tv, vv), ty(h, tv, vv))
        if pick == 6:
            return TChan(DomProj(rng.choice([Label.L1, Label.L2]), TVar(use(tv, made_t))))
        if pick == 7:
            return TDual(ty(b - 1, tv, vv))
        return TAccess(ty(b - 1, tv, vv))

    def val(b: int, tv: list[Name], vv: list[Name]) -> Value:
        if b <= 1:
            return rng.choice([VUnit(), VVar(use(vv, made_v)), VChan(TVar(use(tv, made_t)))])
        h = max(1, (b - 1) // 2)
        pick = rng.randrange(3)
        if pick == 0:
            n = fresh("x", made_v)
            return VAbs(ty(h, tv, vv), n, ty(h, tv, vv), expr(h, tv, vv + [n]))
        if pick == 1:
            n = fresh("t", made_t)
            cstr = tuple(BDisjoint(TVar(n), TVar(use(tv, made_t))) for _ in range(rng.randrange(3)))
            return VTAbs(n, rng.choice(kinds), cstr, val(h, tv + [n], vv))
        return VPair(val(h, tv, vv), val(h, tv, vv))

    def expr(b: int, tv: list[Name], vv: list[Name]) -> Expr:
        if b <= 1:
            return EVal(val(1, tv, vv))
        h = max(1, (b - 1) // 2)
        pick = rng.randrange(6)
        if pick == 0:
            x = fresh("y", made_v)
            exnames = tuple(fresh("e", made_t) for _ in range(rng.randrange(3)))
            return ELet(x, expr(h, tv, vv), expr(h, tv + list(exnames), vv + [x]), exnames=exnames)
        if pick == 1:
            return EApp(val(h, tv, vv), val(h, tv, vv))
        if pick == 2:
            return ETApp(val(h, tv, vv), ty(h, tv, vv))
        if pick == 3:
            return ECase(val(1, tv, vv), expr(h, tv, vv), expr(h, tv, vv))
        if pick == 4:
            return ESend(val(h, tv, vv), val(1, tv, vv))
        return ENew(ty(b - 1, tv, vv))

    def cfg(b: int, tv: list[Name], vv: list[Name]) -> Config:
        if b <= 1:
            return CProc(expr(1, tv, vv))
        h = max(1, (b - 1) // 2)
        pick = rng.randrange(4)
        if pick == 0:
            e1, e2 = fresh("c1", made_t), fresh("c2", made_t)
            return CNuChan(e1, e2, ty(h, tv, vv), cfg(h, tv + [e1, e2], vv), rng.random() < 0.3)
        if pick == 1:
            p = fresh("p", made_v)
            return CNuAccess(p, ty(h, tv, vv), cfg(h, tv, vv + [p]))
        if pick == 2:
            return CPar(cfg(h, tv, vv), cfg(h, tv, vv))
        return CProc(expr(b - 1, tv, vv))

    sort = rng.choice([ty, val, expr, cfg])
    return sort(budget, [fresh_name("a"), fresh_name("d")], [fresh_name("w")])


def _positions(t: Tree, path=()) -> list[tuple]:
    out = [path]
    i = 0
    for f in node_fields(t):
        v = getattr(t, f)
        if isinstance(v, Node):
            out += _positions(v, path + ((f, None),))
        elif isinstance(v, tuple):
            for j, x in enumerate(v):
                if isinstance(x, Node):
                    out += _positions(x, path + ((f, j),))
    return out


def _get_pos(t: Tree, path):
    for fname, idx in path:
        v = getattr(t, fname)
        t = v if idx is None else v[idx]
    return t


def _set_pos(t: Tree, path, new):
    if not path:
        return new
    (fname, idx), rest = path[0], path[1:]
    v = getattr(t, fname)
    if idx is None:
        return replace_fields(t, **{fname: _set_pos(v, rest, new)})
    w = v[:idx] + (_set_pos(v[idx], rest, new),) + v[idx + 1 :]
    return replace_fields(t, **{fname: w})


def mutate_type(rng: random.Random, t: Type) -> Type:
    """One conversion-preserving mutation at a random position."""
    poses = _positions(t)
    rng.shuffle(poses)
    for path in poses:
        sub = _get_pos(t, path)
        if not isinstance(sub, Type):
            continue
        choices = []
        # beta-expansion with an unused binder
        choices.append(lambda s: TApp(TLam(fresh_name("m"), ShOne(), s), DomZero()))
        if isinstance(sub, TVar):
            choices.append(lambda s: TDual(TDual(s)))
        if isinstance(sub, StMerge):
            choices.append(lambda s: StMerge(s.right, s.left))
        if isinstance(sub, TDual) and isinstance(sub.ses, TSend):
            inner = sub.ses
            choices.append(
                lambda s, i=inner: TRecv(i.binder, i.shape, i.state, i.payload, TDual(i.cont))
            )
        if isinstance(sub, TEnd):
            choices.append(lambda s: TDual(s))
        mut = rng.choice(choices)
        new_sub = mut(sub)
        if isinstance(new_sub, Type):
            return _set_pos(t, path, new_sub)
    return t


# ---------------------------------------------------------------------------
# reference scope walks: the hand-written free_vars, subst, canonicalize,
# normalization key and normalizer that the scope table replaced, kept
# verbatim (renamed *_ref) so tests can compare the table-driven versions
# against them
# ---------------------------------------------------------------------------

_Env = dict[int, int]  # binder uid -> de Bruijn level


def _node_fields_ref(t: Tree) -> list[tuple[str, object]]:
    return [(f, getattr(t, f)) for f in node_fields(t)]


def children_ref(t: Tree) -> Iterator[Tree]:
    """All direct subtrees, including bindings inside tuples."""
    for _, v in _node_fields_ref(t):
        if isinstance(v, Node):
            yield v
        elif isinstance(v, tuple):
            for x in v:
                if isinstance(x, Node):
                    yield x


def _rebuild_ref(t: Tree, go) -> Tree:
    changes = {}
    for name, v in _node_fields_ref(t):
        if isinstance(v, Node):
            w = go(v)
            if w is not v:
                changes[name] = w
        elif isinstance(v, tuple) and any(isinstance(x, Node) for x in v):
            w = tuple(go(x) if isinstance(x, Node) else x for x in v)
            if w != v:
                changes[name] = w
    return replace_fields(t, **changes) if changes else t


def free_vars_ref(t: Tree) -> set[Name]:
    """Identifiers with no enclosing binder in t (type and value vars alike)."""
    out: set[Name] = set()

    def go(t: Tree, bound: frozenset[int]) -> None:
        match t:
            case TVar(name) | VVar(name):
                if name.uid not in bound:
                    out.add(name)
            case TLam(binder, shape, body):
                go(shape, bound)
                go(body, bound | {binder.uid})
            case TAll(binder, kind, cstr, body):
                go(kind, bound)
                inner = bound | {binder.uid}
                for c in cstr:
                    go(c, inner)
                go(body, inner)
            case TArr(pre, arg, exctx, post, res):
                go(pre, bound)
                go(arg, bound)
                inner = bound
                for b in exctx:
                    go(b, inner)
                    if isinstance(b, (BTVar, BVal)):
                        inner = inner | {b.name.uid}
                go(post, inner)
                go(res, inner)
            case TSend(binder, shape, state, payload, cont) | TRecv(
                binder, shape, state, payload, cont
            ):
                go(shape, bound)
                inner = bound | {binder.uid}
                go(state, inner)
                go(payload, inner)
                go(cont, bound)
            case ELet(binder, head, body, exnames):
                go(head, bound)
                go(body, bound | {binder.uid} | {n.uid for n in exnames})
            case VAbs(pre, binder, argty, body):
                go(pre, bound)
                go(argty, bound)
                go(body, bound | {binder.uid})
            case VTAbs(binder, kind, cstr, body):
                go(kind, bound)
                inner = bound | {binder.uid}
                for c in cstr:
                    go(c, inner)
                go(body, inner)
            case CNuChan(end1, end2, ses, body):
                go(ses, bound)
                go(body, bound | {end1.uid, end2.uid})
            case CNuAccess(binder, ses, body):
                go(ses, bound)
                go(body, bound | {binder.uid})
            case BTVar(name, kind):
                go(kind, bound)
            case BVal(name, type_):
                go(type_, bound)
            case _:
                for c in children_ref(t):
                    go(c, bound)

    go(t, frozenset())
    return out


def subst_ref(s: Subst, t: Tree) -> Tree:
    """Simultaneous capture-avoiding substitution.

    Every binder along the way is freshened, and so are binders inside
    substituted payloads, which re-establishes the hygiene invariant even
    when one payload is inserted at several sites.
    """

    def payload(v: Union[Type, Value]) -> Union[Type, Value]:
        # freshen the payload's own binders per insertion site
        return subst_ref({}, v) if _has_binders_ref(v) else v

    def go(t: Tree, s: Subst) -> Tree:
        match t:
            case TVar(name):
                if name.uid in s:
                    return payload(s[name.uid])
                return t
            case VVar(name):
                if name.uid in s:
                    return payload(s[name.uid])
                return t
            case TLam(binder, shape, body):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: TVar(b2)}
                return TLam(b2, go(shape, s), go(body, s2), span=t.span)
            case TAll(binder, kind, cstr, body):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: TVar(b2)}
                return TAll(
                    b2,
                    go(kind, s),
                    tuple(go(c, s2) for c in cstr),
                    go(body, s2),
                    span=t.span,
                )
            case TArr(pre, arg, exctx, post, res):
                s2 = dict(s)
                ex2 = []
                for b in exctx:
                    if isinstance(b, BTVar):
                        nb = fresh_name(b.name.text)
                        ex2.append(BTVar(nb, go(b.kind, s2)))
                        s2[b.name.uid] = TVar(nb)
                    elif isinstance(b, BVal):
                        nb = fresh_name(b.name.text)
                        ex2.append(BVal(nb, go(b.type, s2)))
                        s2[b.name.uid] = VVar(nb)
                    else:
                        ex2.append(go(b, s2))
                return TArr(
                    go(pre, s), go(arg, s), tuple(ex2), go(post, s2), go(res, s2), span=t.span
                )
            case TSend(binder, shape, state, pay, cont):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: TVar(b2)}
                return TSend(b2, go(shape, s), go(state, s2), go(pay, s2), go(cont, s), span=t.span)
            case TRecv(binder, shape, state, pay, cont):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: TVar(b2)}
                return TRecv(b2, go(shape, s), go(state, s2), go(pay, s2), go(cont, s), span=t.span)
            case ELet(binder, head, body, exnames):
                b2 = fresh_name(binder.text)
                ex2 = tuple(fresh_name(n.text) for n in exnames)
                s2 = {**s, binder.uid: VVar(b2)}
                for old, new in zip(exnames, ex2):
                    s2[old.uid] = TVar(new)
                return ELet(b2, go(head, s), go(body, s2), exnames=ex2, span=t.span)
            case VAbs(pre, binder, argty, body):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: VVar(b2)}
                return VAbs(go(pre, s), b2, go(argty, s), go(body, s2), span=t.span)
            case VTAbs(binder, kind, cstr, body):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: TVar(b2)}
                return VTAbs(
                    b2, go(kind, s), tuple(go(c, s2) for c in cstr), go(body, s2), span=t.span
                )
            case CNuChan(end1, end2, ses, body, closed):
                e1, e2 = fresh_name(end1.text), fresh_name(end2.text)
                s2 = {**s, end1.uid: TVar(e1), end2.uid: TVar(e2)}
                return CNuChan(e1, e2, go(ses, s), go(body, s2), closed, span=t.span)
            case CNuAccess(binder, ses, body):
                b2 = fresh_name(binder.text)
                s2 = {**s, binder.uid: VVar(b2)}
                return CNuAccess(b2, go(ses, s), go(body, s2), span=t.span)
            case _:
                return _rebuild_ref(t, lambda c: go(c, s))

    return go(t, s)


_BINDER_NODES_REF = (TLam, TAll, TArr, TSend, TRecv, ELet, VAbs, VTAbs, CNuChan, CNuAccess)


def _has_binders_ref(t: Tree) -> bool:
    if isinstance(t, TArr):
        return True
    if isinstance(t, _BINDER_NODES_REF):
        return True
    return any(_has_binders_ref(c) for c in children_ref(t))


def canonicalize_ref(t: Tree) -> Tree:
    """Renumber binders in deterministic traversal order.

    Alpha-equivalent trees become structurally identical; free names are
    left untouched. Canonical names live in a negative uid space so they
    cannot collide with fresh ones.
    """
    counter = itertools.count()

    def cname() -> Name:
        i = next(counter)
        return Name(f"?{i}", -1 - i)

    def go(t: Tree, env: dict[int, Name]) -> Tree:
        match t:
            case TVar(name):
                return TVar(env.get(name.uid, name), span=t.span)
            case VVar(name):
                return VVar(env.get(name.uid, name), span=t.span)
            case TLam(binder, shape, body):
                shape2 = go(shape, env)
                b2 = cname()
                return TLam(b2, shape2, go(body, {**env, binder.uid: b2}), span=t.span)
            case TAll(binder, kind, cstr, body):
                kind2 = go(kind, env)
                b2 = cname()
                env2 = {**env, binder.uid: b2}
                return TAll(
                    b2, kind2, tuple(go(c, env2) for c in cstr), go(body, env2), span=t.span
                )
            case TArr(pre, arg, exctx, post, res):
                pre2, arg2 = go(pre, env), go(arg, env)
                env2 = dict(env)
                ex2 = []
                for b in exctx:
                    if isinstance(b, (BTVar, BVal)):
                        nb = cname()
                        if isinstance(b, BTVar):
                            ex2.append(BTVar(nb, go(b.kind, env2)))
                        else:
                            ex2.append(BVal(nb, go(b.type, env2)))
                        env2[b.name.uid] = nb
                    else:
                        ex2.append(go(b, env2))
                return TArr(pre2, arg2, tuple(ex2), go(post, env2), go(res, env2), span=t.span)
            case TSend(binder, shape, state, payload, cont):
                shape2 = go(shape, env)
                b2 = cname()
                env2 = {**env, binder.uid: b2}
                return TSend(b2, shape2, go(state, env2), go(payload, env2), go(cont, env), span=t.span)
            case TRecv(binder, shape, state, payload, cont):
                shape2 = go(shape, env)
                b2 = cname()
                env2 = {**env, binder.uid: b2}
                return TRecv(b2, shape2, go(state, env2), go(payload, env2), go(cont, env), span=t.span)
            case ELet(binder, head, body, exnames):
                head2 = go(head, env)
                b2 = cname()
                ex2 = tuple(cname() for _ in exnames)
                env2 = {**env, binder.uid: b2}
                for old, new in zip(exnames, ex2):
                    env2[old.uid] = new
                return ELet(b2, head2, go(body, env2), exnames=ex2, span=t.span)
            case VAbs(pre, binder, argty, body):
                pre2, argty2 = go(pre, env), go(argty, env)
                b2 = cname()
                return VAbs(pre2, b2, argty2, go(body, {**env, binder.uid: b2}), span=t.span)
            case VTAbs(binder, kind, cstr, body):
                kind2 = go(kind, env)
                b2 = cname()
                env2 = {**env, binder.uid: b2}
                return VTAbs(b2, kind2, tuple(go(c, env2) for c in cstr), go(body, env2), span=t.span)
            case CNuChan(end1, end2, ses, body, closed):
                ses2 = go(ses, env)
                e1, e2 = cname(), cname()
                env2 = {**env, end1.uid: e1, end2.uid: e2}
                return CNuChan(e1, e2, ses2, go(body, env2), closed, span=t.span)
            case CNuAccess(binder, ses, body):
                ses2 = go(ses, env)
                b2 = cname()
                return CNuAccess(b2, ses2, go(body, {**env, binder.uid: b2}), span=t.span)
            case _:
                return _rebuild_ref(t, lambda c: go(c, env))

    return go(t, {})


def _key_ref(t: Type | Kind | Binding, env: _Env, depth: int):
    match t:
        case TVar(nm):
            return ("b", env[nm.uid]) if nm.uid in env else ("f", nm.text, nm.uid)
        case TLam(binder, shape, body):
            return (
                "TLam",
                _key_ref(shape, env, depth),
                _key_ref(body, {**env, binder.uid: depth}, depth + 1),
            )
        case TAll(binder, kind, cstr, body):
            env2 = {**env, binder.uid: depth}
            return (
                "TAll",
                _key_ref(kind, env, depth),
                tuple(_key_ref(c, env2, depth + 1) for c in cstr),
                _key_ref(body, env2, depth + 1),
            )
        case TArr(pre, arg, exctx, post, res):
            env2, d2 = dict(env), depth
            keys = []
            for b in exctx:
                if isinstance(b, (BTVar, BVal)):
                    keys.append(_key_ref(b.kind if isinstance(b, BTVar) else b.type, env2, d2))
                    env2[b.name.uid] = d2
                    d2 += 1
                else:
                    keys.append(_key_ref(b, env2, d2))
            return (
                "TArr",
                _key_ref(pre, env, depth),
                _key_ref(arg, env, depth),
                tuple(keys),
                _key_ref(post, env2, d2),
                _key_ref(res, env2, d2),
            )
        case TSend(binder, shape, state, payload, cont) | TRecv(
            binder, shape, state, payload, cont
        ):
            env2 = {**env, binder.uid: depth}
            return (
                type(t).__name__,
                _key_ref(shape, env, depth),
                _key_ref(state, env2, depth + 1),
                _key_ref(payload, env2, depth + 1),
                _key_ref(cont, env, depth),
            )
        case DomProj(lab, dom):
            return ("DomProj", int(lab), _key_ref(dom, env, depth))
        case BDisjoint(l, r):
            return ("#", _key_ref(l, env, depth), _key_ref(r, env, depth))
        case BTVar(nm, kind):
            return ("BTVar", _key_ref(kind, env, depth))
        case BVal(nm, ty):
            return ("BVal", _key_ref(ty, env, depth))
        case KDom(shape):
            return ("KDom", _key_ref(shape, env, depth))
        case KArrow(src, dst):
            return ("KArrow", _key_ref(src, env, depth), _key_ref(dst, env, depth))
        case Kind():
            return (type(t).__name__,)
        case _:
            parts: list = [type(t).__name__]
            for f in node_fields(t):
                v = getattr(t, f)
                if isinstance(v, (Type, Kind, Binding)):
                    parts.append(_key_ref(v, env, depth))
                elif isinstance(v, Label):
                    parts.append(int(v))
            return tuple(parts)


def normalize_ref(t: Type) -> Type:
    return _norm_ref(t, {}, 0)


def _norm_ref(t: Type, env: _Env, depth: int) -> Type:
    match t:
        case TVar() | TEnd():
            return t
        case TApp(fn, arg):
            nf = _norm_ref(fn, env, depth)
            na = _norm_ref(arg, env, depth)
            if isinstance(nf, TLam):
                return _norm_ref(subst_ref({nf.binder.uid: na}, nf.body), env, depth)
            return TApp(nf, na)
        case TLam(binder, shape, body):
            nsh = _norm_ref(shape, env, depth)
            nb = _norm_ref(body, {**env, binder.uid: depth}, depth + 1)
            return TLam(binder, nsh, nb)
        case TAll(binder, kind, cstr, body):
            env2 = {**env, binder.uid: depth}
            return TAll(
                binder,
                _norm_kind_ref(kind, env, depth),
                tuple(
                    BDisjoint(_norm_ref(c.left, env2, depth + 1), _norm_ref(c.right, env2, depth + 1))
                    for c in cstr
                ),
                _norm_ref(body, env2, depth + 1),
            )
        case TArr(pre, arg, exctx, post, res):
            npre = _norm_ref(pre, env, depth)
            narg = _norm_ref(arg, env, depth)
            env2, d2 = dict(env), depth
            nex: list[Binding] = []
            for b in exctx:
                match b:
                    case BTVar(nm, kind):
                        nex.append(BTVar(nm, _norm_kind_ref(kind, env2, d2)))
                        env2[nm.uid] = d2
                        d2 += 1
                    case BVal(nm, ty):
                        nex.append(BVal(nm, _norm_ref(ty, env2, d2)))
                        env2[nm.uid] = d2
                        d2 += 1
                    case BDisjoint(l, r):
                        nex.append(BDisjoint(_norm_ref(l, env2, d2), _norm_ref(r, env2, d2)))
            return TArr(npre, narg, tuple(nex), _norm_ref(post, env2, d2), _norm_ref(res, env2, d2))
        case TChan(dom):
            return TChan(_norm_ref(dom, env, depth))
        case TAccess(ses):
            return TAccess(_norm_ref(ses, env, depth))
        case TPair(l, r):
            return TPair(_norm_ref(l, env, depth), _norm_ref(r, env, depth))
        case TSend(binder, shape, state, payload, cont) | TRecv(
            binder, shape, state, payload, cont
        ):
            env2 = {**env, binder.uid: depth}
            cls = TSend if isinstance(t, TSend) else TRecv
            return cls(
                binder,
                _norm_ref(shape, env, depth),
                _norm_ref(state, env2, depth + 1),
                _norm_ref(payload, env2, depth + 1),
                _norm_ref(cont, env, depth),
            )
        case TChoice(l, r):
            return TChoice(_norm_ref(l, env, depth), _norm_ref(r, env, depth))
        case TBranch(l, r):
            return TBranch(_norm_ref(l, env, depth), _norm_ref(r, env, depth))
        case TDual(s):
            return _dual_push_ref(_norm_ref(s, env, depth), env, depth)
        case DomMerge(l, r):
            return DomMerge(_norm_ref(l, env, depth), _norm_ref(r, env, depth))
        case DomProj(lab, dom):
            nd = _norm_ref(dom, env, depth)
            if isinstance(nd, DomMerge):
                return nd.left if lab is Label.L1 else nd.right
            return DomProj(lab, nd)
        case StEmpty():
            return t
        case StBind(dom, ses):
            return StBind(_norm_ref(dom, env, depth), _norm_ref(ses, env, depth))
        case StMerge():
            atoms: list[Type] = []
            for a in state_atoms(t):
                na = _norm_ref(a, env, depth)
                atoms.extend(state_atoms(na))  # normalization may expose merges
            atoms = [a for a in atoms if not isinstance(a, StEmpty)]
            atoms.sort(key=lambda a: _key_ref(a, env, depth))
            return _state_rebuild_ref(atoms)
        case _:
            return t  # ShZero, ShOne, DomZero, TUnit


def _norm_kind_ref(k: Kind, env: _Env, depth: int) -> Kind:
    match k:
        case KDom(shape):
            return KDom(_norm_ref(shape, env, depth))
        case KArrow(src, dst):
            return KArrow(_norm_kind_ref(src, env, depth), _norm_kind_ref(dst, env, depth))
        case _:
            return k


def _state_rebuild_ref(atoms: list[Type]) -> Type:
    if not atoms:
        return StEmpty()
    out = atoms[-1]
    for a in reversed(atoms[:-1]):
        out = StMerge(a, out)
    return out


def _dual_push_ref(s: Type, env: _Env, depth: int) -> Type:
    """Dual of an already-normal session; stays stuck on variables."""
    match s:
        case TEnd():
            return TEnd()
        case TSend(binder, shape, state, payload, cont):
            return TRecv(binder, shape, state, payload, _dual_push_ref(cont, env, depth))
        case TRecv(binder, shape, state, payload, cont):
            return TSend(binder, shape, state, payload, _dual_push_ref(cont, env, depth))
        case TChoice(l, r):
            return TBranch(_dual_push_ref(l, env, depth), _dual_push_ref(r, env, depth))
        case TBranch(l, r):
            return TChoice(_dual_push_ref(l, env, depth), _dual_push_ref(r, env, depth))
        case TDual(inner) if isinstance(inner, TVar):
            return inner  # involution
        case _:
            return TDual(s)  # stuck


# ---------------------------------------------------------------------------
# reference ANF: the recursive flatten_lets and the two-pass anf_transform
# that the one-loop spine walk of pvgr.anf replaced, kept verbatim but for
# their docstrings (renamed *_ref). anf_transform_ref is exponential in the
# length of a let-spine, so tests run it on short spines only.
# ---------------------------------------------------------------------------


def flatten_lets_ref(e: Expr) -> Expr:
    if isinstance(e, ELet):
        head = flatten_lets_ref(e.head)
        body = flatten_lets_ref(e.body)
        if isinstance(head, ELet):
            inner = flatten_lets_ref(ELet(e.binder, head.body, body, exnames=e.exnames))
            return ELet(head.binder, head.head, inner, exnames=head.exnames)
        return ELet(e.binder, head, body, exnames=e.exnames)
    return e


def anf_transform_ref(e: Expr) -> Expr:
    def chainify(e: Expr) -> Expr:
        e = go(e)
        e = flatten_lets_ref(e)
        # make every let body end in a let or a value
        if isinstance(e, ELet):
            body = chainify(e.body)
            if not isinstance(body, (ELet, EVal)):
                t = fresh_name("_a")
                body = ELet(t, body, EVal(VVar(t)))
            return ELet(e.binder, e.head, body, exnames=e.exnames, span=e.span)
        return e

    def go(e: Expr) -> Expr:
        match e:
            case ELet(binder, head, body, exnames):
                return ELet(binder, chainify_header(head), chainify(body), exnames=exnames, span=e.span)
            case ECase(v, l, r):
                return ECase(go_value(v), chainify(l), chainify(r), span=e.span)
            case EVal(v):
                return EVal(go_value(v), span=e.span)
            case _:
                changes = {}
                for f in node_fields(e):
                    x = getattr(e, f)
                    if isinstance(x, Value):
                        changes[f] = go_value(x)
                return replace_fields(e, **changes) if changes else e

    def chainify_header(h: Expr) -> Expr:
        # headers must not be lets themselves; flatten_lets at the outer
        # level lifts them, so here we only transform subparts
        return go(h)

    def go_value(v: Value) -> Value:
        match v:
            case VAbs(pre, binder, argty, body):
                return VAbs(pre, binder, argty, chainify(body), span=v.span)
            case VTAbs(binder, kind, cstr, body):
                return VTAbs(binder, kind, cstr, go_value(body), span=v.span)
            case VPair(l, r):
                return VPair(go_value(l), go_value(r), span=v.span)
            case _:
                return v

    return chainify(e)
