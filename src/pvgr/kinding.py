"""Context formation, kind formation, kinding, context restriction, and
disjoint context extension.

Each judgment is syntax-directed: it picks its rule from the class at the
root of its subject, read as `x.__class__` and compared by identity, arm
by arm in a fixed order. That is the arm a `match` with class patterns
would take, as no concrete node class has a subclass
(tests/test_dispatch.py), and it is cheaper: CPython 3.11 does not
specialize `MATCH_CLASS`, so each arm tried would cost an `isinstance`,
and one with captures several attribute lookups more.
"""

from __future__ import annotations

from itertools import accumulate

from .ast import (
    BDisjoint,
    BTVar,
    BVal,
    Ctx,
    DomMerge,
    DomProj,
    DomZero,
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
    state_atoms,
)
from .constraints import AtomizeError, Context, context, entails, fresh_marker, open_pairs
from .diagnostic import Diagnostic
from .normalize import conv, conv_key, normalize
from .pretty import pretty


class KindError(Diagnostic):
    """A failure of context formation (CF-), kind formation (KF-) or
    kinding (K-), coded by the failing rule."""

    status = 1


def located(span: Span | None, judgment, *args):
    """judgment(*args), a formation or kinding judgment made at a typing
    site: a failure with no span of its own (on a type the checker built,
    or on a context binding) is reported at span."""
    try:
        return judgment(*args)
    except KindError as e:
        if e.span is None:
            e.span = span
        raise


# -- context helpers ---------------------------------------------------------


def lookup_tvar(g: Ctx, name: Name) -> Kind | None:
    b = context(g).names.get(name.uid)
    return b.kind if isinstance(b, BTVar) else None


def lookup_val(g: Ctx, name: Name) -> Type | None:
    b = context(g).names.get(name.uid)
    return b.type if isinstance(b, BVal) else None


def kind_equiv(k1: Kind, k2: Kind) -> bool:
    """Kind equality; shapes inside Dom are compared up to conversion."""
    cls = k1.__class__
    if cls is not k2.__class__:
        return False
    if cls is KDom:
        return conv(k1.shape, k2.shape)
    if cls is KArrow:
        return kind_equiv(k1.src, k2.src) and kind_equiv(k1.dst, k2.dst)
    return True


# -- context restriction (keep only type variables of channel-free kinds) ----


def _keeps_non_dom(k: Kind) -> bool:
    if isinstance(k, (KShape, KSession)):
        return True
    if isinstance(k, KArrow) and isinstance(k.src, KDom) and isinstance(k.dst, (KType, KState)):
        return True
    return False


def restrict_non_dom(g: Ctx) -> Ctx:
    return Context(b for b in g if isinstance(b, BTVar) and _keeps_non_dom(b.kind))


# -- disjoint context extension ----------------------------------------------


def disjoint_append(g1: Ctx, g2: Ctx) -> Ctx:
    """g1, g2 and, when g2 binds domains, a marker making them disjoint from
    each other and from g1's: it stands for the constraints C2 and C12
    (`constraints.expand` writes them out)."""
    g1 = context(g1)
    if not g2:
        return g1
    names = g1.names
    uids = [b.name.uid for b in g2 if isinstance(b, (BTVar, BVal))]
    if len(set(uids)) < len(uids) or any(u in names for u in uids):
        raise KindError("CF-ConsKind", "disjoint extension requires fresh identifiers")
    d2 = [b.name for b in g2 if isinstance(b, BTVar) and isinstance(b.kind, KDom)]
    return g1 + (tuple(g2) + (fresh_marker(d2),) if d2 else tuple(g2))


# -- context formation --------------------------------------------------------


def check_ctx(g: Ctx) -> None:
    """Derivability of context formation; raises KindError on the first bad binding."""
    check_ctx_suffix((), g)


def check_kind(g: Ctx, k: Kind) -> None:
    cls = k.__class__
    if cls is KType or cls is KSession or cls is KState or cls is KShape:
        return
    if cls is KDom:
        shape = k.shape
        sk = infer_kind(g, shape)
        if not isinstance(sk, KShape):
            raise KindError(
                "KF-Dom",
                "domain kind index must be a shape",
                span=shape.span,
                expected=pretty(KShape()),
                found=pretty(sk),
            )
    elif cls is KArrow:
        check_kind(g, k.src)
        check_kind(g, k.dst)
    else:
        raise KindError("KF-Arr", f"unknown kind {k!r}")


# -- kinding -------------------------------------------------------------------

# the rule of each session constructor, for the premises they share
_SESSION_RULE = {TSend: "K-Send", TRecv: "K-Recv", TChoice: "K-Choice", TBranch: "K-Branch"}


def _fail(rule: str, msg: str, t: Type, **kw) -> KindError:
    return KindError(rule, msg, span=t.span, **kw)


def _expect(g: Ctx, t: Type, want: Kind, rule: str) -> None:
    k = infer_kind(g, t)
    if not kind_equiv(k, want):
        raise _fail(rule, f"{pretty(t)} has the wrong kind", t, expected=pretty(want), found=pretty(k))


def infer_kind(g: Ctx, t: Type) -> Kind:
    """The unique kind of t under g; raises KindError at the deepest failing
    premise."""
    g = context(g)
    cls = t.__class__
    if cls is TVar:
        nm = t.name
        k = lookup_tvar(g, nm)
        if k is None:
            raise _fail("K-Var", f"unbound type variable {nm.text}", t)
        return k
    if cls is TApp:
        kf = infer_kind(g, t.fn)
        if not isinstance(kf, KArrow):
            raise _fail("K-App", "application of a non-arrow type", t, found=pretty(kf))
        ka = infer_kind(g, t.arg)
        if not kind_equiv(ka, kf.src):
            raise _fail(
                "K-App", "argument kind mismatch", t, expected=pretty(kf.src), found=pretty(ka)
            )
        return kf.dst
    if cls is TLam:
        shape = t.shape
        _expect(g, shape, KShape(), "K-Lam")
        inner = restrict_non_dom(g) + (BTVar(t.binder, KDom(shape)),)
        kb = infer_kind(inner, t.body)
        if not isinstance(kb, (KType, KState)):
            raise _fail(
                "K-Lam",
                "type function body must have kind Type or State",
                t,
                found=pretty(kb),
            )
        return KArrow(KDom(shape), kb)
    if cls is TAll:
        g2 = g + ((BTVar(t.binder, t.kind),) + t.cstr)
        check_ctx_suffix(g, g2)  # forms the kind and each constraint
        kb = infer_kind(g2, t.body)
        if not isinstance(kb, KType):
            raise _fail("K-All", "quantified body must have kind Type", t, found=pretty(kb))
        return KType()
    if cls is TArr:
        _expect(g, t.pre, KState(), "K-Arr")
        _expect(g, t.arg, KType(), "K-Arr")
        check_arrow_package(g, t)
        return KType()
    if cls is TChan:
        kd = infer_kind(g, t.dom)
        if not kind_equiv(kd, KDom(ShOne())):
            raise _fail(
                "K-Chan",
                "channel type needs a single-channel domain",
                t,
                expected="Dom(1)",
                found=pretty(kd),
            )
        return KType()
    if cls is TAccess:
        _expect(g, t.ses, KSession(), "K-AccessPoint")
        return KType()
    if cls is TUnit:
        return KType()
    if cls is TPair:
        r = t.right
        kl = infer_kind(g, t.left)
        if isinstance(kl, KShape):
            _expect(g, r, KShape(), "K-ShapePair")
            return KShape()
        if isinstance(kl, KType):
            _expect(g, r, KType(), "K-Pair")
            return KType()
        raise _fail("K-Pair", "pair component must be a type or a shape", t, found=pretty(kl))
    if cls is TSend or cls is TRecv:
        rule = _SESSION_RULE[cls]
        shape = t.shape
        _expect(g, shape, KShape(), rule)
        inner = restrict_non_dom(g) + (BTVar(t.binder, KDom(shape)),)
        _expect(inner, t.state, KState(), rule)
        _expect(inner, t.payload, KType(), rule)
        _expect(g, t.cont, KSession(), rule)
        return KSession()
    if cls is TChoice or cls is TBranch:
        rule = _SESSION_RULE[cls]
        _expect(g, t.left, KSession(), rule)
        _expect(g, t.right, KSession(), rule)
        return KSession()
    if cls is TEnd:
        return KSession()
    if cls is TDual:
        _expect(g, t.ses, KSession(), "K-Dual")
        return KSession()
    if cls is ShZero or cls is ShOne:
        return KShape()
    if cls is DomZero:
        return KDom(ShZero())
    if cls is DomMerge:
        l, r = t.left, t.right
        kl, kr = infer_kind(g, l), infer_kind(g, r)
        if not (isinstance(kl, KDom) and isinstance(kr, KDom)):
            raise _fail("K-DomMerge", "merge of non-domains", t)
        _require_disjoint(g, l, r, "K-DomMerge", t)
        return KDom(TPair(kl.shape, kr.shape))
    if cls is DomProj:
        kd = infer_kind(g, t.dom)
        if not isinstance(kd, KDom):
            raise _fail("K-DomProj", "projection of a non-domain", t, found=pretty(kd))
        sh = normalize(kd.shape)
        if not isinstance(sh, TPair):
            raise _fail(
                "K-DomProj",
                "projection needs a pair-shaped domain",
                t,
                found=pretty(sh),
            )
        return KDom(sh.left if t.label is Label.L1 else sh.right)
    if cls is StEmpty:
        return KState()
    if cls is StBind:
        kd = infer_kind(g, t.dom)
        if not kind_equiv(kd, KDom(ShOne())):
            raise _fail(
                "K-StChan",
                "state binding needs a single-channel domain",
                t,
                expected="Dom(1)",
                found=pretty(kd),
            )
        _expect(g, t.ses, KSession(), "K-StChan")
        return KState()
    if cls is StMerge:
        _kind_merge_tree(g, t)
        return KState()
    raise _fail("K-Var", f"not a type: {t!r}", t)


def check_arrow_package(g: Ctx, t: TArr) -> None:
    """The premises of K-Arr after the pre-state and the argument: the
    existential context, then the post-state and result under it. Alone,
    it kinds an arrow whose pre-state and argument are already kinded."""
    for b in t.exctx:
        if isinstance(b, BVal):
            raise _fail("K-Arr", "existential context may not bind values", t)
        if isinstance(b, BTVar) and not isinstance(b.kind, KDom):
            raise _fail(
                "K-Arr",
                "existential context may only bind domains",
                t,
                found=pretty(b.kind),
            )
    gx = disjoint_append(g, t.exctx)
    check_ctx_suffix(g, gx)
    _expect(gx, t.post, KState(), "K-Arr")
    _expect(gx, t.res, KType(), "K-Arr")


def _require_disjoint(g: Ctx, d1: Type, d2: Type, rule: str, at: Type) -> None:
    if not entails(g, (BDisjoint(d1, d2),)):
        raise _fail(
            rule,
            f"cannot prove disjointness {pretty(d1)} # {pretty(d2)}",
            at,
        )


# -- K-StMerge over a whole merge tree -------------------------------------------

def _kind_merge_tree(g: Context, t: StMerge) -> None:
    """K-StMerge at t and every merge below it, in one pass: the leaves of
    the merge tree are kinded left to right, then the pairs of domains of
    different leaves are decided at once. `open_pairs` settles in one
    sweep those that a marker makes disjoint, and only the rest are asked
    of `entails`. When anything fails, `_first_failure` raises what the
    nested rule (each side kinded, then each domain of one side's atoms
    against each of the other's) meets first."""
    leaves, order = _merge_order(t)
    atoms: list[list[Type]] = []  # the normalized atoms of each leaf kinded
    failure = None
    for leaf in leaves:
        try:
            _expect(g, leaf, KState(), "K-StMerge")
        except KindError as e:
            failure = e
            break
        atoms.append(state_atoms(normalize(leaf)))
    owner = [k for k, la in enumerate(atoms) for _ in la]
    doms = [_dom(a) for la in atoms for a in la]
    pairs = open_pairs(g, doms)
    if failure is None and (len(doms) < 2 or all(d is not None for d in doms)):
        try:
            if all(entails(g, (BDisjoint(doms[i], doms[j]),)) for i, j in pairs if owner[i] != owner[j]):
                return
        except AtomizeError:
            pass  # raised again below, where the nested rule meets it
    _first_failure(g, order, atoms, doms, set(pairs), failure)


def _merge_order(t: StMerge) -> tuple[list[Type], list]:
    """The leaves of t's merge tree, left to right, and the tree in
    post-order: a leaf as its index, a merge as (merge, lo, mid, hi), where
    its left side holds the leaves lo..mid-1 and its right side mid..hi-1."""
    leaves: list[Type] = []
    order: list = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is list:  # [merge, lo, mid]: a merge met again after a side
            if x[2] is None:
                x[2] = len(leaves)
            else:
                order.append((x[0], x[1], x[2], len(leaves)))
        elif x.__class__ is StMerge:
            m = [x, len(leaves), None]
            stack += (m, x.right, m, x.left)
        else:
            order.append(len(leaves))
            leaves.append(x)
    return leaves, order


def _first_failure(g: Context, order: list, atoms: list[list[Type]], doms: list, open_: set, failure) -> None:
    """Raise the failure the nested rule meets first. It walks the merge
    tree in post-order: a leaf is kinded (`failure` is that of the first
    leaf that was not), and at a merge an opaque state on either side stops
    it when the other side has atoms; otherwise it asks for each pair of a
    left and a right domain, each side in normalize's order (`conv_key`, the
    leaves' order among equal keys; a merge of two single atoms takes them
    as they come). A pair that `open_pairs` settled is not asked again."""
    flat = [a for la in atoms for a in la]
    start = [0, *accumulate(len(la) for la in atoms)]  # each leaf's first atom in flat

    def key(k: int):
        return conv_key(flat[k])

    for step in order:
        if step.__class__ is int:
            if step == len(atoms):
                raise failure
            continue
        merge, lo, mid, hi = step
        left, right = range(start[lo], start[mid]), range(start[mid], start[hi])
        if not (len(left) == 1 and len(right) == 1):
            left, right = sorted(left, key=key), sorted(right, key=key)
        opaque_l = any(doms[k] is None for k in left)
        opaque_r = any(doms[k] is None for k in right)
        if opaque_l or opaque_r:
            if (opaque_l and right) or (opaque_r and left):
                raise _fail("K-StMerge", "cannot establish disjointness of an opaque state", merge)
            continue
        for i in left:
            for j in right:
                if (i, j) in open_:
                    _require_disjoint(g, doms[i], doms[j], "K-StMerge", merge)


def _dom(atom: Type) -> Type | None:
    """The domain a state atom governs; None when it cannot be determined
    (opaque state variable). A stuck application f d covers at most d."""
    if isinstance(atom, StBind):
        return atom.dom
    if isinstance(atom, TApp):
        return atom.arg
    return None


def check_ctx_suffix(g_ok: Ctx, g: Ctx) -> None:
    """check_ctx for g, assuming its prefix g_ok was already checked."""
    prefix = context(g_ok)
    for b in g[len(g_ok) :]:
        cls = b.__class__
        if cls is BTVar:
            nm = b.name
            if nm.uid in prefix.names:
                raise KindError("CF-ConsKind", f"duplicate binding for {nm.text}")
            check_kind(prefix, b.kind)
        elif cls is BVal:
            nm = b.name
            if nm.uid in prefix.names:
                raise KindError("CF-ConsType", f"duplicate binding for {nm.text}")
            k = infer_kind(prefix, b.type)
            if not isinstance(k, KType):
                raise KindError("CF-ConsType", "value binding must be Type-kinded")
        elif cls is BDisjoint:
            for side in (b.left, b.right):
                if not isinstance(infer_kind(prefix, side), KDom):
                    raise KindError("CF-ConsCstr", "constraint over a non-domain")
        # a disjoint extension's marker names domains bound before it
        prefix = prefix + (b,)
