"""Context formation, kind formation, kinding, context restriction, and
disjoint context extension."""

from __future__ import annotations

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
from .constraints import Context, context, entails, fresh_marker
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
    match (k1, k2):
        case (KDom(s1), KDom(s2)):
            return conv(s1, s2)
        case (KArrow(a1, b1), KArrow(a2, b2)):
            return kind_equiv(a1, a2) and kind_equiv(b1, b2)
        case _:
            return type(k1) is type(k2)


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
    match k:
        case KType() | KSession() | KState() | KShape():
            return
        case KDom(shape):
            sk = infer_kind(g, shape)
            if not isinstance(sk, KShape):
                raise KindError(
                    "KF-Dom",
                    "domain kind index must be a shape",
                    span=shape.span,
                    expected=pretty(KShape()),
                    found=pretty(sk),
                )
        case KArrow(src, dst):
            check_kind(g, src)
            check_kind(g, dst)
        case _:
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
    match t:
        case TVar(nm):
            k = lookup_tvar(g, nm)
            if k is None:
                raise _fail("K-Var", f"unbound type variable {nm.text}", t)
            return k
        case TApp(fn, arg):
            kf = infer_kind(g, fn)
            if not isinstance(kf, KArrow):
                raise _fail("K-App", "application of a non-arrow type", t, found=pretty(kf))
            ka = infer_kind(g, arg)
            if not kind_equiv(ka, kf.src):
                raise _fail(
                    "K-App", "argument kind mismatch", t, expected=pretty(kf.src), found=pretty(ka)
                )
            return kf.dst
        case TLam(binder, shape, body):
            _expect(g, shape, KShape(), "K-Lam")
            inner = restrict_non_dom(g) + (BTVar(binder, KDom(shape)),)
            kb = infer_kind(inner, body)
            if not isinstance(kb, (KType, KState)):
                raise _fail(
                    "K-Lam",
                    "type function body must have kind Type or State",
                    t,
                    found=pretty(kb),
                )
            return KArrow(KDom(shape), kb)
        case TAll(binder, kind, cstr, body):
            g2 = g + ((BTVar(binder, kind),) + cstr)
            check_ctx_suffix(g, g2)  # forms the kind and each constraint
            kb = infer_kind(g2, body)
            if not isinstance(kb, KType):
                raise _fail("K-All", "quantified body must have kind Type", t, found=pretty(kb))
            return KType()
        case TArr(pre, arg):
            _expect(g, pre, KState(), "K-Arr")
            _expect(g, arg, KType(), "K-Arr")
            check_arrow_package(g, t)
            return KType()
        case TChan(dom):
            kd = infer_kind(g, dom)
            if not kind_equiv(kd, KDom(ShOne())):
                raise _fail(
                    "K-Chan",
                    "channel type needs a single-channel domain",
                    t,
                    expected="Dom(1)",
                    found=pretty(kd),
                )
            return KType()
        case TAccess(ses):
            _expect(g, ses, KSession(), "K-AccessPoint")
            return KType()
        case TUnit():
            return KType()
        case TPair(l, r):
            kl = infer_kind(g, l)
            if isinstance(kl, KShape):
                _expect(g, r, KShape(), "K-ShapePair")
                return KShape()
            if isinstance(kl, KType):
                _expect(g, r, KType(), "K-Pair")
                return KType()
            raise _fail("K-Pair", "pair component must be a type or a shape", t, found=pretty(kl))
        case TSend(binder, shape, state, payload, cont) | TRecv(binder, shape, state, payload, cont):
            rule = _SESSION_RULE[type(t)]
            _expect(g, shape, KShape(), rule)
            inner = restrict_non_dom(g) + (BTVar(binder, KDom(shape)),)
            _expect(inner, state, KState(), rule)
            _expect(inner, payload, KType(), rule)
            _expect(g, cont, KSession(), rule)
            return KSession()
        case TChoice(l, r) | TBranch(l, r):
            rule = _SESSION_RULE[type(t)]
            _expect(g, l, KSession(), rule)
            _expect(g, r, KSession(), rule)
            return KSession()
        case TEnd():
            return KSession()
        case TDual(s):
            _expect(g, s, KSession(), "K-Dual")
            return KSession()
        case ShZero() | ShOne():
            return KShape()
        case DomZero():
            return KDom(ShZero())
        case DomMerge(l, r):
            kl, kr = infer_kind(g, l), infer_kind(g, r)
            if not (isinstance(kl, KDom) and isinstance(kr, KDom)):
                raise _fail("K-DomMerge", "merge of non-domains", t)
            _require_disjoint(g, l, r, "K-DomMerge", t)
            return KDom(TPair(kl.shape, kr.shape))
        case DomProj(lab, dom):
            kd = infer_kind(g, dom)
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
            return KDom(sh.left if lab is Label.L1 else sh.right)
        case StEmpty():
            return KState()
        case StBind(dom, ses):
            kd = infer_kind(g, dom)
            if not kind_equiv(kd, KDom(ShOne())):
                raise _fail(
                    "K-StChan",
                    "state binding needs a single-channel domain",
                    t,
                    expected="Dom(1)",
                    found=pretty(kd),
                )
            _expect(g, ses, KSession(), "K-StChan")
            return KState()
        case StMerge():
            _merge_atoms(g, t)
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

def _merge_atoms(g: Context, t: StMerge) -> list[Type]:
    """K-StMerge at t and every merge below it, in one pass: each side is
    kinded, then every domain of one side's atoms must be disjoint from
    every domain of the other's. Returns t's normalized atoms as normalize
    orders them, so that the merge above reads them instead of normalizing
    t again. A merge of two single atoms asks one question, so it leaves
    its atoms unordered."""
    la, ra = _side_atoms(g, t.left), _side_atoms(g, t.right)
    single = len(la) == 1 and len(ra) == 1
    if not single:
        la.sort(key=conv_key)
        ra.sort(key=conv_key)
    ld, rd = _doms(la), _doms(ra)
    if ld is None or rd is None:
        if (ld is None and ra) or (rd is None and la):
            raise _fail("K-StMerge", "cannot establish disjointness of an opaque state", t)
    else:
        for d1 in ld:
            for d2 in rd:
                _require_disjoint(g, d1, d2, "K-StMerge", t)
    return la + ra if single else sorted(la + ra, key=conv_key)


def _side_atoms(g: Context, t: Type) -> list[Type]:
    if isinstance(t, StMerge):
        return _merge_atoms(g, t)
    _expect(g, t, KState(), "K-StMerge")
    return state_atoms(normalize(t))


def _doms(atoms: list[Type]) -> list[Type] | None:
    """Domains governed by state atoms; None when they cannot be determined
    (opaque state variable). A stuck application f d covers at most d."""
    out: list[Type] = []
    for a in atoms:
        if isinstance(a, StBind):
            out.append(a.dom)
        elif isinstance(a, TApp):
            out.append(a.arg)
        else:
            return None
    return out


def check_ctx_suffix(g_ok: Ctx, g: Ctx) -> None:
    """check_ctx for g, assuming its prefix g_ok was already checked."""
    prefix = context(g_ok)
    for b in g[len(g_ok) :]:
        match b:
            case BTVar(nm, kind):
                if nm.uid in prefix.names:
                    raise KindError("CF-ConsKind", f"duplicate binding for {nm.text}")
                check_kind(prefix, kind)
            case BVal(nm, ty):
                if nm.uid in prefix.names:
                    raise KindError("CF-ConsType", f"duplicate binding for {nm.text}")
                k = infer_kind(prefix, ty)
                if not isinstance(k, KType):
                    raise KindError("CF-ConsType", "value binding must be Type-kinded")
            case BDisjoint(l, r):
                for side in (l, r):
                    if not isinstance(infer_kind(prefix, side), KDom):
                        raise KindError("CF-ConsCstr", "constraint over a non-domain")
            # a disjoint extension's marker names domains bound before it
        prefix = prefix + (b,)
