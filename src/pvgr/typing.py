"""Algorithmic typing: value typing, expression typing with typestate
threading, existential-package matching, and configuration typing.

Instead of guessing state splits, each judgment threads the entire input
state: header rules consume exactly the bindings they need and leave the
rest. A let-spine is typed in one loop, not one recursion per `let`.
Existential binders created along it (received channels, new connections)
are dropped from its package, once at its end, when neither the post state
nor the result type mentions them; such binders are checker-internal and
cannot be referenced by the program.

T-Send on a plain step (`ast.plain_step`: the binder has shape 0, the
state is `.`, and the payload does not mention the binder; the sugar
`!T.S`) holds exactly when the payload's type converts to T, and then
consumes nothing, so `_type_send` decides it by `conv` alone, without
matching the package. This is exact: the general path's match finds no
part of the binder in a payload that does not mention it; the empty
pattern state places in one way; `_assemble` then gives `{}` for the
binder, as its shape is 0; `{}` has kind Dom(0), so the kind premise
holds; and the substituted state is `.`, so nothing is consumed. When the
payload does not convert, the general path runs and reports the failure.
T-Recv keeps a plain step's binder in its package all the same, as
`let [c] x = recv u` may name it.

T-TApp, T-Recv, T-Send, existential matching and T-App's arrow
substitute and normalize in one pass (`normalize.instantiate`).

Value, expression and configuration typing pick their rule from the
subject's class by identity, as `pvgr.kinding` does, and for the same
reason.
"""

from __future__ import annotations

from typing import NamedTuple

from .anf import is_strict_anf
from .ast import (
    BDisjoint,
    Binding,
    BTVar,
    BVal,
    Ctx,
    DomMerge,
    DomProj,
    DomZero,
    CNuAccess,
    CNuChan,
    CPar,
    CProc,
    Config,
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
    IN,
    KDom,
    KSession,
    KState,
    KType,
    Kind,
    LAYOUT,
    Label,
    Name,
    ShOne,
    ShZero,
    Span,
    StBind,
    StEmpty,
    TAccess,
    TAll,
    TApp,
    TArr,
    TBIND,
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
    VAbs,
    VChan,
    VPair,
    VTAbs,
    VUnit,
    VVar,
    Value,
    free_vars,
    fresh_name,
    plain_step,
    state_atoms,
    state_of_atoms,
    subst,
)
from .constraints import chain_of, context, entails, expand
from .diagnostic import Diagnostic
from .kinding import (
    check_arrow_package, check_ctx_suffix, disjoint_append, infer_kind, kind_equiv, located, lookup_val,
)
from .normalize import conv, conv_key, dual, instantiate, normalize
from .pretty import pretty, pretty_ctx


class TypecheckError(Diagnostic):
    """A failure of an algorithmic typing rule (T-), coded by the rule. A
    formation or kinding failure met on the way is a KindError instead,
    under its own rule."""

    status = 1


class ExprTyping(NamedTuple):
    """Right side of an expression typing: ex exctx. post; ty."""

    exctx: Ctx
    post: list[Type]  # state atoms
    ty: Type

    @property
    def post_state(self) -> Type:
        return normalize(state_of_atoms(self.post))

    def __str__(self) -> str:
        ex = pretty_ctx(self.exctx)
        prefix = f"ex {ex}. " if ex else "ex . "
        return f"{prefix}{pretty(self.post_state)}; {pretty(self.ty)}"


Renaming = dict[int, Type]


# ---------------------------------------------------------------------------
# state bags
# ---------------------------------------------------------------------------


def _atoms_of(state: Type) -> list[Type]:
    return state_atoms(normalize(state))


def _remove(atoms: list[Type], wanted: list[Type]) -> tuple[list[Type], Type | None]:
    """atoms less the first atom convertible to each wanted atom, in turn,
    and the first wanted atom that none is convertible to (None when all
    are found)."""
    rest = list(atoms)
    keys = [conv_key(a) for a in rest]
    for w in wanted:
        try:
            i = keys.index(conv_key(w))
        except ValueError:
            return rest, w
        del rest[i], keys[i]
    return rest, None


def _take_atoms(atoms: list[Type], wanted: list[Type], rule: str, span: Span | None) -> list[Type]:
    """Remove wanted atoms (up to conv) from atoms; error when absent."""
    rest, missing = _remove(atoms, wanted)
    if missing is not None:
        raise TypecheckError(
            rule,
            "state does not provide a required binding",
            span,
            expected=pretty(normalize(missing)),
            state=pretty(normalize(state_of_atoms(atoms))),
        )
    return rest


# ---------------------------------------------------------------------------
# value typing
# ---------------------------------------------------------------------------


def type_value(g: Ctx, v: Value) -> Type:
    g = context(g)
    cls = v.__class__
    if cls is VVar:
        nm = v.name
        ty = lookup_val(g, nm)
        if ty is None:
            raise TypecheckError("T-Var", f"unbound variable {nm.text}", v.span)
        return ty
    if cls is VUnit:
        return TUnit()
    if cls is VChan:
        dom = v.dom
        kd = located(v.span, infer_kind, g, dom)
        if not kind_equiv(kd, KDom(ShOne())):
            raise TypecheckError(
                "T-Chan",
                "channel value over a non single-channel domain",
                v.span,
                expected="Dom(1)",
                found=pretty(kd),
            )
        return TChan(normalize(dom))
    if cls is VPair:
        return TPair(type_value(g, v.left), type_value(g, v.right))
    if cls is VAbs:
        npre = _kind_check(g, v.pre, KState(), "T-Abs", v.span, normal=True)
        nargty = _kind_check(g, v.argty, KType(), "T-Abs", v.span, normal=True)
        r = _type_expr(g + (BVal(v.binder, nargty),), _atoms_of(npre), v.body)
        arr = TArr(npre, nargty, r.exctx, r.post_state, r.ty)
        located(v.span, check_arrow_package, g, arr)  # pre and argty are kinded above
        return arr
    if cls is VTAbs:
        binder, kind, cstr = v.binder, v.kind, v.cstr
        g2 = g + ((BTVar(binder, kind),) + cstr)
        located(v.span, check_ctx_suffix, g, g2)  # forms the kind and each constraint
        ty = type_value(g2, v.body)
        return TAll(binder, kind, cstr, ty)
    raise TypecheckError("T-Var", f"not a value: {v!r}", v.span)


def _kind_check(g: Ctx, t: Type, want: Kind, rule: str, span: Span | None, normal: bool = False) -> Type:
    """t, of kind `want` under g. With `normal` it is returned normalized,
    and a wrong kind is reported on its normal form: t is normalized only
    once it is kinded, as normalizing an ill-kinded type need not end."""
    k = located(span or t.span, infer_kind, g, t)
    if normal:
        t = normalize(t)
    if not kind_equiv(k, want):
        raise TypecheckError(
            rule, f"{pretty(t)} has the wrong kind", span or t.span,
            expected=pretty(want), found=pretty(k),
        )
    return t


# ---------------------------------------------------------------------------
# expression typing
# ---------------------------------------------------------------------------


def type_expr(g: Ctx, sigma: Type, e: Expr) -> ExprTyping:
    """Gamma; sigma |- e : ex Gamma'. Sigma'; T with left-first threading."""
    if not is_strict_anf(e):
        raise TypecheckError("T-Let", "expression is not in strict A-normal form", e.span)
    g = context(g)
    _kind_check(g, sigma, KState(), "T-Val", e.span)
    return _type_expr(g, _atoms_of(sigma), e)


def _type_expr(g: Ctx, atoms: list[Type], e: Expr) -> ExprTyping:
    cls = e.__class__
    if cls is EVal:
        return ExprTyping((), list(atoms), type_value(g, e.value))

    if cls is ELet:
        # T-Let along the whole spine, its package collected once: each
        # let ends in the tail's post-state and type, so a collection at
        # each kept the same binders, and no head's constraint names a
        # later binder, fresh for the context (disjoint_append checks).
        # A head leaves the atoms it does not consume in order, in front
        # of the atoms it makes, which alone can mention its fresh
        # binders: from the first let that names them, `met` holds every
        # atom a head was given, by identity, so the atoms a head made
        # are those after the last one in `met`.
        package: list[Binding] = []
        met: dict[int, Type] | None = None
        while isinstance(e, ELet):
            r1 = _type_expr(g, atoms, e.head)
            if e.exnames or met is not None:
                if met is None:
                    met = {id(a): a for a in atoms}
                made = len(r1.post)
                while made and id(r1.post[made - 1]) not in met:
                    made -= 1
                if e.exnames:
                    r1 = _rename_exctx(r1, e.exnames, e.span, made)
                met.update((id(a), a) for a in r1.post[made:])
            g = disjoint_append(g, r1.exctx) + (BVal(e.binder, normalize(r1.ty)),)
            package += r1.exctx
            atoms, e = r1.post, e.body
        r2 = _type_expr(g, atoms, e)
        return _gc_package(ExprTyping(tuple(package) + r2.exctx, r2.post, r2.ty))

    if cls is EApp:
        tf = normalize(type_value(g, e.fn))
        if not isinstance(tf, TArr):
            raise TypecheckError(
                "T-App", "application of a non-function", e.span, found=pretty(tf)
            )
        ta = type_value(g, e.arg)
        if not conv(ta, tf.arg):
            raise TypecheckError(
                "T-App",
                "argument type mismatch",
                e.span,
                expected=pretty(normalize(tf.arg)),
                found=pretty(normalize(ta)),
            )
        rest = _take_atoms(atoms, _atoms_of(tf.pre), "T-App", e.span)
        exctx, post, ty = _instantiate_arr(tf)
        return ExprTyping(exctx, rest + post, ty)

    if cls is EProj:
        tv = normalize(type_value(g, e.value))
        if not isinstance(tv, TPair):
            raise TypecheckError(
                "T-Proj", "projection of a non-pair", e.span, found=pretty(tv)
            )
        return ExprTyping((), list(atoms), tv.left if e.label is Label.L1 else tv.right)

    if cls is ETApp:
        targ = e.type
        tv = normalize(type_value(g, e.value))
        if not isinstance(tv, TAll):
            raise TypecheckError(
                "T-TApp", "type application of a non-polymorphic value", e.span, found=pretty(tv)
            )
        ka = located(e.span, infer_kind, g, targ)
        if not kind_equiv(ka, tv.kind):
            raise TypecheckError(
                "T-TApp",
                "type argument kind mismatch",
                e.span,
                expected=pretty(tv.kind),
                found=pretty(ka),
            )
        inst = {tv.binder.uid: normalize(targ)}
        cs = tuple(subst(inst, c) for c in tv.cstr)
        if not entails(g, cs):
            raise TypecheckError(
                "T-TApp",
                "instantiated constraints are not entailed",
                e.span,
                expected=", ".join(pretty(c) for c in cs) or "(empty)",
                state=pretty_ctx(tuple(b for b in expand(g) if isinstance(b, BDisjoint))),
            )
        return ExprTyping((), list(atoms), instantiate(tv.body, inst))

    if cls is ENew:
        ses = e.ses
        _kind_check(g, ses, KSession(), "T-New", e.span)
        return ExprTyping((), list(atoms), TAccess(normalize(ses)))

    if cls is EAccept or cls is ERequest:
        rule = "T-Accept" if isinstance(e, EAccept) else "T-Request"
        tv = normalize(type_value(g, e.value))
        if not isinstance(tv, TAccess):
            raise TypecheckError(
                rule, "accept/request on a non access point", e.span, found=pretty(tv)
            )
        c = fresh_name("c")
        ses = tv.ses if isinstance(e, EAccept) else dual(tv.ses)
        return ExprTyping(
            (BTVar(c, KDom(ShOne())),),
            list(atoms) + [StBind(TVar(c), ses)],
            TChan(TVar(c)),
        )

    if cls is ESend:
        return _type_send(g, atoms, e, e.payload, e.chan)

    if cls is ERecv:
        dom, ses, rest = _channel_op(g, atoms, e, e.value)
        b2 = fresh_name(ses.binder.text or "d")
        inst = {ses.binder.uid: TVar(b2)}
        new_state = state_atoms(instantiate(ses.state, inst))
        ty = instantiate(ses.payload, inst)
        return ExprTyping(
            (BTVar(b2, KDom(normalize(ses.shape))),),
            rest + new_state + [StBind(dom, normalize(ses.cont))],
            ty,
        )

    if cls is ESelect:
        dom, ses, rest = _channel_op(g, atoms, e, e.value)
        chosen = ses.left if e.label is Label.L1 else ses.right
        return ExprTyping((), rest + [StBind(dom, chosen)], TUnit())

    if cls is ECase:
        return _type_case(g, atoms, e, e.value, e.left, e.right)

    if cls is EClose:
        _, _, rest = _channel_op(g, atoms, e, e.value)
        return ExprTyping((), rest, TUnit())

    if cls is EFork:
        tv = normalize(type_value(g, e.value))
        if not (
            isinstance(tv, TArr)
            and conv(tv.arg, TUnit())
            and conv(tv.res, TUnit())
            and isinstance(normalize(tv.post), StEmpty)
            and not tv.exctx
        ):
            raise TypecheckError(
                "T-Fork",
                "fork needs a [S;Unit -> ex . .;Unit] function",
                e.span,
                found=pretty(tv),
            )
        rest = _take_atoms(atoms, _atoms_of(tv.pre), "T-Fork", e.span)
        return ExprTyping((), rest, TUnit())

    raise TypecheckError("T-Val", f"cannot type expression {e!r}", e.span)


# The precondition of each channel operation: its rule, the constructor
# its channel's session must have, and the failure when it has another.
_CHANNEL_OPS = {
    ESend: ("T-Send", TSend, "channel is not ready to send", "!{..}(..).. session"),
    ERecv: ("T-Recv", TRecv, "channel is not ready to receive", "?{..}(..).. session"),
    ESelect: ("T-Select", TChoice, "channel does not offer a choice", "S +c S session"),
    ECase: ("T-Case", TBranch, "channel does not offer a branch", "S +b S session"),
    EClose: ("T-Close", TEnd, "channel session has not ended", pretty(TEnd())),
}


def _channel_op(g: Ctx, atoms: list[Type], e: Expr, v: Value) -> tuple[Type, Type, list[Type]]:
    """Check the precondition of channel operation e on v: v is a channel
    whose session in the state has the operation's constructor. Returns the
    channel's domain, its session, and the other state atoms."""
    rule, ctor, message, expected = _CHANNEL_OPS[type(e)]
    tv = normalize(type_value(g, v))
    if not isinstance(tv, TChan):
        raise TypecheckError(rule, "operation needs a channel", e.span, found=pretty(tv))
    k = conv_key(tv.dom)
    for i, a in enumerate(atoms):
        if isinstance(a, StBind) and conv_key(a.dom) == k:
            break
    else:
        raise TypecheckError(
            rule,
            f"channel {pretty(tv.dom)} is not in the current state",
            e.span,
            state=pretty(normalize(state_of_atoms(atoms))),
        )
    ses = normalize(a.ses)
    if not isinstance(ses, ctor):
        raise TypecheckError(rule, message, e.span, expected=expected, found=pretty(ses))
    return tv.dom, ses, atoms[:i] + atoms[i + 1 :]


def _instantiate_arr(tf: TArr) -> tuple[Ctx, list[Type], Type]:
    """The existential package, post-state atoms and result of an arrow
    type, its package's binders made fresh: the package is a telescope
    over the post-state and the result, the only parts renamed."""
    if any(isinstance(b, BVal) for b in tf.exctx):
        raise TypecheckError("T-App", "existential context binds a value", tf.span)
    ren: dict[int, Type] = {}
    exctx = []
    for b in tf.exctx:
        exctx.append(subst(ren, b))  # subst gives a BTVar a fresh name
        if b.__class__ is BTVar:
            ren[b.name.uid] = TVar(exctx[-1].name)
    return tuple(exctx), state_atoms(instantiate(tf.post, ren)), instantiate(tf.res, ren)


def _rename_exctx(r: ExprTyping, names: tuple[Name, ...], span: Span | None, made: int = 0) -> ExprTyping:
    """Rename the leading existential binders of a package to user names.
    The post-state atoms before index `made` were there before the package's
    binders were made, so they cannot mention them and are kept as they are."""
    binders = [b for b in r.exctx if isinstance(b, BTVar)]
    if len(names) > len(binders):
        raise TypecheckError(
            "T-Let",
            f"header creates {len(binders)} existential binder(s), "
            f"but {len(names)} name(s) given",
            span,
        )
    ren: dict[int, Type] = {b.name.uid: TVar(n) for b, n in zip(binders, names)}
    by_uid = {b.name.uid: n for b, n in zip(binders, names)}
    exctx = tuple(
        BTVar(by_uid.get(b.name.uid, b.name), b.kind) if isinstance(b, BTVar) else subst(ren, b) for b in r.exctx
    )
    post = r.post[:made] + [subst(ren, a) for a in r.post[made:]]
    return ExprTyping(exctx, post, subst(ren, r.ty))


def _gc_package(r: ExprTyping) -> ExprTyping:
    """Drop existential binders that neither the post state nor the result
    type mentions; they are checker-internal and unreachable."""
    if not r.exctx:
        return r
    used = {nm.uid for nm in free_vars(r.post_state)} | {nm.uid for nm in free_vars(r.ty)}
    kept_uids = {b.name.uid for b in r.exctx if isinstance(b, BTVar) and b.name.uid in used}
    dropped = {b.name.uid for b in r.exctx if isinstance(b, BTVar)} - kept_uids
    out: list[Binding] = []
    for b in r.exctx:
        if isinstance(b, BTVar):
            if b.name.uid in kept_uids:
                out.append(b)
        elif isinstance(b, BDisjoint):
            mentioned = {nm.uid for nm in free_vars(b.left)} | {nm.uid for nm in free_vars(b.right)}
            if not (mentioned & dropped):
                out.append(b)
    return ExprTyping(tuple(out), r.post, r.ty)


# -- send: existential-package matching ---------------------------------------


def _type_send(g: Ctx, atoms: list[Type], e: Expr, payload: Value, chanv: Value) -> ExprTyping:
    dom, ses, rest = _channel_op(g, atoms, e, chanv)
    tpay = normalize(type_value(g, payload))
    if plain_step(ses) and conv(ses.payload, tpay):
        # a send that transfers no channel: T-Send is conversion alone
        return ExprTyping((), rest + [StBind(dom, normalize(ses.cont))], TUnit())
    kdom = KDom(normalize(ses.shape))
    rho = match_existential(g, (BTVar(ses.binder, kdom),), ses.state, ses.payload, rest, tpay, span=e.span)
    kd = located(e.span, infer_kind, g, rho[ses.binder.uid])
    if not kind_equiv(kd, kdom):
        raise TypecheckError(
            "T-Send", "transferred domain has the wrong shape", e.span, expected=pretty(kdom), found=pretty(kd)
        )
    consumed = state_atoms(instantiate(ses.state, rho))
    leftover = _take_atoms(rest, consumed, "T-Send", e.span)
    return ExprTyping((), leftover + [StBind(dom, normalize(ses.cont))], TUnit())


def match_existential(
    g: Ctx,
    bound: Ctx,
    pat_state: Type,
    pat_ty: Type,
    act_state: list[Type] | Type,
    act_ty: Type,
    span: Span | None = None,
) -> Renaming:
    """Compute rho with dom(rho) <= vars(bound) such that rho(pat_ty) ~ act_ty
    and rho(pat_state) is contained in the actual state atoms.

    First-order matching on the type determines most assignments; leftover
    pattern-state bindings are resolved against the actual state. Ambiguous
    matches (several non-equivalent solutions) are an error.
    """
    pvars = {b.name.uid: b for b in bound if isinstance(b, BTVar)}
    act_atoms = act_state if isinstance(act_state, list) else _atoms_of(act_state)

    parts: dict[tuple[int, tuple[Label, ...]], Type] = {}
    if not _match(normalize(pat_ty), normalize(act_ty), set(pvars), {}, parts):
        raise TypecheckError(
            "existential-match",
            "payload type does not match the session's pattern",
            span,
            expected=pretty(normalize(pat_ty)),
            found=pretty(normalize(act_ty)),
        )

    solutions = _resolve_state(
        _atoms_of(pat_state), act_atoms, set(pvars), dict(parts)
    )
    shapes = {uid: normalize(b.kind.shape) if isinstance(b.kind, KDom) else None for uid, b in pvars.items()}
    assembled: list[Renaming] = []
    unassembled: list[Type] = []  # per placement that leaves a part of a binder open, the first such part
    for sol in solutions:
        open_parts: list[Type] = []
        rho: Renaming = {uid: _assemble(b.name, (), shapes[uid], sol, open_parts) for uid, b in pvars.items()}
        if open_parts:
            unassembled.append(open_parts[0])
        elif _verify(rho, pat_state, pat_ty, act_atoms, act_ty):
            if not any(_same_renaming(rho, r) for r in assembled):
                assembled.append(rho)
    if len(assembled) != 1:
        raise TypecheckError(
            "existential-match",
            "ambiguous existential match" if assembled
            else f"the payload and the state do not determine {pretty(unassembled[0])}"
            if solutions and len(unassembled) == len(solutions)
            else "no instantiation of the existential package matches",
            span,
            expected=pretty(normalize(pat_state)) + "; " + pretty(normalize(pat_ty)),
            found=pretty(normalize(state_of_atoms(act_atoms))) + "; " + pretty(normalize(act_ty)),
        )
    return assembled[0]


def _same_renaming(a: Renaming, b: Renaming) -> bool:
    return a.keys() == b.keys() and all(conv(a[k], b[k]) for k in a)


# the constructors that _match walks field by field
_MATCHED = {TApp, TChan, TAccess, TPair, TDual, TUnit, TEnd, DomMerge, TChoice, TBranch, TSend, TRecv}


def _match(pat: Type, act: Type, pvars: set[int], alpha: dict[int, Type], parts) -> bool:
    """Structural first-order matching; pattern-variable projection chains
    are collected into `parts` keyed by (uid, path). `alpha` maps the uid
    of each binder of the pattern that encloses pat to the variable of the
    actual binder it faces."""
    chain = chain_of(pat)
    if chain is not None and chain.base.uid in pvars:
        key = (chain.base.uid, chain.path)
        prev = parts.get(key)
        if prev is not None:
            return conv(prev, act)
        parts[key] = act
        return True
    cls = pat.__class__
    if cls is not act.__class__ or cls not in _MATCHED:
        # remaining pairs, variables among them, must agree up to conversion
        # without touching pattern variables, once the enclosing binders are
        # the actual ones
        return not {n.uid for n in free_vars(pat)} & pvars and conv(instantiate(pat, alpha) if alpha else pat, act)
    inner = alpha  # alpha extended by the node's binder, seen by IN fields
    for name, role, _ in LAYOUT[cls].fields:
        p, a = getattr(pat, name), getattr(act, name)
        if role is TBIND:
            inner = {**alpha, p.uid: TVar(a)}
        elif not _match(p, a, pvars, inner if role is IN else alpha, parts):
            return False
    return True


def _resolve_state(
    pat_atoms: list[Type],
    act_atoms: list[Type],
    pvars: set[int],
    parts: dict,
) -> list[dict]:
    """All part-assignments that place every pattern state binding on some
    actual atom (each actual atom used at most once)."""
    out: list[dict] = []
    _place(pat_atoms, act_atoms, pvars, 0, set(), parts, out)
    return out


def _place(pat_atoms, act_atoms, pvars, i: int, used: set[int], parts: dict, out: list[dict]) -> None:
    """_resolve_state's search from pattern atom i on, the actual atoms in
    `used` taken: a module-level function, as a closure that calls itself
    leaves a reference cycle behind."""
    if i == len(pat_atoms):
        out.append(dict(parts))
        return
    pa = pat_atoms[i]
    for j, aa in enumerate(act_atoms):
        if j in used:
            continue
        trial = dict(parts)
        if _match_atom(pa, aa, pvars, trial):
            _place(pat_atoms, act_atoms, pvars, i + 1, used | {j}, trial, out)


def _match_atom(pat: Type, act: Type, pvars: set[int], parts: dict) -> bool:
    if pat.__class__ is StBind and act.__class__ is StBind:
        return _match(pat.dom, act.dom, pvars, {}, parts) and _match(pat.ses, act.ses, pvars, {}, parts)
    return _match(pat, act, pvars, {}, parts)


def _assemble(name: Name, path: tuple[Label, ...], shape: Type | None, parts: dict, open_parts: list) -> Type | None:
    """The domain `parts` give the part of binder `name` under `path`, its
    halves merged when its shape is a pair; None when a part is left open,
    each open part added to `open_parts` as a projection chain."""
    whole = parts.get((name.uid, path))
    if whole is not None:
        return whole
    if isinstance(shape, TPair):
        l = _assemble(name, path + (Label.L1,), shape.left, parts, open_parts)
        r = _assemble(name, path + (Label.L2,), shape.right, parts, open_parts)
        return DomMerge(l, r) if l is not None and r is not None else None
    if isinstance(shape, ShZero):
        return DomZero()
    chain: Type = TVar(name)
    for label in path:
        chain = DomProj(label, chain)
    open_parts.append(chain)
    return None


def _verify(rho: Renaming, pat_state: Type, pat_ty: Type, act_atoms: list[Type], act_ty: Type) -> bool:
    return conv(instantiate(pat_ty, rho), act_ty) and (
        _remove(act_atoms, state_atoms(instantiate(pat_state, rho)))[1] is None
    )


# -- case: branch package equality ---------------------------------------------


def _type_case(g: Ctx, atoms: list[Type], e: Expr, v: Value, left: Expr, right: Expr) -> ExprTyping:
    dom, ses, rest = _channel_op(g, atoms, e, v)
    r1 = _gc_package(_type_expr(g, rest + [StBind(dom, ses.left)], left))
    r2 = _gc_package(_type_expr(g, rest + [StBind(dom, ses.right)], right))
    _require_equal_packages(g, r1, r2, e.span)
    return r1


def _require_equal_packages(g: Ctx, r1: ExprTyping, r2: ExprTyping, span: Span | None) -> None:
    b1 = [b for b in r1.exctx if isinstance(b, BTVar)]
    b2 = [b for b in r2.exctx if isinstance(b, BTVar)]
    if len(r1.post) != len(r2.post):
        raise TypecheckError(
            "T-Case", "branches end in different states", span,
            expected=pretty(r1.post_state), found=pretty(r2.post_state),
        )
    if len(b1) != len(b2):
        raise TypecheckError(
            "T-Case",
            "branches create different existential packages",
            span,
            expected=str(r1),
            found=str(r2),
        )
    if not b1:
        if conv(r1.post_state, r2.post_state) and conv(r1.ty, r2.ty):
            return
        raise TypecheckError(
            "T-Case", "branch typings differ", span, expected=str(r1), found=str(r2)
        )
    rho = match_existential(
        g,
        tuple(b1),
        r1.post_state,
        r1.ty,
        r2.post,
        r2.ty,
        span=span,
    )
    uids2 = {b.name.uid for b in b2}
    targets = set()
    kinds2 = {b.name.uid: b.kind for b in b2}
    kinds1 = {b.name.uid: b.kind for b in b1}
    for uid, t in rho.items():
        if not (isinstance(t, TVar) and t.name.uid in uids2):
            raise TypecheckError(
                "T-Case", "branch packages differ beyond renaming", span,
                expected=str(r1), found=str(r2),
            )
        if not kind_equiv(kinds1[uid], kinds2[t.name.uid]):
            raise TypecheckError("T-Case", "branch existentials have different kinds", span)
        targets.add(t.name.uid)
    if targets != uids2:
        raise TypecheckError(
            "T-Case", "branch packages bind different variables", span,
            expected=str(r1), found=str(r2),
        )


# ---------------------------------------------------------------------------
# configuration typing
# ---------------------------------------------------------------------------


class ProcTyping(NamedTuple):
    """Captured typing of one expression process, in traversal order."""

    ctx: Ctx
    atoms_in: list[Type]
    typing: ExprTyping


def type_config(
    g: Ctx,
    sigma: Type,
    cfg: Config,
    collect: list[ProcTyping] | None = None,
) -> None:
    """Gamma; sigma |- cfg; raises TypecheckError when not derivable."""
    g = context(g)
    _kind_check(g, sigma, KState(), "T-Exp", cfg.span)
    leftover = _type_config(g, _atoms_of(sigma), cfg, collect)
    if leftover:
        raise TypecheckError(
            "T-Par",
            "configuration does not consume its state",
            cfg.span,
            state=pretty(normalize(state_of_atoms(leftover))),
        )


def _type_config(
    g: Ctx, atoms: list[Type], cfg: Config, collect: list[ProcTyping] | None
) -> list[Type]:
    cls = cfg.__class__
    if cls is CProc:
        r = _type_expr(g, atoms, cfg.expr)
        if collect is not None:
            collect.append(ProcTyping(g, list(atoms), r))
        # leftovers must be untouched bindings of the incoming state:
        # anything modified or created belongs to this process and must
        # have been consumed (T-Exp ends in the empty state)
        if _remove(atoms, r.post)[1] is not None:
            raise TypecheckError(
                "T-Exp",
                "process ends with leftover state of its own",
                cfg.span,
                state=pretty(normalize(state_of_atoms(r.post))),
            )
        return r.post

    if cls is CPar:
        mid = _type_config(g, atoms, cfg.left, collect)
        return _type_config(g, mid, cfg.right, collect)

    if cls is CNuChan:
        end1, end2, ses, body = cfg.end1, cfg.end2, cfg.ses, cfg.body
        _kind_check(g, ses, KSession(), "T-NuChan", cfg.span)
        nses = normalize(ses)
        g2 = disjoint_append(
            disjoint_append(g, (BTVar(end1, KDom(ShOne())),)),
            (BTVar(end2, KDom(ShOne())),),
        )
        if cfg.closed:
            return _type_config(g2, atoms, body, collect)
        extra = [StBind(TVar(end1), nses), StBind(TVar(end2), dual(nses))]
        leftover = _type_config(g2, atoms + extra, body, collect)
        extra_keys = [conv_key(x) for x in extra]
        untouched = [a for a in leftover if conv_key(a) in extra_keys]
        # either both ends were consumed (channel exercised and closed),
        # or neither was (the closed reading: no state contribution)
        if untouched and not (len(untouched) == 2 and isinstance(nses, TEnd)):
            raise TypecheckError(
                "T-NuChan",
                "channel binder requires both ends to be consumed",
                cfg.span,
                state=pretty(normalize(state_of_atoms(untouched))),
            )
        # the rest is the outer atoms, untouched (T-Exp): formed under g,
        # where both ends are fresh, they cannot mention them
        return [a for a in leftover if conv_key(a) not in extra_keys]

    if cls is CNuAccess:
        ses = cfg.ses
        _kind_check(g, ses, KSession(), "T-NuAccess", cfg.span)
        g2 = g + (BVal(cfg.binder, TAccess(normalize(ses))),)
        return _type_config(g2, atoms, cfg.body, collect)

    raise TypecheckError("T-Exp", f"cannot type configuration {cfg!r}", cfg.span)
