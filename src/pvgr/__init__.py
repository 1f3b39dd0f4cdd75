"""pvgr: a type checker and interpreter for a polymorphic-typestate
session calculus with disjointness constraints. `Machine`, `Soup`,
`classify_config` and `step_expr` import `pvgr.runtime` on first use."""

from .anf import anf_transform, is_strict_anf
from .ast import alpha_equiv, canonicalize, free_vars, subst
from .constraints import atomize, close, entails
from .diagnostic import Diagnostic
from .kinding import (
    KindError,
    check_ctx,
    check_kind,
    disjoint_append,
    infer_kind,
    restrict_non_dom,
)
from .normalize import conv, dual, normalize
from .parser import ParseError, parse_program, parse_type
from .pretty import pretty
from .typing import (
    ExprTyping,
    TypecheckError,
    match_existential,
    type_config,
    type_expr,
    type_value,
)

__all__ = [
    "anf_transform", "is_strict_anf", "canonicalize", "free_vars", "subst",
    "atomize", "close", "entails", "Diagnostic", "KindError", "check_ctx",
    "check_kind", "disjoint_append", "infer_kind", "restrict_non_dom",
    "alpha_equiv", "conv", "dual", "normalize", "ParseError", "parse_program",
    "parse_type", "pretty", "Machine", "Soup", "classify_config", "step_expr",
    "ExprTyping", "TypecheckError", "match_existential", "type_config",
    "type_expr", "type_value",
]


def __getattr__(name: str):
    if name in ("Machine", "Soup", "classify_config", "step_expr"):
        from . import runtime
        return getattr(runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
