"""Command-line interface: check, run, and corpus verification.

Exit codes: check 0 ok / 1 type error / 2 parse error, unreadable file
(`error[io]`) or bad setting (`error[usage]`, such as a `--max-steps` or
`PVGR_MAX_STEPS` that is negative, or a `PVGR_MAX_STEPS` that is not an
integer); run additionally 3 deadlock / 4 out of fuel;
corpus 0 all ok (or no `.pvgr` file, with a warning) / 1 a file fails its
sidecar / 2 a directory, program or sidecar that cannot be read
(`error[io]`). Any other failure inside pvgr (a recursion limit hit on a
deeply nested program, say) is reported as an `error[internal]`
diagnostic with exit code 5, never as a traceback.

Every failure is one `pvgr.diagnostic.Diagnostic`, printed once: its
location, `error[CODE]: message`, then the `expected:`, `found:` and
`state:` lines it has (with `--format json`, one object with those keys
in that order). A type error's code is the failing rule. A kind failure
inside a typing rule keeps its own K-/KF-/CF- code and location, and a
type the checker built, which has no location, is reported at the typing
site. Output goes to stdout, diagnostics to stderr. A reader that closes
stdout early (`pvgr run F --trace | head`) ends the command quietly, with
exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .anf import anf_transform
from .ast import CProc, StEmpty
from .diagnostic import Diagnostic
from .normalize import conv
from .parser import Program, parse_program, parse_type
from .pretty import pretty, pretty_ctx
from .runtime import Machine, iter_procs
from .typing import ExprTyping, type_config, type_expr

DEFAULT_FUEL = 100_000


class CliError(Diagnostic):
    """A failure outside the program being checked or run: its input file
    cannot be read (`io`) or a setting is invalid (`usage`)."""

    status = 2


def _emit(diag: Diagnostic, fmt: str) -> None:
    print(diag.to_json() if fmt == "json" else diag, file=sys.stderr)


def _read(path: str) -> str:
    """The text of an input file: a program or a corpus sidecar."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError("io", f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise CliError("io", f"cannot read {path}: not UTF-8 text ({e.reason})") from None


def _load(path: str) -> Program:
    prog = parse_program(_read(path), filename=path)
    if prog.expr is not None:
        prog = Program(config=None, expr=anf_transform(prog.expr), filename=prog.filename)
    return prog


def _check_program(prog: Program) -> ExprTyping | None:
    """Type-check; returns the expression typing for expression programs."""
    if prog.expr is not None:
        return type_expr((), StEmpty(), prog.expr)
    type_config((), StEmpty(), prog.config)
    return None


def cmd_check(args: argparse.Namespace) -> int:
    fmt = args.format
    typing = _check_program(_load(args.file))  # a diagnostic is main's to report
    if typing is None:
        if fmt == "json":
            print(json.dumps({"ok": True, "kind": "config"}))
        else:
            print("config: ok")
        return 0
    if fmt == "json":
        print(
            json.dumps(
                {
                    "ok": True,
                    "kind": "expr",
                    "type": pretty(typing.ty),
                    "post": pretty(typing.post_state),
                    "ex": pretty_ctx(typing.exctx),
                }
            )
        )
    else:
        print(f"ex: {pretty_ctx(typing.exctx) or '.'}")
        print(f"post: {pretty(typing.post_state)}")
        print(f"type: {pretty(typing.ty)}")
    return 0


def _fuel(args: argparse.Namespace) -> int:
    if args.max_steps is not None:
        if args.max_steps < 0:
            raise CliError("usage", f"--max-steps must not be negative, got {args.max_steps}")
        return args.max_steps
    setting = os.environ.get("PVGR_MAX_STEPS")
    if setting is None:
        return DEFAULT_FUEL
    try:
        fuel = int(setting)
    except ValueError:
        raise CliError("usage", f"PVGR_MAX_STEPS must be an integer, got {setting!r}") from None
    if fuel < 0:
        raise CliError("usage", f"PVGR_MAX_STEPS must not be negative, got {setting!r}")
    return fuel


def cmd_run(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if not args.no_check:
        try:
            _check_program(prog)
        except Diagnostic as e:
            _emit(e, "pretty")
            print("refusing to run an ill-typed program (use --no-check to override)", file=sys.stderr)
            return e.status
    cfg = prog.config if prog.config is not None else CProc(prog.expr)
    machine = Machine(cfg, max_steps=_fuel(args), seed=args.seed, trace=[] if args.trace else None)
    while True:
        if args.check:
            try:
                type_config((), StEmpty(), machine.config)
            except Diagnostic as e:
                _emit(e, "pretty")
                if machine.steps:
                    print("subject reduction violated", file=sys.stderr)
                else:
                    print("the configuration is ill-typed before the first step", file=sys.stderr)
                return e.status
        out = machine.step()  # one that does not step leaves the configuration as checked
        if out.kind != "stepped":
            break
        if args.trace:
            print(machine.trace[-1])
    if out.kind == "final":
        values = [pretty(e) for _, e in iter_procs(machine.config)]
        print(f"final after {machine.steps} steps: " + " | ".join(values))
        return 0
    if out.kind == "deadlock":
        print(f"deadlock after {machine.steps} steps: {out.report}")
        return 3
    print(f"out of fuel after {machine.steps} steps")
    return 4


def cmd_corpus(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    try:
        files = sorted(f for f in root.iterdir() if f.name.endswith(".pvgr"))
    except OSError as e:
        raise CliError("io", f"cannot read {root}: {e.strerror or e}") from None
    if not files:
        print(f"warning: no .pvgr files in {root}", file=sys.stderr)
        return 0
    failures = 0
    rows = []
    for f in files:
        expected_file = f.with_suffix(f.suffix + ".expected")
        if not expected_file.exists():
            rows.append((f.name, "skip", "no .expected sidecar"))
            continue
        want = _read(str(expected_file)).strip()
        status, detail = _corpus_one(f, want)
        rows.append((f.name, status, detail))
        if status == "FAIL":
            failures += 1
    width = max(len(r[0]) for r in rows) + 2
    for name, status, detail in rows:
        print(f"{name:<{width}}{status:<6}{detail}")
    return 1 if failures else 0


def _corpus_one(path: Path, want: str) -> tuple[str, str]:
    try:
        prog = _load(str(path))
        typing = _check_program(prog)
    except CliError:
        raise  # an unreadable program stops the whole run
    except Diagnostic as e:
        return "FAIL", str(e)
    if want.startswith("type:"):
        if typing is None:
            return "FAIL", "expected a type but file is a configuration"
        expected = parse_type(want[len("type:") :].strip(), open_world=False)
        if conv(typing.ty, expected):
            return "ok", pretty(typing.ty)
        return "FAIL", f"type mismatch: got {pretty(typing.ty)}"
    if want.startswith("outcome:"):
        expected_outcome = want[len("outcome:") :].strip()
        cfg = prog.config if prog.config is not None else CProc(prog.expr)
        out = Machine(cfg, max_steps=DEFAULT_FUEL).run()
        if out.kind == expected_outcome:
            return "ok", out.kind
        return "FAIL", f"outcome mismatch: got {out.kind}"
    return "FAIL", f"bad sidecar: {want[:40]!r}"


@cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command line's grammar, built on the first `main` call of a
    process and shared by the later ones: parsing leaves it unchanged.
    Only a caller that runs `main` more than once in a process saves by
    it; the `pvgr` command runs it once."""
    ap = argparse.ArgumentParser(prog="pvgr", description="pvgr checker and interpreter")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="type-check a .pvgr file")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run a .pvgr file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--check", action="store_true", help="re-typecheck after every step")
    p_run.add_argument("--no-check", action="store_true", help="skip the initial type check")
    p_run.set_defaults(fn=cmd_run)

    p_corpus = sub.add_parser("corpus", help="verify a corpus directory against sidecars")
    p_corpus.add_argument("dir")
    p_corpus.set_defaults(fn=cmd_corpus)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    fmt = getattr(args, "format", "pretty")
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at exit does not raise again (Python docs, "Note on
        # SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as e:  # every failure the commands do not report themselves
        diag = e if isinstance(e, Diagnostic) else Diagnostic("internal", f"{type(e).__name__}: {e}")
        _emit(diag, fmt)
        return diag.status


if __name__ == "__main__":
    sys.exit(main())
