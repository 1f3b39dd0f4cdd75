"""`check` and `run` leave no reference cycles behind: with the cyclic
collector switched off, an in-process `main(["check", F])` and
`main(["run", F, "--seed", "1"])` leave nothing that `gc.collect()` then
frees, on every corpus program, on the chain, fan and hold families at
n = 3 and 8, and on the configurations of TAIL_OPERATIONS; and `run
--no-check` leaves none on those of LEFT_ENVIRONMENTS. So what a
command builds is freed by reference counting as soon as it returns, and the collector's full passes, whose cost grows with
everything alive, are not set off by the checker or the machine. Each
command runs once before it is measured, so that what a first call builds
and keeps (the argument parser, modules loaded on first use) is not
counted."""

from __future__ import annotations

import contextlib
import gc
import io
import random

import pytest
from conftest import corpus_files, perfbench_gen

from pvgr.cli import main

FAMILIES = [(fam, n) for fam in ("chain", "fan", "hold") for n in (3, 8)]

# Configurations, which no ANF pass rewrites, in which a process ends in an
# operation under an environment made cyclic by a closure bound in it:
# corpus/client_server.pvgr as one process, whose client binds the echo, a
# closure over its own environment, and a fork whose lambda body binds a
# lambda before it ends in a close. The unit that each close returns must
# not drop the environment where `Soup.release` cannot reach it.
TAIL_OPERATIONS = {
    "client-server-process": "<let ap = new ?Int.?Int.!Int.End in let z = fork (\\[.](w: Unit)."
    " let u = accept ap in let x = recv u in let y = recv u in let r = send x u in close u) in"
    " let v = request ap in let a1 = send () v in let a2 = send () v in let w = recv v in close v>",
    "fork-body-ends-in-close": "nuap ap : End . <let z = fork (\\[.](w: Unit). let f = \\[.](y: Unit). y in"
    " let u = accept ap in close u) in let v = request ap in close v>",
}
CASES = [f.name for f in corpus_files()] + [f"{fam}{n}" for fam, n in FAMILIES] + list(TAIL_OPERATIONS)

# Configurations, run unchecked, in which a process's control leaves its
# environment, made cyclic by a lambda bound in it, for one that does not
# reach it: a received value, or the body of a received type abstraction or
# the part of a received pair. The environment left must stay where
# `Soup.release` reaches it.
LEFT_ENVIRONMENTS = {
    "received-value-ends-the-process": "nu a b : End . (<let f = \\[.](y: Unit). y in recv (chan a)>"
    " | <let h = \\[.](y: Unit). y in send h (chan b)>)",
    "received-type-abstraction-applied": "nu a b : End . (<let f = \\[.](y: Unit). y in let h = recv (chan a) in"
    " h [End]> | <let g = /\\t: Session []. () in send g (chan b)>)",
    "received-pair-projected": "nu a b : End . (<let f = \\[.](y: Unit). y in let p = recv (chan a) in proj1 p>"
    " | <let g = \\[.](y: Unit). y in send (g, g) (chan b)>)",
}


def _path(name: str, tmp_path) -> str:
    for f in corpus_files():
        if f.name == name:
            return str(f)
    text = TAIL_OPERATIONS.get(name) or LEFT_ENVIRONMENTS.get(name)
    if text is None:
        fam, n = next((fam, n) for fam, n in FAMILIES if f"{fam}{n}" == name)
        text = perfbench_gen().FAMILIES[fam](n, random.Random(n))
    path = tmp_path / f"{name}.pvgr"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("name", CASES)
def test_check_and_run_leave_no_cycles(name, tmp_path):
    path = _path(name, tmp_path)
    for argv in (["check", path], ["run", path, "--seed", "1"]):
        _quiet(argv)
        gc.collect()
        gc.disable()
        try:
            _quiet(argv)
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0, argv


@pytest.mark.parametrize("name", list(LEFT_ENVIRONMENTS))
def test_an_unchecked_run_leaves_no_cycles_when_a_control_leaves_its_environment(name, tmp_path):
    argv = ["run", _path(name, tmp_path), "--no-check", "--seed", "1"]
    assert _quiet(argv) == 0
    gc.collect()
    gc.disable()
    try:
        _quiet(argv)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
