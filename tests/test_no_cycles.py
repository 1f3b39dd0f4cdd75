"""`check` and `run` leave no reference cycles behind: with the cyclic
collector switched off, an in-process `main(["check", F])` and
`main(["run", F, "--seed", "1"])` leave nothing that `gc.collect()` then
frees, on every corpus program and on the chain, fan and hold families at
n = 3 and 8. So what a command builds is freed by reference counting as
soon as it returns, and the collector's full passes, whose cost grows with
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
CASES = [f.name for f in corpus_files()] + [f"{fam}{n}" for fam, n in FAMILIES]


def _path(name: str, tmp_path) -> str:
    for f in corpus_files():
        if f.name == name:
            return str(f)
    fam, n = next((fam, n) for fam, n in FAMILIES if f"{fam}{n}" == name)
    path = tmp_path / f"{name}.pvgr"
    path.write_text(perfbench_gen().FAMILIES[fam](n, random.Random(n)), encoding="utf-8")
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
