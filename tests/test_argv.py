"""The command lines `pvgr.cli` reads by hand, against `argparse`.

`cli._read_argv` reads `check [--format pretty|json] FILE` and `run FILE
[--seed N] [--max-steps N] [--trace] [--check] [--no-check]` in their
canonical spellings, and declines every other command line, which `main`
hands to `argparse`. Over a generated set of command lines, the reader
either declines or returns a namespace equal to the one
`_arg_parser().parse_args` builds; it reads every canonical one, and
declines every spelling that only argparse gives a meaning, help text or
usage error.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys

from conftest import CORPUS

from pvgr import cli
from pvgr.cli import main

FILE = "prog.pvgr"
CHECK_OPTIONS = (["--format", "pretty"], ["--format", "json"])
RUN_OPTIONS = (["--seed", "3"], ["--max-steps", "40"], ["--trace"], ["--check"], ["--no-check"])
VALUED = ("--format", "--seed", "--max-steps")  # the options that take a value


def _orders(cmd: str, options: list[list[str]], rng: random.Random, limit: int) -> list[list[str]]:
    """cmd with the file and the given options, in up to `limit` orders."""
    parts = [[FILE], *options]
    orders = list(itertools.permutations(parts))
    rng.shuffle(orders)
    return [[cmd, *itertools.chain.from_iterable(p)] for p in orders[:limit]]


def _canonical() -> list[list[str]]:
    rng = random.Random(31)
    out = [["check", FILE]]
    for opt in CHECK_OPTIONS:
        out += _orders("check", [opt], rng, 2)
    for k in range(len(RUN_OPTIONS) + 1):
        for options in itertools.combinations(RUN_OPTIONS, k):
            out += _orders("run", list(options), rng, 6)
    values = ("0", "17", " 7 ", "1_0", "+5", "007", "٣", "99999999999999999999")
    out += [["run", FILE, opt, v] for opt in ("--seed", "--max-steps") for v in values]
    out += [["check", "--format", "json", "check"], ["run", "run"], ["run", "dir/a b.pvgr", "--trace"]]
    return out


def _mutants(argv: list[str]) -> list[list[str]]:
    """argv spelt in every way that only argparse reads: help, abbreviated,
    `--opt=value`, after `--`, repeated, with a value or file that starts
    with `-`, a value `int()` rejects, a missing value, an extra positional
    and an unknown option or command."""
    out = [argv[:1] + ["-h"] + argv[1:], argv + ["--help"], argv + ["--"], ["--", *argv], argv + ["extra"]]
    out += [argv + ["--bogus"], argv + ["-x"], ["bogus", *argv[1:]], [argv[0].upper(), *argv[1:]]]
    for i, a in enumerate(argv[1:], 1):
        if not a.startswith("--"):
            if argv[i - 1] not in VALUED:  # the file
                out.append(argv[:i] + ["-" + a] + argv[i + 1 :])
            continue
        value = argv[i + 1] if a in VALUED else None
        rest = argv[i + 2 :] if value is not None else argv[i + 1 :]
        out.append(argv[:i] + [a[:-1]] + argv[i + 1 :])  # abbreviated
        out.append(argv[:i] + [a] + argv[i:])  # repeated
        if value is not None:
            out.append(argv[:i] + [f"{a}={value}"] + rest)
            out.append(argv[:i] + [a] + rest)  # its value missing
            for bad in ("-1", "-x", "", "x", "1.5", "0x10", "--trace", "yaml", "JSON"):
                out.append(argv[:i] + [a, bad] + rest)
        else:
            out.append(argv[:i] + [a + "=1"] + argv[i + 1 :])
    return out


def _argvs() -> list[list[str]]:
    canonical = _canonical()
    out = canonical + [m for argv in canonical[::3] for m in _mutants(argv)]
    out += [[], ["check"], ["run"], ["corpus", "corpus"], ["corpus"], ["-h"], ["--help"], ["--version"]]
    out += [["check", "-"], ["run", "-"], ["check", ""], ["run", "", "--seed", "1"], ["check", FILE, FILE]]
    out += [["check", "--help"], ["run", "--help"], ["corpus", "--help"], ["check", "--format"]]
    out += [["run", FILE, "--seed"], ["run", FILE, "--max-steps"], ["run", "--seed", "1"]]
    out += [["ch", FILE], ["ru", FILE], ["check", FILE, "--trace"], ["run", FILE, "--format", "json"]]
    return out


def _parsed(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None on a usage error or
    a help text."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._arg_parser().parse_args(argv))
        except SystemExit:
            return None


def test_the_reader_builds_argparses_namespace_or_declines():
    argvs = _argvs()
    read = declined = 0
    for argv in argvs:
        hand = cli._read_argv(argv)
        if hand is None:
            declined += 1
            continue
        read += 1
        assert vars(hand) == _parsed(argv), argv
    assert read >= len(_canonical()) and declined > 500


def test_every_canonical_command_line_is_read_by_hand():
    for argv in _canonical():
        assert cli._read_argv(argv) is not None, argv


def test_every_other_spelling_is_left_to_argparse():
    # a spelling that argparse reads the same as a canonical one is declined too
    for argv in _canonical():
        for mutant in _mutants(argv):
            assert cli._read_argv(mutant) is None, mutant


def test_main_prints_the_same_whether_or_not_it_reads_the_command_line(monkeypatch, capsys):
    program = str(CORPUS / "client_server.pvgr")
    argvs = [
        ["check", program], ["check", "--format", "json", program], ["run", program, "--seed", "2", "--trace"],
        ["run", "--max-steps", "3", program], ["run", program, "--check", "--no-check"],
        ["check", str(CORPUS / "missing.pvgr")],
    ]

    def outputs() -> list[tuple[int, str, str]]:
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    hand = outputs()
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert outputs() == hand


def test_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    program = str(CORPUS / "client_server.pvgr")
    assert main(["run", program, "--seed", "4"]) == 0
    given = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["pvgr", "run", program, "--seed", "4"])
    assert main() == 0
    assert capsys.readouterr() == given
