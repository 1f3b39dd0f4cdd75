"""Record what the `pvgr` command prints on a fixed set of calls.

    python tests/compare_outputs.py SRC OUT.json

runs `python -m pvgr.cli` from the `src/` directory of the checkout SRC,
one process per call, and writes the argv, exit status, stdout and stderr
of each call to OUT.json. The inputs always come from this script's own
checkout, and every call runs in one scratch directory under relative
paths, so two checkouts can be compared with `cmp` (or `diff`) on their
two files. The calls are:

- every corpus program, perfbench's chain, fan and hold programs at
  N = 3, 8 and 16 for generator seeds 1 and 2, the configurations of
  `TAIL_OPERATIONS` in `tests/test_no_cycles.py`, whose processes end in
  an operation rather than ANF's named tail, and the programs of the
  `PLAIN_STEPS` table of `tests/test_cli.py`, which send on either side
  of `ast.plain_step`, each under `check`, `check
  --format json`, `run --seed K --trace` for K = 0..5 and `run --seed K
  --check` for K = 0 and 1;
- the untyped, rare-branch and stuck configurations of
  `tests/test_redex_index.py`, each under `run --no-check --trace --max-steps 50` with seeds
  0-3, and under `run --no-check --check --max-steps 50` with seeds 0 and 1;
- the ill-typed programs of the `KIND_FAILURES`, `DISJOINTNESS_FAILURES`
  and `RULE_FAILURES` tables of `tests/test_cli.py`, each under `check`,
  `check --format json` and `run --no-check --check --max-steps 50`;
- the programs that fail to parse, of the `PARSE_ERRORS` table of
  `tests/test_parser.py`, each under `check`, `check --format json` and
  `run`;
- the two 5000-`let` files of `tests/test_let_spine.py`, each under `check`
  and `run`;
- `corpus corpus`;
- the programs of the `KEYWORD_BRACKETS` table of `tests/test_parser.py`,
  keyword expressions in nested brackets, under `check`, `check --format
  json`, `run --seed K --trace` for K = 0..5 and `run --seed K --check`
  for K = 0 and 1. They come last, so that a checkout that does not
  parse them still matches the calls before them;
- after them, the command lines of `ARGV_EDGES`: `--help` of pvgr and of
  each command, every usage error, the spellings that only `argparse`
  reads (abbreviations, `--opt=value`, `--`, repeats, values that `int()`
  reads loosely), and files that cannot be read: a directory, a missing
  file, a file that is not UTF-8, and paths that `pathlib` shortens.

Pytest does not collect this file. The whole set takes about a minute.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (3, 8, 16)
GEN_SEEDS = (1, 2)


def _tables(module: str, names: tuple[str, ...]) -> dict[str, dict]:
    """The named top-level tables of tests/<module>.py, read without
    importing it."""
    tree = ast.parse((ROOT / "tests" / f"{module}.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names
    }


def _untyped() -> dict[str, str]:
    """The UNTYPED, BRANCHES and STUCK configurations of tests/test_redex_index.py."""
    tables = _tables("test_redex_index", ("UNTYPED", "BRANCHES", "STUCK"))
    return {**tables["UNTYPED"], **tables["BRANCHES"], **tables["STUCK"]}


def _tail_operations() -> dict[str, str]:
    """The TAIL_OPERATIONS configurations of tests/test_no_cycles.py."""
    return _tables("test_no_cycles", ("TAIL_OPERATIONS",))["TAIL_OPERATIONS"]


def _plain_steps() -> dict[str, str]:
    """The program of each entry of the PLAIN_STEPS table of tests/test_cli.py."""
    return {name: row[0] for name, row in _tables("test_cli", ("PLAIN_STEPS",))["PLAIN_STEPS"].items()}


def _ill_typed() -> dict[str, str]:
    """The program of each entry of the failure tables of tests/test_cli.py,
    named by its table and its key."""
    tables = _tables("test_cli", ("KIND_FAILURES", "DISJOINTNESS_FAILURES", "RULE_FAILURES"))
    return {f"{table}_{site}": row[0] for table, rows in tables.items() for site, row in rows.items()}


def _lets() -> dict[str, str]:
    """The 5000-`let` files of tests/test_let_spine.py."""
    lets = "".join(f"let x{i} = () in\n" for i in range(5000))
    request = "let ap = new End in\nlet z = fork (\\[.](w: Unit). let u = accept ap in close u) in\nlet c = request ap in\n"
    return {"lets5000": lets + "()\n", "lets5000_request": request + lets + "close c\n"}


def _generators():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FAMILIES


CS = "corpus/client_server.pvgr"
ARGV_EDGES = [
    [], ["-h"], ["--help"], ["--version"], ["bogus", CS], ["check"], ["run"], ["corpus"],
    ["check", "--help"], ["check", "-h"], ["run", "--help"], ["run", CS, "-h"], ["corpus", "--help"],
    ["check", CS, CS], ["run", CS, "extra"], ["check", CS, "--trace"], ["run", CS, "--format", "json"],
    ["check", CS, "--format"], ["check", CS, "--format", "yaml"], ["check", "--format=json", CS],
    ["check", "--for", "json", CS], ["check", CS, "--format", "pretty", "--format", "json"], ["check", "--", CS],
    ["run", CS, "--seed"], ["run", CS, "--seed", "x"], ["run", CS, "--seed", "1.5"], ["run", CS, "--seed", ""],
    ["run", CS, "--seed=4"], ["run", CS, "--se", "5"], ["run", CS, "--seed", " 7 "], ["run", CS, "--seed", "1_0"],
    ["run", CS, "--seed", "+2"], ["run", CS, "--seed", "-1"], ["run", CS, "--seed", "1", "--seed", "2"],
    ["run", CS, "--max-steps", "-1"], ["run", CS, "--max-steps", "0x10"], ["run", CS, "--max", "3"],
    ["run", CS, "--max-steps=3", "--trace"], ["run", CS, "--trace", "--trace"], ["run", CS, "--tr"],
    ["run", CS, "--no-check", "--check", "--max-steps", "2"], ["run", "--seed", "3", CS, "--trace"],
    ["run", "--", CS], ["run", CS, "--bogus"], ["run", CS, "--trace=1"],
    ["check", "-"], ["check", "-x.pvgr"], ["check", ""], ["run", ""], ["check", "corpus"], ["check", "corpus/"],
    ["check", "corpus/."], ["check", CS + "/"], ["check", CS + "/."], ["run", CS + "/", "--seed", "1"],
    ["check", "missing.pvgr"], ["check", "gen/not_utf8.pvgr"], ["check", "--format", "json", "gen/not_utf8.pvgr"],
    ["corpus", "missing"],
]


def _calls(work: Path) -> list[list[str]]:
    """Write the inputs under work and return each call's argv."""
    shutil.copytree(ROOT / "corpus", work / "corpus")
    (work / "gen").mkdir()
    typed = [f"corpus/{p.name}" for p in sorted((work / "corpus").glob("*.pvgr"))]
    for family, make in _generators().items():
        for n in SIZES:
            for s in GEN_SEEDS:
                rel = f"gen/{family}{n}_s{s}.pvgr"
                (work / rel).write_text(make(n, random.Random(s)))
                typed.append(rel)
    for name, src in _tail_operations().items():
        rel = f"gen/{name}.pvgr"
        (work / rel).write_text(src + "\n")
        typed.append(rel)
    for name, src in _plain_steps().items():
        rel = f"gen/plain_{name}.pvgr"
        (work / rel).write_text(src)
        typed.append(rel)
    untyped = []
    for name, src in _untyped().items():
        rel = f"gen/{name}.pvgr"
        (work / rel).write_text(src + "\n")
        untyped.append(rel)
    ill_typed = []
    for name, src in _ill_typed().items():
        rel = f"gen/{name}.pvgr"
        (work / rel).write_text(src)
        ill_typed.append(rel)

    unparsed = []
    for name, (src, _) in _tables("test_parser", ("PARSE_ERRORS",))["PARSE_ERRORS"].items():
        rel = f"gen/parse_{name}.pvgr"
        (work / rel).write_text(src)
        unparsed.append(rel)
    lets = []
    for name, src in _lets().items():
        rel = f"gen/{name}.pvgr"
        (work / rel).write_text(src)
        lets.append(rel)
    bracketed = []
    for name, (src, _) in _tables("test_parser", ("KEYWORD_BRACKETS",))["KEYWORD_BRACKETS"].items():
        rel = f"gen/brackets_{name}.pvgr"
        (work / rel).write_text(src)
        bracketed.append(rel)

    def typed_calls(f: str) -> list[list[str]]:
        return [
            ["check", f], ["check", f, "--format", "json"],
            *(["run", f, "--seed", str(k), "--trace"] for k in range(6)),
            *(["run", f, "--seed", str(k), "--check"] for k in range(2)),
        ]

    calls = []
    for f in typed:
        calls += typed_calls(f)
    for f in untyped:
        calls += [["run", f, "--no-check", "--trace", "--max-steps", "50", "--seed", str(k)] for k in range(4)]
        calls += [["run", f, "--no-check", "--check", "--max-steps", "50", "--seed", str(k)] for k in range(2)]
    for f in ill_typed:
        calls += [["check", f], ["check", f, "--format", "json"]]
        calls.append(["run", f, "--no-check", "--check", "--max-steps", "50"])
    for f in unparsed:
        calls += [["check", f], ["check", f, "--format", "json"], ["run", f]]
    for f in lets:
        calls += [["check", f], ["run", f]]
    calls.append(["corpus", "corpus"])
    for f in bracketed:
        calls += typed_calls(f)
    (work / "gen" / "not_utf8.pvgr").write_bytes(b"let x = \xff in x\n")
    calls += ARGV_EDGES
    return calls


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py SRC OUT.json", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve() / "src", Path(argv[1])
    env = {k: v for k, v in os.environ.items() if k != "PVGR_MAX_STEPS"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for call in _calls(work):
            done = subprocess.run(
                [sys.executable, "-m", "pvgr.cli", *call], cwd=work, env=env, capture_output=True, text=True
            )
            records.append({"argv": call, "status": done.returncode, "stdout": done.stdout, "stderr": done.stderr})
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} calls written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
