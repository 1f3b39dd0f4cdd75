"""Record what the `pvgr` command prints on a fixed set of calls.

    python tests/compare_outputs.py SRC OUT.json

runs `python -m pvgr.cli` from the `src/` directory of the checkout SRC,
one process per call, and writes the argv, exit status, stdout and stderr
of each call to OUT.json. The inputs always come from this script's own
checkout, and every call runs in one scratch directory under relative
paths, so two checkouts can be compared with `cmp` (or `diff`) on their
two files. The calls are:

- every corpus program, and perfbench's chain, fan and hold programs at
  N = 3, 8 and 16 for generator seeds 1 and 2, each under `check`, `check
  --format json`, `run --seed K --trace` for K = 0..5 and `run --seed K
  --check` for K = 0 and 1;
- the untyped, rare-branch and stuck configurations of
  `tests/test_redex_index.py`, each under `run --no-check --trace --max-steps 50` with seeds
  0-3;
- `corpus corpus`.

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


def _untyped() -> dict[str, str]:
    """The UNTYPED, BRANCHES and STUCK tables of tests/test_redex_index.py,
    read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_redex_index.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("UNTYPED", "BRANCHES", "STUCK")
    }
    return {**tables["UNTYPED"], **tables["BRANCHES"], **tables["STUCK"]}


def _generators():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FAMILIES


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
    untyped = []
    for name, src in _untyped().items():
        rel = f"gen/{name}.pvgr"
        (work / rel).write_text(src + "\n")
        untyped.append(rel)

    calls = []
    for f in typed:
        calls += [["check", f], ["check", f, "--format", "json"]]
        calls += [["run", f, "--seed", str(k), "--trace"] for k in range(6)]
        calls += [["run", f, "--seed", str(k), "--check"] for k in range(2)]
    for f in untyped:
        calls += [["run", f, "--no-check", "--trace", "--max-steps", "50", "--seed", str(k)] for k in range(4)]
    calls.append(["corpus", "corpus"])
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
