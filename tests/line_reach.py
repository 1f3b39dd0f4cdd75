"""Which lines of `src/pvgr` does the Tier-1 suite reach?

    python tests/line_reach.py [PYTEST ARGS...]

runs the Tier-1 suite (`pytest -q tests`, plus any extra arguments) in
this process under a `sys.settrace` line tracer that follows only frames
whose code is in `src/pvgr`. It then prints each executable line inside a
function that no test reached, grouped by function, and exits 1 unless
every one of them is in ALLOWED below with the reason it stays, and every
entry of ALLOWED still names an unreached line. A failing test does not
change the exit status: the suite's own run reports it.

An executable line is one that the function's compiled code attributes an
instruction to, other than the `def` line. Module and class bodies run at
import, before the tracer starts, and are not counted.

`tests/test_no_cycles.py` is left out: its cases count the objects the
collector frees, and a trace function keeps frames, and what they hold,
alive. Lines that only a subprocess reaches are not seen by the tracer, so
they are allowlisted. Pytest does not collect this file; a run takes about
two and a half minutes.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pvgr"

# (module, function, source text of the line) -> why no Tier-1 test reaches it
ALLOWED = {
    ("cli", "main", "devnull = os.open(os.devnull, os.O_WRONLY)"): "only the subprocess test of a closed stdout"
    " reaches the exit on a broken pipe",
    ("cli", "main", "os.dup2(devnull, sys.stdout.fileno())"): "as above",
    ("cli", "main", "return 0"): "as above",
    ("runtime", "_value_domains", "return None"): "a `let [e]` over a received value with no channel in it,"
    " such as a function; its read-back does not type, so no test runs it (FOUND in CHANGES.md)",
}


def executable_lines() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (module, qualified name of the innermost function)
    for every line that a function of src/pvgr has code on."""
    out: dict[tuple[str, int], tuple[str, str]] = {}

    def visit(code: CodeType, module: str) -> None:
        if code.co_flags & inspect.CO_OPTIMIZED:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    out[(code.co_filename, line)] = (module, code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                visit(const, module)

    for path in sorted(SRC.glob("*.py")):
        visit(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def traced_run(pytest_args: list[str]) -> set[tuple[str, int]]:
    """Run pytest with pytest_args under the tracer; the lines it reached."""
    import pytest

    prefix = str(SRC) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    threading.settrace(call)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def report(unreached: list[tuple[str, int]], where: dict) -> int:
    """Print the unreached lines by function; 1 when one is not allowed or
    an allowance matches no unreached line."""
    lines = {path: Path(path).read_text().splitlines() for path, _ in unreached}
    used = set()
    bad = 0
    by_function: dict[tuple[str, str], list[tuple[int, str, str | None]]] = {}
    for path, line in sorted(unreached):
        module, function = where[(path, line)]
        text = lines[path][line - 1].strip()
        key = (module, function, text)
        reason = ALLOWED.get(key)
        if reason is not None:
            used.add(key)
        else:
            bad += 1
        by_function.setdefault((module, function), []).append((line, text, reason))
    for (module, function), rows in by_function.items():
        print(f"{module}.py {function}:")
        for line, text, reason in rows:
            print(f"  {line:5d}  {text}" + (f"    -- allowed: {reason}" if reason else "    -- NOT ALLOWED"))
    stale = ALLOWED.keys() - used
    for module, function, text in sorted(stale):
        print(f"allowed but reached, or gone: {module}.py {function}: {text}")
    print(f"{len(unreached)} unreached line(s) in src/pvgr, {bad} not allowed, {len(stale)} stale allowance(s)")
    return 1 if bad or stale else 0


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    where = executable_lines()
    args = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
            "--ignore", str(ROOT / "tests" / "test_no_cycles.py"), *argv]
    reached = traced_run(args)
    return report([key for key in where if key not in reached], where)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
